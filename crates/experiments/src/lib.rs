//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (Sections 2–7).
//!
//! Each module reproduces one artifact: it declares the sweeps it needs
//! and renders their results into [`dva_metrics::Table`]s whose rows
//! mirror what the paper plots; the `src/bin` binaries print them. All
//! simulation fans out through [`dva_sim_api::Sweep`], so every figure
//! parallelizes across the (machine × program × latency) grid. Run with
//! `--release` — the sweeps simulate hundreds of millions of cycles:
//!
//! ```text
//! cargo run --release -p dva-experiments --bin table1
//! cargo run --release -p dva-experiments --bin fig3 -- [--quick|--full] [--threads N]
//! cargo run --release -p dva-experiments --bin all
//! ```
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1: basic operation counts |
//! | [`fig1`] | Figure 1: REF functional-unit state breakdown |
//! | [`fig3`] | Figure 3: IDEAL/REF/DVA execution time vs latency |
//! | [`fig4`] | Figure 4: ratio of `( , , )` cycles REF/DVA |
//! | [`fig5`] | Figure 5: DVA speedup over REF |
//! | [`fig5_adaptive`] | Figure 5 at one-cycle latency resolution, adaptively sampled |
//! | [`fig6`] | Figure 6: AVDQ busy-slot distributions |
//! | [`fig7`] | Figure 7: bypass configurations vs DVA and IDEAL |
//! | [`fig8`] | Figure 8: memory-traffic ratio BYP/DVA |
//! | [`queues`] | Section 5/6: queue-sizing sensitivity |
//! | [`membanks`] | Beyond the paper: bank-conflict stride sweep over the memory backends |
//!
//! Every module exposes its experiment as a declarative
//! [`dva_artifact::ExperimentSpec`] (`SPEC`), the one way to produce it,
//! collected in [`registry::REGISTRY`]. This crate has no command line of
//! its own: each binary looks its spec up with [`find`] and hands it to
//! [`dva_artifact::cli::run_spec`] (`all` hands the whole registry to
//! [`dva_artifact::cli::run_all`]), which parses the flags, executes
//! specs through one cache-backed [`dva_artifact::Runner`], emits
//! versioned artifacts (`--json` / `--csv`) and byte-checks them against
//! `artifacts/golden/` (`--golden-check`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod common;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig5_adaptive;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod membanks;
pub mod queues;
pub mod registry;
pub mod table1;

pub use common::{latencies, RunOpts};
pub use dva_artifact::{Artifact, ExperimentSpec, Invariant, RunError, Runner};
pub use dva_sim_api::{Machine, SimResult, Sweep, SweepPoint, SweepResults};
pub use dva_workloads::{Benchmark, Scale};
pub use registry::{find, REGISTRY};
