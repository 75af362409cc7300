//! The report layer of the reproduction: declarative experiment specs,
//! one cache-backed runner, versioned artifacts, and the drivers that
//! regenerate every table and figure of the paper's evaluation
//! (Sections 2–7).
//!
//! Each figure module declares the sweeps it needs and renders their
//! results into [`Table`]s whose rows mirror what the paper plots; the
//! `src/bin` binaries print them. All simulation fans out through
//! [`dva_sim_api::Sweep`], so every figure parallelizes across the
//! (machine × program × latency) grid. Run with `--release` — the sweeps
//! simulate hundreds of millions of cycles:
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
//! | [`ablation`] | Beyond the paper: chaining and register-bank ports |
//!
//! Every figure module exposes its experiment as a declarative
//! [`ExperimentSpec`] (`SPEC`), the one way to produce it, collected in
//! [`registry::REGISTRY`]. The report layer around them is four modules:
//!
//! * [`spec`] — [`ExperimentSpec`]: a name, the sweep plans its grid
//!   needs (each dense or an adaptive latency-refinement session, see
//!   [`SweepPlan`]), how its sections render from the measured results,
//!   and the [`Invariant`]s (e.g. `IDEAL ≤ DVA ≤ REF`) they must satisfy.
//! * [`runner`] — [`Runner`], the one execution path: sweeps flow through
//!   the `dva-serve` content-addressed cache (so identical grid points
//!   across specs simulate once), invariants are checked, and the
//!   rendered sections are stamped into an artifact.
//! * [`artifact`] — [`Artifact`], the versioned output: [`Section`]s of
//!   pre-formatted [`Table`] cells (byte-stable by construction), the
//!   producing [`ENGINE_VERSION`](dva_engine::ENGINE_VERSION) and the grid
//!   options. It is written, never read back: canonical JSON (what
//!   `artifacts/golden/` pins byte for byte), ASCII (the binaries'
//!   stdout) and CSV.
//! * [`cli`] — the one command line: each binary looks its spec up with
//!   [`find`] and hands it to [`cli::run_spec`] (`all` hands the whole
//!   registry to [`cli::run_all`]), which parses `--quick`/`--full`/
//!   `--threads` and `--json`/`--csv`/`--golden-check`, runs the spec,
//!   writes the artifacts and byte-checks them against
//!   `artifacts/golden/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod artifact;
pub mod cli;
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
pub mod runner;
pub mod spec;
pub mod table;
pub mod table1;

pub use artifact::{Artifact, Section};
pub use cli::RunOpts;
pub use common::latencies;
pub use dva_sim_api::{Machine, SimResult, Sweep, SweepPoint, SweepResults};
pub use dva_workloads::{Benchmark, Scale};
pub use registry::{find, REGISTRY};
pub use runner::{RunError, Runner};
pub use spec::{ExperimentSpec, Invariant, SweepPlan};
pub use table::Table;
