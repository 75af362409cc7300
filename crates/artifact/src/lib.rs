//! Declarative experiment specs and versioned result artifacts.
//!
//! Before this crate, each of the twelve experiment binaries owned its
//! sweep construction, invariant assumptions, table printing and argument
//! parsing. This crate collapses them onto three pieces:
//!
//! * [`ExperimentSpec`] — a declarative description of one experiment:
//!   its name, the sweep plans it needs (as a function of the grid
//!   options — each plan a dense sweep or an adaptive latency-refinement
//!   session, see [`SweepPlan`]), how its sections render from the
//!   measured results, and the invariants (e.g. `IDEAL ≤ DVA ≤ REF`)
//!   the results must satisfy.
//! * [`Runner`] — the one execution path: sweeps flow through the
//!   `dva-serve` content-addressed cache (so identical grid points across
//!   specs simulate once), invariants are checked, and the rendered
//!   sections are stamped into an artifact.
//! * [`Artifact`] — the versioned output: pre-formatted table cells
//!   (byte-stable by construction), the producing
//!   [`ENGINE_VERSION`](dva_engine::ENGINE_VERSION), and the grid
//!   options, serializable to canonical JSON (what `artifacts/golden/`
//!   pins), ASCII (byte-identical to the pre-artifact binaries' stdout)
//!   and CSV.
//!
//! The [`cli`] module is the one command line of the experiment
//! binaries: the shared argument parser (`--quick`/`--full`/`--threads`
//! plus `--json`/`--csv`/`--golden-check`), the [`cli::run_spec`] /
//! [`cli::run_all`] entries every binary calls with specs from the
//! `dva-experiments` registry, and the golden-file comparison used by
//! CI.

pub mod artifact;
pub mod cli;
pub mod runner;
pub mod spec;

pub use artifact::{Artifact, Section, TableData};
pub use cli::{
    golden_bytes, golden_check, golden_dir, golden_path, parse_cli, try_parse, write_outputs,
    CliArgs, GoldenStatus, OutputOpts, Parsed, RunOpts,
};
pub use runner::{RunError, Runner};
pub use spec::{ExperimentSpec, Invariant, SpecManifest, SweepPlan};
