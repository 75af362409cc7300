//! Unified simulation API over every machine of the paper's evaluation.
//!
//! The paper's results are a cross-product of *machines* (REF, DVA,
//! BYP n/m, IDEAL) × *programs* × *memory latencies* — extended here by
//! a fourth axis, the *memory model* (the flat / banked / multi-port
//! kinds of [`dva_memory::MemoryModelKind`]). The underlying crates
//! expose one fallible entry per machine family ([`dva_ref::RefRunner`],
//! [`dva_core::DvaRunner`], [`dva_core::ideal_bound`]); this crate folds
//! them into a single [`Machine`] abstraction with a uniform
//! [`Machine::simulate`] returning one [`SimResult`] type, and a parallel
//! [`Sweep`] session that fans the whole cross-product out over OS
//! threads.
//!
//! Every timed machine is a [`dva_engine::Processor`] run by the shared
//! [`dva_engine::Driver`], and every result wraps the same
//! [`ResultCore`]. The machine set is closed —
//! REF, DVA, BYP and IDEAL — so every grid point is plain data that can
//! be keyed, cached, served and serialized; a library user can still
//! drive a processor of their own through `dva-engine` directly.
//!
//! # Examples
//!
//! Simulate one program on every machine:
//!
//! ```
//! use dva_sim_api::Machine;
//! use dva_workloads::{Benchmark, Scale};
//!
//! let program = Benchmark::Trfd.program(Scale::Quick);
//! let machines = [Machine::reference(30), Machine::dva(30), Machine::ideal()];
//! let cycles: Vec<u64> = machines.iter().map(|m| m.simulate(&program).cycles).collect();
//! assert!(cycles[2] <= cycles[1]); // IDEAL bounds the DVA
//! ```
//!
//! Run a parallel sweep session:
//!
//! ```
//! use dva_sim_api::{Machine, Sweep};
//! use dva_workloads::{Benchmark, Scale};
//!
//! let results = Sweep::new()
//!     .machines([Machine::reference(1), Machine::dva(1)])
//!     .benchmarks([Benchmark::Trfd])
//!     .latencies([1, 30])
//!     .scale(Scale::Quick)
//!     .run();
//! assert_eq!(results.points.len(), 4); // 2 machines × 1 program × 2 latencies
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod cancel;
mod fault;
mod machine;
mod prepare;
mod result;
mod stream;
mod sweep;
mod wire;

pub use adaptive::{
    knee_latency, AdaptiveOutcome, AdaptivePlanner, AdaptiveReport, AdaptiveSweep, CurveReport,
    DEFAULT_SEEDS, DEFAULT_TOLERANCE,
};
pub use cancel::CancelToken;
pub use fault::{PointError, PointErrorKind};
pub use machine::Machine;
pub use prepare::{PreparedProgram, Runners};
pub use result::{MachineDetail, SimResult};
pub use stream::{PointSpec, SweepStream};
pub use sweep::{available_workers, Sweep, SweepPoint, SweepResults};

// The core every [`SimResult`] carries, and the memory axis of [`Sweep`]
// sessions (the full memory surface lives in `dva_memory`).
pub use dva_engine::ResultCore;
pub use dva_memory::MemoryModelKind;
