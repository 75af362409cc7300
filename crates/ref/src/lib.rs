//! Cycle-level simulator of the paper's *Reference Vector Architecture*: a
//! close model of the Convex C3400 (Section 2.1).
//!
//! The machine has:
//!
//! * a scalar part issuing at most one instruction per cycle, with scalar
//!   memory accesses served by a small scalar cache;
//! * a vector part with two computation units — `FU2` general purpose,
//!   `FU1` everything except multiply/divide/square-root — and one memory
//!   unit (`LD`) behind a single pipelined memory port;
//! * eight 128-element vector registers in two-register banks (2R + 1W
//!   ports per bank);
//! * flexible FU→FU and FU→store chaining, but **no** chaining of memory
//!   loads into functional units;
//! * one common in-order dispatch: the instruction at the head of the
//!   stream blocks everything behind it until it can issue — precisely the
//!   coupling that the decoupled architecture removes.
//!
//! # Examples
//!
//! ```
//! use dva_ref::{ChainPolicy, CompiledProgram, RefParams, RefRunner};
//! use dva_workloads::{Benchmark, Scale};
//! use std::sync::Arc;
//!
//! let program = Benchmark::Dyfesm.program(Scale::Quick);
//! let compiled = Arc::new(CompiledProgram::compile(&program));
//! let params = RefParams::with_latency(30);
//! let result = RefRunner::new()
//!     .try_run(&params, ChainPolicy::reference(), &compiled, true)
//!     .unwrap();
//! assert!(result.cycles > 0);
//! ```
//!
//! For experiments over several machines, prefer the unified `Machine`
//! and `Sweep` API of the `dva-sim-api` crate, which runs this engine,
//! the decoupled machine and the IDEAL bound behind one front door and
//! returns one result type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod sim;

pub use compiled::CompiledProgram;
pub use sim::{RefParams, RefRunner};
// The chaining policy every run names (see [`RefRunner::try_run`]).
pub use dva_uarch::ChainPolicy;
