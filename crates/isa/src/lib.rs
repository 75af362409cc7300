//! Instruction-set model for the *Decoupled Vector Architectures* (HPCA 1996)
//! reproduction.
//!
//! This crate defines the architectural vocabulary shared by every simulator
//! in the workspace: registers, vector lengths and strides, memory accesses
//! and their ranges, decoded instructions, and program/trace containers.
//!
//! The modeled machine follows the paper's *Reference Vector Architecture*
//! (a close model of the Convex C3400): a scalar part with `A` (address) and
//! `S` (scalar) registers, and a vector part with eight vector registers of
//! 128 elements of 64 bits each.
//!
//! # Examples
//!
//! ```
//! use dva_isa::{Inst, Program, VectorAccess, VectorLength, VectorReg};
//!
//! let vl = VectorLength::new(64).unwrap();
//! let access = VectorAccess::unit(0x1000, vl);
//! let program = Program::from_insts(
//!     "example",
//!     vec![Inst::VLoad { dst: VectorReg::V0, access }],
//! );
//! assert_eq!(program.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inline_vec;
mod inst;
mod mem;
mod program;
mod reg;
mod vector;

pub use inline_vec::InlineVec;
pub use inst::{Inst, ReduceOp, ScalarClass, VOperand, VectorOp};
pub use mem::{MemRange, VectorAccess};
pub use program::{BasicBlockIter, Program, ProgramBuilder, TraceSummary};
pub use reg::{ScalarBank, ScalarReg, VectorReg, NUM_VECTOR_REGS, VECTOR_BANK_SIZE};
pub use vector::{Stride, VectorLength, ELEM_BYTES, MAX_VECTOR_LENGTH};

/// Simulation time, measured in processor cycles.
pub type Cycle = u64;

/// The longest delay — a memory latency or a functional-unit startup —
/// a configuration may carry: 2^20 cycles.
///
/// The paper sweeps latencies of 1 to a few hundred cycles, and the
/// widest adaptive axis in use reaches 20,000, so the bound is far above
/// any real machine. It also keeps every cycle count a run can reach far
/// inside a JSON integer's `i64` range: a delay near `u64::MAX` would be
/// simulated and then fail to render. Every wire decoder of a delay
/// rejects a larger one, and every engine asserts the bound when it arms
/// a run (the memory system checks the latency, the register file the
/// startups), so a configuration built in Rust fails before its first
/// tick.
pub const MAX_DELAY: Cycle = 1 << 20;

/// Accumulates the earliest cycle strictly after a reference point — the
/// shared kernel of every next-event (fast-forward) computation: feed it
/// each candidate time with [`consider`](EarliestAfter::consider) and
/// read the minimum future one back with [`get`](EarliestAfter::get).
///
/// # Examples
///
/// ```
/// use dva_isa::EarliestAfter;
///
/// let mut next = EarliestAfter::new(10);
/// next.consider(7); // already in the past: ignored
/// next.consider(42);
/// next.consider(15);
/// assert_eq!(next.get(), Some(15));
/// assert_eq!(EarliestAfter::new(10).get(), None);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EarliestAfter {
    now: Cycle,
    next: Option<Cycle>,
}

impl EarliestAfter {
    /// Starts an accumulation relative to `now`.
    pub fn new(now: Cycle) -> EarliestAfter {
        EarliestAfter { now, next: None }
    }

    /// Offers a candidate time; kept only if it is strictly after `now`
    /// and earlier than every candidate seen so far.
    pub fn consider(&mut self, t: Cycle) {
        if t > self.now && self.next.is_none_or(|n| t < n) {
            self.next = Some(t);
        }
    }

    /// Offers an optional candidate time.
    pub fn consider_opt(&mut self, t: Option<Cycle>) {
        if let Some(t) = t {
            self.consider(t);
        }
    }

    /// The earliest future candidate, or `None` if none was offered.
    pub fn get(self) -> Option<Cycle> {
        self.next
    }
}
