//! Shared builders for hand-written test programs, plus the
//! [`failpoint`] fault-injection facility for chaos tests.
//!
//! Every simulator crate's tests used to carry private copies of the
//! same four-line helpers (`vl`, `vload`, `vadd`, …); they live here
//! once, re-exported through `dva-tests` for the integration suite.
//! Only `dva-isa` is a dependency, so any crate above the ISA — and any
//! crate's dev-dependencies — can use them without a cycle.

// `deny`, not `forbid`: the counting allocator must implement the
// (unsafe) `GlobalAlloc` trait; that one impl carries a local `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc_counter;
pub mod failpoint;

pub use alloc_counter::{allocation_count, thread_allocation_count, CountingAllocator};

use dva_isa::{Inst, Program, VOperand, VectorAccess, VectorLength, VectorOp, VectorReg};

/// A [`VectorLength`] from a plain integer.
///
/// # Panics
///
/// Panics when `n` is not a valid vector length (tests want the loud
/// failure, not an `Option`).
pub fn vl(n: u32) -> VectorLength {
    VectorLength::new(n).unwrap()
}

/// A unit-stride [`VectorAccess`] of `n` elements at `base`.
pub fn unit(base: u64, n: u32) -> VectorAccess {
    VectorAccess::unit(base, vl(n))
}

/// A unit-stride vector load of `n` elements into `dst`.
pub fn vload(dst: VectorReg, base: u64, n: u32) -> Inst {
    Inst::VLoad {
        dst,
        access: unit(base, n),
    }
}

/// A unit-stride vector store of `n` elements from `src`.
pub fn vstore(src: VectorReg, base: u64, n: u32) -> Inst {
    Inst::VStore {
        src,
        access: unit(base, n),
    }
}

/// A register-register vector add `dst = a + b` over `n` elements.
pub fn vadd(dst: VectorReg, a: VectorReg, b: VectorReg, n: u32) -> Inst {
    Inst::VCompute {
        op: VectorOp::Add,
        dst,
        src1: VOperand::Reg(a),
        src2: Some(VOperand::Reg(b)),
        vl: vl(n),
    }
}

/// A named [`Program`] from a list of instructions.
pub fn program(name: &str, insts: Vec<Inst>) -> Program {
    Program::from_insts(name, insts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_the_expected_instructions() {
        assert!(matches!(
            vload(VectorReg::V0, 0x1000, 64),
            Inst::VLoad { dst: VectorReg::V0, access } if access.vl == vl(64)
        ));
        assert!(matches!(
            vstore(VectorReg::V2, 0x2000, 32),
            Inst::VStore {
                src: VectorReg::V2,
                ..
            }
        ));
        assert!(matches!(
            vadd(VectorReg::V4, VectorReg::V0, VectorReg::V2, 16),
            Inst::VCompute {
                op: VectorOp::Add,
                ..
            }
        ));
        let p = program("t", vec![vload(VectorReg::V0, 0, 8)]);
        assert_eq!(p.len(), 1);
    }
}
