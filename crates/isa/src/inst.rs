//! Decoded instructions.
//!
//! The simulators consume a *decoded trace*: every vector instruction
//! carries the vector length, stride and base address that were live in the
//! architectural VL/VS registers when it executed, exactly like the traces
//! produced by the Dixie tool in the paper.

use crate::mem::VectorAccess;
use crate::reg::{ScalarBank, ScalarReg, VectorReg};
use crate::vector::VectorLength;
use std::fmt;

/// Which side of the decoupled machine executes a scalar instruction.
///
/// `A`-register instructions perform address arithmetic and run on the
/// address processor; `S`-register instructions run on the scalar
/// processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarClass {
    /// Address arithmetic (the `A` register file / address processor).
    Address,
    /// Scalar computation (the `S` register file / scalar processor).
    Compute,
}

impl ScalarClass {
    /// The class a register belongs to, derived from its bank.
    pub fn of(reg: ScalarReg) -> ScalarClass {
        match reg.bank() {
            ScalarBank::Address => ScalarClass::Address,
            ScalarBank::Scalar => ScalarClass::Compute,
        }
    }
}

/// Vector arithmetic opcodes.
///
/// The reference architecture has two computation units: `FU2` is general
/// purpose, while `FU1` executes everything *except* multiplication,
/// division and square root (paper, Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum VectorOp {
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
    And,
    Or,
    Xor,
    Shift,
    Compare,
    Merge,
    Move,
}

impl VectorOp {
    /// Whether the operation can only execute on the general-purpose unit
    /// (`FU2`).
    pub fn requires_general_unit(self) -> bool {
        matches!(self, VectorOp::Mul | VectorOp::Div | VectorOp::Sqrt)
    }
}

impl fmt::Display for VectorOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VectorOp::Add => "vadd",
            VectorOp::Sub => "vsub",
            VectorOp::Mul => "vmul",
            VectorOp::Div => "vdiv",
            VectorOp::Sqrt => "vsqrt",
            VectorOp::And => "vand",
            VectorOp::Or => "vor",
            VectorOp::Xor => "vxor",
            VectorOp::Shift => "vshf",
            VectorOp::Compare => "vcmp",
            VectorOp::Merge => "vmrg",
            VectorOp::Move => "vmov",
        };
        f.write_str(s)
    }
}

/// Reduction opcodes (vector in, scalar out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceOp::Sum => "vsum",
            ReduceOp::Max => "vmax",
            ReduceOp::Min => "vmin",
        };
        f.write_str(s)
    }
}

/// A source operand of a vector computation: another vector register or a
/// scalar register broadcast across the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOperand {
    /// A vector register source.
    Reg(VectorReg),
    /// A scalar register broadcast (in the decoupled machine this operand
    /// travels from the scalar/address processor through a data queue).
    Scalar(ScalarReg),
}

impl VOperand {
    /// The vector register, when this operand is one.
    pub fn vreg(self) -> Option<VectorReg> {
        match self {
            VOperand::Reg(v) => Some(v),
            VOperand::Scalar(_) => None,
        }
    }

    /// The scalar register, when this operand is one.
    pub fn sreg(self) -> Option<ScalarReg> {
        match self {
            VOperand::Reg(_) => None,
            VOperand::Scalar(s) => Some(s),
        }
    }
}

impl fmt::Display for VOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VOperand::Reg(v) => write!(f, "{v}"),
            VOperand::Scalar(s) => write!(f, "{s}"),
        }
    }
}

/// A decoded instruction of the modeled Convex-style ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Scalar ALU operation; completes in one cycle on its processor.
    SAlu {
        /// Destination register (its bank determines the executing
        /// processor in the decoupled machine).
        dst: ScalarReg,
        /// First source, if any.
        src1: Option<ScalarReg>,
        /// Second source, if any.
        src2: Option<ScalarReg>,
    },
    /// Scalar load through the scalar cache.
    SLoad {
        /// Destination register.
        dst: ScalarReg,
        /// Byte address accessed.
        addr: u64,
    },
    /// Scalar store.
    SStore {
        /// Source register holding the data.
        src: ScalarReg,
        /// Byte address accessed.
        addr: u64,
    },
    /// Conditional branch, closing a basic block. The simulation model
    /// assumes perfect branch prediction (paper, Section 4.1), so the
    /// outcome is carried in the trace.
    Branch {
        /// Register holding the comparison result (selects the branch
        /// queue used in the decoupled machine).
        cond: ScalarReg,
        /// Trace-recorded outcome.
        taken: bool,
    },
    /// Vector computation on `FU1`/`FU2`.
    VCompute {
        /// Opcode.
        op: VectorOp,
        /// Destination vector register.
        dst: VectorReg,
        /// First source operand.
        src1: VOperand,
        /// Second source operand, if the op is binary.
        src2: Option<VOperand>,
        /// Vector length in effect.
        vl: VectorLength,
    },
    /// Reduction producing a scalar result.
    VReduce {
        /// Opcode.
        op: ReduceOp,
        /// Destination scalar register.
        dst: ScalarReg,
        /// Source vector register.
        src: VectorReg,
        /// Vector length in effect.
        vl: VectorLength,
    },
    /// Strided vector load.
    VLoad {
        /// Destination vector register.
        dst: VectorReg,
        /// Base/stride/length of the access.
        access: VectorAccess,
    },
    /// Strided vector store.
    VStore {
        /// Source vector register.
        src: VectorReg,
        /// Base/stride/length of the access.
        access: VectorAccess,
    },
    /// Indexed load (gather). Conflicts with all queued stores during
    /// disambiguation.
    VGather {
        /// Destination vector register.
        dst: VectorReg,
        /// Register holding the index vector.
        index: VectorReg,
        /// Base address the indices offset from.
        base: u64,
        /// Vector length in effect.
        vl: VectorLength,
    },
    /// Indexed store (scatter). Conflicts with all subsequent loads during
    /// disambiguation.
    VScatter {
        /// Source vector register.
        src: VectorReg,
        /// Register holding the index vector.
        index: VectorReg,
        /// Base address the indices offset from.
        base: u64,
        /// Vector length in effect.
        vl: VectorLength,
    },
}

impl Inst {
    /// Whether this is a vector instruction (computation, reduction or
    /// memory).
    pub fn is_vector(&self) -> bool {
        !matches!(
            self,
            Inst::SAlu { .. } | Inst::SLoad { .. } | Inst::SStore { .. } | Inst::Branch { .. }
        )
    }

    /// Whether this instruction accesses memory (scalar or vector).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Inst::SLoad { .. }
                | Inst::SStore { .. }
                | Inst::VLoad { .. }
                | Inst::VStore { .. }
                | Inst::VGather { .. }
                | Inst::VScatter { .. }
        )
    }

    /// Whether this instruction is a vector memory instruction.
    pub fn is_vector_memory(&self) -> bool {
        matches!(
            self,
            Inst::VLoad { .. } | Inst::VStore { .. } | Inst::VGather { .. } | Inst::VScatter { .. }
        )
    }

    /// The vector length of a vector instruction.
    pub fn vl(&self) -> Option<VectorLength> {
        match self {
            Inst::VCompute { vl, .. }
            | Inst::VReduce { vl, .. }
            | Inst::VGather { vl, .. }
            | Inst::VScatter { vl, .. } => Some(*vl),
            Inst::VLoad { access, .. } | Inst::VStore { access, .. } => Some(access.vl),
            _ => None,
        }
    }

    /// The number of architectural *operations* this instruction performs:
    /// `VL` for vector instructions, 1 otherwise (Table 1's
    /// instruction/operation distinction).
    pub fn operations(&self) -> u64 {
        self.vl().map_or(1, VectorLength::cycles)
    }

    /// Vector registers read by this instruction (up to two).
    pub fn vreg_reads(&self) -> [Option<VectorReg>; 2] {
        match self {
            Inst::VCompute { src1, src2, .. } => {
                [src1.vreg(), src2.as_ref().and_then(|s| s.vreg())]
            }
            Inst::VReduce { src, .. } => [Some(*src), None],
            Inst::VStore { src, .. } => [Some(*src), None],
            Inst::VGather { index, .. } => [Some(*index), None],
            Inst::VScatter { src, index, .. } => [Some(*src), Some(*index)],
            _ => [None, None],
        }
    }

    /// The vector register written by this instruction, if any.
    pub fn vreg_write(&self) -> Option<VectorReg> {
        match self {
            Inst::VCompute { dst, .. } | Inst::VLoad { dst, .. } | Inst::VGather { dst, .. } => {
                Some(*dst)
            }
            _ => None,
        }
    }

    /// Scalar registers read by this instruction (up to two).
    pub fn sreg_reads(&self) -> [Option<ScalarReg>; 2] {
        match self {
            Inst::SAlu { src1, src2, .. } => [*src1, *src2],
            Inst::SStore { src, .. } => [Some(*src), None],
            Inst::Branch { cond, .. } => [Some(*cond), None],
            Inst::VCompute { src1, src2, .. } => {
                [src1.sreg(), src2.as_ref().and_then(|s| s.sreg())]
            }
            _ => [None, None],
        }
    }

    /// The memory range accessed, for disambiguation purposes. Gathers and
    /// scatters return [`crate::MemRange::ALL`].
    pub fn mem_range(&self) -> Option<crate::MemRange> {
        match self {
            Inst::SLoad { addr, .. } | Inst::SStore { addr, .. } => Some(crate::MemRange::new(
                *addr,
                addr + crate::vector::ELEM_BYTES,
            )),
            Inst::VLoad { access, .. } | Inst::VStore { access, .. } => Some(access.range()),
            Inst::VGather { .. } | Inst::VScatter { .. } => Some(crate::MemRange::ALL),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::SAlu { dst, src1, src2 } => {
                write!(f, "alu {dst}")?;
                if let Some(s) = src1 {
                    write!(f, ", {s}")?;
                }
                if let Some(s) = src2 {
                    write!(f, ", {s}")?;
                }
                Ok(())
            }
            Inst::SLoad { dst, addr } => write!(f, "ld {dst}, {addr:#x}"),
            Inst::SStore { src, addr } => write!(f, "st {src}, {addr:#x}"),
            Inst::Branch { cond, taken } => {
                write!(f, "br {cond} ({})", if *taken { "taken" } else { "fall" })
            }
            Inst::VCompute {
                op,
                dst,
                src1,
                src2,
                vl,
            } => {
                write!(f, "{op} {dst}, {src1}")?;
                if let Some(s) = src2 {
                    write!(f, ", {s}")?;
                }
                write!(f, " (vl={vl})")
            }
            Inst::VReduce { op, dst, src, vl } => write!(f, "{op} {dst}, {src} (vl={vl})"),
            Inst::VLoad { dst, access } => write!(f, "vld {dst}, {access}"),
            Inst::VStore { src, access } => write!(f, "vst {src}, {access}"),
            Inst::VGather {
                dst, index, base, ..
            } => write!(f, "vgather {dst}, ({base:#x})[{index}]"),
            Inst::VScatter {
                src, index, base, ..
            } => write!(f, "vscatter {src}, ({base:#x})[{index}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemRange, Stride};

    fn vl(n: u32) -> VectorLength {
        VectorLength::new(n).unwrap()
    }

    #[test]
    fn operations_count_vl_for_vector_instructions() {
        let inst = Inst::VCompute {
            op: VectorOp::Add,
            dst: VectorReg::V0,
            src1: VOperand::Reg(VectorReg::V1),
            src2: Some(VOperand::Reg(VectorReg::V2)),
            vl: vl(100),
        };
        assert_eq!(inst.operations(), 100);
        let scalar = Inst::SAlu {
            dst: ScalarReg::scalar(0),
            src1: None,
            src2: None,
        };
        assert_eq!(scalar.operations(), 1);
    }

    #[test]
    fn fu2_only_ops_are_mul_div_sqrt() {
        assert!(VectorOp::Mul.requires_general_unit());
        assert!(VectorOp::Div.requires_general_unit());
        assert!(VectorOp::Sqrt.requires_general_unit());
        assert!(!VectorOp::Add.requires_general_unit());
        assert!(!VectorOp::Compare.requires_general_unit());
    }

    #[test]
    fn register_read_write_sets_are_consistent() {
        let inst = Inst::VCompute {
            op: VectorOp::Mul,
            dst: VectorReg::V4,
            src1: VOperand::Reg(VectorReg::V1),
            src2: Some(VOperand::Scalar(ScalarReg::scalar(2))),
            vl: vl(8),
        };
        assert_eq!(inst.vreg_reads(), [Some(VectorReg::V1), None]);
        assert_eq!(inst.vreg_write(), Some(VectorReg::V4));
        assert_eq!(inst.sreg_reads()[0], None);
        assert_eq!(inst.sreg_reads()[1], Some(ScalarReg::scalar(2)));
    }

    #[test]
    fn gather_range_is_all_memory() {
        let inst = Inst::VGather {
            dst: VectorReg::V0,
            index: VectorReg::V1,
            base: 0x1000,
            vl: vl(4),
        };
        assert_eq!(inst.mem_range(), Some(MemRange::ALL));
    }

    #[test]
    fn scalar_load_range_is_one_word() {
        let inst = Inst::SLoad {
            dst: ScalarReg::addr(0),
            addr: 0x500,
        };
        let r = inst.mem_range().unwrap();
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn vector_store_reads_its_source() {
        let inst = Inst::VStore {
            src: VectorReg::V6,
            access: VectorAccess::new(0x0, Stride::UNIT, vl(2)),
        };
        assert!(inst.is_vector());
        assert!(inst.is_memory());
        assert!(inst.is_vector_memory());
        assert_eq!(inst.vreg_reads()[0], Some(VectorReg::V6));
        assert_eq!(inst.vreg_write(), None);
    }

    #[test]
    fn display_is_never_empty() {
        let insts = [
            Inst::SAlu {
                dst: ScalarReg::addr(0),
                src1: Some(ScalarReg::addr(1)),
                src2: None,
            },
            Inst::Branch {
                cond: ScalarReg::scalar(0),
                taken: true,
            },
            Inst::VLoad {
                dst: VectorReg::V0,
                access: VectorAccess::unit(0, vl(1)),
            },
        ];
        for inst in insts {
            assert!(!inst.to_string().is_empty());
        }
    }
}
