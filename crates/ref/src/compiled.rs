//! Translate-once compiled programs for the reference machine.
//!
//! The reference dispatcher re-derived its issue metadata — operand read
//! lists, scalar gate registers, unit routing, access strides — from the
//! architectural [`Inst`] on *every* issue attempt, including the stalled
//! ones. A [`CompiledProgram`] decodes each instruction exactly once into
//! a flat [`RefOp`] stream of plain `Copy` data, so a sweep decodes each
//! program once instead of once per grid point and the dispatcher's hot
//! loop never allocates.

use dva_isa::{InlineVec, Inst, Program, ScalarReg, Stride, VOperand, VectorLength, VectorReg};

/// One pre-decoded instruction, carrying exactly the fields the
/// dispatcher's issue checks consume.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RefOp {
    /// Scalar ALU operation (1 cycle).
    SAlu {
        dst: ScalarReg,
        srcs: [Option<ScalarReg>; 2],
    },
    /// Scalar load through the scalar cache.
    SLoad { dst: ScalarReg, addr: u64 },
    /// Scalar store (write-through).
    SStore { src: ScalarReg, addr: u64 },
    /// Conditional branch; issues once the condition is ready.
    Branch { cond: ScalarReg },
    /// Vector computation on FU1/FU2.
    VCompute {
        dst: VectorReg,
        /// Vector register sources, in operand order.
        reads: InlineVec<VectorReg, 2>,
        /// Scalar broadcast operands gating issue.
        sregs: [Option<ScalarReg>; 2],
        /// Whether the opcode is restricted to the general-purpose unit.
        general_unit: bool,
        vl: VectorLength,
    },
    /// Reduction; the scalar result reaches the scoreboard.
    VReduce {
        dst: ScalarReg,
        src: VectorReg,
        vl: VectorLength,
    },
    /// Strided vector load.
    VLoad {
        dst: VectorReg,
        vl: VectorLength,
        stride: Stride,
    },
    /// Strided vector store.
    VStore {
        src: VectorReg,
        vl: VectorLength,
        stride: Stride,
    },
    /// Indexed gather (streams the index register).
    VGather {
        dst: VectorReg,
        index: VectorReg,
        vl: VectorLength,
    },
    /// Indexed scatter (streams data and index).
    VScatter {
        src: VectorReg,
        index: VectorReg,
        vl: VectorLength,
    },
}

fn decode(inst: &Inst) -> RefOp {
    match inst {
        Inst::SAlu { dst, src1, src2 } => RefOp::SAlu {
            dst: *dst,
            srcs: [*src1, *src2],
        },
        Inst::SLoad { dst, addr } => RefOp::SLoad {
            dst: *dst,
            addr: *addr,
        },
        Inst::SStore { src, addr } => RefOp::SStore {
            src: *src,
            addr: *addr,
        },
        Inst::Branch { cond, .. } => RefOp::Branch { cond: *cond },
        Inst::VCompute {
            op,
            dst,
            src1,
            src2,
            vl,
        } => {
            let mut reads: InlineVec<VectorReg, 2> = InlineVec::new();
            let mut sregs = [None, None];
            for (i, operand) in [Some(src1), src2.as_ref()].into_iter().enumerate() {
                match operand {
                    Some(VOperand::Reg(v)) => reads.push(*v),
                    Some(VOperand::Scalar(s)) => sregs[i] = Some(*s),
                    None => {}
                }
            }
            RefOp::VCompute {
                dst: *dst,
                reads,
                sregs,
                general_unit: op.requires_general_unit(),
                vl: *vl,
            }
        }
        Inst::VReduce { dst, src, vl, .. } => RefOp::VReduce {
            dst: *dst,
            src: *src,
            vl: *vl,
        },
        Inst::VLoad { dst, access } => RefOp::VLoad {
            dst: *dst,
            vl: access.vl,
            stride: access.stride,
        },
        Inst::VStore { src, access } => RefOp::VStore {
            src: *src,
            vl: access.vl,
            stride: access.stride,
        },
        Inst::VGather { dst, index, vl, .. } => RefOp::VGather {
            dst: *dst,
            index: *index,
            vl: *vl,
        },
        Inst::VScatter { src, index, vl, .. } => RefOp::VScatter {
            src: *src,
            index: *index,
            vl: *vl,
        },
    }
}

/// A [`Program`] pre-decoded into the reference dispatcher's issue form.
///
/// Compiling is configuration-independent — one compiled program serves
/// every [`RefParams`](crate::RefParams) and may be shared across threads
/// behind an [`Arc`](std::sync::Arc). Results are byte-identical to
/// decoding at dispatch time.
///
/// # Examples
///
/// ```
/// use dva_ref::{ChainPolicy, CompiledProgram, RefParams, RefRunner};
/// use dva_workloads::{Benchmark, Scale};
/// use std::sync::Arc;
///
/// let program = Benchmark::Trfd.program(Scale::Quick);
/// let compiled = Arc::new(CompiledProgram::compile(&program));
/// let mut runner = RefRunner::new();
/// for latency in [1, 30] {
///     let params = RefParams::with_latency(latency);
///     let result = runner.try_run(&params, ChainPolicy::reference(), &compiled, true);
///     assert_eq!(result.unwrap().insts, program.len() as u64);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    program: Program,
    ops: Box<[RefOp]>,
}

impl CompiledProgram {
    /// Decodes `program` into its issue stream. The program's instruction
    /// storage is shared, not copied.
    pub fn compile(program: &Program) -> CompiledProgram {
        CompiledProgram {
            program: program.clone(),
            ops: program.insts().iter().map(decode).collect(),
        }
    }

    /// The source program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub(crate) fn ops(&self) -> &[RefOp] {
        &self.ops
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::{ReduceOp, VectorAccess, VectorOp};
    use dva_testutil::vl;

    #[test]
    fn decode_flattens_operands_in_order() {
        let op = decode(&Inst::VCompute {
            op: VectorOp::Mul,
            dst: VectorReg::V4,
            src1: VOperand::Scalar(ScalarReg::scalar(1)),
            src2: Some(VOperand::Reg(VectorReg::V2)),
            vl: vl(16),
        });
        let RefOp::VCompute {
            reads,
            sregs,
            general_unit,
            ..
        } = op
        else {
            panic!("expected a compute op");
        };
        assert_eq!(&reads[..], &[VectorReg::V2]);
        assert_eq!(sregs, [Some(ScalarReg::scalar(1)), None]);
        assert!(general_unit, "multiply routes to FU2 only");
    }

    #[test]
    fn compile_covers_every_instruction_and_shares_storage() {
        let program = Program::from_insts(
            "t",
            vec![
                Inst::VLoad {
                    dst: VectorReg::V0,
                    access: VectorAccess::unit(0x1000, vl(64)),
                },
                Inst::VReduce {
                    op: ReduceOp::Sum,
                    dst: ScalarReg::scalar(2),
                    src: VectorReg::V0,
                    vl: vl(64),
                },
            ],
        );
        let compiled = CompiledProgram::compile(&program);
        assert_eq!(compiled.len(), program.len());
        assert!(matches!(compiled.ops()[0], RefOp::VLoad { .. }));
        assert!(matches!(compiled.ops()[1], RefOp::VReduce { .. }));
        assert_eq!(
            compiled.program().insts().as_ptr(),
            program.insts().as_ptr()
        );
    }
}
