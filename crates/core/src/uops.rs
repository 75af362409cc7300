//! Decoupled µops and the fetch processor's translation rules.
//!
//! The fetch processor (FP) splits the sequential instruction stream into
//! three streams (paper, Section 4.1): memory accessing instructions go to
//! the address processor, scalar computation to the scalar processor and
//! vector computation to the vector processor. Whenever an instruction
//! needs data produced by another processor, the FP inserts hidden `QMOV`
//! pseudo-instructions that move values through the architectural queues;
//! QMOVs are implementation details, not part of the programmer-visible
//! ISA.

use dva_isa::{
    InlineVec, Inst, MemRange, ReduceOp, ScalarBank, ScalarReg, VectorAccess, VectorLength,
    VectorOp, VectorReg,
};

/// Sequence number identifying a store in global program order (both
/// scalar and vector stores; the machine executes stores strictly in this
/// order).
pub type StoreSeq = u64;

/// Dense index of a *vector* store in program order: the slot its data
/// occupies in the engine's data-ready ring. Scalar stores never carry
/// one — their data travels through the SSDQ, not the VADQ.
pub type DataSlot = u32;

/// Allocates store ordering metadata during translation: the global
/// [`StoreSeq`] every store receives, and the dense [`DataSlot`] assigned
/// to vector stores only.
///
/// One allocator is threaded through the translation of a whole program
/// (see [`CompiledProgram::compile`](crate::CompiledProgram::compile)), so
/// the numbering is a pure function of the instruction stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreAlloc {
    next_seq: StoreSeq,
    next_data: DataSlot,
}

impl StoreAlloc {
    /// A fresh allocator, numbering from zero.
    pub fn new() -> StoreAlloc {
        StoreAlloc::default()
    }

    /// Store sequence numbers handed out so far.
    pub fn stores(&self) -> StoreSeq {
        self.next_seq
    }

    /// Vector-store data slots handed out so far.
    pub fn vector_stores(&self) -> DataSlot {
        self.next_data
    }

    fn take_seq(&mut self) -> StoreSeq {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn take_vector(&mut self) -> (StoreSeq, DataSlot) {
        let data = self.next_data;
        self.next_data += 1;
        (self.take_seq(), data)
    }
}

/// Where a scalar store's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreDataSource {
    /// From the scalar processor through the scalar store data queue.
    ScalarProcessor,
    /// From an address-processor register (available when the store-address
    /// µop executes).
    AddressProcessor(ScalarReg),
}

/// The memory access shape of a vector reference, for disambiguation.
///
/// The hazard range is computed once at translation time and carried with
/// the µop, so the engine's per-attempt disambiguation scans compare
/// precomputed ranges instead of re-deriving them from base/stride/length
/// on every tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecAccess {
    vl: VectorLength,
    range: MemRange,
    /// `Some` for strided accesses; `None` for gather/scatter, which
    /// cannot be characterized by a range and conflict with everything
    /// (paper, Section 4.2).
    strided: Option<VectorAccess>,
}

impl VecAccess {
    /// A strided access (hazard range precomputed from the access).
    pub fn strided_access(access: VectorAccess) -> VecAccess {
        VecAccess {
            vl: access.vl,
            range: access.range(),
            strided: Some(access),
        }
    }

    /// A gather/scatter of the given length (conflicts with all memory).
    pub fn indexed(vl: VectorLength) -> VecAccess {
        VecAccess {
            vl,
            range: MemRange::ALL,
            strided: None,
        }
    }

    /// The vector length of the access.
    pub fn vl(&self) -> VectorLength {
        self.vl
    }

    /// The (precomputed) memory range for hazard checks.
    pub fn range(&self) -> MemRange {
        self.range
    }

    /// The strided access, when this is one (bypass requires an exact
    /// strided match).
    pub fn strided(&self) -> Option<&VectorAccess> {
        self.strided.as_ref()
    }

    /// The element stride, when the access has one — what the memory
    /// model's bank-conflict timing keys on (`None` for gather/scatter).
    pub fn stride(&self) -> Option<dva_isa::Stride> {
        self.strided.map(|a| a.stride)
    }
}

/// µops executed by the address processor, in APIQ order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApOp {
    /// Address arithmetic (1 cycle). `pops_sadq` values must be received
    /// from the scalar processor first.
    Alu {
        /// Destination `A` register.
        dst: ScalarReg,
        /// `A`-register sources.
        srcs: [Option<ScalarReg>; 2],
        /// Number of operands arriving through the SP→AP data queue.
        pops_sadq: u8,
    },
    /// QMOV: send an `A` register value to the AP→SP data queue.
    PushAsdq {
        /// Source register.
        src: ScalarReg,
    },
    /// Scalar load (through the scalar cache).
    ScalarLoad {
        /// Destination when it stays in the AP (`A` register).
        dst: Option<ScalarReg>,
        /// Whether the result is forwarded to the scalar processor.
        to_sp: bool,
        /// Byte address.
        addr: u64,
    },
    /// Enqueue a scalar store address into the SSAQ.
    ScalarStoreAddr {
        /// Byte address.
        addr: u64,
        /// Where the data will come from.
        data: StoreDataSource,
        /// Global store order.
        seq: StoreSeq,
    },
    /// Vector load: disambiguate, then occupy the bus for VL cycles.
    VectorLoad {
        /// The access shape.
        access: VecAccess,
    },
    /// Enqueue a vector store address into the VSAQ.
    VectorStoreAddr {
        /// The access shape.
        access: VecAccess,
        /// Global store order.
        seq: StoreSeq,
        /// The store's slot in the engine's data-ready ring.
        data: DataSlot,
    },
    /// Branch resolved on the AP (sends its outcome up the AFBQ).
    Branch {
        /// Condition register.
        cond: ScalarReg,
    },
}

/// µops executed by the scalar processor, in SPIQ order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpOp {
    /// Scalar computation (1 cycle).
    Alu {
        /// Destination `S` register.
        dst: ScalarReg,
        /// `S`-register sources.
        srcs: [Option<ScalarReg>; 2],
        /// Number of operands arriving through the AP→SP data queue.
        pops_asdq: u8,
    },
    /// QMOV: receive a value from the AP→SP data queue into a register.
    PopAsdq {
        /// Destination register.
        dst: ScalarReg,
    },
    /// QMOV: send a register to the SP→AP data queue.
    PushSadq {
        /// Source register.
        src: ScalarReg,
    },
    /// QMOV: send a broadcast operand to the SP→VP data queue.
    PushSvdq {
        /// Source register.
        src: ScalarReg,
    },
    /// QMOV: send store data to the scalar store data queue.
    PushSsdq {
        /// Source register.
        src: ScalarReg,
    },
    /// QMOV: receive a reduction result from the VP→SP data queue.
    PopVsdq {
        /// Destination register.
        dst: ScalarReg,
    },
    /// Branch resolved on the SP (sends its outcome up the SFBQ).
    Branch {
        /// Condition register.
        cond: ScalarReg,
    },
}

/// µops executed by the vector processor, in VPIQ order.
///
/// The register read lists are precomputed at translation time as
/// allocation-free [`InlineVec`]s, so the engine's per-tick issue attempts
/// never build operand vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpOp {
    /// Vector computation on FU1/FU2. A scalar operand is popped from the
    /// SP→VP data queue at issue.
    Compute {
        /// Opcode.
        op: VectorOp,
        /// Destination register.
        dst: VectorReg,
        /// Vector register sources, in operand order.
        reads: InlineVec<VectorReg, 2>,
        /// Whether a broadcast operand arrives through the SVDQ.
        pops_svdq: bool,
        /// Vector length.
        vl: VectorLength,
    },
    /// Reduction; the scalar result is pushed to the VP→SP data queue.
    Reduce {
        /// Opcode.
        op: ReduceOp,
        /// Source register.
        src: VectorReg,
        /// Vector length.
        vl: VectorLength,
    },
    /// QMOV: move the head AVDQ slot into a vector register (`reads`
    /// holds the index register for gathers, which stream it alongside).
    QmovLoad {
        /// Destination register.
        dst: VectorReg,
        /// Registers streamed while the move runs (the gather index, if
        /// any).
        reads: InlineVec<VectorReg, 1>,
        /// Vector length.
        vl: VectorLength,
    },
    /// QMOV: move a vector register into the VADQ (`reads` additionally
    /// holds the index register for scatters).
    QmovStore {
        /// Registers streamed into the queue: the data source, then the
        /// scatter index, if any.
        reads: InlineVec<VectorReg, 2>,
        /// Vector length.
        vl: VectorLength,
        /// The store this data belongs to, linking the VADQ entry to its
        /// VSAQ address entry and data-ready ring slot.
        data: DataSlot,
    },
}

/// The µop bundle one architectural instruction expands to.
///
/// Bundles are plain `Copy` data — no heap storage. Compiling a program
/// appends each bundle's µops to the per-unit streams of the
/// [`CompiledProgram`](crate::CompiledProgram); no bundle is kept.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bundle {
    /// µop for the address processor, if any.
    pub ap: Option<ApOp>,
    /// µops for the scalar processor (an instruction can require both a
    /// data push and its own execution).
    pub sp: InlineVec<SpOp, 2>,
    /// µop for the vector processor, if any.
    pub vp: Option<VpOp>,
}

impl Default for SpOp {
    /// An arbitrary padding value for inline µop storage (never executed).
    fn default() -> SpOp {
        SpOp::Branch {
            cond: ScalarReg::scalar(0),
        }
    }
}

fn is_a(reg: ScalarReg) -> bool {
    reg.bank() == ScalarBank::Address
}

/// Translates one architectural instruction into its µop bundle,
/// allocating store ordering metadata from `alloc`.
///
/// # Panics
///
/// Panics on a vector computation whose broadcast operand is an `A`
/// register — the workload generator only produces `S`-register broadcast
/// operands, matching the machine's SP→VP queue.
pub fn translate(inst: &Inst, alloc: &mut StoreAlloc) -> Bundle {
    let mut b = Bundle::default();
    match inst {
        Inst::SAlu { dst, src1, src2 } => {
            let srcs = [*src1, *src2];
            if is_a(*dst) {
                // Runs on the AP; S-register operands travel SP→AP.
                let mut pops = 0u8;
                let mut ap_srcs = [None, None];
                for (i, s) in srcs.into_iter().enumerate() {
                    match s {
                        Some(r) if is_a(r) => ap_srcs[i] = Some(r),
                        Some(r) => {
                            b.sp.push(SpOp::PushSadq { src: r });
                            pops += 1;
                        }
                        None => {}
                    }
                }
                b.ap = Some(ApOp::Alu {
                    dst: *dst,
                    srcs: ap_srcs,
                    pops_sadq: pops,
                });
            } else {
                // Runs on the SP; A-register operands travel AP→SP via the
                // AP executing a push (modeled as a zero-destination Alu
                // whose result feeds the ASDQ — see the engine).
                let mut pops = 0u8;
                let mut sp_srcs = [None, None];
                for (i, s) in srcs.into_iter().enumerate() {
                    match s {
                        Some(r) if is_a(r) => {
                            b.ap = Some(ApOp::PushAsdq { src: r });
                            pops += 1;
                        }
                        Some(r) => sp_srcs[i] = Some(r),
                        None => {}
                    }
                }
                b.sp.push(SpOp::Alu {
                    dst: *dst,
                    srcs: sp_srcs,
                    pops_asdq: pops,
                });
            }
        }
        Inst::SLoad { dst, addr } => {
            if is_a(*dst) {
                b.ap = Some(ApOp::ScalarLoad {
                    dst: Some(*dst),
                    to_sp: false,
                    addr: *addr,
                });
            } else {
                b.ap = Some(ApOp::ScalarLoad {
                    dst: None,
                    to_sp: true,
                    addr: *addr,
                });
                b.sp.push(SpOp::PopAsdq { dst: *dst });
            }
        }
        Inst::SStore { src, addr } => {
            let seq = alloc.take_seq();
            if is_a(*src) {
                b.ap = Some(ApOp::ScalarStoreAddr {
                    addr: *addr,
                    data: StoreDataSource::AddressProcessor(*src),
                    seq,
                });
            } else {
                b.sp.push(SpOp::PushSsdq { src: *src });
                b.ap = Some(ApOp::ScalarStoreAddr {
                    addr: *addr,
                    data: StoreDataSource::ScalarProcessor,
                    seq,
                });
            }
        }
        Inst::Branch { cond, .. } => {
            if is_a(*cond) {
                b.ap = Some(ApOp::Branch { cond: *cond });
            } else {
                b.sp.push(SpOp::Branch { cond: *cond });
            }
        }
        Inst::VCompute {
            op,
            dst,
            src1,
            src2,
            vl,
        } => {
            let mut reads: InlineVec<VectorReg, 2> = InlineVec::new();
            let mut pops_svdq = false;
            for operand in [Some(src1), src2.as_ref()].into_iter().flatten() {
                match operand {
                    dva_isa::VOperand::Reg(v) => reads.push(*v),
                    dva_isa::VOperand::Scalar(s) => {
                        assert!(!is_a(*s), "vector broadcast operands must be S registers");
                        b.sp.push(SpOp::PushSvdq { src: *s });
                        pops_svdq = true;
                    }
                }
            }
            b.vp = Some(VpOp::Compute {
                op: *op,
                dst: *dst,
                reads,
                pops_svdq,
                vl: *vl,
            });
        }
        Inst::VReduce { op, dst, src, vl } => {
            b.vp = Some(VpOp::Reduce {
                op: *op,
                src: *src,
                vl: *vl,
            });
            b.sp.push(SpOp::PopVsdq { dst: *dst });
        }
        Inst::VLoad { dst, access } => {
            b.ap = Some(ApOp::VectorLoad {
                access: VecAccess::strided_access(*access),
            });
            b.vp = Some(VpOp::QmovLoad {
                dst: *dst,
                reads: InlineVec::new(),
                vl: access.vl,
            });
        }
        Inst::VStore { src, access } => {
            let (seq, data) = alloc.take_vector();
            b.vp = Some(VpOp::QmovStore {
                reads: [*src].into_iter().collect(),
                vl: access.vl,
                data,
            });
            b.ap = Some(ApOp::VectorStoreAddr {
                access: VecAccess::strided_access(*access),
                seq,
                data,
            });
        }
        Inst::VGather { dst, index, vl, .. } => {
            b.ap = Some(ApOp::VectorLoad {
                access: VecAccess::indexed(*vl),
            });
            b.vp = Some(VpOp::QmovLoad {
                dst: *dst,
                reads: [*index].into_iter().collect(),
                vl: *vl,
            });
        }
        Inst::VScatter { src, index, vl, .. } => {
            let (seq, data) = alloc.take_vector();
            b.vp = Some(VpOp::QmovStore {
                reads: [*src, *index].into_iter().collect(),
                vl: *vl,
                data,
            });
            b.ap = Some(ApOp::VectorStoreAddr {
                access: VecAccess::indexed(*vl),
                seq,
                data,
            });
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::{Stride, VOperand};
    use dva_testutil::vl;

    #[test]
    fn vector_load_splits_into_ap_and_vp_qmov() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::VLoad {
                dst: VectorReg::V3,
                access: VectorAccess::unit(0x1000, vl(64)),
            },
            &mut alloc,
        );
        assert!(matches!(b.ap, Some(ApOp::VectorLoad { .. })));
        let Some(VpOp::QmovLoad {
            dst: VectorReg::V3,
            reads,
            ..
        }) = b.vp
        else {
            panic!("expected QMOV load µop");
        };
        assert!(reads.is_empty(), "non-gather loads stream no index");
        assert!(b.sp.is_empty());
        assert_eq!(
            alloc.stores(),
            0,
            "loads do not allocate store sequence numbers"
        );
    }

    #[test]
    fn stores_allocate_global_sequence_numbers() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::VStore {
                src: VectorReg::V0,
                access: VectorAccess::new(0x0, Stride::UNIT, vl(8)),
            },
            &mut alloc,
        );
        let _ = translate(
            &Inst::SStore {
                src: ScalarReg::scalar(2),
                addr: 0x10,
            },
            &mut alloc,
        );
        assert_eq!(alloc.stores(), 2);
        // Only the vector store consumed a data-ready slot, and its AP and
        // VP µops agree on it.
        assert_eq!(alloc.vector_stores(), 1);
        assert!(
            matches!(
                b.ap,
                Some(ApOp::VectorStoreAddr {
                    seq: 0,
                    data: 0,
                    ..
                })
            ) && matches!(b.vp, Some(VpOp::QmovStore { data: 0, .. }))
        );
    }

    #[test]
    fn scalar_broadcast_inserts_svdq_push() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::VCompute {
                op: VectorOp::Mul,
                dst: VectorReg::V1,
                src1: VOperand::Reg(VectorReg::V0),
                src2: Some(VOperand::Scalar(ScalarReg::scalar(0))),
                vl: vl(32),
            },
            &mut alloc,
        );
        assert_eq!(b.sp.len(), 1);
        assert!(matches!(b.sp[0], SpOp::PushSvdq { .. }));
        let Some(VpOp::Compute {
            pops_svdq: true,
            reads,
            ..
        }) = b.vp
        else {
            panic!("expected compute µop popping the SVDQ");
        };
        assert_eq!(&reads[..], &[VectorReg::V0]);
    }

    #[test]
    fn cross_bank_alu_generates_queue_moves() {
        let mut alloc = StoreAlloc::new();
        // A-register ALU with an S source: SP pushes, AP pops.
        let b = translate(
            &Inst::SAlu {
                dst: ScalarReg::addr(2),
                src1: Some(ScalarReg::scalar(1)),
                src2: None,
            },
            &mut alloc,
        );
        assert!(matches!(b.ap, Some(ApOp::Alu { pops_sadq: 1, .. })));
        assert!(matches!(b.sp[0], SpOp::PushSadq { .. }));
    }

    #[test]
    fn reduction_routes_result_to_sp() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::VReduce {
                op: ReduceOp::Sum,
                dst: ScalarReg::scalar(1),
                src: VectorReg::V2,
                vl: vl(16),
            },
            &mut alloc,
        );
        assert!(matches!(b.vp, Some(VpOp::Reduce { .. })));
        assert!(matches!(b.sp[0], SpOp::PopVsdq { .. }));
    }

    #[test]
    fn gather_conflicts_with_all_memory() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::VGather {
                dst: VectorReg::V0,
                index: VectorReg::V1,
                base: 0x1000,
                vl: vl(8),
            },
            &mut alloc,
        );
        let Some(ApOp::VectorLoad { access }) = b.ap else {
            panic!("expected vector load µop");
        };
        assert_eq!(access.range(), dva_isa::MemRange::ALL);
        assert!(access.strided().is_none());
        // The QMOV streams the index register alongside the move.
        let Some(VpOp::QmovLoad { reads, .. }) = b.vp else {
            panic!("expected QMOV load µop");
        };
        assert_eq!(&reads[..], &[VectorReg::V1]);
    }

    #[test]
    fn scatter_streams_data_then_index() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::VScatter {
                src: VectorReg::V2,
                index: VectorReg::V5,
                base: 0x1000,
                vl: vl(8),
            },
            &mut alloc,
        );
        let Some(VpOp::QmovStore { reads, .. }) = b.vp else {
            panic!("expected QMOV store µop");
        };
        assert_eq!(&reads[..], &[VectorReg::V2, VectorReg::V5]);
    }

    #[test]
    fn strided_access_range_is_precomputed() {
        let access = VectorAccess::new(0x100, Stride::new(2), vl(4));
        let vec = VecAccess::strided_access(access);
        assert_eq!(vec.range(), access.range());
        assert_eq!(vec.stride(), Some(access.stride));
        assert_eq!(vec.vl(), access.vl);
    }

    #[test]
    fn bundle_slot_counts_match_contents() {
        let mut alloc = StoreAlloc::new();
        let b = translate(
            &Inst::SLoad {
                dst: ScalarReg::scalar(3),
                addr: 0x40,
            },
            &mut alloc,
        );
        // One AP µop (the load) and one SP µop (its QMOV), no VP µop.
        assert!(matches!(b.ap, Some(ApOp::ScalarLoad { to_sp: true, .. })));
        assert!(matches!(b.sp[..], [SpOp::PopAsdq { .. }]));
        assert!(b.vp.is_none());
    }
}
