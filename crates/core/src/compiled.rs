//! Translate-once compiled programs.
//!
//! The fetch processor's translation ([`translate`]) is a pure function
//! of the instruction stream: it depends on no machine configuration and
//! no runtime state. A [`CompiledProgram`] runs that translation exactly
//! once and keeps its output as three µop streams, one per processor —
//! the AP, SP and VP streams in program order — plus, per instruction,
//! how far each stream extends once that instruction has dispatched.
//! The µops carry the precomputed metadata the engine needs (operand read
//! lists, hazard ranges, store sequence numbers and data-ready slots), so
//! a sweep over machines × latencies × memory models decodes each program
//! once instead of once per grid point.
//!
//! The engine's instruction queues are windows over these streams: a
//! dispatch moves the three queue tails to the instruction's stream ends,
//! an issue moves one head, and the front µop is read in place. Nothing
//! is copied per instruction, and no per-instruction bundle is stored.

use crate::uops::{translate, ApOp, DataSlot, SpOp, StoreAlloc, VpOp};
use dva_isa::Program;

/// A [`Program`] pre-translated into the decoupled machine's per-unit µop
/// streams.
///
/// Compiling is configuration-independent: one compiled program serves
/// every [`DvaConfig`](crate::DvaConfig) — any latency, queue shape,
/// memory model or bypass setting — and may be shared freely across
/// threads behind an [`Arc`](std::sync::Arc). Results are byte-identical to translating
/// at fetch time, because the engine replays exactly the µops
/// [`translate`] produces, in the same order.
///
/// # Examples
///
/// ```
/// use dva_core::{CompiledProgram, DvaConfig, DvaRunner};
/// use dva_workloads::{Benchmark, Scale};
/// use std::sync::Arc;
///
/// let program = Benchmark::Trfd.program(Scale::Quick);
/// let compiled = Arc::new(CompiledProgram::compile(&program));
/// let mut runner = DvaRunner::new();
/// for config in [DvaConfig::dva(30), DvaConfig::byp(30, 4, 8)] {
///     let (core, _) = runner.try_run(&config, &compiled, true).unwrap();
///     assert_eq!(core.insts, program.len() as u64);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    program: Program,
    pub(crate) ap: Box<[ApOp]>,
    pub(crate) sp: Box<[SpOp]>,
    pub(crate) vp: Box<[VpOp]>,
    /// Per instruction: the (AP, SP, VP) stream lengths up to and
    /// including its µops — the queue tails once it has dispatched.
    pub(crate) ends: Box<[[u32; 3]]>,
    vector_stores: DataSlot,
}

impl CompiledProgram {
    /// Translates `program` into its µop streams. The program's
    /// instruction storage is shared, not copied.
    pub fn compile(program: &Program) -> CompiledProgram {
        let mut alloc = StoreAlloc::new();
        let (mut ap, mut sp, mut vp) = (Vec::new(), Vec::new(), Vec::new());
        let ends = program
            .insts()
            .iter()
            .map(|inst| {
                let bundle = translate(inst, &mut alloc);
                ap.extend(bundle.ap);
                sp.extend_from_slice(&bundle.sp);
                vp.extend(bundle.vp);
                [ap.len(), sp.len(), vp.len()]
                    .map(|n| u32::try_from(n).expect("a µop stream holds fewer than 2^32 µops"))
            })
            .collect();
        CompiledProgram {
            program: program.clone(),
            ap: ap.into(),
            sp: sp.into(),
            vp: vp.into(),
            ends,
            vector_stores: alloc.vector_stores(),
        }
    }

    /// The source program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of vector stores in the program — the number of data-ready
    /// ring slots the engine will cycle through.
    pub fn vector_stores(&self) -> DataSlot {
        self.vector_stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::{ScalarReg, VectorReg};
    use dva_testutil::{vadd, vload, vstore};

    #[test]
    fn compile_matches_fetch_time_translation() {
        let program = dva_testutil::program(
            "t",
            vec![
                vload(VectorReg::V0, 0x1000, 16),
                vadd(VectorReg::V2, VectorReg::V0, VectorReg::V0, 16),
                dva_isa::Inst::SStore {
                    src: ScalarReg::scalar(1),
                    addr: 0x40,
                },
                vstore(VectorReg::V2, 0x2000, 16),
            ],
        );
        let compiled = CompiledProgram::compile(&program);
        assert_eq!(compiled.len(), 4);
        assert_eq!(compiled.vector_stores(), 1);
        // Concatenating the fetch-time bundles, unit by unit, gives the
        // streams; each instruction's ends are the running µop counts.
        let mut alloc = StoreAlloc::new();
        let (mut ap, mut sp, mut vp) = (Vec::new(), Vec::new(), Vec::new());
        for (inst, ends) in program.insts().iter().zip(compiled.ends.iter()) {
            let bundle = translate(inst, &mut alloc);
            ap.extend(bundle.ap);
            sp.extend_from_slice(&bundle.sp);
            vp.extend(bundle.vp);
            assert_eq!(*ends, [ap.len(), sp.len(), vp.len()].map(|n| n as u32));
        }
        assert_eq!(
            (&*compiled.ap, &*compiled.sp, &*compiled.vp),
            (&*ap, &*sp, &*vp)
        );
        assert_eq!(
            compiled.ends[..],
            [[1, 0, 1], [1, 0, 2], [2, 1, 2], [3, 1, 3]]
        );
        // The instruction storage is shared with the source program.
        assert_eq!(
            compiled.program().insts().as_ptr(),
            program.insts().as_ptr()
        );
    }

    #[test]
    fn empty_programs_compile_to_empty_streams() {
        let program = Program::from_insts("empty", Vec::new());
        let compiled = CompiledProgram::compile(&program);
        assert!(compiled.is_empty());
        assert!(compiled.ap.is_empty() && compiled.sp.is_empty() && compiled.vp.is_empty());
        assert_eq!(compiled.vector_stores(), 0);
    }
}
