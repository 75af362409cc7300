//! Translate-once compiled programs.
//!
//! The fetch processor's translation ([`translate`]) is a pure function
//! of the instruction stream: it depends on no machine configuration and
//! no runtime state. A [`CompiledProgram`] runs that translation exactly
//! once and captures the full µop bundle stream plus the precomputed
//! per-instruction metadata the engine needs (operand read lists, hazard
//! ranges, store sequence numbers and data-ready slots), so a sweep over
//! machines × latencies × memory models decodes each program once instead
//! of once per grid point — and the engine's fetch stage becomes a plain
//! indexed copy of `Copy` data, with no per-instruction allocation.

use crate::uops::{translate, Bundle, DataSlot, StoreAlloc};
use dva_isa::Program;

/// A [`Program`] pre-translated into the decoupled machine's µop bundle
/// stream.
///
/// Compiling is configuration-independent: one compiled program serves
/// every [`DvaConfig`](crate::DvaConfig) — any latency, queue shape,
/// memory model or bypass setting — and may be shared freely across
/// threads behind an [`Arc`](std::sync::Arc). Results are byte-identical to translating
/// at fetch time, because the engine replays exactly the bundles
/// [`translate`] produces.
///
/// # Examples
///
/// ```
/// use dva_core::{CompiledProgram, DvaConfig, DvaRunner, DvaSim};
/// use dva_workloads::{Benchmark, Scale};
/// use std::sync::Arc;
///
/// let program = Benchmark::Trfd.program(Scale::Quick);
/// let compiled = Arc::new(CompiledProgram::compile(&program));
/// let sim = DvaSim::new(DvaConfig::dva(30));
/// let result = DvaRunner::new().try_run(&sim, &compiled).unwrap();
/// assert_eq!(result, sim.run(&program));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    program: Program,
    bundles: Box<[Bundle]>,
    vector_stores: DataSlot,
}

impl CompiledProgram {
    /// Translates `program` into its bundle stream. The program's
    /// instruction storage is shared, not copied.
    pub fn compile(program: &Program) -> CompiledProgram {
        let mut alloc = StoreAlloc::new();
        let bundles = program
            .insts()
            .iter()
            .map(|inst| translate(inst, &mut alloc))
            .collect();
        CompiledProgram {
            program: program.clone(),
            bundles,
            vector_stores: alloc.vector_stores(),
        }
    }

    /// The source program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The µop bundle stream, one bundle per dynamic instruction.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Number of dynamic instructions (equals the bundle count).
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
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
    use dva_isa::VectorReg;
    use dva_testutil::{vadd, vload, vstore};

    #[test]
    fn compile_matches_fetch_time_translation() {
        let program = dva_testutil::program(
            "t",
            vec![
                vload(VectorReg::V0, 0x1000, 16),
                vadd(VectorReg::V2, VectorReg::V0, VectorReg::V0, 16),
                vstore(VectorReg::V2, 0x2000, 16),
            ],
        );
        let compiled = CompiledProgram::compile(&program);
        assert_eq!(compiled.len(), 3);
        assert_eq!(compiled.vector_stores(), 1);
        let mut alloc = StoreAlloc::new();
        for (inst, bundle) in program.insts().iter().zip(compiled.bundles()) {
            assert_eq!(*bundle, translate(inst, &mut alloc));
        }
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
        assert_eq!(compiled.vector_stores(), 0);
    }
}
