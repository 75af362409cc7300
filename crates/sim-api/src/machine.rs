//! The unified machine abstraction.

use crate::prepare::{PreparedProgram, Runners};
use crate::result::MachineDetail;
use crate::result::SimResult;
use dva_core::DvaConfig;
use dva_isa::Program;
use dva_memory::MemoryModelKind;
use dva_ref::{ChainPolicy, RefParams};

/// One of the paper's machines, ready to simulate any [`Program`].
///
/// `Machine` unifies the engines of the workspace — the
/// [`RefRunner`](dva_ref::RefRunner), the
/// [`DvaRunner`](dva_core::DvaRunner) and
/// [`ideal_bound`](dva_core::ideal_bound) — behind one
/// [`simulate`](Machine::simulate) method returning one [`SimResult`]
/// type, so experiment code can treat "which machine" as data. The set
/// is closed: every machine is plain data, so every point can be keyed,
/// cached, served and serialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Machine {
    /// The reference (coupled) vector architecture — a Convex C3400 model.
    Ref(RefParams),
    /// The decoupled vector architecture, with or without the bypass unit.
    Dva(DvaConfig),
    /// The IDEAL resource lower bound of Section 5 (latency independent).
    Ideal,
}

impl Machine {
    /// The reference machine at the given memory latency.
    pub fn reference(latency: u64) -> Machine {
        Machine::Ref(RefParams::with_latency(latency))
    }

    /// The paper's base DVA (256-slot AVDQ, 16-slot store queue, no
    /// bypass) at the given memory latency.
    pub fn dva(latency: u64) -> Machine {
        Machine::Dva(DvaConfig::dva(latency))
    }

    /// A `BYP load/store` bypass configuration of Section 7.
    pub fn byp(latency: u64, load_queue: usize, store_queue: usize) -> Machine {
        Machine::Dva(DvaConfig::byp(latency, load_queue, store_queue))
    }

    /// The IDEAL lower bound.
    pub fn ideal() -> Machine {
        Machine::Ideal
    }

    /// This machine with its memory latency replaced (no-op for IDEAL,
    /// which has no memory system). Used by
    /// sweeps to stamp one machine template across a latency grid.
    #[must_use]
    pub fn with_latency(mut self, latency: u64) -> Machine {
        match &mut self {
            Machine::Ref(params) => params.memory.latency = latency,
            Machine::Dva(config) => config.memory.latency = latency,
            Machine::Ideal => {}
        }
        self
    }

    /// The configured memory latency, if the machine has a memory system.
    pub fn latency(&self) -> Option<u64> {
        match self {
            Machine::Ref(params) => Some(params.memory.latency),
            Machine::Dva(config) => Some(config.memory.latency),
            Machine::Ideal => None,
        }
    }

    /// This machine with its memory-model backend replaced (no-op for
    /// IDEAL, which has no memory system).
    /// Used by sweeps to stamp one machine template across the memory
    /// axis of the grid, exactly like [`Machine::with_latency`] does for
    /// the latency axis.
    ///
    /// ```
    /// use dva_memory::MemoryModelKind;
    /// use dva_sim_api::Machine;
    ///
    /// let banked = MemoryModelKind::Banked { banks: 8, bank_busy: 8 };
    /// let machine = Machine::dva(30).with_memory_model(banked);
    /// assert_eq!(machine.memory_model(), Some(banked));
    /// assert_eq!(machine.latency(), Some(30)); // everything else kept
    /// ```
    #[must_use]
    pub fn with_memory_model(mut self, model: MemoryModelKind) -> Machine {
        match &mut self {
            Machine::Ref(params) => params.memory.model = model,
            Machine::Dva(config) => config.memory.model = model,
            Machine::Ideal => {}
        }
        self
    }

    /// The configured memory-model backend, if the machine has a memory
    /// system.
    pub fn memory_model(&self) -> Option<MemoryModelKind> {
        match self {
            Machine::Ref(params) => Some(params.memory.model),
            Machine::Dva(config) => Some(config.memory.model),
            Machine::Ideal => None,
        }
    }

    /// A short display label: `REF`, `DVA`, `BYP 4/8` or `IDEAL`.
    ///
    /// The label deliberately omits the latency — sweeps use it as the
    /// machine axis of the (machine, program, latency) grid. It is *not*
    /// unique across every configuration: non-bypass DVA variants that
    /// differ only in queue sizes or uarch knobs all label as `DVA`.
    /// Sweeps over such variants should read their points positionally
    /// (declaration order) rather than by label.
    pub fn label(&self) -> String {
        match self {
            Machine::Ref(_) => "REF".to_string(),
            Machine::Dva(config) if config.bypass => {
                format!("BYP {}/{}", config.queues.avdq, config.queues.store_queue)
            }
            Machine::Dva(_) => "DVA".to_string(),
            Machine::Ideal => "IDEAL".to_string(),
        }
    }

    /// Runs `program` to completion on this machine with the engines'
    /// next-event fast-forward enabled (the default — byte-identical to
    /// naive stepping, only faster).
    ///
    /// # Panics
    ///
    /// Panics if the engine detects a deadlock (an internal invariant
    /// violation — valid traces always complete), or before the first
    /// tick if the machine carries a delay above
    /// [`MAX_DELAY`](dva_isa::MAX_DELAY) or a memory shape the engines
    /// refuse (decoding rejects both).
    pub fn simulate(&self, program: &Program) -> SimResult {
        self.simulate_with(program, true)
    }

    /// Runs `program` with an explicit stepping strategy: `fast_forward`
    /// `false` forces naive per-cycle stepping (IDEAL has no timeline and
    /// ignores the flag). Exists so equivalence tests and benchmarks can
    /// compare the two; results are byte-identical either way.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Machine::simulate).
    pub fn simulate_with(&self, program: &Program, fast_forward: bool) -> SimResult {
        self.try_simulate_prepared(
            &PreparedProgram::new(program),
            fast_forward,
            &mut Runners::new(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a [`PreparedProgram`] — byte-identical to
    /// [`simulate_with`](Machine::simulate_with) on the source program,
    /// but the program's compiled form is reused from the preparation and
    /// the engine allocations are reused from `runners`. This is the hot
    /// entry point [`Sweep`](crate::Sweep) workers drive the grid
    /// through: one preparation per program, one `runners` per worker
    /// thread.
    ///
    /// A detected deadlock comes back as a
    /// [`SimError`](dva_engine::SimError), so callers (the streaming
    /// executor, the serving stack) survive one poisoned point. Panics
    /// *inside* a machine model, and the engines' refusal of a delay
    /// above [`MAX_DELAY`](dva_isa::MAX_DELAY), are not caught here; the
    /// executor isolates those separately.
    pub fn try_simulate_prepared(
        &self,
        prepared: &PreparedProgram,
        fast_forward: bool,
        runners: &mut Runners,
    ) -> Result<SimResult, dva_engine::SimError> {
        Ok(match self {
            Machine::Ref(params) => SimResult {
                core: runners.reference.try_run(
                    params,
                    ChainPolicy::reference(),
                    prepared.reference(),
                    fast_forward,
                )?,
                detail: MachineDetail::Reference,
            },
            Machine::Dva(config) => {
                let (core, detail) = runners.dva.try_run(config, prepared.dva(), fast_forward)?;
                SimResult {
                    core,
                    detail: MachineDetail::Decoupled(detail),
                }
            }
            Machine::Ideal => SimResult::from_ideal(prepared.ideal(), prepared.program()),
        })
    }
}

impl From<RefParams> for Machine {
    fn from(params: RefParams) -> Machine {
        Machine::Ref(params)
    }
}

impl From<DvaConfig> for Machine {
    fn from(config: DvaConfig) -> Machine {
        Machine::Dva(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::{Benchmark, Scale};

    #[test]
    fn labels_name_the_paper_configurations() {
        assert_eq!(Machine::reference(30).label(), "REF");
        assert_eq!(Machine::dva(30).label(), "DVA");
        assert_eq!(Machine::byp(30, 4, 8).label(), "BYP 4/8");
        assert_eq!(Machine::ideal().label(), "IDEAL");
    }

    #[test]
    fn with_latency_restamps_the_memory_system() {
        assert_eq!(Machine::reference(1).with_latency(70).latency(), Some(70));
        assert_eq!(Machine::dva(1).with_latency(70).latency(), Some(70));
        assert_eq!(Machine::ideal().with_latency(70).latency(), None);
        // Everything else is preserved.
        let byp = Machine::byp(1, 4, 8).with_latency(50);
        assert_eq!(byp.label(), "BYP 4/8");
    }

    #[test]
    fn simulate_agrees_with_the_native_front_doors() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        let prepared = PreparedProgram::new(&program);
        let unified = Machine::reference(30).simulate(&program);
        let native = dva_ref::RefRunner::new()
            .try_run(
                &RefParams::with_latency(30),
                ChainPolicy::reference(),
                prepared.reference(),
                true,
            )
            .unwrap();
        assert_eq!(unified.core, native);
        assert_eq!(unified.detail, MachineDetail::Reference);

        let unified = Machine::byp(30, 4, 8).simulate(&program);
        let (core, detail) = dva_core::DvaRunner::new()
            .try_run(&DvaConfig::byp(30, 4, 8), prepared.dva(), true)
            .unwrap();
        assert_eq!(unified.core, core);
        assert_eq!(unified.decoupled(), Some(&detail));

        let unified = Machine::ideal().simulate(&program);
        assert_eq!(unified.cycles, dva_core::ideal_bound(&program).cycles());
    }

    #[test]
    #[should_panic(expected = "latency 1048577 exceeds MAX_DELAY (1048576)")]
    fn a_latency_above_the_bound_panics_before_the_first_tick() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        Machine::reference(dva_isa::MAX_DELAY + 1).simulate(&program);
    }

    #[test]
    #[should_panic(expected = "fu_startup 1048577 exceeds MAX_DELAY (1048576)")]
    fn an_fu_startup_above_the_bound_panics_before_the_first_tick() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        let mut config = DvaConfig::dva(30);
        config.uarch.fu_startup = dva_isa::MAX_DELAY + 1;
        Machine::Dva(config).simulate(&program);
    }

    #[test]
    #[should_panic(expected = "qmov_startup 1048577 exceeds MAX_DELAY (1048576)")]
    fn a_qmov_startup_above_the_bound_panics_before_the_first_tick() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        let mut params = RefParams::with_latency(30);
        params.uarch.qmov_startup = dva_isa::MAX_DELAY + 1;
        Machine::Ref(params).simulate(&program);
    }
}
