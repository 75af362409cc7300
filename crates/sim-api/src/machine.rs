//! The unified machine abstraction.

use crate::prepare::{PreparedProgram, Runners};
use crate::result::SimResult;
use dva_core::{DvaConfig, DvaSim};
use dva_engine::{Driver, Observers, Processor};
use dva_isa::Program;
use dva_memory::MemoryModelKind;
use dva_ref::{RefParams, RefSim};
use std::fmt;

/// One of the paper's machines, ready to simulate any [`Program`].
///
/// `Machine` unifies the front doors of the workspace — [`RefSim`],
/// [`DvaSim`], [`ideal_bound`](dva_core::ideal_bound) and any user-defined
/// [`Processor`] via [`Machine::custom`] — behind one
/// [`simulate`](Machine::simulate) method returning one [`SimResult`]
/// type, so experiment code can treat "which machine" as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Machine {
    /// The reference (coupled) vector architecture — a Convex C3400 model.
    Ref(RefParams),
    /// The decoupled vector architecture, with or without the bypass unit.
    Dva(DvaConfig),
    /// The IDEAL resource lower bound of Section 5 (latency independent).
    Ideal,
    /// A user-defined machine: any boxed [`Processor`] driven through the
    /// shared `dva-engine` driver. Built with [`Machine::custom`].
    Custom(CustomMachine),
}

/// What a [`Machine::custom`] factory returns: the machine model to
/// drive, plus the observers the driver samples into (create them with
/// [`Observers::with_occupancy`] to histogram a queue occupancy).
///
/// The processor may borrow the program it was built from, exactly like
/// the built-in machines do.
pub struct CustomSim<'a> {
    /// The machine model to drive.
    pub processor: Box<dyn Processor + 'a>,
    /// The statistics sink for the run.
    pub observers: Observers,
}

/// A user-defined machine, created by [`Machine::custom`]: a display
/// name and a factory building a fresh [`CustomSim`] per run.
///
/// One-off ablation machines get the whole `Machine`/`Sweep` machinery —
/// parallel sweeps, latency grids (as far as [`Machine::with_latency`]
/// goes: custom machines have no generic latency knob, so it is a no-op),
/// unified results — without forking a simulator crate.
#[derive(Clone, Copy)]
pub struct CustomMachine {
    name: &'static str,
    build: for<'a> fn(&'a Program) -> CustomSim<'a>,
}

impl PartialEq for CustomMachine {
    /// Custom machines compare by display name: the factory is a
    /// function pointer, whose identity is not meaningful to compare.
    fn eq(&self, other: &CustomMachine) -> bool {
        self.name == other.name
    }
}

impl fmt::Debug for CustomMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CustomMachine")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
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

    /// A user-defined machine: `build` constructs a fresh boxed
    /// [`Processor`] (plus its [`Observers`]) for each program, and the
    /// shared `dva-engine` driver runs it under exactly the clocking
    /// rules the built-in machines use — fast-forward, watchdog and all.
    ///
    /// ```
    /// use dva_engine::{Observers, Processor, Progress};
    /// use dva_isa::{Cycle, Program};
    /// use dva_metrics::UnitState;
    /// use dva_sim_api::{CustomSim, Machine};
    ///
    /// /// A machine that executes exactly one instruction per cycle.
    /// struct OneIpc<'a> {
    ///     program: &'a Program,
    ///     pc: usize,
    /// }
    ///
    /// impl Processor for OneIpc<'_> {
    ///     fn step(&mut self, _now: Cycle) -> Progress {
    ///         self.pc += 1;
    ///         Progress::Advanced
    ///     }
    ///     fn is_done(&self) -> bool {
    ///         self.pc >= self.program.len()
    ///     }
    ///     fn next_event_after(&self, _now: Cycle) -> Option<Cycle> {
    ///         None
    ///     }
    ///     fn quiesce_at(&self) -> Cycle {
    ///         0
    ///     }
    ///     fn sample(&self, _now: Cycle, obs: &mut Observers) {
    ///         obs.record_state(UnitState::empty());
    ///     }
    ///     fn report(&self, _cycles: Cycle) -> dva_engine::Report {
    ///         dva_engine::Report {
    ///             insts: self.program.len() as u64,
    ///             ..Default::default()
    ///         }
    ///     }
    /// }
    ///
    /// let machine = Machine::custom("1IPC", |program| CustomSim {
    ///     processor: Box::new(OneIpc { program, pc: 0 }),
    ///     observers: Observers::new(),
    /// });
    /// let program = dva_workloads::Benchmark::Trfd.program(dva_workloads::Scale::Quick);
    /// let result = machine.simulate(&program);
    /// assert_eq!(result.cycles, program.len() as u64);
    /// assert!((result.ipc() - 1.0).abs() < 1e-9);
    /// ```
    pub fn custom(name: &'static str, build: for<'a> fn(&'a Program) -> CustomSim<'a>) -> Machine {
        Machine::Custom(CustomMachine { name, build })
    }

    /// This machine with its memory latency replaced (no-op for IDEAL
    /// and custom machines, which have no generic memory knob). Used by
    /// sweeps to stamp one machine template across a latency grid.
    #[must_use]
    pub fn with_latency(mut self, latency: u64) -> Machine {
        match &mut self {
            Machine::Ref(params) => params.memory.latency = latency,
            Machine::Dva(config) => config.memory.latency = latency,
            Machine::Ideal | Machine::Custom(_) => {}
        }
        self
    }

    /// The configured memory latency, if the machine has a memory system.
    pub fn latency(&self) -> Option<u64> {
        match self {
            Machine::Ref(params) => Some(params.memory.latency),
            Machine::Dva(config) => Some(config.memory.latency),
            Machine::Ideal | Machine::Custom(_) => None,
        }
    }

    /// This machine with its memory-model backend replaced (no-op for
    /// IDEAL and custom machines, which have no generic memory knob).
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
            Machine::Ideal | Machine::Custom(_) => {}
        }
        self
    }

    /// The configured memory-model backend, if the machine has a memory
    /// system.
    pub fn memory_model(&self) -> Option<MemoryModelKind> {
        match self {
            Machine::Ref(params) => Some(params.memory.model),
            Machine::Dva(config) => Some(config.memory.model),
            Machine::Ideal | Machine::Custom(_) => None,
        }
    }

    /// A short display label: `REF`, `DVA`, `BYP 4/8`, `IDEAL`, or a
    /// custom machine's name.
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
            Machine::Custom(custom) => custom.name.to_string(),
        }
    }

    /// Runs `program` to completion on this machine with the engines'
    /// next-event fast-forward enabled (the default — byte-identical to
    /// naive stepping, only faster).
    ///
    /// # Panics
    ///
    /// Panics if the engine detects a deadlock (an internal invariant
    /// violation — valid traces always complete).
    pub fn simulate(&self, program: &Program) -> SimResult {
        self.simulate_with(program, true)
    }

    /// Runs `program` with an explicit stepping strategy: `fast_forward`
    /// `false` forces naive per-cycle stepping (IDEAL has no timeline and
    /// ignores the flag). Exists so equivalence tests and benchmarks can
    /// compare the two; results are byte-identical either way.
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
    /// *inside* a machine model are not caught here; the executor
    /// isolates those separately.
    pub fn try_simulate_prepared(
        &self,
        prepared: &PreparedProgram,
        fast_forward: bool,
        runners: &mut Runners,
    ) -> Result<SimResult, dva_engine::SimError> {
        Ok(match self {
            Machine::Ref(params) => runners
                .reference
                .try_run(
                    &RefSim::new(*params).with_fast_forward(fast_forward),
                    prepared.reference(),
                )?
                .into(),
            Machine::Dva(config) => runners
                .dva
                .try_run(
                    &DvaSim::new(*config).with_fast_forward(fast_forward),
                    prepared.dva(),
                )?
                .into(),
            Machine::Ideal => SimResult::from_ideal(prepared.ideal(), prepared.program()),
            Machine::Custom(custom) => {
                let CustomSim {
                    mut processor,
                    mut observers,
                } = (custom.build)(prepared.program());
                let completion = Driver::new()
                    .fast_forward(fast_forward)
                    .try_run(processor.as_mut(), &mut observers)?;
                let (core, occupancy) = completion.into_core(processor.as_ref(), observers);
                SimResult::from_custom(core, occupancy)
            }
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
    use dva_engine::{Progress, Report};
    use dva_isa::Cycle;
    use dva_metrics::{Histogram, UnitState};
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
        let unified = Machine::reference(30).simulate(&program);
        let native = RefSim::new(RefParams::with_latency(30)).run(&program);
        assert_eq!(unified.cycles, native.cycles);
        assert_eq!(unified.insts, native.insts);

        let unified = Machine::dva(30).simulate(&program);
        let native = DvaSim::new(DvaConfig::dva(30)).run(&program);
        assert_eq!(unified.cycles, native.cycles);
        assert_eq!(unified.traffic, native.traffic);

        let unified = Machine::ideal().simulate(&program);
        assert_eq!(unified.cycles, dva_core::ideal_bound(&program).cycles());
    }

    /// The one-off ablation machine the tentpole promises: a toy
    /// processor that serializes every instruction behind a fixed
    /// per-instruction delay, defined right here — no crate forked — yet
    /// swept and fast-forwarded like the real machines.
    struct FixedDelay<'a> {
        program: &'a Program,
        pc: usize,
        ready_at: Cycle,
        delay: Cycle,
        stalls: u64,
    }

    impl Processor for FixedDelay<'_> {
        fn step(&mut self, now: Cycle) -> Progress {
            if now >= self.ready_at {
                self.pc += 1;
                self.ready_at = now + self.delay;
                Progress::Advanced
            } else {
                self.stalls += 1;
                Progress::Stalled
            }
        }
        fn is_done(&self) -> bool {
            self.pc >= self.program.len()
        }
        fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
            Some(self.ready_at).filter(|&t| t > now)
        }
        fn quiesce_at(&self) -> Cycle {
            0
        }
        fn sample(&self, now: Cycle, obs: &mut Observers) {
            obs.record_state(UnitState::from_flags(false, now < self.ready_at, false));
            obs.record_occupancy(usize::from(now < self.ready_at));
        }
        fn account_skipped(&mut self, _now: Cycle, skipped: u64) {
            self.stalls += skipped;
        }
        fn report(&self, _cycles: Cycle) -> Report {
            Report {
                insts: self.program.len() as u64,
                stall_cycles: self.stalls,
                ..Default::default()
            }
        }
    }

    fn fixed_delay_sim(program: &Program) -> CustomSim<'_> {
        CustomSim {
            processor: Box::new(FixedDelay {
                program,
                pc: 0,
                ready_at: 0,
                delay: 3,
                stalls: 0,
            }),
            observers: Observers::with_occupancy(Histogram::new(1)),
        }
    }

    #[test]
    fn custom_machines_run_through_the_shared_driver() {
        let machine = Machine::custom("DELAY3", fixed_delay_sim);
        assert_eq!(machine.label(), "DELAY3");
        assert_eq!(machine.latency(), None);
        assert_eq!(machine.with_latency(70), machine); // no latency knob

        let program = Benchmark::Trfd.program(Scale::Quick);
        let fast = machine.simulate(&program);
        let naive = machine.simulate_with(&program, false);
        // The shared driver's fast-forward applies to custom machines
        // too, byte-identically.
        assert_eq!(fast, naive);
        assert_eq!(naive.ticks_executed.get(), naive.cycles);
        assert!(fast.ticks_executed.get() < fast.cycles);
        // One instruction every 3 cycles, measured through the same
        // result plumbing as the built-in machines.
        assert_eq!(fast.cycles, 3 * program.len() as u64 - 2);
        assert_eq!(fast.insts, program.len() as u64);
        assert!(fast.stall_cycles > 0);
        assert!(fast.occupancy_histogram().is_some());
        assert!(fast.avdq_occupancy().is_none());
    }

    #[test]
    fn custom_machines_ride_in_sweeps() {
        use crate::Sweep;
        let results = Sweep::new()
            .machines([Machine::dva(1), Machine::custom("DELAY3", fixed_delay_sim)])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .scale(Scale::Quick)
            .run();
        assert_eq!(results.points.len(), 4);
        assert_eq!(results.labels(), vec!["DVA", "DELAY3"]);
        // The custom machine has no latency knob: both points agree.
        let delay: Vec<u64> = results
            .of_machine("DELAY3")
            .map(|p| p.result.cycles)
            .collect();
        assert_eq!(delay[0], delay[1]);
    }
}
