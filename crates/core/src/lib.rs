//! The **decoupled vector architecture** of Espasa & Valero (HPCA 1996) —
//! the paper's primary contribution.
//!
//! The machine splits the sequential instruction stream into three streams
//! executed by independent processors connected through architectural
//! queues (paper, Section 4):
//!
//! * the **fetch processor (FP)** fetches one instruction per cycle,
//!   translates it (inserting hidden `QMOV` pseudo-instructions) and
//!   distributes µops to the other processors;
//! * the **address processor (AP)** performs all memory accesses and
//!   address arithmetic; it slips ahead of the computation and prefetches
//!   exactly the data the program will need;
//! * the **scalar processor (SP)** executes scalar computation at one
//!   instruction per cycle;
//! * the **vector processor (VP)** is the reference machine's vector
//!   engine plus two QMOV units moving data between the queues and the
//!   vector registers.
//!
//! Stores are two-step: addresses wait in the SSAQ/VSAQ until the data
//! reaches the store data queues, then commit in strict program order.
//! Loads are dynamically disambiguated against every queued store by
//! memory-range overlap; hazards force the AP to drain stores. With
//! [`DvaConfig::byp`], a load *identical* to a queued store is satisfied
//! by the **bypass unit** copying VADQ→AVDQ — no memory access, no
//! latency, and the memory port stays free (Section 7).
//!
//! # Examples
//!
//! ```
//! use dva_core::{DvaConfig, DvaSim};
//! use dva_workloads::{Benchmark, Scale};
//!
//! let program = Benchmark::Dyfesm.program(Scale::Quick);
//! let config = DvaConfig::builder().latency(30).build();
//! let result = DvaSim::new(config).run(&program);
//! assert!(result.cycles > 0);
//! assert_eq!(result.states.total_cycles(), result.cycles);
//!
//! // A Section 7 bypass configuration via the same builder:
//! let byp = DvaConfig::builder()
//!     .latency(30)
//!     .avdq(4)
//!     .store_queue(8)
//!     .bypass(true)
//!     .build();
//! let bypassed = DvaSim::new(byp).run(&program);
//! assert!(bypassed.cycles > 0);
//! ```
//!
//! For experiments over several machines, prefer the unified `Machine`
//! and `Sweep` API of the `dva-sim-api` crate, which wraps this
//! simulator, the reference machine and the IDEAL bound behind one front
//! door.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod config;
mod engine;
mod ideal;
mod queues;
mod result;
mod uops;

pub use compiled::CompiledProgram;
pub use config::{DvaConfig, DvaConfigBuilder, QueueConfig, MAX_QUEUE_CAPACITY};
pub use ideal::{ideal_bound, IdealBound};
pub use queues::{Fifo, Timed};
pub use result::DvaResult;
pub use uops::{
    translate, ApOp, Bundle, DataSlot, SpOp, StoreAlloc, StoreDataSource, StoreSeq, VecAccess, VpOp,
};

use dva_isa::Program;
use std::sync::Arc;

/// The decoupled vector architecture simulator.
///
/// See the [crate docs](crate) for the machine description.
///
/// By default the engine *fast-forwards*: whenever a tick makes no
/// progress it computes the earliest cycle at which anything can change
/// and jumps straight there, bulk-accounting the skipped cycles. The
/// results are byte-identical to naive per-cycle stepping (the
/// `ticks_executed` diagnostic records how many ticks actually ran);
/// [`DvaSim::with_fast_forward`] opts back into naive stepping for
/// verification.
#[derive(Debug, Clone)]
pub struct DvaSim {
    config: DvaConfig,
    fast_forward: bool,
}

impl DvaSim {
    /// Creates a simulator with the given configuration (fast-forward
    /// enabled).
    pub fn new(config: DvaConfig) -> DvaSim {
        DvaSim {
            config,
            fast_forward: true,
        }
    }

    /// Enables or disables the next-event fast-forward (on by default;
    /// turning it off forces naive per-cycle stepping).
    #[must_use]
    pub fn with_fast_forward(mut self, fast_forward: bool) -> DvaSim {
        self.fast_forward = fast_forward;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> DvaConfig {
        self.config
    }

    /// Runs `program` to completion and reports the measurements.
    ///
    /// Translates the program on the fly; when the same program runs more
    /// than once (latency sweeps, model sweeps), compile it once with
    /// [`CompiledProgram::compile`] and reuse a [`DvaRunner`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the engine detects a deadlock (an internal invariant
    /// violation — valid traces always complete).
    pub fn run(&self, program: &Program) -> DvaResult {
        DvaRunner::new()
            .try_run(self, &Arc::new(CompiledProgram::compile(program)))
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A reusable decoupled-machine engine: one allocation of the
/// architectural queues, the data-ready ring and the bypass machinery,
/// amortized over any number of runs.
///
/// Each [`try_run`](DvaRunner::try_run) resets the engine to its initial state
/// (the *reset contract*: a run on a reused engine is byte-identical to a
/// run on a freshly constructed one — asserted by the engine test suite
/// and the allocation-regression tests) and drives it to completion.
/// Configurations and programs may change freely between runs; the
/// buffers are kept and re-armed. Sweep workers hold one runner per
/// thread, so a thousand-point grid performs a thousand engine *resets*
/// but only one engine *construction* per worker.
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
/// let mut runner = DvaRunner::new();
/// for latency in [1, 30, 100] {
///     let sim = DvaSim::new(DvaConfig::dva(latency));
///     assert_eq!(runner.try_run(&sim, &compiled).unwrap(), sim.run(&program));
/// }
/// ```
#[derive(Debug, Default)]
pub struct DvaRunner {
    /// The reusable engine, built by the first run.
    engine: Option<engine::Engine>,
}

impl DvaRunner {
    /// A runner with no engine yet; the first run constructs one.
    pub fn new() -> DvaRunner {
        DvaRunner::default()
    }

    /// Runs `compiled` under `sim`'s configuration and stepping strategy,
    /// reusing this runner's engine allocations. A detected deadlock
    /// comes back as a [`SimError`](dva_engine::SimError); the engine is
    /// left mid-flight on error, and the next run's reset restores it, so
    /// the runner stays reusable.
    pub fn try_run(
        &mut self,
        sim: &DvaSim,
        compiled: &Arc<CompiledProgram>,
    ) -> Result<DvaResult, dva_engine::SimError> {
        engine::drive(self.arm(sim, compiled), sim.fast_forward)
    }

    /// Readies the engine for `sim` — reset when it exists, built when it
    /// does not.
    fn arm(&mut self, sim: &DvaSim, compiled: &Arc<CompiledProgram>) -> &mut engine::Engine {
        match &mut self.engine {
            Some(engine) => {
                engine.reset(sim.config, Arc::clone(compiled));
                engine
            }
            slot => slot.insert(engine::Engine::new(sim.config, Arc::clone(compiled))),
        }
    }
}
