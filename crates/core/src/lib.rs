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
//! use dva_core::{CompiledProgram, DvaConfig, DvaRunner};
//! use dva_workloads::{Benchmark, Scale};
//! use std::sync::Arc;
//!
//! let program = Benchmark::Dyfesm.program(Scale::Quick);
//! let compiled = Arc::new(CompiledProgram::compile(&program));
//! let mut runner = DvaRunner::new();
//! let (core, _) = runner.try_run(&DvaConfig::dva(30), &compiled, true).unwrap();
//! assert!(core.cycles > 0);
//! assert_eq!(core.states.total_cycles(), core.cycles);
//!
//! // A Section 7 bypass configuration (4-slot AVDQ, 8-slot store
//! // queue) on the same runner:
//! let byp = DvaConfig::byp(30, 4, 8);
//! let (bypassed, detail) = runner.try_run(&byp, &compiled, true).unwrap();
//! assert!(bypassed.cycles > 0);
//! assert!(detail.max_avdq <= 4);
//! ```
//!
//! For experiments over several machines, prefer the unified `Machine`
//! and `Sweep` API of the `dva-sim-api` crate, which runs this engine,
//! the reference machine and the IDEAL bound behind one front door and
//! returns one result type.

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
pub use config::{DvaConfig, QueueConfig, MAX_QUEUE_CAPACITY};
pub use ideal::{ideal_bound, IdealBound};
pub use queues::{Fifo, Timed};
pub use result::DvaDetail;
pub use uops::{
    translate, ApOp, Bundle, DataSlot, SpOp, StoreAlloc, StoreDataSource, StoreSeq, VecAccess, VpOp,
};

use dva_engine::{ResultCore, SimError};
use std::sync::Arc;

/// The decoupled machine's one entry point: a reusable engine, with one
/// allocation of the architectural queues, the data-ready ring and the
/// bypass machinery amortized over any number of runs.
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
/// With `fast_forward` on, whenever a tick makes no progress the engine
/// computes the earliest cycle at which anything can change and jumps
/// straight there, bulk-accounting the skipped cycles. The results are
/// byte-identical to naive per-cycle stepping (`fast_forward` off); the
/// `ticks_executed` diagnostic records how many ticks actually ran.
///
/// # Examples
///
/// ```
/// use dva_core::{CompiledProgram, DvaConfig, DvaRunner};
/// use dva_workloads::{Benchmark, Scale};
/// use std::sync::Arc;
///
/// let compiled = Arc::new(CompiledProgram::compile(&Benchmark::Trfd.program(Scale::Quick)));
/// let mut reused = DvaRunner::new();
/// for latency in [1, 30, 100] {
///     let config = DvaConfig::dva(latency);
///     let fresh = DvaRunner::new().try_run(&config, &compiled, true).unwrap();
///     assert_eq!(reused.try_run(&config, &compiled, true).unwrap(), fresh);
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

    /// Runs `compiled` under `config`, reusing this runner's engine
    /// allocations, and returns the shared measurements with the
    /// decoupled-only ones. A detected deadlock comes back as a
    /// [`SimError`]; the engine is left mid-flight on error, and the next
    /// run's reset restores it, so the runner stays reusable.
    ///
    /// # Panics
    ///
    /// Panics before the first tick if `config` carries a delay above
    /// [`dva_isa::MAX_DELAY`] or a memory shape [`dva_memory::Memory`]
    /// refuses.
    pub fn try_run(
        &mut self,
        config: &DvaConfig,
        compiled: &Arc<CompiledProgram>,
        fast_forward: bool,
    ) -> Result<(ResultCore, DvaDetail), SimError> {
        engine::drive(self.arm(*config, compiled), fast_forward)
    }

    /// Readies the engine for `config` — reset when it exists, built when
    /// it does not.
    fn arm(&mut self, config: DvaConfig, compiled: &Arc<CompiledProgram>) -> &mut engine::Engine {
        match &mut self.engine {
            Some(engine) => {
                engine.reset(config, Arc::clone(compiled));
                engine
            }
            slot => slot.insert(engine::Engine::new(config, Arc::clone(compiled))),
        }
    }
}
