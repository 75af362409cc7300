//! The shared engine kernel: one clock, every machine.
//!
//! The paper's methodology runs the *same* programs through several
//! machine models (REF, DVA, BYP, IDEAL) under identical clocking rules.
//! This crate is where those rules live — exactly once. A machine model
//! implements [`Processor`] (how its units advance in one tick, when its
//! next timed event is due, whether it has finished); the generic
//! [`Driver`] owns everything that used to be copy-pasted between the
//! simulators:
//!
//! * the clock and the main tick loop;
//! * naive per-cycle stepping vs the *fast-forward* next-event skip,
//!   including bulk accounting of skipped cycles into the shared
//!   [`dva_metrics::StateTracker`]/[`dva_metrics::Histogram`]
//!   observers — byte-identical results either way;
//! * the deadlock watchdog;
//! * the post-completion drain that runs the clock until every unit has
//!   quiesced;
//! * the `ticks_executed` diagnostic.
//!
//! Measurements every machine shares (cycles, the Figure 1 state
//! breakdown, traffic, stall cycles) are assembled into one
//! [`ResultCore`], which the machine-specific result types wrap.
//!
//! # The progress / next-event contract
//!
//! Fast-forward is sound if and only if the processor upholds two
//! promises:
//!
//! 1. **Progress is honest.** [`Processor::step`] returns
//!    [`Progress::Advanced`] whenever *any* machine state changed this
//!    tick. A tick that returns [`Progress::Stalled`] therefore proves
//!    that every unit is blocked on a *timed* condition — nothing can
//!    change until some future cycle.
//! 2. **Events are complete.** After a stalled tick,
//!    [`Processor::next_event_after`]`(now)` returns the earliest cycle
//!    strictly after `now` at which any gating condition can change
//!    (data arriving, a unit freeing, a register becoming ready). `None`
//!    means no timed event is outstanding — a deadlock unless the
//!    processor is done.
//!
//! Under those promises, every cycle between a stalled tick and the next
//! event is provably identical to the stalled tick — any difference
//! would itself be an event — so the driver can jump the clock straight
//! to the event and bulk-account the skipped cycles by re-recording the
//! stalled tick's sample with a higher weight. The equivalence is
//! asserted by this crate's toy-processor tests without booting a full
//! machine, and by the full-machine grid and property tests in the
//! workspace's integration suite.
//!
//! # Examples
//!
//! A minimal processor that busy-waits for one event at cycle 10:
//!
//! ```
//! use dva_engine::{Driver, Observers, Processor, Progress};
//! use dva_isa::Cycle;
//! use dva_metrics::UnitState;
//!
//! struct WaitFor10 {
//!     done: bool,
//! }
//!
//! impl Processor for WaitFor10 {
//!     fn step(&mut self, now: Cycle) -> Progress {
//!         if now >= 10 {
//!             self.done = true;
//!             Progress::Advanced
//!         } else {
//!             Progress::Stalled
//!         }
//!     }
//!     fn is_done(&self) -> bool {
//!         self.done
//!     }
//!     fn next_event_after(&self, _now: Cycle) -> Option<Cycle> {
//!         Some(10)
//!     }
//!     fn quiesce_at(&self) -> Cycle {
//!         11
//!     }
//!     fn sample(&self, _now: Cycle, obs: &mut Observers) {
//!         obs.record_state(UnitState::empty());
//!     }
//! }
//!
//! let mut obs = Observers::new();
//! let run = Driver::new().run(&mut WaitFor10 { done: false }, &mut obs);
//! assert_eq!(run.cycles, 11);
//! assert!(run.ticks <= 3); // fast-forward skipped the quiet cycles
//! assert_eq!(obs.states.total_cycles(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod result;

pub use driver::{Completion, Driver, Observers, Processor, Progress, SimError, WATCHDOG_TICKS};
pub use result::{Report, ResultCore};

/// Version stamp of the simulation engine's *observable behaviour*.
///
/// Cached results (the sweep service's content-addressed store) are only
/// valid as long as re-simulating the same point would reproduce them
/// byte for byte. Any change that can alter simulated results — engine
/// semantics, machine models, workload generation, metric accounting —
/// must bump this constant; persisted caches stamped with an older
/// version are discarded wholesale. Pure refactors proven byte-identical
/// by the grid-diff suites keep the stamp.
pub const ENGINE_VERSION: u32 = 6;
