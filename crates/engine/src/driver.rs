//! The generic cycle driver and the [`Processor`] contract it drives.

use crate::result::{Report, ResultCore};
use dva_isa::Cycle;
use dva_metrics::{Diag, Histogram, StateTracker, UnitState};
use std::fmt;

/// How many consecutive ticks without progress before the driver declares
/// a deadlock (a bug in the machine model) and panics with diagnostics.
///
/// Counted in executed *ticks*, not cycles, so fast-forward jumps over
/// quiet cycles never trip it early and a genuine deadlock is detected
/// after the same amount of simulation work in either stepping mode. A
/// valid trace never waits more than a latency + vector length handful
/// of cycles, so the default is generous.
pub const WATCHDOG_TICKS: u64 = 200_000;

/// A structured simulation failure: the deadlock watchdog's diagnosis,
/// returned by [`Driver::try_run`] instead of a panic.
///
/// A deadlock is an internal invariant violation — a valid machine model
/// on a valid trace always completes — so the panicking entry point
/// ([`Driver::run`]) remains the right default for experiment code.
/// Long-running services use [`Driver::try_run`] so one poisoned
/// simulation becomes a typed error instead of tearing down a worker
/// thread; [`SimError`]'s [`Display`](fmt::Display) form is exactly the
/// message the panicking path would have raised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// The cycle the clock stood at when the watchdog tripped.
    pub cycle: Cycle,
    /// Consecutive executed ticks without progress (just past the
    /// watchdog threshold).
    pub ticks_stalled: u64,
    /// The processor's own [`Processor::deadlock_context`] line.
    pub context: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine deadlock at cycle {}: no progress for {} ticks; {}",
            self.cycle, self.ticks_stalled, self.context
        )
    }
}

impl std::error::Error for SimError {}

/// What one executed tick did to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Some unit changed state: an instruction issued, a queue pushed or
    /// popped, a store committed.
    Advanced,
    /// Nothing changed. Every unit is provably blocked on a *timed*
    /// condition, so the driver may fast-forward to the next event.
    Stalled,
}

impl Progress {
    /// `true` for [`Progress::Advanced`].
    pub fn advanced(self) -> bool {
        self == Progress::Advanced
    }
}

impl From<bool> for Progress {
    /// `true` maps to [`Progress::Advanced`].
    fn from(advanced: bool) -> Progress {
        if advanced {
            Progress::Advanced
        } else {
            Progress::Stalled
        }
    }
}

/// The per-cycle statistics sink shared by every machine: the Figure 1
/// state breakdown, plus an optional occupancy histogram (the DVA's
/// AVDQ, Figure 6).
///
/// The driver sets the *weight* — how many cycles the next recorded
/// sample stands for. During normal stepping the weight is 1; when
/// fast-forward skips `n` provably-identical cycles the driver replays
/// the stalled tick's sample with weight `n`, which is what keeps
/// bulk accounting byte-identical to naive stepping.
#[derive(Debug, Clone, PartialEq)]
pub struct Observers {
    /// Per-cycle machine state occupancy (paper, Figure 1).
    pub states: StateTracker,
    /// Per-cycle queue occupancy, for machines that track one (Figure 6).
    pub occupancy: Option<Histogram>,
    weight: u64,
}

impl Observers {
    /// Observers with the state breakdown only.
    pub fn new() -> Observers {
        Observers {
            states: StateTracker::new(),
            occupancy: None,
            weight: 1,
        }
    }

    /// Observers that additionally histogram a queue occupancy.
    pub fn with_occupancy(histogram: Histogram) -> Observers {
        Observers {
            occupancy: Some(histogram),
            ..Observers::new()
        }
    }

    /// Records the machine state for the current sample weight.
    #[inline]
    pub fn record_state(&mut self, state: UnitState) {
        self.states.add(state, self.weight);
    }

    /// Records a queue occupancy for the current sample weight (no-op
    /// when the machine tracks none).
    #[inline]
    pub fn record_occupancy(&mut self, busy_slots: usize) {
        if let Some(histogram) = &mut self.occupancy {
            histogram.add(busy_slots, self.weight);
        }
    }

    fn set_weight(&mut self, weight: u64) {
        self.weight = weight;
    }
}

impl Default for Observers {
    fn default() -> Observers {
        Observers::new()
    }
}

/// A machine model, as seen by the [`Driver`].
///
/// The processor advances its units in [`step`](Processor::step) and
/// reports honestly whether anything changed; the driver owns the clock,
/// the stepping strategy, the watchdog and the statistics bookkeeping.
/// See the [crate docs](crate) for the progress / next-event contract
/// that makes fast-forward sound.
pub trait Processor {
    /// Advances every unit one tick at cycle `now`. Must return
    /// [`Progress::Advanced`] iff any machine state changed.
    fn step(&mut self, now: Cycle) -> Progress;

    /// Whether the machine has structurally finished: everything fetched,
    /// every queue drained, nothing left to do but let in-flight work
    /// quiesce. Checked by the driver before each tick; must be `true`
    /// for an empty program.
    fn is_done(&self) -> bool;

    /// The earliest cycle strictly after `now` at which *anything* in the
    /// machine can change state, or `None` when no timed event is
    /// outstanding (a deadlock unless [`is_done`](Processor::is_done)).
    /// Consulted only after a tick that made no progress.
    fn next_event_after(&self, now: Cycle) -> Option<Cycle>;

    /// The cycle at which every unit and register is quiet, given that
    /// the machine is structurally done. The driver runs the clock (and
    /// the per-cycle sampling) up to this cycle.
    fn quiesce_at(&self) -> Cycle;

    /// Samples the per-cycle observables at cycle `now` — called once
    /// after every executed tick, and again with a higher weight when
    /// fast-forward bulk-accounts skipped cycles. Must be a pure read of
    /// the machine state.
    fn sample(&self, now: Cycle, obs: &mut Observers);

    /// Samples one post-completion drain cycle (the machine is
    /// structurally done; units are flushing). Defaults to
    /// [`sample`](Processor::sample).
    fn drain_sample(&self, now: Cycle, obs: &mut Observers) {
        self.sample(now, obs);
    }

    /// Folds `skipped` fast-forwarded cycles into the processor's own
    /// stall counters. Called with the machine in the stalled tick's
    /// state (cycle `now`), immediately before the clock jumps.
    fn account_skipped(&mut self, now: Cycle, skipped: u64) {
        let _ = (now, skipped);
    }

    /// The processor's contribution to the shared [`ResultCore`], read
    /// once after the clock stops at `cycles`.
    fn report(&self, cycles: Cycle) -> Report {
        let _ = cycles;
        Report::default()
    }

    /// One line of machine state for the watchdog's deadlock panic.
    fn deadlock_context(&self, now: Cycle) -> String {
        let _ = now;
        String::new()
    }
}

/// What the [`Driver`] measured itself: where the clock stopped and how
/// many ticks it actually executed to get there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Total execution time in cycles.
    pub cycles: Cycle,
    /// Engine iterations actually executed (`== cycles` under naive
    /// stepping, less under fast-forward).
    pub ticks: u64,
}

impl Completion {
    /// Assembles the shared [`ResultCore`] from the driver's clock, the
    /// observers' statistics and the processor's [`Report`], returning
    /// the occupancy histogram (if the machine tracked one) alongside.
    pub fn into_core<P: Processor + ?Sized>(
        self,
        processor: &P,
        observers: Observers,
    ) -> (ResultCore, Option<Histogram>) {
        let report = processor.report(self.cycles);
        let core = ResultCore {
            cycles: self.cycles,
            insts: report.insts,
            states: observers.states,
            traffic: report.traffic,
            bus_utilization: report.bus_utilization,
            port_utilization: report.port_utilization,
            cache_hit_rate: report.cache_hit_rate,
            cache: report.cache,
            stall_cycles: report.stall_cycles,
            ticks_executed: Diag(self.ticks),
        };
        (core, observers.occupancy)
    }
}

/// The generic cycle driver: the one place in the workspace where the
/// simulation clock lives.
///
/// ```
/// use dva_engine::Driver;
///
/// let driver = Driver::new(); // fast-forward on, default watchdog
/// let naive = Driver::new().fast_forward(false);
/// # let _ = (driver, naive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Driver {
    fast_forward: bool,
    watchdog_ticks: u64,
}

impl Driver {
    /// A driver with fast-forward enabled and the default
    /// [`WATCHDOG_TICKS`] deadlock threshold.
    pub fn new() -> Driver {
        Driver {
            fast_forward: true,
            watchdog_ticks: WATCHDOG_TICKS,
        }
    }

    /// Enables or disables the next-event fast-forward (on by default;
    /// turning it off forces naive per-cycle stepping — byte-identical
    /// results, kept around to verify exactly that).
    #[must_use]
    pub fn fast_forward(mut self, fast_forward: bool) -> Driver {
        self.fast_forward = fast_forward;
        self
    }

    /// Overrides the watchdog threshold (consecutive no-progress ticks
    /// before the driver panics).
    #[must_use]
    pub fn watchdog_ticks(mut self, ticks: u64) -> Driver {
        self.watchdog_ticks = ticks;
        self
    }

    /// Runs `processor` to completion, sampling into `observers`, and
    /// reports where the clock stopped.
    ///
    /// # Panics
    ///
    /// Panics if the processor makes no progress for more than the
    /// watchdog threshold of consecutive ticks — a deadlock, which for a
    /// valid machine model and trace is an internal invariant violation.
    /// Callers that must survive a poisoned simulation use
    /// [`try_run`](Driver::try_run) instead.
    pub fn run<P: Processor + ?Sized>(
        &self,
        processor: &mut P,
        observers: &mut Observers,
    ) -> Completion {
        self.try_run(processor, observers)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Driver::run), but a tripped deadlock watchdog comes back
    /// as a [`SimError`] instead of a panic. The processor and observers
    /// are left mid-flight on error and must be discarded.
    pub fn try_run<P: Processor + ?Sized>(
        &self,
        processor: &mut P,
        observers: &mut Observers,
    ) -> Result<Completion, SimError> {
        let mut now: Cycle = 0;
        let mut ticks: u64 = 0;
        let mut ticks_since_progress: u64 = 0;
        // Completion is reached only through progress, so after a
        // stalled tick the `is_done` check is skipped outright.
        let mut check_done = true;
        loop {
            if check_done && processor.is_done() {
                // Drain: run the clock until every unit and register is
                // quiet.
                let end = processor.quiesce_at();
                while now < end {
                    ticks += 1;
                    observers.set_weight(1);
                    processor.drain_sample(now, observers);
                    now += 1;
                }
                return Ok(Completion { cycles: now, ticks });
            }
            let progress = processor.step(now).advanced();
            ticks += 1;
            check_done = progress;
            if progress {
                ticks_since_progress = 0;
            } else {
                ticks_since_progress += 1;
            }
            if ticks_since_progress > self.watchdog_ticks {
                return Err(SimError {
                    cycle: now,
                    ticks_stalled: ticks_since_progress,
                    context: processor.deadlock_context(now),
                });
            }
            // A tick without progress proves every unit is blocked on a
            // timed condition, so fast-forward jumps straight to the next
            // event, bulk-accounting the skipped cycles. The per-cycle
            // samples and stall counters of the skipped cycles are
            // identical to this tick's — any change in between would
            // itself be an event — so the tick is sampled once, weighted
            // by itself plus everything it skips, which is what keeps
            // the results byte-identical to naive stepping.
            let mut jump_to = None;
            if !progress && self.fast_forward {
                if let Some(target) = processor.next_event_after(now) {
                    assert!(
                        target > now,
                        "Processor contract violation: next_event_after({now}) returned \
                         {target}, which is not strictly ahead of the stalled tick"
                    );
                    jump_to = Some(target);
                }
            }
            let skipped = jump_to.map_or(0, |target| target - (now + 1));
            observers.set_weight(1 + skipped);
            processor.sample(now, observers);
            if skipped > 0 {
                processor.account_skipped(now, skipped);
            }
            now = jump_to.unwrap_or(now + 1);
        }
    }
}

impl Default for Driver {
    fn default() -> Driver {
        Driver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic machine: a fixed schedule of "work items", each
    /// becoming ready at a given cycle. A tick completes at most one due
    /// item; with nothing due the machine is provably stalled until the
    /// next scheduled cycle. `busy_until` keeps a pretend unit busy past
    /// the last completion, exercising the post-completion drain.
    struct Toy {
        schedule: Vec<Cycle>,
        next: usize,
        stalls: u64,
        skipped_stalls: u64,
        busy_until: Cycle,
    }

    impl Toy {
        fn new(schedule: Vec<Cycle>, busy_until: Cycle) -> Toy {
            Toy {
                schedule,
                next: 0,
                stalls: 0,
                skipped_stalls: 0,
                busy_until,
            }
        }
    }

    impl Processor for Toy {
        fn step(&mut self, now: Cycle) -> Progress {
            match self.schedule.get(self.next) {
                Some(&due) if due <= now => {
                    self.next += 1;
                    Progress::Advanced
                }
                _ => {
                    self.stalls += 1;
                    Progress::Stalled
                }
            }
        }

        fn is_done(&self) -> bool {
            self.next >= self.schedule.len()
        }

        fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
            self.schedule
                .get(self.next)
                .copied()
                .filter(|&due| due > now)
        }

        fn quiesce_at(&self) -> Cycle {
            self.busy_until
        }

        fn sample(&self, _now: Cycle, obs: &mut Observers) {
            obs.record_state(UnitState::empty());
            obs.record_occupancy(self.schedule.len() - self.next);
        }

        fn drain_sample(&self, _now: Cycle, obs: &mut Observers) {
            obs.record_state(UnitState::FU1);
            obs.record_occupancy(0);
        }

        fn account_skipped(&mut self, _now: Cycle, skipped: u64) {
            self.skipped_stalls += skipped;
        }

        fn report(&self, _cycles: Cycle) -> Report {
            Report {
                stall_cycles: self.stalls + self.skipped_stalls,
                ..Report::default()
            }
        }

        fn deadlock_context(&self, _now: Cycle) -> String {
            format!("toy item {}/{}", self.next, self.schedule.len())
        }
    }

    fn run_toy(
        fast_forward: bool,
        schedule: Vec<Cycle>,
        busy_until: Cycle,
    ) -> (Toy, Observers, Completion) {
        let mut toy = Toy::new(schedule, busy_until);
        let mut obs = Observers::with_occupancy(Histogram::new(8));
        let completion = Driver::new()
            .fast_forward(fast_forward)
            .run(&mut toy, &mut obs);
        (toy, obs, completion)
    }

    /// The acceptance test the tentpole names: fast-forward bulk
    /// accounting equals naive stepping cycle-for-cycle — clock, state
    /// breakdown, occupancy histogram and stall counters — without
    /// booting a full machine.
    #[test]
    fn fast_forward_bulk_accounting_equals_naive_stepping() {
        let schedule = vec![0, 3, 3, 40, 41, 100];
        let (fast_toy, fast_obs, fast) = run_toy(true, schedule.clone(), 107);
        let (naive_toy, naive_obs, naive) = run_toy(false, schedule, 107);
        assert_eq!(fast.cycles, naive.cycles);
        assert_eq!(fast_obs, naive_obs);
        assert_eq!(
            fast_toy.stalls + fast_toy.skipped_stalls,
            naive_toy.stalls,
            "bulk-accounted stalls must equal per-cycle stalls"
        );
        assert_eq!(naive.ticks, naive.cycles);
        assert!(
            fast.ticks < naive.ticks,
            "fast-forward must skip the quiet cycles ({} vs {})",
            fast.ticks,
            naive.ticks
        );
        // Every cycle is accounted exactly once, in both modes.
        assert_eq!(fast_obs.states.total_cycles(), fast.cycles);
        assert_eq!(fast_obs.occupancy.unwrap().total(), fast.cycles);
    }

    #[test]
    fn drain_runs_the_clock_to_quiescence() {
        let (_, obs, completion) = run_toy(true, vec![0], 25);
        assert_eq!(completion.cycles, 25);
        // One live tick at cycle 0, then 24 drain samples.
        assert_eq!(obs.states.cycles_in(UnitState::FU1), 24);
        assert_eq!(obs.states.total_cycles(), 25);
    }

    #[test]
    fn a_done_processor_never_ticks() {
        let (_, obs, completion) = run_toy(true, Vec::new(), 0);
        assert_eq!(completion.cycles, 0);
        assert_eq!(completion.ticks, 0);
        assert_eq!(obs.states.total_cycles(), 0);
    }

    /// The watchdog trips on a processor that claims progress is
    /// impossible forever (no next event, never done).
    #[test]
    #[should_panic(expected = "engine deadlock")]
    fn watchdog_trips_on_a_processor_that_never_progresses() {
        struct Stuck;
        impl Processor for Stuck {
            fn step(&mut self, _now: Cycle) -> Progress {
                Progress::Stalled
            }
            fn is_done(&self) -> bool {
                false
            }
            fn next_event_after(&self, _now: Cycle) -> Option<Cycle> {
                None
            }
            fn quiesce_at(&self) -> Cycle {
                0
            }
            fn sample(&self, _now: Cycle, obs: &mut Observers) {
                obs.record_state(UnitState::empty());
            }
        }
        let _ = Driver::new()
            .watchdog_ticks(64)
            .run(&mut Stuck, &mut Observers::new());
    }

    /// `try_run` reports the same deadlock as a typed [`SimError`] whose
    /// display form is exactly the panic message, so the two entry
    /// points cannot drift apart.
    #[test]
    fn try_run_returns_a_structured_deadlock() {
        struct Stuck;
        impl Processor for Stuck {
            fn step(&mut self, _now: Cycle) -> Progress {
                Progress::Stalled
            }
            fn is_done(&self) -> bool {
                false
            }
            fn next_event_after(&self, _now: Cycle) -> Option<Cycle> {
                None
            }
            fn quiesce_at(&self) -> Cycle {
                0
            }
            fn sample(&self, _now: Cycle, obs: &mut Observers) {
                obs.record_state(UnitState::empty());
            }
            fn deadlock_context(&self, _now: Cycle) -> String {
                "stuck unit".into()
            }
        }
        let err = Driver::new()
            .watchdog_ticks(64)
            .try_run(&mut Stuck, &mut Observers::new())
            .unwrap_err();
        assert_eq!(err.ticks_stalled, 65);
        assert_eq!(err.context, "stuck unit");
        assert_eq!(
            err.to_string(),
            format!(
                "engine deadlock at cycle {}: no progress for 65 ticks; stuck unit",
                err.cycle
            )
        );
    }

    /// The watchdog counts executed ticks, not cycles: a fast-forward
    /// jump over a long quiet stretch must not trip it.
    #[test]
    fn watchdog_counts_ticks_not_skipped_cycles() {
        let (_, _, completion) = run_toy(true, vec![0, 1_000_000], 1_000_001);
        assert_eq!(completion.cycles, 1_000_001);
        assert!(completion.ticks < 10);
    }

    #[test]
    fn completion_assembles_the_shared_result_core() {
        let (toy, obs, completion) = run_toy(true, vec![0, 7], 8);
        let (core, occupancy) = completion.into_core(&toy, obs);
        assert_eq!(core.cycles, 8);
        assert_eq!(core.states.total_cycles(), 8);
        assert_eq!(core.ticks_executed.get(), completion.ticks);
        assert!(core.stall_cycles > 0);
        assert!(occupancy.is_some());
    }
}
