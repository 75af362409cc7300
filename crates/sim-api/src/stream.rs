//! Streaming, work-stealing execution of sweep grids.
//!
//! [`Sweep::run`](crate::Sweep::run) used to partition the grid up front;
//! this module replaces that with a work-stealing scheduler that also
//! *streams*: each worker owns a deque seeded with a contiguous chunk of
//! the grid (neighbouring points share a program, so its compiled form
//! stays warm on one worker), pops its own work from the front, and
//! steals from the back of the busiest other deque when it runs dry.
//! Completed points flow over a channel to the consuming thread, which
//! holds them back until every earlier grid position has arrived — so the
//! stream yields in deterministic grid order no matter how the workers
//! interleave, and collecting it is byte-identical to a sequential run.

use crate::cancel::CancelToken;
use crate::fault::{PointError, PointErrorKind};
use crate::prepare::{PreparedProgram, Runners};
use crate::sweep::SweepPoint;
use crate::{Machine, SimResult};
use dva_engine::SimError;
use dva_isa::Program;
use dva_memory::MemoryModelKind;
use dva_testutil::failpoint;
use dva_workloads::Benchmark;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// One coordinate of a sweep grid, produced by
/// [`Sweep::grid`](crate::Sweep::grid): everything needed to measure the
/// point, plus its position in the grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Position of this point in the grid's deterministic order.
    pub index: usize,
    /// The benchmark, when the program came from the benchmark suite.
    pub benchmark: Option<Benchmark>,
    /// The program to run (shares the session's instruction storage).
    pub program: Program,
    /// The machine, already stamped with this point's latency and model.
    pub machine: Machine,
    /// The latency coordinate (the machine's own when the grid had none).
    pub latency: u64,
    /// The memory-model coordinate (the machine's own when the grid had
    /// none).
    pub memory: MemoryModelKind,
}

impl PointSpec {
    /// The sweep point measuring `result` at this spec. Every field but
    /// the measurement is a pure function of the spec, so a cached
    /// result makes a point byte-identical to a freshly measured one.
    pub fn point(&self, result: SimResult) -> SweepPoint {
        SweepPoint {
            machine: self.machine,
            label: self.machine.label(),
            benchmark: self.benchmark,
            program: self.program.name().to_string(),
            latency: self.latency,
            memory: self.memory,
            result,
        }
    }
}

/// A spec bound to its shared translate-once program.
pub(crate) struct Entry {
    pub(crate) spec: PointSpec,
    pub(crate) prepared: PreparedProgram,
}

impl Entry {
    /// The detail string identifying this point at the `sim.point`
    /// failpoint — the filter key chaos tests select one grid point by.
    /// Deliberately coordinate-based (not index-based) so a spec fails
    /// identically whether it runs in a full grid or a resubmitted
    /// subset.
    fn fail_detail(&self) -> String {
        format!(
            "{}|{}|L{}",
            self.spec.machine.label(),
            self.spec.program.name(),
            self.spec.latency
        )
    }

    /// The [`PointError`] carrying this point's grid coordinates.
    fn fail(&self, kind: PointErrorKind, message: String) -> PointError {
        PointError {
            index: self.spec.index,
            label: self.spec.machine.label(),
            program: self.spec.program.name().to_string(),
            latency: self.spec.latency,
            memory: self.spec.memory,
            kind,
            message,
        }
    }

    /// Measures the point on its own, with full fault isolation: a
    /// tripped deadlock watchdog or a panic anywhere in the machine
    /// model comes back as a typed [`PointError`] instead of unwinding
    /// the worker. An armed `sim.point` failpoint stands in for either:
    /// `panic` panics here, and `io_error` becomes the point's
    /// [`SimError`](dva_engine::SimError), reported as a deadlock. After a caught
    /// panic the runners are rebuilt — a panic may have left an engine
    /// in a state its reset contract no longer covers. Every execution
    /// path (sequential, streamed, stolen) measures through here, so
    /// they all produce identical bytes.
    pub(crate) fn try_measure(
        &self,
        fast_forward: bool,
        runners: &mut Runners,
    ) -> Result<SweepPoint, PointError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            failpoint::hit("sim.point", || self.fail_detail()).map_err(|e| SimError {
                cycle: 0,
                ticks_stalled: 0,
                context: e.to_string(),
            })?;
            self.spec
                .machine
                .try_simulate_prepared(&self.prepared, fast_forward, runners)
        }));
        match outcome {
            Ok(Ok(result)) => Ok(self.spec.point(result)),
            Ok(Err(deadlock)) => Err(self.fail(PointErrorKind::Deadlock, deadlock.to_string())),
            Err(payload) => {
                *runners = Runners::new();
                Err(self.fail(PointErrorKind::Panic, panic_message(payload.as_ref())))
            }
        }
    }
}

/// Binds each spec to its program's [`PreparedProgram`] handle: points
/// on one program share its translations, within this grid and across
/// every other grid in the process.
pub(crate) fn prepare(specs: Vec<PointSpec>) -> Vec<Entry> {
    specs
        .into_iter()
        .map(|spec| Entry {
            prepared: PreparedProgram::new(&spec.program),
            spec,
        })
        .collect()
}

/// The scheduler state the workers share.
struct Shared {
    entries: Vec<Entry>,
    /// One deque per worker, holding positions in `entries`.
    queues: Vec<Mutex<VecDeque<usize>>>,
    fast_forward: bool,
    /// Checked between points: a cancelled token stops workers from
    /// claiming further work (points in flight still finish).
    cancel: CancelToken,
}

/// Claims the next entry position for worker `own`: its own deque's
/// front, else the back of the busiest other deque (stealing the far end
/// takes the work least likely to share a warm program with the victim's
/// current point).
fn next_position(shared: &Shared, own: usize) -> Option<usize> {
    if let Some(pos) = shared.queues[own].lock().unwrap().pop_front() {
        return Some(pos);
    }
    loop {
        let mut victim: Option<(usize, usize)> = None; // (queue length, index)
        for (i, queue) in shared.queues.iter().enumerate() {
            if i == own {
                continue;
            }
            let len = queue.lock().unwrap().len();
            if len > 0 && victim.is_none_or(|(best, _)| len > best) {
                victim = Some((len, i));
            }
        }
        let (_, victim) = victim?;
        // The victim may have drained between the scan and this lock;
        // losing that race just means rescanning.
        if let Some(pos) = shared.queues[victim].lock().unwrap().pop_back() {
            return Some(pos);
        }
    }
}

/// A completed point — or its isolated failure — travelling back to the
/// consumer, ordered by its position in the requested sequence.
struct Sequenced {
    pos: usize,
    index: usize,
    outcome: Result<SweepPoint, PointError>,
}

impl PartialEq for Sequenced {
    fn eq(&self, other: &Sequenced) -> bool {
        self.pos == other.pos
    }
}

impl Eq for Sequenced {}

impl PartialOrd for Sequenced {
    fn partial_cmp(&self, other: &Sequenced) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sequenced {
    fn cmp(&self, other: &Sequenced) -> Ordering {
        self.pos.cmp(&other.pos)
    }
}

/// A running sweep yielding points in deterministic grid order as they
/// complete: the workers, the result channel and the reorder buffer
/// that restores sequence order. Created by
/// [`Sweep::run_streaming`](crate::Sweep::run_streaming) and
/// [`Sweep::run_subset_streaming`](crate::Sweep::run_subset_streaming).
///
/// Two ways to consume it:
///
/// * as an [`Iterator`] of points, all or nothing: a failed point — an
///   isolated panic or deadlock — re-raises as a panic carrying the
///   [`PointError`] message;
/// * with [`next_outcome`](SweepStream::next_outcome), which yields each
///   failure as a typed [`PointError`] alongside the healthy points,
///   tagged with its grid index.
///
/// A cancelled sweep (see
/// [`Sweep::cancel_handle`](crate::Sweep::cancel_handle)) truncates: the
/// stream ends early at the last in-order point, which is the one
/// deliberate exception to the [`ExactSizeIterator`] length promise.
pub struct SweepStream {
    /// `None` once the stream has finished or been dropped.
    rx: Option<Receiver<Sequenced>>,
    /// Completed points that arrived ahead of their turn (min-heap).
    pending: BinaryHeap<Reverse<Sequenced>>,
    next_pos: usize,
    total: usize,
    workers: Vec<JoinHandle<()>>,
    cancel: CancelToken,
    /// Set once cancellation truncated the stream.
    cancelled: bool,
}

/// Starts up to `workers` threads measuring `entries`; the returned
/// stream yields their outcomes in `entries` order.
pub(crate) fn spawn(
    entries: Vec<Entry>,
    workers: usize,
    fast_forward: bool,
    cancel: CancelToken,
) -> SweepStream {
    let total = entries.len();
    let workers = workers.clamp(1, total.max(1));

    // Seed each deque with a contiguous chunk of the grid: points of one
    // program are adjacent, so each worker starts on as few distinct
    // programs as possible.
    let chunk = total.div_ceil(workers);
    let queues = (0..workers)
        .map(|w| Mutex::new((w * chunk..total.min((w + 1) * chunk)).collect()))
        .collect();

    let shared = Arc::new(Shared {
        entries,
        queues,
        fast_forward,
        cancel: cancel.clone(),
    });
    let (tx, rx) = channel();
    let handles = (0..workers)
        .map(|w| {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut runners = Runners::new();
                while let Some(pos) = next_position(&shared, w) {
                    if shared.cancel.is_cancelled() {
                        break;
                    }
                    let entry = &shared.entries[pos];
                    let sequenced = Sequenced {
                        pos,
                        index: entry.spec.index,
                        outcome: entry.try_measure(shared.fast_forward, &mut runners),
                    };
                    // A send fails only when the consumer dropped the
                    // stream: stop claiming work and exit.
                    if tx.send(sequenced).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    SweepStream {
        rx: Some(rx),
        pending: BinaryHeap::new(),
        next_pos: 0,
        total,
        workers: handles,
        cancel,
        cancelled: false,
    }
}

impl SweepStream {
    /// The next `(grid_index, outcome)` pair in submission order: a
    /// measured point, or the typed [`PointError`] that poisoned it.
    /// `None` once the stream is exhausted — or once a cancelled token
    /// truncated it (see [`cancelled`](SweepStream::cancelled)).
    pub fn next_outcome(&mut self) -> Option<(usize, Result<SweepPoint, PointError>)> {
        if self.next_pos >= self.total {
            self.finish();
            return None;
        }
        loop {
            if self
                .pending
                .peek()
                .is_some_and(|Reverse(s)| s.pos == self.next_pos)
            {
                let Reverse(s) = self.pending.pop().expect("peeked");
                self.next_pos += 1;
                if self.next_pos >= self.total {
                    // Exhausting the stream joins the workers, so a
                    // finished iteration implies a quiesced pool.
                    self.finish();
                }
                return Some((s.index, s.outcome));
            }
            let Some(rx) = self.rx.as_ref() else {
                // Cancellation truncated the stream on an earlier call.
                return None;
            };
            match rx.recv() {
                Ok(sequenced) => self.pending.push(Reverse(sequenced)),
                Err(_) => {
                    self.finish();
                    if self.cancel.is_cancelled() {
                        // Workers stopped claiming points on request; the
                        // stream truncates at the last in-order point.
                        self.cancelled = true;
                        self.total = self.next_pos;
                        return None;
                    }
                    // Every worker hung up with points still missing and
                    // nobody asked them to stop: an executor bug (point
                    // faults are isolated, so workers cannot die early).
                    unreachable!("sweep workers exited without completing the grid");
                }
            }
        }
    }

    /// Whether this stream's sweep was cancelled (explicitly or by
    /// deadline); a cancelled stream ends early.
    pub fn cancelled(&self) -> bool {
        self.cancelled || self.cancel.is_cancelled()
    }

    fn remaining(&self) -> usize {
        self.total - self.next_pos
    }

    fn finish(&mut self) {
        self.rx.take();
        for handle in self.workers.drain(..) {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for SweepStream {
    fn drop(&mut self) {
        // Closing the channel makes every pending send fail, so workers
        // abandon the rest of the grid; join them without re-raising (a
        // worker panic mid-drop must not abort an unwinding thread).
        self.rx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Iterator for SweepStream {
    type Item = SweepPoint;

    fn next(&mut self) -> Option<SweepPoint> {
        self.next_outcome()
            .map(|(_, outcome)| outcome.unwrap_or_else(|e| panic!("{e}")))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for SweepStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweep;
    use dva_workloads::Scale;

    fn sweep(threads: usize) -> Sweep {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
            .latencies([1, 30])
            .scale(Scale::Quick)
            .threads(threads)
    }

    #[test]
    fn streaming_matches_run_for_every_thread_count() {
        let reference = sweep(1).run();
        for threads in [1, 2, 3, 8] {
            let streamed: Vec<_> = sweep(threads).run_streaming().collect();
            assert_eq!(
                streamed, reference.points,
                "streamed points must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn grid_enumerates_what_run_measures() {
        let sweep = sweep(1);
        let specs = sweep.grid();
        let results = sweep.run();
        assert_eq!(specs.len(), results.points.len());
        for (spec, point) in specs.iter().zip(&results.points) {
            assert_eq!(spec.index, point_index(&results, point));
            assert_eq!(spec.machine, point.machine);
            assert_eq!(spec.latency, point.latency);
            assert_eq!(spec.memory, point.memory);
            assert_eq!(spec.program.name(), point.program);
        }
        // All points of one benchmark share instruction storage.
        assert_eq!(
            specs[0].program.insts().as_ptr(),
            specs[1].program.insts().as_ptr()
        );
    }

    fn point_index(results: &crate::SweepResults, point: &SweepPoint) -> usize {
        results.points.iter().position(|p| p == point).unwrap()
    }

    #[test]
    fn subsets_stream_in_submission_order_with_grid_indices() {
        let session = sweep(4);
        let full = session.run();
        // Every third point, submitted in reverse grid order.
        let mut subset: Vec<PointSpec> = session.grid().into_iter().step_by(3).collect();
        subset.reverse();
        let expected: Vec<usize> = subset.iter().map(|s| s.index).collect();
        let mut stream = session.run_subset_streaming(subset);
        let streamed: Vec<(usize, SweepPoint)> = std::iter::from_fn(|| stream.next_outcome())
            .map(|(index, outcome)| (index, outcome.unwrap()))
            .collect();
        let order: Vec<usize> = streamed.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, expected, "pairs arrive in submission order");
        for (index, point) in streamed {
            assert_eq!(point, full.points[index], "byte-identical to the full run");
        }
    }

    #[test]
    fn dropping_a_stream_cancels_the_remaining_work() {
        let mut stream = sweep(2).run_streaming();
        let first = stream.next().unwrap();
        assert_eq!(first.label, "REF");
        drop(stream); // must not hang or leak workers
    }

    #[test]
    fn empty_sessions_stream_nothing() {
        let mut stream = Sweep::new().run_streaming();
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.next().is_none());
    }

    /// Serializes the tests that arm `sim.point` (the failpoint registry
    /// is process-global) and hands each a disarmed site. Each filters on
    /// a latency no other test in this crate measures, so the armed site
    /// cannot fire in a concurrently running test.
    fn failpoint_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        failpoint::disarm("sim.point");
        guard
    }

    /// `session` measured with `sim.point` armed as `point`.
    fn outcomes_with(
        point: failpoint::Failpoint,
        session: &Sweep,
    ) -> Vec<(usize, Result<SweepPoint, PointError>)> {
        let _guard = failpoint_guard();
        failpoint::arm("sim.point", point);
        let mut stream = session.run_subset_streaming(session.grid());
        let outcomes = std::iter::from_fn(|| stream.next_outcome()).collect();
        failpoint::disarm("sim.point");
        assert!(!stream.cancelled());
        outcomes
    }

    #[test]
    #[should_panic(expected = "failpoint sim.point fired: REF|TRFD|L7919")]
    fn worker_panics_propagate_to_the_consumer() {
        let _guard = failpoint_guard();
        failpoint::arm(
            "sim.point",
            failpoint::Failpoint::new(failpoint::FailAction::Panic).filter("REF|TRFD|L7919"),
        );
        // Disarms the site however the stream ends, the expected panic
        // included.
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                failpoint::disarm("sim.point");
            }
        }
        let _disarm = Disarm;
        let results: Vec<_> = Sweep::new()
            .machine(Machine::reference(1))
            .benchmark(Benchmark::Trfd)
            .latencies([7919])
            .scale(Scale::Quick)
            .threads(2)
            .run_streaming()
            .collect();
        drop(results);
    }

    /// Fault isolation: one poisoned point becomes a typed
    /// [`PointError`] through [`SweepStream::next_outcome`],
    /// while every other point of the grid still arrives — byte-
    /// identical to a clean run.
    #[test]
    fn a_poisoned_point_is_isolated_as_a_typed_error() {
        let session = Sweep::new()
            .machine(Machine::reference(1))
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm, Benchmark::Flo52])
            .latencies([7927])
            .scale(Scale::Quick)
            .threads(2);
        let clean = session.run();
        let outcomes = outcomes_with(
            failpoint::Failpoint::new(failpoint::FailAction::Panic).filter("REF|DYFESM|L7927"),
            &session,
        );
        let mut errors = Vec::new();
        let mut points = Vec::new();
        for (index, outcome) in outcomes {
            match outcome {
                Ok(point) => points.push((index, point)),
                Err(error) => errors.push(error),
            }
        }
        assert_eq!(points.len(), 2);
        for (index, point) in &points {
            assert_eq!(point, &clean.points[*index]);
        }
        assert_eq!(errors.len(), 1);
        let error = &errors[0];
        assert_eq!(error.kind, PointErrorKind::Panic);
        assert_eq!(error.program, "DYFESM");
        assert!(
            error.message.contains("failpoint sim.point fired"),
            "{error}"
        );
    }

    /// A point whose simulation fails surfaces as
    /// `PointErrorKind::Deadlock` carrying the diagnosis; the `io_error`
    /// action at `sim.point` stands in for a tripped watchdog.
    #[test]
    fn a_deadlocked_point_reports_the_watchdog_diagnosis() {
        let session = Sweep::new()
            .machine(Machine::dva(1))
            .benchmark(Benchmark::Trfd)
            .latencies([7933])
            .scale(Scale::Quick)
            .threads(1);
        let outcomes = outcomes_with(
            failpoint::Failpoint::new(failpoint::FailAction::IoError).filter("DVA|TRFD|L7933"),
            &session,
        );
        let [(0, Err(error))] = &outcomes[..] else {
            panic!("expected one failed point, got {outcomes:?}");
        };
        assert_eq!(error.kind, PointErrorKind::Deadlock);
        assert!(error.message.contains("engine deadlock"), "{error}");
        assert!(
            error
                .message
                .contains("failpoint sim.point fired: DVA|TRFD|L7933"),
            "{error}"
        );
    }

    /// A delay above [`MAX_DELAY`](dva_isa::MAX_DELAY) built in Rust —
    /// one decoding would refuse — fails only its own points, before
    /// their first tick: each engine asserts the bound when it arms a
    /// run.
    #[test]
    fn a_latency_above_the_bound_is_an_isolated_point_error() {
        let hostile = dva_isa::MAX_DELAY + 1;
        let session = Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .latencies([30, hostile])
            .scale(Scale::Quick)
            .threads(2);
        let mut stream = session.run_subset_streaming(session.grid());
        let outcomes: Vec<_> = std::iter::from_fn(|| stream.next_outcome()).collect();
        assert_eq!(outcomes.len(), 4);
        for (index, outcome) in outcomes {
            match outcome {
                Ok(point) => assert_eq!(point.latency, 30, "point {index}"),
                Err(error) => {
                    assert_eq!(error.latency, hostile);
                    assert_eq!(error.kind, PointErrorKind::Panic);
                    assert!(
                        error.message.contains(&format!(
                            "latency {hostile} exceeds MAX_DELAY ({})",
                            dva_isa::MAX_DELAY
                        )),
                        "{error}"
                    );
                }
            }
        }
    }

    /// A cancelled token stops workers from claiming grid points: the
    /// stream truncates instead of wedging, and reports why.
    #[test]
    fn a_cancelled_token_truncates_the_stream() {
        let token = crate::CancelToken::new();
        token.cancel();
        let session = sweep(2).cancel_token(token);
        let mut stream = session.run_subset_streaming(session.grid());
        let total = session.len();
        let mut yielded = 0;
        while stream.next_outcome().is_some() {
            yielded += 1;
        }
        assert!(stream.cancelled());
        assert!(
            yielded < total,
            "a pre-cancelled sweep must not complete the grid"
        );
    }
}
