//! The sweep service: jobs in, streamed points out, every simulation
//! checked against the result cache first.

use crate::cache::{self, ResultCache};
use crate::error::ServeError;
use crate::key::PointKey;
use dva_sim_api::{
    AdaptiveOutcome, AdaptiveReport, AdaptiveSweep, CancelToken, PointError, PointSpec, Sweep,
    SweepPoint, SweepResults, SweepStream,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What a job cost: how many points it covered, and how many of those
/// were served from cache versus actually simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSummary {
    /// Grid points in the job.
    pub total: usize,
    /// Points answered from the result cache.
    pub cache_hits: usize,
    /// Points the job set out to simulate (failed attempts included, so
    /// `total = cache_hits + simulated` always holds).
    pub simulated: usize,
    /// Simulation attempts that ended in an isolated point fault
    /// (deadlock or panic). Failed points are never cached. Counted as
    /// the stream drains — final once the job has been consumed.
    pub errors: usize,
}

/// A persistent sweep service: submit [`Sweep`] sessions, get streamed
/// points back, never simulate the same point twice.
///
/// The service is cheap to share (`Arc` it for a multi-connection
/// server); the cache behind it is a single mutex-guarded store, touched
/// only at job setup and once per completed point. A hit costs the job
/// setup one key and one lookup, and holds the result as its stored
/// bytes until the point is yielded.
pub struct SweepService {
    cache: Arc<Mutex<ResultCache>>,
}

impl SweepService {
    /// A service over the given result cache.
    pub fn new(cache: ResultCache) -> SweepService {
        SweepService {
            cache: Arc::new(Mutex::new(cache)),
        }
    }

    /// Submits a job: resolves the sweep's grid against the cache and
    /// returns a [`ServeRun`] yielding every point — hit or miss — in
    /// deterministic grid order, byte-identical to `sweep.run()`. Only
    /// the misses are simulated (work-stealing, streaming), and their
    /// workers start when the run first needs a miss: a fully cached job
    /// spawns no thread at all.
    pub fn submit(&self, sweep: &Sweep) -> ServeRun {
        self.submit_specs(sweep, sweep.grid())
    }

    /// [`submit`](SweepService::submit) for a subset of a sweep's grid:
    /// resolves exactly the given specs against the cache and streams
    /// the rest, yielding points in **submission order** (an adaptive
    /// refinement round, say, rather than a full grid). The specs'
    /// cache keys are the same as in a full-grid job — subset and dense
    /// runs share cache entries in both directions.
    pub fn submit_specs(&self, sweep: &Sweep, specs: Vec<PointSpec>) -> ServeRun {
        let total = specs.len();
        let mut hits: VecDeque<(usize, PointSpec, Arc<str>)> = VecDeque::with_capacity(total);
        let mut misses: Vec<PointSpec> = Vec::new();
        let mut miss_keys: VecDeque<PointKey> = VecDeque::new();
        {
            let mut cache = self.cache.lock().unwrap();
            // Hit/miss merge runs on submission position, not grid index
            // — a subset's grid indices are sparse, but its positions are
            // dense, which is what the in-order merge below needs. (For a
            // full grid the two coincide.)
            for (position, mut spec) in specs.into_iter().enumerate() {
                let Ok(key) = PointKey::of(&spec, sweep.fast_forward_enabled());
                match cache.get_bytes(&key) {
                    Some(stored) => hits.push_back((position, spec, stored)),
                    None => {
                        spec.index = position;
                        misses.push(spec);
                        miss_keys.push_back(key);
                    }
                }
            }
        }
        let summary = JobSummary {
            total,
            cache_hits: hits.len(),
            simulated: misses.len(),
            errors: 0,
        };
        ServeRun {
            cache: Arc::clone(&self.cache),
            hits,
            sweep: sweep.clone(),
            misses,
            stream: None,
            miss_keys,
            summary,
            yielded: 0,
            cancel: sweep.cancel_handle(),
        }
    }

    /// Runs a job to completion, returning the collected results (equal
    /// to `sweep.run()`) and what they cost.
    ///
    /// # Errors
    ///
    /// The all-or-nothing counterpart of the streaming surface: the
    /// first isolated point fault comes back as [`ServeError::Point`],
    /// and an interrupted job (cancelled token, expired deadline) as
    /// [`ServeError::Cancelled`] / [`ServeError::DeadlineExceeded`].
    /// Points measured before the failure stay cached either way.
    pub fn run(&self, sweep: &Sweep) -> Result<(SweepResults, JobSummary), ServeError> {
        let mut run = self.submit(sweep);
        let mut points = Vec::with_capacity(run.summary().total);
        while let Some(outcome) = run.next_outcome() {
            points.push(outcome?);
        }
        if run.interrupted() {
            return Err(run.interruption());
        }
        Ok((SweepResults { points }, run.summary()))
    }

    /// Runs an [`AdaptiveSweep`] session through the cache: every
    /// refinement round the planner requests goes through
    /// [`submit_specs`](SweepService::submit_specs), so previously
    /// measured points — from earlier rounds, earlier adaptive jobs, or
    /// **dense** jobs over the same axis — are cache hits, and every
    /// point this job simulates warm-starts later dense jobs in turn.
    ///
    /// `on_point` sees each measured point with its **dense grid index**
    /// (the index a full-axis [`Sweep::grid`] assigns it), as the rounds
    /// complete. The returned [`JobSummary`] is the accumulated cost
    /// across rounds; its `total` equals the outcome's sampled points.
    ///
    /// # Errors
    ///
    /// An isolated point fault aborts the refinement (a
    /// planner fed a partial round would refine a different curve) as
    /// [`ServeError::Point`], and a cancelled token or expired deadline
    /// on the adaptive session stops the job between rounds as
    /// [`ServeError::Cancelled`] / [`ServeError::DeadlineExceeded`].
    /// Points measured before the interruption stay cached, so a
    /// resubmitted job resumes nearly for free.
    pub fn run_adaptive_with(
        &self,
        adaptive: &AdaptiveSweep,
        mut on_point: impl FnMut(usize, &SweepPoint),
    ) -> Result<(AdaptiveOutcome, JobSummary), ServeError> {
        self.run_adaptive_stored(adaptive, |index, point, _| on_point(index, point))
    }

    /// [`run_adaptive_with`](SweepService::run_adaptive_with), also
    /// handing `on_point` each point's stored result bytes.
    pub(crate) fn run_adaptive_stored(
        &self,
        adaptive: &AdaptiveSweep,
        mut on_point: impl FnMut(usize, &SweepPoint, &str),
    ) -> Result<(AdaptiveOutcome, JobSummary), ServeError> {
        let sweep = adaptive.dense();
        let cancel = adaptive.cancel_handle();
        let mut planner = adaptive.planner();
        let mut summary = JobSummary {
            total: 0,
            cache_hits: 0,
            simulated: 0,
            errors: 0,
        };
        loop {
            if cancel.is_cancelled() {
                return Err(interruption_of(&cancel));
            }
            let specs = planner.next_round();
            if specs.is_empty() {
                break;
            }
            // The round's dense indices, in submission order — the run
            // below yields points in exactly this order.
            let indices: Vec<usize> = specs.iter().map(|spec| spec.index).collect();
            let mut run = self.submit_specs(&sweep, specs);
            let round = run.summary();
            summary.total += round.total;
            summary.cache_hits += round.cache_hits;
            summary.simulated += round.simulated;
            let mut indices = indices.into_iter();
            while let Some(outcome) = run.next_resolved() {
                let index = indices.next().expect("one index per submitted spec");
                let (point, stored) = outcome?.into_parts();
                on_point(index, &point, &stored);
                planner.record(index, point);
            }
            if run.interrupted() {
                return Err(run.interruption());
            }
        }
        Ok((planner.finish(), summary))
    }

    /// Results resident in the cache's memory tier.
    pub fn cached_results(&self) -> usize {
        self.cache.lock().unwrap().memory_len()
    }

    /// Disk-tier write failures the cache has absorbed (the first one
    /// demotes the tier to memory-only; see
    /// [`ResultCache::disk_errors`]).
    pub fn disk_errors(&self) -> usize {
        self.cache.lock().unwrap().disk_errors()
    }

    /// Results the cache's memory tier has evicted (see
    /// [`ResultCache::evictions`]).
    pub fn evictions(&self) -> usize {
        self.cache.lock().unwrap().evictions()
    }
}

/// The wire summary of an adaptive job: the sampling accounting of the
/// [`AdaptiveReport`] plus what the sampled points cost through the
/// cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSummary {
    /// Points the equivalent dense job would have covered.
    pub dense: usize,
    /// Points actually sampled (= `cache_hits + simulated`).
    pub sampled: usize,
    /// Sampled points answered from the result cache.
    pub cache_hits: usize,
    /// Sampled points simulated (and then cached) by this job.
    pub simulated: usize,
    /// Dense points skipped as recoverable by interpolation.
    pub interpolated: usize,
    /// Dense points skipped because their curve was dominance-pruned.
    pub dominated: usize,
    /// Curves that were dominance-pruned.
    pub pruned_curves: usize,
    /// Refinement rounds executed.
    pub rounds: usize,
}

impl AdaptiveSummary {
    /// Folds a finished adaptive run's report and accumulated job cost
    /// into the wire summary.
    pub fn of(report: &AdaptiveReport, job: JobSummary) -> AdaptiveSummary {
        AdaptiveSummary {
            dense: report.dense_points,
            sampled: report.sampled_points,
            cache_hits: job.cache_hits,
            simulated: job.simulated,
            interpolated: report.skipped_interpolated,
            dominated: report.skipped_dominated,
            pruned_curves: report.pruned().count(),
            rounds: report.rounds,
        }
    }
}

/// The [`ServeError`] describing why a cancelled token stopped a job.
fn interruption_of(cancel: &CancelToken) -> ServeError {
    if cancel.deadline_exceeded() {
        ServeError::DeadlineExceeded
    } else {
        ServeError::Cancelled
    }
}

/// A running job: its points in grid order, merging cached hits with
/// freshly simulated misses as they stream in. Created by
/// [`SweepService::submit`].
///
/// Poll it with [`next_outcome`](ServeRun::next_outcome): each isolated
/// point fault arrives as a typed [`PointError`] alongside the healthy
/// points. A cancelled token or expired deadline on the submitted sweep
/// truncates the run (see [`interrupted`](ServeRun::interrupted)).
pub struct ServeRun {
    cache: Arc<Mutex<ResultCache>>,
    /// Cached points — submission position, spec and stored result
    /// bytes — ascending submission position.
    hits: VecDeque<(usize, PointSpec, Arc<str>)>,
    /// The submitted sweep: threading, fast-forward and cancellation for
    /// the miss stream.
    sweep: Sweep,
    /// The misses, ascending submission position (each spec's `index` is
    /// its position), until the stream takes them.
    misses: Vec<PointSpec>,
    /// Simulates the misses; started when the merge first needs one.
    stream: Option<SweepStream>,
    /// Keys of the misses not yet yielded, in stream order.
    miss_keys: VecDeque<PointKey>,
    summary: JobSummary,
    yielded: usize,
    cancel: CancelToken,
}

impl ServeRun {
    /// What this job cost. The hit/miss split is known from the moment
    /// the job was submitted; the `errors` count grows as faults are
    /// discovered, so it is final only once the run has been consumed.
    pub fn summary(&self) -> JobSummary {
        self.summary
    }

    /// Whether the run stopped early because its sweep's cancel token
    /// tripped (explicitly, or by deadline) — whether or not its miss
    /// stream had started.
    pub fn interrupted(&self) -> bool {
        self.cancel.is_cancelled() && self.yielded < self.summary.total
    }

    /// The [`ServeError`] describing an interruption; meaningful only
    /// when [`interrupted`](ServeRun::interrupted) is true.
    pub fn interruption(&self) -> ServeError {
        interruption_of(&self.cancel)
    }

    /// The next point of the job in order — or the typed [`PointError`]
    /// of a point whose simulation failed. `None` once the job is
    /// exhausted or its cancel token tripped. Failed points are never
    /// cached, so a resubmitted job retries exactly them.
    pub fn next_outcome(&mut self) -> Option<Result<SweepPoint, PointError>> {
        self.next_resolved()
            .map(|outcome| outcome.map(|resolved| resolved.into_parts().0))
    }

    /// [`next_outcome`](ServeRun::next_outcome) before a hit is decoded:
    /// the point as the cache resolved it, with its stored bytes.
    pub(crate) fn next_resolved(&mut self) -> Option<Result<Resolved, PointError>> {
        if self.cancel.is_cancelled() {
            return None;
        }
        // Hits and misses partition the submission positions, and both
        // queues ascend, so the next position overall is `yielded`.
        if self
            .hits
            .front()
            .is_some_and(|&(position, ..)| position == self.yielded)
        {
            self.yielded += 1;
            return self
                .hits
                .pop_front()
                .map(|(_, spec, stored)| Ok(Resolved::Hit(spec, stored)));
        }
        if self.miss_keys.is_empty() {
            return None;
        }
        let (sweep, misses) = (&self.sweep, &mut self.misses);
        let stream = self
            .stream
            .get_or_insert_with(|| sweep.run_subset_streaming(std::mem::take(misses)));
        // `None` here: cancellation truncated the stream.
        let (_, outcome) = stream.next_outcome()?;
        self.yielded += 1;
        let key = self.miss_keys.pop_front().expect("one key per miss");
        Some(match outcome {
            Ok(point) => {
                // Rendered once, outside the lock: these bytes are the
                // cached value, the disk line's result and the frame's.
                let stored = cache::render(&point.result);
                self.cache
                    .lock()
                    .unwrap()
                    .store_bytes(key, Arc::clone(&stored));
                Ok(Resolved::Miss(Box::new(point), stored))
            }
            Err(error) => {
                self.summary.errors += 1;
                Err(error)
            }
        })
    }
}

/// One point of a run as the cache resolved it, with its result's stored
/// bytes (see [`crate::cache`]).
pub(crate) enum Resolved {
    /// Served from cache: the point's spec and the bytes found.
    Hit(PointSpec, Arc<str>),
    /// Simulated by this run: the point and the bytes its store kept.
    Miss(Box<SweepPoint>, Arc<str>),
}

impl Resolved {
    /// The typed point and the stored bytes; a hit is decoded.
    fn into_parts(self) -> (SweepPoint, Arc<str>) {
        match self {
            Resolved::Hit(spec, stored) => (spec.point(cache::decode(&stored)), stored),
            Resolved::Miss(point, stored) => (*point, stored),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use dva_sim_api::Machine;
    use dva_workloads::{Benchmark, Scale};

    fn sweep_at(latencies: Vec<u64>) -> Sweep {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
            .latencies(latencies)
            .scale(Scale::Quick)
            .threads(2)
    }

    fn sweep() -> Sweep {
        sweep_at(vec![1, 30])
    }

    /// Every remaining point of `run`, failing the test on a point fault.
    fn drain(run: &mut ServeRun) -> Vec<SweepPoint> {
        std::iter::from_fn(|| run.next_outcome())
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn first_job_simulates_second_job_hits() {
        let service = SweepService::new(ResultCache::in_memory(1024));
        let fresh = sweep().threads(1).run();

        let (first, cost) = service.run(&sweep()).unwrap();
        assert_eq!(first, fresh, "served results equal a fresh run");
        assert_eq!(cost.total, 12);
        assert_eq!(cost.cache_hits, 0);
        assert_eq!(cost.simulated, 12);

        let (second, cost) = service.run(&sweep()).unwrap();
        assert_eq!(second, fresh, "cached results are byte-identical");
        assert_eq!(cost.cache_hits, 12);
        assert_eq!(cost.simulated, 0, "repeat jobs simulate nothing");
    }

    /// The miss stream starts only when the in-order merge first needs a
    /// miss: leading hits stream without a worker, a cancellation before
    /// the first miss simulates nothing, and a fully cached job never
    /// starts the stream at all.
    #[test]
    fn the_miss_stream_starts_only_when_a_miss_is_due() {
        let service = SweepService::new(ResultCache::in_memory(1024));
        // Cache the TRFD half: the job's first six points hit, its
        // DYFESM points miss.
        let trfd = Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .scale(Scale::Quick)
            .threads(2);
        service.run(&trfd).unwrap();
        let cached = service.cached_results();

        let token = CancelToken::new();
        let mut run = service.submit(&sweep().cancel_token(token.clone()));
        assert_eq!(run.summary().cache_hits, 6);
        let first = run.next_outcome().unwrap().unwrap();
        assert_eq!(first, trfd.clone().threads(1).run().points[0]);
        assert!(run.stream.is_none(), "a hit needs no miss stream");
        token.cancel();
        assert!(run.interrupted());
        assert!(
            run.next_outcome().is_none(),
            "a cancelled job yields nothing more"
        );
        assert!(run.stream.is_none());
        assert_eq!(service.cached_results(), cached, "no miss was simulated");

        let mut run = service.submit(&trfd);
        assert_eq!(drain(&mut run).len(), 6);
        assert!(!run.interrupted());
        assert!(run.stream.is_none(), "a fully cached job starts no stream");
    }

    #[test]
    fn overlapping_jobs_only_simulate_the_new_points() {
        let service = SweepService::new(ResultCache::in_memory(1024));
        let narrow = sweep().clone();
        let (_, cost) = service.run(&narrow).unwrap();
        assert_eq!(cost.simulated, 12);

        // Widen the latency axis: old latencies hit, new ones miss —
        // except IDEAL, whose key ignores latency entirely.
        let wide = sweep_at(vec![1, 30, 70]);
        let (results, cost) = service.run(&wide).unwrap();
        assert_eq!(results, wide.clone().threads(1).run());
        assert_eq!(cost.total, 18);
        // New points: REF and DVA at latency 70 for both benchmarks (4).
        // IDEAL at 70 hits the latency-free cached bound.
        assert_eq!(cost.simulated, 4);
        assert_eq!(cost.cache_hits, 14);
    }

    #[test]
    fn subset_jobs_rebase_hits_onto_submission_positions() {
        let service = SweepService::new(ResultCache::in_memory(1024));
        let job = sweep();
        // Preload the latency-1 half, then submit a subset interleaving
        // cached and uncached points: the merge must still yield them in
        // submission order.
        service.run(&sweep_at(vec![1])).unwrap();
        let grid = job.grid();
        let subset: Vec<PointSpec> = grid.iter().filter(|s| s.index % 3 != 1).cloned().collect();
        let expected: Vec<SweepPoint> = {
            let dense = job.clone().threads(1).run();
            subset
                .iter()
                .map(|s| dense.points[s.index].clone())
                .collect()
        };
        let mut run = service.submit_specs(&job, subset);
        assert!(run.summary().cache_hits > 0 && run.summary().simulated > 0);
        let streamed = drain(&mut run);
        assert_eq!(
            streamed, expected,
            "subset points stream in submission order"
        );
    }

    fn adaptive() -> AdaptiveSweep {
        AdaptiveSweep::over(
            Sweep::new()
                .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
                .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
                .scale(Scale::Quick)
                .threads(2),
            1..=40,
        )
        .seeds(5)
    }

    #[test]
    fn adaptive_jobs_share_the_cache_with_dense_jobs_both_ways() {
        let adaptive = adaptive();
        let dense = adaptive.dense();

        // Adaptive first: a later dense job hits on every sampled point.
        let service = SweepService::new(ResultCache::in_memory(4096));
        let (outcome, job) = service.run_adaptive_with(&adaptive, |_, _| {}).unwrap();
        assert_eq!(job.total, outcome.report.sampled_points);
        assert_eq!(job.cache_hits, 0, "cold adaptive run hits nothing");
        let (results, cost) = service.run(&dense).unwrap();
        assert_eq!(results, dense.clone().threads(1).run());
        assert!(
            cost.cache_hits >= outcome.report.sampled_points,
            "every adaptive sample warm-starts the dense run"
        );

        // Dense first: the adaptive job simulates nothing at all.
        let service = SweepService::new(ResultCache::in_memory(4096));
        service.run(&dense).unwrap();
        let mut streamed = Vec::new();
        let (warm, job) = service
            .run_adaptive_with(&adaptive, |index, point| {
                streamed.push((index, point.clone()));
            })
            .unwrap();
        assert_eq!(job.simulated, 0, "dense run pre-paid every point");
        assert_eq!(job.cache_hits, warm.report.sampled_points);
        assert_eq!(warm.results, outcome.results, "cache round-trip is exact");
        // The callback saw every sampled point, keyed by dense index.
        assert_eq!(streamed.len(), warm.report.sampled_points);
        let reference = dense.clone().threads(1).run();
        for (index, point) in &streamed {
            assert_eq!(*point, reference.points[*index]);
        }
    }

    #[test]
    fn adaptive_summary_folds_report_and_cost() {
        let service = SweepService::new(ResultCache::in_memory(4096));
        let adaptive = adaptive();
        let (outcome, job) = service.run_adaptive_with(&adaptive, |_, _| {}).unwrap();
        let summary = AdaptiveSummary::of(&outcome.report, job);
        assert_eq!(summary.dense, adaptive.dense_len());
        assert_eq!(summary.sampled, summary.cache_hits + summary.simulated);
        assert_eq!(
            summary.dense,
            summary.sampled + summary.interpolated + summary.dominated
        );
        assert!(
            summary.sampled < summary.dense,
            "refinement must skip points"
        );
        assert!(summary.rounds >= 1);
    }

    #[test]
    fn streamed_points_arrive_in_grid_order_and_summary_is_upfront() {
        let service = SweepService::new(ResultCache::in_memory(1024));
        // Preload the latency-1 half of the grid.
        let half = sweep_at(vec![1]);
        service.run(&half).unwrap();

        let job = sweep();
        let mut run = service.submit(&job);
        let summary = run.summary();
        // Latency-1 points all hit (6), and so do the IDEAL points at
        // latency 30 — IDEAL keys carry no latency.
        assert_eq!(summary.cache_hits, 8);
        assert_eq!(summary.simulated, 4);
        assert_eq!(drain(&mut run), job.threads(1).run().points);
    }
}
