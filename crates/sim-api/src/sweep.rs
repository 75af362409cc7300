//! Parallel sweep sessions over machines × programs × latencies ×
//! memory models.

use crate::cancel::CancelToken;
use crate::prepare::Runners;
use crate::stream::{self, IndexedSweepStream, PointSpec, SweepStream};
use crate::{Machine, SimResult};
use dva_isa::Program;
use dva_memory::MemoryModelKind;
use dva_workloads::{Benchmark, Scale};

/// A sweep session: the cross-product of machines, programs, memory
/// latencies and memory-model backends, executed by a pool of OS
/// threads.
///
/// Results come back as typed [`SweepPoint`]s in a deterministic order
/// (program-major, then latency, then memory model, then machine) that
/// is **independent of the thread count** — a parallel run is
/// byte-identical to a sequential one.
///
/// ```
/// use dva_sim_api::{Machine, Sweep};
/// use dva_workloads::{Benchmark, Scale};
///
/// let results = Sweep::new()
///     .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
///     .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
///     .latencies([1, 100])
///     .scale(Scale::Quick)
///     .run();
/// assert_eq!(results.points.len(), 3 * 2 * 2);
/// let speedup = results.cycles("REF", Benchmark::Trfd, 100).unwrap() as f64
///     / results.cycles("DVA", Benchmark::Trfd, 100).unwrap() as f64;
/// assert!(speedup > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    pub(crate) machines: Vec<Machine>,
    pub(crate) benchmarks: Vec<Benchmark>,
    pub(crate) programs: Vec<Program>,
    pub(crate) latencies: Vec<u64>,
    pub(crate) memory_models: Vec<MemoryModelKind>,
    pub(crate) scale: Scale,
    pub(crate) threads: usize,
    pub(crate) fast_forward: bool,
    pub(crate) cancel: CancelToken,
}

impl Default for Sweep {
    /// An empty session with fast-forward enabled.
    fn default() -> Sweep {
        Sweep {
            machines: Vec::new(),
            benchmarks: Vec::new(),
            programs: Vec::new(),
            latencies: Vec::new(),
            memory_models: Vec::new(),
            scale: Scale::default(),
            threads: 0,
            fast_forward: true,
            cancel: CancelToken::new(),
        }
    }
}

/// One measurement of one machine on one program at one latency.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The machine that ran, already stamped with [`SweepPoint::latency`].
    pub machine: Machine,
    /// The machine's display label (`REF`, `DVA`, `BYP 4/8`, `IDEAL`).
    pub label: String,
    /// The benchmark, when the program came from the benchmark suite.
    pub benchmark: Option<Benchmark>,
    /// The program's name (benchmark name or custom program name).
    pub program: String,
    /// Memory latency this point ran at.
    pub latency: u64,
    /// The memory-model coordinate of this grid point: the backend the
    /// sweep stamped (or, with an empty memory grid, the machine's own
    /// configured model — `Flat` for machines without a memory system).
    /// Like [`latency`](SweepPoint::latency), machines without a memory
    /// knob (IDEAL, custom) carry the grid coordinate but ignore it.
    pub memory: MemoryModelKind,
    /// The unified measurement.
    pub result: SimResult,
}

impl SweepPoint {
    /// Speedup of this point over `baseline` (baseline cycles / ours).
    pub fn speedup_over(&self, baseline: &SweepPoint) -> f64 {
        self.result.speedup_over(&baseline.result)
    }
}

/// All points of a completed [`Sweep`], in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// Program-major, then latency, then memory model, then machine —
    /// the order the grid was declared in, regardless of thread count.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty session; add machines, programs and latencies, then
    /// [`run`](Sweep::run).
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// Adds machines to the sweep.
    #[must_use]
    pub fn machines(mut self, machines: impl IntoIterator<Item = Machine>) -> Sweep {
        self.machines.extend(machines);
        self
    }

    /// Adds one machine to the sweep.
    #[must_use]
    pub fn machine(mut self, machine: Machine) -> Sweep {
        self.machines.push(machine);
        self
    }

    /// Adds benchmark programs (generated at the session's
    /// [`scale`](Sweep::scale) when the sweep runs).
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Sweep {
        self.benchmarks.extend(benchmarks);
        self
    }

    /// Adds one benchmark program.
    #[must_use]
    pub fn benchmark(mut self, benchmark: Benchmark) -> Sweep {
        self.benchmarks.push(benchmark);
        self
    }

    /// Adds a custom (non-benchmark) program; its [`Program::name`] labels
    /// the points. Programs share their instruction storage, so deriving
    /// sweep variants from an existing trace (e.g. via
    /// [`Program::with_name`]) copies no instructions.
    #[must_use]
    pub fn program(mut self, program: Program) -> Sweep {
        self.programs.push(program);
        self
    }

    /// Sets the memory latency grid. When the grid is empty (the default)
    /// each machine runs once at its own configured latency.
    #[must_use]
    pub fn latencies(mut self, latencies: impl IntoIterator<Item = u64>) -> Sweep {
        self.latencies.extend(latencies);
        self
    }

    /// Sets the memory-model grid: every machine×latency point runs once
    /// per backend. When the grid is empty (the default) each machine
    /// runs against its own configured model — existing latency-only
    /// sweeps are unchanged.
    ///
    /// ```
    /// use dva_memory::MemoryModelKind;
    /// use dva_sim_api::{Machine, Sweep};
    /// use dva_workloads::{Benchmark, Scale};
    ///
    /// let results = Sweep::new()
    ///     .machines([Machine::reference(1), Machine::dva(1)])
    ///     .benchmark(Benchmark::Trfd)
    ///     .latencies([1, 50])
    ///     .memory_models([
    ///         MemoryModelKind::Flat,
    ///         MemoryModelKind::Banked { banks: 8, bank_busy: 8 },
    ///     ])
    ///     .scale(Scale::Quick)
    ///     .run();
    /// assert_eq!(results.points.len(), 2 * 2 * 2);
    /// assert_eq!(results.memory_models().len(), 2);
    /// ```
    #[must_use]
    pub fn memory_models(mut self, models: impl IntoIterator<Item = MemoryModelKind>) -> Sweep {
        self.memory_models.extend(models);
        self
    }

    /// Adds one memory model to the sweep.
    #[must_use]
    pub fn memory_model(mut self, model: MemoryModelKind) -> Sweep {
        self.memory_models.push(model);
        self
    }

    /// Sets the trace scale benchmarks are generated at.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Sweep {
        self.scale = scale;
        self
    }

    /// Sets the worker thread count; `0` (the default) is clamped to the
    /// machine's available parallelism when the sweep runs (see
    /// [`effective_threads`](Sweep::effective_threads)). `1` forces a
    /// sequential run.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Sweep {
        self.threads = threads;
        self
    }

    /// Whether the engines' next-event fast-forward is enabled for this
    /// session (see [`fast_forward`](Sweep::fast_forward)).
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// The worker count [`run`](Sweep::run) will actually use before
    /// clamping to the grid size: the configured
    /// [`threads`](Sweep::threads), with `0` resolved to
    /// [`std::thread::available_parallelism`] (or `1` when that cannot be
    /// determined).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Enables or disables the engines' next-event fast-forward (on by
    /// default). Results are byte-identical either way — turning it off
    /// forces naive per-cycle stepping, which exists for verification and
    /// benchmarking.
    #[must_use]
    pub fn fast_forward(mut self, fast_forward: bool) -> Sweep {
        self.fast_forward = fast_forward;
        self
    }

    /// Attaches a cooperative cancellation token to the session's
    /// *streaming* runs: once the token is cancelled (explicitly or by
    /// its deadline), workers stop claiming further grid points and the
    /// stream ends early at the last in-order point. Every point that is
    /// yielded is still byte-identical to an uncancelled run; the
    /// blocking [`run`](Sweep::run) ignores the token (it has nobody to
    /// hand a partial grid to).
    #[must_use]
    pub fn cancel_token(mut self, cancel: CancelToken) -> Sweep {
        self.cancel = cancel;
        self
    }

    /// A handle on the session's cancellation token (clones share
    /// state): cancel it to stop in-flight streaming runs.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Number of points the session will measure (saturating at
    /// `usize::MAX`, so the size of a hostile request never wraps).
    pub fn len(&self) -> usize {
        let programs = self.benchmarks.len() + self.programs.len();
        let latencies = self.latencies.len().max(1);
        let models = self.memory_models.len().max(1);
        self.machines
            .len()
            .saturating_mul(programs)
            .saturating_mul(latencies)
            .saturating_mul(models)
    }

    /// Whether the session has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the session's grid — every point [`run`](Sweep::run)
    /// would measure, in the deterministic order it would return them —
    /// without simulating anything.
    ///
    /// This is the coordinate system external schedulers (the `dva-serve`
    /// result cache) address points by: each [`PointSpec`] carries its
    /// grid `index`, and a subset can be executed with
    /// [`run_subset_streaming`](Sweep::run_subset_streaming).
    ///
    /// An empty latency (or memory-model) grid means "each machine at its
    /// own latency (or model)". Benchmark programs are generated here, at
    /// the session's [`scale`](Sweep::scale); all points of one program
    /// axis entry share the program's instruction storage.
    pub fn grid(&self) -> Vec<PointSpec> {
        let programs: Vec<(Option<Benchmark>, Program)> = self
            .benchmarks
            .iter()
            .map(|&benchmark| (Some(benchmark), benchmark.program(self.scale)))
            .chain(self.programs.iter().map(|p| (None, p.clone())))
            .collect();

        let latencies: Vec<Option<u64>> = if self.latencies.is_empty() {
            vec![None]
        } else {
            self.latencies.iter().copied().map(Some).collect()
        };
        let models: Vec<Option<MemoryModelKind>> = if self.memory_models.is_empty() {
            vec![None]
        } else {
            self.memory_models.iter().copied().map(Some).collect()
        };
        let mut specs = Vec::with_capacity(self.len());
        for (benchmark, program) in &programs {
            for &latency in &latencies {
                for &model in &models {
                    for &machine in &self.machines {
                        let mut stamped = machine;
                        if let Some(latency) = latency {
                            stamped = stamped.with_latency(latency);
                        }
                        if let Some(model) = model {
                            stamped = stamped.with_memory_model(model);
                        }
                        specs.push(PointSpec {
                            index: specs.len(),
                            benchmark: *benchmark,
                            program: program.clone(),
                            machine: stamped,
                            latency: latency.unwrap_or_else(|| machine.latency().unwrap_or(0)),
                            memory: model.unwrap_or_else(|| {
                                machine.memory_model().unwrap_or(MemoryModelKind::Flat)
                            }),
                        });
                    }
                }
            }
        }
        specs
    }

    /// Runs every point of the session, fanning out across worker
    /// threads, and returns the points in deterministic grid order.
    ///
    /// Each program is *translated once*: the grid shares one
    /// [`PreparedProgram`](crate::PreparedProgram) per program axis entry
    /// (compiled lazily, by whichever worker gets there first), and each
    /// worker thread reuses one set of engine allocations ([`Runners`])
    /// across all the points it claims. Results are byte-identical to
    /// simulating every point from scratch — and to collecting
    /// [`run_streaming`](Sweep::run_streaming), which this delegates to
    /// when more than one worker is in play.
    pub fn run(&self) -> SweepResults {
        let specs = self.grid();
        let workers = self.effective_threads().clamp(1, specs.len().max(1));
        if workers <= 1 {
            // Inline sequential path: no threads, no channel — the
            // reference implementation the parallel paths are tested
            // against. The blocking path keeps its all-or-nothing
            // contract: an isolated point fault re-raises.
            let mut runners = Runners::new();
            return SweepResults {
                points: stream::prepare(specs)
                    .iter()
                    .map(|entry| {
                        entry
                            .try_measure(self.fast_forward, &mut runners)
                            .unwrap_or_else(|e| panic!("{e}"))
                    })
                    .collect(),
            };
        }
        SweepResults {
            points: self.run_streaming().collect(),
        }
    }

    /// Runs the session like [`run`](Sweep::run), but yields each
    /// [`SweepPoint`] as soon as it (and every point before it) has been
    /// measured, instead of waiting for the whole grid.
    ///
    /// Points arrive in exactly the order [`run`](Sweep::run) returns
    /// them — deterministic grid order, independent of the thread count —
    /// so `sweep.run_streaming().collect()` equals `sweep.run().points`
    /// byte for byte. Workers execute points out of order (work stealing);
    /// the stream holds completed points back until their turn.
    ///
    /// Dropping the stream early cancels the remaining work: workers
    /// finish the point in hand and exit.
    pub fn run_streaming(&self) -> SweepStream {
        let specs = self.grid();
        let workers = self.effective_threads().clamp(1, specs.len().max(1));
        stream::stream_all(
            stream::prepare(specs),
            workers,
            self.fast_forward,
            self.cancel.clone(),
        )
    }

    /// Runs an arbitrary subset of this session's [`grid`](Sweep::grid),
    /// yielding `(grid_index, point)` pairs in the order the specs were
    /// given (independent of the thread count).
    ///
    /// This is the entry point for external schedulers that know some
    /// points already — the `dva-serve` result cache hands the misses
    /// here and merges the streamed points with its hits by grid index.
    /// Specs need not come from this session's grid at all; threading and
    /// fast-forward come from `self`, everything else from each spec.
    pub fn run_subset_streaming(&self, specs: Vec<PointSpec>) -> IndexedSweepStream {
        let workers = self.effective_threads().clamp(1, specs.len().max(1));
        stream::stream_indexed(
            stream::prepare(specs),
            workers,
            self.fast_forward,
            self.cancel.clone(),
        )
    }
}

impl SweepResults {
    /// The points of one benchmark, in latency-then-machine order.
    pub fn of(&self, benchmark: Benchmark) -> impl Iterator<Item = &SweepPoint> {
        self.points
            .iter()
            .filter(move |p| p.benchmark == Some(benchmark))
    }

    /// The points of one machine label, in program-then-latency order.
    pub fn of_machine<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a SweepPoint> {
        self.points.iter().filter(move |p| p.label == label)
    }

    /// Looks up one grid point by machine label, benchmark and latency.
    ///
    /// The `latency` must have been **measured** for this curve: on a
    /// sparse axis — an [`AdaptiveSweep`](crate::AdaptiveSweep) result,
    /// or a dense sweep queried at a latency it never swept — the lookup
    /// returns `None` rather than the nearest point. Use
    /// [`curve`](Self::curve) for the sampled latencies of a curve and
    /// [`interpolated_cycles`](Self::interpolated_cycles) to evaluate
    /// between them.
    ///
    /// When a sweep declares several machines with the same label (e.g.
    /// base-DVA variants differing only in queue sizes), this returns the
    /// first match in declaration order — iterate [`of`](Self::of)
    /// positionally instead. For custom programs added via
    /// [`Sweep::program`], use [`named`](Self::named).
    pub fn get(&self, label: &str, benchmark: Benchmark, latency: u64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.label == label && p.benchmark == Some(benchmark) && p.latency == latency)
    }

    /// Looks up one grid point by machine label, program name and
    /// latency. Works for benchmark programs (named after the benchmark)
    /// and custom programs alike. Like [`get`](Self::get), an unmeasured
    /// latency is a miss (`None`), not a nearest-neighbour answer.
    pub fn named(&self, label: &str, program: &str, latency: u64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.label == label && p.program == program && p.latency == latency)
    }

    /// Cycle count of one grid point (same lookup rules — and the same
    /// sparse-axis miss behavior — as [`get`](Self::get)).
    pub fn cycles(&self, label: &str, benchmark: Benchmark, latency: u64) -> Option<u64> {
        self.get(label, benchmark, latency).map(|p| p.result.cycles)
    }

    /// One curve — the points of one machine label, benchmark and memory
    /// model — as `(latency, point)` pairs sorted by latency. Works on
    /// dense and sparse (adaptive) axes alike; renderers should iterate
    /// this rather than assuming every latency of a uniform grid was
    /// measured.
    pub fn curve(
        &self,
        label: &str,
        benchmark: Benchmark,
        memory: MemoryModelKind,
    ) -> Vec<(u64, &SweepPoint)> {
        self.curve_by(|p| p.label == label && p.benchmark == Some(benchmark) && p.memory == memory)
    }

    /// [`curve`](Self::curve) keyed by program name instead of benchmark,
    /// for custom programs.
    pub fn curve_named(
        &self,
        label: &str,
        program: &str,
        memory: MemoryModelKind,
    ) -> Vec<(u64, &SweepPoint)> {
        self.curve_by(|p| p.label == label && p.program == program && p.memory == memory)
    }

    fn curve_by(&self, select: impl Fn(&SweepPoint) -> bool) -> Vec<(u64, &SweepPoint)> {
        let mut curve: Vec<(u64, &SweepPoint)> = self
            .points
            .iter()
            .filter(|p| select(p))
            .map(|p| (p.latency, p))
            .collect();
        curve.sort_by_key(|&(latency, _)| latency);
        curve
    }

    /// Cycle count of one curve at `latency`, linearly interpolating
    /// between the two nearest sampled latencies when the exact latency
    /// was not measured. Returns `None` when the latency lies outside the
    /// sampled range (no extrapolation) or the curve has no points.
    ///
    /// This is how renderers evaluate an
    /// [`AdaptiveSweep`](crate::AdaptiveSweep) result at dense-axis
    /// resolution: sampled latencies are exact, skipped ones are within
    /// the adaptive tolerance by construction.
    pub fn interpolated_cycles(
        &self,
        label: &str,
        program: &str,
        memory: MemoryModelKind,
        latency: u64,
    ) -> Option<f64> {
        let curve = self.curve_named(label, program, memory);
        match curve.binary_search_by_key(&latency, |&(l, _)| l) {
            Ok(i) => Some(curve[i].1.result.cycles as f64),
            Err(i) => {
                if i == 0 || i == curve.len() {
                    return None;
                }
                let (l0, p0) = curve[i - 1];
                let (l1, p1) = curve[i];
                let (c0, c1) = (p0.result.cycles as f64, p1.result.cycles as f64);
                Some(c0 + (c1 - c0) * (latency - l0) as f64 / (l1 - l0) as f64)
            }
        }
    }

    /// The points measured against one memory-model backend, in
    /// program-then-latency-then-machine order.
    pub fn of_memory(&self, memory: MemoryModelKind) -> impl Iterator<Item = &SweepPoint> {
        self.points.iter().filter(move |p| p.memory == memory)
    }

    /// The distinct latencies measured, in first-seen order.
    pub fn latencies(&self) -> Vec<u64> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.latency) {
                seen.push(p.latency);
            }
        }
        seen
    }

    /// The distinct memory-model backends measured, in first-seen order.
    pub fn memory_models(&self) -> Vec<MemoryModelKind> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.memory) {
                seen.push(p.memory);
            }
        }
        seen
    }

    /// The distinct machine labels measured, in first-seen order.
    pub fn labels(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for p in &self.points {
            if !seen.iter().any(|l| l == &p.label) {
                seen.push(p.label.clone());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep(threads: usize) -> SweepResults {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
            .latencies([1, 30])
            .scale(Scale::Quick)
            .threads(threads)
            .run()
    }

    #[test]
    fn grid_is_complete_and_ordered() {
        let results = small_sweep(1);
        assert_eq!(results.points.len(), 3 * 2 * 2);
        assert_eq!(results.latencies(), vec![1, 30]);
        assert_eq!(results.labels(), vec!["REF", "DVA", "IDEAL"]);
        // Program-major order: all TRFD points precede all DYFESM points.
        let first_dyfesm = results
            .points
            .iter()
            .position(|p| p.benchmark == Some(Benchmark::Dyfesm))
            .unwrap();
        assert!(results.points[..first_dyfesm]
            .iter()
            .all(|p| p.benchmark == Some(Benchmark::Trfd)));
        assert_eq!(results.of(Benchmark::Trfd).count(), 6);
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let sequential = small_sweep(1);
        let parallel = small_sweep(4);
        assert_eq!(sequential, parallel);
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "parallel sweep must be byte-identical to sequential"
        );
    }

    #[test]
    fn empty_latency_grid_uses_each_machines_own_latency() {
        let results = Sweep::new()
            .machines([Machine::reference(42), Machine::ideal()])
            .benchmark(Benchmark::Trfd)
            .scale(Scale::Quick)
            .run();
        assert_eq!(results.points.len(), 2);
        assert_eq!(results.points[0].latency, 42);
        assert_eq!(results.points[1].latency, 0); // IDEAL has no memory
    }

    fn memory_sweep(threads: usize) -> SweepResults {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .memory_models([
                MemoryModelKind::Flat,
                MemoryModelKind::Banked {
                    banks: 8,
                    bank_busy: 8,
                },
                MemoryModelKind::MultiPort { ports: 2 },
            ])
            .scale(Scale::Quick)
            .threads(threads)
            .run()
    }

    #[test]
    fn memory_model_grid_is_complete_and_ordered() {
        let results = memory_sweep(1);
        assert_eq!(results.points.len(), 2 * 2 * 3);
        assert_eq!(results.memory_models().len(), 3);
        for memory in results.memory_models() {
            assert_eq!(results.of_memory(memory).count(), 4);
        }
        // Latency-major over memory models: within one latency, all flat
        // points precede all banked points.
        let flat_positions: Vec<usize> = results
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.memory == MemoryModelKind::Flat && p.latency == 1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(flat_positions, vec![0, 1]);
        // The machine actually ran with the stamped backend.
        for p in &results.points {
            assert_eq!(p.machine.memory_model(), Some(p.memory));
        }
    }

    #[test]
    fn memory_model_sweeps_are_thread_count_independent() {
        assert_eq!(memory_sweep(1), memory_sweep(4));
    }

    #[test]
    fn memory_models_change_timing_but_not_work() {
        let results = memory_sweep(1);
        let flat = results
            .of_memory(MemoryModelKind::Flat)
            .find(|p| p.label == "REF" && p.latency == 30)
            .unwrap();
        let banked = results
            .of_memory(MemoryModelKind::Banked {
                banks: 8,
                bank_busy: 8,
            })
            .find(|p| p.label == "REF" && p.latency == 30)
            .unwrap();
        // Bank conflicts can only slow a run down, and never change the
        // instructions executed or the words moved.
        assert!(banked.result.cycles >= flat.result.cycles);
        assert_eq!(banked.result.insts, flat.result.insts);
        assert_eq!(banked.result.traffic, flat.result.traffic);
    }

    #[test]
    fn empty_memory_grid_uses_each_machines_own_model() {
        let banked = MemoryModelKind::Banked {
            banks: 8,
            bank_busy: 8,
        };
        let results = Sweep::new()
            .machines([Machine::dva(1).with_memory_model(banked), Machine::ideal()])
            .benchmark(Benchmark::Trfd)
            .scale(Scale::Quick)
            .run();
        assert_eq!(results.points.len(), 2);
        assert_eq!(results.points[0].memory, banked);
        assert_eq!(results.points[1].memory, MemoryModelKind::Flat); // IDEAL has no memory
    }

    #[test]
    fn lookups_miss_rather_than_round_on_sparse_axes() {
        let results = small_sweep(1); // latencies [1, 30]
                                      // A latency the sweep never measured is a miss, not a nearest-
                                      // neighbour answer — callers on sparse (adaptive) axes must use
                                      // `curve` / `interpolated_cycles`.
        assert!(results.get("DVA", Benchmark::Trfd, 15).is_none());
        assert!(results.named("DVA", "TRFD", 15).is_none());
        assert!(results.cycles("DVA", Benchmark::Trfd, 15).is_none());
        // Measured latencies still hit.
        assert!(results.get("DVA", Benchmark::Trfd, 30).is_some());
        // Unknown labels and programs miss too.
        assert!(results.get("NOPE", Benchmark::Trfd, 1).is_none());
        assert!(results.named("DVA", "NOPE", 1).is_none());
    }

    #[test]
    fn curves_sort_by_latency_and_interpolate_between_samples() {
        let results = Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 100, 30]) // deliberately unsorted, non-uniform
            .scale(Scale::Quick)
            .threads(1)
            .run();
        let curve = results.curve("DVA", Benchmark::Trfd, MemoryModelKind::Flat);
        assert_eq!(
            curve.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            vec![1, 30, 100],
            "curves are sorted by latency regardless of sweep order"
        );
        assert_eq!(
            curve
                .iter()
                .map(|&(l, p)| (l, p.result.cycles))
                .collect::<Vec<_>>(),
            results
                .curve_named("DVA", "TRFD", MemoryModelKind::Flat)
                .iter()
                .map(|&(l, p)| (l, p.result.cycles))
                .collect::<Vec<_>>()
        );
        // Exact latencies come back exactly.
        let at30 = results
            .interpolated_cycles("DVA", "TRFD", MemoryModelKind::Flat, 30)
            .unwrap();
        assert_eq!(at30, curve[1].1.result.cycles as f64);
        // Between samples, the answer is on the chord of the bracket.
        let mid = results
            .interpolated_cycles("DVA", "TRFD", MemoryModelKind::Flat, 65)
            .unwrap();
        let (c30, c100) = (
            curve[1].1.result.cycles as f64,
            curve[2].1.result.cycles as f64,
        );
        let expected = c30 + (c100 - c30) * (65.0 - 30.0) / (100.0 - 30.0);
        assert!((mid - expected).abs() < 1e-9);
        // Outside the sampled range there is no extrapolation.
        assert!(results
            .interpolated_cycles("DVA", "TRFD", MemoryModelKind::Flat, 0)
            .is_none());
        assert!(results
            .interpolated_cycles("DVA", "TRFD", MemoryModelKind::Flat, 101)
            .is_none());
        // And an empty curve yields nothing.
        assert!(results
            .interpolated_cycles("NOPE", "TRFD", MemoryModelKind::Flat, 30)
            .is_none());
    }

    #[test]
    fn zero_threads_clamps_to_available_parallelism() {
        let sweep = Sweep::new(); // threads defaults to 0
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(sweep.effective_threads(), expected);
        assert!(sweep.effective_threads() >= 1);
        assert_eq!(sweep.clone().threads(3).effective_threads(), 3);
        assert_eq!(sweep.threads(0).effective_threads(), expected);
    }

    #[test]
    fn custom_programs_ride_alongside_benchmarks() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        // `with_name` shares the benchmark's instruction storage — adding
        // a derived program to a sweep copies no instructions.
        let custom = program.with_name("custom");
        assert_eq!(custom.insts().as_ptr(), program.insts().as_ptr());
        let results = Sweep::new()
            .machine(Machine::dva(1))
            .program(custom)
            .latencies([1])
            .run();
        assert_eq!(results.points.len(), 1);
        assert_eq!(results.points[0].program, "custom");
        assert_eq!(results.points[0].benchmark, None);
        // The derived points match the benchmark's own simulation.
        assert_eq!(results.points[0].result, Machine::dva(1).simulate(&program));
    }
}
