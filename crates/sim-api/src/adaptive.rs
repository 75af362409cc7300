//! Adaptive sweeps: knee-finding latency refinement with dominance
//! pruning.
//!
//! The paper's figures are curves with knees — speedup vs memory
//! latency flattens once decoupling has hidden everything there is to
//! hide — so a dense uniform latency grid wastes most of its points on
//! flat regions. An [`AdaptiveSweep`] measures the same curves with a
//! fraction of the simulations:
//!
//! 1. **Seed**: every curve (one per machine × program × memory model)
//!    is sampled at a handful of evenly spaced latencies of a declared
//!    *dense axis* (the grid a plain [`Sweep`] would measure).
//! 2. **Refine**: wherever a sampled point deviates from the chord of
//!    its neighbours by more than a tolerance — the discrete form of "the
//!    slope changes here" — the two flanking intervals are bisected (in
//!    axis-index space), round after round, until every curve is
//!    piecewise linear within tolerance or no interior index is left.
//! 3. **Prune**: a curve whose machine is a declared *prune candidate*
//!    and whose every sampled point is at least as slow as the baseline
//!    machine's stops being refined; the decision is recorded in the
//!    [`AdaptiveReport`].
//!
//! Every point an adaptive run measures is a [`PointSpec`] taken
//! verbatim from the dense sweep's [`Sweep::grid`], so it is
//! byte-identical to the same point of a dense run — and content-
//! addresses identically, which is how the `dva-serve` result cache is
//! shared between dense and adaptive runs in both directions.
//!
//! Refinement is a pure function of measured cycle counts: rounds are
//! barriers, requests are deduplicated and sorted, and results are keyed
//! by dense grid index — so the sampled set (and therefore the result)
//! is deterministic regardless of thread count or the order points
//! complete in.

use crate::stream::PointSpec;
use crate::sweep::{Sweep, SweepPoint, SweepResults};
use dva_json::{FromJson, Json, JsonError, Reader, Writer};
use dva_memory::MemoryModelKind;
use std::collections::BTreeMap;

/// Default number of seed samples per curve (clamped to the axis size).
pub const DEFAULT_SEEDS: usize = 7;
/// Default refinement tolerance: a sampled point may deviate from its
/// neighbours' chord by this fraction of its own cycle count before the
/// flanking intervals are bisected.
pub const DEFAULT_TOLERANCE: f64 = 0.02;
/// Hard cap on refinement rounds — a safety net far above the
/// `log2(axis)` rounds bisection can actually take.
const MAX_ROUNDS: usize = 64;

/// An adaptive sweep session: a [`Sweep`] template (machines, programs,
/// memory models, scale, threads) plus a dense latency axis to
/// refine over.
///
/// ```
/// use dva_sim_api::{AdaptiveSweep, Machine, Sweep};
/// use dva_workloads::{Benchmark, Scale};
///
/// let outcome = AdaptiveSweep::over(
///     Sweep::new()
///         .machines([Machine::reference(1), Machine::dva(1)])
///         .benchmark(Benchmark::Trfd)
///         .scale(Scale::Quick)
///         .threads(1),
///     1..=32,
/// )
/// .run();
/// assert!(outcome.report.sampled_points < outcome.report.dense_points);
/// // Every sampled point is byte-identical to the dense run's.
/// let curve = outcome.results.curve("DVA", Benchmark::Trfd, dva_sim_api::MemoryModelKind::Flat);
/// assert!(curve.len() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveSweep {
    template: Sweep,
    axis: Vec<u64>,
    seeds: usize,
    tolerance: f64,
    baseline: Option<String>,
    prune: Vec<String>,
    margin: f64,
}

impl AdaptiveSweep {
    /// An adaptive session over `template`'s machines, programs and
    /// memory models, refining the given latency axis. The axis is
    /// sorted and deduplicated; any latencies on the template itself are
    /// ignored — the axis *is* the latency grid of the equivalent
    /// [`dense`](AdaptiveSweep::dense) sweep.
    pub fn over(template: Sweep, axis: impl IntoIterator<Item = u64>) -> AdaptiveSweep {
        let mut axis: Vec<u64> = axis.into_iter().collect();
        axis.sort_unstable();
        axis.dedup();
        AdaptiveSweep {
            template,
            axis,
            seeds: DEFAULT_SEEDS,
            tolerance: DEFAULT_TOLERANCE,
            baseline: None,
            prune: Vec::new(),
            margin: 0.0,
        }
    }

    /// Sets the number of evenly spaced seed samples per curve (at least
    /// 2; clamped to the axis size when the session runs).
    #[must_use]
    pub fn seeds(mut self, seeds: usize) -> AdaptiveSweep {
        self.seeds = seeds.max(2);
        self
    }

    /// Sets the refinement tolerance (relative chord deviation above
    /// which an interval pair is bisected).
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> AdaptiveSweep {
        self.tolerance = tolerance.max(0.0);
        self
    }

    /// Enables dominance pruning: curves of the `prune` machine labels
    /// stop being refined once every sampled latency is at least as slow
    /// as the same curve of the `baseline` label (same program and
    /// memory model). The baseline itself, and labels not listed, are
    /// always refined to completion.
    #[must_use]
    pub fn prune_against(
        mut self,
        baseline: impl Into<String>,
        prune: impl IntoIterator<Item = impl Into<String>>,
    ) -> AdaptiveSweep {
        self.baseline = Some(baseline.into());
        self.prune = prune.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the pruning margin: with margin `m`, a candidate sample only
    /// counts as dominated when it is at least `m` (fractionally) slower
    /// than the baseline — `0.0` (the default) lets ties count.
    #[must_use]
    pub fn margin(mut self, margin: f64) -> AdaptiveSweep {
        self.margin = margin.max(0.0);
        self
    }

    /// Attaches a cooperative cancellation token to the session by
    /// stamping the underlying template sweep (see
    /// [`Sweep::cancel_token`]): every round submitted through the
    /// template's streaming runs observes it, so cancelling the token —
    /// or its deadline passing — stops an adaptive job between (and
    /// inside) refinement rounds.
    #[must_use]
    pub fn cancel_token(mut self, cancel: crate::CancelToken) -> AdaptiveSweep {
        self.template = self.template.cancel_token(cancel);
        self
    }

    /// A handle on the template's cancellation token (clones share
    /// state).
    pub fn cancel_handle(&self) -> crate::CancelToken {
        self.template.cancel_handle()
    }

    /// The dense latency axis this session refines over.
    pub fn axis(&self) -> &[u64] {
        &self.axis
    }

    /// The equivalent dense sweep: the template with the full axis as
    /// its latency grid. An adaptive run measures a subset of exactly
    /// this sweep's [`grid`](Sweep::grid) — same specs, same bytes, same
    /// cache keys.
    pub fn dense(&self) -> Sweep {
        let mut sweep = self.template.clone();
        sweep.latencies = self.axis.clone();
        sweep
    }

    /// Points the dense sweep would measure.
    pub fn dense_len(&self) -> usize {
        self.dense().len()
    }

    /// Starts a planner for this session: the round-based state machine
    /// external executors (the `dva-serve` cache) drive. Most callers
    /// want [`run`](AdaptiveSweep::run).
    pub fn planner(&self) -> AdaptivePlanner {
        AdaptivePlanner::new(self)
    }

    /// Runs the session locally: each round's requests go through
    /// [`Sweep::run_subset_streaming`] (work stealing and translate-once
    /// programs come for free), and the measured points feed the next
    /// round, until every curve has converged or been pruned.
    ///
    /// # Panics
    ///
    /// Like [`Sweep::run`], a failed point (an isolated panic or
    /// deadlock) re-raises here as a panic carrying its [`PointError`]
    /// message.
    ///
    /// [`PointError`]: crate::PointError
    pub fn run(&self) -> AdaptiveOutcome {
        let sweep = self.dense();
        let mut planner = self.planner();
        loop {
            let specs = planner.next_round();
            if specs.is_empty() {
                break;
            }
            let mut stream = sweep.run_subset_streaming(specs);
            while let Some((index, outcome)) = stream.next_outcome() {
                planner.record(index, outcome.unwrap_or_else(|e| panic!("{e}")));
            }
        }
        planner.finish()
    }

    /// Writes the stable JSON form of this session's specification —
    /// the template sweep plus the axis and refinement knobs. The wire
    /// form of a `dva-serve` adaptive job.
    ///
    /// # Errors
    ///
    /// Fails exactly when the template fails [`Sweep::write_json`]
    /// (custom machines or custom programs).
    pub fn write_json(&self, w: &mut Writer<'_>) -> Result<(), JsonError> {
        w.object(|w| {
            w.key("sweep");
            self.template.write_json(w)?;
            w.field("axis", &self.axis);
            w.field("seeds", &self.seeds);
            w.field("tolerance", &self.tolerance);
            w.field("baseline", &self.baseline);
            w.field("prune", &self.prune);
            w.field("margin", &self.margin);
            Ok(())
        })
    }

    /// The [`write_json`](AdaptiveSweep::write_json) form as a [`Json`]
    /// tree.
    ///
    /// # Errors
    ///
    /// As [`write_json`](AdaptiveSweep::write_json).
    pub fn to_json(&self) -> Result<Json, JsonError> {
        crate::wire::tree(|w| self.write_json(w))
    }
}

impl FromJson for AdaptiveSweep {
    /// Reads a session specification, looking fields up in the order
    /// earlier decoders used. `prune` is read only with a baseline.
    fn read_json(r: &mut Reader<'_>) -> Result<AdaptiveSweep, JsonError> {
        r.object(|o| {
            let template = o.field("sweep")?;
            let axis: Vec<u64> = o.field("axis")?;
            let mut adaptive = AdaptiveSweep::over(template, axis)
                .seeds(o.field("seeds")?)
                .tolerance(o.field("tolerance")?)
                .margin(o.field("margin")?);
            if let Some(baseline) = o.field::<Option<String>>("baseline")? {
                adaptive = adaptive.prune_against(baseline, o.field::<Vec<String>>("prune")?);
            }
            Ok(adaptive)
        })
    }
}

/// What an [`AdaptiveSweep`] run produced: the sampled points (a strict
/// subset of the dense grid, in dense grid order) and the sampling
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Every sampled point, byte-identical to the dense run's, in dense
    /// grid order. Use [`SweepResults::curve`] /
    /// [`SweepResults::interpolated_cycles`] — the latency axis is
    /// sparse and non-uniform.
    pub results: SweepResults,
    /// What was sampled, skipped and pruned.
    pub report: AdaptiveReport,
}

/// The sampling accounting of one adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Points the equivalent dense sweep would have measured.
    pub dense_points: usize,
    /// Points actually sampled (simulated or served from a cache).
    pub sampled_points: usize,
    /// Dense points skipped because their curve converged — they are
    /// recoverable by linear interpolation within tolerance.
    pub skipped_interpolated: usize,
    /// Dense points skipped because their curve was dominance-pruned.
    pub skipped_dominated: usize,
    /// Refinement rounds executed (the seed round included).
    pub rounds: usize,
    /// The dense axis length (every curve spans this many latencies).
    pub axis_len: usize,
    /// Per-curve accounting, in dense grid order of the curves.
    pub curves: Vec<CurveReport>,
}

impl AdaptiveReport {
    /// The curves that were dominance-pruned, in dense grid order.
    pub fn pruned(&self) -> impl Iterator<Item = &CurveReport> {
        self.curves.iter().filter(|c| c.pruned_round.is_some())
    }

    /// Fraction of the dense grid that was sampled.
    pub fn sampled_fraction(&self) -> f64 {
        self.sampled_points as f64 / self.dense_points.max(1) as f64
    }
}

/// One curve's sampling outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveReport {
    /// The machine label of the curve.
    pub label: String,
    /// The program name of the curve.
    pub program: String,
    /// The memory-model coordinate of the curve.
    pub memory: MemoryModelKind,
    /// Latencies sampled on this curve.
    pub sampled: usize,
    /// The round (0-based) after which the curve was dominance-pruned,
    /// or `None` if it was refined to convergence.
    pub pruned_round: Option<usize>,
}

/// The round-based planner behind [`AdaptiveSweep`]: request a round
/// with [`next_round`](AdaptivePlanner::next_round), measure the specs
/// however you like (locally, through a cache, on another machine),
/// [`record`](AdaptivePlanner::record) every result, repeat until the
/// round comes back empty, then [`finish`](AdaptivePlanner::finish).
///
/// The planner is deterministic: the requests of round *n+1* are a pure
/// function of the results of rounds *0..=n*, and both requests and
/// final results are ordered by dense grid index.
pub struct AdaptivePlanner {
    specs: Vec<PointSpec>,
    axis: Vec<u64>,
    tolerance: f64,
    margin: f64,
    /// Curves in dense grid order of (program, model, machine); the
    /// curve of grid index `i` is `curve_of(i)`.
    curves: Vec<Curve>,
    machines: usize,
    models: usize,
    /// Seed axis indices (evenly spaced, endpoints included).
    seed_indices: Vec<usize>,
    /// Index of each curve's baseline curve, when pruning is on.
    baselines: Vec<Option<usize>>,
    points: BTreeMap<usize, SweepPoint>,
    outstanding: usize,
    rounds: usize,
    started: bool,
}

struct Curve {
    label: String,
    program: String,
    memory: MemoryModelKind,
    /// axis index → measured cycles.
    samples: BTreeMap<usize, u64>,
    prunable: bool,
    pruned_round: Option<usize>,
}

impl AdaptivePlanner {
    fn new(adaptive: &AdaptiveSweep) -> AdaptivePlanner {
        let dense = adaptive.dense();
        let specs = dense.grid();
        let machines = dense.machines.len();
        let models = dense.memory_models.len().max(1);
        let axis = adaptive.axis.clone();

        // One curve per (program, model, machine): grid order within one
        // latency step. Curve metadata comes from the specs of the first
        // axis position.
        let curves_per_program = models * machines;
        let programs = if curves_per_program == 0 || axis.is_empty() {
            0
        } else {
            specs.len() / (axis.len() * curves_per_program)
        };
        let mut curves = Vec::with_capacity(programs * curves_per_program);
        for p in 0..programs {
            for mk in 0..curves_per_program {
                let spec = &specs[(p * axis.len()) * curves_per_program + mk];
                let label = spec.machine.label();
                curves.push(Curve {
                    prunable: adaptive.prune.contains(&label),
                    label,
                    program: spec.program.name().to_string(),
                    memory: spec.memory,
                    samples: BTreeMap::new(),
                    pruned_round: None,
                });
            }
        }
        // Resolve each prunable curve's baseline: the first curve with
        // the baseline label, same program and memory model.
        let baselines = curves
            .iter()
            .map(|curve| {
                let baseline = adaptive.baseline.as_deref()?;
                if !curve.prunable || curve.label == baseline {
                    return None;
                }
                curves.iter().position(|b| {
                    b.label == baseline && b.program == curve.program && b.memory == curve.memory
                })
            })
            .collect();

        let seeds = adaptive.seeds.clamp(2, axis.len().max(1));
        let seed_indices: Vec<usize> = if axis.len() <= seeds {
            (0..axis.len()).collect()
        } else {
            let mut indices: Vec<usize> = (0..seeds)
                .map(|i| i * (axis.len() - 1) / (seeds - 1))
                .collect();
            indices.dedup();
            indices
        };

        AdaptivePlanner {
            specs,
            axis,
            tolerance: adaptive.tolerance,
            margin: adaptive.margin,
            curves,
            machines,
            models,
            seed_indices,
            baselines,
            points: BTreeMap::new(),
            outstanding: 0,
            rounds: 0,
            started: false,
        }
    }

    /// Dense grid index of (curve, axis position).
    fn index_of(&self, curve: usize, axis_idx: usize) -> usize {
        let per_program = self.models * self.machines;
        let (program, mk) = (curve / per_program, curve % per_program);
        (program * self.axis.len() + axis_idx) * per_program + mk
    }

    /// The next round of specs to measure, ordered by dense grid index —
    /// seeds first, then one bisection round per call. Empty when every
    /// curve has converged or been pruned (the session is done).
    ///
    /// # Panics
    ///
    /// Panics if the previous round has unrecorded points: rounds are
    /// barriers, which is what makes refinement deterministic.
    pub fn next_round(&mut self) -> Vec<PointSpec> {
        assert_eq!(
            self.outstanding, 0,
            "record every point of the previous round before requesting the next"
        );
        let requests = if !self.started {
            self.started = true;
            let mut requests = Vec::new();
            for curve in 0..self.curves.len() {
                for &axis_idx in &self.seed_indices {
                    requests.push(self.index_of(curve, axis_idx));
                }
            }
            requests
        } else if self.rounds >= MAX_ROUNDS {
            Vec::new()
        } else {
            self.prune_dominated();
            self.refinement_requests()
        };
        if requests.is_empty() {
            return Vec::new();
        }
        self.rounds += 1;
        self.outstanding = requests.len();
        let mut requests = requests;
        requests.sort_unstable();
        requests
            .into_iter()
            .map(|index| self.specs[index].clone())
            .collect()
    }

    /// Records one measured point of the current round by its dense grid
    /// index. Order does not matter; refinement state only advances at
    /// the round barrier.
    pub fn record(&mut self, index: usize, point: SweepPoint) {
        let per_program = self.models * self.machines;
        let curve = (index / (self.axis.len() * per_program)) * per_program + index % per_program;
        let axis_idx = (index / per_program) % self.axis.len();
        self.curves[curve]
            .samples
            .insert(axis_idx, point.result.cycles);
        if self.points.insert(index, point).is_none() {
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// Marks prunable curves dominated by their baseline across every
    /// commonly sampled latency. Runs at the round barrier, so the
    /// decision is deterministic.
    fn prune_dominated(&mut self) {
        let margin = self.margin;
        let round = self.rounds;
        for i in 0..self.curves.len() {
            let Some(baseline) = self.baselines[i] else {
                continue;
            };
            if self.curves[i].pruned_round.is_some() {
                continue;
            }
            let candidate = &self.curves[i].samples;
            let base = &self.curves[baseline].samples;
            let mut compared = 0usize;
            let dominated = candidate.iter().all(|(axis_idx, &cycles)| {
                let Some(&base_cycles) = base.get(axis_idx) else {
                    return true; // no baseline sample here: not evidence either way
                };
                compared += 1;
                cycles as f64 >= base_cycles as f64 * (1.0 + margin)
            });
            if dominated && compared >= 2 {
                self.curves[i].pruned_round = Some(round - 1);
            }
        }
    }

    /// One bisection round: for every active curve, test each interior
    /// sampled point against the chord of its neighbours; where the
    /// deviation exceeds the tolerance, request the (index) midpoints of
    /// both flanking intervals.
    fn refinement_requests(&self) -> Vec<usize> {
        let mut requests = Vec::new();
        for (c, curve) in self.curves.iter().enumerate() {
            if curve.pruned_round.is_some() {
                continue;
            }
            let sampled: Vec<(usize, u64)> = curve.samples.iter().map(|(&i, &c)| (i, c)).collect();
            let mut wanted: Vec<usize> = Vec::new();
            for w in sampled.windows(3) {
                let [(i0, c0), (i1, c1), (i2, c2)] = [w[0], w[1], w[2]];
                let (l0, l1, l2) = (
                    self.axis[i0] as f64,
                    self.axis[i1] as f64,
                    self.axis[i2] as f64,
                );
                let chord = c0 as f64 + (c2 as f64 - c0 as f64) * (l1 - l0) / (l2 - l0);
                let deviation = (c1 as f64 - chord).abs() / (c1 as f64).max(1.0);
                if deviation > self.tolerance {
                    for (lo, hi) in [(i0, i1), (i1, i2)] {
                        let mid = lo + (hi - lo) / 2;
                        if mid != lo && !curve.samples.contains_key(&mid) && !wanted.contains(&mid)
                        {
                            wanted.push(mid);
                        }
                    }
                }
            }
            requests.extend(
                wanted
                    .into_iter()
                    .map(|axis_idx| self.index_of(c, axis_idx)),
            );
        }
        requests
    }

    /// Finishes the session: the sampled points in dense grid order plus
    /// the sampling report.
    ///
    /// # Panics
    ///
    /// Panics if the current round has unrecorded points.
    pub fn finish(self) -> AdaptiveOutcome {
        assert_eq!(self.outstanding, 0, "finish() with unrecorded points");
        let axis_len = self.axis.len();
        let mut skipped_interpolated = 0;
        let mut skipped_dominated = 0;
        let curves: Vec<CurveReport> = self
            .curves
            .iter()
            .map(|curve| {
                let unsampled = axis_len - curve.samples.len();
                match curve.pruned_round {
                    Some(_) => skipped_dominated += unsampled,
                    None => skipped_interpolated += unsampled,
                }
                CurveReport {
                    label: curve.label.clone(),
                    program: curve.program.clone(),
                    memory: curve.memory,
                    sampled: curve.samples.len(),
                    pruned_round: curve.pruned_round,
                }
            })
            .collect();
        let sampled_points = self.points.len();
        AdaptiveOutcome {
            results: SweepResults {
                points: self.points.into_values().collect(),
            },
            report: AdaptiveReport {
                dense_points: self.specs.len(),
                sampled_points,
                skipped_interpolated,
                skipped_dominated,
                rounds: self.rounds,
                axis_len,
                curves,
            },
        }
    }
}

/// The knee of a sampled `(latency, cycles)` curve: the sampled latency
/// where the slope changes the most between the flanking intervals
/// (ties resolve to the lowest latency). `None` for curves with fewer
/// than three points — a segment has no interior.
///
/// This is the figure-of-merit adaptive refinement localizes: on a
/// sparse adaptive curve the knee matches the dense curve's within the
/// local sample spacing.
pub fn knee_latency(curve: &[(u64, u64)]) -> Option<u64> {
    let mut best: Option<(f64, u64)> = None;
    for w in curve.windows(3) {
        let [(l0, c0), (l1, c1), (l2, c2)] = [w[0], w[1], w[2]];
        if l1 == l0 || l2 == l1 {
            continue;
        }
        let left = (c1 as f64 - c0 as f64) / (l1 - l0) as f64;
        let right = (c2 as f64 - c1 as f64) / (l2 - l1) as f64;
        let change = (right - left).abs();
        if best.is_none_or(|(b, _)| change > b) {
            best = Some((change, l1));
        }
    }
    best.map(|(_, latency)| latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use dva_workloads::{Benchmark, Scale};

    fn template() -> Sweep {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
            .scale(Scale::Quick)
            .threads(1)
    }

    #[test]
    fn seeds_are_evenly_spaced_with_endpoints() {
        let adaptive = AdaptiveSweep::over(template(), 1..=100).seeds(7);
        let planner = adaptive.planner();
        assert_eq!(planner.seed_indices, vec![0, 16, 33, 49, 66, 82, 99]);
        // A tiny axis samples everything.
        let all = AdaptiveSweep::over(template(), [1, 30, 100]).seeds(7);
        assert_eq!(all.planner().seed_indices, vec![0, 1, 2]);
    }

    #[test]
    fn axis_is_sorted_and_deduplicated() {
        let adaptive = AdaptiveSweep::over(template(), [50, 1, 50, 30]);
        assert_eq!(adaptive.axis(), &[1, 30, 50]);
        assert_eq!(adaptive.dense().latencies, vec![1, 30, 50]);
        assert_eq!(adaptive.dense_len(), 3 * 2 * 3);
    }

    #[test]
    fn sampled_points_are_a_subset_of_the_dense_grid() {
        let adaptive = AdaptiveSweep::over(template(), 1..=33).seeds(5);
        let dense = adaptive.dense().run();
        let sweep = adaptive.dense();
        let mut planner = adaptive.planner();
        let mut sampled = 0;
        loop {
            let specs = planner.next_round();
            if specs.is_empty() {
                break;
            }
            let mut stream = sweep.run_subset_streaming(specs);
            while let Some((index, outcome)) = stream.next_outcome() {
                let point = outcome.unwrap();
                assert_eq!(
                    point, dense.points[index],
                    "adaptive point differs at {index}"
                );
                planner.record(index, point);
                sampled += 1;
            }
        }
        let outcome = planner.finish();
        assert_eq!(outcome.report.sampled_points, sampled);
        assert!(sampled < dense.points.len(), "refinement must skip points");
        assert_eq!(
            outcome.report.dense_points,
            outcome.report.sampled_points
                + outcome.report.skipped_interpolated
                + outcome.report.skipped_dominated
        );
    }

    #[test]
    fn ideal_curves_never_refine_past_the_seeds() {
        let adaptive = AdaptiveSweep::over(template(), 1..=100).seeds(5);
        let outcome = adaptive.run();
        for curve in &outcome.report.curves {
            if curve.label == "IDEAL" {
                assert_eq!(curve.sampled, 5, "IDEAL is flat; seeds suffice");
            }
        }
    }

    #[test]
    fn pruning_stops_refinement_and_is_reported() {
        // REF is slower than DVA at every latency on TRFD, so with REF
        // declared prunable it must be pruned after the seed round.
        let adaptive = AdaptiveSweep::over(
            Sweep::new()
                .machines([Machine::reference(1), Machine::dva(1)])
                .benchmark(Benchmark::Trfd)
                .scale(Scale::Quick)
                .threads(1),
            1..=64,
        )
        .seeds(5)
        .prune_against("DVA", ["REF"]);
        let outcome = adaptive.run();
        let pruned: Vec<&CurveReport> = outcome.report.pruned().collect();
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].label, "REF");
        assert_eq!(pruned[0].sampled, 5, "pruned after the seed round");
        assert_eq!(pruned[0].pruned_round, Some(0));
        assert!(outcome.report.skipped_dominated >= 64 - 5);
        // The DVA (baseline) curve still refined to convergence.
        let dva = outcome
            .report
            .curves
            .iter()
            .find(|c| c.label == "DVA")
            .unwrap();
        assert!(dva.pruned_round.is_none());
    }

    #[test]
    fn margin_makes_pruning_more_conservative() {
        let build = |margin: f64| {
            AdaptiveSweep::over(
                Sweep::new()
                    .machines([Machine::reference(1), Machine::dva(1)])
                    .benchmark(Benchmark::Trfd)
                    .scale(Scale::Quick)
                    .threads(1),
                1..=64,
            )
            .seeds(5)
            .prune_against("DVA", ["REF"])
            .margin(margin)
        };
        assert_eq!(build(0.0).run().report.pruned().count(), 1);
        // An absurd margin (REF would have to be 100x slower) disables it.
        assert_eq!(build(99.0).run().report.pruned().count(), 0);
    }

    #[test]
    fn rounds_are_barriers() {
        let adaptive = AdaptiveSweep::over(template(), 1..=16).seeds(3);
        let mut planner = adaptive.planner();
        let first = planner.next_round();
        assert!(!first.is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            planner.next_round();
        }));
        assert!(result.is_err(), "requesting a round mid-round must panic");
    }

    #[test]
    fn wire_form_round_trips() {
        let adaptive = AdaptiveSweep::over(template(), 1..=50)
            .seeds(9)
            .tolerance(0.05)
            .prune_against("DVA", ["REF", "BYP 4/8"])
            .margin(0.01);
        let json = adaptive.to_json().unwrap();
        let back = AdaptiveSweep::from_json(&json).unwrap();
        assert_eq!(back.to_json().unwrap().render(), json.render());
        assert_eq!(back.axis(), adaptive.axis());
        // And the baseline-free form too.
        let plain = AdaptiveSweep::over(template(), [1, 30]);
        let json = plain.to_json().unwrap();
        assert_eq!(
            AdaptiveSweep::from_json(&json)
                .unwrap()
                .to_json()
                .unwrap()
                .render(),
            json.render()
        );
    }

    #[test]
    fn knee_latency_finds_a_synthetic_knee() {
        // Flat to 30, then rising: the knee is at 30.
        let curve: Vec<(u64, u64)> = (1u64..=60)
            .map(|l| (l, 1000 + l.saturating_sub(30) * 50))
            .collect();
        assert_eq!(knee_latency(&curve), Some(30));
        assert_eq!(knee_latency(&curve[..2]), None);
        // A straight line has no slope change; ties resolve low.
        let line: Vec<(u64, u64)> = (1..=10).map(|l| (l, l * 7)).collect();
        assert_eq!(knee_latency(&line), Some(2));
    }
}
