//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is the whole of one figure or table of the
//! paper, stated as data: which sweeps to run, how to derive the
//! reported tables from the measured points, and which invariants the
//! measurements must satisfy. The [`Runner`](crate::Runner) is the only
//! execution path — every spec goes through the same cache-backed sweep
//! machinery and the same invariant checks, and produces the same
//! versioned [`Artifact`](crate::Artifact) shape.

use crate::artifact::Section;
use crate::cli::RunOpts;
use dva_sim_api::{AdaptiveSweep, Sweep, SweepResults};

/// One experiment, declaratively: its identity, grid, derived tables and
/// invariants.
///
/// Specs are plain `'static` data (function pointers, no captures) so the
/// full set forms a `const` registry.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Registry name; also the binary name and the golden-artifact stem.
    pub name: &'static str,
    /// The `== … ==` header the `all` binary prints for this experiment,
    /// or `None` to exclude it from `all` (the ablation studies).
    pub all_header: Option<&'static str>,
    /// Declares the sweep grids: every simulation the experiment needs,
    /// each either a dense [`Sweep`] or an adaptive session. Specs
    /// without a sweep (static trace statistics) return none.
    pub sweeps: fn(&RunOpts) -> Vec<SweepPlan>,
    /// Derives the reported sections from the executed sweeps. Receives
    /// one [`SweepResults`] per declared plan, in declaration order —
    /// sparse (adaptively sampled) for adaptive plans, so renderers use
    /// [`SweepResults::curve`] / [`SweepResults::interpolated_cycles`]
    /// rather than assuming a dense axis.
    pub render: fn(&RunOpts, &[SweepResults]) -> Vec<Section>,
    /// Invariants checked on every executed sweep; a violation fails the
    /// run before any artifact is produced.
    pub invariants: &'static [Invariant],
}

impl std::fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("name", &self.name)
            .field("all_header", &self.all_header)
            .field("invariants", &self.invariants)
            .finish_non_exhaustive()
    }
}

/// One grid of an experiment: measure every point, or sample the
/// latency axis adaptively.
///
/// Dense plans are what every figure used before adaptive sampling
/// existed (and `From<Sweep>` keeps their declarations unchanged);
/// adaptive plans trade unmeasured flat-region points for interpolation
/// within the session's tolerance, and report what they skipped in an
/// extra artifact section.
#[derive(Debug, Clone)]
pub enum SweepPlan {
    /// Measure every grid point of the sweep.
    Dense(Sweep),
    /// Sample the session's latency axis adaptively (seed + refine +
    /// dominance-prune).
    Adaptive(AdaptiveSweep),
}

impl From<Sweep> for SweepPlan {
    fn from(sweep: Sweep) -> SweepPlan {
        SweepPlan::Dense(sweep)
    }
}

impl From<AdaptiveSweep> for SweepPlan {
    fn from(adaptive: AdaptiveSweep) -> SweepPlan {
        SweepPlan::Adaptive(adaptive)
    }
}

/// A declared property of an experiment's measurements, checked by the
/// [`Runner`](crate::Runner) on every executed sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Invariant {
    /// At every grid coordinate (program × latency × memory model) where
    /// both labels were measured: `cycles(lower) ≤ cycles(upper) × (1 +
    /// tolerance)`. A `tolerance` of `0.0` is an exact bound — the
    /// paper's `IDEAL ≤ DVA` and `IDEAL ≤ REF` orderings hold exactly;
    /// `DVA ≤ REF` holds within a small tolerance (DYFESM at latency 1
    /// trades a few percent for decoupling overhead).
    CyclesOrdered {
        /// Label of the machine that must not be slower (modulo
        /// tolerance).
        lower: &'static str,
        /// Label of the machine it is compared against.
        upper: &'static str,
        /// Fractional slack: `0.10` allows `lower` to exceed `upper` by
        /// 10%.
        tolerance: f64,
    },
    /// Every point labeled `IDEAL` lower-bounds every other label at the
    /// same grid coordinate, exactly.
    IdealLowerBound,
}

impl Invariant {
    /// The paper's central ordering, `IDEAL ≤ DVA ≤ REF`: the bound is
    /// exact; decoupling may cost at most `tolerance` at any point.
    pub const fn ideal_dva_ref(tolerance: f64) -> [Invariant; 2] {
        [
            Invariant::IdealLowerBound,
            Invariant::CyclesOrdered {
                lower: "DVA",
                upper: "REF",
                tolerance,
            },
        ]
    }

    /// Checks this invariant against one executed sweep. Returns a
    /// human-readable violation description, or `None` if it holds.
    pub fn check(&self, results: &SweepResults) -> Option<String> {
        match *self {
            Invariant::CyclesOrdered {
                lower,
                upper,
                tolerance,
            } => check_ordered(results, lower, upper, tolerance),
            Invariant::IdealLowerBound => check_ideal_bound(results),
        }
    }
}

/// The grid coordinate of a point, ignoring the machine axis.
fn coordinate(point: &dva_sim_api::SweepPoint) -> (&str, u64, dva_sim_api::MemoryModelKind) {
    (point.program.as_str(), point.latency, point.memory)
}

fn check_ordered(
    results: &SweepResults,
    lower: &str,
    upper: &str,
    tolerance: f64,
) -> Option<String> {
    for point in results.points.iter().filter(|p| p.label == lower) {
        let coord = coordinate(point);
        let Some(other) = results
            .points
            .iter()
            .find(|p| p.label == upper && coordinate(p) == coord)
        else {
            continue;
        };
        let limit = other.result.cycles as f64 * (1.0 + tolerance);
        if point.result.cycles as f64 > limit {
            return Some(format!(
                "{lower} ≤ {upper} (+{:.0}%) violated at ({}, L={}, {:?}): \
                 {lower}={} cycles vs {upper}={}",
                100.0 * tolerance,
                point.program,
                point.latency,
                point.memory,
                point.result.cycles,
                other.result.cycles,
            ));
        }
    }
    None
}

fn check_ideal_bound(results: &SweepResults) -> Option<String> {
    for ideal in results.points.iter().filter(|p| p.label == "IDEAL") {
        // The IDEAL bound is latency independent: it bounds every
        // measured point of its program, whatever the coordinate.
        for point in results
            .points
            .iter()
            .filter(|p| p.label != "IDEAL" && p.program == ideal.program)
        {
            if ideal.result.cycles > point.result.cycles {
                return Some(format!(
                    "IDEAL bound violated on {}: IDEAL={} cycles above {}={} (L={}, {:?})",
                    point.program,
                    ideal.result.cycles,
                    point.label,
                    point.result.cycles,
                    point.latency,
                    point.memory,
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_sim_api::Machine;
    use dva_workloads::{Benchmark, Scale};

    fn small_results() -> SweepResults {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .scale(Scale::Quick)
            .threads(1)
            .run()
    }

    #[test]
    fn true_invariants_hold_on_a_real_sweep() {
        let results = small_results();
        for invariant in Invariant::ideal_dva_ref(0.10) {
            assert_eq!(invariant.check(&results), None, "{invariant:?}");
        }
    }

    #[test]
    fn violated_ordering_is_reported_with_the_coordinate() {
        let results = small_results();
        // REF ≤ IDEAL is false by construction.
        let violation = Invariant::CyclesOrdered {
            lower: "REF",
            upper: "IDEAL",
            tolerance: 0.0,
        }
        .check(&results)
        .expect("REF is never at the IDEAL bound");
        assert!(violation.contains("TRFD"), "{violation}");
        assert!(violation.contains("REF"), "{violation}");
    }

    #[test]
    fn ideal_bound_check_catches_a_doctored_result() {
        let mut results = small_results();
        // Inflate the IDEAL point above everything else.
        let ideal = results
            .points
            .iter_mut()
            .find(|p| p.label == "IDEAL")
            .unwrap();
        ideal.result.core.cycles = u64::MAX / 2;
        let violation = Invariant::IdealLowerBound.check(&results).unwrap();
        assert!(violation.contains("IDEAL bound violated"), "{violation}");
    }

    #[test]
    fn tolerance_gives_slack_exactly() {
        let results = small_results();
        let dva = results.cycles("DVA", Benchmark::Trfd, 30).unwrap();
        let refc = results.cycles("REF", Benchmark::Trfd, 30).unwrap();
        assert!(refc > dva, "premise: REF slower at L=30");
        // REF ≤ DVA fails with no slack but passes with enough.
        let strict = Invariant::CyclesOrdered {
            lower: "REF",
            upper: "DVA",
            tolerance: 0.0,
        };
        assert!(strict.check(&results).is_some());
        let slack = Invariant::CyclesOrdered {
            lower: "REF",
            upper: "DVA",
            tolerance: refc as f64 / dva as f64,
        };
        assert_eq!(slack.check(&results), None);
    }
}
