//! Figure 5 at high resolution: DVA-over-REF speedup on a 100-point
//! latency axis, measured adaptively.
//!
//! The dense version of this grid — five machines × six benchmarks ×
//! every integer latency from 1 to 100 — is 3000 simulations, most of
//! them spent on the flat tails of the curves. The adaptive session
//! seeds each curve with [`SEEDS`] evenly spaced latencies, bisects only
//! where the curve actually bends (within [`TOLERANCE`]), and
//! dominance-prunes bypass configurations that a partial curve already
//! shows losing to the base DVA everywhere. Skipped latencies are
//! recovered by linear interpolation, exact to within the refinement
//! tolerance by construction; every *measured* point is byte-identical
//! to the dense run's (same grid spec, same cache key).

use crate::{ExperimentSpec, Invariant, RunOpts, Section, SweepPlan, Table};
use dva_sim_api::{knee_latency, AdaptiveSweep, Machine, MemoryModelKind, SweepResults};
use dva_workloads::Benchmark;

/// The dense latency axis: every integer latency of the paper's x range.
pub const AXIS: std::ops::RangeInclusive<u64> = 1..=100;

/// Seed samples per curve before any refinement.
pub const SEEDS: usize = 7;

/// Refinement tolerance: a sampled point may deviate from its
/// neighbours' chord by 2% of its own cycle count before the flanking
/// intervals are bisected.
pub const TOLERANCE: f64 = 0.02;

/// The heading the standalone binary prints (two lines).
pub const HEADING: &str =
    "Figure 5 (adaptive): DVA speedup over REF at one-cycle latency resolution\n\
     (unsampled latencies linearly interpolated; see the sampling section)";

/// The heading of the knee table.
pub const KNEE_HEADING: &str =
    "Curve knees: the latency of the largest slope change per machine and program";

/// High-resolution Figure 5 as a declarative spec, measured adaptively.
/// IDEAL bounds the DVA but not the bypass machines (bypassing removes
/// traffic outright and can dip below the latency-idealized bound), so
/// the lineup pins `IDEAL ≤ DVA` and `BYP 256/16 ≤ DVA` instead of the
/// blanket ideal bound.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig5_adaptive",
    all_header: None,
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[
        Invariant::CyclesOrdered {
            lower: "IDEAL",
            upper: "DVA",
            tolerance: 0.0,
        },
        Invariant::CyclesOrdered {
            lower: "BYP 256/16",
            upper: "DVA",
            tolerance: 0.0,
        },
        Invariant::CyclesOrdered {
            lower: "DVA",
            upper: "REF",
            tolerance: 0.10,
        },
    ],
};

/// The adaptive session behind the spec: the Figure 5 core machines plus
/// the extreme bypass configurations, with the bypass machines (and only
/// those) eligible for dominance pruning against the base DVA.
pub fn adaptive_cfg(opts: &RunOpts) -> AdaptiveSweep {
    AdaptiveSweep::over(
        opts.sweep()
            .machines([
                Machine::reference(1),
                Machine::dva(1),
                Machine::byp(1, 4, 4),
                Machine::byp(1, 256, 16),
                Machine::ideal(),
            ])
            .benchmarks(Benchmark::ALL),
        AXIS,
    )
    .seeds(SEEDS)
    .tolerance(TOLERANCE)
    .prune_against("DVA", ["BYP 4/4", "BYP 256/16"])
}

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![adaptive_cfg(opts).into()]
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![
        Section::new("fig5_adaptive", HEADING, render(&results[0])),
        Section::new(
            "fig5_adaptive_knees",
            KNEE_HEADING,
            render_knees(&results[0]),
        ),
    ]
}

/// DVA-over-REF speedup at one latency of an adaptively sampled sweep:
/// exact where both curves were sampled, interpolated otherwise.
pub fn speedup_at(sweep: &SweepResults, benchmark: Benchmark, latency: u64) -> f64 {
    let cycles = |label: &str| {
        sweep
            .interpolated_cycles(label, benchmark.name(), MemoryModelKind::Flat, latency)
            .expect("latency inside the sampled axis")
    };
    cycles("REF") / cycles("DVA")
}

/// Renders the speedup table: one row per latency of the full dense
/// axis, one column per program — the paper's plot at one-cycle
/// resolution, from a fraction of the simulations.
pub fn render(sweep: &SweepResults) -> Table {
    let mut headers = vec!["L".to_string()];
    headers.extend(Benchmark::ALL.iter().map(|b| b.name().to_string()));
    let mut table = Table::new(headers);
    for latency in AXIS {
        let mut row = vec![latency.to_string()];
        for benchmark in Benchmark::ALL {
            row.push(format!("{:.2}", speedup_at(sweep, benchmark, latency)));
        }
        table.row(row);
    }
    table
}

/// The cycles-vs-latency curve of one label as `(latency, cycles)`
/// pairs, ready for [`knee_latency`].
fn cycle_curve(sweep: &SweepResults, label: &str, benchmark: Benchmark) -> Vec<(u64, u64)> {
    sweep
        .curve(label, benchmark, MemoryModelKind::Flat)
        .into_iter()
        .map(|(latency, point)| (latency, point.result.cycles))
        .collect()
}

/// Renders the knee table: per program, where each machine's curve bends
/// hardest ("-" for curves with fewer than three samples — IDEAL is flat
/// and never refines past its seeds, but a seed grid still has knees in
/// the numerical-noise sense, so only genuinely degenerate curves miss).
pub fn render_knees(sweep: &SweepResults) -> Table {
    let labels = ["REF", "DVA", "BYP 4/4", "BYP 256/16"];
    let mut headers = vec!["Program".to_string()];
    headers.extend(labels.iter().map(|l| format!("{l} knee")));
    let mut table = Table::new(headers);
    for benchmark in Benchmark::ALL {
        let mut row = vec![benchmark.name().to_string()];
        for label in labels {
            row.push(
                knee_latency(&cycle_curve(sweep, label, benchmark))
                    .map_or_else(|| "-".to_string(), |l| l.to_string()),
            );
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance criterion, end to end on the quick grid: the
    /// adaptive session simulates at most 40% of the 3000-point dense
    /// grid, every emitted point is byte-identical to the dense run's,
    /// and every knee lands within one local sample gap of the dense
    /// curve's knee.
    #[test]
    fn adaptive_figure_meets_the_acceptance_criteria() {
        let opts = RunOpts {
            threads: 0,
            ..RunOpts::quick()
        };
        let adaptive = adaptive_cfg(&opts);
        let outcome = adaptive.run();
        let report = &outcome.report;
        assert_eq!(
            report.dense_points, 3000,
            "5 machines × 6 programs × 100 latencies"
        );
        assert!(
            report.sampled_fraction() <= 0.40,
            "adaptive run must simulate ≤ 40% of the dense grid, got {:.1}% ({} of {})",
            100.0 * report.sampled_fraction(),
            report.sampled_points,
            report.dense_points
        );

        let dense = adaptive.dense().run();
        // Byte identity: every sampled point equals the dense point with
        // the same (label, program, latency) coordinate.
        for point in &outcome.results.points {
            let reference = dense
                .named(&point.label, &point.program, point.latency)
                .expect("dense grid covers every sampled coordinate");
            assert_eq!(point, reference);
            assert_eq!(format!("{point:?}"), format!("{reference:?}"));
        }

        // Knee fidelity: for every curve the session actually refined,
        // the adaptive knee is within one local sample gap of the dense
        // knee. Curves that converged on their seeds alone are linear
        // within tolerance — their dense "knee" is integer-rounding
        // noise and carries no information at this tolerance.
        for curve in report
            .curves
            .iter()
            .filter(|c| c.pruned_round.is_none() && c.sampled > SEEDS)
        {
            let benchmark = Benchmark::ALL
                .into_iter()
                .find(|b| b.name() == curve.program)
                .expect("benchmark program");
            let sparse = cycle_curve(&outcome.results, &curve.label, benchmark);
            let full = cycle_curve(&dense, &curve.label, benchmark);
            let (Some(adaptive_knee), Some(dense_knee)) =
                (knee_latency(&sparse), knee_latency(&full))
            else {
                continue;
            };
            let gap = sparse
                .windows(2)
                .filter(|w| w[0].0 <= adaptive_knee && adaptive_knee <= w[1].0)
                .map(|w| w[1].0 - w[0].0)
                .max()
                .unwrap_or(1);
            assert!(
                adaptive_knee.abs_diff(dense_knee) <= gap,
                "{} {}: adaptive knee {} vs dense knee {} (local gap {})",
                curve.label,
                curve.program,
                adaptive_knee,
                dense_knee,
                gap
            );
        }

        // Pruning only ever fires on the declared bypass candidates.
        for curve in report.pruned() {
            assert!(
                curve.label.starts_with("BYP"),
                "only bypass machines are prunable, pruned {}",
                curve.label
            );
        }
    }

    #[test]
    fn interpolated_speedups_cover_the_whole_axis() {
        let outcome = adaptive_cfg(&RunOpts::quick()).run();
        for latency in AXIS {
            for benchmark in Benchmark::ALL {
                let s = speedup_at(&outcome.results, benchmark, latency);
                assert!(s.is_finite() && s > 0.5, "{benchmark:?} L={latency}: {s}");
            }
        }
        // The rendered table has one row per dense latency even though
        // only a fraction were measured.
        assert_eq!(render(&outcome.results).len(), 100);
    }
}
