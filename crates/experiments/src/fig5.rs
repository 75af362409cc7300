//! Figure 5: speedup of the decoupled architecture over the reference
//! architecture, per memory latency.

use crate::{ExperimentSpec, Invariant, RunOpts, Section, Table};
use dva_sim_api::SweepResults;
use dva_workloads::Benchmark;

/// The heading the standalone binary prints (two lines).
pub const HEADING: &str = "Figure 5: speedup of the DVA over the reference architecture\n\
                           (paper at L=100: 1.35 ARC2D .. 2.05 SPEC77, DYFESM ~1.0)";

/// Figure 5 as a declarative spec (same sweep as Figures 3 and 4).
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig5",
    all_header: Some("== Figure 5: DVA speedup over REF =="),
    sweeps: crate::fig3::spec_sweeps,
    render: spec_render,
    invariants: &Invariant::ideal_dva_ref(0.10),
};

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig5", HEADING, render(&results[0]))]
}

/// DVA-over-REF speedup at one grid point.
pub fn speedup(sweep: &SweepResults, benchmark: Benchmark, latency: u64) -> f64 {
    dva_metrics::speedup(
        sweep.cycles("REF", benchmark, latency).expect("grid point"),
        sweep.cycles("DVA", benchmark, latency).expect("grid point"),
    )
}

/// Renders the Figure 5 series from the REF/DVA/IDEAL sweep: one row per
/// latency, one column per program, exactly like the paper's plot (the
/// paper's speedups at latency 100 range from 1.35 for ARC2D to 2.05
/// for SPEC77; DYFESM stays at ~1.0).
pub fn render(sweep: &SweepResults) -> Table {
    let mut headers = vec!["L".to_string()];
    headers.extend(Benchmark::ALL.iter().map(|b| b.name().to_string()));
    let mut table = Table::new(headers);
    for latency in sweep.latencies() {
        let mut row = vec![latency.to_string()];
        for benchmark in Benchmark::ALL {
            row.push(format!("{:.2}", speedup(sweep, benchmark, latency)));
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{latencies, latency_sweep_cfg};

    #[test]
    fn speedup_ordering_matches_the_paper_at_high_latency() {
        let sweep = latency_sweep_cfg(RunOpts::quick(), &[100]).run();
        let sp = |b: Benchmark| speedup(&sweep, b, 100);
        // SPEC77 and TRFD lead; DYFESM trails near 1.0 (paper Section 5).
        assert!(sp(Benchmark::Spec77) > sp(Benchmark::Dyfesm));
        assert!(sp(Benchmark::Trfd) > sp(Benchmark::Dyfesm));
        assert!(sp(Benchmark::Dyfesm) < 1.25);
        for b in Benchmark::ALL {
            assert!(sp(b) > 0.9, "{} collapsed: {}", b.name(), sp(b));
        }
    }

    #[test]
    fn table_has_one_row_per_latency() {
        let opts = RunOpts::quick();
        let t = render(&latency_sweep_cfg(opts, &latencies(opts.full)).run());
        assert_eq!(t.len(), latencies(false).len());
    }
}
