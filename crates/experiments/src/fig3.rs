//! Figure 3: execution time versus memory latency for the IDEAL bound,
//! the reference architecture and the decoupled architecture.

use crate::common::{ideal_of, kcycles, latencies, latency_sweep_cfg};
use crate::{ExperimentSpec, Invariant, RunOpts, Section, SweepPlan, Table};
use dva_sim_api::SweepResults;
use dva_workloads::Benchmark;

/// The heading the standalone binary prints.
pub const HEADING: &str = "Figure 3: execution time vs memory latency (kcycles)";

/// Figure 3 as a declarative spec. Figures 3, 4 and 5 declare the same
/// REF/DVA/IDEAL sweep, so under one runner the grid simulates once.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig3",
    all_header: Some("== Figure 3: execution time vs latency (kcycles) =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &Invariant::ideal_dva_ref(0.10),
};

pub(crate) fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![latency_sweep_cfg(*opts, &latencies(opts.full)).into()]
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig3", HEADING, render(&results[0]))]
}

/// Renders the Figure 3 series from the REF/DVA/IDEAL sweep: per
/// program, one row per latency with IDEAL/REF/DVA cycle counts (in
/// thousands).
pub fn render(sweep: &SweepResults) -> Table {
    let mut table = Table::new(["Program", "L", "IDEAL (kcyc)", "REF (kcyc)", "DVA (kcyc)"]);
    for benchmark in Benchmark::ALL {
        let ideal = ideal_of(sweep, benchmark);
        for latency in sweep.latencies() {
            table.row([
                benchmark.name().to_string(),
                latency.to_string(),
                kcycles(ideal),
                kcycles(sweep.cycles("REF", benchmark, latency).expect("grid point")),
                kcycles(sweep.cycles("DVA", benchmark, latency).expect("grid point")),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dva_curves_are_flatter_than_ref() {
        // The paper's second headline: the slopes differ substantially.
        let sweep = latency_sweep_cfg(RunOpts::quick(), &[1, 100]).run();
        for benchmark in Benchmark::ALL {
            let growth = |label: &str| {
                sweep.cycles(label, benchmark, 100).unwrap() as f64
                    / sweep.cycles(label, benchmark, 1).unwrap() as f64
            };
            let (ref_growth, dva_growth) = (growth("REF"), growth("DVA"));
            assert!(
                dva_growth < ref_growth,
                "{}: DVA slope {dva_growth:.2} not flatter than REF {ref_growth:.2}",
                benchmark.name()
            );
        }
    }
}
