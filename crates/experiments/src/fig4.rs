//! Figure 4: ratio of cycles spent in the all-idle `( , , )` state between
//! the reference and the decoupled architecture.

use crate::{ExperimentSpec, Invariant, RunOpts, Section, Table};
use dva_sim_api::SweepResults;
use dva_workloads::Benchmark;

/// The heading the standalone binary prints.
pub const HEADING: &str = "Figure 4: ratio of cycles in state ( , , ), REF over DVA";

/// Figure 4 as a declarative spec (same sweep as Figures 3 and 5).
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig4",
    all_header: Some("== Figure 4: ( , , ) cycle ratio REF/DVA =="),
    sweeps: crate::fig3::spec_sweeps,
    render: spec_render,
    invariants: &Invariant::ideal_dva_ref(0.10),
};

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig4", HEADING, render(&results[0]))]
}

/// REF-over-DVA idle-cycle ratio at one grid point.
pub fn idle_ratio(sweep: &SweepResults, benchmark: Benchmark, latency: u64) -> f64 {
    let idle = |label: &str| {
        sweep
            .get(label, benchmark, latency)
            .expect("grid point")
            .result
            .idle_cycles()
    };
    let dva = idle("DVA");
    if dva == 0 {
        0.0
    } else {
        idle("REF") as f64 / dva as f64
    }
}

/// Renders the Figure 4 series from the REF/DVA/IDEAL sweep: per
/// program and latency, the REF/DVA ratio of all-idle cycles (the paper
/// observes up to 5:1 for ARC2D).
pub fn render(sweep: &SweepResults) -> Table {
    let mut table = Table::new(["Program", "L", "REF idle", "DVA idle", "ratio"]);
    for benchmark in Benchmark::ALL {
        for latency in sweep.latencies() {
            let idle = |label: &str| {
                sweep
                    .get(label, benchmark, latency)
                    .expect("grid point")
                    .result
                    .idle_cycles()
            };
            table.row([
                benchmark.name().to_string(),
                latency.to_string(),
                idle("REF").to_string(),
                idle("DVA").to_string(),
                format!("{:.2}", idle_ratio(sweep, benchmark, latency)),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::latency_sweep_cfg;

    #[test]
    fn decoupling_reduces_idle_cycles() {
        let sweep = latency_sweep_cfg(RunOpts::quick(), &[30]).run();
        // At moderate latency every program should stall less on the DVA;
        // require a clear reduction for most.
        let reduced = Benchmark::ALL
            .into_iter()
            .filter(|&b| idle_ratio(&sweep, b, 30) > 1.0)
            .count();
        assert!(reduced >= 4, "only {reduced} programs reduced idle cycles");
    }
}
