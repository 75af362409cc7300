//! Figure 6: busy-slot distribution of the vector load data queue (AVDQ)
//! at three memory latencies.

use crate::common::FIG6_LATENCIES;
use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::Benchmark;

/// How many occupancy buckets the table reports (the paper plots 0..=9;
/// occupancy never exceeds 9 because the 16-entry VPIQ back-pressures the
/// fetch processor — Section 6).
pub const BUCKETS: usize = 10;

/// The heading the standalone binary prints.
pub const HEADING: &str = "Figure 6: AVDQ busy slots (kcycles at each occupancy)";

/// Figure 6 as a declarative spec: one DVA sweep over the histogram
/// latencies.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig6",
    all_header: Some("== Figure 6: AVDQ busy-slot distribution (kcycles) =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![sweep_cfg(opts).into()]
}

fn sweep_cfg(opts: &RunOpts) -> Sweep {
    opts.sweep()
        .machine(Machine::dva(1))
        .benchmarks(Benchmark::ALL)
        .latencies(FIG6_LATENCIES)
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig6", HEADING, render(&results[0]))]
}

/// Renders a DVA sweep into the Figure 6 histograms: cycles (in
/// thousands) spent at each AVDQ occupancy, per program and latency,
/// plus the maximum occupancy ever observed.
pub fn render(sweep: &SweepResults) -> Table {
    let mut headers = vec!["Program".to_string(), "L".to_string()];
    headers.extend((0..BUCKETS).map(|v| format!("{v}")));
    headers.push("max".to_string());
    let mut table = Table::new(headers);
    for point in &sweep.points {
        let mut row = vec![point.program.clone(), point.latency.to_string()];
        let detail = point.result.decoupled().expect("DVA measures AVDQ");
        for v in 0..BUCKETS {
            let cycles = detail.avdq_occupancy.count(v);
            row.push(format!("{:.1}", cycles as f64 / 1000.0));
        }
        row.push(detail.max_avdq.to_string());
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn occupancy_grows_with_latency() {
        // Longer latency → more outstanding requests → higher occupancy
        // (the paper's reading of Figure 6).
        let program = Benchmark::Arc2d.program(Scale::Quick);
        let mean_at = |l: u64| {
            Machine::dva(l)
                .simulate(&program)
                .decoupled()
                .expect("DVA histogram")
                .avdq_occupancy
                .mean()
        };
        assert!(mean_at(100) > mean_at(1));
    }

    #[test]
    fn occupancy_is_bounded_by_vpiq_backpressure() {
        // Section 6: with a 16-entry VPIQ the AVDQ can never hold more
        // than ~9 slots, even for compute-bound loops and a 256-slot
        // queue.
        for benchmark in [Benchmark::Spec77, Benchmark::Arc2d] {
            let program = benchmark.program(Scale::Quick);
            let result = Machine::dva(100).simulate(&program);
            let max = result.decoupled().expect("DVA tracks AVDQ").max_avdq;
            assert!(max <= 9, "{}: AVDQ reached {max}", benchmark.name());
        }
    }
}
