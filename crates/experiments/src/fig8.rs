//! Figure 8: ratio of total memory traffic between the DVA 256/16 and the
//! BYP 256/16 configurations.

use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::Benchmark;

/// The latency Figure 8 is evaluated at (traffic is nearly latency
/// independent; the paper plots a single bar per program).
pub const LATENCY: u64 = 1;

/// The heading the standalone binary prints (two lines).
pub const HEADING: &str = "Figure 8: total memory traffic, DVA 256/16 vs BYP 256/16\n\
                           (paper: >30% reduction for DYFESM/TRFD, ~10% for BDNA/FLO52)";

/// Figure 8 as a declarative spec: one DVA-vs-BYP traffic sweep.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig8",
    all_header: Some("== Figure 8: memory traffic ratio =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![sweep_cfg(opts).into()]
}

fn sweep_cfg(opts: &RunOpts) -> Sweep {
    opts.sweep()
        .machines([Machine::dva(1), Machine::byp(1, 256, 16)])
        .benchmarks(Benchmark::ALL)
        .latencies([LATENCY])
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig8", HEADING, render(&results[0]))]
}

/// Renders a traffic sweep into the Figure 8 bars: memory words moved
/// with and without bypass and their ratio (the paper reports >30%
/// reduction for DYFESM and TRFD, ~10% for BDNA and FLO52).
pub fn render(sweep: &SweepResults) -> Table {
    let mut table = Table::new([
        "Program",
        "DVA words",
        "BYP words",
        "bypassed",
        "ratio",
        "reduction %",
    ]);
    for benchmark in Benchmark::ALL {
        let traffic = |label: &str| {
            sweep
                .get(label, benchmark, LATENCY)
                .expect("grid point")
                .result
                .traffic
        };
        let (dva, byp) = (traffic("DVA"), traffic("BYP 256/16"));
        let ratio = byp.ratio_to(&dva);
        table.row([
            benchmark.name().to_string(),
            dva.memory_elems().to_string(),
            byp.memory_elems().to_string(),
            byp.bypassed_elems.to_string(),
            format!("{ratio:.3}"),
            format!("{:.1}", 100.0 * (1.0 - ratio)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn bypass_reduces_traffic_for_reuse_heavy_programs() {
        for benchmark in [Benchmark::Trfd, Benchmark::Bdna, Benchmark::Dyfesm] {
            let program = benchmark.program(Scale::Quick);
            let dva = Machine::dva(1).simulate(&program);
            let byp = Machine::byp(1, 256, 16).simulate(&program);
            assert!(
                byp.traffic.memory_elems() < dva.traffic.memory_elems(),
                "{}: no traffic reduction",
                benchmark.name()
            );
        }
    }

    #[test]
    fn total_requests_are_preserved() {
        // Bypassing changes where loads are served, not how many words
        // the program asks for.
        let program = Benchmark::Trfd.program(Scale::Quick);
        let dva = Machine::dva(1).simulate(&program);
        let byp = Machine::byp(1, 256, 16).simulate(&program);
        assert_eq!(
            dva.traffic.total_request_elems(),
            byp.traffic.total_request_elems()
        );
    }
}
