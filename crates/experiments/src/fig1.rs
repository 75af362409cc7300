//! Figure 1: execution-time breakdown of the reference architecture into
//! the eight (FU2, FU1, LD) machine states, per program and memory
//! latency.

use crate::common::FIG1_LATENCIES;
use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_metrics::UnitState;
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::Benchmark;

/// The heading the standalone binary prints.
pub const HEADING: &str =
    "Figure 1: REF execution breakdown into (FU2, FU1, LD) states (% of cycles)";

/// Figure 1 as a declarative spec: one REF sweep over the per-bar
/// latencies.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig1",
    all_header: Some("== Figure 1: REF state breakdown (% of cycles) =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![sweep_cfg(opts).into()]
}

fn sweep_cfg(opts: &RunOpts) -> Sweep {
    opts.sweep()
        .machine(Machine::reference(1))
        .benchmarks(Benchmark::ALL)
        .latencies(FIG1_LATENCIES)
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig1", HEADING, render(&results[0]))]
}

/// Renders a REF sweep into the Figure 1 table: one row per (program,
/// latency) with the total cycles, the share of each of the eight
/// states, and the paper's headline quantity — the fraction of cycles in
/// which the memory port sits idle.
pub fn render(sweep: &SweepResults) -> Table {
    let mut headers = vec!["Program".to_string(), "L".to_string(), "cycles".to_string()];
    headers.extend(UnitState::all().iter().map(|s| s.to_string()));
    headers.push("LD idle %".to_string());
    let mut table = Table::new(headers);
    for point in &sweep.points {
        let result = &point.result;
        let mut row = vec![
            point.program.clone(),
            point.latency.to_string(),
            result.cycles.to_string(),
        ];
        for state in UnitState::all() {
            row.push(format!("{:.1}", 100.0 * result.states.fraction(state)));
        }
        row.push(format!(
            "{:.1}",
            100.0 * result.states.memory_port_idle_cycles() as f64 / result.cycles as f64
        ));
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn breakdown_rows_cover_all_latencies() {
        let t = render(&sweep_cfg(&RunOpts::quick()).run());
        assert_eq!(t.len(), Benchmark::ALL.len() * FIG1_LATENCIES.len());
    }

    #[test]
    fn idle_state_grows_with_latency() {
        // The paper's central observation: higher memory latency inflates
        // the all-idle state.
        let program = Benchmark::Trfd.program(Scale::Quick);
        let idle_at = |l: u64| {
            let r = Machine::reference(l).simulate(&program);
            r.states.fraction(UnitState::empty())
        };
        assert!(idle_at(100) > idle_at(1));
    }
}
