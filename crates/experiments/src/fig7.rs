//! Figure 7: performance of the bypassing scheme — `BYP load/store`
//! configurations against the base DVA and the IDEAL bound.

use crate::common::{kcycles, latencies};
use crate::{ExperimentSpec, Invariant, RunOpts, Section, SweepPlan, Table};
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::Benchmark;

/// The `(load queue, store queue)` configurations of the paper's Figure 7.
pub const BYP_CONFIGS: [(usize, usize); 4] = [(4, 4), (4, 8), (4, 16), (256, 16)];

/// The heading the standalone binary prints.
pub const HEADING: &str = "Figure 7: performance of the bypassing scheme (kcycles)";

/// Figure 7 as a declarative spec. The full-queue bypass configuration
/// has the DVA's queues plus the bypass unit, so it may never lose to
/// the DVA. IDEAL bounds the DVA but *not* the bypass machines: IDEAL
/// idealizes latency, while bypassing removes memory traffic outright
/// and can dip below that bound (FLO52 does, at latency 1).
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig7",
    all_header: Some("== Figure 7: bypassing performance (kcycles) =="),
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
    ],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![sweep_cfg(opts).into()]
}

fn sweep_cfg(opts: &RunOpts) -> Sweep {
    opts.sweep()
        .machines(machines())
        .benchmarks(Benchmark::ALL)
        .latencies(latencies(opts.full))
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![Section::new("fig7", HEADING, render(&results[0]))]
}

/// The machine line-up of Figure 7: DVA, the bypass configurations, and
/// the IDEAL bound.
pub fn machines() -> Vec<Machine> {
    let mut machines = vec![Machine::dva(1)];
    machines.extend(
        BYP_CONFIGS
            .iter()
            .map(|&(load_q, store_q)| Machine::byp(1, load_q, store_q)),
    );
    machines.push(Machine::ideal());
    machines
}

/// Renders a bypass sweep into the Figure 7 table: per program and
/// latency, cycles (in thousands) for DVA, each bypass configuration,
/// and the IDEAL bound.
pub fn render(sweep: &SweepResults) -> Table {
    let machine_list = machines();
    let mut headers = vec!["Program".to_string(), "L".to_string()];
    headers.extend(machine_list.iter().map(|m| m.label()));
    let mut table = Table::new(headers);
    for benchmark in Benchmark::ALL {
        for latency in sweep.latencies() {
            let mut row = vec![benchmark.name().to_string(), latency.to_string()];
            for machine in &machine_list {
                let cycles = sweep
                    .cycles(&machine.label(), benchmark, latency)
                    .expect("grid point");
                row.push(kcycles(cycles));
            }
            table.row(row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn bypass_never_slows_the_full_queue_configuration() {
        // BYP 256/16 has the DVA's queues plus the bypass unit: it should
        // match or beat the DVA everywhere.
        for benchmark in [Benchmark::Trfd, Benchmark::Dyfesm, Benchmark::Bdna] {
            let program = benchmark.program(Scale::Quick);
            let dva = Machine::dva(1).simulate(&program);
            let byp = Machine::byp(1, 256, 16).simulate(&program);
            assert!(
                byp.cycles <= dva.cycles,
                "{}: BYP 256/16 {} slower than DVA {}",
                benchmark.name(),
                byp.cycles,
                dva.cycles
            );
        }
    }

    #[test]
    fn store_queue_of_eight_captures_most_of_sixteen() {
        // Paper Section 7: eight slots reach >95% of the 16-slot
        // performance for most programs.
        let program = Benchmark::Trfd.program(Scale::Quick);
        let byp8 = Machine::byp(1, 4, 8).simulate(&program);
        let byp16 = Machine::byp(1, 4, 16).simulate(&program);
        let gap = byp8.cycles as f64 / byp16.cycles as f64;
        assert!(gap < 1.10, "4/8 is {gap:.3}x of 4/16");
    }

    #[test]
    fn deep_load_queue_matters_for_spec77() {
        // SPEC77 makes heavy use of the load queue slots: shrinking the
        // AVDQ to 4 costs it performance (the paper's special case).
        let program = Benchmark::Spec77.program(Scale::Quick);
        let byp4 = Machine::byp(30, 4, 16).simulate(&program);
        let byp256 = Machine::byp(30, 256, 16).simulate(&program);
        assert!(byp4.cycles >= byp256.cycles);
    }

    #[test]
    fn figure_covers_all_machines() {
        let t = render(&sweep_cfg(&RunOpts::quick()).run());
        assert_eq!(t.len(), Benchmark::ALL.len() * latencies(false).len());
    }
}
