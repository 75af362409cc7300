//! Queue-sizing sensitivity (Sections 5 and 6): the paper's rationale for
//! 16-entry instruction queues and a 16-slot store queue.
//!
//! Each study is one [`dva_sim_api::Sweep`] whose machine axis is the
//! queue size under test; the sweep points come back in
//! machine-declaration order, so the cycles of one benchmark line up with
//! the size grid positionally.

use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_core::{DvaConfig, QueueConfig};
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::Benchmark;

/// The latency at which the sizing study is run (the paper uses its full
/// sweep; sensitivity is widest at high latency).
pub const LATENCY: u64 = 50;

/// The three section headings the standalone binary prints.
pub const HEADINGS: [&str; 3] = [
    "Instruction-queue sizing (Section 5: 16 within 2% of 512)",
    "Store-queue sizing, base DVA (Section 5: flat from 16 up)",
    "Load-queue sizing with bypass (Section 7: 4 slots suffice)",
];

/// The queue-sizing studies as one declarative spec: three sweeps (one
/// per queue under test), three sections.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "queue_sizing",
    all_header: Some("== Queue sizing (Sections 5-7) =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![
        sized_sweep(opts, iq_machines()).into(),
        sized_sweep(opts, sq_machines()).into(),
        sized_sweep(opts, lq_machines()).into(),
    ]
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![
        Section::new(
            "instruction_queues",
            HEADINGS[0],
            render_instruction_queues(&results[0]),
        ),
        Section::new("store_queue", HEADINGS[1], render_store_queue(&results[1])),
        Section::new("load_queue", HEADINGS[2], render_load_queue(&results[2])),
    ]
}

/// The instruction-queue sizes under test.
const IQ_SIZES: [usize; 5] = [4, 8, 16, 64, 512];
/// The store-queue sizes under test.
const SQ_SIZES: [usize; 5] = [4, 8, 16, 32, 256];
/// The load-queue (AVDQ) sizes under test.
const LQ_SIZES: [usize; 5] = [2, 4, 8, 16, 256];

/// The base DVA at [`LATENCY`] with its queues replaced by `queues`.
fn sized(queues: QueueConfig) -> Machine {
    Machine::Dva(DvaConfig {
        queues,
        ..DvaConfig::dva(LATENCY)
    })
}

fn iq_machines() -> Vec<Machine> {
    IQ_SIZES
        .iter()
        .map(|&instruction_queue| {
            sized(QueueConfig {
                instruction_queue,
                ..QueueConfig::default()
            })
        })
        .collect()
}

fn sq_machines() -> Vec<Machine> {
    SQ_SIZES
        .iter()
        .map(|&store_queue| {
            sized(QueueConfig {
                store_queue,
                ..QueueConfig::default()
            })
        })
        .collect()
}

fn lq_machines() -> Vec<Machine> {
    LQ_SIZES
        .iter()
        .map(|&size| Machine::byp(LATENCY, size, 16))
        .collect()
}

/// One sizing sweep: `machines` over every benchmark at [`LATENCY`].
fn sized_sweep(opts: &RunOpts, machines: Vec<Machine>) -> Sweep {
    opts.sweep()
        .machines(machines)
        .benchmarks(Benchmark::ALL)
        .latencies([LATENCY])
}

/// Extracts per-benchmark cycle counts in machine-declaration order (the
/// sized machines share one label, so the lookup is positional).
fn cycles_by_machine(sweep: &SweepResults, count: usize) -> Vec<(Benchmark, Vec<u64>)> {
    Benchmark::ALL
        .into_iter()
        .map(|benchmark| {
            let cycles: Vec<u64> = sweep.of(benchmark).map(|p| p.result.cycles).collect();
            assert_eq!(cycles.len(), count, "one point per machine");
            (benchmark, cycles)
        })
        .collect()
}

/// Renders an instruction-queue sizing sweep: the paper found 16
/// entries within 2% of 512.
pub fn render_instruction_queues(sweep: &SweepResults) -> Table {
    let mut headers = vec!["Program".to_string()];
    headers.extend(IQ_SIZES.iter().map(|s| format!("IQ={s}")));
    headers.push("16 vs 512 (%)".to_string());
    let mut table = Table::new(headers);
    for (benchmark, cycles) in cycles_by_machine(sweep, IQ_SIZES.len()) {
        let c16 = cycles[2] as f64;
        let c512 = cycles[4] as f64;
        let mut row = vec![benchmark.name().to_string()];
        row.extend(cycles.iter().map(|c| c.to_string()));
        row.push(format!("{:+.2}", 100.0 * (c16 / c512 - 1.0)));
        table.row(row);
    }
    table
}

/// Renders a store-queue sizing sweep: the paper found almost no
/// difference between 16, 32 and 256 slots for the base DVA.
pub fn render_store_queue(sweep: &SweepResults) -> Table {
    let mut headers = vec!["Program".to_string()];
    headers.extend(SQ_SIZES.iter().map(|s| format!("SQ={s}")));
    let mut table = Table::new(headers);
    for (benchmark, cycles) in cycles_by_machine(sweep, SQ_SIZES.len()) {
        let mut row = vec![benchmark.name().to_string()];
        row.extend(cycles.iter().map(|c| c.to_string()));
        table.row(row);
    }
    table
}

/// Renders a load-queue sizing sweep with bypass enabled (Section 7's
/// conclusion: four slots capture most of an infinite queue).
pub fn render_load_queue(sweep: &SweepResults) -> Table {
    let mut headers = vec!["Program".to_string()];
    headers.extend(LQ_SIZES.iter().map(|s| format!("AVDQ={s}")));
    headers.push("4 vs 256 (%)".to_string());
    let mut table = Table::new(headers);
    for (benchmark, cycles) in cycles_by_machine(sweep, LQ_SIZES.len()) {
        let c4 = cycles[1] as f64;
        let c256 = cycles[4] as f64;
        let mut row = vec![benchmark.name().to_string()];
        row.extend(cycles.iter().map(|c| c.to_string()));
        row.push(format!("{:+.2}", 100.0 * (c4 / c256 - 1.0)));
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn sixteen_entry_instruction_queues_are_near_infinite() {
        // Paper Section 5 reports < 2% from 512; our traces interleave
        // more scalar work per strip and benefit somewhat more from deep
        // queues (documented in EXPERIMENTS.md), so we assert a looser
        // bound plus monotonicity.
        let program = Benchmark::Arc2d.program(Scale::Quick);
        let run = |instruction_queue| {
            sized(QueueConfig {
                instruction_queue,
                ..QueueConfig::default()
            })
            .simulate(&program)
            .cycles
        };
        let c4 = run(4) as f64;
        let c16 = run(16) as f64;
        let c512 = run(512) as f64;
        assert!(c16 / c512 < 1.10, "16-entry IQ {:.3}x of 512", c16 / c512);
        assert!(c4 >= c16 && c16 >= c512, "deeper queues never hurt");
    }

    #[test]
    fn store_queue_sixteen_matches_larger_queues() {
        let program = Benchmark::Flo52.program(Scale::Quick);
        let run = |store_queue| {
            sized(QueueConfig {
                store_queue,
                ..QueueConfig::default()
            })
            .simulate(&program)
            .cycles
        };
        let c16 = run(16) as f64;
        let c256 = run(256) as f64;
        assert!(c16 / c256 < 1.03);
    }

    #[test]
    fn tables_have_a_row_per_program() {
        let sweep = sized_sweep(&RunOpts::quick(), lq_machines()).run();
        assert_eq!(render_load_queue(&sweep).len(), Benchmark::ALL.len());
    }
}
