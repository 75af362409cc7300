//! Ablation studies of the design choices DESIGN.md calls out: the value
//! of chaining on the reference machine and of the second QMOV unit on
//! the decoupled machine.

use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_core::DvaConfig;
use dva_isa::Program;
use dva_ref::{RefParams, RefRunner};
use dva_sim_api::{Machine, PreparedProgram, Sweep, SweepResults};
use dva_uarch::{ChainPolicy, UarchParams};
use dva_workloads::Benchmark;

/// Latency the ablations run at.
pub const LATENCY: u64 = 30;

/// The two section headings the standalone binary prints.
pub const HEADINGS: [&str; 2] = [
    "Chaining ablation on the reference machine (Section 2.1)",
    "Register-bank port ablation on the decoupled machine",
];

/// The ablation studies as a declarative spec. The chaining study drives
/// [`RefRunner`] directly (the chain policy is an engine internal, not a
/// [`Machine`] knob), so only the bank-port comparison is a declared
/// sweep; `all_header` is `None` because `all` reproduces the paper's
/// evaluation, not the ablations.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "ablation",
    all_header: None,
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![bank_ports_sweep(opts).into()]
}

fn spec_render(opts: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    vec![
        Section::new("chaining", HEADINGS[0], chaining(*opts)),
        Section::new("bank_ports", HEADINGS[1], render_bank_ports(&results[0])),
    ]
}

/// Chaining ablation: the reference machine with its flexible FU→FU /
/// FU→store chaining versus no chaining at all (Section 2.1 motivates the
/// machine's chaining model).
///
/// The chain policy is an engine internal rather than part of
/// [`RefParams`], so this study drives [`RefRunner`] directly instead of
/// going through [`Machine`].
pub fn chaining(opts: RunOpts) -> Table {
    let mut table = Table::new(["Program", "chained", "unchained", "chaining gain %"]);
    for benchmark in Benchmark::ALL {
        let (with, without) = chained_and_unchained(&benchmark.program(opts.scale));
        table.row([
            benchmark.name().to_string(),
            with.to_string(),
            without.to_string(),
            format!("{:+.1}", 100.0 * (without as f64 / with as f64 - 1.0)),
        ]);
    }
    table
}

/// Cycles of `program` on the reference machine at [`LATENCY`], with its
/// chaining and with none.
fn chained_and_unchained(program: &Program) -> (u64, u64) {
    let prepared = PreparedProgram::new(program);
    let params = RefParams::with_latency(LATENCY);
    let mut runner = RefRunner::new();
    let mut cycles = |chain| {
        runner
            .try_run(&params, chain, prepared.reference(), true)
            .unwrap_or_else(|e| panic!("{e}"))
            .cycles
    };
    (
        cycles(ChainPolicy::reference()),
        cycles(ChainPolicy::none()),
    )
}

/// The bank-port comparison sweep: restricted ports versus a full
/// crossbar (Section 2.1's "restricted crossbar"), configured but not
/// run.
pub fn bank_ports_sweep(opts: &RunOpts) -> Sweep {
    let crossbar_uarch = UarchParams {
        check_bank_ports: false,
        ..UarchParams::default()
    };
    let machines = vec![
        Machine::dva(LATENCY),
        Machine::Dva(DvaConfig {
            uarch: crossbar_uarch,
            ..DvaConfig::dva(LATENCY)
        }),
    ];
    opts.sweep()
        .machines(machines)
        .benchmarks(Benchmark::ALL)
        .latencies([LATENCY])
}

/// Renders a bank-port sweep: the 2-read/1-write ports per
/// two-register bank versus a full crossbar.
pub fn render_bank_ports(sweep: &SweepResults) -> Table {
    let mut table = Table::new(["Program", "banked ports", "full crossbar", "port cost %"]);
    for benchmark in Benchmark::ALL {
        // Both machines label as "DVA", so the lookup is positional: the
        // sweep returns points in machine-declaration order.
        let cycles: Vec<u64> = sweep.of(benchmark).map(|p| p.result.cycles).collect();
        assert_eq!(cycles.len(), 2, "one point per declared machine");
        let (banked, crossbar) = (cycles[0], cycles[1]);
        table.row([
            benchmark.name().to_string(),
            banked.to_string(),
            crossbar.to_string(),
            format!("{:+.1}", 100.0 * (banked as f64 / crossbar as f64 - 1.0)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn chaining_always_helps_or_is_neutral() {
        let (with, without) = chained_and_unchained(&Benchmark::Arc2d.program(Scale::Quick));
        assert!(without >= with);
    }

    #[test]
    fn full_crossbar_never_slows_execution() {
        let program = Benchmark::Flo52.program(Scale::Quick);
        let banked = Machine::dva(LATENCY).simulate(&program);
        let crossbar = Machine::Dva(DvaConfig {
            uarch: UarchParams {
                check_bank_ports: false,
                ..UarchParams::default()
            },
            ..DvaConfig::dva(LATENCY)
        })
        .simulate(&program);
        assert!(crossbar.cycles <= banked.cycles);
    }

    #[test]
    fn tables_cover_every_program() {
        assert_eq!(chaining(RunOpts::quick()).len(), Benchmark::ALL.len());
    }
}
