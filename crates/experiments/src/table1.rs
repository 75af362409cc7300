//! Table 1: basic operation counts for the benchmark programs.

use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_sim_api::SweepResults;
use dva_workloads::{stats, Benchmark};

/// The heading the standalone binary prints.
pub const HEADING: &str = "Table 1: basic operation counts (measured vs paper ratios)";

/// Table 1 as a declarative spec: trace statistics only, no sweeps.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "table1",
    all_header: Some("== Table 1: basic operation counts =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(_: &RunOpts) -> Vec<SweepPlan> {
    Vec::new()
}

/// Renders Table 1 for our synthetic traces side by side with the paper's
/// reported ratios. Counts are absolute for our traces; the calibrated
/// quantities are `%Vect` and `avg VL` (and the spill fractions used by
/// Section 7).
fn spec_render(opts: &RunOpts, _: &[SweepResults]) -> Vec<Section> {
    let mut table = Table::new([
        "Program", "#bbs", "S insts", "V insts", "V ops", "%Vect", "paper", "avg VL", "paper",
        "spill", "paper",
    ]);
    for benchmark in Benchmark::ALL {
        let program = benchmark.program(opts.scale);
        let summary = program.summary();
        let target = benchmark.paper_row();
        let spill = stats::spill_fraction(&program);
        table.row([
            benchmark.name().to_string(),
            summary.basic_blocks.to_string(),
            summary.scalar_insts.to_string(),
            summary.vector_insts.to_string(),
            summary.vector_ops.to_string(),
            format!("{:.1}", summary.vectorization()),
            format!("{:.1}", target.vectorization),
            format!("{:.1}", summary.avg_vector_length()),
            format!("{:.1}", target.avg_vl),
            format!("{:.3}", spill),
            benchmark
                .paper_spill_fraction()
                .map_or("-".to_string(), |f| format!("{f:.3}")),
        ]);
    }
    vec![Section::new("table1", HEADING, table)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_row_per_program() {
        let sections = spec_render(&RunOpts::quick(), &[]);
        let t = &sections[0].table;
        assert_eq!(t.len(), Benchmark::ALL.len());
        let ascii = t.to_ascii();
        for b in Benchmark::ALL {
            assert!(ascii.contains(b.name()));
        }
    }
}
