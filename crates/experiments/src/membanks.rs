//! Bank-conflict study (not in the paper): execution time vs stride at a
//! fixed memory latency, REF vs DVA, flat vs banked main memory.
//!
//! The paper's flat memory cannot ask this question: its single port
//! streams any access at one element per cycle regardless of stride.
//! Swapping in the banked backend ([`MemoryModelKind::Banked`]) makes
//! non-unit strides revisit busy banks and throttle the address bus — turning
//! memory *bandwidth* (not latency) into the bottleneck. Decoupling
//! hides latency by slipping the address processor ahead; it cannot
//! manufacture bandwidth, so the DVA's banked/flat slowdown grows with
//! stride at least as fast as the reference machine's.

use crate::{ExperimentSpec, RunOpts, Section, SweepPlan, Table};
use dva_isa::Program;
use dva_sim_api::{Machine, MemoryModelKind, Sweep, SweepResults};
use dva_workloads::{Kernel, LoopSpec, Phase, ProgramSpec, Scale, StripOverhead};

/// The bank-conflict study as a declarative spec. Its strided programs
/// are custom-compiled, but their instruction streams content-address
/// like any benchmark, so the sweep still flows through the cache.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "membanks",
    all_header: Some("\n== Bank conflicts: cycles vs stride (beyond the paper) =="),
    sweeps: spec_sweeps,
    render: spec_render,
    invariants: &[],
};

fn spec_sweeps(opts: &RunOpts) -> Vec<SweepPlan> {
    vec![sweep_cfg(*opts).into()]
}

fn spec_render(_: &RunOpts, results: &[SweepResults]) -> Vec<Section> {
    let heading = format!(
        "Bank conflicts: cycles vs stride at L={LATENCY} \
         ({BANKS} banks, {BANK_BUSY}-cycle bank busy time)\n\
         (decoupling hides latency, not bandwidth: the DVA pays bank conflicts in full)"
    );
    vec![Section::new("membanks", heading, render(&results[0]))]
}

/// The fixed memory latency of the study (the middle of the paper's
/// sweep; the effect under study is bandwidth, not latency).
pub const LATENCY: u64 = 30;

/// Banked-memory geometry: 8 banks, each busy 8 cycles per access —
/// unit strides stream at full speed, stride 8 serializes on one bank.
pub const BANKS: u32 = 8;
/// See [`BANKS`].
pub const BANK_BUSY: u64 = 8;

/// The strides swept: powers of two degrade stepwise as they hit fewer
/// banks; the odd stride 3 stays conflict-free and pins the contrast.
pub const STRIDES: [i64; 6] = [1, 2, 3, 4, 8, 16];

/// The banked backend the study runs against.
pub fn banked() -> MemoryModelKind {
    MemoryModelKind::Banked {
        banks: BANKS,
        bank_busy: BANK_BUSY,
    }
}

/// A strided triad kernel (`y[s*i] = a * x[s*i]`) compiled at the given
/// scale; the kernel's loads and stores both carry the stride, so every
/// vector access in the trace pays the same bank behavior.
pub fn strided_program(stride: i64, scale: Scale) -> Program {
    let mut kernel = Kernel::new(format!("triad-s{stride}"));
    let x = kernel.load_strided("x", stride);
    let ax = kernel.mul_scalar(x);
    kernel.store_strided(ax, "y", stride);
    let strips = match scale {
        Scale::Quick => 16,
        Scale::Default => 96,
        Scale::Full => 384,
    };
    let spec = ProgramSpec {
        name: format!("stride-{stride}"),
        repeat: 1,
        phases: vec![Phase::Loop(LoopSpec {
            kernel,
            strips,
            vl: 64,
            software_pipeline: true,
            overhead: StripOverhead::default(),
        })],
    };
    spec.compile(0xBA2C5)
}

/// The machines × strides × {flat, banked} grid, configured but not run.
pub fn sweep_cfg(opts: RunOpts) -> Sweep {
    let mut sweep = opts
        .sweep()
        .machines([Machine::reference(1), Machine::dva(1)])
        .latencies([LATENCY])
        .memory_models([MemoryModelKind::Flat, banked()]);
    for stride in STRIDES {
        sweep = sweep.program(strided_program(stride, opts.scale));
    }
    sweep
}

/// Renders a stride sweep into the bank-conflict table: cycles under
/// flat and banked memory and the banked/flat slowdown, for REF and DVA.
pub fn render(results: &SweepResults) -> Table {
    let mut table = Table::new([
        "stride",
        "REF flat",
        "REF banked",
        "REF slowdown",
        "DVA flat",
        "DVA banked",
        "DVA slowdown",
    ]);
    for stride in STRIDES {
        let program = format!("stride-{stride}");
        let cycles = |label: &str, memory: MemoryModelKind| {
            results
                .of_memory(memory)
                .find(|p| p.label == label && p.program == program)
                .expect("grid point")
                .result
                .cycles
        };
        let ref_flat = cycles("REF", MemoryModelKind::Flat);
        let ref_banked = cycles("REF", banked());
        let dva_flat = cycles("DVA", MemoryModelKind::Flat);
        let dva_banked = cycles("DVA", banked());
        table.row([
            stride.to_string(),
            ref_flat.to_string(),
            ref_banked.to_string(),
            format!("{:.2}", ref_banked as f64 / ref_flat as f64),
            dva_flat.to_string(),
            dva_banked.to_string(),
            format!("{:.2}", dva_banked as f64 / dva_flat as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_pays_no_bank_penalty() {
        // bank_busy == banks: a unit-stride stream never revisits a busy
        // bank, so the banked run is cycle-identical to the flat one.
        let program = strided_program(1, Scale::Quick);
        for machine in [Machine::reference(LATENCY), Machine::dva(LATENCY)] {
            let flat = machine.simulate(&program);
            let conflicted = machine.with_memory_model(banked()).simulate(&program);
            assert_eq!(flat.cycles, conflicted.cycles, "{}", machine.label());
        }
    }

    #[test]
    fn bank_aligned_stride_is_the_worst_case() {
        let aligned = strided_program(i64::from(BANKS), Scale::Quick);
        let odd = strided_program(3, Scale::Quick);
        for machine in [Machine::reference(LATENCY), Machine::dva(LATENCY)] {
            let machine = machine.with_memory_model(banked());
            let worst = machine.simulate(&aligned);
            let fine = machine.simulate(&odd);
            assert!(
                worst.cycles > 2 * fine.cycles,
                "{}: stride {BANKS} should serialize on one bank ({} vs {})",
                machine.label(),
                worst.cycles,
                fine.cycles
            );
        }
    }

    #[test]
    fn decoupling_cannot_hide_bandwidth_loss() {
        // Decoupling hides latency, so under flat memory DVA beats REF;
        // bank conflicts burn shared bus bandwidth, which decoupling
        // cannot recover — the DVA slows down by at least as large a
        // factor as REF does.
        let program = strided_program(8, Scale::Quick);
        let slow = |machine: Machine, memory| {
            machine.with_memory_model(memory).simulate(&program).cycles as f64
        };
        let ref_ratio = slow(Machine::reference(LATENCY), banked())
            / slow(Machine::reference(LATENCY), MemoryModelKind::Flat);
        let dva_ratio = slow(Machine::dva(LATENCY), banked())
            / slow(Machine::dva(LATENCY), MemoryModelKind::Flat);
        assert!(ref_ratio > 1.5, "REF unaffected by conflicts: {ref_ratio}");
        assert!(
            dva_ratio >= ref_ratio * 0.95,
            "DVA hid a pure-bandwidth penalty: DVA {dva_ratio:.2}x vs REF {ref_ratio:.2}x"
        );
    }

    #[test]
    fn table_covers_every_stride() {
        let table = render(&sweep_cfg(RunOpts::quick()).run());
        assert_eq!(table.len(), STRIDES.len());
        let text = table.to_ascii();
        for stride in STRIDES {
            assert!(text.contains(&format!("{stride}")), "missing {stride}");
        }
    }
}
