//! The fast-forward (next-event skip) engine is an *optimization, not a
//! model change*: every result it produces must be byte-identical to
//! naive per-cycle stepping, on the full experiment grid and on random
//! programs alike — while executing strictly fewer engine ticks.

use dva_sim_api::{Machine, MemoryModelKind, Sweep, SweepResults};
use dva_tests::arb_program;
use dva_workloads::{Benchmark, Scale};
use proptest::prelude::*;

fn grid(fast_forward: bool) -> SweepResults {
    Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
            Machine::ideal(),
        ])
        .benchmarks(Benchmark::ALL)
        .latencies([1, 30, 100])
        .scale(Scale::Quick)
        .fast_forward(fast_forward)
        .run()
}

/// The acceptance gate: the full machines × benchmarks × latencies grid
/// is byte-identical with fast-forward on vs off — both as typed values
/// and as rendered `Debug` output.
#[test]
fn full_grid_is_byte_identical_with_fast_forward() {
    let fast = grid(true);
    let naive = grid(false);
    assert_eq!(fast, naive);
    assert_eq!(
        format!("{fast:?}"),
        format!("{naive:?}"),
        "fast-forward must be invisible in rendered output too"
    );
}

/// Fast-forward earns its keep exactly where the paper's sweep hurts:
/// most cycles are provably quiet, so the engine executes far fewer
/// ticks than cycles. The exact cycles and executed ticks are pinned
/// for ARC2D at Quick scale, at both ends of the latency sweep, on REF,
/// DVA and DVA over a banked memory (whose dispatch must not change a
/// count). Ticks are host-independent, so any drift here is a real
/// change to the engine or its skip logic: rebaseline the table in the
/// same change, with a CHANGES line saying why.
#[test]
fn fast_forward_skips_most_cycles_at_long_latency() {
    let program = Benchmark::Arc2d.program(Scale::Quick);
    let banked = MemoryModelKind::Banked {
        banks: 8,
        bank_busy: 8,
    };
    // Per machine: (cycles, fast-forward ticks) at L = 1 and at L = 100.
    let table = [
        (
            "REF",
            Machine::reference(1),
            [(83930, 4944), (105296, 4961)],
        ),
        ("DVA", Machine::dva(1), [(73934, 6966), (76314, 7399)]),
        (
            "DVA-banked",
            Machine::dva(1).with_memory_model(banked),
            [(73934, 6966), (76314, 7399)],
        ),
    ];
    for (name, machine, pins) in table {
        for (latency, pin) in [1, 100].into_iter().zip(pins) {
            let machine = machine.with_latency(latency);
            let fast = machine.simulate(&program);
            let naive = machine.simulate_with(&program, false);
            let at = format!("{name} L={latency}");
            assert_eq!(fast, naive, "{at}: fast-forward changed the result");
            assert_eq!(naive.ticks_executed.get(), naive.cycles, "{at}");
            assert_eq!((fast.cycles, fast.ticks_executed.get()), pin, "{at}");
            assert!(pin.1 * 2 < pin.0, "{at}: expected to skip most cycles");
        }
    }
}

/// The executed ticks of every Default-scale program on DVA and BYP 4/8
/// (flat memory, L = 100), pinned with the cycles. The skip logic may
/// change how a tick is computed, never which ticks run: one missed or
/// extra tick would change every result the sweep service renders, so
/// this table catches it first. Rebaseline only with a CHANGES line
/// saying why.
#[test]
fn default_scale_ticks_are_pinned() {
    // Per program: (cycles, ticks) on DVA, then on BYP 4/8.
    let table = [
        (Benchmark::Bdna, [(392159, 72970), (387965, 72945)]),
        (Benchmark::Arc2d, [(681540, 66181), (655958, 64184)]),
        (Benchmark::Dyfesm, [(214724, 42535), (165529, 42058)]),
        (Benchmark::Flo52, [(361345, 59444), (365412, 61223)]),
        (Benchmark::Trfd, [(125464, 42301), (107353, 42344)]),
        (Benchmark::Spec77, [(138030, 45382), (136531, 45322)]),
    ];
    for (benchmark, pins) in table {
        let program = benchmark.program(Scale::Default);
        for (machine, pin) in [Machine::dva(100), Machine::byp(100, 4, 8)]
            .into_iter()
            .zip(pins)
        {
            let result = machine.simulate(&program);
            assert_eq!(
                (result.cycles, result.ticks_executed.get()),
                pin,
                "{} on {}",
                benchmark.name(),
                machine.label()
            );
        }
    }
}

/// Golden cycle counts pinning the model: any change to either engine's
/// timing (including a fast-forward bug that only shifts results) moves
/// these numbers.
#[test]
fn golden_cycle_counts_pin_the_model() {
    let program = Benchmark::Trfd.program(Scale::Quick);
    for (latency, ref_golden, dva_golden) in [(1u64, 6545u64, 6342u64), (100, 19449, 11097)] {
        let r = Machine::reference(latency).simulate(&program);
        let d = Machine::dva(latency).simulate(&program);
        assert_eq!(
            (r.cycles, d.cycles),
            (ref_golden, dva_golden),
            "TRFD Quick at L={latency}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized equivalence: fast-forward and naive stepping produce
    /// identical results (base DVA and a small bypass machine) on
    /// arbitrary compiled programs and latencies, with no more ticks.
    #[test]
    fn dva_fast_forward_matches_naive(program in arb_program(), latency in 1u64..=100) {
        for machine in [Machine::dva(latency), Machine::byp(latency, 4, 8)] {
            let fast = machine.simulate(&program);
            let naive = machine.simulate_with(&program, false);
            prop_assert_eq!(&fast, &naive);
            prop_assert_eq!(naive.ticks_executed.get(), naive.cycles);
            prop_assert!(fast.ticks_executed.get() <= naive.ticks_executed.get());
        }
    }

    /// Same for the reference machine.
    #[test]
    fn ref_fast_forward_matches_naive(program in arb_program(), latency in 1u64..=100) {
        let machine = Machine::reference(latency);
        let fast = machine.simulate(&program);
        let naive = machine.simulate_with(&program, false);
        prop_assert_eq!(&fast, &naive);
        prop_assert_eq!(naive.ticks_executed.get(), naive.cycles);
        prop_assert!(fast.ticks_executed.get() <= naive.ticks_executed.get());
    }
}
