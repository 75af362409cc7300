//! The memory kinds at the machine surface: an explicit `Flat` memory
//! model must be byte-identical to the machines' default memory, and the
//! `Banked`/`MultiPort` kinds must obey the same fast-forward
//! equivalence contract as everything else the shared driver runs.

use dva_sim_api::{Machine, MemoryModelKind, Sweep, SweepResults};
use dva_tests::arb_program;
use dva_workloads::{Benchmark, Scale};
use proptest::prelude::*;

const BANKED: MemoryModelKind = MemoryModelKind::Banked {
    banks: 8,
    bank_busy: 8,
};
const TWO_PORT: MemoryModelKind = MemoryModelKind::MultiPort { ports: 2 };

fn grid(memory: MemoryModelKind, fast_forward: bool) -> SweepResults {
    Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
        ])
        .benchmarks(Benchmark::ALL)
        .latencies([1, 30, 100])
        .memory_model(memory)
        .scale(Scale::Quick)
        .fast_forward(fast_forward)
        .run()
}

/// The golden acceptance gate: an explicitly selected `Flat` memory
/// model reproduces the machines' default results exactly — typed values and rendered `Debug` output alike — on the
/// full machines × benchmarks × latencies grid.
#[test]
fn explicit_flat_is_byte_identical_to_the_default() {
    let default = Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
        ])
        .benchmarks(Benchmark::ALL)
        .latencies([1, 30, 100])
        .scale(Scale::Quick)
        .run();
    let explicit = grid(MemoryModelKind::Flat, true);
    assert_eq!(default.points.len(), explicit.points.len());
    for (d, e) in default.points.iter().zip(&explicit.points) {
        assert_eq!(
            d.result, e.result,
            "{} {} L={}",
            d.label, d.program, d.latency
        );
        assert_eq!(format!("{:?}", d.result), format!("{:?}", e.result));
    }
}

/// The golden cycle counts, pinned through the explicit `Flat` memory
/// model.
#[test]
fn golden_cycle_counts_pin_the_flat_backend() {
    let program = Benchmark::Trfd.program(Scale::Quick);
    for (latency, ref_golden, dva_golden) in [(1u64, 6545u64, 6342u64), (100, 19449, 11097)] {
        let r = Machine::reference(latency)
            .with_memory_model(MemoryModelKind::Flat)
            .simulate(&program);
        let d = Machine::dva(latency)
            .with_memory_model(MemoryModelKind::Flat)
            .simulate(&program);
        assert_eq!(
            (r.cycles, d.cycles),
            (ref_golden, dva_golden),
            "TRFD Quick at L={latency}"
        );
    }
}

/// Fast-forward is exact under the other kinds too: the banked
/// memory's stride-dependent bus holds and the multi-port memory's
/// `next_free_at` (earliest port) both feed the next-event computation,
/// and the full grid is byte-identical with fast-forward on vs off.
#[test]
fn full_grid_is_byte_identical_with_fast_forward_under_banked() {
    assert_eq!(grid(BANKED, true), grid(BANKED, false));
}

/// Same for the multi-port memory.
#[test]
fn full_grid_is_byte_identical_with_fast_forward_under_multiport() {
    assert_eq!(grid(TWO_PORT, true), grid(TWO_PORT, false));
}

/// Backends change timing, never work: instructions and the words the
/// program requests are conserved across the whole memory axis. (The
/// *split* between memory traffic and bypassed words may move on BYP
/// machines — timing decides which stores are still queued when a load
/// disambiguates.)
#[test]
fn backends_conserve_instructions_and_traffic() {
    let flat = grid(MemoryModelKind::Flat, true);
    for other in [grid(BANKED, true), grid(TWO_PORT, true)] {
        for (f, o) in flat.points.iter().zip(&other.points) {
            assert_eq!(f.result.insts, o.result.insts, "{} {}", f.label, f.program);
            assert_eq!(
                f.result.traffic.total_request_elems(),
                o.result.traffic.total_request_elems(),
                "{} {} under {}",
                f.label,
                f.program,
                o.memory
            );
            assert_eq!(
                f.result.traffic.vector_store_elems, o.result.traffic.vector_store_elems,
                "{} {} under {}",
                f.label, f.program, o.memory
            );
            assert!(
                o.memory == BANKED || o.result.cycles <= f.result.cycles,
                "{} {} L={}: a second port slowed the run ({} vs {})",
                f.label,
                f.program,
                f.latency,
                o.result.cycles,
                f.result.cycles
            );
        }
    }
}

/// The extra port reports its own utilization: a multi-port run carries
/// one entry per port, the first at least as busy as the second (the
/// arbiter prefers the lowest-numbered free port).
#[test]
fn per_port_utilization_is_surfaced() {
    let program = Benchmark::Arc2d.program(Scale::Quick);
    let flat = Machine::dva(30).simulate(&program);
    assert_eq!(flat.port_utilization.len(), 1);
    assert!((flat.port_utilization[0] - flat.bus_utilization).abs() < 1e-12);

    let multi = Machine::dva(30)
        .with_memory_model(TWO_PORT)
        .simulate(&program);
    assert_eq!(multi.port_utilization.len(), 2);
    assert!(multi.port_utilization[0] >= multi.port_utilization[1]);
    let mean = (multi.port_utilization[0] + multi.port_utilization[1]) / 2.0;
    assert!((multi.bus_utilization - mean).abs() < 1e-12);

    // IDEAL has no memory system at all.
    assert!(Machine::ideal()
        .simulate(&program)
        .port_utilization
        .is_empty());
}

/// Scalar-cache store outcomes reach the unified result: every counted
/// access is a load or a store, and the combined rate matches the
/// legacy `cache_hit_rate` field.
#[test]
fn cache_stats_split_loads_and_stores() {
    let program = Benchmark::Trfd.program(Scale::Default);
    let r = Machine::reference(30).simulate(&program);
    let stats = r.cache;
    assert!(stats.load_hits + stats.load_misses > 0, "no scalar loads");
    assert!(
        stats.store_hits + stats.store_misses > 0,
        "no scalar stores"
    );
    assert!((stats.hit_rate() - r.cache_hit_rate).abs() < 1e-12);
    // The words that crossed the bus are exactly the load misses plus
    // every (write-through) store.
    assert_eq!(r.traffic.scalar_load_words, stats.load_misses);
    assert_eq!(
        r.traffic.scalar_store_words,
        stats.store_hits + stats.store_misses
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized equivalence: fast-forward and naive stepping agree on
    /// arbitrary compiled programs under the banked memory, for both
    /// machines and a bypass configuration.
    #[test]
    fn banked_fast_forward_matches_naive(program in arb_program(), latency in 1u64..=100) {
        for machine in [Machine::dva(latency), Machine::byp(latency, 4, 8)] {
            let machine = machine.with_memory_model(BANKED);
            let fast = machine.simulate(&program);
            let naive = machine.simulate_with(&program, false);
            prop_assert_eq!(&fast, &naive);
            prop_assert!(fast.ticks_executed.get() <= naive.ticks_executed.get());
        }
        let machine = Machine::reference(latency).with_memory_model(BANKED);
        let fast = machine.simulate(&program);
        let naive = machine.simulate_with(&program, false);
        prop_assert_eq!(&fast, &naive);
    }

    /// Same under the multi-port memory (ports in {2, 3}).
    #[test]
    fn multiport_fast_forward_matches_naive(
        program in arb_program(),
        latency in 1u64..=100,
        ports in 2u32..=3,
    ) {
        let model = MemoryModelKind::MultiPort { ports };
        for machine in [Machine::dva(latency), Machine::reference(latency)] {
            let machine = machine.with_memory_model(model);
            let fast = machine.simulate(&program);
            let naive = machine.simulate_with(&program, false);
            prop_assert_eq!(&fast, &naive);
        }
    }
}
