//! Section 7 of the paper: the store→load bypass, end to end.

use dva_sim_api::Machine;
use dva_workloads::{Benchmark, Scale};

#[test]
fn bypass_speeds_up_reuse_heavy_programs_at_unit_latency() {
    // Paper: significant speedups even at L=1 (DYFESM/TRFD lead).
    for b in [Benchmark::Trfd, Benchmark::Dyfesm, Benchmark::Bdna] {
        let p = b.program(Scale::Quick);
        let dva = Machine::dva(1).simulate(&p);
        let byp = Machine::byp(1, 256, 16).simulate(&p);
        let gain = dva.cycles as f64 / byp.cycles as f64;
        assert!(gain > 1.03, "{}: bypass gain {gain:.3}", b.name());
        assert!(byp.decoupled().unwrap().bypassed_loads > 0);
    }
}

#[test]
fn spec77_neither_gains_nor_loses_with_full_queues() {
    // Paper: SPEC77's bypass gain is ~0.7% — essentially nothing.
    let p = Benchmark::Spec77.program(Scale::Quick);
    let dva = Machine::dva(1).simulate(&p);
    let byp = Machine::byp(1, 256, 16).simulate(&p);
    let ratio = dva.cycles as f64 / byp.cycles as f64;
    assert!((0.98..1.05).contains(&ratio), "SPEC77 ratio {ratio:.3}");
}

#[test]
fn shrinking_the_load_queue_hurts_spec77_most() {
    // Paper: "the three bypass configurations that have a load queue
    // length of four are worse than the DVA configuration" for SPEC77.
    let p = Benchmark::Spec77.program(Scale::Quick);
    let byp4 = Machine::byp(50, 4, 16).simulate(&p);
    let byp256 = Machine::byp(50, 256, 16).simulate(&p);
    assert!(byp4.cycles >= byp256.cycles);
}

#[test]
fn bypass_reduces_memory_traffic_without_losing_requests() {
    for b in [Benchmark::Trfd, Benchmark::Bdna, Benchmark::Dyfesm] {
        let p = b.program(Scale::Quick);
        let dva = Machine::dva(1).simulate(&p);
        let byp = Machine::byp(1, 256, 16).simulate(&p);
        assert!(byp.traffic.memory_elems() < dva.traffic.memory_elems());
        assert_eq!(
            byp.traffic.total_request_elems(),
            dva.traffic.total_request_elems(),
            "{}: requests not conserved",
            b.name()
        );
        assert_eq!(dva.traffic.bypassed_elems, 0);
    }
}

#[test]
fn bypass_gains_hold_across_latencies() {
    let p = Benchmark::Trfd.program(Scale::Quick);
    for latency in [1u64, 30, 100] {
        let dva = Machine::dva(latency).simulate(&p);
        let byp = Machine::byp(latency, 256, 16).simulate(&p);
        assert!(
            byp.cycles <= dva.cycles,
            "L={latency}: bypass slower ({} vs {})",
            byp.cycles,
            dva.cycles
        );
    }
}

#[test]
fn store_queue_sizes_order_sensibly_for_bypass() {
    // Larger store queues never reduce the number of bypassed loads.
    let p = Benchmark::Bdna.program(Scale::Quick);
    let counts: Vec<u64> = [4usize, 8, 16]
        .into_iter()
        .map(|sq| {
            Machine::byp(1, 4, sq)
                .simulate(&p)
                .decoupled()
                .unwrap()
                .bypassed_loads
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "bypass counts not monotone in store queue size: {counts:?}"
    );
}
