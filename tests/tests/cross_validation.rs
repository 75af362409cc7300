//! Cross-machine consistency: the two simulators must agree on everything
//! that is a property of the *program*, not the microarchitecture.

use dva_sim_api::Machine;
use dva_workloads::{Benchmark, Scale};

#[test]
fn machines_agree_on_memory_traffic() {
    // Without bypass, both machines move exactly the same words to and
    // from memory; only scalar cache contents could differ, and both use
    // the same cache model over the same address stream.
    for b in Benchmark::ALL {
        let p = b.program(Scale::Quick);
        let r = Machine::reference(30).simulate(&p);
        let d = Machine::dva(30).simulate(&p);
        assert_eq!(
            r.traffic.vector_load_elems,
            d.traffic.vector_load_elems,
            "{}: vector load traffic differs",
            b.name()
        );
        assert_eq!(
            r.traffic.vector_store_elems,
            d.traffic.vector_store_elems,
            "{}: vector store traffic differs",
            b.name()
        );
        assert_eq!(
            r.traffic.scalar_store_words,
            d.traffic.scalar_store_words,
            "{}: scalar store traffic differs",
            b.name()
        );
    }
}

#[test]
fn traffic_is_latency_invariant() {
    let p = Benchmark::Flo52.program(Scale::Quick);
    let t1 = Machine::dva(1).simulate(&p).traffic;
    let t100 = Machine::dva(100).simulate(&p).traffic;
    assert_eq!(t1, t100);
}

#[test]
fn instruction_counts_match_the_trace() {
    for b in Benchmark::ALL {
        let p = b.program(Scale::Quick);
        let r = Machine::reference(1).simulate(&p);
        let d = Machine::dva(1).simulate(&p);
        assert_eq!(r.insts, p.len() as u64);
        assert_eq!(d.insts, p.len() as u64);
    }
}

#[test]
fn cache_hit_rates_are_plausible_and_close() {
    // Same cache geometry, same address stream: hit rates should be in
    // the same ballpark (timing differences can reorder fills slightly
    // between scalar stores and loads, so exact equality is not
    // required).
    let p = Benchmark::Trfd.program(Scale::Quick);
    let r = Machine::reference(30).simulate(&p);
    let d = Machine::dva(30).simulate(&p);
    assert!(r.cache_hit_rate > 0.3 && r.cache_hit_rate <= 1.0);
    assert!((r.cache_hit_rate - d.cache_hit_rate).abs() < 0.05);
}

#[test]
fn bus_utilization_is_higher_on_the_dva() {
    // Decoupling exists to keep the memory port busy: on memory-bound
    // programs the DVA's bus utilization should beat the REF's.
    for b in [Benchmark::Arc2d, Benchmark::Flo52] {
        let p = b.program(Scale::Quick);
        let r = Machine::reference(70).simulate(&p);
        let d = Machine::dva(70).simulate(&p);
        assert!(
            d.bus_utilization > r.bus_utilization,
            "{}: DVA bus {:.2} <= REF bus {:.2}",
            b.name(),
            d.bus_utilization,
            r.bus_utilization
        );
    }
}
