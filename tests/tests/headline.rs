//! The paper's headline results, asserted end to end across crates:
//! workload generation → both simulators → metrics.

use dva_core::ideal_bound;
use dva_sim_api::Machine;
use dva_workloads::{Benchmark, Scale};

fn speedup(b: Benchmark, latency: u64) -> f64 {
    let p = b.program(Scale::Quick);
    let r = Machine::reference(latency).simulate(&p);
    let d = Machine::dva(latency).simulate(&p);
    r.cycles as f64 / d.cycles as f64
}

/// Paper abstract: "decoupling provides a performance advantage … for
/// realistic memory latencies" — every program except the lockstep-bound
/// DYFESM speeds up clearly at L=100.
#[test]
fn decoupling_wins_at_realistic_latency() {
    for b in Benchmark::ALL {
        let sp = speedup(b, 100);
        if b == Benchmark::Dyfesm {
            assert!(
                (0.9..1.3).contains(&sp),
                "DYFESM should be latency-neutral, got {sp:.2}"
            );
        } else {
            assert!(sp > 1.25, "{}: speedup {sp:.2} too small", b.name());
        }
    }
}

/// Paper abstract: "even with an ideal memory system with no latency,
/// there is still a speedup" — no program collapses at L=1, and the
/// scalar-overlapping programs gain.
#[test]
fn decoupling_does_not_hurt_at_unit_latency() {
    for b in Benchmark::ALL {
        let sp = speedup(b, 1);
        assert!(sp > 0.90, "{}: L=1 speedup {sp:.2}", b.name());
    }
    assert!(speedup(Benchmark::Spec77, 1) > 1.05);
}

/// Paper Section 5: "the slopes of the execution time curves … are
/// substantially different" — the DVA tolerates latency much better.
#[test]
fn dva_latency_slope_is_flatter() {
    for b in [Benchmark::Arc2d, Benchmark::Flo52, Benchmark::Spec77] {
        let p = b.program(Scale::Quick);
        let growth = |cycles_1: u64, cycles_100: u64| cycles_100 as f64 / cycles_1 as f64;
        let r1 = Machine::reference(1).simulate(&p);
        let r100 = Machine::reference(100).simulate(&p);
        let d1 = Machine::dva(1).simulate(&p);
        let d100 = Machine::dva(100).simulate(&p);
        let ref_growth = growth(r1.cycles, r100.cycles);
        let dva_growth = growth(d1.cycles, d100.cycles);
        assert!(
            dva_growth < 0.6 * ref_growth + 0.5,
            "{}: REF grows {ref_growth:.2}x, DVA {dva_growth:.2}x",
            b.name()
        );
    }
}

/// Paper Figure 4: decoupling drains the all-idle state.
#[test]
fn idle_state_shrinks_under_decoupling() {
    for b in [Benchmark::Arc2d, Benchmark::Flo52, Benchmark::Spec77] {
        let p = b.program(Scale::Quick);
        let r = Machine::reference(70).simulate(&p);
        let d = Machine::dva(70).simulate(&p);
        assert!(
            r.idle_cycles() > d.idle_cycles(),
            "{}: REF idle {} <= DVA idle {}",
            b.name(),
            r.idle_cycles(),
            d.idle_cycles()
        );
    }
}

/// Both machines respect the IDEAL resource bound, and the bound's
/// bookkeeping matches the simulators' view of the workload.
#[test]
fn ideal_bound_is_a_true_lower_bound() {
    for b in Benchmark::ALL {
        let p = b.program(Scale::Quick);
        let bound = ideal_bound(&p).cycles();
        for latency in [1, 50] {
            let r = Machine::reference(latency).simulate(&p);
            let d = Machine::dva(latency).simulate(&p);
            assert!(bound <= r.cycles, "{}: bound above REF", b.name());
            assert!(bound <= d.cycles, "{}: bound above DVA", b.name());
        }
    }
}

/// State accounting is exhaustive on both machines: every cycle falls in
/// exactly one of the eight states.
#[test]
fn state_accounting_is_exhaustive() {
    let p = Benchmark::Dyfesm.program(Scale::Quick);
    let r = Machine::reference(30).simulate(&p);
    assert_eq!(r.states.total_cycles(), r.cycles);
    let d = Machine::dva(30).simulate(&p);
    assert_eq!(d.states.total_cycles(), d.cycles);
    assert_eq!(d.decoupled().unwrap().avdq_occupancy.total(), d.cycles);
}

/// Simulations are deterministic: identical inputs give identical
/// results.
#[test]
fn simulations_are_deterministic() {
    let p = Benchmark::Trfd.program(Scale::Quick);
    let r1 = Machine::reference(30).simulate(&p);
    let r2 = Machine::reference(30).simulate(&p);
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.states, r2.states);
    let d1 = Machine::dva(30).simulate(&p);
    let d2 = Machine::dva(30).simulate(&p);
    assert_eq!(d1.cycles, d2.cycles);
    assert_eq!(d1.traffic, d2.traffic);
}

/// Reference-machine execution time is monotone in memory latency.
#[test]
fn ref_time_is_monotone_in_latency() {
    for b in Benchmark::ALL {
        let p = b.program(Scale::Quick);
        let mut prev = 0;
        for latency in [1u64, 30, 70, 100] {
            let r = Machine::reference(latency).simulate(&p);
            assert!(r.cycles >= prev, "{} regressed at L={latency}", b.name());
            prev = r.cycles;
        }
    }
}
