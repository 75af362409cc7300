//! The unified `Machine` / `Sweep` API, exercised end to end across
//! crates: golden cross-machine orderings and the determinism guarantee
//! of parallel sweep sessions.

use dva_core::{DvaConfig, QueueConfig};
use dva_memory::MemoryParams;
use dva_ref::RefParams;
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::{Benchmark, Scale};

/// The golden cross-machine ordering: IDEAL is a lower bound on the DVA,
/// and at the paper's realistic latencies the DVA never loses to REF.
///
/// Below L≈50 the lockstep-bound DYFESM runs slightly *slower* decoupled
/// than coupled (the paper reports it latency-neutral at speedup ~1.0),
/// so for low latencies the REF comparison carries a 10% tolerance; the
/// IDEAL bound is strict everywhere.
#[test]
fn golden_cycle_ordering_ideal_dva_ref() {
    for benchmark in Benchmark::ALL {
        let program = benchmark.program(Scale::Quick);
        let ideal = Machine::ideal().simulate(&program).cycles;
        for latency in [1u64, 10, 30, 50, 70, 100] {
            let dva = Machine::dva(latency).simulate(&program).cycles;
            let reference = Machine::reference(latency).simulate(&program).cycles;
            assert!(
                ideal <= dva,
                "{} L={latency}: IDEAL {ideal} above DVA {dva}",
                benchmark.name()
            );
            assert!(
                ideal <= reference,
                "{} L={latency}: IDEAL {ideal} above REF {reference}",
                benchmark.name()
            );
            if latency >= 50 {
                assert!(
                    dva <= reference,
                    "{} L={latency}: DVA {dva} above REF {reference}",
                    benchmark.name()
                );
            } else {
                assert!(
                    dva as f64 <= reference as f64 * 1.10,
                    "{} L={latency}: DVA {dva} more than 10% above REF {reference}",
                    benchmark.name()
                );
            }
        }
    }
}

fn full_grid(threads: usize) -> SweepResults {
    Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
            Machine::ideal(),
        ])
        .benchmarks(Benchmark::ALL)
        .latencies([1, 30])
        .scale(Scale::Quick)
        .threads(threads)
        .run()
}

/// A parallel sweep returns byte-identical results to a sequential one:
/// same points, same order, same measurements.
#[test]
fn parallel_sweep_matches_sequential_byte_for_byte() {
    let sequential = full_grid(1);
    let parallel = full_grid(8);
    assert_eq!(sequential.points.len(), 4 * Benchmark::ALL.len() * 2);
    assert_eq!(sequential, parallel);
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "parallel sweep must serialize identically to a sequential one"
    );
}

/// Repeated sessions are reproducible: workload generation and both
/// simulators are deterministic end to end.
#[test]
fn sweep_sessions_are_reproducible_across_runs() {
    assert_eq!(full_grid(4), full_grid(4));
}

/// A configuration built by struct update on a named constructor
/// produces the same machine as the named constructor for it, all the
/// way through simulation.
#[test]
fn builders_feed_machines() {
    let program = Benchmark::Trfd.program(Scale::Quick);
    let updated = Machine::Dva(DvaConfig {
        queues: QueueConfig {
            avdq: 4,
            store_queue: 8,
            ..QueueConfig::default()
        },
        bypass: true,
        ..DvaConfig::dva(30)
    });
    assert_eq!(updated, Machine::byp(30, 4, 8));
    assert_eq!(updated.label(), "BYP 4/8");
    assert_eq!(
        updated.simulate(&program),
        Machine::byp(30, 4, 8).simulate(&program)
    );

    let updated = Machine::Ref(RefParams {
        memory: MemoryParams::with_latency(30),
        ..RefParams::default()
    });
    assert_eq!(
        updated.simulate(&program),
        Machine::reference(30).simulate(&program)
    );
}
