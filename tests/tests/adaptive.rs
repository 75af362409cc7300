//! Contract of the adaptive sweep sessions: every point an adaptive run
//! emits is byte-identical to the dense sweep's, the sampling plan is
//! deterministic regardless of worker threads, and dominance pruning
//! never drops a configuration that beats the baseline anywhere on the
//! dense axis.

use dva_serve::{Client, ResultCache, SweepService};
use dva_sim_api::{AdaptiveSweep, Machine, Sweep};
use dva_workloads::{Benchmark, Scale};
use proptest::prelude::*;

/// The machine pool the proptests draw candidates from. `DVA` is always
/// present as the pruning baseline; the others are candidates.
const CANDIDATES: [fn() -> Machine; 3] = [
    || Machine::reference(1),
    || Machine::byp(1, 4, 4),
    || Machine::byp(1, 256, 16),
];

fn grid(candidates: &[usize], benchmark: Benchmark) -> Sweep {
    let mut machines = vec![Machine::dva(1)];
    machines.extend(candidates.iter().map(|&i| CANDIDATES[i]()));
    Sweep::new()
        .machines(machines)
        .benchmarks([benchmark])
        .scale(Scale::Quick)
        .threads(1)
}

fn benchmark(index: usize) -> Benchmark {
    Benchmark::ALL[index % Benchmark::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every point the adaptive session measures — over arbitrary axis
    /// windows, seed counts and tolerances — is byte-identical to the
    /// point the dense sweep produces at the same coordinate.
    #[test]
    fn adaptive_points_are_byte_identical_to_the_dense_sweep(
        bench_index in 0usize..6,
        start in 1u64..=40,
        len in 8u64..=24,
        seeds in 2usize..=6,
        tolerance_pct in 0u32..=10,
    ) {
        let adaptive = AdaptiveSweep::over(
            grid(&[0, 1], benchmark(bench_index)),
            start..=start + len,
        )
        .seeds(seeds)
        .tolerance(f64::from(tolerance_pct) / 100.0);
        let outcome = adaptive.run();
        let dense = adaptive.dense().run();
        prop_assert!(!outcome.results.points.is_empty());
        for point in &outcome.results.points {
            let reference = dense
                .named(&point.label, &point.program, point.latency)
                .expect("dense grid covers every adaptive coordinate");
            prop_assert_eq!(point, reference);
            prop_assert_eq!(format!("{point:?}"), format!("{reference:?}"));
        }
    }

    /// The sampling plan — which points get measured, in how many
    /// rounds, and what gets pruned — is a function of the measured
    /// curves alone: worker threads never change it, and the full
    /// outcome (points and report) is identical.
    #[test]
    fn the_sampling_plan_ignores_threads(
        bench_index in 0usize..6,
        seeds in 3usize..=6,
    ) {
        let session = |threads: usize| {
            AdaptiveSweep::over(grid(&[0, 1, 2], benchmark(bench_index)).threads(threads), 1..=30)
                .seeds(seeds)
                .prune_against("DVA", ["REF", "BYP 4/4", "BYP 256/16"])
                .run()
        };
        let reference = session(1);
        for threads in [2, 8] {
            let outcome = session(threads);
            prop_assert_eq!(&outcome.results, &reference.results,
                "threads={} changed the measured points", threads);
            prop_assert_eq!(&outcome.report, &reference.report,
                "threads={} changed the sampling report", threads);
        }
    }

    /// Dominance pruning is sound: a pruned configuration's *dense*
    /// curve never strictly beats the baseline at any latency of the
    /// axis — pruning only ever skips points that interpolation or the
    /// baseline already covers.
    #[test]
    fn pruning_never_drops_a_curve_that_beats_the_baseline(
        bench_index in 0usize..6,
        start in 1u64..=50,
        len in 10u64..=20,
        seeds in 3usize..=6,
    ) {
        let bench = benchmark(bench_index);
        let adaptive = AdaptiveSweep::over(grid(&[0, 1, 2], bench), start..=start + len)
            .seeds(seeds)
            .prune_against("DVA", ["REF", "BYP 4/4", "BYP 256/16"]);
        let outcome = adaptive.run();
        if outcome.report.pruned().next().is_none() {
            return Ok(());
        }
        let dense = adaptive.dense().run();
        for curve in outcome.report.pruned() {
            for latency in adaptive.axis() {
                let candidate = dense
                    .named(&curve.label, &curve.program, *latency)
                    .expect("dense point")
                    .result
                    .cycles;
                let baseline = dense
                    .named("DVA", &curve.program, *latency)
                    .expect("dense baseline")
                    .result
                    .cycles;
                prop_assert!(
                    candidate >= baseline,
                    "{} was pruned on {} but beats DVA at L={} ({} < {})",
                    curve.label, curve.program, latency, candidate, baseline
                );
            }
        }
    }
}

/// The adaptive job kind end to end over a unix socket: the daemon
/// streams byte-identical points with dense grid indices, reports the
/// sampling summary, and shares its cache with dense jobs in both
/// directions.
#[test]
fn adaptive_jobs_round_trip_the_socket_and_share_the_cache() {
    let socket = std::env::temp_dir().join(format!("dva-adaptive-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let service = std::sync::Arc::new(SweepService::new(ResultCache::in_memory(4096)));
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || dva_serve::serve_unix(service, &socket))
    };
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(client) => break client,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };

    let adaptive = AdaptiveSweep::over(grid(&[0], Benchmark::Trfd), 1..=40)
        .seeds(5)
        .prune_against("DVA", ["REF"]);
    let dense = adaptive.dense();
    let reference = dense.clone().run();

    // Cold adaptive job: every streamed point carries its dense grid
    // index and matches the dense run byte for byte.
    let summary = client
        .submit_adaptive_streaming(&adaptive, |index, point| {
            assert_eq!(point, reference.points[index]);
        })
        .unwrap();
    assert_eq!(summary.dense, reference.points.len());
    assert_eq!(summary.cache_hits, 0);
    assert_eq!(summary.simulated, summary.sampled);
    assert_eq!(
        summary.sampled + summary.interpolated + summary.dominated,
        summary.dense,
        "every dense point is sampled, interpolated, or dominated"
    );

    // The adaptive job warmed the shared cache: a dense job over the
    // same grid only simulates the points the session skipped.
    let (full, cost) = client.submit(&dense).unwrap();
    assert_eq!(full, reference);
    assert_eq!(cost.cache_hits, summary.sampled);
    assert_eq!(cost.simulated, summary.interpolated + summary.dominated);

    // And the other way: a repeat adaptive job is now pure cache hits.
    let (results, summary) = client.submit_adaptive(&adaptive).unwrap();
    assert_eq!(summary.simulated, 0);
    assert_eq!(summary.cache_hits, summary.sampled);
    for point in &results.points {
        let reference = reference
            .named(&point.label, &point.program, point.latency)
            .expect("dense coordinate");
        assert_eq!(point, reference);
    }

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket cleaned up on shutdown");
}
