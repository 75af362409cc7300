//! End-to-end contract of the sweep service: results served through the
//! daemon — cached, streamed, work-stolen, or straight off the wire —
//! are byte-identical to a fresh single-threaded `Sweep::run`.

use dva_json::ToJson;
use dva_serve::{Client, PointKey, ResultCache, SweepService};
use dva_sim_api::{Machine, MemoryModelKind, PointSpec, Sweep};
use dva_workloads::{Benchmark, Scale};
use proptest::prelude::*;

/// The paper's full evaluation grid: 4 machines × 6 benchmarks ×
/// 3 latencies × 3 memory models = 216 points.
fn full_grid() -> Sweep {
    Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
            Machine::ideal(),
        ])
        .benchmarks(Benchmark::ALL)
        .latencies([1, 30, 100])
        .memory_models([
            MemoryModelKind::Flat,
            MemoryModelKind::Banked {
                banks: 8,
                bank_busy: 8,
            },
            MemoryModelKind::MultiPort { ports: 2 },
        ])
        .scale(Scale::Quick)
}

#[test]
fn daemon_results_are_byte_identical_to_a_fresh_sequential_run() {
    let fresh = full_grid().threads(1).run();
    assert_eq!(fresh.points.len(), 216);

    // Work-stolen and streamed, in-process.
    let streamed: Vec<_> = full_grid().threads(4).run_streaming().collect();
    assert_eq!(streamed, fresh.points);

    // Through the service (cold cache), then through it again (warm).
    let service = SweepService::new(ResultCache::in_memory(1024));
    let (cold, cost) = service.run(&full_grid().threads(4)).unwrap();
    assert_eq!(cold, fresh);
    assert_eq!(format!("{cold:?}"), format!("{fresh:?}"));
    assert_eq!(cost.total, 216);
    assert_eq!(cost.cache_hits, 0);

    let (warm, cost) = service.run(&full_grid().threads(4)).unwrap();
    assert_eq!(warm, fresh);
    assert_eq!(cost.cache_hits, 216, "warm rerun is 100% cache hits");
    assert_eq!(cost.simulated, 0, "warm rerun simulates nothing");
}

#[test]
fn socket_daemon_round_trips_jobs_and_shuts_down() {
    let socket = std::env::temp_dir().join(format!("dva-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let service = std::sync::Arc::new(SweepService::new(ResultCache::in_memory(1024)));
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || dva_serve::serve_unix(service, &socket))
    };
    // The server binds asynchronously; wait for the socket to appear.
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(client) => break client,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    assert_eq!(client.ping().unwrap(), dva_serve::ENGINE_VERSION);

    let sweep = Sweep::new()
        .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
        .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
        .latencies([1, 30])
        .scale(Scale::Quick)
        .threads(2);
    let fresh = sweep.clone().threads(1).run();

    let (first, cost) = client.submit(&sweep).unwrap();
    assert_eq!(first, fresh, "wire round trip preserves every byte");
    assert_eq!(format!("{first:?}"), format!("{fresh:?}"));
    assert_eq!(cost.simulated, 12);

    // A second client session hits the daemon's shared cache.
    let mut second_client = Client::connect(&socket).unwrap();
    let mut indices = Vec::new();
    let cost = second_client
        .submit_outcomes(&sweep, None, |index, outcome| {
            assert_eq!(outcome.unwrap(), fresh.points[index]);
            indices.push(index);
        })
        .unwrap();
    assert_eq!(
        indices,
        (0..12).collect::<Vec<_>>(),
        "grid order on the wire"
    );
    assert_eq!(cost.cache_hits, 12);
    assert_eq!(
        cost.simulated, 0,
        "repeat job over the wire simulates nothing"
    );

    // Close the second connection so the server's handler thread (blocked
    // on its next request line) sees EOF and can be joined.
    drop(second_client);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket cleaned up on shutdown");
}

/// A machine (with its latency and memory model stamped) for key
/// proptests.
fn machine_strategy() -> impl Strategy<Value = Machine> {
    let latency = 1u64..=100;
    let model = prop_oneof![
        Just(MemoryModelKind::Flat),
        (1u32..=4).prop_map(|p| MemoryModelKind::MultiPort { ports: p }),
        (1u32..=4, 1u64..=16).prop_map(|(b, busy)| MemoryModelKind::Banked {
            banks: 1 << b,
            bank_busy: busy,
        }),
    ]
    .boxed();
    prop_oneof![
        (latency.clone(), model.clone())
            .prop_map(|(l, m)| Machine::reference(l).with_memory_model(m)),
        (latency.clone(), model.clone()).prop_map(|(l, m)| Machine::dva(l).with_memory_model(m)),
        (latency, model, 1usize..=8, 1usize..=8)
            .prop_map(|(l, m, lq, sq)| Machine::byp(l, lq, sq).with_memory_model(m)),
        Just(Machine::ideal()),
    ]
}

fn spec_strategy() -> impl Strategy<Value = (PointSpec, bool)> {
    (machine_strategy(), 0usize..6, any::<bool>()).prop_map(|(machine, bench, ff)| {
        let benchmark = Benchmark::ALL[bench];
        (
            PointSpec {
                index: 0,
                benchmark: Some(benchmark),
                program: benchmark.program(Scale::Quick),
                machine,
                latency: machine.latency().unwrap_or(0),
                memory: machine.memory_model().unwrap_or(MemoryModelKind::Flat),
            },
            ff,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys collide exactly when the simulation inputs are identical:
    /// same machine configuration (by its canonical JSON), same program
    /// content, same stepping mode.
    #[test]
    fn point_keys_collide_only_for_identical_inputs(
        left in spec_strategy(),
        right in spec_strategy(),
    ) {
        let (a, ff_a) = left;
        let (b, ff_b) = right;
        let Ok(key_a) = PointKey::of(&a, ff_a);
        let Ok(key_b) = PointKey::of(&b, ff_b);
        let same_inputs = a.machine.render_json() == b.machine.render_json()
            && a.program.content_hash() == b.program.content_hash()
            && ff_a == ff_b;
        prop_assert_eq!(key_a == key_b, same_inputs);
    }

    /// Recomputing a key is deterministic, including across a program
    /// copy into fresh storage.
    #[test]
    fn point_keys_are_reproducible(case in spec_strategy()) {
        let (spec, ff) = case;
        let first = PointKey::of(&spec, ff).unwrap();
        prop_assert_eq!(&first, &PointKey::of(&spec, ff).unwrap());
        let mut copied = spec.clone();
        copied.program = dva_isa::Program::from_insts(
            copied.program.name(),
            copied.program.insts().to_vec(),
        );
        prop_assert_eq!(&first, &PointKey::of(&copied, ff).unwrap());
    }
}
