//! Translate-once equivalence: compiled-program runs (shared
//! translation + reused engines) must be byte-identical to
//! fresh-translate runs, across machines × latencies × memory models.

use dva_core::{DvaConfig, DvaRunner};
use dva_ref::{ChainPolicy, RefParams, RefRunner};
use dva_sim_api::{Machine, MemoryModelKind, PreparedProgram, Runners, Sweep};
use dva_tests::arb_program;
use dva_workloads::{Benchmark, Scale};
use proptest::prelude::*;
use std::sync::Arc;

const MODELS: [MemoryModelKind; 3] = [
    MemoryModelKind::Flat,
    MemoryModelKind::Banked {
        banks: 8,
        bank_busy: 8,
    },
    MemoryModelKind::MultiPort { ports: 2 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One translation, one runner, many configurations: every
    /// compiled-program run equals the fresh-translate run of the same
    /// point. This is simultaneously the reset-contract workout — the
    /// runner's engine is reused across every configuration in sequence.
    #[test]
    fn compiled_runs_equal_fresh_translate_runs(
        program in arb_program(),
        latency in 1u64..=100,
    ) {
        let compiled = Arc::new(dva_core::CompiledProgram::compile(&program));
        let mut runner = DvaRunner::new();
        for model in MODELS {
            for mut config in [DvaConfig::dva(latency), DvaConfig::byp(latency, 4, 8)] {
                config.memory.model = model;
                let fresh = Machine::Dva(config).simulate(&program);
                let (core, detail) = runner.try_run(&config, &compiled, true).unwrap();
                prop_assert_eq!(&core, &fresh.core);
                prop_assert_eq!(Some(&detail), fresh.decoupled());
            }
        }

        let ref_compiled = Arc::new(dva_ref::CompiledProgram::compile(&program));
        let mut ref_runner = RefRunner::new();
        for model in MODELS {
            let mut params = RefParams::with_latency(latency);
            params.memory.model = model;
            let fresh = Machine::Ref(params).simulate(&program);
            let core = ref_runner
                .try_run(&params, ChainPolicy::reference(), &ref_compiled, true)
                .unwrap();
            prop_assert_eq!(core, fresh.core);
        }
    }
}

/// The full grid, sweep path (shared compiled programs, per-worker
/// engine reuse) vs the one-shot path (fresh everything per point).
#[test]
fn sweep_grid_matches_per_point_simulation() {
    let machines = [
        Machine::reference(1),
        Machine::dva(1),
        Machine::byp(1, 4, 8),
        Machine::ideal(),
    ];
    let benchmarks = [Benchmark::Trfd, Benchmark::Dyfesm];
    let latencies = [1u64, 30];
    let results = Sweep::new()
        .machines(machines)
        .benchmarks(benchmarks)
        .latencies(latencies)
        .memory_models(MODELS)
        .scale(Scale::Quick)
        .threads(2)
        .run();
    assert_eq!(results.points.len(), 4 * 2 * 2 * 3);
    let mut expected = Vec::new();
    for benchmark in benchmarks {
        let program = benchmark.program(Scale::Quick);
        for latency in latencies {
            for model in MODELS {
                for machine in machines {
                    let stamped = machine.with_latency(latency).with_memory_model(model);
                    expected.push(stamped.simulate(&program));
                }
            }
        }
    }
    for (point, expected) in results.points.iter().zip(&expected) {
        assert_eq!(
            &point.result, expected,
            "sweep point diverged from a one-shot run: {} {} L{} {}",
            point.label, point.program, point.latency, point.memory
        );
    }
}

/// `try_simulate_prepared` with long-lived runners equals `simulate` for
/// every machine kind, including IDEAL (cached bound) and the grid of
/// configurations a prepared program serves.
#[test]
fn prepared_simulation_is_byte_identical() {
    let program = Benchmark::Arc2d.program(Scale::Quick);
    let prepared = PreparedProgram::new(&program);
    let mut runners = Runners::new();
    for machine in [
        Machine::reference(30),
        Machine::dva(30),
        Machine::byp(30, 4, 8),
        Machine::ideal(),
    ] {
        for fast_forward in [true, false] {
            assert_eq!(
                machine
                    .try_simulate_prepared(&prepared, fast_forward, &mut runners)
                    .unwrap(),
                machine.simulate_with(&program, fast_forward),
                "machine {} ff={fast_forward}",
                machine.label()
            );
        }
    }
}
