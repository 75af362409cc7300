//! The benchmark's exact counts repeat: two traced runs of one seed
//! report every exact per-layer metric identically.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use dva_json::Json;
use std::process::Command;

/// The per-layer metrics that are counts of work, not times.
const EXACT: [&str; 10] = [
    "engine.dva.ticks_per_point",
    "engine.byp.ticks_per_point",
    "engine.ref.ticks_per_point",
    "sweep.allocs_per_point",
    "proto.wire_bytes_per_point",
    "cache.hit_ratio",
    "cache.evictions_per_job",
    "cache.disk_bytes_per_store",
    "adaptive.rounds_per_job",
    "adaptive.sampled_frac",
];

/// One traced run of the shortest length: exactly the minimum job count.
fn traced_run(workload: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark runs");
    assert!(output.status.success(), "{workload} run failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn exact_metrics(result: &Json) -> Vec<(&'static str, f64)> {
    let metrics = result.field("metrics").expect("metrics");
    EXACT
        .iter()
        .filter_map(|&name| {
            let value = metrics
                .field(name)
                .ok()?
                .field("value")
                .ok()?
                .as_f64()
                .ok()?;
            Some((name, value))
        })
        .collect()
}

#[test]
fn exact_metrics_repeat_for_one_seed() {
    for workload in ["sweep_cold", "serve_warm", "serve_mixed"] {
        let (first, second) = (traced_run(workload), traced_run(workload));
        let correct = first.field("correct").and_then(Json::as_bool);
        assert_eq!(correct.ok(), Some(true), "{workload}");
        let first = exact_metrics(&first);
        assert!(!first.is_empty(), "{workload} reports exact metrics");
        assert_eq!(first, exact_metrics(&second), "{workload}");
    }
}
