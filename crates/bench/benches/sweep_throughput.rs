//! Bench: sweep throughput (grid points per second).
//!
//! The headline number for the translate-once + zero-allocation engine
//! work: how many grid points per second one `Sweep` session measures on
//! the full quick-scale grid — every benchmark × the four paper machines
//! × three latencies × two memory backends, single-threaded so the
//! number is comparable across machines with different core counts. The
//! session shares one compiled program per benchmark and one set of
//! engine allocations per worker; the checked-in `BENCH_sweep.json`
//! baseline also records the pre-compiled-programs throughput for
//! history.
//!
//! Besides the sequential headline row, the baseline records a
//! multi-threaded row (as many workers as the machine offers) and an
//! adaptive row: the high-resolution latency figure measured through
//! knee-finding refinement + dominance pruning against its own dense
//! grid. The sequential and adaptive throughputs each gate independently
//! under `PERF_GATE`, and the adaptive sampling fraction — which is
//! deterministic — gates exactly against its ≤40% budget.
//!
//! Under `BENCH_SMOKE` (CI) a single sample runs and is compared against
//! the checked-in baseline. Inside the noise band a shortfall prints a
//! `PERF-WARN:` line; below [`GATE_FRACTION`] of the baseline **and**
//! with `PERF_GATE` set in the environment, the bench prints `PERF-FAIL`
//! and exits nonzero — the CI regression gate. Without `PERF_GATE` every
//! check stays warn-only (developer machines vary too widely to gate).
//! With `BENCH_UPDATE` set the baseline is rewritten; otherwise the tree
//! is left untouched.

use dva_serve::{ResultCache, SweepService, DEFAULT_MEMORY_CAPACITY};
use dva_sim_api::{AdaptiveOutcome, AdaptiveSweep, Machine, MemoryModelKind, Sweep, SweepResults};
use dva_workloads::{Benchmark, Scale};
use std::fmt::Write as _;
use std::time::Instant;

const LATENCIES: [u64; 3] = [1, 30, 100];
/// Throughput below this fraction of the checked-in baseline prints a
/// PERF-WARN in smoke mode (generous: CI machines vary widely).
const WARN_FRACTION: f64 = 0.5;
/// With `PERF_GATE` set, throughput below this fraction of the baseline
/// fails the bench (>25% regression — beyond same-class-machine noise).
const GATE_FRACTION: f64 = 0.75;

/// Measured pre-PR (translate-per-point, allocate-per-tick engines) with
/// the same grid, machine and method; kept for the history books.
const PRE_COMPILED_POINTS_PER_SEC: f64 = 1965.3;

/// The adaptive run may sample at most this fraction of its dense grid —
/// the PR's acceptance bar, checked deterministically under `PERF_GATE`.
const ADAPTIVE_MAX_FRACTION: f64 = 0.40;

fn grid() -> Sweep {
    Sweep::new()
        .machines([
            Machine::reference(1),
            Machine::dva(1),
            Machine::byp(1, 4, 8),
            Machine::ideal(),
        ])
        .benchmarks(Benchmark::ALL)
        .latencies(LATENCIES)
        .memory_models([
            MemoryModelKind::Flat,
            MemoryModelKind::Banked {
                banks: 8,
                bank_busy: 8,
            },
        ])
        .scale(Scale::Quick)
        .threads(1)
}

/// The adaptive session of the high-resolution latency figure
/// (`fig5_adaptive`): five machines × six benchmarks × a 100-point
/// latency axis, seeded at seven latencies per curve with the bypass
/// machines dominance-pruned against the base DVA.
fn adaptive_session() -> AdaptiveSweep {
    AdaptiveSweep::over(
        Sweep::new()
            .machines([
                Machine::reference(1),
                Machine::dva(1),
                Machine::byp(1, 4, 4),
                Machine::byp(1, 256, 16),
                Machine::ideal(),
            ])
            .benchmarks(Benchmark::ALL)
            .scale(Scale::Quick)
            .threads(1),
        1..=100,
    )
    .seeds(7)
    .tolerance(0.02)
    .prune_against("DVA", ["BYP 4/4", "BYP 256/16"])
}

/// What the checked-in baseline records about the adaptive session.
struct AdaptiveRow {
    dense_points: usize,
    sampled_points: usize,
    fraction: f64,
    median_secs: f64,
    points_per_sec: f64,
    speedup_vs_dense: f64,
}

/// Median wall-clock seconds for one full adaptive session, checking
/// every sample against the warmup outcome for reproducibility.
fn median_adaptive_secs(adaptive: &AdaptiveSweep, samples: usize, warm: &AdaptiveOutcome) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let outcome = criterion::black_box(adaptive.run());
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(&outcome, warm, "adaptive sessions must be reproducible");
            secs
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median wall-clock seconds for one full run of `sweep`, checking every
/// sample against the warmup results for reproducibility.
fn median_run_secs(sweep: &Sweep, samples: usize, warm: &SweepResults) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let results = criterion::black_box(sweep.run());
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(results.points, warm.points, "sweeps must be reproducible");
            secs
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let smoke = criterion::smoke_mode();
    let sweep = grid();
    let points = sweep.len();

    // Warmup: populate the program and compiled-program caches and touch
    // every code path once, so the samples measure steady-state sweeps.
    let warm = sweep.run();
    assert_eq!(warm.points.len(), points, "grid must measure every point");

    let samples = if smoke { 3 } else { 9 };
    let median = median_run_secs(&sweep, samples, &warm);
    let points_per_sec = points as f64 / median;
    println!(
        "sweep_throughput: {points} points in {:.1}ms -> {points_per_sec:.1} points/sec \
         (1 thread, median of {samples}; pre-compiled-programs baseline {PRE_COMPILED_POINTS_PER_SEC:.1})",
        1e3 * median,
    );

    // Multi-threaded row: every core the machine offers (at least two
    // workers, so the work-stealing path is exercised even on one core).
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let threaded = grid().threads(workers);
    let threaded_median = median_run_secs(&threaded, samples, &warm);
    let threaded_points_per_sec = points as f64 / threaded_median;
    println!(
        "sweep_throughput: {workers} threads {points} points in {:.1}ms -> \
         {threaded_points_per_sec:.1} points/sec ({:.2}x one thread)",
        1e3 * threaded_median,
        threaded_points_per_sec / points_per_sec,
    );

    // Warm-cache throughput through the sweep service: the first job pays
    // for every grid point, a repeat of the identical job is answered
    // entirely from the content-addressed cache.
    let service = SweepService::new(ResultCache::in_memory(DEFAULT_MEMORY_CAPACITY));
    let (cached, summary) = service.run(&sweep).expect("grid is serializable");
    assert_eq!(summary.simulated, points, "cold service run simulates all");
    assert_eq!(cached.points, warm.points, "served results are identical");
    let mut warm_times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let (results, summary) = criterion::black_box(service.run(&sweep).expect("warm run"));
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(summary.cache_hits, points, "warm run is all cache hits");
            assert_eq!(results.points, warm.points, "cached results are identical");
            secs
        })
        .collect();
    warm_times.sort_by(f64::total_cmp);
    let warm_median = warm_times[warm_times.len() / 2];
    let warm_points_per_sec = points as f64 / warm_median;
    println!(
        "sweep_throughput: warm cache {points} points in {:.2}ms -> {warm_points_per_sec:.1} \
         points/sec ({:.1}x the cold sweep)",
        1e3 * warm_median,
        warm_points_per_sec / points_per_sec,
    );
    if warm_points_per_sec < 10.0 * points_per_sec {
        println!(
            "PERF-WARN: warm-cache throughput {warm_points_per_sec:.1} points/sec is below 10x \
             the cold sweep {points_per_sec:.1} (cache lookups should dwarf simulation)"
        );
    }

    // Adaptive row: the high-resolution latency figure measured through
    // knee-finding refinement + dominance pruning, against its own dense
    // grid. Both run sequentially on the same engines, so the speedup is
    // the sampling plan's doing alone.
    let adaptive = adaptive_session();
    let warm_adaptive = adaptive.run();
    let report = warm_adaptive.report.clone();
    let adaptive_median = median_adaptive_secs(&adaptive, samples, &warm_adaptive);
    let dense_sweep = adaptive.dense();
    let warm_dense = dense_sweep.run();
    let dense_median = median_run_secs(&dense_sweep, samples, &warm_dense);
    let adaptive_row = AdaptiveRow {
        dense_points: report.dense_points,
        sampled_points: report.sampled_points,
        fraction: report.sampled_fraction(),
        median_secs: adaptive_median,
        points_per_sec: report.sampled_points as f64 / adaptive_median,
        speedup_vs_dense: dense_median / adaptive_median,
    };
    println!(
        "sweep_throughput: adaptive {} of {} dense points ({:.1}%) in {:.1}ms -> \
         {:.1} points/sec, {:.2}x the dense sweep ({:.1}ms)",
        adaptive_row.sampled_points,
        adaptive_row.dense_points,
        100.0 * adaptive_row.fraction,
        1e3 * adaptive_row.median_secs,
        adaptive_row.points_per_sec,
        adaptive_row.speedup_vs_dense,
        1e3 * dense_median,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    if std::env::var_os("BENCH_UPDATE").is_some() && !smoke {
        std::fs::write(
            path,
            render_json(
                points,
                median,
                points_per_sec,
                warm_points_per_sec,
                workers,
                threaded_points_per_sec,
                &adaptive_row,
            ),
        )
        .expect("write baseline");
        println!("sweep_throughput: wrote {path}");
        return;
    }

    // Regression check against the checked-in baseline: warn inside the
    // noise band, fail (under PERF_GATE) beyond it. The sequential and
    // the adaptive figures gate independently.
    let gated = std::env::var_os("PERF_GATE").is_some();
    let doc = std::fs::read_to_string(path).ok();
    let mut failed = false;
    let rows = [
        ("points_per_sec", points_per_sec),
        ("adaptive_points_per_sec", adaptive_row.points_per_sec),
    ];
    for (key, measured) in rows {
        match doc.as_deref().and_then(|s| json_f64(s, key)) {
            Some(baseline) => {
                let ratio = measured / baseline;
                println!(
                    "sweep_throughput: {key} {:.2}x the checked-in baseline \
                     ({baseline:.1} points/sec)",
                    ratio
                );
                if gated && ratio < GATE_FRACTION {
                    println!(
                        "PERF-FAIL: {key} {measured:.1} points/sec is below \
                         {GATE_FRACTION}x the checked-in baseline {baseline:.1} — a >25% \
                         regression (rebaseline deliberately with BENCH_UPDATE=1 if intended)"
                    );
                    failed = true;
                }
                if ratio < WARN_FRACTION {
                    println!(
                        "PERF-WARN: {key} {measured:.1} points/sec is below \
                         {WARN_FRACTION}x the checked-in baseline {baseline:.1} \
                         (machines differ; investigate only if this regressed on the same hardware)"
                    );
                }
            }
            None if gated => {
                println!(
                    "PERF-FAIL: no readable {key} baseline at {path} (required under PERF_GATE)"
                );
                failed = true;
            }
            None => println!("sweep_throughput: no readable {key} baseline at {path}"),
        }
    }
    // The sampling fraction is deterministic — the same curves produce
    // the same plan on every machine — so it gates exactly, with no
    // noise band: the adaptive figure must stay within the PR's ≤40%
    // budget of its dense grid.
    if adaptive_row.fraction > ADAPTIVE_MAX_FRACTION {
        println!(
            "PERF-{}: adaptive session sampled {:.1}% of its dense grid, above the \
             {:.0}% budget ({} of {} points)",
            if gated { "FAIL" } else { "WARN" },
            100.0 * adaptive_row.fraction,
            100.0 * ADAPTIVE_MAX_FRACTION,
            adaptive_row.sampled_points,
            adaptive_row.dense_points,
        );
        failed |= gated;
    }
    if failed {
        std::process::exit(1);
    }
    println!("sweep_throughput: set BENCH_UPDATE=1 to rewrite BENCH_sweep.json");
}

/// Extracts `"key": <number>` from a flat JSON document — enough for the
/// baseline file this bench writes itself.
fn json_f64(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &doc[doc.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn render_json(
    points: usize,
    median_secs: f64,
    points_per_sec: f64,
    warm_cache_points_per_sec: f64,
    multi_thread_workers: usize,
    multi_thread_points_per_sec: f64,
    adaptive: &AdaptiveRow,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"sweep_throughput\",\n");
    out.push_str("  \"grid\": {\n");
    out.push_str("    \"machines\": [\"REF\", \"DVA\", \"BYP 4/8\", \"IDEAL\"],\n");
    out.push_str("    \"programs\": 6,\n");
    let _ = writeln!(out, "    \"latencies\": {LATENCIES:?},");
    out.push_str("    \"memory_models\": [\"flat\", \"banked8x8\"],\n");
    out.push_str("    \"scale\": \"quick\",\n");
    out.push_str("    \"threads\": 1\n");
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"points\": {points},");
    let _ = writeln!(out, "  \"median_seconds\": {median_secs:.6},");
    let _ = writeln!(out, "  \"points_per_sec\": {points_per_sec:.1},");
    let _ = writeln!(
        out,
        "  \"warm_cache_points_per_sec\": {warm_cache_points_per_sec:.1},"
    );
    let _ = writeln!(out, "  \"multi_thread_workers\": {multi_thread_workers},");
    let _ = writeln!(
        out,
        "  \"multi_thread_points_per_sec\": {multi_thread_points_per_sec:.1},"
    );
    let _ = writeln!(
        out,
        "  \"adaptive_dense_points\": {},",
        adaptive.dense_points
    );
    let _ = writeln!(
        out,
        "  \"adaptive_sampled_points\": {},",
        adaptive.sampled_points
    );
    let _ = writeln!(
        out,
        "  \"adaptive_points_fraction\": {:.4},",
        adaptive.fraction
    );
    let _ = writeln!(
        out,
        "  \"adaptive_median_seconds\": {:.6},",
        adaptive.median_secs
    );
    let _ = writeln!(
        out,
        "  \"adaptive_points_per_sec\": {:.1},",
        adaptive.points_per_sec
    );
    let _ = writeln!(
        out,
        "  \"adaptive_speedup_vs_dense\": {:.2},",
        adaptive.speedup_vs_dense
    );
    let _ = writeln!(
        out,
        "  \"pre_compiled_programs_points_per_sec\": {PRE_COMPILED_POINTS_PER_SEC:.1}"
    );
    out.push_str("}\n");
    out
}
