//! End-to-end and per-layer benchmark of the sweep library and the
//! `dva-serve` daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold|serve_warm|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run generates its jobs from `--seed`, drives them in a closed
//! loop for at least `--seconds` seconds (and at least [`MIN_JOBS`]
//! jobs), checks every output, and prints as its last line one JSON
//! object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! same jobs through each layer's public functions, records spans around
//! those calls, writes them as a Chrome trace under `.perfbench/traces/`
//! and reports the per-layer metrics. `attempted` and `failed` count
//! jobs; failed points are printed on the lines before.

mod cold;
mod common;
mod serve;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

// Counts every heap allocation, for `sweep.allocs_per_point`.
#[global_allocator]
static ALLOC: dva_testutil::CountingAllocator = dva_testutil::CountingAllocator;

/// Jobs every run measures at least, whatever `--seconds` says: enough
/// for a 90th percentile with ten samples beyond it.
pub const MIN_JOBS: usize = 100;

/// The leading jobs every exact count covers, so that one seed gives the
/// same counts however many jobs the time budget lets through.
pub const COUNT_JOBS: usize = 100;

/// The leading jobs whose results the pinned digests cover.
pub const DIGEST_JOBS: usize = 20;

/// Every end-to-end metric, as `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("points_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("first_point_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wire_bytes_per_point", "bytes"),
];

/// Every per-layer metric, as `(name, unit)`, in report order. A traced
/// run reports all of them; a layer its workload's jobs never call
/// reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("workloads.gen_ms", "ms"),
    ("prepare.translate_ms", "ms"),
    ("engine.dva.ticks_per_point", "count"),
    ("engine.byp.ticks_per_point", "count"),
    ("engine.ref.ticks_per_point", "count"),
    ("engine.dva.ns_per_tick", "ns"),
    ("engine.byp.ns_per_tick", "ns"),
    ("engine.ref.ns_per_tick", "ns"),
    ("engine.ideal.us_per_point", "us"),
    ("sweep.parallel_eff", "ratio"),
    ("sweep.allocs_per_point", "count"),
    ("adaptive.rounds_per_job", "count"),
    ("adaptive.sampled_frac", "ratio"),
    ("adaptive.plan_us_per_round", "us"),
    ("key.us_per_point", "us"),
    ("cache.get_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_bytes_per_store", "bytes"),
    ("cache.evictions_per_job", "count"),
    ("proto.render_us_per_point", "us"),
    ("proto.parse_us_per_point", "us"),
    ("proto.wire_bytes_per_point", "bytes"),
    ("transport.us_per_point", "us"),
    ("exec.inproc_points_per_s", "1/s"),
    ("exec.wire_overhead_x", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Jobs submitted, set-up jobs excluded.
    pub attempted: usize,
    /// Jobs that failed: a failed point, an `error` line or a broken
    /// connection.
    pub failed: usize,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Fills the metrics a run reports from the values it measured:
    /// every end-to-end metric untraced, every per-layer metric traced.
    pub fn report(&mut self, trace: bool, values: &HashMap<&str, f64>) -> Result<(), String> {
        let names: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in names {
            let value = match values.get(name) {
                Some(&value) => value,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            self.metrics.push((name, value, unit));
        }
        Ok(())
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

const USAGE: &str = "usage: perfbench --workload sweep_cold|serve_warm|serve_mixed \
--seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(Duration::from_secs(number()?)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    // The fresh-process set-up probe the cold and serve workloads spawn.
    if argv.peek().map(String::as_str) == Some(common::PROBE_FLAG) {
        argv.next();
        return common::probe_main(argv.next().as_deref());
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep_cold" => cold::run(&args),
        "serve_warm" => serve::run_warm(&args),
        "serve_mixed" => serve::run_mixed(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.render());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed");
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
