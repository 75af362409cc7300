//! Shared pieces: the seeded generator, order statistics, output checks,
//! the fresh-process set-up probe and host readings.

use crate::trace::Tracer;
use dva_sim_api::{PointSpec, PreparedProgram, Runners, SimResult, SweepPoint};
use dva_workloads::{Benchmark, Scale};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so one seed gives the
/// same jobs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` of the run's `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Deals the next of `n` choices: every `n` consecutive deals cover
    /// each choice once, in a seeded order, so that the mix of choices
    /// is the same however long a run is.
    pub fn deal(&mut self, deck: &mut Vec<usize>, n: usize) -> usize {
        if deck.is_empty() {
            *deck = (0..n).collect();
        }
        self.take(deck, 1)[0]
    }

    /// Removes and returns `k` seeded picks from `pool`, in pick order.
    pub fn take<T>(&mut self, pool: &mut Vec<T>, k: usize) -> Vec<T> {
        (0..k.min(pool.len()))
            .map(|_| {
                let i = self.below(pool.len());
                pool.swap_remove(i)
            })
            .collect()
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks. `values` need not be sorted; empty gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Consecutive jobs per throughput sample: one full deal of the cold
/// workload's program × model pairs, four rounds of the mixed pattern.
const BLOCK_JOBS: usize = 12;

/// Client-side times of every measured job.
#[derive(Default)]
pub struct JobTimes {
    walls: Vec<f64>,
    firsts: Vec<f64>,
    points: Vec<usize>,
}

impl JobTimes {
    pub fn add(&mut self, wall: Duration, first: Duration, points: usize) {
        self.walls.push(ms(wall));
        self.firsts.push(ms(first));
        self.points.push(points);
    }

    pub fn points(&self) -> usize {
        self.points.iter().sum()
    }

    /// `points_per_s` — the median throughput of consecutive blocks of
    /// jobs, so that a burst of host noise moves one block rather than
    /// the run — and the job-time percentiles.
    pub fn report(&self, values: &mut HashMap<&'static str, f64>) {
        let rates: Vec<f64> = self
            .walls
            .chunks_exact(BLOCK_JOBS)
            .zip(self.points.chunks_exact(BLOCK_JOBS))
            .map(|(walls, points)| {
                points.iter().sum::<usize>() as f64 / (walls.iter().sum::<f64>() / 1e3)
            })
            .collect();
        values.insert("points_per_s", median(&rates));
        values.insert("job_p50_ms", median(&self.walls));
        values.insert("job_p90_ms", percentile(&self.walls, 90.0));
        values.insert("first_point_p50_ms", median(&self.firsts));
    }
}

/// A point's canonical wire bytes: the JSON the daemon sends for it.
pub fn canonical(point: &SweepPoint) -> String {
    point
        .to_json()
        .expect("benchmark points use serializable machines")
        .render()
}

/// 64-bit FNV-1a over canonical point bytes, in job order.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &str) {
        for &b in bytes.as_bytes().iter().chain(b"\n") {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest pinned in `digests.txt` for this workload and seed.
fn pinned_digest(workload: &str, seed: u64) -> Option<&'static str> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(workload)
            && fields.next().and_then(|s| s.parse().ok()) == Some(seed);
        matches.then(|| fields.next()).flatten()
    })
}

/// Compares a run's digest against the pinned one, when one is pinned
/// for this seed. Returns whether the check passed.
pub fn check_digest(workload: &str, seed: u64, digest: &Digest) -> bool {
    let actual = digest.hex();
    match pinned_digest(workload, seed) {
        Some(pinned) if pinned == actual => {
            println!("digest {workload} seed {seed}: {actual} (matches the pinned digest)");
            true
        }
        Some(pinned) => {
            println!("digest {workload} seed {seed}: {actual} MISMATCH, pinned {pinned}");
            false
        }
        None => {
            println!("digest {workload} seed {seed}: {actual} (none pinned for this seed)");
            true
        }
    }
}

/// Checks `IDEAL ≤ DVA` on every curve of one job: each DVA point
/// against the IDEAL point of the same program and memory model.
pub fn ideal_bounds_dva(points: &[SweepPoint]) -> Result<(), String> {
    for dva in points.iter().filter(|p| p.label == "DVA") {
        let ideal = points
            .iter()
            .find(|p| p.label == "IDEAL" && p.program == dva.program && p.memory == dva.memory);
        if let Some(ideal) = ideal {
            if ideal.result.cycles > dva.result.cycles {
                return Err(format!(
                    "IDEAL {} > DVA {} cycles on {} at latency {}",
                    ideal.result.cycles, dva.result.cycles, dva.program, dva.latency
                ));
            }
        }
    }
    Ok(())
}

/// The machine family a label belongs to, as named in the per-layer
/// metrics.
pub fn family(label: &str) -> &'static str {
    match label {
        "REF" => "ref",
        "DVA" => "dva",
        "IDEAL" => "ideal",
        _ => "byp",
    }
}

/// Exact executed-tick totals and point counts per machine family.
#[derive(Default)]
pub struct Ticks(HashMap<&'static str, (u64, u64)>);

impl Ticks {
    pub fn add(&mut self, point: &SweepPoint) {
        let entry = self.0.entry(family(&point.label)).or_default();
        entry.0 += point.result.core.ticks_executed.get();
        entry.1 += 1;
    }

    /// `(ticks, points)` of one family.
    pub fn of(&self, family: &str) -> (u64, u64) {
        self.0.get(family).copied().unwrap_or_default()
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB; `None` reads this
/// process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first argument that selects the set-up probe.
pub const PROBE_FLAG: &str = "--setup-probe";

/// Generates and translates every benchmark program at `scale`:
/// `(generation, translation)` wall time. In a fresh process this is the
/// first-use cost a run pays before its first job.
pub fn prepare_all(scale: Scale) -> (Duration, Duration) {
    let start = Instant::now();
    let programs: Vec<_> = Benchmark::ALL.iter().map(|b| b.program(scale)).collect();
    let generated = Instant::now();
    for program in &programs {
        let prepared = PreparedProgram::new(program);
        prepared.dva();
        prepared.reference();
        prepared.ideal();
    }
    (generated - start, generated.elapsed())
}

/// The probe process: prepares every program at the given scale and
/// prints `ready <gen_ms> <translate_ms>`.
pub fn probe_main(scale: Option<&str>) -> ExitCode {
    let Some(scale) = scale.and_then(Scale::from_name) else {
        eprintln!("perfbench: {PROBE_FLAG} needs a scale");
        return ExitCode::from(2);
    };
    let (gen, translate) = prepare_all(scale);
    println!("ready {} {}", ms(gen), ms(translate));
    ExitCode::SUCCESS
}

/// One fresh-process set-up sample.
pub struct Probe {
    /// From spawn until the probe reported every program ready.
    pub setup: Duration,
    pub gen_ms: f64,
    pub translate_ms: f64,
}

/// Runs the set-up probe `count` times, each in a fresh process.
pub fn probe_setup(scale: Scale, count: usize) -> Result<Vec<Probe>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    (0..count)
        .map(|_| {
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args([PROBE_FLAG, scale.name()])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn set-up probe: {e}"))?;
            let mut line = String::new();
            let read =
                BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
            let setup = start.elapsed();
            let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
            let fields: Vec<f64> = line
                .strip_prefix("ready ")
                .unwrap_or_default()
                .split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect();
            match (read, status.success(), fields.as_slice()) {
                (Ok(_), true, &[gen_ms, translate_ms]) => Ok(Probe {
                    setup,
                    gen_ms,
                    translate_ms,
                }),
                _ => Err(format!("set-up probe failed ({status}): {line:?}")),
            }
        })
        .collect()
}

/// Rebuilds the full point of a spec from its measured result, exactly
/// as the daemon does for a cache hit.
pub fn point_of(spec: &PointSpec, result: SimResult) -> SweepPoint {
    SweepPoint {
        machine: spec.machine,
        label: spec.machine.label(),
        benchmark: spec.benchmark,
        program: spec.program.name().to_string(),
        latency: spec.latency,
        memory: spec.memory,
        result,
    }
}

/// The span an engine call of this machine family is recorded under.
fn engine_span(label: &str) -> &'static str {
    match family(label) {
        "ref" => "engine.ref",
        "dva" => "engine.dva",
        "byp" => "engine.byp",
        _ => "engine.ideal",
    }
}

/// The engine layer, called the way one sweep worker calls it: one
/// translation per program, one reused set of engines.
#[derive(Default)]
pub struct Engine {
    prepared: HashMap<String, PreparedProgram>,
    runners: Runners,
}

impl Engine {
    /// Simulates one spec inside an `engine.<family>` span.
    pub fn simulate(&mut self, tracer: &mut Tracer, spec: &PointSpec) -> Result<SimResult, String> {
        let prepared = self
            .prepared
            .entry(spec.program.name().to_string())
            .or_insert_with(|| PreparedProgram::new(&spec.program));
        let runners = &mut self.runners;
        tracer
            .span(engine_span(&spec.machine.label()), |_| {
                spec.machine.try_simulate_prepared(prepared, true, runners)
            })
            .map_err(|e| format!("{} on {}: {e}", spec.machine.label(), spec.program.name()))
    }
}

/// `engine.<family>.ns_per_tick` and `engine.ideal.us_per_point`: the
/// engine spans' time over the ticks of the points they simulated.
pub fn report_engine_time(
    traced: &Ticks,
    tracer: &Tracer,
    values: &mut HashMap<&'static str, f64>,
) {
    for (family, span, metric) in [
        ("dva", "engine.dva", "engine.dva.ns_per_tick"),
        ("byp", "engine.byp", "engine.byp.ns_per_tick"),
        ("ref", "engine.ref", "engine.ref.ns_per_tick"),
    ] {
        let (ticks, _) = traced.of(family);
        if ticks > 0 {
            values.insert(
                metric,
                tracer.total(span).as_secs_f64() * 1e9 / ticks as f64,
            );
        }
    }
    let (_, ideal_points) = traced.of("ideal");
    if ideal_points > 0 {
        values.insert(
            "engine.ideal.us_per_point",
            tracer.total("engine.ideal").as_secs_f64() * 1e6 / ideal_points as f64,
        );
    }
}

/// `engine.<family>.ticks_per_point` from exact tick totals.
pub fn report_ticks(ticks: &Ticks, values: &mut HashMap<&'static str, f64>) {
    for (family, metric) in [
        ("dva", "engine.dva.ticks_per_point"),
        ("byp", "engine.byp.ticks_per_point"),
        ("ref", "engine.ref.ticks_per_point"),
    ] {
        let (ticks, points) = ticks.of(family);
        if points > 0 {
            values.insert(metric, ticks as f64 / points as f64);
        }
    }
}

/// `workloads.gen_ms` and `prepare.translate_ms`: medians over the
/// fresh-process probes.
pub fn report_probes(probes: &[Probe], values: &mut HashMap<&'static str, f64>) {
    let gen: Vec<f64> = probes.iter().map(|p| p.gen_ms).collect();
    let translate: Vec<f64> = probes.iter().map(|p| p.translate_ms).collect();
    values.insert("workloads.gen_ms", median(&gen));
    values.insert("prepare.translate_ms", median(&translate));
}

/// Tracing overhead: the traced jobs' user-path time per point over the
/// untraced jobs', as a percentage above 1.
pub struct Overhead {
    /// `(seconds, points)` of untraced and traced jobs.
    sides: [(f64, usize); 2],
}

impl Overhead {
    pub fn new() -> Overhead {
        Overhead {
            sides: [(0.0, 0); 2],
        }
    }

    pub fn add(&mut self, traced: bool, time: Duration, points: usize) {
        let side = &mut self.sides[usize::from(traced)];
        side.0 += time.as_secs_f64();
        side.1 += points;
    }

    pub fn pct(&self) -> f64 {
        let per_point = |(secs, points): (f64, usize)| secs / points.max(1) as f64;
        let untraced = per_point(self.sides[0]);
        if untraced > 0.0 {
            100.0 * (per_point(self.sides[1]) / untraced - 1.0)
        } else {
            0.0
        }
    }
}

/// Ends a traced run: writes its spans, prints the self-time table and
/// records coverage and overhead.
pub fn finish_trace(
    args: &crate::Args,
    tracer: &Tracer,
    overhead: &Overhead,
    values: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    let path = crate::trace::trace_path(&args.workload, args.seed);
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    let coverage = tracer.print_self_times();
    println!(
        "tracing overhead: {:+.2}% user-path time per point",
        overhead.pct()
    );
    values.insert("trace.coverage_pct", 100.0 * coverage);
    values.insert("trace.overhead_pct", overhead.pct());
    Ok(())
}
