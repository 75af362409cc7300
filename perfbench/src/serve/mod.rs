//! `serve_warm` and `serve_mixed`: a `dva-serve --socket` child process
//! driven over its Unix socket by one closed-loop client.
//!
//! The daemon is built from the repository's own `dva-serve` package.
//! Its stderr goes to the run's stderr. A traced run also replays every
//! job through the serving layers' public functions in this process —
//! `PointKey::of`, `ResultCache::get`/`store`, the engine,
//! `AdaptivePlanner`, `Response::render` — against a replica cache that
//! sees the daemon's sequence of lookups and stores, and checks that the
//! replay serves the same bytes and the same hits as the daemon.

use crate::common::{
    canonical, check_digest, ideal_bounds_dva, median, peak_rss_mb, point_of, probe_setup,
    report_engine_time, report_probes, report_ticks, Digest, Engine, JobTimes, Overhead, Rng,
    Ticks,
};
use crate::trace::{Tracer, JOB};
use crate::{Args, Outcome, COUNT_JOBS, DIGEST_JOBS, MIN_JOBS};
use dva_serve::proto::{Request, Response};
use dva_serve::{
    AdaptiveSummary, JobSummary, PointKey, ResultCache, SweepService, DEFAULT_MEMORY_CAPACITY,
};
use dva_sim_api::{AdaptiveSweep, Machine, PointSpec, Sweep, SweepPoint};
use dva_workloads::{Benchmark, Scale};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod mixed;
mod warm;

pub use mixed::run_mixed;
pub use warm::run_warm;

/// Fresh-process probes a traced run takes for the generation and
/// translation costs.
const TRACE_PROBES: usize = 5;

/// Where runs keep sockets and cache directories, relative to the
/// checkout root; each run removes its own subdirectory.
const RUN_DIR: &str = ".perfbench/run";

/// Builds the daemon from the repository's `dva-serve` package into the
/// same target directory as this benchmark, and returns its path.
fn daemon_binary() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dva-serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dva-serve failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    Ok(target.join("release").join("dva-serve"))
}

/// A running daemon. Dropping it kills the process if it has not been
/// shut down.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, dir: &Path, args: &[String]) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("sock");
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Daemon { child, socket })
    }

    /// Connects once the socket is bound.
    fn connect(&self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => {
                    let writer = stream.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                        line: String::new(),
                    });
                }
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("cannot connect to the daemon: {e}")),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to exit and waits until it has.
    fn stop(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.send(&Request::Shutdown)?;
        match conn.receive()?.1 {
            Response::Bye => {}
            other => return Err(format!("expected bye, got {other:?}")),
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection, reading the wire line by line.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn send(&mut self, request: &Request) -> Result<(), String> {
        let line = request.render().map_err(|e| e.to_string())?;
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot write to the daemon: {e}"))
    }

    /// Reads one line: its byte count and the unparsed text.
    fn read(&mut self) -> Result<usize, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("cannot read from the daemon: {e}")),
        }
    }

    fn receive(&mut self) -> Result<(usize, Response), String> {
        let n = self.read()?;
        let response = Response::parse(self.line.trim_end()).map_err(|e| e.to_string())?;
        Ok((n, response))
    }

    fn ping(&mut self) -> Result<(), String> {
        self.send(&Request::Ping)?;
        match self.receive()?.1 {
            Response::Pong { .. } => Ok(()),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }
}

enum Summary {
    Sweep(JobSummary),
    Adaptive(AdaptiveSummary),
}

/// One job as the client saw it.
struct Served {
    wall: Duration,
    /// Until the first `point` frame was parsed.
    first: Duration,
    /// Every byte the client read for the job.
    bytes: u64,
    /// `(index, point)` in arrival order.
    points: Vec<(usize, SweepPoint)>,
    point_errors: usize,
    summary: Summary,
}

impl Served {
    /// Cache hits and lookups the daemon reported.
    fn hits(&self) -> (usize, usize) {
        match &self.summary {
            Summary::Sweep(s) => (s.cache_hits, s.total),
            Summary::Adaptive(s) => (s.cache_hits, s.sampled),
        }
    }

    fn simulated(&self) -> usize {
        match &self.summary {
            Summary::Sweep(s) => s.simulated,
            Summary::Adaptive(s) => s.simulated,
        }
    }
}

/// Submits one job and reads its stream to the summary line; each
/// `Response::parse` is a `proto.parse` span.
fn submit(conn: &mut Conn, request: &Request, t: &mut Tracer) -> Result<Served, String> {
    let start = Instant::now();
    conn.send(request)?;
    let (mut bytes, mut first) = (0u64, None);
    let (mut points, mut point_errors) = (Vec::new(), 0);
    loop {
        bytes += conn.read()? as u64;
        let line = conn.line.trim_end();
        let response = t
            .span("proto.parse", |_| Response::parse(line))
            .map_err(|e| format!("unparsable response: {e}"))?;
        let summary = match response {
            Response::Point { index, point } => {
                first.get_or_insert_with(|| start.elapsed());
                points.push((index, *point));
                continue;
            }
            Response::PointError(error) => {
                println!("point error: {}", error.message);
                point_errors += 1;
                continue;
            }
            Response::Summary(s) => Summary::Sweep(s),
            Response::AdaptiveSummary(s) => Summary::Adaptive(s),
            Response::Error { message } => return Err(format!("job failed: {message}")),
            other => return Err(format!("unexpected response {other:?}")),
        };
        return Ok(Served {
            wall: start.elapsed(),
            first: first.unwrap_or_else(|| start.elapsed()),
            bytes,
            points,
            point_errors,
            summary,
        });
    }
}

/// Least-recently-used order over cache keys, touched on every hit and
/// every store — the order `ResultCache` evicts its memory tier in —
/// so that its evictions can be counted from outside.
struct Lru {
    capacity: usize,
    clock: u64,
    stamps: HashMap<PointKey, u64>,
    order: BTreeMap<u64, PointKey>,
    evictions: u64,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            clock: 0,
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            evictions: 0,
        }
    }

    fn touch(&mut self, key: &PointKey) {
        self.clock += 1;
        if let Some(old) = self.stamps.insert(key.clone(), self.clock) {
            self.order.remove(&old);
        }
        self.order.insert(self.clock, key.clone());
        while self.stamps.len() > self.capacity {
            let (_, oldest) = self.order.pop_first().expect("non-empty over capacity");
            self.stamps.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// The serving layers replayed in this process. Counters advance only
/// while the tracer records, so that per-call costs divide span time by
/// the calls that span covered.
struct Replica {
    cache: ResultCache,
    lru: Lru,
    engine: Engine,
    /// Ticks of the points simulated while the tracer recorded.
    traced_ticks: Ticks,
    hits: usize,
    /// Traced calls per layer.
    keys: u64,
    gets: u64,
    stores: u64,
    renders: u64,
    rounds: u64,
}

impl Replica {
    fn new(cache: ResultCache, capacity: usize) -> Replica {
        Replica {
            cache,
            lru: Lru::new(capacity),
            engine: Engine::default(),
            traced_ticks: Ticks::default(),
            hits: 0,
            keys: 0,
            gets: 0,
            stores: 0,
            renders: 0,
            rounds: 0,
        }
    }

    /// Resolves specs the way `SweepService::submit_specs` does: every
    /// key and lookup first, then each miss simulated and stored in
    /// order. Returns the points in spec order and their keys.
    fn resolve(
        &mut self,
        t: &mut Tracer,
        specs: &[PointSpec],
    ) -> Result<Vec<(SweepPoint, PointKey)>, String> {
        let keys: Vec<PointKey> = t
            .span("key", |_| {
                specs
                    .iter()
                    .map(|s| PointKey::of(s, true))
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| e.to_string())?;
        let cache = &mut self.cache;
        let found: Vec<_> = t.span("cache.get", |_| keys.iter().map(|k| cache.get(k)).collect());
        if t.enabled() {
            self.keys += specs.len() as u64;
            self.gets += specs.len() as u64;
        }
        let mut points: Vec<Option<SweepPoint>> = Vec::with_capacity(specs.len());
        for ((spec, key), result) in specs.iter().zip(&keys).zip(found) {
            if result.is_some() {
                self.lru.touch(key);
                self.hits += 1;
            }
            points.push(result.map(|r| point_of(spec, r)));
        }
        for (i, spec) in specs.iter().enumerate() {
            if points[i].is_some() {
                continue;
            }
            let result = self.engine.simulate(t, spec)?;
            let point = point_of(spec, result.clone());
            let (cache, key) = (&mut self.cache, keys[i].clone());
            t.span("cache.store", |_| cache.store(key, result));
            self.lru.touch(&keys[i]);
            if t.enabled() {
                self.stores += 1;
                self.traced_ticks.add(&point);
            }
            points[i] = Some(point);
        }
        Ok(points
            .into_iter()
            .map(|p| p.expect("every spec resolved"))
            .zip(keys)
            .collect())
    }

    /// Renders the `point` frames the daemon would send.
    fn render(&mut self, t: &mut Tracer, points: &[(usize, SweepPoint)]) -> Result<(), String> {
        let frames: Vec<Response> = points
            .iter()
            .map(|(index, point)| Response::Point {
                index: *index,
                point: Box::new(point.clone()),
            })
            .collect();
        if t.enabled() {
            self.renders += frames.len() as u64;
        }
        t.span("proto.render", |_| {
            frames.iter().try_for_each(|frame| frame.render().map(drop))
        })
        .map_err(|e| e.to_string())
    }

    /// A sweep job: its points in grid order.
    fn sweep(&mut self, t: &mut Tracer, sweep: &Sweep) -> Result<Vec<(usize, SweepPoint)>, String> {
        let specs = sweep.grid();
        let points: Vec<(usize, SweepPoint)> = self
            .resolve(t, &specs)?
            .into_iter()
            .enumerate()
            .map(|(i, (point, _))| (i, point))
            .collect();
        self.render(t, &points)?;
        Ok(points)
    }

    /// An adaptive job the way `SweepService::run_adaptive_with` runs it:
    /// its points, keyed by dense index, in round order.
    fn adaptive(
        &mut self,
        t: &mut Tracer,
        adaptive: &AdaptiveSweep,
    ) -> Result<Vec<(usize, SweepPoint)>, String> {
        let mut planner = t.span("adaptive.plan", |_| adaptive.planner());
        let mut out = Vec::new();
        loop {
            let specs = t.span("adaptive.plan", |_| planner.next_round());
            if specs.is_empty() {
                break;
            }
            if t.enabled() {
                self.rounds += 1;
            }
            let round: Vec<(usize, SweepPoint)> = specs
                .iter()
                .map(|s| s.index)
                .zip(self.resolve(t, &specs)?.into_iter().map(|(p, _)| p))
                .collect();
            let recorded = round.clone();
            t.span("adaptive.plan", |_| {
                for (index, point) in recorded {
                    planner.record(index, point);
                }
            });
            self.render(t, &round)?;
            out.extend(round);
        }
        t.span("adaptive.plan", |_| drop(planner.finish()));
        Ok(out)
    }

    /// Per-call costs of the replayed layers.
    fn report(&self, t: &Tracer, values: &mut HashMap<&'static str, f64>) {
        let per = |span: &str, calls: u64| t.total(span).as_secs_f64() * 1e6 / calls.max(1) as f64;
        values.insert("key.us_per_point", per("key", self.keys));
        values.insert("cache.get_us", per("cache.get", self.gets));
        values.insert("cache.store_us", per("cache.store", self.stores));
        values.insert(
            "proto.render_us_per_point",
            per("proto.render", self.renders),
        );
        if self.rounds > 0 {
            values.insert(
                "adaptive.plan_us_per_round",
                per("adaptive.plan", self.rounds),
            );
        }
        report_engine_time(&self.traced_ticks, t, values);
    }
}

/// Digest and count of points, in the order given.
fn digest_of<'a>(points: impl IntoIterator<Item = &'a SweepPoint>) -> (String, usize) {
    let mut digest = Digest::new();
    let count = points
        .into_iter()
        .map(|p| digest.add(&canonical(p)))
        .count();
    (digest.hex(), count)
}

/// Digest of a job's points in dense-index order.
fn digest_by_index(points: &[(usize, SweepPoint)]) -> (String, usize) {
    let mut sorted: Vec<&(usize, SweepPoint)> = points.iter().collect();
    sorted.sort_by_key(|(index, _)| *index);
    digest_of(sorted.into_iter().map(|(_, p)| p))
}

/// The per-run scratch directory, emptied when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: &str) -> RunDir {
        RunDir(Path::new(RUN_DIR).join(format!("{workload}-{}", std::process::id())))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every serve run accumulates over its measured jobs.
struct Measured {
    out: Outcome,
    times: JobTimes,
    /// Points of the jobs whose spans were recorded.
    traced_points: usize,
    /// Exact counts over the first [`COUNT_JOBS`] jobs.
    counted_points: u64,
    wire_bytes: u64,
    hits: (usize, usize),
    digest: Digest,
    overhead: Overhead,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            out: Outcome {
                correct: true,
                ..Outcome::default()
            },
            times: JobTimes::default(),
            traced_points: 0,
            counted_points: 0,
            wire_bytes: 0,
            hits: (0, 0),
            digest: Digest::new(),
            overhead: Overhead::new(),
        }
    }

    /// Records a served job; returns its index among measured jobs.
    fn record(&mut self, served: &Served, traced: bool) -> usize {
        let index = self.out.attempted - 1;
        if served.point_errors > 0 {
            self.out.failed += 1;
        }
        if index < DIGEST_JOBS {
            served
                .points
                .iter()
                .for_each(|(_, p)| self.digest.add(&canonical(p)));
        }
        if index < COUNT_JOBS {
            self.counted_points += served.points.len() as u64;
            self.wire_bytes += served.bytes;
            let (hits, lookups) = served.hits();
            self.hits.0 += hits;
            self.hits.1 += lookups;
        }
        self.overhead.add(traced, served.wall, served.points.len());
        if traced {
            self.traced_points += served.points.len();
        }
        self.times
            .add(served.wall, served.first, served.points.len());
        index
    }

    /// Shuts the daemon down; after a failed job the connection may be
    /// gone, and the daemon is then killed instead.
    fn stop(&self, daemon: Daemon, conn: &mut Conn) -> Result<(), String> {
        match daemon.stop(conn) {
            Err(e) if self.out.failed > 0 => {
                println!("daemon shutdown after a failed job: {e}");
                Ok(())
            }
            other => other,
        }
    }

    fn fail(&mut self, message: &str) {
        println!("check failed: {message}");
        self.out.correct = false;
    }

    /// Client-side `Response::parse` time per point of the traced jobs.
    fn parse_us_per_point(&self, tracer: &Tracer) -> f64 {
        tracer.job_total("proto.parse").as_secs_f64() * 1e6 / self.traced_points.max(1) as f64
    }

    fn wire_bytes_per_point(&self) -> f64 {
        self.wire_bytes as f64 / self.counted_points.max(1) as f64
    }

    /// The end-to-end metrics of an untraced run.
    fn end_to_end(&self, setups: &[f64], rss_mb: f64) -> HashMap<&'static str, f64> {
        let mut values = HashMap::from([
            ("setup_s", median(setups)),
            ("peak_rss_mb", rss_mb),
            ("wire_bytes_per_point", self.wire_bytes_per_point()),
        ]);
        self.times.report(&mut values);
        values
    }

    fn finish(
        mut self,
        args: &Args,
        values: &HashMap<&'static str, f64>,
    ) -> Result<Outcome, String> {
        self.out.correct &= check_digest(&args.workload, args.seed, &self.digest);
        println!(
            "{} jobs, {} points, {} failed jobs",
            self.out.attempted,
            self.times.points(),
            self.out.failed
        );
        self.out.report(args.trace, values)?;
        Ok(self.out)
    }
}
