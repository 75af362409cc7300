//! `serve_mixed`: adaptive jobs and half-cached dense jobs at Quick
//! scale against a daemon with a disk tier and a memory tier smaller
//! than the run's working set: stores, disk appends, evictions,
//! disk-tier promotions and planner rounds beside lookups.

use super::*;

/// Daemons started per untraced run; `setup_s` is the median of their
/// set-up times and the last one serves the measured jobs.
const MIXED_SETUPS: usize = 9;

/// The daemon's memory tier: far smaller than a run's working set, so
/// stores evict and re-reads promote from the disk tier.
const MIXED_MEM_CAP: usize = 256;

/// An adaptive axis is one block of 100 consecutive latencies, drawn
/// per program without replacement from this many blocks, so that no
/// two adaptive jobs of a run share a point and the share of hits does
/// not creep up as a run goes on. (The engines' fast-forward makes a
/// point's cost independent of its latency.)
const AXIS_LEN: u64 = 100;
const AXIS_BLOCKS: u64 = 200;

/// Latencies a dense job re-reads from an earlier adaptive job's sampled
/// set, and latencies it adds from that job's unsampled ones.
const DENSE_REREAD: usize = 4;
const DENSE_NEW: usize = 4;

/// Dense jobs re-read one of this many most recent adaptive jobs, so
/// their reads reach past the memory tier into the disk tier at a rate
/// that does not change over a run.
const RECENT: usize = 16;

/// The `fig5_adaptive` lineup.
fn fig5_machines() -> [Machine; 5] {
    [
        Machine::reference(1),
        Machine::dva(1),
        Machine::byp(1, 4, 4),
        Machine::byp(1, 256, 16),
        Machine::ideal(),
    ]
}

/// An earlier adaptive job: its program, axis and the latencies its
/// DVA curve sampled.
struct Curve {
    benchmark: Benchmark,
    axis: Vec<u64>,
    sampled: Vec<u64>,
}

enum MixedJob {
    Adaptive(AdaptiveSweep, Benchmark),
    Dense(Sweep),
}

impl MixedJob {
    fn request(&self) -> Request {
        match self {
            MixedJob::Adaptive(adaptive, _) => Request::Adaptive {
                spec: Box::new(adaptive.clone()),
                deadline_ms: None,
            },
            MixedJob::Dense(sweep) => Request::Sweep {
                spec: Box::new(sweep.clone()),
                deadline_ms: None,
            },
        }
    }
}

/// The seeded job stream: one adaptive job, then two dense jobs that
/// re-read half their latencies from a seeded recent adaptive job.
struct Mixed {
    rng: Rng,
    /// Unused axis blocks, per program in `Benchmark::ALL` order.
    blocks: Vec<Vec<u64>>,
    /// Deals the programs of adaptive jobs.
    deck: Vec<usize>,
    history: Vec<Curve>,
    issued: usize,
}

impl Mixed {
    fn new(seed: u64) -> Mixed {
        Mixed {
            rng: Rng::new(seed, 3),
            blocks: vec![(0..AXIS_BLOCKS).collect(); Benchmark::ALL.len()],
            deck: Vec::new(),
            history: Vec::new(),
            issued: 0,
        }
    }

    fn adaptive(&mut self, benchmark: Benchmark) -> MixedJob {
        let program = Benchmark::ALL
            .iter()
            .position(|&b| b == benchmark)
            .expect("a benchmark");
        if self.blocks[program].is_empty() {
            self.blocks[program] = (0..AXIS_BLOCKS).collect();
        }
        let block = self.rng.take(&mut self.blocks[program], 1)[0];
        let axis = block * AXIS_LEN + 1..=(block + 1) * AXIS_LEN;
        let template = Sweep::new()
            .machines(fig5_machines())
            .benchmark(benchmark)
            .scale(Scale::Quick);
        MixedJob::Adaptive(
            AdaptiveSweep::over(template, axis)
                .seeds(7)
                .tolerance(0.02)
                .prune_against("DVA", ["BYP 4/4", "BYP 256/16"]),
            benchmark,
        )
    }

    fn next(&mut self) -> MixedJob {
        self.issued += 1;
        if self.issued % 3 == 1 || self.history.is_empty() {
            let benchmark = Benchmark::ALL[self.rng.deal(&mut self.deck, Benchmark::ALL.len())];
            return self.adaptive(benchmark);
        }
        let recent = self.history.len().min(RECENT);
        let curve = &self.history[self.history.len() - 1 - self.rng.below(recent)];
        let mut unsampled: Vec<u64> = curve
            .axis
            .iter()
            .copied()
            .filter(|l| !curve.sampled.contains(l))
            .collect();
        let mut latencies = self.rng.take(&mut curve.sampled.clone(), DENSE_REREAD);
        latencies.extend(self.rng.take(&mut unsampled, DENSE_NEW));
        MixedJob::Dense(
            Sweep::new()
                .machines(fig5_machines())
                .benchmark(curve.benchmark)
                .latencies(latencies)
                .scale(Scale::Quick),
        )
    }

    /// Remembers what an adaptive job sampled.
    fn served(&mut self, job: &MixedJob, points: &[(usize, SweepPoint)]) {
        if let MixedJob::Adaptive(adaptive, benchmark) = job {
            let mut sampled: Vec<u64> = points
                .iter()
                .filter(|(_, p)| p.label == "DVA")
                .map(|(_, p)| p.latency)
                .collect();
            sampled.sort_unstable();
            self.history.push(Curve {
                benchmark: *benchmark,
                axis: adaptive.axis().to_vec(),
                sampled,
            });
        }
    }
}

/// A served job kept for the post-run check against local runs.
struct Kept {
    job: MixedJob,
    digest: (String, usize),
    summary: Option<AdaptiveSummary>,
}

/// Checks every kept job against `Sweep::run` / `AdaptiveSweep::run`.
fn check_local(m: &mut Measured, kept: &[Kept]) {
    for (i, k) in kept.iter().enumerate() {
        let ok = match (&k.job, &k.summary) {
            (MixedJob::Adaptive(adaptive, _), Some(summary)) => {
                let local = adaptive.run();
                ideal_bounds_dva(&local.results.points).is_ok()
                    && digest_of(&local.results.points) == k.digest
                    && local.report.sampled_points == summary.sampled
                    && local.report.dense_points == summary.dense
                    && local.report.rounds == summary.rounds
            }
            (MixedJob::Dense(sweep), None) => {
                let points = sweep.run().points;
                ideal_bounds_dva(&points).is_ok() && digest_of(&points) == k.digest
            }
            _ => false,
        };
        if !ok {
            m.fail(&format!("served job {i} differs from its local run"));
        }
    }
}

pub fn run_mixed(args: &Args) -> Result<Outcome, String> {
    let bin = daemon_binary()?;
    let probes = if args.trace {
        probe_setup(Scale::Quick, TRACE_PROBES)?
    } else {
        Vec::new()
    };
    let dir = RunDir::new(&args.workload);
    let mut m = Measured::new();
    let mut tracer = Tracer::new();
    let mut kept: Vec<Kept> = Vec::new();
    let keep = |job: MixedJob, served: &Served| Kept {
        job,
        digest: digest_by_index(&served.points),
        summary: match served.summary {
            Summary::Adaptive(s) => Some(s),
            Summary::Sweep(_) => None,
        },
    };

    // Set-up: each daemon starts on a fresh cache directory and is
    // prefilled with one adaptive job per program.
    let setups_wanted = if args.trace { 1 } else { MIXED_SETUPS };
    let mut setups = Vec::new();
    let mut session = None;
    for i in 0..setups_wanted {
        let daemon_dir = dir.0.join(format!("d{i}"));
        let start = Instant::now();
        let daemon = Daemon::spawn(
            &bin,
            &daemon_dir,
            &[
                "--cache-dir".to_string(),
                daemon_dir.join("cache").display().to_string(),
                "--mem-cap".to_string(),
                MIXED_MEM_CAP.to_string(),
            ],
        )?;
        let mut conn = daemon.connect()?;
        conn.ping()?;
        let mut stream = Mixed::new(args.seed);
        let mut prefill = Vec::new();
        for benchmark in Benchmark::ALL {
            let job = stream.adaptive(benchmark);
            let served = submit(&mut conn, &job.request(), &mut tracer)?;
            stream.served(&job, &served.points);
            prefill.push((job, served));
        }
        setups.push(start.elapsed().as_secs_f64());
        if i + 1 < setups_wanted {
            daemon.stop(&mut conn)?;
            continue;
        }
        for (job, served) in prefill {
            served
                .points
                .iter()
                .for_each(|(_, p)| m.digest.add(&canonical(p)));
            kept.push(keep(job, &served));
        }
        session = Some((daemon, conn, stream));
    }
    let (daemon, mut conn, mut stream) = session.expect("one daemon serves the measured jobs");

    // A traced run mirrors the daemon's cache: same capacity, its own
    // disk tier, the same prefill.
    let replica_dir = dir.0.join("replica");
    let cache = ResultCache::persistent(&replica_dir, MIXED_MEM_CAP)
        .map_err(|e| format!("cannot open the replica cache: {e}"))?;
    let mut replica = Replica::new(cache, MIXED_MEM_CAP);
    if args.trace {
        for k in &kept {
            if let MixedJob::Adaptive(adaptive, _) = &k.job {
                if digest_by_index(&replica.adaptive(&mut tracer, adaptive)?) != k.digest {
                    m.fail("the replayed prefill differs from the daemon's");
                }
            }
        }
    }
    let disk_size = |r: &Replica| {
        r.cache
            .disk_path()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |meta| meta.len())
    };
    let (disk_bytes0, disk_len0, evictions0) = (
        disk_size(&replica),
        replica.cache.disk_len(),
        replica.lru.evictions,
    );
    let mut counted = None;
    let (mut ticks, mut adaptive_jobs) = (Ticks::default(), (0usize, 0usize, 0usize, 0usize));
    let mut hits_before = replica.hits;
    // The daemon's peak resident set over set-up and the first
    // COUNT_JOBS jobs: the same work on every run, however fast.
    let mut rss = 0.0;

    let start = Instant::now();
    while m.out.attempted < MIN_JOBS || start.elapsed() < args.seconds {
        let job = stream.next();
        let request = job.request();
        m.out.attempted += 1;
        let traced = args.trace && m.out.attempted.is_multiple_of(2);
        tracer.start_job(m.out.attempted - 1, traced);
        let (served, replayed) = tracer.span(JOB, |t| {
            let served = t.span("exec.socket", |t| submit(&mut conn, &request, t));
            let replayed = match (&job, args.trace && served.is_ok()) {
                (MixedJob::Adaptive(adaptive, _), true) => Some(replica.adaptive(t, adaptive)),
                (MixedJob::Dense(sweep), true) => Some(replica.sweep(t, sweep)),
                (_, false) => None,
            };
            (served, replayed)
        });
        let served = match served {
            Ok(served) => served,
            Err(e) => {
                println!("job {} failed: {e}", m.out.attempted - 1);
                m.out.failed += 1;
                break;
            }
        };
        let index = m.record(&served, traced);
        stream.served(&job, &served.points);
        if let Some(replayed) = replayed {
            let replayed = replayed?;
            let hits = replica.hits - hits_before;
            hits_before = replica.hits;
            if digest_by_index(&replayed) != digest_by_index(&served.points)
                || hits != served.hits().0
            {
                m.fail(&format!(
                    "job {index}: the replayed layers differ from the daemon"
                ));
            }
        }
        if index < COUNT_JOBS {
            served.points.iter().for_each(|(_, p)| ticks.add(p));
            if let Summary::Adaptive(s) = &served.summary {
                adaptive_jobs.0 += 1;
                adaptive_jobs.1 += s.rounds;
                adaptive_jobs.2 += s.sampled;
                adaptive_jobs.3 += s.dense;
            }
            if index + 1 == COUNT_JOBS {
                rss = peak_rss_mb(Some(daemon.pid()));
                counted = Some((
                    disk_size(&replica) - disk_bytes0,
                    replica.cache.disk_len() - disk_len0,
                    replica.lru.evictions - evictions0,
                ));
            }
        }
        if !args.trace {
            kept.push(keep(job, &served));
        }
    }
    m.stop(daemon, &mut conn)?;
    if !args.trace {
        check_local(&mut m, &kept);
    }

    let mut values = HashMap::new();
    if args.trace {
        let (disk_bytes, disk_stores, evictions) = counted.unwrap_or_default();
        report_probes(&probes, &mut values);
        report_ticks(&ticks, &mut values);
        replica.report(&tracer, &mut values);
        let (jobs, rounds, sampled, dense) = adaptive_jobs;
        values.insert(
            "adaptive.rounds_per_job",
            rounds as f64 / jobs.max(1) as f64,
        );
        values.insert(
            "adaptive.sampled_frac",
            sampled as f64 / dense.max(1) as f64,
        );
        values.insert("cache.hit_ratio", m.hits.0 as f64 / m.hits.1.max(1) as f64);
        values.insert(
            "cache.disk_bytes_per_store",
            disk_bytes as f64 / disk_stores.max(1) as f64,
        );
        values.insert(
            "cache.evictions_per_job",
            evictions as f64 / COUNT_JOBS as f64,
        );
        values.insert("proto.parse_us_per_point", m.parse_us_per_point(&tracer));
        values.insert("proto.wire_bytes_per_point", m.wire_bytes_per_point());
        crate::common::finish_trace(args, &tracer, &m.overhead, &mut values)?;
    } else {
        values = m.end_to_end(&setups, rss);
    }
    m.finish(args, &values)
}
