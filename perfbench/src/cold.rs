//! `sweep_cold`: in-process sweeps of never-repeated 16-point jobs at
//! Default scale, with no result cache anywhere.
//!
//! Each job is {REF, DVA, BYP 4/8, IDEAL} × one program × four latencies
//! × one memory model. No (program, latency, model) point repeats within
//! a run. With two or more workers `Sweep::run` is
//! `run_streaming().collect()`; the benchmark drives that stream itself
//! so that it also sees when the first point arrives.

use crate::common::{
    canonical, check_digest, ideal_bounds_dva, median, peak_rss_mb, prepare_all, probe_setup,
    report_engine_time, report_probes, report_ticks, Digest, Engine, JobTimes, Overhead, Rng,
    Ticks,
};
use crate::trace::{Tracer, JOB};
use crate::{Args, Outcome, COUNT_JOBS, DIGEST_JOBS, MIN_JOBS};
use dva_serve::proto::Response;
use dva_sim_api::{Machine, MemoryModelKind, Sweep, SweepPoint};
use dva_testutil::allocation_count;
use dva_workloads::{Benchmark, Scale};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fresh-process set-up samples per run; `setup_s` is their median.
const SETUP_PROBES: usize = 21;

/// Latencies drawn per job, from `1..=MAX_LATENCY`.
const LATENCIES_PER_JOB: usize = 4;
const MAX_LATENCY: u64 = 256;

fn machines() -> [Machine; 4] {
    [
        Machine::reference(1),
        Machine::dva(1),
        Machine::byp(1, 4, 8),
        Machine::ideal(),
    ]
}

const MODELS: [MemoryModelKind; 2] = [
    MemoryModelKind::Flat,
    MemoryModelKind::Banked {
        banks: 8,
        bank_busy: 8,
    },
];

/// The seeded job stream: every twelve jobs cover each (program, model)
/// pair once, and every pair keeps a pool of unused latencies, so no
/// point repeats within a run.
struct Jobs {
    rng: Rng,
    deck: Vec<usize>,
    pools: Vec<(Benchmark, MemoryModelKind, Vec<u64>)>,
}

impl Jobs {
    fn new(seed: u64) -> Jobs {
        let pools = Benchmark::ALL
            .iter()
            .flat_map(|&b| {
                MODELS
                    .iter()
                    .map(move |&m| (b, m, (1..=MAX_LATENCY).collect()))
            })
            .collect();
        Jobs {
            rng: Rng::new(seed, 1),
            deck: Vec::new(),
            pools,
        }
    }

    fn next(&mut self) -> Sweep {
        let pick = self.rng.deal(&mut self.deck, self.pools.len());
        let (benchmark, model, pool) = &mut self.pools[pick];
        if pool.len() < LATENCIES_PER_JOB {
            // Used up: a run this long repeats points (nothing caches them).
            *pool = (1..=MAX_LATENCY).collect();
        }
        let latencies = self.rng.take(pool, LATENCIES_PER_JOB);
        Sweep::new()
            .machines(machines())
            .benchmark(*benchmark)
            .latencies(latencies)
            .memory_model(*model)
            .scale(Scale::Default)
    }
}

/// One job through the user path.
struct Job {
    points: Vec<SweepPoint>,
    wall: Duration,
    first: Duration,
    allocs: u64,
}

fn run_job(sweep: &Sweep) -> Result<Job, String> {
    let allocs = allocation_count();
    let start = Instant::now();
    let mut first = Duration::ZERO;
    let points = catch_unwind(AssertUnwindSafe(|| {
        let mut stream = sweep.run_streaming();
        let mut points = Vec::with_capacity(sweep.len());
        points.extend(stream.next());
        first = start.elapsed();
        points.extend(stream);
        points
    }))
    .map_err(|_| "a point of the job failed".to_string())?;
    Ok(Job {
        points,
        wall: start.elapsed(),
        first,
        allocs: allocation_count() - allocs,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let probes = probe_setup(Scale::Default, SETUP_PROBES)?;
    // This process's own first use, before the first measured job.
    prepare_all(Scale::Default);
    let workers = Sweep::new().effective_threads() as f64;

    let mut jobs = Jobs::new(args.seed);
    let mut tracer = Tracer::new();
    let mut engine = Engine::default();
    // Ticks of the points whose engine calls were traced.
    let mut traced_ticks = Ticks::default();
    let mut overhead = Overhead::new();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut times = JobTimes::default();
    let (mut ticks, mut digest) = (Ticks::default(), Digest::new());
    let (mut counted_points, mut wire_bytes, mut allocs) = (0u64, 0u64, 0u64);
    let mut rss = 0.0;

    let start = Instant::now();
    while out.attempted < MIN_JOBS || start.elapsed() < args.seconds {
        let sweep = jobs.next();
        let index = out.attempted;
        out.attempted += 1;
        // A traced run records every other job, so the untraced half
        // measures what recording costs.
        let traced = args.trace && index % 2 == 1;
        tracer.start_job(index, traced);
        let (job, replayed) = tracer.span(JOB, |t| {
            let job = t.span("sweep.run", |_| run_job(&sweep));
            let replayed: Result<Vec<_>, String> = if args.trace {
                sweep
                    .grid()
                    .iter()
                    .map(|spec| engine.simulate(t, spec))
                    .collect()
            } else {
                Ok(Vec::new())
            };
            (job, replayed)
        });
        let job = match job {
            Ok(job) => job,
            Err(e) => {
                println!("job {index} failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        overhead.add(traced, job.wall, job.points.len());

        // Checks and exact counts, outside the timed region.
        if let Err(e) = ideal_bounds_dva(&job.points) {
            println!("job {index}: {e}");
            out.correct = false;
        }
        let replayed = replayed?;
        for (point, result) in job.points.iter().zip(&replayed) {
            if point.result.to_json().render() != result.to_json().render() {
                println!(
                    "job {index}: sweep and per-point engine call differ on {}",
                    point.label
                );
                out.correct = false;
            }
        }
        if traced {
            job.points.iter().for_each(|p| traced_ticks.add(p));
        }
        if index < DIGEST_JOBS {
            job.points.iter().for_each(|p| digest.add(&canonical(p)));
        }
        if index < COUNT_JOBS {
            for (i, point) in job.points.iter().enumerate() {
                ticks.add(point);
                let frame = Response::Point {
                    index: i,
                    point: Box::new(point.clone()),
                };
                wire_bytes += frame.render().map_err(|e| e.to_string())?.len() as u64 + 1;
            }
            counted_points += job.points.len() as u64;
            allocs += job.allocs;
            if index + 1 == COUNT_JOBS {
                // Peak resident set over set-up and the first COUNT_JOBS
                // jobs: the same work on every run, however fast.
                rss = peak_rss_mb(None);
            }
        }
        times.add(job.wall, job.first, job.points.len());
    }
    out.correct &= check_digest(&args.workload, args.seed, &digest);
    println!(
        "{} jobs, {} points, {} failed jobs",
        out.attempted,
        times.points(),
        out.failed
    );

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let wire_bytes_per_point = wire_bytes as f64 / counted_points.max(1) as f64;
    if args.trace {
        report_probes(&probes, &mut values);
        report_ticks(&ticks, &mut values);
        report_engine_time(&traced_ticks, &tracer, &mut values);
        let engine_time: f64 = ["engine.dva", "engine.byp", "engine.ref", "engine.ideal"]
            .iter()
            .map(|span| tracer.total(span).as_secs_f64())
            .sum();
        values.insert(
            "sweep.parallel_eff",
            engine_time / (workers * tracer.total("sweep.run").as_secs_f64()),
        );
        values.insert(
            "sweep.allocs_per_point",
            allocs as f64 / counted_points.max(1) as f64,
        );
        values.insert("proto.wire_bytes_per_point", wire_bytes_per_point);
        crate::common::finish_trace(args, &tracer, &overhead, &mut values)?;
    } else {
        times.report(&mut values);
        let setups: Vec<f64> = probes.iter().map(|p| p.setup.as_secs_f64()).collect();
        values.insert("setup_s", median(&setups));
        values.insert("peak_rss_mb", rss);
        values.insert("wire_bytes_per_point", wire_bytes_per_point);
    }
    out.report(args.trace, &values)?;
    Ok(out)
}
