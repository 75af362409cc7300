//! `serve_warm`: all-hit sub-grids of a prefilled Default-scale working
//! set, so that key derivation, cache lookup, NDJSON render, client
//! parse and the socket do all the work and the engine none.

use super::*;

/// Daemons started per untraced run; `setup_s` is the median of their
/// set-up times and the last one serves the measured jobs.
const WARM_SETUPS: usize = 5;

/// Latencies of the warm working set, and of each job.
const WARM_LATENCIES: usize = 16;
const WARM_JOB_LATENCIES: usize = 12;
/// Programs per warm job.
const WARM_JOB_PROGRAMS: usize = 3;

fn warm_machines() -> [Machine; 4] {
    [
        Machine::reference(1),
        Machine::dva(1),
        Machine::byp(1, 4, 8),
        Machine::ideal(),
    ]
}

/// A seeded, same-sized dense sub-grid of the working set.
fn warm_job(rng: &mut Rng, latencies: &[u64]) -> Sweep {
    let programs = rng.take(&mut Benchmark::ALL.to_vec(), WARM_JOB_PROGRAMS);
    let latencies = rng.take(&mut latencies.to_vec(), WARM_JOB_LATENCIES);
    Sweep::new()
        .machines(warm_machines())
        .benchmarks(programs)
        .latencies(latencies)
        .scale(Scale::Default)
}

/// Identity of a point within a workload: machine, program, latency,
/// memory model.
fn identity(point: &SweepPoint) -> String {
    format!(
        "{}|{}|{}|{:?}",
        point.label, point.program, point.latency, point.memory
    )
}

pub fn run_warm(args: &Args) -> Result<Outcome, String> {
    let bin = daemon_binary()?;
    let probes = if args.trace {
        probe_setup(Scale::Default, TRACE_PROBES)?
    } else {
        Vec::new()
    };
    let mut rng = Rng::new(args.seed, 2);
    let latencies = rng.take(&mut (1..=256).collect(), WARM_LATENCIES);
    let working = Sweep::new()
        .machines(warm_machines())
        .benchmarks(Benchmark::ALL)
        .latencies(latencies.clone())
        .scale(Scale::Default);
    let prefill = Request::Sweep {
        spec: Box::new(working.clone()),
        deadline_ms: None,
    };
    let mut m = Measured::new();

    // The in-process reference every served point must equal.
    let reference_points = working.run().points;
    if let Err(e) = ideal_bounds_dva(&reference_points) {
        m.fail(&e);
    }
    let reference: HashMap<String, String> = reference_points
        .iter()
        .map(|p| (identity(p), canonical(p)))
        .collect();
    let check = |m: &mut Measured, points: &[(usize, SweepPoint)]| {
        for (_, point) in points {
            if reference.get(&identity(point)) != Some(&canonical(point)) {
                m.fail(&format!(
                    "served point {} differs from Sweep::run",
                    identity(point)
                ));
                return;
            }
        }
    };

    let dir = RunDir::new(&args.workload);
    let mut tracer = Tracer::new();
    let setups_wanted = if args.trace { 1 } else { WARM_SETUPS };
    let mut setups = Vec::new();
    let mut session = None;
    for i in 0..setups_wanted {
        let start = Instant::now();
        let daemon = Daemon::spawn(&bin, &dir.0.join(format!("d{i}")), &[])?;
        let mut conn = daemon.connect()?;
        conn.ping()?;
        let served = submit(&mut conn, &prefill, &mut tracer)?;
        setups.push(start.elapsed().as_secs_f64());
        check(&mut m, &served.points);
        if served.points.len() != working.len() {
            m.fail("the prefill did not serve the whole working set");
        }
        if i == 0 {
            served
                .points
                .iter()
                .for_each(|(_, p)| m.digest.add(&canonical(p)));
        }
        if i + 1 < setups_wanted {
            daemon.stop(&mut conn)?;
        } else {
            session = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = session.expect("one daemon serves the measured jobs");

    // A traced run fills a replica cache, and an in-process service for
    // the socket-versus-in-process comparison, with the same results.
    let mut replica = Replica::new(
        ResultCache::in_memory(DEFAULT_MEMORY_CAPACITY),
        DEFAULT_MEMORY_CAPACITY,
    );
    let mut ticks = Ticks::default();
    let mut inproc = ResultCache::in_memory(DEFAULT_MEMORY_CAPACITY);
    if args.trace {
        tracer.start_job(usize::MAX, true);
        let filled = tracer.span("setup", |t| replica.resolve(t, &working.grid()))?;
        for (point, key) in filled {
            ticks.add(&point);
            inproc.store(key, point.result);
        }
    }
    let service = SweepService::new(inproc);
    // The daemon's peak resident set over set-up and the first
    // COUNT_JOBS jobs: the same work on every run, however fast.
    let mut rss = 0.0;

    let start = Instant::now();
    while m.out.attempted < MIN_JOBS || start.elapsed() < args.seconds {
        let sweep = warm_job(&mut rng, &latencies);
        let request = Request::Sweep {
            spec: Box::new(sweep.clone()),
            deadline_ms: None,
        };
        m.out.attempted += 1;
        let traced = args.trace && m.out.attempted.is_multiple_of(2);
        tracer.start_job(m.out.attempted - 1, traced);
        let (served, replayed) = tracer.span(JOB, |t| {
            let served = t.span("exec.socket", |t| submit(&mut conn, &request, t));
            let replayed = if args.trace && served.is_ok() {
                let replayed = replica.sweep(t, &sweep);
                let local = t.span("exec.inproc", |_| service.run(&sweep));
                Some((replayed, local))
            } else {
                None
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
        if m.record(&served, traced) + 1 == COUNT_JOBS {
            rss = peak_rss_mb(Some(daemon.pid()));
        }
        check(&mut m, &served.points);
        if served.simulated() != 0 {
            m.fail("a warm job simulated points");
        }
        if let Some((replayed, local)) = replayed {
            let (results, _) = local.map_err(|e| e.to_string())?;
            let served_digest = digest_by_index(&served.points);
            if digest_by_index(&replayed?) != served_digest
                || digest_of(&results.points) != served_digest
            {
                m.fail("the replayed layers and the in-process service differ from the daemon");
            }
        }
    }
    m.stop(daemon, &mut conn)?;

    let mut values = HashMap::new();
    if args.trace {
        report_probes(&probes, &mut values);
        report_ticks(&ticks, &mut values);
        replica.report(&tracer, &mut values);
        let points = m.traced_points.max(1) as f64;
        let job = |span: &str| tracer.job_total(span).as_secs_f64();
        // The daemon derives every key and looks every point up before
        // it sends the first frame; its rendering overlaps the client's
        // parsing, so only the former is taken off the round trip.
        let transport = job("exec.socket") - job("proto.parse") - job("key") - job("cache.get");
        values.insert("transport.us_per_point", transport * 1e6 / points);
        values.insert("proto.parse_us_per_point", m.parse_us_per_point(&tracer));
        values.insert("exec.inproc_points_per_s", points / job("exec.inproc"));
        values.insert(
            "exec.wire_overhead_x",
            job("exec.socket") / job("exec.inproc"),
        );
        values.insert("cache.hit_ratio", m.hits.0 as f64 / m.hits.1.max(1) as f64);
        values.insert("proto.wire_bytes_per_point", m.wire_bytes_per_point());
        crate::common::finish_trace(args, &tracer, &m.overhead, &mut values)?;
    } else {
        values = m.end_to_end(&setups, rss);
    }
    m.finish(args, &values)
}
