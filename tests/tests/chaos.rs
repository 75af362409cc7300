//! Chaos-path integration tests: deterministic fault injection through
//! the whole serving stack.
//!
//! Every test arms [`dva_testutil::failpoint`] sites (or corrupts state
//! by hand), drives the real daemon over a real Unix socket, and then
//! asserts the two invariants the robustness layer promises:
//!
//! 1. **Isolation** — a fault costs exactly its blast radius (one point,
//!    one connection, one disk tier), never the daemon.
//! 2. **Determinism** — everything outside the blast radius is
//!    byte-identical to a fault-free run.
//!
//! The failpoint registry is process-global, so the tests serialize on
//! one mutex and start from a disarmed registry.

use dva_serve::{Client, ResultCache, RetryPolicy, ServeOptions, SweepService};
use dva_sim_api::{Machine, PointErrorKind, Sweep};
use dva_testutil::failpoint::{self, FailAction, Failpoint};
use dva_workloads::{Benchmark, Scale};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the chaos tests (the failpoint registry is global) and
/// hands each one a clean, disarmed registry.
fn chaos_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::disarm_all();
    guard
}

struct Daemon {
    socket: PathBuf,
    service: Arc<SweepService>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts an in-process socket daemon and waits until it accepts.
    fn start(cache: ResultCache) -> Daemon {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let socket = std::env::temp_dir().join(format!(
            "dva-chaos-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket);
        let service = Arc::new(SweepService::new(cache));
        let handle = {
            let service = Arc::clone(&service);
            let socket = socket.clone();
            std::thread::spawn(move || {
                dva_serve::serve_unix_with(service, &socket, ServeOptions::default())
            })
        };
        // The server binds asynchronously; wait for the socket.
        let mut tries = 0;
        loop {
            match Client::connect(&socket) {
                Ok(_) => break,
                Err(_) if tries < 500 => {
                    tries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("daemon never came up at {}: {e}", socket.display()),
            }
        }
        Daemon {
            socket,
            service,
            handle,
        }
    }

    fn client(&self) -> Client<UnixStream, UnixStream> {
        Client::connect(&self.socket).expect("daemon up")
    }

    fn stop(self) {
        self.client().shutdown().expect("daemon answers shutdown");
        self.handle.join().unwrap().unwrap();
    }
}

/// A small grid with test-specific latencies, so each test's failpoint
/// filters and cache keys can never collide with another test's points.
fn grid(benchmarks: &[Benchmark], latencies: &[u64]) -> Sweep {
    Sweep::new()
        .machines([Machine::reference(1), Machine::dva(1)])
        .benchmarks(benchmarks.to_vec())
        .latencies(latencies.to_vec())
        .scale(Scale::Quick)
        .threads(2)
}

#[test]
fn a_poisoned_point_streams_as_a_typed_error_and_the_daemon_survives() {
    let _guard = chaos_guard();
    let sweep = grid(&[Benchmark::Trfd, Benchmark::Dyfesm], &[33, 66]);
    let fresh = sweep.clone().threads(1).run();
    let daemon = Daemon::start(ResultCache::in_memory(1024));
    let mut client = daemon.client();

    // Poison exactly one of the eight grid points.
    failpoint::arm(
        "sim.point",
        Failpoint::new(FailAction::Panic).filter("DVA|TRFD|L33"),
    );
    let mut healthy = Vec::new();
    let mut faults = Vec::new();
    let summary = client
        .submit_outcomes(&sweep, None, |index, outcome| match outcome {
            Ok(point) => healthy.push((index, point)),
            Err(error) => faults.push(error),
        })
        .unwrap();
    failpoint::disarm("sim.point");

    // Exactly one point_error frame, carrying the poisoned coordinates.
    assert_eq!(faults.len(), 1, "one poisoned point, one error frame");
    let fault = &faults[0];
    assert_eq!(fault.kind, PointErrorKind::Panic);
    assert_eq!(
        (fault.label.as_str(), fault.program.as_str()),
        ("DVA", "TRFD")
    );
    assert_eq!(fault.latency, 33);
    assert!(
        fault.message.contains("failpoint sim.point fired"),
        "panic payload travels the wire: {}",
        fault.message
    );
    assert_eq!(summary.total, 8);
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.simulated, 8);

    // Every other point is byte-identical to the fault-free run.
    assert_eq!(healthy.len(), 7);
    for (index, point) in &healthy {
        assert_eq!(point, &fresh.points[*index]);
        assert_eq!(format!("{point:?}"), format!("{:?}", fresh.points[*index]));
    }

    // The collecting submit is all or nothing: with the point still
    // poisoned, the job fails as a whole, while the healthy points it
    // streamed stay cached.
    failpoint::arm(
        "sim.point",
        Failpoint::new(FailAction::Panic).filter("DVA|TRFD|L33"),
    );
    let err = client.submit(&sweep).unwrap_err();
    failpoint::disarm("sim.point");
    assert!(
        err.to_string().contains("1 of 8 grid points failed"),
        "{err}"
    );

    // The daemon survives, and the failed point was never cached: the
    // same connection resubmits, simulating exactly the poisoned point.
    let (again, cost) = client.submit(&sweep).unwrap();
    assert_eq!(again, fresh, "recovered run is byte-identical");
    assert_eq!(cost.cache_hits, 7, "healthy points resume from cache");
    assert_eq!(cost.simulated, 1, "only the failed point re-simulates");
    assert_eq!(cost.errors, 0);
    drop(client);
    daemon.stop();
}

#[test]
fn deadline_expired_jobs_fail_cleanly_and_the_daemon_survives() {
    let _guard = chaos_guard();
    let sweep = grid(&[Benchmark::Trfd], &[34, 67]);
    let daemon = Daemon::start(ResultCache::in_memory(1024));
    let mut client = daemon.client();

    // A dense job whose deadline has already passed: no point frames,
    // one error line, and the connection stays usable.
    let err = client
        .submit_outcomes(&sweep, Some(0), |_, _| {
            panic!("an expired job must not stream points")
        })
        .unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");
    assert_eq!(client.ping().unwrap(), dva_serve::ENGINE_VERSION);

    // Same for an adaptive session: the deadline is checked between
    // rounds, so round zero never runs.
    let adaptive = dva_sim_api::AdaptiveSweep::over(
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .scale(Scale::Quick)
            .threads(2),
        1..=16,
    )
    .seeds(4);
    let err = client
        .submit_adaptive_outcomes(&adaptive, Some(0), |_, _| {
            panic!("an expired adaptive job must not stream points")
        })
        .unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");

    // An undeadlined job on the same connection still completes.
    let fresh = sweep.clone().threads(1).run();
    let (results, cost) = client.submit(&sweep).unwrap();
    assert_eq!(results, fresh);
    assert_eq!(cost.simulated, 4, "the expired jobs simulated nothing");
    drop(client);
    daemon.stop();
}

#[test]
fn a_dropped_connection_is_resumed_by_retry_with_cache_hits() {
    let _guard = chaos_guard();
    let sweep = grid(
        &[Benchmark::Trfd, Benchmark::Dyfesm, Benchmark::Flo52],
        &[2, 5, 9, 13],
    );
    let fresh = sweep.clone().threads(1).run();
    assert_eq!(fresh.points.len(), 24);
    let daemon = Daemon::start(ResultCache::in_memory(1024));

    // Kill the connection's write side at the 22nd point frame: the
    // first attempt dies mid-stream with 22 points already measured and
    // cached server-side.
    failpoint::arm(
        "serve.socket.write",
        Failpoint::new(FailAction::IoError)
            .skip(21)
            .times(1)
            .filter("\"type\":\"point\""),
    );
    let (results, cost) =
        Client::submit_with_retry(&daemon.socket, &RetryPolicy::default(), &sweep).unwrap();
    assert_eq!(failpoint::fired("serve.socket.write"), 1);
    failpoint::disarm("serve.socket.write");

    assert_eq!(results, fresh, "retried job is byte-identical");
    assert_eq!(format!("{results:?}"), format!("{fresh:?}"));
    assert_eq!(cost.total, 24);
    assert!(
        cost.cache_hits * 10 >= cost.total * 9,
        "resume must replay >=90% from cache, got {}/{}",
        cost.cache_hits,
        cost.total
    );
    daemon.stop();
}

#[test]
fn corrupt_disk_cache_lines_are_skipped_on_reload() {
    let _guard = chaos_guard();
    let dir = std::env::temp_dir().join(format!("dva-chaos-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = grid(&[Benchmark::Trfd], &[41]).threads(1);
    let service = SweepService::new(ResultCache::persistent(&dir, 64).unwrap());
    let (fresh, cost) = service.run(&sweep).unwrap();
    assert_eq!(cost.simulated, 2);
    drop(service);

    // A crash mid-append leaves torn and garbage lines behind.
    let path = dir.join("results.jsonl");
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(file, "this is not json at all").unwrap();
        write!(file, "{{\"key\":\"torn-in-hal").unwrap();
    }

    // Reload skips the dead lines, keeps every live entry, and — with
    // two dead lines against two live entries — compacts the file.
    let service = SweepService::new(ResultCache::persistent(&dir, 64).unwrap());
    let (reloaded, cost) = service.run(&sweep).unwrap();
    assert_eq!(reloaded, fresh, "surviving entries are byte-identical");
    assert_eq!(cost.cache_hits, 2, "nothing re-simulates");
    assert_eq!(cost.simulated, 0);
    let body = std::fs::read_to_string(&path).unwrap();
    assert_eq!(body.lines().count(), 1 + 2, "compacted: header + 2 entries");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_requests_and_abrupt_hangups_leave_the_daemon_serving() {
    let _guard = chaos_guard();
    let daemon = Daemon::start(ResultCache::in_memory(1024));

    // A connection that speaks garbage gets an error line back…
    {
        let stream = UnixStream::connect(&daemon.socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "this is not a request").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"type\":\"error\""), "{line}");
        // …and then hangs up mid-request, taking only itself down.
        write!(writer, "{{\"type\":\"swe").unwrap();
    }

    // The daemon still accepts, answers, and simulates.
    let mut client = daemon.client();
    assert_eq!(client.ping().unwrap(), dva_serve::ENGINE_VERSION);
    let sweep = grid(&[Benchmark::Trfd], &[35]);
    let (results, cost) = client.submit(&sweep).unwrap();
    assert_eq!(results, sweep.clone().threads(1).run());
    assert_eq!(cost.total, 2);
    drop(client);
    daemon.stop();
}

#[test]
fn a_deeply_nested_request_line_gets_one_error_and_the_daemon_survives() {
    let _guard = chaos_guard();
    let daemon = Daemon::start(ResultCache::in_memory(1024));

    // A 200,000-deep run of `[` would overflow a recursive parser's
    // stack and abort the whole process; the depth limit turns it into
    // one error line, and the same connection keeps answering.
    let stream = UnixStream::connect(&daemon.socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{}", "[".repeat(200_000)).unwrap();
    writeln!(writer, "{{\"type\":\"ping\"}}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"type\":\"error\""), "{line}");
    assert!(line.contains("nesting deeper than"), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"type\":\"pong\""),
        "one error line, then the ping's answer: {line}"
    );
    drop((reader, writer));

    // Other connections are unaffected.
    let mut client = daemon.client();
    assert_eq!(client.ping().unwrap(), dva_serve::ENGINE_VERSION);
    drop(client);
    daemon.stop();
}

#[test]
fn an_over_long_request_line_gets_one_error_and_the_daemon_survives() {
    let _guard = chaos_guard();
    let daemon = Daemon::start(ResultCache::in_memory(1024));

    // A 2 MiB line without a newline: the daemon reads no more than
    // `MAX_REQUEST_LINE` bytes of it, answers one error line and closes
    // the connection. The writer runs on its own thread because the
    // daemon hangs up before the whole line is sent.
    let stream = UnixStream::connect(&daemon.socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"type\":\"error\""), "{line}");
    assert!(
        line.contains(&format!(
            "longer than {} bytes",
            dva_serve::server::MAX_REQUEST_LINE
        )),
        "{line}"
    );
    line.clear();
    assert!(
        matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
        "exactly one error line, then the connection closes: {line}"
    );
    flood.join().unwrap();

    // A new connection still answers.
    let mut client = daemon.client();
    assert_eq!(client.ping().unwrap(), dva_serve::ENGINE_VERSION);
    drop(client);
    daemon.stop();
}

#[test]
fn a_near_cap_string_request_is_answered_quickly_with_a_clipped_error() {
    use dva_serve::proto::Response;
    use dva_serve::server::{MAX_ERROR_MESSAGE, MAX_REQUEST_LINE};
    let _guard = chaos_guard();
    let daemon = Daemon::start(ResultCache::in_memory(1024));

    // A `type` string just under the line cap. The parser copies it in
    // one run (a per-character scan would take the daemon tens of
    // seconds), and the error quoting it is clipped to the bound.
    let stream = UnixStream::connect(&daemon.socket).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let request = format!("{{\"type\":\"{}\"}}", "a".repeat(MAX_REQUEST_LINE - 64));
    writeln!(writer, "{request}").unwrap();
    writeln!(writer, "{{\"type\":\"ping\"}}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::parse(line.trim_end()).unwrap() {
        Response::Error { message } => {
            assert!(message.contains("unknown request type"), "{message}");
            assert!(message.ends_with('…'), "{message}");
            assert!(
                message.len() <= MAX_ERROR_MESSAGE + '…'.len_utf8(),
                "{message}"
            );
        }
        other => panic!("expected one error line, got {other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"type\":\"pong\""),
        "one error line, then the ping's answer: {line}"
    );
    drop((reader, writer));
    daemon.stop();
}

#[test]
fn injected_cache_write_failures_demote_to_memory_and_serving_continues() {
    let _guard = chaos_guard();
    let dir = std::env::temp_dir().join(format!("dva-chaos-demote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(ResultCache::persistent(&dir, 1024).unwrap());
    let mut client = daemon.client();
    let sweep = grid(&[Benchmark::Trfd, Benchmark::Dyfesm], &[36, 69]);
    let fresh = sweep.clone().threads(1).run();

    // Every disk append fails: the first failure demotes the tier, the
    // job itself is unaffected.
    failpoint::arm("serve.cache.write", Failpoint::new(FailAction::IoError));
    let (results, cost) = client.submit(&sweep).unwrap();
    failpoint::disarm("serve.cache.write");
    assert_eq!(results, fresh, "disk trouble never corrupts results");
    assert_eq!(cost.errors, 0, "a cache fault is not a point fault");
    assert_eq!(daemon.service.disk_errors(), 1, "first failure demotes");

    // The daemon keeps serving — now from the memory tier.
    let (again, cost) = client.submit(&sweep).unwrap();
    assert_eq!(again, fresh);
    assert_eq!(cost.cache_hits, 8, "memory tier still answers everything");
    assert_eq!(cost.simulated, 0);
    drop(client);
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
