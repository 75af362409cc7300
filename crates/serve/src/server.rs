//! Serving the protocol: a generic line loop, plus stdio and Unix-socket
//! front ends.
//!
//! The daemon is built to stay up: a malformed request, a client that
//! hangs up mid-stream, a grid point that panics, or a failed `accept`
//! each cost at most the connection (usually just one response line) —
//! never the process. See the README's Robustness section for the full
//! taxonomy.

use crate::exec::{AdaptiveSummary, Resolved, SweepService};
use crate::proto::{write_point, Coordinates, Request, Response};
use dva_engine::ENGINE_VERSION;
use dva_json::Writer;
use dva_sim_api::{available_workers, CancelToken};
use dva_testutil::failpoint;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transport knobs for the Unix-socket server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// How long a connection may sit idle between request lines before
    /// the server closes it. `None` (the default) waits forever — the
    /// library default suits long-lived interactive clients; the
    /// `dva-serve` binary sets its own bound.
    pub read_timeout: Option<Duration>,
    /// How long one response-line write may block before the connection
    /// is abandoned. `None` (the default) waits forever.
    pub write_timeout: Option<Duration>,
}

/// The longest request line the server reads, newline included — far
/// above any real request. A longer line gets one `error` response and
/// then the connection closes, so a newline-free stream cannot make the
/// daemon buffer without limit.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The most grid points one job may ask for: a sweep's
/// [`len`](dva_sim_api::Sweep::len) or an adaptive job's
/// [`dense_len`](dva_sim_api::AdaptiveSweep::dense_len). A larger job
/// gets one `error` line and the connection stays usable, so one request
/// cannot commit the daemon to an unbounded grid. Far above any real
/// job: the paper's full evaluation grid is a few hundred points, and an
/// adaptive job's dense grid a few thousand.
pub const MAX_JOB_POINTS: usize = 1 << 16;

/// The longest `error` message, in bytes, sent back for a request line
/// that does not parse. Parse errors may quote client input (an unknown
/// request type, a malformed number); a longer message is cut on a char
/// boundary and ends in `…`, so a hostile line is never echoed back.
pub const MAX_ERROR_MESSAGE: usize = 256;

/// `message` cut to at most [`MAX_ERROR_MESSAGE`] bytes plus `…`.
fn clip(mut message: String) -> String {
    if message.len() > MAX_ERROR_MESSAGE {
        message.truncate(message.floor_char_boundary(MAX_ERROR_MESSAGE));
        message.push('…');
    }
    message
}

/// Admits a parsed request, or says why not. A job over
/// [`MAX_JOB_POINTS`] is refused. A job asking for more worker threads
/// than the host's available parallelism is lowered to it: results do
/// not depend on the thread count, and a client's count would otherwise
/// start that many OS threads.
fn admit(request: Request) -> Result<Request, String> {
    let points = match &request {
        Request::Sweep { spec, .. } => spec.len(),
        Request::Adaptive { spec, .. } => spec.dense_len(),
        Request::Ping | Request::Shutdown => 0,
    };
    if points > MAX_JOB_POINTS {
        return Err(format!(
            "job of {points} grid points exceeds the limit of {MAX_JOB_POINTS}"
        ));
    }
    let workers = available_workers();
    Ok(match request {
        Request::Sweep { spec, deadline_ms } if spec.effective_threads() > workers => {
            Request::Sweep {
                spec: Box::new((*spec).threads(workers)),
                deadline_ms,
            }
        }
        Request::Adaptive { spec, deadline_ms } if spec.dense().effective_threads() > workers => {
            Request::Adaptive {
                spec: Box::new((*spec).threads(workers)),
                deadline_ms,
            }
        }
        request => request,
    })
}

/// The cancel token governing a job with an optional deadline.
fn cancel_for(deadline_ms: Option<u64>) -> CancelToken {
    match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    }
}

/// Whether a read error means "the client went quiet or went away" —
/// routine connection lifecycle, not a server fault.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
    )
}

/// Writes response lines: each is built in one reused buffer, newline
/// included, and goes out as one write and one flush, so clients see
/// points as they complete.
struct Responder<W> {
    writer: W,
    line: String,
}

impl<W: Write> Responder<W> {
    fn send(&mut self, response: &Response) -> io::Result<()> {
        // Cleared first, so a line a panic left half-written is dropped.
        self.line.clear();
        response.write_json(&mut Writer::new(&mut self.line));
        self.send_line()
    }

    /// Sends a `point` frame: the coordinates, then the result's stored
    /// bytes spliced in, so no result is rendered here.
    fn send_point(&mut self, index: usize, at: &Coordinates<'_>, stored: &str) -> io::Result<()> {
        self.line.clear();
        write_point(&mut Writer::new(&mut self.line), index, at, stored);
        self.send_line()
    }

    /// Sends the line built in the buffer.
    fn send_line(&mut self) -> io::Result<()> {
        failpoint::hit("serve.socket.write", || self.line.clone())?;
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        self.writer.flush()
    }
}

/// Serves one connection: reads request lines until EOF or a shutdown
/// request, writing response lines. Returns `true` if the client asked
/// the whole server to shut down.
///
/// A line that is not UTF-8, does not parse or asks for more than
/// [`MAX_JOB_POINTS`] gets one `error` response and the connection stays
/// usable; a job's worker threads are capped at the host's available
/// parallelism. A panic while serving a job — in the merge, a render or
/// a summary, on this thread — cancels that job and costs one `error`
/// line; the connection stays usable. An idle timeout or reset on the
/// read side closes the connection quietly (`Ok(false)`), as does a line
/// longer than [`MAX_REQUEST_LINE`] after its one `error` response;
/// write failures — the client hung up mid-stream — cancel the in-flight
/// job and surface as the error.
pub fn serve_connection(
    service: &SweepService,
    mut reader: impl BufRead,
    writer: impl Write,
) -> io::Result<bool> {
    let mut out = Responder {
        writer,
        line: String::new(),
    };
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader
            .by_ref()
            .take(MAX_REQUEST_LINE as u64)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e) if is_disconnect(&e) => return Ok(false),
            Err(e) => return Err(e),
        }
        if buf.len() == MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            out.send(&Response::Error {
                message: format!("request line longer than {MAX_REQUEST_LINE} bytes"),
            })?;
            return Ok(false);
        }
        let request_line = match std::str::from_utf8(&buf) {
            Ok(text) => text,
            Err(e) => {
                out.send(&Response::Error {
                    message: format!("request line is not UTF-8 ({e})"),
                })?;
                continue;
            }
        };
        let request_line = request_line
            .strip_suffix('\n')
            .map_or(request_line, |l| l.strip_suffix('\r').unwrap_or(l));
        if request_line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(request_line) {
            Ok(request) => request,
            Err(e) => {
                out.send(&Response::Error {
                    message: clip(e.to_string()),
                })?;
                continue;
            }
        };
        let request = match admit(request) {
            Ok(request) => request,
            Err(message) => {
                out.send(&Response::Error { message })?;
                continue;
            }
        };
        let cancel = match request {
            Request::Ping => {
                out.send(&Response::Pong {
                    engine_version: ENGINE_VERSION,
                })?;
                continue;
            }
            Request::Shutdown => {
                out.send(&Response::Bye)?;
                return Ok(true);
            }
            Request::Sweep { deadline_ms, .. } | Request::Adaptive { deadline_ms, .. } => {
                cancel_for(deadline_ms)
            }
        };
        // The backstop: a panic on this thread ends the job, not the
        // connection. Workers already isolate a point's own panic.
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_job(service, request, &cancel, &mut out)
        }));
        match served {
            Ok(result) => result?,
            Err(_) => {
                cancel.cancel();
                out.send(&Response::Error {
                    message: "internal error while serving the job; the job was cancelled"
                        .to_string(),
                })?;
            }
        }
    }
}

/// Serves one admitted sweep or adaptive job under `cancel`: its point
/// lines, then its summary (or the `error` line of an interrupted job).
/// A write failure cancels the job and is returned.
fn serve_job(
    service: &SweepService,
    request: Request,
    cancel: &CancelToken,
    out: &mut Responder<impl Write>,
) -> io::Result<()> {
    match request {
        Request::Sweep { spec, .. } => {
            let mut run = service.submit(&spec.cancel_token(cancel.clone()));
            // Reused for the label of every cached point's frame.
            let mut label = String::new();
            let mut index = 0;
            while let Some(outcome) = run.next_resolved() {
                let sent = match outcome {
                    Ok(Resolved::Hit(spec, stored)) => {
                        out.send_point(index, &Coordinates::of_spec(&spec, &mut label), &stored)
                    }
                    Ok(Resolved::Miss(point, stored)) => {
                        out.send_point(index, &Coordinates::of_point(&point), &stored)
                    }
                    Err(error) => out.send(&Response::PointError(error)),
                };
                index += 1;
                if let Err(e) = sent {
                    // The client is gone: stop simulating the rest of
                    // the job, keep the daemon.
                    cancel.cancel();
                    return Err(e);
                }
            }
            if run.interrupted() {
                out.send(&Response::Error {
                    message: run.interruption().to_string(),
                })
            } else {
                out.send(&Response::Summary(run.summary()))
            }
        }
        Request::Adaptive { spec, .. } => {
            let adaptive = spec.cancel_token(cancel.clone());
            // Points stream from inside the adaptive driver's rounds; a
            // write failure is carried out through this slot and cancels
            // the session so no further round is simulated.
            let mut write_error: Option<io::Error> = None;
            let outcome = service.run_adaptive_stored(&adaptive, |index, point, stored| {
                if write_error.is_none() {
                    if let Err(e) = out.send_point(index, &Coordinates::of_point(point), stored) {
                        cancel.cancel();
                        write_error = Some(e);
                    }
                }
            });
            if let Some(e) = write_error {
                return Err(e);
            }
            match outcome {
                Err(e) => out.send(&Response::Error {
                    message: e.to_string(),
                }),
                Ok((outcome, job)) => out.send(&Response::AdaptiveSummary(AdaptiveSummary::of(
                    &outcome.report,
                    job,
                ))),
            }
        }
        // Answered by the connection loop; never a job.
        Request::Ping | Request::Shutdown => Ok(()),
    }
}

/// Serves the protocol over stdin/stdout until EOF or a shutdown
/// request.
pub fn serve_stdio(service: &SweepService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(service, stdin.lock(), stdout.lock())?;
    Ok(())
}

/// [`serve_unix_with`] under default [`ServeOptions`] (no timeouts).
pub fn serve_unix(service: Arc<SweepService>, path: &Path) -> io::Result<()> {
    serve_unix_with(service, path, ServeOptions::default())
}

/// Binds `path` and serves connections until a client sends a shutdown
/// request. Each connection is handled on its own thread; they share the
/// service (and therefore the result cache). A pre-existing socket file
/// at `path` is replaced.
///
/// The accept loop is deliberately hard to kill: a failed `accept` (or a
/// socket that cannot take its timeouts) is logged and skipped, a
/// connection thread that errors out takes only its own client with it,
/// and finished worker threads are reaped as new connections arrive, so
/// a long-lived daemon does not accumulate handles.
pub fn serve_unix_with(
    service: Arc<SweepService>,
    path: &Path,
    options: ServeOptions,
) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for connection in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        workers.retain(|worker| !worker.is_finished());
        let stream = match connection {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("dva-serve: accept failed ({e}); still listening");
                continue;
            }
        };
        if let Err(e) = stream
            .set_read_timeout(options.read_timeout)
            .and_then(|()| stream.set_write_timeout(options.write_timeout))
        {
            eprintln!("dva-serve: dropping connection (cannot set timeouts: {e})");
            continue;
        }
        let service = Arc::clone(&service);
        let shutdown_flag = Arc::clone(&shutdown);
        let wake_path = path.to_path_buf();
        workers.push(std::thread::spawn(move || {
            let Ok(reader) = stream.try_clone().map(BufReader::new) else {
                return;
            };
            if let Ok(true) = serve_connection(&service, reader, &stream) {
                shutdown_flag.store(true, Ordering::SeqCst);
                // The accept loop is blocked in `incoming`; a throwaway
                // connection unblocks it so it can observe the flag.
                let _ = std::os::unix::net::UnixStream::connect(&wake_path);
            }
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use dva_sim_api::{AdaptiveSweep, Machine, Sweep};
    use dva_workloads::{Benchmark, Scale};
    use proptest::prelude::*;
    use std::io::Cursor;

    /// Runs `input` through one in-process connection and returns the
    /// response lines.
    fn converse(input: impl AsRef<[u8]>) -> Vec<Response> {
        let service = SweepService::new(ResultCache::in_memory(16));
        let mut output = Vec::new();
        let shutdown =
            serve_connection(&service, Cursor::new(input.as_ref()), &mut output).unwrap();
        assert!(!shutdown);
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| Response::parse(line).unwrap())
            .collect()
    }

    /// A request line that does not parse: random bytes or text, a
    /// truncated valid request, a deep run of `[`, a long string or a
    /// huge number.
    fn bad_line() -> impl Strategy<Value = Vec<u8>> {
        let sweep = Request::Sweep {
            spec: Box::new(
                Sweep::new()
                    .machines([Machine::reference(1), Machine::dva(1)])
                    .benchmark(Benchmark::Trfd)
                    .latencies([1, 30])
                    .scale(Scale::Quick),
            ),
            deadline_ms: Some(2_500),
        }
        .render()
        .unwrap();
        let text_char = prop_oneof![
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            prop_oneof![Just('"'), Just('\\'), Just('{'), Just('['), Just('\t')],
            (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
        ];
        // Any byte but the newline that would end the line.
        let byte = prop_oneof![0u8..b'\n', b'\n' + 1..=u8::MAX];
        let text = prop_oneof![
            // `#` keeps the line from being blank (blank lines are skipped).
            collection::vec(text_char, 0..200)
                .prop_map(|cs| std::iter::once('#').chain(cs).collect::<String>()),
            (1usize..sweep.len()).prop_map(move |cut| sweep[..cut].to_string()),
            (dva_json::MAX_DEPTH + 1..20_000).prop_map(|n| "[".repeat(n)),
            (1_000usize..100_000).prop_map(|n| format!("{{\"type\":\"{}\"}}", "é".repeat(n))),
            (1_000usize..100_000).prop_map(|n| format!("{{\"type\":\"{}", "a".repeat(n))),
            Just("9".repeat(100_000)),
            Just(format!(
                "{{\"type\":\"ping\",\"deadline_ms\":{}}}",
                "7".repeat(100_000)
            )),
        ];
        prop_oneof![
            text.prop_map(String::into_bytes),
            // `#` or a byte no UTF-8 text holds, then random bytes.
            (any::<bool>(), collection::vec(byte, 0..200)).prop_map(|(utf8_start, bytes)| {
                let first = if utf8_start { b'#' } else { 0xff };
                std::iter::once(first).chain(bytes).collect()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn each_bad_line_costs_one_bounded_error_and_the_connection_answers_ping(
            lines in collection::vec(bad_line(), 1..5),
        ) {
            let mut input = Vec::new();
            for line in &lines {
                input.extend_from_slice(line);
                input.push(b'\n');
            }
            input.extend_from_slice(b"{\"type\":\"ping\"}\n");
            let responses = converse(input);
            prop_assert_eq!(responses.len(), lines.len() + 1);
            for response in &responses[..lines.len()] {
                match response {
                    Response::Error { message } => prop_assert!(
                        message.len() <= MAX_ERROR_MESSAGE + '…'.len_utf8(),
                        "{} bytes",
                        message.len()
                    ),
                    other => prop_assert!(false, "expected an error, got {other:?}"),
                }
            }
            prop_assert!(matches!(responses[lines.len()], Response::Pong { .. }));
        }
    }

    /// Request lines with a timing value past [`dva_isa::MAX_DELAY`]: a
    /// sweep latency of `i64::MAX` and of 2^62, an FU startup and a QMOV
    /// startup of `i64::MAX`, and an adaptive axis reaching `i64::MAX`.
    /// Unbounded, each was simulated and its cycle counts then overflowed
    /// the JSON integer range, panicking the writer.
    fn hostile_timing_lines() -> [String; 5] {
        let template = |machine| {
            Sweep::new()
                .machine(machine)
                .benchmark(Benchmark::Trfd)
                .scale(Scale::Quick)
                .threads(1)
        };
        let sweep = |machine| {
            Request::Sweep {
                spec: Box::new(template(machine).latencies([1])),
                deadline_ms: None,
            }
            .render()
            .unwrap()
        };
        let adaptive = Request::Adaptive {
            spec: Box::new(AdaptiveSweep::over(template(Machine::dva(1)), [1, 2])),
            deadline_ms: None,
        }
        .render()
        .unwrap();
        let max = i64::MAX;
        let [reference, dva] = [sweep(Machine::reference(1)), sweep(Machine::dva(1))];
        let lines = [
            reference.replace(r#""latencies":[1]"#, &format!(r#""latencies":[{max}]"#)),
            reference.replace(
                r#""latencies":[1]"#,
                &format!(r#""latencies":[{}]"#, 1u64 << 62),
            ),
            reference.replace(r#""fu_startup":4"#, &format!(r#""fu_startup":{max}"#)),
            dva.replace(r#""qmov_startup":2"#, &format!(r#""qmov_startup":{max}"#)),
            adaptive.replace(r#""axis":[1,2]"#, &format!(r#""axis":[1,{max}]"#)),
        ];
        for (line, source) in lines
            .iter()
            .zip([&reference, &reference, &reference, &dva, &adaptive])
        {
            assert_ne!(line, source, "the hostile value must land in the line");
        }
        lines
    }

    #[test]
    fn hostile_timing_values_cost_one_error_each_and_the_connection_answers_ping() {
        let mut input = String::new();
        for line in hostile_timing_lines() {
            input += &line;
            input += "\n{\"type\":\"ping\"}\n";
        }
        let responses = converse(input);
        assert_eq!(responses.len(), 10, "{responses:?}");
        for pair in responses.chunks(2) {
            match pair {
                [Response::Error { message }, Response::Pong { .. }] => {
                    let bound = format!("outside 0..={}", dva_isa::MAX_DELAY);
                    assert!(message.contains(&bound), "{message}");
                }
                other => panic!("expected an error then a pong, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_panic_while_serving_a_job_costs_one_error_and_the_connection_stays_open() {
        use dva_testutil::failpoint::{FailAction, Failpoint};
        // Only this test arms `serve.socket.write` in this crate, and its
        // filter matches only this job's point line (latency 7937).
        let sweep = Request::Sweep {
            spec: Box::new(
                Sweep::new()
                    .machine(Machine::reference(1))
                    .benchmark(Benchmark::Trfd)
                    .latencies([7937])
                    .scale(Scale::Quick)
                    .threads(1),
            ),
            deadline_ms: None,
        }
        .render()
        .unwrap();
        failpoint::arm(
            "serve.socket.write",
            Failpoint::new(FailAction::Panic)
                .filter(r#""latency":7937,"memory""#)
                .times(1),
        );
        let responses = converse(format!("{sweep}\n{{\"type\":\"ping\"}}\n{sweep}\n"));
        let fired = failpoint::fired("serve.socket.write");
        failpoint::disarm("serve.socket.write");
        assert_eq!(fired, 1);
        match &responses[..] {
            [Response::Error { message }, Response::Pong { .. }, Response::Point { .. }, Response::Summary(summary)] =>
            {
                assert!(message.contains("internal error"), "{message}");
                // The first job's point was measured and cached before
                // its line panicked; the resubmission is a hit.
                assert_eq!(summary.cache_hits, 1);
            }
            other => panic!("expected an error, a pong, then the job, got {other:?}"),
        }
    }

    #[test]
    fn each_response_line_goes_out_in_one_write() {
        /// Counts the writes a connection makes.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.0.push(bytes.to_vec());
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let service = SweepService::new(ResultCache::in_memory(16));
        let sweep = Request::Sweep {
            spec: Box::new(
                Sweep::new()
                    .machines([Machine::reference(1), Machine::ideal()])
                    .benchmark(Benchmark::Trfd)
                    .scale(Scale::Quick),
            ),
            deadline_ms: None,
        };
        let input = format!(
            "{}\n{{\"type\":\"ping\"}}\nnot json\n",
            sweep.render().unwrap()
        );
        let mut writes = Writes(Vec::new());
        serve_connection(&service, Cursor::new(input), &mut writes).unwrap();
        // Two points, the summary, the pong and the error: one write each,
        // newline included.
        assert_eq!(writes.0.len(), 5);
        for write in &writes.0 {
            assert_eq!(write.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(write.last(), Some(&b'\n'));
        }
    }

    /// A fully cached job allocates nine buffers whatever its size — the
    /// sweep's clone (three vectors), its grid (four), the hit queue and
    /// the label buffer — and nothing per point: each hit is a key, a
    /// lookup and a copy of its stored bytes into the reused line. A
    /// per-hit clone, decode or render moves these counts.
    #[test]
    fn a_cached_job_allocates_nothing_per_point() {
        use dva_testutil::thread_allocation_count;
        let service = SweepService::new(ResultCache::in_memory(1024));
        let job = |latencies: u64| Request::Sweep {
            spec: Box::new(
                Sweep::new()
                    .machines([
                        Machine::reference(1),
                        Machine::dva(1),
                        Machine::byp(1, 4, 8),
                        Machine::ideal(),
                    ])
                    .benchmark(Benchmark::Trfd)
                    .latencies(1..=latencies)
                    .scale(Scale::Quick)
                    .threads(1),
            ),
            deadline_ms: None,
        };
        let mut out = Responder {
            writer: Vec::with_capacity(1 << 20),
            line: String::new(),
        };
        // Fills the cache, and grows the line to the longest frame.
        serve_job(&service, job(16), &CancelToken::new(), &mut out).unwrap();
        for latencies in [8, 16] {
            out.writer.clear();
            let (request, cancel) = (job(latencies), CancelToken::new());
            let before = thread_allocation_count();
            serve_job(&service, request, &cancel, &mut out).unwrap();
            let allocations = thread_allocation_count() - before;
            let text = std::str::from_utf8(&out.writer).unwrap();
            let frames = text.lines().filter(|l| l.starts_with(r#"{"type":"point""#));
            assert_eq!(frames.count() as u64, 4 * latencies);
            let summary = format!(
                "\"cache_hits\":{},\"simulated\":0,\"errors\":0}}\n",
                4 * latencies
            );
            assert!(text.ends_with(&summary), "{text}");
            assert_eq!(allocations, 9, "a job of {latencies} latencies");
        }
    }

    #[test]
    fn a_non_utf8_line_gets_an_error_and_the_connection_stays_open() {
        let responses = converse(b"\xff\xfe{\"type\":\"ping\"}\n{\"type\":\"ping\"}\n");
        match &responses[..] {
            [Response::Error { message }, Response::Pong { .. }] => {
                assert!(message.contains("not UTF-8"), "{message}");
            }
            other => panic!("expected an error then a pong, got {other:?}"),
        }
    }

    #[test]
    fn jobs_over_the_point_limit_get_an_error_and_the_connection_stays_open() {
        // Two machines at 40,000 latencies: 80,000 points.
        let template = Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .scale(Scale::Quick);
        let sweep = template.clone().latencies(1..=40_000);
        let adaptive = AdaptiveSweep::over(template, 1..=40_000);
        assert!(sweep.len() > MAX_JOB_POINTS && adaptive.dense_len() > MAX_JOB_POINTS);
        let requests = [
            Request::Sweep {
                spec: Box::new(sweep),
                deadline_ms: None,
            },
            Request::Adaptive {
                spec: Box::new(adaptive),
                deadline_ms: None,
            },
        ];
        for request in requests {
            let input = request.render().unwrap() + "\n{\"type\":\"ping\"}\n";
            match &converse(input)[..] {
                [Response::Error { message }, Response::Pong { .. }] => {
                    assert_eq!(
                        message,
                        &format!("job of 80000 grid points exceeds the limit of {MAX_JOB_POINTS}")
                    );
                }
                other => panic!("expected an error then a pong, got {other:?}"),
            }
        }
    }

    #[test]
    fn admission_caps_worker_threads_at_the_available_parallelism() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(available_workers(), workers);
        let template = Sweep::new()
            .machine(Machine::reference(1))
            .benchmark(Benchmark::Trfd)
            .scale(Scale::Quick);
        // Only admitted, never run: no worker thread starts here.
        for (asked, admitted) in [(65_536, workers), (1, 1), (0, workers)] {
            let requests = [
                Request::Sweep {
                    spec: Box::new(template.clone().latencies([1]).threads(asked)),
                    deadline_ms: None,
                },
                Request::Adaptive {
                    spec: Box::new(AdaptiveSweep::over(template.clone().threads(asked), 1..=8)),
                    deadline_ms: None,
                },
            ];
            for request in requests {
                let threads = match admit(request).unwrap() {
                    Request::Sweep { spec, .. } => spec.effective_threads(),
                    Request::Adaptive { spec, .. } => spec.dense().effective_threads(),
                    other => panic!("admission changed the request kind: {other:?}"),
                };
                assert_eq!(threads, admitted, "threads: {asked}");
            }
        }
    }

    #[test]
    fn sweep_size_saturates_instead_of_wrapping() {
        let huge = Sweep::new()
            .machines(vec![Machine::ideal(); 1 << 16])
            .benchmarks(vec![Benchmark::Trfd; 1 << 16])
            .latencies(0..1 << 16)
            .memory_models(vec![dva_sim_api::MemoryModelKind::Flat; 1 << 16]);
        assert_eq!(huge.len(), usize::MAX);
    }

    #[test]
    fn long_messages_are_clipped_on_a_char_boundary() {
        assert_eq!(clip("short".to_string()), "short");
        let exact = "a".repeat(MAX_ERROR_MESSAGE);
        assert_eq!(clip(exact.clone()), exact);
        // `é` is two bytes: the cut at an odd offset backs up one byte.
        let clipped = clip(format!("a{}", "é".repeat(MAX_ERROR_MESSAGE)));
        assert_eq!(
            clipped,
            format!("a{}…", "é".repeat(MAX_ERROR_MESSAGE / 2 - 1))
        );
        assert!(clipped.len() <= MAX_ERROR_MESSAGE + '…'.len_utf8());
    }
}
