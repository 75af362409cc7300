//! Serving the protocol: a generic line loop, plus stdio and Unix-socket
//! front ends.
//!
//! The daemon is built to stay up: a malformed request, a client that
//! hangs up mid-stream, a grid point that panics, or a failed `accept`
//! each cost at most the connection (usually just one response line) —
//! never the process. See the README's Robustness section for the full
//! taxonomy.

use crate::exec::{AdaptiveSummary, SweepService};
use crate::proto::{Request, Response};
use dva_engine::ENGINE_VERSION;
use dva_sim_api::CancelToken;
use dva_testutil::failpoint;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixListener;
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

/// Serves one connection: reads request lines until EOF or a shutdown
/// request, writing response lines (flushed per line, so clients see
/// points as they complete). Returns `true` if the client asked the
/// whole server to shut down.
///
/// An idle timeout or reset on the read side closes the connection
/// quietly (`Ok(false)`), as does a line longer than
/// [`MAX_REQUEST_LINE`] after its one `error` response; write failures
/// — the client hung up mid-stream — cancel the in-flight job and
/// surface as the error.
pub fn serve_connection(
    service: &SweepService,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<bool> {
    let respond = |writer: &mut dyn Write, response: &Response| -> io::Result<()> {
        let line = response
            .render()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        failpoint::hit("serve.socket.write", || line.clone())?;
        writeln!(writer, "{line}")?;
        writer.flush()
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
            respond(
                &mut writer,
                &Response::Error {
                    message: format!("request line longer than {MAX_REQUEST_LINE} bytes"),
                },
            )?;
            return Ok(false);
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let line = line
            .strip_suffix('\n')
            .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => {
                respond(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                )?;
                continue;
            }
        };
        match request {
            Request::Ping => respond(
                &mut writer,
                &Response::Pong {
                    engine_version: ENGINE_VERSION,
                },
            )?,
            Request::Shutdown => {
                respond(&mut writer, &Response::Bye)?;
                return Ok(true);
            }
            Request::Sweep { spec, deadline_ms } => {
                let cancel = cancel_for(deadline_ms);
                let sweep = spec.cancel_token(cancel.clone());
                match service.submit(&sweep) {
                    Err(e) => respond(
                        &mut writer,
                        &Response::Error {
                            message: e.to_string(),
                        },
                    )?,
                    Ok(mut run) => {
                        let mut index = 0;
                        while let Some(outcome) = run.next_outcome() {
                            let frame = match outcome {
                                Ok(point) => Response::Point {
                                    index,
                                    point: Box::new(point),
                                },
                                Err(error) => Response::PointError(error),
                            };
                            index += 1;
                            if let Err(e) = respond(&mut writer, &frame) {
                                // The client is gone: stop simulating
                                // the rest of the job, keep the daemon.
                                cancel.cancel();
                                return Err(e);
                            }
                        }
                        if run.interrupted() {
                            respond(
                                &mut writer,
                                &Response::Error {
                                    message: run.interruption().to_string(),
                                },
                            )?;
                        } else {
                            respond(&mut writer, &Response::Summary(run.summary()))?;
                        }
                    }
                }
            }
            Request::Adaptive { spec, deadline_ms } => {
                let cancel = cancel_for(deadline_ms);
                let adaptive = spec.cancel_token(cancel.clone());
                // Points stream from inside the adaptive driver's rounds;
                // a write failure is carried out through this slot and
                // cancels the session so no further round is simulated.
                let mut write_error: Option<io::Error> = None;
                let outcome = service.run_adaptive_with(&adaptive, |index, point| {
                    if write_error.is_none() {
                        if let Err(e) = respond(
                            &mut writer,
                            &Response::Point {
                                index,
                                point: Box::new(point.clone()),
                            },
                        ) {
                            cancel.cancel();
                            write_error = Some(e);
                        }
                    }
                });
                if let Some(e) = write_error {
                    return Err(e);
                }
                match outcome {
                    Err(e) => respond(
                        &mut writer,
                        &Response::Error {
                            message: e.to_string(),
                        },
                    )?,
                    Ok((outcome, job)) => respond(
                        &mut writer,
                        &Response::AdaptiveSummary(AdaptiveSummary::of(&outcome.report, job)),
                    )?,
                }
            }
        }
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
