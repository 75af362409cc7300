//! A typed client for the `dva-serve` protocol.
//!
//! Connection-level faults are made explicit: [`Client::connect`] turns
//! a missing or stale socket into a "daemon not running" error,
//! [`RetryPolicy`] adds capped-exponential-backoff reconnects, and
//! [`Client::submit_with_retry`] re-submits a dropped job wholesale —
//! idempotent by construction, because the server's content-addressed
//! cache answers every already-measured point without re-simulating.

use crate::exec::{AdaptiveSummary, JobSummary};
use crate::proto::{Request, Response};
use dva_sim_api::{AdaptiveSweep, PointError, Sweep, SweepPoint, SweepResults};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Whether an error is worth a reconnect-and-retry: connection
/// lifecycle faults, not protocol violations or server-reported
/// failures.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::NotFound
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
    )
}

/// How often and how patiently to retry a connection-level failure:
/// capped exponential backoff, deterministic (no jitter — retries here
/// are against a local daemon, not a shared remote).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on the per-retry delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, no waiting.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before retry number `retry` (0-based): `base_delay`
    /// doubled per step, capped at `max_delay`.
    pub fn delay(&self, retry: u32) -> Duration {
        let doubled = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(retry.min(16)));
        doubled.min(self.max_delay)
    }
}

/// A connection to a sweep server. Generic over the transport so tests
/// can drive an in-memory pipe; [`Client::connect`] makes the Unix-socket
/// one.
pub struct Client<R, W> {
    reader: BufReader<R>,
    writer: W,
}

impl Client<UnixStream, UnixStream> {
    /// Connects to a server's Unix socket. A missing socket file or a
    /// socket nothing is listening on — the two shapes a dead daemon
    /// takes — come back as a "daemon not running" error rather than a
    /// raw `ENOENT`/`ECONNREFUSED`.
    pub fn connect(path: &Path) -> io::Result<Client<UnixStream, UnixStream>> {
        let stream = UnixStream::connect(path).map_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
            ) {
                io::Error::new(
                    e.kind(),
                    format!(
                        "dva-serve daemon not running at {} ({e}); start it with \
                         `dva-serve --socket {}`",
                        path.display(),
                        path.display()
                    ),
                )
            } else {
                e
            }
        })?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Submits a sweep, reconnecting and re-submitting the whole job if
    /// the connection drops mid-stream (or the daemon is still starting),
    /// sleeping the policy's backoff between tries; non-retryable errors
    /// fail immediately. Safe to retry: every point the interrupted
    /// attempt measured is already in the server's cache, so the
    /// re-submission replays them as cache hits and simulates only what
    /// is left. The returned summary is the final attempt's — its
    /// `cache_hits` count shows the resume at work.
    pub fn submit_with_retry(
        path: &Path,
        policy: &RetryPolicy,
        sweep: &Sweep,
    ) -> io::Result<(SweepResults, JobSummary)> {
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for n in 0..attempts {
            if n > 0 {
                std::thread::sleep(policy.delay(n - 1));
            }
            match Client::connect(path).and_then(|mut client| client.submit(sweep)) {
                Ok(value) => return Ok(value),
                Err(e) if is_retryable(&e) && n + 1 < attempts => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("loop ran at least once"))
    }
}

impl<R: io::Read, W: Write> Client<R, W> {
    /// A client over an arbitrary transport (the read and write halves of
    /// a connection to a server).
    pub fn over(reader: R, writer: W) -> Client<R, W> {
        Client {
            reader: BufReader::new(reader),
            writer,
        }
    }

    /// Sends one request line, newline included, as one write.
    fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut line = request.render().map_err(|e| bad_data(e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    fn receive(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                return Response::parse(line.trim_end()).map_err(|e| bad_data(e.to_string()));
            }
        }
    }

    /// Probes the server, returning its engine version.
    pub fn ping(&mut self) -> io::Result<u32> {
        self.send(&Request::Ping)?;
        match self.receive()? {
            Response::Pong { engine_version } => Ok(engine_version),
            other => Err(bad_data(format!("expected pong, got {other:?}"))),
        }
    }

    /// The fault-aware streaming submit: calls `on_outcome` for every
    /// grid point in deterministic grid order — `Ok` for a measured
    /// point, `Err` with the typed [`PointError`] for a point whose
    /// simulation panicked or deadlocked — and returns the job summary.
    /// `deadline_ms`, when set, bounds the job's wall-clock time on the
    /// server; an expired deadline ends the job with an error.
    pub fn submit_outcomes(
        &mut self,
        sweep: &Sweep,
        deadline_ms: Option<u64>,
        mut on_outcome: impl FnMut(usize, Result<SweepPoint, PointError>),
    ) -> io::Result<JobSummary> {
        self.send(&Request::Sweep {
            spec: Box::new(sweep.clone()),
            deadline_ms,
        })?;
        loop {
            match self.receive()? {
                Response::Point { index, point } => on_outcome(index, Ok(*point)),
                Response::PointError(error) => on_outcome(error.index, Err(error)),
                Response::Summary(summary) => return Ok(summary),
                Response::Error { message } => return Err(bad_data(message)),
                other => return Err(bad_data(format!("unexpected response {other:?}"))),
            }
        }
    }

    /// Submits a sweep and collects the streamed points, returning the
    /// full result set — byte-identical to a local `sweep.run()` — and
    /// the job summary. All or nothing: a failed point fails the whole
    /// call once the job completes (use
    /// [`submit_outcomes`](Client::submit_outcomes) to keep the healthy
    /// points).
    pub fn submit(&mut self, sweep: &Sweep) -> io::Result<(SweepResults, JobSummary)> {
        let mut points = Vec::new();
        let summary =
            self.submit_outcomes(sweep, None, |_, outcome| points.extend(outcome.ok()))?;
        if summary.errors > 0 {
            return Err(bad_data(format!(
                "{} of {} grid points failed",
                summary.errors, summary.total
            )));
        }
        Ok((SweepResults { points }, summary))
    }

    /// Submits an adaptive sweep and calls `on_point` for every
    /// **sampled** point as it streams in (keyed by its dense grid
    /// index, in refinement-round order), returning the adaptive summary
    /// once the server reports completion. `deadline_ms` bounds the
    /// whole session; an expired deadline ends the job with an error
    /// between refinement rounds.
    pub fn submit_adaptive_outcomes(
        &mut self,
        adaptive: &AdaptiveSweep,
        deadline_ms: Option<u64>,
        mut on_point: impl FnMut(usize, SweepPoint),
    ) -> io::Result<AdaptiveSummary> {
        self.send(&Request::Adaptive {
            spec: Box::new(adaptive.clone()),
            deadline_ms,
        })?;
        loop {
            match self.receive()? {
                Response::Point { index, point } => on_point(index, *point),
                Response::AdaptiveSummary(summary) => return Ok(summary),
                Response::Error { message } => return Err(bad_data(message)),
                other => return Err(bad_data(format!("unexpected response {other:?}"))),
            }
        }
    }

    /// Submits an adaptive sweep and collects the sampled points into a
    /// (sparse) result set in dense grid order — every point
    /// byte-identical to the same point of a dense run — plus the
    /// adaptive summary.
    pub fn submit_adaptive(
        &mut self,
        adaptive: &AdaptiveSweep,
    ) -> io::Result<(SweepResults, AdaptiveSummary)> {
        let mut indexed: Vec<(usize, SweepPoint)> = Vec::new();
        let summary = self.submit_adaptive_outcomes(adaptive, None, |index, point| {
            indexed.push((index, point))
        })?;
        indexed.sort_by_key(|&(index, _)| index);
        let points = indexed.into_iter().map(|(_, point)| point).collect();
        Ok((SweepResults { points }, summary))
    }

    /// Asks the server to shut down (acknowledged with a `bye`).
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.receive()? {
            Response::Bye => Ok(()),
            other => Err(bad_data(format!("expected bye, got {other:?}"))),
        }
    }
}
