//! The `dva-serve` wire protocol: newline-delimited JSON, symmetric over
//! stdin/stdout and Unix sockets.
//!
//! Requests (one object per line):
//!
//! | request | response |
//! |---|---|
//! | `{"type":"ping"}` | `{"type":"pong","engine_version":N}` |
//! | `{"type":"sweep","spec":…[,"deadline_ms":D]}` | a `point` or `point_error` line per grid point, then one `summary` |
//! | `{"type":"adaptive","spec":…[,"deadline_ms":D]}` | a `point` line per **sampled** point, then one `adaptive_summary` |
//! | `{"type":"shutdown"}` | `{"type":"bye"}`, then the server exits |
//!
//! `deadline_ms`, when present, bounds the job's wall-clock time: once it
//! expires the server stops simulating, drops the job's remaining points,
//! and ends the job with an `error` line (`"job deadline exceeded"`). The
//! connection stays usable.
//!
//! Responses:
//!
//! - `{"type":"point","index":N,"point":…}` — one completed grid point,
//!   streamed in deterministic grid order as it becomes available. For
//!   an adaptive job, `index` is the point's **dense grid index** (the
//!   index the full-axis sweep assigns it), and points stream in
//!   refinement-round order.
//! - `{"type":"point_error","index":N,"kind":"panic"|"deadlock","label":L,
//!   "program":P,"latency":M,"memory":…,"message":"…"}` — grid point N
//!   failed (its simulation panicked or the engine watchdog diagnosed a
//!   deadlock). The frame takes the point's position in the stream;
//!   every other point of the job is still served, byte-identical to a
//!   fault-free run.
//! - `{"type":"summary","total":T,"cache_hits":H,"simulated":S,"errors":E}`
//!   — job complete (`errors` counts the `point_error` frames).
//! - `{"type":"adaptive_summary","dense":D,"sampled":N,…}` — adaptive
//!   job complete: the sampled / skipped-as-interpolated /
//!   skipped-as-dominated split plus the cache accounting.
//! - `{"type":"error","message":"…"}` — the request (or the remainder of
//!   a job) failed; the connection stays usable.

use crate::exec::{AdaptiveSummary, JobSummary};
use dva_json::{JsonError, Reader, Writer};
use dva_sim_api::{AdaptiveSweep, PointError, PointErrorKind, Sweep, SweepPoint};

/// The capacity [`Response::render`] starts a line with: most point
/// frames fit, and one doubling fits a decoupled machine's with its
/// 257-bucket AVDQ histogram.
const LINE_CAPACITY: usize = 1 << 10;

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Run a sweep job.
    Sweep {
        /// The job.
        spec: Box<Sweep>,
        /// Wall-clock budget for the whole job, if any.
        deadline_ms: Option<u64>,
    },
    /// Run an adaptive sweep job.
    Adaptive {
        /// The job.
        spec: Box<AdaptiveSweep>,
        /// Wall-clock budget for the whole job, if any.
        deadline_ms: Option<u64>,
    },
    /// Stop the server after answering.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, JsonError> {
        Reader::decode(line, |r| {
            r.object(|o| {
                Ok(match &*o.field_with("type", Reader::str)? {
                    "ping" => Request::Ping,
                    "sweep" => Request::Sweep {
                        spec: Box::new(o.field("spec")?),
                        deadline_ms: o.lenient("deadline_ms")?,
                    },
                    "adaptive" => Request::Adaptive {
                        spec: Box::new(o.field("spec")?),
                        deadline_ms: o.lenient("deadline_ms")?,
                    },
                    "shutdown" => Request::Shutdown,
                    other => return Err(JsonError(format!("unknown request type `{other}`"))),
                })
            })
        })
    }

    /// Renders this request as its wire line (no trailing newline).
    /// `deadline_ms` is rendered only when set, so deadline-free lines
    /// are byte-identical to the previous protocol revision.
    ///
    /// # Errors
    ///
    /// Fails only for sweeps that cannot be serialized (custom machines
    /// or custom programs).
    pub fn render(&self) -> Result<String, JsonError> {
        let mut line = String::new();
        Writer::new(&mut line).object(|w| {
            match self {
                Request::Ping => w.field("type", "ping"),
                Request::Sweep { spec, deadline_ms } => {
                    w.field("type", "sweep");
                    w.key("spec");
                    spec.write_json(w)?;
                    if let Some(ms) = deadline_ms {
                        w.field("deadline_ms", ms);
                    }
                }
                Request::Adaptive { spec, deadline_ms } => {
                    w.field("type", "adaptive");
                    w.key("spec");
                    spec.write_json(w)?;
                    if let Some(ms) = deadline_ms {
                        w.field("deadline_ms", ms);
                    }
                }
                Request::Shutdown => w.field("type", "shutdown"),
            }
            Ok::<_, JsonError>(())
        })?;
        Ok(line)
    }
}

/// A server response line.
#[derive(Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`]: the server's engine version.
    Pong {
        /// The server's `dva_engine::ENGINE_VERSION`.
        engine_version: u32,
    },
    /// One completed grid point.
    Point {
        /// The point's position in the sweep's grid order.
        index: usize,
        /// The measurement.
        point: Box<SweepPoint>,
    },
    /// One failed grid point: its simulation panicked or deadlocked.
    /// Takes the point's position in the stream; the rest of the job
    /// still runs.
    PointError(PointError),
    /// A job finished.
    Summary(JobSummary),
    /// An adaptive job finished.
    AdaptiveSummary(AdaptiveSummary),
    /// A request failed.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`Request::Shutdown`].
    Bye,
}

impl Response {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, JsonError> {
        Reader::decode(line, |r| {
            r.object(|o| {
                Ok(match &*o.field_with("type", Reader::str)? {
                    "pong" => Response::Pong {
                        engine_version: u32::try_from(o.field::<u64>("engine_version")?)
                            .map_err(|_| JsonError("engine_version out of range".to_string()))?,
                    },
                    "point" => Response::Point {
                        index: o.field("index")?,
                        point: Box::new(o.field("point")?),
                    },
                    "point_error" => {
                        let kind = o.field_with("kind", Reader::str)?;
                        Response::PointError(PointError {
                            index: o.field("index")?,
                            kind: PointErrorKind::parse(&kind).ok_or_else(|| {
                                JsonError(format!("unknown point_error kind `{kind}`"))
                            })?,
                            label: o.field("label")?,
                            program: o.field("program")?,
                            latency: o.field("latency")?,
                            memory: o.field("memory")?,
                            message: o.field("message")?,
                        })
                    }
                    "summary" => Response::Summary(JobSummary {
                        total: o.field("total")?,
                        cache_hits: o.field("cache_hits")?,
                        simulated: o.field("simulated")?,
                        // Absent in lines written before the robustness
                        // revision: default to "no point failed".
                        errors: o.lenient("errors")?.unwrap_or(0),
                    }),
                    "adaptive_summary" => Response::AdaptiveSummary(AdaptiveSummary {
                        dense: o.field("dense")?,
                        sampled: o.field("sampled")?,
                        cache_hits: o.field("cache_hits")?,
                        simulated: o.field("simulated")?,
                        interpolated: o.field("interpolated")?,
                        dominated: o.field("dominated")?,
                        pruned_curves: o.field("pruned_curves")?,
                        rounds: o.field("rounds")?,
                    }),
                    "error" => Response::Error {
                        message: o.field("message")?,
                    },
                    "bye" => Response::Bye,
                    other => return Err(JsonError(format!("unknown response type `{other}`"))),
                })
            })
        })
    }

    /// Renders this response as its wire line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Fails only for points measured on machines that cannot be
    /// serialized; the server never produces those.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.write_json(&mut Writer::new(&mut line))?;
        Ok(line)
    }

    /// Writes this response's wire line (no trailing newline); a point
    /// is written straight from the [`SweepPoint`].
    ///
    /// # Errors
    ///
    /// As [`render`](Response::render).
    pub(crate) fn write_json(&self, w: &mut Writer<'_>) -> Result<(), JsonError> {
        w.object(|w| {
            match self {
                Response::Pong { engine_version } => {
                    w.field("type", "pong");
                    w.field("engine_version", engine_version);
                }
                Response::Point { index, point } => {
                    w.field("type", "point");
                    w.field("index", index);
                    w.key("point");
                    point.write_json(w)?;
                }
                Response::PointError(e) => {
                    w.field("type", "point_error");
                    w.field("index", &e.index);
                    w.field("kind", e.kind.as_str());
                    w.field("label", e.label.as_str());
                    w.field("program", e.program.as_str());
                    w.field("latency", &e.latency);
                    w.field("memory", &e.memory);
                    w.field("message", e.message.as_str());
                }
                Response::Summary(summary) => {
                    w.field("type", "summary");
                    w.field("total", &summary.total);
                    w.field("cache_hits", &summary.cache_hits);
                    w.field("simulated", &summary.simulated);
                    w.field("errors", &summary.errors);
                }
                Response::AdaptiveSummary(summary) => {
                    w.field("type", "adaptive_summary");
                    w.field("dense", &summary.dense);
                    w.field("sampled", &summary.sampled);
                    w.field("cache_hits", &summary.cache_hits);
                    w.field("simulated", &summary.simulated);
                    w.field("interpolated", &summary.interpolated);
                    w.field("dominated", &summary.dominated);
                    w.field("pruned_curves", &summary.pruned_curves);
                    w.field("rounds", &summary.rounds);
                }
                Response::Error { message } => {
                    w.field("type", "error");
                    w.field("message", message.as_str());
                }
                Response::Bye => w.field("type", "bye"),
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_engine::ENGINE_VERSION;
    use dva_sim_api::Machine;
    use dva_workloads::{Benchmark, Scale};

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping,
            Request::Shutdown,
            Request::Sweep {
                spec: Box::new(
                    Sweep::new()
                        .machines([Machine::reference(1), Machine::ideal()])
                        .benchmark(Benchmark::Trfd)
                        .latencies([1, 30])
                        .scale(Scale::Quick),
                ),
                deadline_ms: None,
            },
            Request::Sweep {
                spec: Box::new(
                    Sweep::new()
                        .machines([Machine::dva(1)])
                        .benchmark(Benchmark::Trfd)
                        .latencies([1])
                        .scale(Scale::Quick),
                ),
                deadline_ms: Some(2_500),
            },
            Request::Adaptive {
                spec: Box::new(
                    AdaptiveSweep::over(
                        Sweep::new()
                            .machines([Machine::reference(1), Machine::dva(1)])
                            .benchmark(Benchmark::Trfd)
                            .scale(Scale::Quick),
                        1..=64,
                    )
                    .seeds(5)
                    .prune_against("DVA", ["REF"]),
                ),
                deadline_ms: Some(60_000),
            },
        ] {
            let line = request.render().unwrap();
            let back = Request::parse(&line).unwrap();
            assert_eq!(back.render().unwrap(), line);
        }
    }

    #[test]
    fn deadline_free_requests_omit_the_field() {
        let request = Request::Sweep {
            spec: Box::new(
                Sweep::new()
                    .machines([Machine::dva(1)])
                    .benchmark(Benchmark::Trfd)
                    .latencies([1])
                    .scale(Scale::Quick),
            ),
            deadline_ms: None,
        };
        let line = request.render().unwrap();
        assert!(!line.contains("deadline_ms"), "{line}");
        match Request::parse(&line).unwrap() {
            Request::Sweep { deadline_ms, .. } => assert_eq!(deadline_ms, None),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let point = Machine::dva(1).simulate(&Benchmark::Trfd.program(Scale::Quick));
        let sweep_point = SweepPoint {
            machine: Machine::dva(1),
            label: "DVA".to_string(),
            benchmark: Some(Benchmark::Trfd),
            program: "TRFD".to_string(),
            latency: 1,
            memory: dva_sim_api::MemoryModelKind::Flat,
            result: point,
        };
        for response in [
            Response::Pong {
                engine_version: ENGINE_VERSION,
            },
            Response::Point {
                index: 7,
                point: Box::new(sweep_point),
            },
            Response::PointError(PointError {
                index: 3,
                kind: PointErrorKind::Panic,
                label: "DVA".to_string(),
                program: "TRFD".to_string(),
                latency: 30,
                memory: dva_sim_api::MemoryModelKind::Banked {
                    banks: 8,
                    bank_busy: 4,
                },
                message: "poisoned point".to_string(),
            }),
            Response::PointError(PointError {
                index: 0,
                kind: PointErrorKind::Deadlock,
                label: "REF".to_string(),
                program: "DYFESM".to_string(),
                latency: 1,
                memory: dva_sim_api::MemoryModelKind::Flat,
                message: "engine deadlock at cycle 12: no progress for 65 ticks; stuck".to_string(),
            }),
            Response::Summary(JobSummary {
                total: 12,
                cache_hits: 5,
                simulated: 7,
                errors: 0,
            }),
            Response::Summary(JobSummary {
                total: 12,
                cache_hits: 5,
                simulated: 6,
                errors: 1,
            }),
            Response::AdaptiveSummary(AdaptiveSummary {
                dense: 300,
                sampled: 90,
                cache_hits: 20,
                simulated: 70,
                interpolated: 150,
                dominated: 60,
                pruned_curves: 2,
                rounds: 4,
            }),
            Response::Error {
                message: "no such benchmark".to_string(),
            },
            Response::Bye,
        ] {
            let line = response.render().unwrap();
            assert_eq!(Response::parse(&line).unwrap(), response);
        }
    }

    #[test]
    fn malformed_lines_report_errors() {
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"type\":\"warp\"}").is_err());
        assert!(Response::parse("{\"type\":\"warp\"}").is_err());
    }
}
