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
use dva_sim_api::{
    AdaptiveSweep, Machine, MemoryModelKind, PointError, PointErrorKind, PointSpec, Sweep,
    SweepPoint,
};
use dva_workloads::Benchmark;
use std::convert::Infallible;

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
    /// Fails only for sweeps that cannot be serialized (custom
    /// programs).
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
    /// Every response renders: the error type is [`Infallible`], and the
    /// `Result` only keeps existing callers compiling.
    pub fn render(&self) -> Result<String, Infallible> {
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.write_json(&mut Writer::new(&mut line));
        Ok(line)
    }

    /// Writes this response's wire line (no trailing newline); a point
    /// is written straight from the [`SweepPoint`].
    pub(crate) fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| match self {
            Response::Pong { engine_version } => {
                w.field("type", "pong");
                w.field("engine_version", engine_version);
            }
            Response::Point { index, point } => {
                w.field("type", "point");
                w.field("index", index);
                w.field("point", &**point);
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
        })
    }
}

/// Every field of a point frame's [`SweepPoint`] but the result.
pub(crate) struct Coordinates<'a> {
    machine: &'a Machine,
    label: &'a str,
    benchmark: Option<Benchmark>,
    program: &'a str,
    latency: u64,
    memory: MemoryModelKind,
}

impl<'a> Coordinates<'a> {
    /// The coordinates of a measured point.
    pub(crate) fn of_point(point: &'a SweepPoint) -> Coordinates<'a> {
        Coordinates {
            machine: &point.machine,
            label: &point.label,
            benchmark: point.benchmark,
            program: &point.program,
            latency: point.latency,
            memory: point.memory,
        }
    }

    /// The coordinates [`PointSpec::point`] gives a point of `spec`,
    /// with the machine's label written into the reused `label` buffer.
    pub(crate) fn of_spec(spec: &'a PointSpec, label: &'a mut String) -> Coordinates<'a> {
        label.clear();
        spec.machine.write_label(label);
        Coordinates {
            machine: &spec.machine,
            label,
            benchmark: spec.benchmark,
            program: spec.program.name(),
            latency: spec.latency,
            memory: spec.memory,
        }
    }
}

/// Writes one `point` frame (no trailing newline) from its index, its
/// coordinates and its result's stored bytes, spliced in as they are.
/// The fields follow `SweepPoint`'s JSON, so the frame is byte for byte
/// what [`Response::Point`] renders for the decoded point.
pub(crate) fn write_point(w: &mut Writer<'_>, index: usize, at: &Coordinates<'_>, result: &str) {
    w.object(|w| {
        w.field("type", "point");
        w.field("index", &index);
        w.key("point");
        w.object(|w| {
            w.field("machine", at.machine);
            w.field("label", at.label);
            w.field("benchmark", &at.benchmark.map(Benchmark::name));
            w.field("program", at.program);
            w.field("latency", &at.latency);
            w.field("memory", &at.memory);
            w.key("result");
            w.raw(result);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_engine::ENGINE_VERSION;
    use dva_json::Json;
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

    /// Every integer leaf of `json`: its path (member or element
    /// positions) and the name of the member that holds it.
    fn integer_leaves(
        json: &Json,
        path: &mut Vec<usize>,
        name: &str,
        out: &mut Vec<(Vec<usize>, String)>,
    ) {
        match json {
            Json::Int(_) => out.push((path.clone(), name.to_string())),
            Json::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    path.push(i);
                    integer_leaves(item, path, name, out);
                    path.pop();
                }
            }
            Json::Object(fields) => {
                for (i, (key, value)) in fields.iter().enumerate() {
                    path.push(i);
                    integer_leaves(value, path, key, out);
                    path.pop();
                }
            }
            _ => {}
        }
    }

    fn leaf_at<'j>(json: &'j mut Json, path: &[usize]) -> &'j mut Json {
        path.iter().fold(json, |node, &i| match node {
            Json::Array(items) => &mut items[i],
            Json::Object(fields) => &mut fields[i].1,
            other => panic!("no child {i} in {other:?}"),
        })
    }

    /// The schema-wide bound check: every integer a client can send in a
    /// canonical DVA sweep, REF sweep or adaptive request, set to
    /// `i64::MAX`, is refused at decode — unless it is one of the few
    /// fields that are safe at any value. A new integer field with no
    /// bound fails here. Decode only: nothing is simulated.
    #[test]
    fn every_integer_a_request_carries_is_bounded_or_safe_by_construction() {
        use dva_sim_api::MemoryModelKind;
        // Safe at any value: a deadline is only compared with the clock,
        // and admission and the planner clamp threads and seeds.
        const SAFE: [&str; 3] = ["deadline_ms", "threads", "seeds"];
        let banked = MemoryModelKind::Banked {
            banks: 8,
            bank_busy: 4,
        };
        let multiport = MemoryModelKind::MultiPort { ports: 2 };
        let models = [MemoryModelKind::Flat, banked, multiport];
        let dva = Sweep::new()
            .machines([
                Machine::dva(1).with_memory_model(banked),
                Machine::byp(1, 4, 8).with_memory_model(multiport),
            ])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .memory_models(models)
            .scale(Scale::Quick)
            .threads(2);
        let reference = Sweep::new()
            .machines([Machine::reference(1), Machine::ideal()])
            .benchmark(Benchmark::Trfd)
            .latencies([1, 30])
            .memory_models(models)
            .scale(Scale::Quick)
            .threads(2);
        let adaptive = AdaptiveSweep::over(
            Sweep::new()
                .machines([Machine::reference(1), Machine::dva(1)])
                .benchmark(Benchmark::Trfd)
                .memory_models(models)
                .scale(Scale::Quick),
            [1, 30, 100],
        )
        .seeds(3)
        .prune_against("DVA", ["REF"]);
        let requests = [
            Request::Sweep {
                spec: Box::new(dva),
                deadline_ms: Some(2_500),
            },
            Request::Sweep {
                spec: Box::new(reference),
                deadline_ms: Some(2_500),
            },
            Request::Adaptive {
                spec: Box::new(adaptive),
                deadline_ms: Some(2_500),
            },
        ];
        let mut names = std::collections::BTreeSet::new();
        for request in requests {
            let line = request.render().unwrap();
            let json = Json::parse(&line).unwrap();
            let mut leaves = Vec::new();
            integer_leaves(&json, &mut Vec::new(), "", &mut leaves);
            for (path, name) in leaves {
                let mut hostile = json.clone();
                *leaf_at(&mut hostile, &path) = Json::Int(i64::MAX);
                let decoded = Request::parse(&hostile.render());
                assert_eq!(
                    decoded.is_ok(),
                    SAFE.contains(&name.as_str()),
                    "`{name}` = i64::MAX: {:?}",
                    decoded.map(drop)
                );
                names.insert(name);
            }
        }
        // The walk reached every integer field of the schema.
        let expected = [
            "avdq",
            "axis",
            "bank_busy",
            "banks",
            "deadline_ms",
            "fu_startup",
            "instruction_queue",
            "latencies",
            "latency",
            "line_bytes",
            "lines",
            "ports",
            "qmov_startup",
            "scalar_data_queue",
            "scalar_store_queue",
            "seeds",
            "store_queue",
            "threads",
        ];
        assert_eq!(names.into_iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn malformed_lines_report_errors() {
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"type\":\"warp\"}").is_err());
        assert!(Response::parse("{\"type\":\"warp\"}").is_err());
    }
}
