//! Stable JSON forms of machines, results and sweep specifications —
//! the wire format of the `dva-serve` sweep service and the disk format
//! of its result cache.
//!
//! Machines, results and points are plain data and write infallibly
//! ([`ToJson`]). Only a sweep *specification* can fail to write: a
//! custom [`Sweep::program`] is an arbitrary trace that does not cross a
//! process boundary, so [`Sweep::write_json`] (and an adaptive session
//! over such a sweep) reports an error instead of dropping the program.
//!
//! Decoding bounds every timing input a client sends — a machine's
//! memory latency and FU startups, a sweep's latencies, an adaptive
//! axis — at [`MAX_DELAY`], so no decoded value reaches a simulation
//! whose cycle counts could not render.
//!
//! The rendered bytes are a compatibility surface: object fields are
//! emitted in a fixed order and numbers render canonically (see
//! [`dva_json`]), so equal values always produce equal bytes. A golden
//! test pins the format; changes must bump
//! [`dva_engine::ENGINE_VERSION`] so persisted caches are discarded.

use crate::sweep::{Sweep, SweepPoint};
use crate::{Machine, MachineDetail, SimResult};
use dva_core::DvaDetail;
use dva_isa::MAX_DELAY;
use dva_json::{Fields, FromJson, Json, JsonError, Reader, ToJson, Writer};
use dva_workloads::{Benchmark, Scale};
use std::convert::Infallible;

/// The [`Json`] tree of what a fallible `write` writes.
pub(crate) fn tree(
    write: impl FnOnce(&mut Writer<'_>) -> Result<(), JsonError>,
) -> Result<Json, JsonError> {
    let mut text = String::new();
    write(&mut Writer::new(&mut text))?;
    Ok(Json::parse(&text).expect("the writer emits valid JSON"))
}

impl ToJson for Machine {
    /// The stable JSON form of this machine's full configuration —
    /// including the stamped latency and memory model, except for IDEAL,
    /// which has neither (so all IDEAL points of a latency grid share one
    /// form; the `dva-serve` cache exploits exactly that).
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| match self {
            Machine::Ref(params) => {
                w.field("kind", "ref");
                w.field("params", params);
            }
            Machine::Dva(config) => {
                w.field("kind", "dva");
                w.field("config", config);
            }
            Machine::Ideal => w.field("kind", "ideal"),
        })
    }
}

impl FromJson for Machine {
    fn read_json(r: &mut Reader<'_>) -> Result<Machine, JsonError> {
        r.object(|o| match &*o.field_with("kind", Reader::str)? {
            "ref" => Ok(Machine::Ref(o.field("params")?)),
            "dva" => Ok(Machine::Dva(o.field("config")?)),
            "ideal" => Ok(Machine::Ideal),
            other => Err(JsonError(format!("unknown machine kind `{other}`"))),
        })
    }
}

impl ToJson for MachineDetail {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| match self {
            MachineDetail::Reference => w.field("kind", "reference"),
            MachineDetail::Decoupled(DvaDetail {
                avdq_occupancy,
                bypassed_loads,
                drain_stall_cycles,
                max_vpiq,
                max_apiq,
                max_avdq,
            }) => {
                w.field("kind", "decoupled");
                w.field("avdq_occupancy", avdq_occupancy);
                w.field("bypassed_loads", bypassed_loads);
                w.field("drain_stall_cycles", drain_stall_cycles);
                w.field("max_vpiq", max_vpiq);
                w.field("max_apiq", max_apiq);
                w.field("max_avdq", max_avdq);
            }
            MachineDetail::Ideal(bound) => {
                w.field("kind", "ideal");
                w.field("bound", bound);
            }
        })
    }
}

impl FromJson for MachineDetail {
    fn read_json(r: &mut Reader<'_>) -> Result<MachineDetail, JsonError> {
        r.object(|o| {
            Ok(match &*o.field_with("kind", Reader::str)? {
                "reference" => MachineDetail::Reference,
                "decoupled" => MachineDetail::Decoupled(DvaDetail {
                    avdq_occupancy: o.field("avdq_occupancy")?,
                    bypassed_loads: o.field("bypassed_loads")?,
                    drain_stall_cycles: o.field("drain_stall_cycles")?,
                    max_vpiq: o.field("max_vpiq")?,
                    max_apiq: o.field("max_apiq")?,
                    max_avdq: o.field("max_avdq")?,
                }),
                "ideal" => MachineDetail::Ideal(o.field("bound")?),
                other => return Err(JsonError(format!("unknown detail kind `{other}`"))),
            })
        })
    }
}

impl ToJson for SimResult {
    /// The stable JSON form of this result: the shared core plus the
    /// machine-specific detail.
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("core", &self.core);
            w.field("detail", &self.detail);
        })
    }
}

impl FromJson for SimResult {
    fn read_json(r: &mut Reader<'_>) -> Result<SimResult, JsonError> {
        r.object(|o| {
            Ok(SimResult {
                core: o.field("core")?,
                detail: o.field("detail")?,
            })
        })
    }
}

impl SimResult {
    /// [`ToJson::to_json`], callable without importing the trait.
    pub fn to_json(&self) -> Json {
        ToJson::to_json(self)
    }
}

/// The spelling of a [`Scale`] on the wire (the canonical
/// [`Scale::name`] form).
pub(crate) fn scale_to_str(scale: Scale) -> &'static str {
    scale.name()
}

pub(crate) fn scale_from_str(text: &str) -> Result<Scale, JsonError> {
    Scale::from_name(text).ok_or_else(|| JsonError(format!("unknown scale `{text}`")))
}

/// Reads a benchmark by its [`Benchmark::name`].
fn read_benchmark(r: &mut Reader<'_>) -> Result<Benchmark, JsonError> {
    let name = r.str()?;
    Benchmark::from_name(&name).ok_or_else(|| JsonError(format!("unknown benchmark `{name}`")))
}

impl ToJson for SweepPoint {
    /// The stable JSON form of one grid point: the full coordinate
    /// (machine, program, latency, memory model) plus the measurement.
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("machine", &self.machine);
            w.field("label", self.label.as_str());
            w.field("benchmark", &self.benchmark.map(Benchmark::name));
            w.field("program", self.program.as_str());
            w.field("latency", &self.latency);
            w.field("memory", &self.memory);
            w.field("result", &self.result);
        })
    }
}

impl SweepPoint {
    /// [`ToJson::to_json`], callable without importing the trait. Writing
    /// a point cannot fail; the `Result` only keeps existing callers
    /// compiling.
    pub fn to_json(&self) -> Result<Json, Infallible> {
        Ok(ToJson::to_json(self))
    }
}

impl FromJson for SweepPoint {
    fn read_json(r: &mut Reader<'_>) -> Result<SweepPoint, JsonError> {
        r.object(|o| {
            // Fields are read in the order they are written. Earlier
            // decoders looked `benchmark` up first, so an error in it
            // still takes precedence over one in `machine` or `label`.
            let head = (|| Ok((o.field("machine")?, o.field("label")?)))();
            let (machine, label) = match head {
                Ok(head) => head,
                Err(e) => {
                    let benchmark = o.field_with("benchmark", |r| r.nullable(read_benchmark));
                    return Err(benchmark.err().unwrap_or(e));
                }
            };
            Ok(SweepPoint {
                machine,
                label,
                benchmark: o.field_with("benchmark", |r| r.nullable(read_benchmark))?,
                program: o.field("program")?,
                latency: o.field("latency")?,
                memory: o.field("memory")?,
                result: o.field("result")?,
            })
        })
    }
}

impl Sweep {
    /// Writes the stable JSON form of this session's *specification* —
    /// the grid axes, scale, thread count and fast-forward flag — which
    /// is what a `dva-serve` client sends to the daemon.
    ///
    /// # Errors
    ///
    /// Fails if the session contains a custom [`Sweep::program`]: an
    /// arbitrary trace is process-local and cannot cross the wire. Sweeps
    /// built from [`Benchmark`]s always serialize.
    pub fn write_json(&self, w: &mut Writer<'_>) -> Result<(), JsonError> {
        if !self.programs.is_empty() {
            return Err(JsonError(
                "custom programs cannot be serialized; build wire sweeps from benchmarks"
                    .to_string(),
            ));
        }
        w.object(|w| {
            w.field("machines", &self.machines);
            w.key("benchmarks");
            w.array(|w| {
                for benchmark in &self.benchmarks {
                    w.str(benchmark.name());
                }
            });
            w.field("latencies", &self.latencies);
            w.field("memory_models", &self.memory_models);
            w.field("scale", scale_to_str(self.scale));
            w.field("threads", &self.threads);
            w.field("fast_forward", &self.fast_forward);
        });
        Ok(())
    }

    /// The [`write_json`](Sweep::write_json) form as a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// As [`write_json`](Sweep::write_json).
    pub fn to_json(&self) -> Result<Json, JsonError> {
        tree(|w| self.write_json(w))
    }
}

impl FromJson for Sweep {
    /// Reads a session specification. The fields are looked up in the
    /// order earlier decoders used, so a document with several bad
    /// fields reports the same one.
    fn read_json(r: &mut Reader<'_>) -> Result<Sweep, JsonError> {
        r.object(|o| {
            let sweep = Sweep::new()
                .scale(o.field_with("scale", |r| scale_from_str(&r.str()?))?)
                .threads(o.field("threads")?)
                .fast_forward(o.field("fast_forward")?)
                .machines(o.field::<Vec<Machine>>("machines")?);
            let mut benchmarks = Vec::new();
            o.field_with("benchmarks", |r| {
                r.elements(|r| {
                    benchmarks.push(read_benchmark(r)?);
                    Ok(())
                })
            })?;
            Ok(sweep
                .benchmarks(benchmarks)
                .latencies(delays(o, "latencies")?)
                .memory_models(o.field::<Vec<_>>("memory_models")?))
        })
    }
}

/// Reads the list field `key`, every element a delay within
/// `0..=`[`MAX_DELAY`] — the element-wise
/// [`field_in`](Fields::field_in) for a latency list.
pub(crate) fn delays(o: &mut Fields<'_, '_>, key: &str) -> Result<Vec<u64>, JsonError> {
    let delays: Vec<u64> = o.field(key)?;
    match delays.iter().find(|&&delay| delay > MAX_DELAY) {
        Some(delay) => Err(JsonError(format!(
            "field `{key}` holds {delay} outside 0..={MAX_DELAY}"
        ))),
        None => Ok(delays),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_core::IdealBound;
    use dva_engine::ResultCore;
    use dva_memory::MemoryModelKind;

    fn sample_sweep() -> Sweep {
        Sweep::new()
            .machines([
                Machine::reference(1),
                Machine::byp(1, 4, 8),
                Machine::ideal(),
            ])
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
            .latencies([1, 30])
            .memory_models([
                MemoryModelKind::Flat,
                MemoryModelKind::Banked {
                    banks: 8,
                    bank_busy: 8,
                },
            ])
            .scale(Scale::Quick)
            .threads(1)
    }

    #[test]
    fn machines_round_trip_through_json() {
        for machine in [
            Machine::reference(30),
            Machine::dva(100),
            Machine::byp(1, 4, 8),
            Machine::ideal(),
            Machine::dva(30).with_memory_model(MemoryModelKind::MultiPort { ports: 2 }),
        ] {
            let json = machine.to_json();
            assert_eq!(Machine::from_json(&json).unwrap(), machine);
        }
    }

    #[test]
    fn custom_programs_refuse_to_serialize() {
        let program = Benchmark::Trfd.program(Scale::Quick).with_name("LOCAL");
        let err = sample_sweep().program(program).to_json().unwrap_err();
        assert!(err.to_string().contains("custom programs"), "{err}");
    }

    #[test]
    fn sweep_latencies_are_bounded_at_decode() {
        let spec = sample_sweep().to_json().unwrap().render();
        assert!(spec.contains(r#""latencies":[1,30]"#), "{spec}");
        for hostile in [MAX_DELAY + 1, 1 << 62, i64::MAX as u64] {
            let line = spec.replace(
                r#""latencies":[1,30]"#,
                &format!(r#""latencies":[1,{hostile}]"#),
            );
            assert_eq!(
                error_of::<Sweep>(&line),
                format!("field `latencies` holds {hostile} outside 0..={MAX_DELAY}")
            );
        }
        let widest = spec.replace(
            r#""latencies":[1,30]"#,
            &format!(r#""latencies":[1,{MAX_DELAY}]"#),
        );
        assert!(Sweep::parse_json(&widest).is_ok());
    }

    #[test]
    fn results_round_trip_for_every_machine_kind() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        for machine in [
            Machine::reference(30),
            Machine::byp(30, 4, 8),
            Machine::ideal(),
        ] {
            let result = machine.simulate(&program);
            let back = SimResult::from_json(&result.to_json()).unwrap();
            assert_eq!(back, result);
            assert_eq!(back.to_json().render(), result.to_json().render());
        }
    }

    #[test]
    fn sweep_specs_and_results_round_trip() {
        let sweep = sample_sweep();
        let spec = sweep.to_json().unwrap();
        let back = Sweep::from_json(&spec).unwrap();
        assert_eq!(back.to_json().unwrap().render(), spec.render());
        // The reconstructed session measures the same grid.
        let ours = sweep.run();
        let theirs = back.run();
        assert_eq!(ours, theirs);
    }

    /// Pins the rendered wire format. If this test fails you changed the
    /// serialization format: bump `dva_engine::ENGINE_VERSION` (stale
    /// disk caches must be discarded) and update the expectation.
    #[test]
    fn golden_wire_format() {
        let machine = Machine::dva(30);
        let json = machine.to_json();
        assert_eq!(
            json.render(),
            "{\"kind\":\"dva\",\"config\":{\
             \"uarch\":{\"fu_startup\":4,\"qmov_startup\":2,\"check_bank_ports\":true},\
             \"memory\":{\"latency\":30,\"cache\":{\"lines\":512,\"line_bytes\":32},\
             \"model\":{\"kind\":\"flat\"}},\
             \"queues\":{\"instruction_queue\":16,\"avdq\":256,\"store_queue\":16,\
             \"scalar_store_queue\":16,\"scalar_data_queue\":256},\
             \"bypass\":false}}"
        );

        let ideal = Machine::ideal()
            .simulate(&Benchmark::Trfd.program(Scale::Quick))
            .to_json();
        let text = ideal.render();
        // The result schema: a core with the documented field order, and
        // a tagged detail.
        let prefix = "{\"core\":{\"cycles\":";
        assert!(text.starts_with(prefix), "got {text}");
        for field in [
            "\"insts\":",
            "\"states\":[",
            "\"traffic\":{\"vector_load_elems\":",
            "\"bus_utilization\":",
            "\"port_utilization\":[",
            "\"cache_hit_rate\":",
            "\"cache\":{\"load_hits\":",
            "\"stall_cycles\":",
            "\"ticks_executed\":",
            "\"detail\":{\"kind\":\"ideal\",\"bound\":{\"fu2_only\":",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }

    #[test]
    fn a_document_with_several_bad_fields_reports_the_same_one_as_before() {
        // Points are read in document order, but `benchmark`'s error
        // still comes first, as when it was looked up first.
        let point = SweepPoint {
            machine: Machine::ideal(),
            label: "IDEAL".to_string(),
            benchmark: Some(Benchmark::Trfd),
            program: "TRFD".to_string(),
            latency: 1,
            memory: MemoryModelKind::Flat,
            result: SimResult {
                core: ResultCore::untimed(10, 5),
                detail: MachineDetail::Ideal(IdealBound {
                    fu2_only: 1,
                    either_fu: 2,
                    memory_port: 3,
                    scalar_processor: 4,
                    scalar_cache: 5,
                }),
            },
        };
        let text = point.to_json().unwrap().render();
        let bad_machine = text.replace(r#""kind":"ideal"},"label""#, r#""kind":"warp"},"label""#);
        let both_bad = bad_machine.replace(r#""benchmark":"TRFD""#, r#""benchmark":"NOPE""#);
        let error = error_of::<SweepPoint>;
        assert_eq!(error(&bad_machine), "unknown machine kind `warp`");
        assert_eq!(error(&both_bad), "unknown benchmark `NOPE`");
        let no_label = text.replace(r#""label":"IDEAL","#, "");
        assert_eq!(error(&no_label), "missing field `label` in object");
        let no_label_bad_benchmark = no_label.replace(r#""benchmark":"TRFD""#, r#""benchmark":7"#);
        assert_eq!(
            error(&no_label_bad_benchmark),
            "expected string, found integer"
        );
        // A sweep's scale is still checked before its machines.
        let spec = sample_sweep().to_json().unwrap().render();
        let both_bad = spec
            .replace(r#""scale":"quick""#, r#""scale":"huge""#)
            .replace(r#"{"kind":"ideal"}"#, r#"{"kind":"warp"}"#);
        assert_eq!(error_of::<Sweep>(&both_bad), "unknown scale `huge`");
    }

    fn error_of<T: FromJson + std::fmt::Debug>(text: &str) -> String {
        T::parse_json(text).unwrap_err().0
    }
}
