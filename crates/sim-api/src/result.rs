//! The unified simulation result.

use dva_core::{DvaDetail, IdealBound};
use dva_engine::ResultCore;
use dva_isa::Program;
use std::fmt;
use std::ops::Deref;

/// Measurements every machine reports, plus machine-specific detail:
/// the one result shape of every run.
///
/// The common measurements are the shared [`ResultCore`] assembled by
/// the `dva-engine` driver — every machine (REF, DVA, BYP, IDEAL)
/// produces the same core. The core's fields and methods are reachable
/// directly through `Deref` — `result.cycles`, `result.ipc()`,
/// `result.idle_cycles()`. Quantities that only one machine produces
/// (the AVDQ histogram, bypass counters, the IDEAL resource split) live
/// behind [`MachineDetail`], read with [`decoupled`](SimResult::decoupled)
/// and [`ideal_bound`](SimResult::ideal_bound).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The measurements every machine shares.
    pub core: ResultCore,
    /// Whatever only this machine measures.
    pub detail: MachineDetail,
}

/// Machine-specific measurements carried inside a [`SimResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum MachineDetail {
    /// The reference machine reports nothing beyond the common core.
    Reference,
    /// Decoupled-machine extras (queues, bypass, drain stalls).
    Decoupled(DvaDetail),
    /// The IDEAL bound's per-resource operation totals.
    Ideal(IdealBound),
}

impl SimResult {
    /// Speedup of this result over `baseline` (baseline cycles / ours).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        dva_metrics::speedup(baseline.cycles, self.cycles)
    }

    /// The decoupled machine's extra measurements, if this is a DVA or
    /// BYP result.
    pub fn decoupled(&self) -> Option<&DvaDetail> {
        match &self.detail {
            MachineDetail::Decoupled(detail) => Some(detail),
            _ => None,
        }
    }

    /// The IDEAL per-resource totals, if this result is the bound.
    pub fn ideal_bound(&self) -> Option<&IdealBound> {
        match &self.detail {
            MachineDetail::Ideal(bound) => Some(bound),
            _ => None,
        }
    }

    /// Builds the IDEAL pseudo-result for `program`: the bound has no
    /// timeline, so its core is the shared "untimed" core (cycles +
    /// instruction count, everything else empty).
    pub(crate) fn from_ideal(bound: IdealBound, program: &Program) -> SimResult {
        SimResult {
            core: ResultCore::untimed(bound.cycles(), program.len() as u64),
            detail: MachineDetail::Ideal(bound),
        }
    }
}

impl Deref for SimResult {
    type Target = ResultCore;

    fn deref(&self) -> &ResultCore {
        &self.core
    }
}

/// The human-readable summary experiment binaries print: cycles and
/// IPC, traffic, the address-port utilization (per port when the memory
/// has several), and the scalar-cache hit rates for loads and stores.
///
/// ```
/// use dva_memory::MemoryModelKind;
/// use dva_sim_api::Machine;
/// use dva_workloads::{Benchmark, Scale};
///
/// let program = Benchmark::Trfd.program(Scale::Quick);
/// let machine = Machine::dva(30).with_memory_model(MemoryModelKind::MultiPort { ports: 2 });
/// let summary = machine.simulate(&program).to_string();
/// assert!(summary.contains("ports:"));
/// assert!(summary.contains("p0 ")); // per-port utilization
/// assert!(summary.contains("p1 "));
/// assert!(summary.contains("cache:"));
/// ```
impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles, {} insts (IPC {:.2}), {} front-end stall cycles",
            self.cycles,
            self.insts,
            self.ipc(),
            self.stall_cycles,
        )?;
        writeln!(f, "traffic: {}", self.traffic)?;
        match self.port_utilization.as_slice() {
            [] => writeln!(f, "ports: none")?,
            [only] => writeln!(f, "ports: {:.1}% busy", 100.0 * only)?,
            ports => {
                write!(f, "ports:")?;
                for (i, util) in ports.iter().enumerate() {
                    write!(f, " p{i} {:.1}%", 100.0 * util)?;
                }
                writeln!(f, " (mean {:.1}%)", 100.0 * self.bus_utilization)?;
            }
        }
        write!(f, "cache: {}", self.core.cache)
    }
}

#[cfg(test)]
mod tests {
    use crate::Machine;
    use dva_workloads::{Benchmark, Scale};

    #[test]
    fn detail_accessors_match_machine_kind() {
        let program = Benchmark::Dyfesm.program(Scale::Quick);
        let r = Machine::reference(1).simulate(&program);
        assert!(r.decoupled().is_none());
        assert!(r.ideal_bound().is_none());

        let d = Machine::byp(1, 256, 16).simulate(&program);
        let detail = d.decoupled().expect("BYP is decoupled");
        assert_eq!(detail.avdq_occupancy.total(), d.cycles);
        assert!(d.ideal_bound().is_none());

        let i = Machine::ideal().simulate(&program);
        assert!(i.ideal_bound().is_some());
        assert_eq!(i.idle_cycles(), 0);
        assert_eq!(i.cycles, i.ideal_bound().unwrap().cycles());
    }

    #[test]
    fn common_fields_survive_the_conversion() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        let d = Machine::dva(30).simulate(&program);
        assert_eq!(d.states.total_cycles(), d.cycles);
        assert!(d.ipc() > 0.0);
        let r = Machine::reference(30).simulate(&program);
        assert!(r.speedup_over(&d) <= 1.0 + 1e-9 || r.cycles >= d.cycles);
    }
}
