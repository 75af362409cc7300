//! The unified simulation result.

use dva_core::{DvaResult, IdealBound};
use dva_engine::ResultCore;
use dva_isa::{Cycle, Program};
use dva_metrics::Histogram;
use dva_ref::RefResult;
use std::fmt;
use std::ops::Deref;

/// Measurements every machine reports, plus machine-specific detail.
///
/// The common measurements are the shared [`ResultCore`] assembled by
/// the `dva-engine` driver — every machine (REF, DVA, BYP, IDEAL)
/// produces the same core, so converting a machine result into a
/// `SimResult` moves the core instead of copying fields. The core's
/// fields and methods are reachable directly through `Deref` —
/// `result.cycles`, `result.ipc()`. Quantities that only one machine
/// produces (the AVDQ histogram, bypass counters, the IDEAL resource
/// split) live behind [`MachineDetail`] and the typed accessors.
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
    Decoupled {
        /// Busy-slot histogram of the vector load data queue (Figure 6).
        avdq_occupancy: Histogram,
        /// Vector loads fully satisfied by the VADQ→AVDQ bypass.
        bypassed_loads: u64,
        /// Cycles the address processor spent draining stores to resolve
        /// memory hazards.
        drain_stall_cycles: u64,
        /// Highest VPIQ occupancy observed.
        max_vpiq: usize,
        /// Highest APIQ occupancy observed.
        max_apiq: usize,
        /// Highest AVDQ busy-slot count observed.
        max_avdq: usize,
    },
    /// The IDEAL bound's per-resource operation totals.
    Ideal(IdealBound),
}

impl SimResult {
    /// Speedup of this result over `baseline` (baseline cycles / ours).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        dva_metrics::speedup(baseline.cycles, self.cycles)
    }

    /// The AVDQ busy-slot histogram, if this machine has the queue.
    pub fn avdq_occupancy(&self) -> Option<&Histogram> {
        match &self.detail {
            MachineDetail::Decoupled { avdq_occupancy, .. } => Some(avdq_occupancy),
            _ => None,
        }
    }

    /// Vector loads served by the bypass unit (zero on machines without
    /// one).
    pub fn bypassed_loads(&self) -> u64 {
        match &self.detail {
            MachineDetail::Decoupled { bypassed_loads, .. } => *bypassed_loads,
            _ => 0,
        }
    }

    /// Cycles the address processor spent draining stores (zero on other
    /// machines).
    pub fn drain_stall_cycles(&self) -> u64 {
        match &self.detail {
            MachineDetail::Decoupled {
                drain_stall_cycles, ..
            } => *drain_stall_cycles,
            _ => 0,
        }
    }

    /// Highest AVDQ busy-slot count observed, if the machine has the
    /// queue.
    pub fn max_avdq(&self) -> Option<usize> {
        match &self.detail {
            MachineDetail::Decoupled { max_avdq, .. } => Some(*max_avdq),
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

    /// Cycles spent in the all-idle `( , , )` state.
    ///
    /// (Also available through `Deref` to [`ResultCore`]; kept inherent
    /// so existing callers and docs keep working unchanged.)
    pub fn idle_cycles(&self) -> Cycle {
        self.core.idle_cycles()
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

impl From<RefResult> for SimResult {
    fn from(r: RefResult) -> SimResult {
        SimResult {
            core: r.core,
            detail: MachineDetail::Reference,
        }
    }
}

impl From<DvaResult> for SimResult {
    fn from(d: DvaResult) -> SimResult {
        SimResult {
            core: d.core,
            detail: MachineDetail::Decoupled {
                avdq_occupancy: d.avdq_occupancy,
                bypassed_loads: d.bypassed_loads,
                drain_stall_cycles: d.drain_stall_cycles,
                max_vpiq: d.max_vpiq,
                max_apiq: d.max_apiq,
                max_avdq: d.max_avdq,
            },
        }
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
        assert!(r.avdq_occupancy().is_none());
        assert_eq!(r.bypassed_loads(), 0);
        assert!(r.ideal_bound().is_none());

        let d = Machine::byp(1, 256, 16).simulate(&program);
        assert!(d.avdq_occupancy().is_some());
        assert!(d.max_avdq().is_some());

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
