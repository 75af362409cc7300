//! The shared result core every machine's measurements are built on.

use dva_isa::Cycle;
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_metrics::{CacheStats, Diag, StateTracker, Traffic};

/// Measurements every machine reports: the common core that
/// machine-specific result types (and the unified `SimResult` of
/// `dva-sim-api`) wrap rather than duplicate.
///
/// Equality compares every *model* quantity; execution diagnostics such
/// as [`ticks_executed`](ResultCore::ticks_executed) are carried in
/// [`Diag`] and never affect comparisons or `Debug` output, so a
/// fast-forward run is byte-identical to a naive one.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultCore {
    /// Total execution time in cycles.
    pub cycles: Cycle,
    /// Architectural instructions executed.
    pub insts: u64,
    /// Per-cycle occupancy of the (FU2, FU1, LD) state tuple — the raw
    /// data of the paper's Figure 1.
    pub states: StateTracker,
    /// Memory traffic counters.
    pub traffic: Traffic,
    /// Mean address-port utilization over the whole run (0..=1); for a
    /// single-ported memory, the address-bus utilization.
    pub bus_utilization: f64,
    /// Per-port address-bus utilization over the whole run, in
    /// arbitration order — one entry for flat/banked memories, `N` for
    /// an `N`-ported memory, empty for machines without one (IDEAL).
    pub port_utilization: Vec<f64>,
    /// Scalar cache hit rate over all accesses (0..=1).
    pub cache_hit_rate: f64,
    /// Scalar cache hit/miss counts, split into loads and stores.
    pub cache: CacheStats,
    /// Front-end stall cycles: dispatch stalls on the reference machine,
    /// fetch-processor stalls on the decoupled machine.
    pub stall_cycles: u64,
    /// Engine iterations actually executed. Equal to `cycles` under
    /// naive stepping; under fast-forward it counts only the ticks that
    /// were simulated (skipped quiet cycles are bulk-accounted). A
    /// diagnostic: excluded from equality and `Debug`.
    pub ticks_executed: Diag<u64>,
}

impl ResultCore {
    /// A core for a machine without a timeline (the IDEAL bound): a
    /// cycle count and an instruction count, everything else empty.
    pub fn untimed(cycles: Cycle, insts: u64) -> ResultCore {
        ResultCore {
            cycles,
            insts,
            states: StateTracker::new(),
            traffic: Traffic::default(),
            bus_utilization: 0.0,
            port_utilization: Vec::new(),
            cache_hit_rate: 0.0,
            cache: CacheStats::default(),
            stall_cycles: 0,
            ticks_executed: Diag(0),
        }
    }

    /// Cycles spent in the all-idle `( , , )` state.
    pub fn idle_cycles(&self) -> Cycle {
        self.states.idle_cycles()
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

impl ToJson for ResultCore {
    /// The stable wire/disk form of the core. Every model quantity is
    /// carried; the `ticks_executed` diagnostic rides along (it restores
    /// on round-trip but, as always with [`Diag`], never affects
    /// equality).
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("cycles", &self.cycles);
            w.field("insts", &self.insts);
            w.field("states", &self.states);
            w.field("traffic", &self.traffic);
            w.field("bus_utilization", &self.bus_utilization);
            w.field("port_utilization", &self.port_utilization);
            w.field("cache_hit_rate", &self.cache_hit_rate);
            w.field("cache", &self.cache);
            w.field("stall_cycles", &self.stall_cycles);
            w.field("ticks_executed", &self.ticks_executed.get());
        })
    }
}

impl FromJson for ResultCore {
    fn read_json(r: &mut Reader<'_>) -> Result<ResultCore, JsonError> {
        r.object(|o| {
            Ok(ResultCore {
                cycles: o.field("cycles")?,
                insts: o.field("insts")?,
                states: o.field("states")?,
                traffic: o.field("traffic")?,
                bus_utilization: o.field("bus_utilization")?,
                port_utilization: o.field("port_utilization")?,
                cache_hit_rate: o.field("cache_hit_rate")?,
                cache: o.field("cache")?,
                stall_cycles: o.field("stall_cycles")?,
                ticks_executed: Diag(o.field("ticks_executed")?),
            })
        })
    }
}

/// A processor's contribution to the [`ResultCore`]: the counters only
/// the machine model itself can produce, handed to the driver's result
/// assembly once the clock has stopped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Architectural instructions executed.
    pub insts: u64,
    /// Memory traffic counters.
    pub traffic: Traffic,
    /// Mean address-port utilization over the whole run (0..=1).
    pub bus_utilization: f64,
    /// Per-port address-bus utilization, in arbitration order.
    pub port_utilization: Vec<f64>,
    /// Scalar cache hit rate over all accesses (0..=1).
    pub cache_hit_rate: f64,
    /// Scalar cache hit/miss counts, split into loads and stores.
    pub cache: CacheStats,
    /// Front-end stall cycles.
    pub stall_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untimed_core_is_empty_but_counts() {
        let core = ResultCore::untimed(120, 40);
        assert_eq!(core.cycles, 120);
        assert_eq!(core.idle_cycles(), 0);
        assert!((core.ipc() - 40.0 / 120.0).abs() < 1e-12);
        assert_eq!(core.states.total_cycles(), 0);
    }

    #[test]
    fn diagnostics_never_break_core_equality() {
        let mut fast = ResultCore::untimed(10, 5);
        let naive = ResultCore::untimed(10, 5);
        fast.ticks_executed = Diag(3);
        assert_eq!(fast, naive);
        assert_eq!(format!("{fast:?}"), format!("{naive:?}"));
    }

    #[test]
    fn zero_cycle_runs_have_zero_ipc() {
        assert_eq!(ResultCore::untimed(0, 0).ipc(), 0.0);
    }

    #[test]
    fn result_core_round_trips_through_json() {
        let mut core = ResultCore::untimed(120, 40);
        core.states.add(dva_metrics::UnitState::LD, 50);
        core.traffic.vector_load_elems = 640;
        core.bus_utilization = 0.125;
        core.port_utilization = vec![0.25, 1.0 / 3.0];
        core.cache_hit_rate = 0.75;
        core.cache.load_hits = 3;
        core.stall_cycles = 17;
        core.ticks_executed = Diag(99);
        let back = ResultCore::from_json(&core.to_json()).unwrap();
        assert_eq!(back, core);
        // Even the float fields and the diagnostic restore exactly: the
        // rendered bytes are a fixed point.
        assert_eq!(back.to_json().render(), core.to_json().render());
        assert_eq!(back.ticks_executed.get(), 99);
    }
}
