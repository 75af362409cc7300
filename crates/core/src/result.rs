//! The measurements only the decoupled machine produces.

use dva_metrics::Histogram;

/// What a decoupled run measures beyond the shared
/// [`ResultCore`](dva_engine::ResultCore): the AVDQ occupancy, the
/// bypass and drain counters and the queue high-water marks.
/// [`DvaRunner::try_run`](crate::DvaRunner::try_run) returns it beside
/// the core; the core's front-end
/// [`stall_cycles`](dva_engine::ResultCore::stall_cycles) are this
/// machine's fetch processor stalls.
#[derive(Debug, Clone, PartialEq)]
pub struct DvaDetail {
    /// Busy-slot histogram of the vector load data queue, sampled every
    /// cycle (Figure 6).
    pub avdq_occupancy: Histogram,
    /// Vector loads fully satisfied by the VADQ→AVDQ bypass.
    pub bypassed_loads: u64,
    /// Cycles the address processor spent draining stores to resolve
    /// memory hazards.
    pub drain_stall_cycles: u64,
    /// Highest VPIQ occupancy observed.
    pub max_vpiq: usize,
    /// Highest APIQ occupancy observed.
    pub max_apiq: usize,
    /// Highest AVDQ busy-slot count observed.
    pub max_avdq: usize,
}
