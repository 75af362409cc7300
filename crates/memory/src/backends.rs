//! [`Memory`]: the address ports, the scalar cache and the traffic
//! counters every memory kind shares.

use crate::bus::AddressBus;
use crate::cache::{CacheAccess, ScalarCache};
use crate::model::{LoadIssue, MemoryModelKind, MemoryParams};
use dva_isa::{Cycle, Stride, VectorLength, MAX_DELAY};
use dva_metrics::Traffic;

/// The memory system both engines issue every access through, so their
/// memory timing rules are identical by construction.
///
/// One rule covers every [`MemoryModelKind`] (paper, Section 4.2): an
/// access holds the lowest-numbered free address port, and a load's
/// first element arrives `L` cycles after its address issues. A vector
/// access of length `VL` holds its port for
/// `VL * `[`slowdown`](MemoryModelKind::slowdown)`(stride)` cycles and
/// completes at `L` plus that hold; stores hide the latency entirely.
/// The kind decides only the two factors of that rule:
/// [`ports`](MemoryModelKind::ports) and
/// [`slowdown`](MemoryModelKind::slowdown).
///
/// # Examples
///
/// ```
/// use dva_memory::{Memory, MemoryModelKind, MemoryParams};
/// use dva_isa::{Stride, VectorLength};
///
/// let vl = VectorLength::new(64).unwrap();
/// let mut flat = Memory::new(MemoryParams::with_latency(30));
/// let issue = flat.issue_vector_load(0, vl, None);
/// assert_eq!(issue.port_free_at, 64);      // bus held for VL cycles
/// assert_eq!(issue.data_complete_at, 94);  // L + VL
///
/// // Stride 8 over 8 banks: every element hits the same bank.
/// let banked = MemoryModelKind::Banked { banks: 8, bank_busy: 8 };
/// let mut mem = Memory::new(MemoryParams::with_latency(10).with_model(banked));
/// let worst = mem.issue_vector_load(0, vl, Some(Stride::new(8)));
/// assert_eq!(worst.port_free_at, 64 * 8);
/// assert_eq!(worst.data_complete_at, 10 + 64 * 8);
///
/// // Two ports: a second access streams in the same cycle.
/// let two = MemoryModelKind::MultiPort { ports: 2 };
/// let mut mem = Memory::new(MemoryParams::with_latency(30).with_model(two));
/// let first = mem.issue_vector_load(0, vl, None);
/// let second = mem.issue_vector_load(0, vl, None);
/// assert_eq!(first.data_complete_at, second.data_complete_at);
/// assert!(!mem.port_free(0)); // both ports now busy
/// assert_eq!(mem.next_free_at(0), Some(64));
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    params: MemoryParams,
    ports: Vec<AddressBus>,
    cache: ScalarCache,
    traffic: Traffic,
}

impl Memory {
    /// An idle memory system as `params` describes it.
    ///
    /// # Panics
    ///
    /// Panics if the latency exceeds [`MAX_DELAY`], the kind has no
    /// port, a banked kind has no bank or a zero bank-busy time, or the
    /// cache geometry is not a power of two (see [`ScalarCache::new`]).
    /// Decoding rejects each of these. Every engine arms its memory
    /// through here before its first tick.
    pub fn new(params: MemoryParams) -> Memory {
        let mut memory = Memory {
            params,
            ports: Vec::new(),
            cache: ScalarCache::new(params.cache),
            traffic: Traffic::default(),
        };
        memory.reset(params);
        memory
    }

    /// Re-arms the memory as [`Memory::new`]`(params)` would build it, of
    /// whatever kind, keeping the port and cache-tag storage — so an
    /// engine reset between runs allocates nothing here.
    ///
    /// ```
    /// use dva_memory::{Memory, MemoryModelKind, MemoryParams};
    /// let mut mem = Memory::new(MemoryParams::with_latency(30));
    /// mem.scalar_load(0, 0x40);
    /// let ports = mem.ports().as_ptr();
    /// let banked = MemoryParams::with_latency(50)
    ///     .with_model(MemoryModelKind::Banked { banks: 8, bank_busy: 8 });
    /// mem.reset(banked);
    /// assert_eq!(mem.ports().as_ptr(), ports); // storage kept
    /// assert_eq!(format!("{mem:?}"), format!("{:?}", Memory::new(banked)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Memory::new`].
    pub fn reset(&mut self, params: MemoryParams) {
        assert!(
            params.latency <= MAX_DELAY,
            "latency {} exceeds MAX_DELAY ({MAX_DELAY})",
            params.latency
        );
        if let MemoryModelKind::Banked { banks, bank_busy } = params.model {
            assert!(
                banks > 0 && bank_busy > 0,
                "banked memory needs banks > 0 and bank_busy > 0"
            );
        }
        let ports = params.model.ports();
        assert!(ports > 0, "multi-port memory needs ports > 0");
        self.params = params;
        self.ports.clear();
        self.ports.resize(ports, AddressBus::new());
        self.cache.reset(params.cache);
        self.traffic = Traffic::default();
    }

    /// The configured parameters.
    pub fn params(&self) -> MemoryParams {
        self.params
    }

    /// Whether a new access can issue at `now` (at least one address
    /// port is free).
    #[inline]
    pub fn port_free(&self, now: Cycle) -> bool {
        self.ports.iter().any(|p| p.is_free(now))
    }

    /// Whether any address port is mid-transfer at `now` (the `LD` flag
    /// of the paper's Figure 1 state tuple).
    #[inline]
    pub fn busy(&self, now: Cycle) -> bool {
        self.ports.iter().any(|p| !p.is_free(now))
    }

    /// The earliest cycle strictly after `now` at which any address
    /// port frees — the memory system's contribution to the engines'
    /// next-event (fast-forward) computation, or `None` when every port
    /// is already quiet. Every port freeing is an event: it can flip
    /// both the issue gate ([`port_free`](Memory::port_free)) and the
    /// sampled busy flag ([`busy`](Memory::busy)), and the two flip at
    /// *different* ports' free times on a multi-ported memory.
    #[inline]
    pub fn next_free_at(&self, now: Cycle) -> Option<Cycle> {
        self.ports
            .iter()
            .map(AddressBus::free_at)
            .filter(|&t| t > now)
            .min()
    }

    /// The cycle at which *every* address port is free — the memory
    /// system's contribution to the engines' post-completion drain.
    pub fn quiesce_at(&self) -> Cycle {
        self.ports
            .iter()
            .map(AddressBus::free_at)
            .max()
            .unwrap_or(0)
    }

    /// Reserves the first free port for `cycles` cycles.
    fn reserve(&mut self, now: Cycle, cycles: u64) -> Cycle {
        let ports = self.ports.len();
        let port = self
            .ports
            .iter_mut()
            .find(|p| p.is_free(now))
            .unwrap_or_else(|| panic!("all {ports} address port(s) busy at cycle {now}"));
        port.reserve(now, cycles)
    }

    /// How long a length-`vl` access at `stride` holds its port.
    fn hold(&self, vl: VectorLength, stride: Option<Stride>) -> u64 {
        vl.cycles() * self.params.model.slowdown(stride)
    }

    /// Issues a vector load of length `vl` at cycle `now`. `stride` is
    /// the access's element stride, `None` for indexed (gather)
    /// accesses. The last element lands one latency after the last
    /// address issues.
    ///
    /// # Panics
    ///
    /// Panics if no port is free at `now`; callers gate on
    /// [`Memory::port_free`].
    pub fn issue_vector_load(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> LoadIssue {
        let hold = self.hold(vl, stride);
        let port_free_at = self.reserve(now, hold);
        self.traffic.vector_load_elems += u64::from(vl.get());
        LoadIssue {
            port_free_at,
            data_first_at: now + self.params.latency,
            data_complete_at: now + self.params.latency + hold,
        }
    }

    /// Issues a vector store of length `vl` at cycle `now`, returning
    /// when its port frees. Stores never expose memory latency to the
    /// processor (paper, Section 4.2).
    ///
    /// # Panics
    ///
    /// Panics if no port is free at `now`.
    pub fn issue_vector_store(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> Cycle {
        let hold = self.hold(vl, stride);
        let port_free_at = self.reserve(now, hold);
        self.traffic.vector_store_elems += u64::from(vl.get());
        port_free_at
    }

    /// Checks whether a scalar load would hit in the cache without
    /// updating any state.
    pub fn probe_scalar(&self, addr: u64) -> CacheAccess {
        self.cache.probe(addr)
    }

    /// Performs a scalar load at cycle `now`.
    ///
    /// On a hit the access completes next cycle without touching any
    /// port. On a miss a port is held for one cycle and the data arrives
    /// after the memory latency. Scalar accesses touch one bank once and
    /// are never slowed.
    ///
    /// # Panics
    ///
    /// Panics if the access misses while no port is free; callers must
    /// gate on [`Memory::port_free`] when [`Memory::probe_scalar`]
    /// reports a miss.
    pub fn scalar_load(&mut self, now: Cycle, addr: u64) -> LoadIssue {
        match self.cache.load(addr) {
            CacheAccess::Hit => LoadIssue {
                port_free_at: now,
                data_first_at: now + 1,
                data_complete_at: now + 1,
            },
            CacheAccess::Miss => {
                let port_free_at = self.reserve(now, 1);
                self.traffic.scalar_load_words += 1;
                LoadIssue {
                    port_free_at,
                    data_first_at: now + self.params.latency,
                    data_complete_at: now + self.params.latency,
                }
            }
        }
    }

    /// Performs a scalar store at cycle `now` (write-through: always one
    /// port cycle of traffic), returning when its port frees.
    ///
    /// # Panics
    ///
    /// Panics if no port is free at `now`.
    pub fn scalar_store(&mut self, now: Cycle, addr: u64) -> Cycle {
        let _ = self.cache.store(addr); // hit/miss recorded in the cache stats
        let port_free_at = self.reserve(now, 1);
        self.traffic.scalar_store_words += 1;
        port_free_at
    }

    /// Records a vector load satisfied entirely by the store→load bypass:
    /// no port usage, no memory traffic.
    pub fn record_bypass(&mut self, vl: VectorLength) {
        self.traffic.bypassed_elems += u64::from(vl.get());
        self.traffic.bypassed_loads += 1;
    }

    /// Traffic counters accumulated so far.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// The scalar cache (for hit-rate reporting).
    pub fn cache(&self) -> &ScalarCache {
        &self.cache
    }

    /// The address ports, in arbitration order.
    pub fn ports(&self) -> &[AddressBus] {
        &self.ports
    }

    /// Mean port utilization over `total` elapsed cycles (0..=1) — for a
    /// single-ported memory, exactly the address-bus utilization.
    pub fn utilization(&self, total: Cycle) -> f64 {
        self.ports.iter().map(|p| p.utilization(total)).sum::<f64>() / self.ports.len() as f64
    }

    /// Per-port utilization over `total` elapsed cycles, in arbitration
    /// order.
    pub fn port_utilizations(&self, total: Cycle) -> Vec<f64> {
        self.ports.iter().map(|p| p.utilization(total)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_testutil::vl;

    fn flat(latency: u64) -> Memory {
        Memory::new(MemoryParams::with_latency(latency))
    }

    fn banked(latency: u64, banks: u32, bank_busy: u64) -> Memory {
        Memory::new(
            MemoryParams::with_latency(latency)
                .with_model(MemoryModelKind::Banked { banks, bank_busy }),
        )
    }

    fn multi_port(latency: u64, ports: u32) -> Memory {
        Memory::new(
            MemoryParams::with_latency(latency).with_model(MemoryModelKind::MultiPort { ports }),
        )
    }

    #[test]
    fn vector_load_timing_follows_the_paper() {
        let mut mem = flat(50);
        let issue = mem.issue_vector_load(100, vl(32), None);
        assert_eq!(issue.port_free_at, 132);
        assert_eq!(issue.data_first_at, 150);
        assert_eq!(issue.data_complete_at, 182);
        assert_eq!(mem.traffic().vector_load_elems, 32);
    }

    #[test]
    fn stores_hold_bus_but_hide_latency() {
        let mut mem = flat(100);
        let free = mem.issue_vector_store(0, vl(16), None);
        assert_eq!(free, 16);
        assert_eq!(mem.traffic().vector_store_elems, 16);
    }

    #[test]
    fn scalar_hit_avoids_bus_and_traffic() {
        let mut mem = flat(40);
        let miss = mem.scalar_load(0, 0x80);
        assert_eq!(miss.data_complete_at, 40);
        assert_eq!(mem.traffic().scalar_load_words, 1);
        // Second access to the same line hits: 1-cycle, no traffic.
        let hit = mem.scalar_load(50, 0x88);
        assert_eq!(hit.data_complete_at, 51);
        assert_eq!(hit.port_free_at, 50);
        assert_eq!(mem.traffic().scalar_load_words, 1);
    }

    #[test]
    fn probe_matches_subsequent_load() {
        let mut mem = flat(1);
        assert_eq!(mem.probe_scalar(0x100), CacheAccess::Miss);
        mem.scalar_load(0, 0x100);
        assert_eq!(mem.probe_scalar(0x100), CacheAccess::Hit);
    }

    #[test]
    fn bypass_counts_requests_without_traffic() {
        let mut mem = flat(1);
        mem.record_bypass(vl(128));
        assert_eq!(mem.traffic().memory_elems(), 0);
        assert_eq!(mem.traffic().bypassed_elems, 128);
        assert_eq!(mem.traffic().bypassed_loads, 1);
    }

    #[test]
    fn scalar_store_outcome_reaches_the_cache_stats() {
        let mut mem = flat(1);
        mem.scalar_store(0, 0x200);
        mem.scalar_store(1, 0x208); // same line: a store hit
        let stats = mem.cache().stats();
        assert_eq!(stats.store_misses, 1);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(mem.traffic().scalar_store_words, 2); // write-through regardless
    }

    #[test]
    fn banked_unit_stride_is_never_slowed() {
        // bank_busy == banks: the revisit interval exactly covers the
        // busy time, so a unit stride streams at one element per cycle.
        let mut mem = banked(10, 8, 8);
        let issue = mem.issue_vector_load(0, vl(64), Some(Stride::UNIT));
        assert_eq!(issue.port_free_at, 64);
        assert_eq!(issue.data_complete_at, 10 + 64);
    }

    #[test]
    fn banked_stride_multiple_of_banks_is_worst_case() {
        let mut mem = banked(10, 8, 8);
        for stride in [8i64, 16, -8, 0] {
            assert_eq!(
                mem.params().model.slowdown(Some(Stride::new(stride))),
                8,
                "stride {stride}"
            );
        }
        let issue = mem.issue_vector_load(0, vl(16), Some(Stride::new(16)));
        assert_eq!(issue.port_free_at, 16 * 8);
    }

    #[test]
    fn banked_intermediate_strides_interpolate() {
        let kind = MemoryModelKind::Banked {
            banks: 8,
            bank_busy: 8,
        };
        assert_eq!(kind.slowdown(Some(Stride::new(2))), 2); // 4 banks in play
        assert_eq!(kind.slowdown(Some(Stride::new(4))), 4); // 2 banks in play
        assert_eq!(kind.slowdown(Some(Stride::new(3))), 1); // odd: all 8 banks
        assert_eq!(kind.slowdown(Some(Stride::new(6))), 2); // gcd(6,8)=2
    }

    #[test]
    fn banked_slow_banks_throttle_even_unit_stride() {
        // 4 banks each busy 8 cycles sustain half an element per cycle.
        let mut mem = banked(1, 4, 8);
        assert_eq!(
            mem.issue_vector_load(0, vl(16), Some(Stride::UNIT))
                .port_free_at,
            32
        );
    }

    #[test]
    fn banked_store_pays_the_same_conflicts() {
        let mut mem = banked(100, 8, 8);
        let free = mem.issue_vector_store(0, vl(8), Some(Stride::new(8)));
        assert_eq!(free, 64); // 8 elements x 8-cycle slowdown, latency hidden
    }

    #[test]
    fn multi_port_arbitrates_to_the_first_free_port() {
        let mut mem = multi_port(30, 2);
        let a = mem.issue_vector_load(0, vl(64), None);
        assert!(mem.port_free(0), "second port still free");
        let b = mem.issue_vector_load(0, vl(32), None);
        assert_eq!(a.port_free_at, 64);
        assert_eq!(b.port_free_at, 32);
        assert!(!mem.port_free(0));
        assert_eq!(mem.next_free_at(0), Some(32)); // earliest port
        assert_eq!(mem.next_free_at(32), Some(64)); // then the other one
        assert_eq!(mem.next_free_at(64), None); // quiet
        assert_eq!(mem.quiesce_at(), 64); // last port
        assert!(mem.port_free(32));
        assert!(mem.busy(32)); // port 0 still streaming
    }

    #[test]
    fn multi_port_utilization_is_reported_per_port() {
        let mut mem = multi_port(1, 2);
        mem.issue_vector_load(0, vl(64), None);
        mem.issue_vector_load(0, vl(32), None);
        let per_port = mem.port_utilizations(64);
        assert_eq!(per_port.len(), 2);
        assert!((per_port[0] - 1.0).abs() < 1e-12);
        assert!((per_port[1] - 0.5).abs() < 1e-12);
        assert!((mem.utilization(64) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "address port(s) busy")]
    fn issuing_with_every_port_busy_panics() {
        let mut mem = multi_port(1, 2);
        mem.issue_vector_load(0, vl(64), None);
        mem.issue_vector_load(0, vl(64), None);
        mem.issue_vector_load(1, vl(4), None);
    }

    #[test]
    fn reset_equals_a_fresh_instance_across_kinds() {
        let flat = MemoryParams::with_latency(20);
        let kinds = [
            flat,
            flat.with_model(MemoryModelKind::MultiPort { ports: 3 }),
            flat.with_model(MemoryModelKind::Banked {
                banks: 4,
                bank_busy: 2,
            }),
            flat.with_model(MemoryModelKind::MultiPort { ports: 2 }),
            MemoryParams::with_latency(7),
        ];
        let mut mem = Memory::new(flat.with_model(MemoryModelKind::MultiPort { ports: 3 }));
        let ports = mem.ports().as_ptr();
        for params in kinds {
            mem.issue_vector_load(0, vl(8), None);
            mem.scalar_store(10, 0x80);
            mem.reset(params);
            assert_eq!(format!("{mem:?}"), format!("{:?}", Memory::new(params)));
            assert_eq!(mem.ports().as_ptr(), ports, "port storage kept");
        }
    }

    #[test]
    #[should_panic(expected = "banks > 0")]
    fn zero_banks_are_rejected() {
        let _ = banked(1, 0, 8);
    }

    #[test]
    #[should_panic(expected = "ports > 0")]
    fn zero_ports_are_rejected() {
        let _ = multi_port(1, 0);
    }
}
