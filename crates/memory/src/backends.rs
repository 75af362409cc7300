//! The three [`MemoryModel`] backends: flat, banked and multi-ported.

use crate::bus::AddressBus;
use crate::cache::{CacheAccess, ScalarCache};
use crate::model::{LoadIssue, MemoryModel, MemoryModelKind, MemoryParams};
use dva_isa::{Cycle, Stride, VectorLength};
use dva_metrics::Traffic;

/// The state every backend shares: the configured parameters, the
/// address ports, the scalar cache and the traffic counters. Backends
/// differ only in how many ports they expose and how long a vector
/// access holds its port.
#[derive(Debug, Clone)]
struct MemCore {
    params: MemoryParams,
    ports: Vec<AddressBus>,
    cache: ScalarCache,
    traffic: Traffic,
}

impl MemCore {
    fn new(params: MemoryParams, ports: usize) -> MemCore {
        let mut core = MemCore {
            params,
            ports: Vec::new(),
            cache: ScalarCache::new(params.cache),
            traffic: Traffic::default(),
        };
        core.reset(params, ports);
        core
    }

    /// Re-arms the core as [`MemCore::new`] would build it, keeping the
    /// port and cache-tag storage.
    fn reset(&mut self, params: MemoryParams, ports: usize) {
        assert!(ports > 0, "a memory backend needs at least one port");
        self.params = params;
        self.ports.clear();
        self.ports.resize(ports, AddressBus::new());
        self.cache.reset(params.cache);
        self.traffic = Traffic::default();
    }

    #[inline]
    fn port_free(&self, now: Cycle) -> bool {
        self.ports.iter().any(|p| p.is_free(now))
    }

    #[inline]
    fn busy(&self, now: Cycle) -> bool {
        self.ports.iter().any(|p| !p.is_free(now))
    }

    #[inline]
    fn next_free_at(&self, now: Cycle) -> Option<Cycle> {
        self.ports
            .iter()
            .map(AddressBus::free_at)
            .filter(|&t| t > now)
            .min()
    }

    fn quiesce_at(&self) -> Cycle {
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

    /// Issues a vector load whose addresses occupy a port for `hold`
    /// cycles (`hold == VL` when conflict-free). The last element lands
    /// one latency after the last address issues.
    fn vector_load(&mut self, now: Cycle, vl: VectorLength, hold: u64) -> LoadIssue {
        let port_free_at = self.reserve(now, hold);
        self.traffic.vector_load_elems += u64::from(vl.get());
        LoadIssue {
            port_free_at,
            data_first_at: now + self.params.latency,
            data_complete_at: now + self.params.latency + hold,
        }
    }

    fn vector_store(&mut self, now: Cycle, vl: VectorLength, hold: u64) -> Cycle {
        let port_free_at = self.reserve(now, hold);
        self.traffic.vector_store_elems += u64::from(vl.get());
        port_free_at
    }

    fn scalar_load(&mut self, now: Cycle, addr: u64) -> LoadIssue {
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

    fn scalar_store(&mut self, now: Cycle, addr: u64) -> Cycle {
        let _ = self.cache.store(addr); // hit/miss recorded in the cache stats
        let port_free_at = self.reserve(now, 1);
        self.traffic.scalar_store_words += 1;
        port_free_at
    }

    fn record_bypass(&mut self, vl: VectorLength) {
        self.traffic.bypassed_elems += u64::from(vl.get());
        self.traffic.bypassed_loads += 1;
    }
}

/// Implements every [`MemoryModel`] method that is pure delegation to
/// the backend's `core`, leaving only the vector-issue hooks (where the
/// backends actually differ) to each impl block.
macro_rules! delegate_to_core {
    () => {
        fn params(&self) -> MemoryParams {
            self.core.params
        }
        fn port_free(&self, now: Cycle) -> bool {
            self.core.port_free(now)
        }
        fn busy(&self, now: Cycle) -> bool {
            self.core.busy(now)
        }
        fn next_free_at(&self, now: Cycle) -> Option<Cycle> {
            self.core.next_free_at(now)
        }
        fn quiesce_at(&self) -> Cycle {
            self.core.quiesce_at()
        }
        fn probe_scalar(&self, addr: u64) -> CacheAccess {
            self.core.cache.probe(addr)
        }
        fn scalar_load(&mut self, now: Cycle, addr: u64) -> LoadIssue {
            self.core.scalar_load(now, addr)
        }
        fn scalar_store(&mut self, now: Cycle, addr: u64) -> Cycle {
            self.core.scalar_store(now, addr)
        }
        fn record_bypass(&mut self, vl: VectorLength) {
            self.core.record_bypass(vl)
        }
        fn traffic(&self) -> Traffic {
            self.core.traffic
        }
        fn cache(&self) -> &ScalarCache {
            &self.core.cache
        }
        fn ports(&self) -> &[AddressBus] {
            &self.core.ports
        }
    };
}

/// The paper's single-ported, conflict-free memory (Section 4.2): one
/// address bus, one uniform latency `L`.
///
/// A vector reference of length `VL` holds the bus for exactly `VL`
/// cycles; the first element of a load arrives `L` cycles after its
/// address issues and the vector is complete at `L + VL`; stores hide
/// the latency entirely.
///
/// # Examples
///
/// ```
/// use dva_memory::{FlatMemory, MemoryModel, MemoryParams};
/// use dva_isa::VectorLength;
///
/// let mut mem = FlatMemory::new(MemoryParams::with_latency(30));
/// let vl = VectorLength::new(64).unwrap();
/// let issue = mem.issue_vector_load(0, vl, None);
/// assert_eq!(issue.port_free_at, 64);      // bus held for VL cycles
/// assert_eq!(issue.data_complete_at, 94);  // L + VL
/// ```
#[derive(Debug, Clone)]
pub struct FlatMemory {
    core: MemCore,
}

impl FlatMemory {
    /// Creates a flat memory. The `model` field of `params` is restamped
    /// to [`MemoryModelKind::Flat`] so [`MemoryModel::params`] always
    /// names the backend actually running.
    pub fn new(mut params: MemoryParams) -> FlatMemory {
        params.model = MemoryModelKind::Flat;
        FlatMemory {
            core: MemCore::new(params, 1),
        }
    }
}

impl MemoryModel for FlatMemory {
    delegate_to_core!();

    fn issue_vector_load(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        _stride: Option<Stride>,
    ) -> LoadIssue {
        self.core.vector_load(now, vl, vl.cycles())
    }

    fn issue_vector_store(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        _stride: Option<Stride>,
    ) -> Cycle {
        self.core.vector_store(now, vl, vl.cycles())
    }
}

/// Interleaved main memory: `banks` banks behind one address bus, each
/// bank able to accept a new access only every `bank_busy` cycles.
///
/// Consecutive elements of a stride-`s` access map to banks `s` apart
/// (element addresses are word-interleaved), so the stream cycles over
/// `banks / gcd(s mod banks, banks)` *distinct* banks and revisits each
/// one every that-many issue slots. When the revisit interval is shorter
/// than `bank_busy` the stream throttles to the banks' aggregate service
/// rate: each element effectively holds the address bus for
///
/// ```text
/// slowdown = max(1, ceil(bank_busy / distinct_banks))
/// ```
///
/// cycles. Unit strides touch every bank and stream at full speed
/// (whenever `bank_busy <= banks`); a stride that is a multiple of the
/// bank count hammers a single bank and pays `bank_busy` cycles per
/// element — the classic worst case. Scalar accesses touch one bank once
/// and are never slowed; indexed (gather/scatter) accesses carry no
/// stride and are modeled conflict-free, like the flat model.
///
/// # Examples
///
/// ```
/// use dva_memory::{BankedMemory, MemoryModel, MemoryParams};
/// use dva_isa::{Stride, VectorLength};
///
/// let mut mem = BankedMemory::new(MemoryParams::with_latency(10), 8, 8);
/// let vl = VectorLength::new(16).unwrap();
/// // Unit stride: conflict-free, bus held for VL cycles.
/// assert_eq!(mem.issue_vector_load(0, vl, Some(Stride::UNIT)).port_free_at, 16);
/// // Stride 8 over 8 banks: every element hits the same bank.
/// let worst = mem.issue_vector_load(16, vl, Some(Stride::new(8)));
/// assert_eq!(worst.port_free_at, 16 + 16 * 8);
/// assert_eq!(worst.data_complete_at, 16 + 10 + 16 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct BankedMemory {
    core: MemCore,
    banks: u64,
    bank_busy: u64,
}

impl BankedMemory {
    /// Creates a banked memory. The `model` field of `params` is
    /// restamped to the matching [`MemoryModelKind::Banked`] so
    /// [`MemoryModel::params`] always names the backend actually
    /// running.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` and `bank_busy` are both nonzero.
    pub fn new(mut params: MemoryParams, banks: u32, bank_busy: u64) -> BankedMemory {
        assert!(
            banks > 0 && bank_busy > 0,
            "banked memory needs banks > 0 and bank_busy > 0"
        );
        params.model = MemoryModelKind::Banked { banks, bank_busy };
        BankedMemory {
            core: MemCore::new(params, 1),
            banks: u64::from(banks),
            bank_busy,
        }
    }

    /// The per-element issue slowdown a stride pays (1 = full speed).
    ///
    /// ```
    /// use dva_memory::{BankedMemory, MemoryParams};
    /// use dva_isa::Stride;
    ///
    /// let mem = BankedMemory::new(MemoryParams::default(), 8, 8);
    /// assert_eq!(mem.slowdown(Some(Stride::UNIT)), 1);    // 8 distinct banks
    /// assert_eq!(mem.slowdown(Some(Stride::new(2))), 2);  // 4 distinct banks
    /// assert_eq!(mem.slowdown(Some(Stride::new(8))), 8);  // one bank only
    /// assert_eq!(mem.slowdown(Some(Stride::new(-2))), 2); // sign is irrelevant
    /// assert_eq!(mem.slowdown(None), 1);                  // indexed: conflict-free
    /// ```
    pub fn slowdown(&self, stride: Option<Stride>) -> u64 {
        let Some(stride) = stride else {
            return 1;
        };
        let s = stride.elems().unsigned_abs() % self.banks;
        let g = if s == 0 {
            self.banks
        } else {
            gcd(s, self.banks)
        };
        let distinct = self.banks / g;
        self.bank_busy.div_ceil(distinct).max(1)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl MemoryModel for BankedMemory {
    delegate_to_core!();

    fn issue_vector_load(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> LoadIssue {
        let hold = vl.cycles() * self.slowdown(stride);
        self.core.vector_load(now, vl, hold)
    }

    fn issue_vector_store(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> Cycle {
        let hold = vl.cycles() * self.slowdown(stride);
        self.core.vector_store(now, vl, hold)
    }
}

/// `N` independent address buses in front of a conflict-free memory:
/// every access arbitrates for the lowest-numbered free port and then
/// times exactly like the flat model on it.
///
/// Two vector accesses can stream concurrently — the serialization the
/// paper's single port forces between back-to-back loads disappears as
/// long as a port is free.
///
/// # Examples
///
/// ```
/// use dva_memory::{MemoryModel, MemoryParams, MultiPortMemory};
/// use dva_isa::VectorLength;
///
/// let mut mem = MultiPortMemory::new(MemoryParams::with_latency(30), 2);
/// let vl = VectorLength::new(64).unwrap();
/// let first = mem.issue_vector_load(0, vl, None);
/// let second = mem.issue_vector_load(0, vl, None); // second port, same cycle
/// assert_eq!(first.data_complete_at, second.data_complete_at);
/// assert!(!mem.port_free(0)); // both ports now busy
/// assert_eq!(mem.next_free_at(0), Some(64));
/// ```
#[derive(Debug, Clone)]
pub struct MultiPortMemory {
    core: MemCore,
}

impl MultiPortMemory {
    /// Creates a multi-ported memory. The `model` field of `params` is
    /// restamped to the matching [`MemoryModelKind::MultiPort`] so
    /// [`MemoryModel::params`] always names the backend actually
    /// running.
    ///
    /// # Panics
    ///
    /// Panics unless `ports` is nonzero.
    pub fn new(mut params: MemoryParams, ports: u32) -> MultiPortMemory {
        assert!(ports > 0, "multi-port memory needs ports > 0");
        params.model = MemoryModelKind::MultiPort { ports };
        MultiPortMemory {
            core: MemCore::new(params, ports as usize),
        }
    }
}

impl MemoryModel for MultiPortMemory {
    delegate_to_core!();

    fn issue_vector_load(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        _stride: Option<Stride>,
    ) -> LoadIssue {
        self.core.vector_load(now, vl, vl.cycles())
    }

    fn issue_vector_store(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        _stride: Option<Stride>,
    ) -> Cycle {
        self.core.vector_store(now, vl, vl.cycles())
    }
}

/// The concrete backend union the engines embed directly: one enum over
/// the three [`MemoryModel`] implementations, dispatched by `match`.
///
/// The trait object returned by [`MemoryParams::build`] costs a virtual
/// call per probe — and the engines probe the memory several times per
/// tick (`port_free`, `busy`, `next_free_at` feed the issue gates, the
/// Figure 1 state sampling and the fast-forward next-event computation).
/// Holding this enum instead devirtualizes the entire hot path: every
/// accessor is a `match` over three inlineable arms, and the engine owns
/// its memory inline instead of behind a heap allocation. Build one with
/// [`MemoryParams::instantiate`].
#[derive(Debug, Clone)]
pub enum Memory {
    /// The paper's flat model.
    Flat(FlatMemory),
    /// Interleaved banks.
    Banked(BankedMemory),
    /// Independent address buses.
    MultiPort(MultiPortMemory),
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Memory::Flat($inner) => $body,
            Memory::Banked($inner) => $body,
            Memory::MultiPort($inner) => $body,
        }
    };
}

impl MemoryModel for Memory {
    #[inline]
    fn params(&self) -> MemoryParams {
        dispatch!(self, m => m.params())
    }

    #[inline]
    fn port_free(&self, now: Cycle) -> bool {
        dispatch!(self, m => m.port_free(now))
    }

    #[inline]
    fn busy(&self, now: Cycle) -> bool {
        dispatch!(self, m => m.busy(now))
    }

    #[inline]
    fn next_free_at(&self, now: Cycle) -> Option<Cycle> {
        dispatch!(self, m => m.next_free_at(now))
    }

    #[inline]
    fn quiesce_at(&self) -> Cycle {
        dispatch!(self, m => m.quiesce_at())
    }

    #[inline]
    fn issue_vector_load(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> LoadIssue {
        dispatch!(self, m => m.issue_vector_load(now, vl, stride))
    }

    #[inline]
    fn issue_vector_store(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> Cycle {
        dispatch!(self, m => m.issue_vector_store(now, vl, stride))
    }

    #[inline]
    fn probe_scalar(&self, addr: u64) -> CacheAccess {
        dispatch!(self, m => m.probe_scalar(addr))
    }

    #[inline]
    fn scalar_load(&mut self, now: Cycle, addr: u64) -> LoadIssue {
        dispatch!(self, m => m.scalar_load(now, addr))
    }

    #[inline]
    fn scalar_store(&mut self, now: Cycle, addr: u64) -> Cycle {
        dispatch!(self, m => m.scalar_store(now, addr))
    }

    #[inline]
    fn record_bypass(&mut self, vl: VectorLength) {
        dispatch!(self, m => m.record_bypass(vl))
    }

    #[inline]
    fn traffic(&self) -> Traffic {
        dispatch!(self, m => m.traffic())
    }

    #[inline]
    fn cache(&self) -> &ScalarCache {
        dispatch!(self, m => m.cache())
    }

    #[inline]
    fn ports(&self) -> &[AddressBus] {
        dispatch!(self, m => m.ports())
    }
}

impl Memory {
    /// Restores the backend `params` describes, equal to what
    /// [`MemoryParams::instantiate`] builds, but keeping the port and
    /// cache-tag storage when the backend kind is unchanged — so an
    /// engine reset between runs allocates nothing here.
    ///
    /// ```
    /// use dva_memory::{MemoryModel, MemoryParams};
    /// let params = MemoryParams::with_latency(30);
    /// let mut mem = params.instantiate();
    /// mem.scalar_load(0, 0x40);
    /// let ports = mem.ports().as_ptr();
    /// let slower = MemoryParams::with_latency(50);
    /// mem.reset(slower);
    /// assert_eq!(mem.ports().as_ptr(), ports); // storage kept
    /// assert_eq!(format!("{mem:?}"), format!("{:?}", slower.instantiate()));
    /// ```
    pub fn reset(&mut self, params: MemoryParams) {
        match (self, params.model) {
            (Memory::Flat(m), MemoryModelKind::Flat) => m.core.reset(params, 1),
            (Memory::Banked(m), MemoryModelKind::Banked { banks, bank_busy })
                if banks > 0 && bank_busy > 0 =>
            {
                m.core.reset(params, 1);
                m.banks = u64::from(banks);
                m.bank_busy = bank_busy;
            }
            (Memory::MultiPort(m), MemoryModelKind::MultiPort { ports }) if ports > 0 => {
                m.core.reset(params, ports as usize);
            }
            // Another kind (or an invalid shape, which the constructor
            // rejects): build afresh.
            (memory, _) => *memory = params.instantiate(),
        }
    }
}

impl MemoryParams {
    /// Instantiates the configured backend as a concrete [`Memory`] —
    /// the statically-dispatched counterpart of [`MemoryParams::build`],
    /// used by the engines' hot loops.
    ///
    /// ```
    /// use dva_memory::{Memory, MemoryModel, MemoryModelKind, MemoryParams};
    /// let mem = MemoryParams::with_latency(30)
    ///     .with_model(MemoryModelKind::MultiPort { ports: 2 })
    ///     .instantiate();
    /// assert!(matches!(mem, Memory::MultiPort(_)));
    /// assert_eq!(mem.ports().len(), 2);
    /// ```
    pub fn instantiate(&self) -> Memory {
        match self.model {
            MemoryModelKind::Flat => Memory::Flat(FlatMemory::new(*self)),
            MemoryModelKind::Banked { banks, bank_busy } => {
                Memory::Banked(BankedMemory::new(*self, banks, bank_busy))
            }
            MemoryModelKind::MultiPort { ports } => {
                Memory::MultiPort(MultiPortMemory::new(*self, ports))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_testutil::vl;

    fn flat(latency: u64) -> FlatMemory {
        FlatMemory::new(MemoryParams::with_latency(latency))
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
        let mut mem = BankedMemory::new(MemoryParams::with_latency(10), 8, 8);
        let issue = mem.issue_vector_load(0, vl(64), Some(Stride::UNIT));
        assert_eq!(issue.port_free_at, 64);
        assert_eq!(issue.data_complete_at, 10 + 64);
    }

    #[test]
    fn banked_stride_multiple_of_banks_is_worst_case() {
        let mut mem = BankedMemory::new(MemoryParams::with_latency(10), 8, 8);
        for stride in [8i64, 16, -8, 0] {
            assert_eq!(
                mem.slowdown(Some(Stride::new(stride))),
                8,
                "stride {stride}"
            );
        }
        let issue = mem.issue_vector_load(0, vl(16), Some(Stride::new(16)));
        assert_eq!(issue.port_free_at, 16 * 8);
    }

    #[test]
    fn banked_intermediate_strides_interpolate() {
        let mem = BankedMemory::new(MemoryParams::default(), 8, 8);
        assert_eq!(mem.slowdown(Some(Stride::new(2))), 2); // 4 banks in play
        assert_eq!(mem.slowdown(Some(Stride::new(4))), 4); // 2 banks in play
        assert_eq!(mem.slowdown(Some(Stride::new(3))), 1); // odd: all 8 banks
        assert_eq!(mem.slowdown(Some(Stride::new(6))), 2); // gcd(6,8)=2
    }

    #[test]
    fn banked_slow_banks_throttle_even_unit_stride() {
        // 4 banks each busy 8 cycles sustain half an element per cycle.
        let mem = BankedMemory::new(MemoryParams::default(), 4, 8);
        assert_eq!(mem.slowdown(Some(Stride::UNIT)), 2);
    }

    #[test]
    fn banked_store_pays_the_same_conflicts() {
        let mut mem = BankedMemory::new(MemoryParams::with_latency(100), 8, 8);
        let free = mem.issue_vector_store(0, vl(8), Some(Stride::new(8)));
        assert_eq!(free, 64); // 8 elements x 8-cycle slowdown, latency hidden
    }

    #[test]
    fn multi_port_arbitrates_to_the_first_free_port() {
        let mut mem = MultiPortMemory::new(MemoryParams::with_latency(30), 2);
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
        let mut mem = MultiPortMemory::new(MemoryParams::with_latency(1), 2);
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
        let mut mem = MultiPortMemory::new(MemoryParams::default(), 2);
        mem.issue_vector_load(0, vl(64), None);
        mem.issue_vector_load(0, vl(64), None);
        mem.issue_vector_load(1, vl(4), None);
    }

    #[test]
    fn constructors_stamp_their_own_kind_into_params() {
        // `params().model` must name the backend actually running, even
        // when the constructor was handed mismatched params.
        let params = MemoryParams::with_latency(5); // model: Flat
        let banked = BankedMemory::new(params, 4, 2);
        assert_eq!(
            banked.params().model,
            MemoryModelKind::Banked {
                banks: 4,
                bank_busy: 2
            }
        );
        let multi = MultiPortMemory::new(params, 3);
        assert_eq!(
            multi.params().model,
            MemoryModelKind::MultiPort { ports: 3 }
        );
        let flat = FlatMemory::new(params.with_model(MemoryModelKind::MultiPort { ports: 9 }));
        assert_eq!(flat.params().model, MemoryModelKind::Flat);
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
        let mut mem = flat.instantiate();
        for params in kinds {
            mem.issue_vector_load(0, vl(8), None);
            mem.scalar_store(10, 0x80);
            mem.reset(params);
            assert_eq!(format!("{mem:?}"), format!("{:?}", params.instantiate()));
        }
    }

    #[test]
    #[should_panic(expected = "banks > 0")]
    fn zero_banks_are_rejected() {
        let _ = BankedMemory::new(MemoryParams::default(), 0, 8);
    }

    #[test]
    #[should_panic(expected = "ports > 0")]
    fn zero_ports_are_rejected() {
        let params =
            MemoryParams::with_latency(1).with_model(MemoryModelKind::MultiPort { ports: 0 });
        let _ = params.build();
    }
}
