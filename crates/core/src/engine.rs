//! The cycle-stepped decoupled-machine engine: four processors, the
//! architectural queues, the two-step store engine and the bypass unit.
//!
//! The engine is a [`dva_engine::Processor`]: it advances its units one
//! tick at a time and reports progress honestly; the clock, the
//! fast-forward stepping, the watchdog and the statistics bookkeeping
//! all live in the shared [`dva_engine::Driver`].

// Issue checks are written as guard chains where every arm names one
// distinct stall reason and yields `false`; clippy would fold the arms
// together and lose that structure.
#![allow(clippy::if_same_then_else)]

use crate::compiled::CompiledProgram;
use crate::config::DvaConfig;
use crate::queues::{Fifo, Timed};
use crate::result::DvaResult;
use crate::uops::{ApOp, DataSlot, SpOp, StoreDataSource, StoreSeq, VecAccess, VpOp};
use dva_engine::{Driver, Observers, Processor, Progress, Report, SimError};
use dva_isa::{Cycle, MemRange, ScalarReg, VectorLength};
use dva_memory::{CacheAccess, Memory, MemoryModel};
use dva_metrics::{Histogram, UnitState};
use dva_uarch::{ChainPolicy, FuPipe, Producer, Scoreboard, VectorRegFile};
use std::collections::VecDeque;
use std::sync::Arc;

/// One slot of the vector load data queue. Each slot holds a full vector
/// register's worth of data.
#[derive(Debug, Clone, Copy)]
struct AvdqSlot {
    id: u64,
    /// When the data is fully present (never chained: the VP cannot start
    /// consuming before the last element arrives).
    ready_at: Cycle,
    /// For bypassed loads: the data slot of the store whose value this
    /// AVDQ slot will receive.
    pending_bypass: Option<DataSlot>,
}

/// A vector store address waiting in the VSAQ.
#[derive(Debug, Clone, Copy)]
struct VsaqEntry {
    access: VecAccess,
    seq: StoreSeq,
    data: DataSlot,
}

/// A scalar store address waiting in the SSAQ.
#[derive(Debug, Clone, Copy)]
struct SsaqEntry {
    addr: u64,
    seq: StoreSeq,
    /// When the data is available: known at push time for AP-sourced
    /// data; `None` means "from the scalar store data queue".
    ap_data_ready: Option<Cycle>,
}

/// A vector store's data sitting in (or streaming into) the VADQ.
///
/// The store engine chains off the QMOV stream: the commit may start once
/// the *first* element is present (the paper performs the store "when the
/// first slot in both an address queue and its corresponding data queue is
/// ready"); the memory write then streams one element per cycle behind the
/// incoming data.
#[derive(Debug, Clone, Copy)]
struct VadqEntry {
    data: DataSlot,
    /// First element present (commit may chain from here).
    first_at: Cycle,
    vl: VectorLength,
}

/// The youngest store conflicting with a load's memory range.
#[derive(Debug, Clone, Copy)]
struct Conflict {
    /// Global program order of the conflicting store.
    seq: StoreSeq,
    /// Whether it is an identical vector access (bypass candidate).
    identical: bool,
    /// Its data-ready ring slot, when it is a vector store.
    data: Option<DataSlot>,
}

/// A load waiting for its bypass copy to start.
#[derive(Debug, Clone, Copy)]
struct PendingBypass {
    slot_id: u64,
    /// The data-ready ring slot of the store being copied from.
    data: DataSlot,
    vl: VectorLength,
}

/// Data-ready cycles of in-flight vector stores, indexed by their dense
/// [`DataSlot`] — an allocation-free replacement for the old
/// `HashMap<StoreSeq, Cycle>`.
///
/// Slots are inserted in strictly increasing order (the VP issues QMOV
/// stores in program order), so the live window is a contiguous ring:
/// `base` is the oldest slot still tracked and `slots[i]` holds slot
/// `base + i`. Removal marks a slot dead and advances `base` past any
/// leading dead slots; with capacity preallocated to the store-queue and
/// bypass windows, steady-state operation never touches the heap.
#[derive(Debug)]
struct DataReadyRing {
    base: DataSlot,
    slots: VecDeque<Option<Cycle>>,
}

impl DataReadyRing {
    fn with_capacity(cap: usize) -> DataReadyRing {
        DataReadyRing {
            base: 0,
            slots: VecDeque::with_capacity(cap),
        }
    }

    fn clear(&mut self) {
        self.base = 0;
        self.slots.clear();
    }

    /// Tracks `slot` becoming ready at `at`. Slots arrive densely in
    /// order, so this is always an append.
    fn insert(&mut self, slot: DataSlot, at: Cycle) {
        debug_assert_eq!(
            slot,
            self.base + self.slots.len() as DataSlot,
            "vector store data slots must arrive in dense program order"
        );
        self.slots.push_back(Some(at));
    }

    /// The ready cycle of `slot`, if it is still tracked.
    fn get(&self, slot: DataSlot) -> Option<Cycle> {
        let index = slot.checked_sub(self.base)?;
        self.slots.get(index as usize).copied().flatten()
    }

    /// Stops tracking `slot` and releases any leading dead slots.
    fn remove(&mut self, slot: DataSlot) {
        if let Some(index) = slot.checked_sub(self.base) {
            if let Some(entry) = self.slots.get_mut(index as usize) {
                *entry = None;
            }
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Number of slots still tracked.
    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether no slot is tracked.
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[derive(Debug)]
pub(crate) struct Engine {
    cfg: DvaConfig,
    chain: ChainPolicy,
    now: Cycle,

    // Fetch processor state: the pre-translated bundle stream and the
    // index of the bundle waiting for instruction-queue slots. Keeping an
    // index (not the bundle) means the fetch/dispatch path never copies
    // bundles around — dispatch pushes µops straight out of the compiled
    // stream.
    compiled: Arc<CompiledProgram>,
    pc: usize,
    pending: Option<usize>,

    // Vector processor state.
    vregs: VectorRegFile,
    fu1: FuPipe,
    fu2: FuPipe,
    qmov1: FuPipe,
    qmov2: FuPipe,

    // Scalar/address processor state.
    ap_sb: Scoreboard,
    sp_sb: Scoreboard,

    // Memory.
    mem: Memory,

    // Instruction queues.
    apiq: Fifo<ApOp>,
    spiq: Fifo<SpOp>,
    vpiq: Fifo<VpOp>,

    // Data queues. `avdq_draining` is kept sorted ascending (see
    // `push_drain`), so expiry is a pop-front-while-expired.
    avdq: Fifo<AvdqSlot>,
    avdq_draining: VecDeque<Cycle>,
    next_avdq_id: u64,
    vadq: Fifo<VadqEntry>,
    vsaq: Fifo<VsaqEntry>,
    ssaq: Fifo<SsaqEntry>,
    ssdq: Fifo<Timed<()>>,
    asdq: Fifo<Timed<()>>,
    sadq: Fifo<Timed<()>>,
    svdq: Fifo<Timed<()>>,
    vsdq: Fifo<Timed<()>>,

    // Store engine. Vector stores are written back *lazily*: they stay in
    // the VSAQ/VADQ until queue pressure, a hazard drain or the end of the
    // program forces them out — maximizing the window in which a later
    // identical load can bypass them. Scalar stores commit eagerly.
    /// data slot → cycle its data first lands in the VADQ. Retained past
    /// commit while a pending bypass can still source the value; dropped
    /// as soon as the store has committed and no pending bypass references
    /// it.
    store_data_ready: DataReadyRing,
    stores_committed: u64,

    // Bypass engine.
    bypass_unit: FuPipe,
    pending_bypasses: VecDeque<PendingBypass>,
    bypassed_loads: u64,

    // Drain mode: the AP is blocked until all stores up to this sequence
    // number (inclusive) have committed.
    ap_drain_until: Option<StoreSeq>,

    // Disambiguation cache: the AP retries its front load every tick
    // while stalled, and the answer can only change when a store enters
    // or leaves the VSAQ/SSAQ. `store_gen` counts those changes; a cached
    // (generation, front-op serial) pair short-circuits the rescan.
    store_gen: u64,
    disambig_cache: Option<(u64, u64, Option<Conflict>)>,

    // Attempt-skip caches. `progress_version` counts *every* sub-unit
    // progress event; a processor's wake time cached at version `v` (by
    // the fast-forward computation, through a `Cell` because the
    // next-event probe is `&self`) certifies that until the version
    // changes or the clock reaches the wake, an issue attempt is a
    // guaranteed no-op — so the step skips it with two comparisons.
    // `Cycle::MAX` encodes "blocked on another unit's progress".
    progress_version: u64,
    wake_ap_cache: std::cell::Cell<(u64, Cycle)>,
    wake_sp_cache: std::cell::Cell<(u64, Cycle)>,
    wake_vp_cache: std::cell::Cell<(u64, Cycle)>,
    wake_store_cache: std::cell::Cell<(u64, Cycle)>,
    wake_bypass_cache: std::cell::Cell<(u64, Cycle)>,

    // Measurements.
    fp_stalls: u64,
    drain_stall_cycles: u64,
    branches_to_fp: u64,
}

/// How deep to preallocate the data-ready ring: the VSAQ/VADQ window plus
/// the bypass window, with slack for committed-but-referenced slots. The
/// ring grows past this only in pathological configurations; steady state
/// never reallocates.
fn ring_capacity(cfg: &DvaConfig) -> usize {
    cfg.queues.store_queue + cfg.queues.avdq + 8
}

impl Engine {
    pub(crate) fn new(cfg: DvaConfig, compiled: Arc<CompiledProgram>) -> Engine {
        let q = cfg.queues;
        Engine {
            cfg,
            chain: ChainPolicy::reference(),
            now: 0,
            compiled,
            pc: 0,
            pending: None,
            vregs: VectorRegFile::new(&cfg.uarch),
            fu1: FuPipe::new("FU1"),
            fu2: FuPipe::new("FU2"),
            qmov1: FuPipe::new("QMOV1"),
            qmov2: FuPipe::new("QMOV2"),
            ap_sb: Scoreboard::new(),
            sp_sb: Scoreboard::new(),
            mem: cfg.memory.instantiate(),
            apiq: Fifo::new("APIQ", q.instruction_queue),
            spiq: Fifo::new("SPIQ", q.instruction_queue),
            vpiq: Fifo::new("VPIQ", q.instruction_queue),
            avdq: Fifo::new("AVDQ", q.avdq),
            avdq_draining: VecDeque::with_capacity(8),
            next_avdq_id: 0,
            vadq: Fifo::new("VADQ", q.store_queue),
            vsaq: Fifo::new("VSAQ", q.store_queue),
            ssaq: Fifo::new("SSAQ", q.scalar_store_queue),
            ssdq: Fifo::new("SSDQ", q.scalar_data_queue),
            asdq: Fifo::new("ASDQ", q.scalar_data_queue),
            sadq: Fifo::new("SADQ", q.scalar_data_queue),
            svdq: Fifo::new("SVDQ", q.scalar_data_queue),
            vsdq: Fifo::new("VSDQ", q.scalar_data_queue),
            store_data_ready: DataReadyRing::with_capacity(ring_capacity(&cfg)),
            stores_committed: 0,
            bypass_unit: FuPipe::new("BYPASS"),
            pending_bypasses: VecDeque::with_capacity(q.avdq),
            bypassed_loads: 0,
            ap_drain_until: None,
            store_gen: 0,
            disambig_cache: None,
            progress_version: 0,
            wake_ap_cache: std::cell::Cell::new((u64::MAX, 0)),
            wake_sp_cache: std::cell::Cell::new((u64::MAX, 0)),
            wake_vp_cache: std::cell::Cell::new((u64::MAX, 0)),
            wake_store_cache: std::cell::Cell::new((u64::MAX, 0)),
            wake_bypass_cache: std::cell::Cell::new((u64::MAX, 0)),
            fp_stalls: 0,
            drain_stall_cycles: 0,
            branches_to_fp: 0,
        }
    }

    /// Restores the engine to its initial state for a fresh run of
    /// (possibly) a different configuration and program, **reusing every
    /// buffer already allocated**: the architectural queues, the AVDQ
    /// drain list, the bypass queue and the data-ready ring all keep their
    /// storage. After `reset`, a run is byte-identical to one on a freshly
    /// constructed engine — the reset contract the sweep workers and the
    /// allocation-regression tests rely on.
    pub(crate) fn reset(&mut self, cfg: DvaConfig, compiled: Arc<CompiledProgram>) {
        let q = cfg.queues;
        self.cfg = cfg;
        self.chain = ChainPolicy::reference();
        self.now = 0;
        self.compiled = compiled;
        self.pc = 0;
        self.pending = None;
        self.vregs = VectorRegFile::new(&cfg.uarch);
        self.fu1 = FuPipe::new("FU1");
        self.fu2 = FuPipe::new("FU2");
        self.qmov1 = FuPipe::new("QMOV1");
        self.qmov2 = FuPipe::new("QMOV2");
        self.ap_sb = Scoreboard::new();
        self.sp_sb = Scoreboard::new();
        self.mem = cfg.memory.instantiate();
        self.apiq.reset(q.instruction_queue);
        self.spiq.reset(q.instruction_queue);
        self.vpiq.reset(q.instruction_queue);
        self.avdq.reset(q.avdq);
        self.avdq_draining.clear();
        self.next_avdq_id = 0;
        self.vadq.reset(q.store_queue);
        self.vsaq.reset(q.store_queue);
        self.ssaq.reset(q.scalar_store_queue);
        self.ssdq.reset(q.scalar_data_queue);
        self.asdq.reset(q.scalar_data_queue);
        self.sadq.reset(q.scalar_data_queue);
        self.svdq.reset(q.scalar_data_queue);
        self.vsdq.reset(q.scalar_data_queue);
        self.store_data_ready.clear();
        self.stores_committed = 0;
        self.bypass_unit = FuPipe::new("BYPASS");
        self.pending_bypasses.clear();
        self.bypassed_loads = 0;
        self.ap_drain_until = None;
        self.store_gen = 0;
        self.disambig_cache = None;
        self.progress_version = 0;
        self.wake_ap_cache.set((u64::MAX, 0));
        self.wake_sp_cache.set((u64::MAX, 0));
        self.wake_vp_cache.set((u64::MAX, 0));
        self.wake_store_cache.set((u64::MAX, 0));
        self.wake_bypass_cache.set((u64::MAX, 0));
        self.fp_stalls = 0;
        self.drain_stall_cycles = 0;
        self.branches_to_fp = 0;
    }

    // -- occupancy ---------------------------------------------------------

    /// Records a QMOV drain holding an AVDQ slot until `until`, keeping
    /// the drain list sorted ascending. Drains issue in time order with
    /// varying vector lengths, so the insertion point is almost always the
    /// back; the list never exceeds the number of QMOV units plus the
    /// not-yet-pruned expired entries, so the scan is a handful of slots.
    fn push_drain(&mut self, until: Cycle) {
        let pos = self
            .avdq_draining
            .iter()
            .rposition(|&t| t <= until)
            .map_or(0, |p| p + 1);
        self.avdq_draining.insert(pos, until);
    }

    fn avdq_busy_slots_at(&self, now: Cycle) -> usize {
        // Every caller runs after the tick's expiry sweep, so the drain
        // list holds only live entries and the count is just its length.
        debug_assert!(self.avdq_draining.front().is_none_or(|&t| t > now));
        let _ = now;
        self.avdq.len() + self.avdq_draining.len()
    }

    fn avdq_has_free_slot(&self) -> bool {
        self.avdq_busy_slots_at(self.now) < self.avdq.capacity()
    }

    /// The (FU2, FU1, LD) state tuple of the paper's Figure 1 at `now`.
    fn state_at(&self, now: Cycle) -> UnitState {
        UnitState::from_flags(
            self.fu2.is_busy_at(now),
            self.fu1.is_busy_at(now),
            self.mem.busy(now),
        )
    }

    // -- disambiguation -----------------------------------------------------

    /// Checks `range` against every queued store older than the load.
    /// Returns the youngest conflicting store and whether that youngest
    /// conflict is an *identical* vector access (bypass candidate).
    fn disambiguate(
        &self,
        range: MemRange,
        identical_to: Option<&dva_isa::VectorAccess>,
    ) -> Option<Conflict> {
        let mut youngest: Option<Conflict> = None;
        for entry in self.vsaq.iter() {
            if entry.access.range().overlaps(&range) {
                let identical = match (identical_to, entry.access.strided()) {
                    (Some(load), Some(store)) => load.is_identical(store),
                    _ => false,
                };
                if youngest.is_none_or(|c| entry.seq > c.seq) {
                    youngest = Some(Conflict {
                        seq: entry.seq,
                        identical,
                        data: Some(entry.data),
                    });
                }
            }
        }
        for entry in self.ssaq.iter() {
            let store_range = MemRange::new(entry.addr, entry.addr + 8);
            if store_range.overlaps(&range) && youngest.is_none_or(|c| entry.seq > c.seq) {
                youngest = Some(Conflict {
                    seq: entry.seq,
                    identical: false,
                    data: None,
                });
            }
        }
        youngest
    }

    /// [`disambiguate`](Engine::disambiguate) behind the retry cache: the
    /// AP re-attempts its front load every tick while stalled, and the
    /// conflict answer is a pure function of the op and the queued-store
    /// set, so it is recomputed only when `store_gen` or the front op
    /// changes.
    fn disambiguate_cached(
        &mut self,
        range: MemRange,
        identical_to: Option<&dva_isa::VectorAccess>,
    ) -> Option<Conflict> {
        // The serial of the op currently at the APIQ head: pops so far.
        let serial = self.apiq.total_pushed() - self.apiq.len() as u64;
        if let Some((gen, s, result)) = self.disambig_cache {
            if gen == self.store_gen && s == serial {
                return result;
            }
        }
        let result = self.disambiguate(range, identical_to);
        self.disambig_cache = Some((self.store_gen, serial, result));
        result
    }

    // -- store engine -------------------------------------------------------

    /// The oldest store still awaiting writeback, if any. Because the AP
    /// enqueues addresses in program order, the queue fronts bound every
    /// pending store.
    fn oldest_pending_store(&self) -> Option<StoreSeq> {
        let v = self.vsaq.front().map(|e| e.seq);
        let s = self.ssaq.front().map(|e| e.seq);
        match (v, s) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Commits stores. Scalar stores write back eagerly; vector stores
    /// write back only under pressure (queue nearly full), on a hazard
    /// drain, or when the program is flushing — they otherwise linger in
    /// the store queue, which is what gives the bypass its window.
    /// Vector and scalar stores each commit in program order among
    /// themselves; the generated address spaces are disjoint, so the
    /// relaxation across the two queues cannot reorder same-address
    /// writes.
    fn step_store_engine(&mut self, flush: bool) -> bool {
        let now = self.now;
        // Scalar store: eager.
        if let Some(front) = self.ssaq.front().copied() {
            let data_ready = match front.ap_data_ready {
                Some(t) => t <= now,
                None => self.ssdq.front().is_some_and(|d| d.is_ready(now)),
            };
            if data_ready && self.mem.port_free(now) {
                if front.ap_data_ready.is_none() {
                    self.ssdq.pop();
                }
                self.mem.scalar_store(now, front.addr);
                self.ssaq.pop();
                self.store_gen += 1;
                self.stores_committed += 1;
                return true;
            }
        }
        // Vector store: lazy.
        let pressured = self.vsaq.len() + 1 >= self.vsaq.capacity()
            || self.vadq.len() + 1 >= self.vadq.capacity();
        let draining = match (self.ap_drain_until, self.vsaq.front()) {
            (Some(limit), Some(front)) => front.seq <= limit,
            _ => false,
        };
        if !(flush || pressured || draining) {
            return false;
        }
        let (Some(_), Some(data)) = (self.vsaq.front(), self.vadq.front().copied()) else {
            return false;
        };
        if data.first_at > now || !self.mem.port_free(now) {
            return false;
        }
        debug_assert_eq!(
            self.vsaq.front().map(|e| e.data),
            Some(data.data),
            "VADQ order must match VSAQ order"
        );
        let stride = self.vsaq.front().and_then(|e| e.access.stride());
        self.mem.issue_vector_store(now, data.vl, stride);
        self.vsaq.pop();
        self.vadq.pop();
        self.store_gen += 1;
        self.stores_committed += 1;
        self.gc_store_data_ready(data.data);
        true
    }

    /// Drops a store's data-ready entry once nothing can reference it
    /// again: new bypasses only ever target stores still queued in the
    /// VSAQ, so an entry is dead as soon as the store has left the queue
    /// and no already-pending bypass still sources it.
    fn gc_store_data_ready(&mut self, data: DataSlot) {
        let referenced = self.pending_bypasses.iter().any(|p| p.data == data)
            || self.vsaq.iter().any(|e| e.data == data);
        if !referenced {
            self.store_data_ready.remove(data);
        }
    }

    // -- bypass engine ------------------------------------------------------

    /// Starts at most one bypass copy per cycle (oldest pending first).
    fn step_bypass_engine(&mut self) -> bool {
        let Some(&pending) = self.pending_bypasses.front() else {
            return false;
        };
        if !self.bypass_unit.is_free(self.now) {
            return false;
        }
        let Some(data_ready) = self.store_data_ready.get(pending.data) else {
            return false; // the VP has not issued the store's QMOV yet
        };
        if data_ready > self.now {
            return false;
        }
        self.pending_bypasses.pop_front();
        self.bypass_unit.reserve(self.now, pending.vl.cycles());
        let ready_at = self.now + pending.vl.cycles();
        let slot = self
            .avdq
            .iter()
            .position(|s| s.id == pending.slot_id)
            .expect("bypassed AVDQ slot must still be queued");
        // The slot may sit anywhere in the queue (older loads can still be
        // in flight ahead of it); `Fifo::update_at` patches it in place.
        self.avdq.update_at(slot, |s| {
            s.ready_at = ready_at;
            s.pending_bypass = None;
        });
        self.mem.record_bypass(pending.vl);
        self.bypassed_loads += 1;
        self.gc_store_data_ready(pending.data);
        true
    }

    // -- address processor --------------------------------------------------

    fn step_ap(&mut self) -> bool {
        let now = self.now;
        // Drain mode blocks the AP until the offending stores commit.
        if let Some(limit) = self.ap_drain_until {
            if self
                .oldest_pending_store()
                .is_some_and(|oldest| oldest <= limit)
            {
                self.drain_stall_cycles += 1;
                return false;
            }
            self.ap_drain_until = None;
            // Leaving drain mode changes the store engine's `draining`
            // gate even when the attempt below fails, so the cached
            // wakes must be re-derived.
            self.progress_version += 1;
        }
        let Some(op) = self.apiq.front().copied() else {
            return false;
        };
        let done = match op {
            ApOp::Alu {
                dst,
                srcs,
                pops_sadq,
            } => {
                if !self.ap_sb.all_ready(&srcs, now) {
                    false
                } else if (self.sadq.len() as u8) < pops_sadq
                    || !self
                        .sadq
                        .iter()
                        .take(pops_sadq as usize)
                        .all(|e| e.is_ready(now))
                {
                    false
                } else {
                    for _ in 0..pops_sadq {
                        self.sadq.pop();
                    }
                    self.ap_sb.set_ready(dst, now + 1);
                    true
                }
            }
            ApOp::PushAsdq { src } => {
                if !self.ap_sb.is_ready(src, now) || self.asdq.is_full() {
                    false
                } else {
                    self.asdq.push(Timed::new((), now + 1));
                    true
                }
            }
            ApOp::ScalarLoad { dst, to_sp, addr } => self.ap_scalar_load(dst, to_sp, addr),
            ApOp::ScalarStoreAddr { addr, data, seq } => {
                if self.ssaq.is_full() {
                    false
                } else {
                    let ap_data_ready = match data {
                        StoreDataSource::AddressProcessor(reg) => {
                            Some(self.ap_sb.ready_at(reg).max(now))
                        }
                        StoreDataSource::ScalarProcessor => None,
                    };
                    self.ssaq.push(SsaqEntry {
                        addr,
                        seq,
                        ap_data_ready,
                    });
                    self.store_gen += 1;
                    true
                }
            }
            ApOp::VectorLoad { access } => self.ap_vector_load(access),
            ApOp::VectorStoreAddr { access, seq, data } => {
                if self.vsaq.is_full() {
                    false
                } else {
                    self.vsaq.push(VsaqEntry { access, seq, data });
                    self.store_gen += 1;
                    true
                }
            }
            ApOp::Branch { cond } => {
                if self.ap_sb.is_ready(cond, now) {
                    self.branches_to_fp += 1;
                    true
                } else {
                    false
                }
            }
        };
        if done {
            self.apiq.pop();
        }
        done
    }

    /// Puts the AP in drain mode until `seq` commits. Drain entry flips
    /// the store engine's `draining` gate even though the load attempt
    /// itself fails, so it counts as a cache-invalidating event: without
    /// the version bump a store engine skipping on a stamped wake would
    /// never notice the drain and the machine would deadlock.
    fn enter_drain(&mut self, seq: StoreSeq) {
        self.ap_drain_until = Some(seq);
        self.progress_version += 1;
    }

    fn ap_scalar_load(&mut self, dst: Option<ScalarReg>, to_sp: bool, addr: u64) -> bool {
        let now = self.now;
        let range = MemRange::new(addr, addr + 8);
        if let Some(conflict) = self.disambiguate_cached(range, None) {
            self.enter_drain(conflict.seq);
            return false;
        }
        if to_sp && self.asdq.is_full() {
            return false;
        }
        if self.mem.probe_scalar(addr) == CacheAccess::Miss && !self.mem.port_free(now) {
            return false;
        }
        let issue = self.mem.scalar_load(now, addr);
        if to_sp {
            self.asdq.push(Timed::new((), issue.data_complete_at));
        } else if let Some(dst) = dst {
            self.ap_sb.set_ready(dst, issue.data_complete_at);
        }
        true
    }

    fn ap_vector_load(&mut self, access: VecAccess) -> bool {
        let now = self.now;
        let conflict = self.disambiguate_cached(access.range(), access.strided());
        match conflict {
            Some(conflict) if self.cfg.bypass && conflict.identical => {
                // Bypass: reserve the AVDQ slot now; the copy starts when
                // the store's data lands in the VADQ. The AP moves on —
                // the memory port stays free during the copy.
                if !self.avdq_has_free_slot() {
                    return false;
                }
                let data = conflict
                    .data
                    .expect("identical conflicts are vector stores");
                let id = self.next_avdq_id;
                self.next_avdq_id += 1;
                self.avdq.push(AvdqSlot {
                    id,
                    ready_at: Cycle::MAX,
                    pending_bypass: Some(data),
                });
                self.pending_bypasses.push_back(PendingBypass {
                    slot_id: id,
                    data,
                    vl: access.vl(),
                });
                true
            }
            Some(conflict) => {
                // Memory hazard: write back everything up to the youngest
                // offending store, then retry.
                self.enter_drain(conflict.seq);
                false
            }
            None => {
                if !self.avdq_has_free_slot() || !self.mem.port_free(now) {
                    return false;
                }
                let issue = self
                    .mem
                    .issue_vector_load(now, access.vl(), access.stride());
                let id = self.next_avdq_id;
                self.next_avdq_id += 1;
                self.avdq.push(AvdqSlot {
                    id,
                    ready_at: issue.data_complete_at,
                    pending_bypass: None,
                });
                true
            }
        }
    }

    // -- scalar processor ---------------------------------------------------

    fn step_sp(&mut self) -> bool {
        let now = self.now;
        let Some(op) = self.spiq.front().copied() else {
            return false;
        };
        let done = match op {
            SpOp::Alu {
                dst,
                srcs,
                pops_asdq,
            } => {
                if !self.sp_sb.all_ready(&srcs, now) {
                    false
                } else if (self.asdq.len() as u8) < pops_asdq
                    || !self
                        .asdq
                        .iter()
                        .take(pops_asdq as usize)
                        .all(|e| e.is_ready(now))
                {
                    false
                } else {
                    for _ in 0..pops_asdq {
                        self.asdq.pop();
                    }
                    self.sp_sb.set_ready(dst, now + 1);
                    true
                }
            }
            SpOp::PopAsdq { dst } => {
                if self.asdq.front().is_some_and(|e| e.is_ready(now)) {
                    self.asdq.pop();
                    self.sp_sb.set_ready(dst, now + 1);
                    true
                } else {
                    false
                }
            }
            SpOp::PushSadq { src } => self.sp_push(src, |e| &mut e.sadq),
            SpOp::PushSvdq { src } => self.sp_push(src, |e| &mut e.svdq),
            SpOp::PushSsdq { src } => self.sp_push(src, |e| &mut e.ssdq),
            SpOp::PopVsdq { dst } => {
                if self.vsdq.front().is_some_and(|e| e.is_ready(now)) {
                    self.vsdq.pop();
                    self.sp_sb.set_ready(dst, now + 1);
                    true
                } else {
                    false
                }
            }
            SpOp::Branch { cond } => {
                if self.sp_sb.is_ready(cond, now) {
                    self.branches_to_fp += 1;
                    true
                } else {
                    false
                }
            }
        };
        if done {
            self.spiq.pop();
        }
        done
    }

    fn sp_push(
        &mut self,
        src: ScalarReg,
        queue: impl for<'e> Fn(&'e mut Engine) -> &'e mut Fifo<Timed<()>>,
    ) -> bool {
        let now = self.now;
        if !self.sp_sb.is_ready(src, now) {
            return false;
        }
        if queue(self).is_full() {
            return false;
        }
        queue(self).push(Timed::new((), now + 1));
        true
    }

    // -- vector processor ---------------------------------------------------

    fn step_vp(&mut self) -> bool {
        let now = self.now;
        let startup = self.cfg.uarch.fu_startup;
        let qstartup = self.cfg.uarch.qmov_startup;
        let Some(op) = self.vpiq.front().copied() else {
            return false;
        };
        let done = match op {
            VpOp::Compute {
                op,
                dst,
                reads,
                pops_svdq,
                vl,
            } => {
                if pops_svdq && !self.svdq.front().is_some_and(|e| e.is_ready(now)) {
                    false
                } else if !self.vregs.can_issue(now, &reads, Some(dst), self.chain) {
                    false
                } else {
                    let unit = if op.requires_general_unit() {
                        &mut self.fu2
                    } else if self.fu1.is_free(now) {
                        &mut self.fu1
                    } else {
                        &mut self.fu2
                    };
                    if !unit.is_free(now) {
                        false
                    } else {
                        unit.reserve(now, vl.cycles());
                        if pops_svdq {
                            self.svdq.pop();
                        }
                        self.vregs.begin_reads(now, &reads, vl.cycles());
                        self.vregs.begin_write(
                            dst,
                            now,
                            now + startup,
                            now + startup + vl.cycles(),
                            Producer::FunctionalUnit,
                        );
                        true
                    }
                }
            }
            VpOp::Reduce { src, vl, .. } => {
                if self.vsdq.is_full() || !self.vregs.can_issue(now, &[src], None, self.chain) {
                    false
                } else {
                    let unit = if self.fu1.is_free(now) {
                        &mut self.fu1
                    } else if self.fu2.is_free(now) {
                        &mut self.fu2
                    } else {
                        return false;
                    };
                    unit.reserve(now, vl.cycles());
                    self.vregs.begin_reads(now, &[src], vl.cycles());
                    self.vsdq
                        .push(Timed::new((), now + startup + vl.cycles() + 1));
                    true
                }
            }
            VpOp::QmovLoad { dst, reads, vl } => {
                if self.avdq.front().is_none_or(|s| s.ready_at > now) {
                    false
                } else if !self.vregs.can_issue(now, &reads, Some(dst), self.chain) {
                    false
                } else {
                    let unit = if self.qmov1.is_free(now) {
                        &mut self.qmov1
                    } else if self.qmov2.is_free(now) {
                        &mut self.qmov2
                    } else {
                        return false;
                    };
                    unit.reserve(now, vl.cycles());
                    self.avdq.pop();
                    self.push_drain(now + vl.cycles());
                    if !reads.is_empty() {
                        self.vregs.begin_reads(now, &reads, vl.cycles());
                    }
                    self.vregs.begin_write(
                        dst,
                        now,
                        now + qstartup,
                        now + qstartup + vl.cycles(),
                        Producer::Qmov,
                    );
                    true
                }
            }
            VpOp::QmovStore { reads, vl, data } => {
                if self.vadq.is_full() || !self.vregs.can_issue(now, &reads, None, self.chain) {
                    false
                } else {
                    let unit = if self.qmov1.is_free(now) {
                        &mut self.qmov1
                    } else if self.qmov2.is_free(now) {
                        &mut self.qmov2
                    } else {
                        return false;
                    };
                    unit.reserve(now, vl.cycles());
                    self.vregs.begin_reads(now, &reads, vl.cycles());
                    // First element lands after the QMOV startup; consumers
                    // (store engine, bypass unit) chain one cycle behind.
                    let first_at = now + qstartup + 1;
                    self.vadq.push(VadqEntry { data, first_at, vl });
                    self.store_data_ready.insert(data, first_at);
                    true
                }
            }
        };
        if done {
            self.vpiq.pop();
        }
        done
    }

    // -- fetch processor ----------------------------------------------------

    fn fp_can_dispatch(&self, slots: (usize, usize, usize)) -> bool {
        self.apiq.free_slots() >= slots.0
            && self.spiq.free_slots() >= slots.1
            && self.vpiq.free_slots() >= slots.2
    }

    // -- fast-forward -------------------------------------------------------

    /// The earliest cycle strictly after `now` at which *anything* in the
    /// machine can change state: data arriving in a queue, a functional
    /// unit or the address bus freeing, a scoreboard or vector register
    /// becoming ready, a draining AVDQ slot expiring, or a queued store's
    /// data landing.
    ///
    /// Every gating condition in the step functions is either static
    /// until some unit makes progress or a comparison of `now` against
    /// one of these times, so after a tick that made no progress nothing
    /// can happen before this cycle — the engine may jump straight to it.
    /// `None` means no timed event is outstanding (a deadlock unless the
    /// engine is structurally done).
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut next = dva_isa::EarliestAfter::new(now);
        // Sample-exactness events: the Figure 1 state tuple reads the two
        // functional units and the memory ports, and the AVDQ occupancy
        // histogram counts draining slots, so each of those transitions
        // must land on an executed tick even when no unit can progress.
        // (Ports also re-enter here one free at a time: on a multi-ported
        // memory the sampled LD flag flips at the *last* port free while
        // the issue gates flip at the first.)
        next.consider(self.fu1.free_at());
        next.consider(self.fu2.free_at());
        next.consider_opt(self.mem.next_free_at(now));
        if let Some(&until) = self.avdq_draining.front() {
            next.consider(until);
        }
        // Precise per-unit wake times: for each stalled unit, the exact
        // earliest cycle its front operation's gates can all be open,
        // derived from the same state the step functions check. Within a
        // no-progress window every gate is monotone (operands only become
        // ready, ports and slots only free), so the wake is the max over
        // the individual gate times — and `None` means the unit is
        // blocked on another unit's *progress*, which re-evaluates
        // everything anyway. Jumps land on ticks that actually advance,
        // instead of on every timer anywhere in the machine.
        // Each processor's wake is cached under the progress version: on
        // consecutive stalls (nothing changed, the clock has not reached
        // the wake) the cached value is still exact and the whole
        // gate-time computation is skipped.
        next.consider_opt(self.cached_wake(&self.wake_ap_cache, now, || self.wake_ap(now)));
        next.consider_opt(self.cached_wake(&self.wake_sp_cache, now, || self.wake_sp()));
        next.consider_opt(self.cached_wake(&self.wake_vp_cache, now, || self.wake_vp()));
        next.consider_opt(self.cached_wake(&self.wake_store_cache, now, || self.wake_store(now)));
        if self.cfg.bypass {
            next.consider_opt(
                self.cached_wake(&self.wake_bypass_cache, now, || self.wake_bypass()),
            );
        }
        next.get()
    }

    // -- per-unit wake times ------------------------------------------------

    /// Reads a wake time through its version-stamped cache, recomputing
    /// and re-stamping it when the version moved or the clock reached the
    /// cached value (`Cycle::MAX` encodes "blocked on progress").
    fn cached_wake(
        &self,
        cache: &std::cell::Cell<(u64, Cycle)>,
        now: Cycle,
        compute: impl FnOnce() -> Option<Cycle>,
    ) -> Option<Cycle> {
        let (version, wake) = cache.get();
        if version == self.progress_version && now < wake {
            return (wake != Cycle::MAX).then_some(wake);
        }
        let wake = compute();
        cache.set((self.progress_version, wake.unwrap_or(Cycle::MAX)));
        wake
    }

    /// The first cycle at which at least one memory port can accept an
    /// access, given no new reservations.
    fn port_ready_at(&self, now: Cycle) -> Cycle {
        if self.mem.port_free(now) {
            now
        } else {
            self.mem.next_free_at(now).unwrap_or(now)
        }
    }

    /// When an AVDQ slot frees: `now` if one is free, the k-th drain
    /// expiry that brings occupancy under capacity, or `None` when only a
    /// VP pop (progress) can free one. The drain list is sorted and holds
    /// only unexpired entries, so the k-th entry is the exact answer.
    fn avdq_slot_free_at(&self, now: Cycle) -> Option<Cycle> {
        let busy = self.avdq_busy_slots_at(now);
        let cap = self.avdq.capacity();
        if busy < cap {
            return Some(now);
        }
        self.avdq_draining.get(busy - cap).copied()
    }

    /// The cached disambiguation verdict for the AP's front load. The
    /// stalled step just evaluated it, so this is a lookup; the fallback
    /// recomputes without touching the cache.
    fn cached_conflict(&self, access: &VecAccess) -> Option<Conflict> {
        let serial = self.apiq.total_pushed() - self.apiq.len() as u64;
        match self.disambig_cache {
            Some((gen, s, result)) if gen == self.store_gen && s == serial => result,
            _ => self.disambiguate(access.range(), access.strided()),
        }
    }

    /// Exact wake time of the address processor's front µop, or `None`
    /// when it is blocked on another unit's progress (a full queue, a
    /// store drain, data that has not been produced).
    fn wake_ap(&self, now: Cycle) -> Option<Cycle> {
        // Drain mode persisting past the stalled tick means stores are
        // still pending; commits are store-engine progress.
        if self.ap_drain_until.is_some() {
            return None;
        }
        let op = self.apiq.front()?;
        match *op {
            ApOp::Alu {
                srcs, pops_sadq, ..
            } => {
                if (self.sadq.len() as u8) < pops_sadq {
                    return None; // waiting on an SP push
                }
                let mut at = self.ap_sb.ready_after(&srcs);
                for e in self.sadq.iter().take(pops_sadq as usize) {
                    at = at.max(e.ready_at);
                }
                Some(at)
            }
            ApOp::PushAsdq { src } => {
                if self.asdq.is_full() {
                    None // waiting on the SP to pop
                } else {
                    Some(self.ap_sb.ready_at(src))
                }
            }
            ApOp::ScalarLoad { to_sp, addr, .. } => {
                // A conflicted load put the AP in drain mode above.
                if to_sp && self.asdq.is_full() {
                    return None;
                }
                Some(if self.mem.probe_scalar(addr) == CacheAccess::Miss {
                    self.port_ready_at(now)
                } else {
                    now // a hit always issues; unreachable on a stall
                })
            }
            ApOp::ScalarStoreAddr { .. } => None, // stalled ⇒ SSAQ full
            ApOp::VectorStoreAddr { .. } => None, // stalled ⇒ VSAQ full
            ApOp::VectorLoad { access } => match self.cached_conflict(&access) {
                Some(c) if self.cfg.bypass && c.identical => {
                    // Bypass reservation: only the AVDQ slot gates it.
                    self.avdq_slot_free_at(now)
                }
                Some(_) => None, // hazard: drain mode handles it
                None => {
                    let slot = self.avdq_slot_free_at(now)?;
                    Some(slot.max(self.port_ready_at(now)))
                }
            },
            ApOp::Branch { cond } => Some(self.ap_sb.ready_at(cond)),
        }
    }

    /// Exact wake time of the scalar processor's front µop.
    fn wake_sp(&self) -> Option<Cycle> {
        let op = self.spiq.front()?;
        match *op {
            SpOp::Alu {
                srcs, pops_asdq, ..
            } => {
                if (self.asdq.len() as u8) < pops_asdq {
                    return None; // waiting on an AP push
                }
                let mut at = self.sp_sb.ready_after(&srcs);
                for e in self.asdq.iter().take(pops_asdq as usize) {
                    at = at.max(e.ready_at);
                }
                Some(at)
            }
            SpOp::PopAsdq { .. } => self.asdq.front().map(|e| e.ready_at),
            SpOp::PushSadq { src } => (!self.sadq.is_full()).then(|| self.sp_sb.ready_at(src)),
            SpOp::PushSvdq { src } => (!self.svdq.is_full()).then(|| self.sp_sb.ready_at(src)),
            SpOp::PushSsdq { src } => (!self.ssdq.is_full()).then(|| self.sp_sb.ready_at(src)),
            SpOp::PopVsdq { .. } => self.vsdq.front().map(|e| e.ready_at),
            SpOp::Branch { cond } => Some(self.sp_sb.ready_at(cond)),
        }
    }

    /// Exact wake time of the vector processor's front µop.
    fn wake_vp(&self) -> Option<Cycle> {
        let op = self.vpiq.front()?;
        match *op {
            VpOp::Compute {
                op,
                dst,
                reads,
                pops_svdq,
                ..
            } => {
                let mut at: Cycle = 0;
                if pops_svdq {
                    at = self.svdq.front()?.ready_at;
                }
                at = at.max(self.vregs.issue_ready_at(&reads, Some(dst), self.chain));
                at = at.max(if op.requires_general_unit() {
                    self.fu2.free_at()
                } else {
                    self.fu1.free_at().min(self.fu2.free_at())
                });
                Some(at)
            }
            VpOp::Reduce { src, .. } => {
                if self.vsdq.is_full() {
                    return None; // waiting on the SP to pop
                }
                let at = self
                    .vregs
                    .issue_ready_at(&[src], None, self.chain)
                    .max(self.fu1.free_at().min(self.fu2.free_at()));
                Some(at)
            }
            VpOp::QmovLoad { dst, reads, .. } => {
                let front = self.avdq.front()?;
                if front.ready_at == Cycle::MAX {
                    return None; // filled by the bypass unit (progress)
                }
                let at = front
                    .ready_at
                    .max(self.vregs.issue_ready_at(&reads, Some(dst), self.chain))
                    .max(self.qmov1.free_at().min(self.qmov2.free_at()));
                Some(at)
            }
            VpOp::QmovStore { reads, .. } => {
                if self.vadq.is_full() {
                    return None; // waiting on a store commit
                }
                let at = self
                    .vregs
                    .issue_ready_at(&reads, None, self.chain)
                    .max(self.qmov1.free_at().min(self.qmov2.free_at()));
                Some(at)
            }
        }
    }

    /// Wake time of the store engine: the earlier of the next scalar and
    /// vector commits it could perform.
    fn wake_store(&self, now: Cycle) -> Option<Cycle> {
        let mut next = dva_isa::EarliestAfter::new(now.saturating_sub(1));
        if let Some(front) = self.ssaq.front() {
            let data = match front.ap_data_ready {
                Some(t) => Some(t),
                None => self.ssdq.front().map(|d| d.ready_at),
            };
            if let Some(data) = data {
                next.consider(data.max(self.port_ready_at(now)));
            }
        }
        // Vector stores write back only under the lazy-writeback gates,
        // all of which flip on progress, not time.
        let flush = self.pc >= self.compiled.len() && self.pending.is_none();
        let pressured = self.vsaq.len() + 1 >= self.vsaq.capacity()
            || self.vadq.len() + 1 >= self.vadq.capacity();
        let draining = match (self.ap_drain_until, self.vsaq.front()) {
            (Some(limit), Some(front)) => front.seq <= limit,
            _ => false,
        };
        if flush || pressured || draining {
            if let Some(data) = self.vadq.front() {
                next.consider(data.first_at.max(self.port_ready_at(now)));
            }
        }
        next.get()
    }

    /// Wake time of the bypass unit's front pending copy.
    fn wake_bypass(&self) -> Option<Cycle> {
        let pending = self.pending_bypasses.front()?;
        let data = self.store_data_ready.get(pending.data)?;
        Some(data.max(self.bypass_unit.free_at()))
    }
}

impl Processor for Engine {
    fn step(&mut self, now: Cycle) -> Progress {
        self.now = now;
        // Entries whose drain has completed can never be observed
        // again (the busy-slot filter already ignores them); the list is
        // sorted ascending, so expiry is a pop-front-while-expired
        // instead of a whole-list scan.
        while self
            .avdq_draining
            .front()
            .is_some_and(|&until| until <= now)
        {
            self.avdq_draining.pop_front();
        }

        let mut progress = false;
        // The AP owns the memory port; lazy store writebacks take the
        // bus only in the cycles the AP leaves it idle. Each processor's
        // attempt is skipped outright while its cached wake time (from
        // the last fast-forward computation) certifies it must fail; any
        // sub-unit progress bumps the version and re-enables the
        // attempts that follow it, including within this same tick. The
        // AP attempt always runs in drain mode, which counts its stall
        // cycles inside the attempt.
        // A failed attempt immediately re-stamps its unit's wake cache
        // (the attempt just evaluated every gate, so the wake derivation
        // is exact *now*): until the version moves or the clock reaches
        // the wake, the unit skips its attempts — including across
        // dispatch-only ticks, which leave the version alone.
        let (ver, wake) = self.wake_ap_cache.get();
        if self.ap_drain_until.is_some() || ver != self.progress_version || now >= wake {
            let advanced = self.step_ap();
            self.progress_version += u64::from(advanced);
            progress |= advanced;
            if !advanced {
                let wake = self.wake_ap(now).unwrap_or(Cycle::MAX);
                self.wake_ap_cache.set((self.progress_version, wake));
            }
        }
        let (ver, wake) = self.wake_sp_cache.get();
        if ver != self.progress_version || now >= wake {
            let advanced = self.step_sp();
            self.progress_version += u64::from(advanced);
            progress |= advanced;
            if !advanced {
                let wake = self.wake_sp().unwrap_or(Cycle::MAX);
                self.wake_sp_cache.set((self.progress_version, wake));
            }
        }
        let (ver, wake) = self.wake_vp_cache.get();
        if ver != self.progress_version || now >= wake {
            let advanced = self.step_vp();
            self.progress_version += u64::from(advanced);
            progress |= advanced;
            if !advanced {
                let wake = self.wake_vp().unwrap_or(Cycle::MAX);
                self.wake_vp_cache.set((self.progress_version, wake));
            }
        }
        let flush = self.pc >= self.compiled.len() && self.pending.is_none();
        let (ver, wake) = self.wake_store_cache.get();
        if ver != self.progress_version || now >= wake {
            let advanced = self.step_store_engine(flush);
            self.progress_version += u64::from(advanced);
            progress |= advanced;
            if !advanced {
                let wake = self.wake_store(now).unwrap_or(Cycle::MAX);
                self.wake_store_cache.set((self.progress_version, wake));
            }
        }
        if self.cfg.bypass {
            let (ver, wake) = self.wake_bypass_cache.get();
            if ver != self.progress_version || now >= wake {
                let advanced = self.step_bypass_engine();
                self.progress_version += u64::from(advanced);
                progress |= advanced;
                if !advanced {
                    let wake = self.wake_bypass().unwrap_or(Cycle::MAX);
                    self.wake_bypass_cache.set((self.progress_version, wake));
                }
            }
        }

        // Fetch/dispatch: one architectural instruction per cycle, read
        // straight out of the pre-translated bundle stream (no bundle is
        // ever copied: stalled bundles wait as an index).
        if self.pending.is_none() && self.pc < self.compiled.len() {
            self.pending = Some(self.pc);
            self.pc += 1;
        }
        let mut fronts_changed = false;
        let dispatched = match self.pending {
            Some(index) => {
                let bundle = &self.compiled.bundles()[index];
                if self.fp_can_dispatch(bundle.slots()) {
                    if let Some(ap) = bundle.ap {
                        fronts_changed |= self.apiq.is_empty();
                        self.apiq.push(ap);
                    }
                    for sp in bundle.sp.iter() {
                        fronts_changed |= self.spiq.is_empty();
                        self.spiq.push(*sp);
                    }
                    if let Some(vp) = bundle.vp {
                        fronts_changed |= self.vpiq.is_empty();
                        self.vpiq.push(vp);
                    }
                    true
                } else {
                    self.fp_stalls += 1;
                    false
                }
            }
            None => false,
        };
        if dispatched {
            self.pending = None;
            // A push into a non-empty instruction queue changes no unit's
            // front µop, and the wake times read nothing else the
            // dispatch touches — the cached wakes stay exact, so the
            // version is left alone and the units keep skipping their
            // attempts. A push that installs a new front µop re-enables
            // that unit; the final dispatch flips the store engine's
            // flush gate, so it bumps too.
            if fronts_changed || self.pc >= self.compiled.len() {
                self.progress_version += 1;
            }
            progress = true;
        }
        Progress::from(progress)
    }

    /// Structural completion: everything fetched, all queues drained.
    fn is_done(&self) -> bool {
        let done = self.pc >= self.compiled.len()
            && self.pending.is_none()
            && self.apiq.is_empty()
            && self.spiq.is_empty()
            && self.vpiq.is_empty()
            && self.avdq.is_empty()
            && self.vadq.is_empty()
            && self.vsaq.is_empty()
            && self.ssaq.is_empty()
            && self.pending_bypasses.is_empty();
        if done {
            // A translator bug that leaves orphaned entries in the
            // five scalar data queues would otherwise be dropped
            // silently here: by the time the instruction queues drain,
            // every push must have had its matching pop.
            debug_assert!(
                self.ssdq.is_empty()
                    && self.asdq.is_empty()
                    && self.sadq.is_empty()
                    && self.svdq.is_empty()
                    && self.vsdq.is_empty(),
                "orphaned scalar data queue entries at structural completion: \
                 SSDQ={} ASDQ={} SADQ={} SVDQ={} VSDQ={}",
                self.ssdq.len(),
                self.asdq.len(),
                self.sadq.len(),
                self.svdq.len(),
                self.vsdq.len(),
            );
            debug_assert!(
                self.store_data_ready.is_empty(),
                "store data-ready slots must be garbage-collected by \
                 structural completion ({} left)",
                self.store_data_ready.len(),
            );
        }
        done
    }

    fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        self.next_event_at(now)
    }

    fn quiesce_at(&self) -> Cycle {
        self.vregs
            .quiesce_at()
            .max(self.ap_sb.quiesce_at())
            .max(self.sp_sb.quiesce_at())
            .max(self.fu1.free_at())
            .max(self.fu2.free_at())
            .max(self.qmov1.free_at())
            .max(self.qmov2.free_at())
            .max(self.bypass_unit.free_at())
            .max(self.mem.quiesce_at())
    }

    fn sample(&self, now: Cycle, obs: &mut Observers) {
        obs.record_occupancy(self.avdq_busy_slots_at(now));
        obs.record_state(self.state_at(now));
    }

    /// During the post-completion drain the AVDQ is empty (structural
    /// completion requires it) and QMOV drains no longer hold slots any
    /// consumer can observe, so the occupancy histogram records zero.
    fn drain_sample(&self, now: Cycle, obs: &mut Observers) {
        obs.record_state(self.state_at(now));
        obs.record_occupancy(0);
    }

    fn account_skipped(&mut self, _now: Cycle, skipped: u64) {
        if self.pending.is_some() {
            self.fp_stalls += skipped;
        }
        let drain_stalled = self
            .ap_drain_until
            .is_some_and(|limit| self.oldest_pending_store().is_some_and(|o| o <= limit));
        if drain_stalled {
            self.drain_stall_cycles += skipped;
        }
    }

    fn report(&self, cycles: Cycle) -> Report {
        Report {
            insts: self.compiled.len() as u64,
            traffic: self.mem.traffic(),
            bus_utilization: self.mem.utilization(cycles),
            port_utilization: self.mem.port_utilizations(cycles),
            cache_hit_rate: self.mem.cache().hit_rate(),
            cache: self.mem.cache().stats(),
            stall_cycles: self.fp_stalls,
        }
    }

    fn deadlock_context(&self, _now: Cycle) -> String {
        format!(
            "DVA pc={}/{} APIQ={} SPIQ={} VPIQ={} AVDQ={} VADQ={} VSAQ={} SSAQ={} \
             next_commit={} drain={:?} pending_byp={}",
            self.pc,
            self.compiled.len(),
            self.apiq.len(),
            self.spiq.len(),
            self.vpiq.len(),
            self.avdq.len(),
            self.vadq.len(),
            self.vsaq.len(),
            self.ssaq.len(),
            self.stores_committed,
            self.ap_drain_until,
            self.pending_bypasses.len(),
        )
    }
}

/// Drives `engine` (fresh or [`reset`](Engine::reset)) to completion
/// through the shared [`Driver`] and assembles the decoupled machine's
/// result. The engine keeps its buffers afterwards, ready for the next
/// reset.
pub(crate) fn drive(engine: &mut Engine, fast_forward: bool) -> DvaResult {
    try_drive(engine, fast_forward).unwrap_or_else(|e| panic!("{e}"))
}

/// [`drive`], but a tripped deadlock watchdog comes back as a
/// [`SimError`] instead of a panic. The engine is left mid-flight on
/// error; [`reset`](Engine::reset) restores it for the next run.
pub(crate) fn try_drive(engine: &mut Engine, fast_forward: bool) -> Result<DvaResult, SimError> {
    let mut observers = Observers::with_occupancy(Histogram::new(engine.cfg.queues.avdq));
    let completion = Driver::new()
        .fast_forward(fast_forward)
        .try_run(engine, &mut observers)?;
    let (core, occupancy) = completion.into_core(engine, observers);
    let avdq_occupancy = occupancy.expect("the DVA observers carry the AVDQ histogram");
    let max_avdq = avdq_occupancy.max_observed().unwrap_or(0);
    Ok(DvaResult {
        core,
        avdq_occupancy,
        bypassed_loads: engine.bypassed_loads,
        drain_stall_cycles: engine.drain_stall_cycles,
        max_vpiq: engine.vpiq.max_occupancy(),
        max_apiq: engine.apiq.max_occupancy(),
        max_avdq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::{Inst, Program, VectorAccess, VectorReg};
    use dva_testutil::vl;

    fn run(cfg: DvaConfig, program: &Program, fast_forward: bool) -> DvaResult {
        let compiled = Arc::new(CompiledProgram::compile(program));
        drive(&mut Engine::new(cfg, compiled), fast_forward)
    }

    /// A long stream of short vector loads rotating over the eight
    /// registers: with deep instruction queues and a long latency the AP
    /// slips far ahead and piles up outstanding AVDQ slots.
    fn load_storm(loads: usize, n: u32) -> Program {
        let insts: Vec<Inst> = (0..loads)
            .map(|i| Inst::VLoad {
                dst: VectorReg::ALL[i % VectorReg::ALL.len()],
                access: VectorAccess::unit(0x10_0000 + (i as u64) * 0x1000, vl(n)),
            })
            .collect();
        Program::from_insts("load-storm", insts)
    }

    #[test]
    fn avdq_histogram_covers_the_configured_capacity() {
        // Regression: the histogram used to be clamped to 64 buckets, so
        // configurations with AVDQ > 64 silently under-reported
        // `max_avdq` and the fig6/queue-sizing sweeps.
        let cfg = DvaConfig::builder().avdq(128).build();
        let program = load_storm(4, 64);
        let r = run(cfg, &program, true);
        assert_eq!(r.avdq_occupancy.buckets().len(), 128 + 1);
        assert_eq!(r.avdq_occupancy.overflow(), 0);
    }

    #[test]
    fn deep_queues_report_occupancy_beyond_64() {
        // With the clamp in place this scenario reported max_avdq == 64
        // no matter how deep the queue actually got.
        let cfg = DvaConfig::builder()
            .latency(800)
            .instruction_queue(512)
            .avdq(256)
            .build();
        let program = load_storm(120, 8);
        let r = run(cfg, &program, true);
        assert!(
            r.max_avdq > 64,
            "AVDQ only reached {} slots; the scenario no longer exercises \
             the >64 range",
            r.max_avdq
        );
        assert_eq!(r.avdq_occupancy.total(), r.cycles);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "orphaned scalar data queue entries")]
    fn orphaned_scalar_queue_entries_are_detected() {
        // Simulates a translator bug: an SVDQ entry nothing ever pops.
        let program = Program::from_insts("empty", Vec::new());
        let compiled = Arc::new(CompiledProgram::compile(&program));
        let mut engine = Engine::new(DvaConfig::default(), compiled);
        engine.svdq.push(Timed::new((), 0));
        let _ = drive(&mut engine, true);
    }

    #[test]
    fn fast_forward_and_naive_agree_on_a_mixed_program() {
        let mut insts = vec![
            Inst::VLoad {
                dst: VectorReg::V0,
                access: VectorAccess::unit(0x1000, vl(64)),
            },
            Inst::VStore {
                src: VectorReg::V0,
                access: VectorAccess::unit(0x2000, vl(64)),
            },
            Inst::VLoad {
                dst: VectorReg::V2,
                access: VectorAccess::unit(0x2000, vl(64)),
            },
        ];
        insts.extend((0..4).map(|i| Inst::VLoad {
            dst: VectorReg::ALL[4 + i % 4],
            access: VectorAccess::unit(0x9000 + i as u64 * 0x1000, vl(32)),
        }));
        let program = Program::from_insts("mixed", insts);
        for latency in [1, 37, 100] {
            for cfg in [
                DvaConfig::dva(latency),
                DvaConfig::byp(latency, 4, 8),
                DvaConfig::byp(latency, 256, 16),
            ] {
                let fast = run(cfg, &program, true);
                let naive = run(cfg, &program, false);
                assert_eq!(fast, naive, "L={latency} cfg={cfg:?}");
                assert!(
                    fast.ticks_executed.get() <= naive.ticks_executed.get(),
                    "fast-forward must never execute more ticks"
                );
            }
        }
    }

    /// A reset engine must behave exactly like a fresh one, across
    /// different configurations and programs.
    #[test]
    fn reset_is_byte_identical_to_a_fresh_engine() {
        let storm = Arc::new(CompiledProgram::compile(&load_storm(24, 32)));
        let mixed = {
            let insts = vec![
                Inst::VLoad {
                    dst: VectorReg::V0,
                    access: VectorAccess::unit(0x1000, vl(64)),
                },
                Inst::VStore {
                    src: VectorReg::V0,
                    access: VectorAccess::unit(0x2000, vl(64)),
                },
                Inst::VLoad {
                    dst: VectorReg::V2,
                    access: VectorAccess::unit(0x2000, vl(64)),
                },
            ];
            Arc::new(CompiledProgram::compile(&Program::from_insts("m", insts)))
        };
        let mut engine = Engine::new(DvaConfig::dva(1), Arc::clone(&storm));
        let _ = drive(&mut engine, true);
        for (cfg, compiled) in [
            (DvaConfig::dva(70), &storm),
            (DvaConfig::byp(30, 4, 8), &mixed),
            (DvaConfig::builder().latency(5).avdq(4).build(), &storm),
        ] {
            engine.reset(cfg, Arc::clone(compiled));
            let reused = drive(&mut engine, true);
            let fresh = drive(&mut Engine::new(cfg, Arc::clone(compiled)), true);
            assert_eq!(reused, fresh, "cfg={cfg:?}");
        }
    }

    #[test]
    fn data_ready_ring_tracks_out_of_order_removal() {
        let mut ring = DataReadyRing::with_capacity(4);
        ring.insert(0, 10);
        ring.insert(1, 20);
        ring.insert(2, 30);
        assert_eq!(ring.get(1), Some(20));
        // Remove the middle slot: the front stays, nothing is released.
        ring.remove(1);
        assert_eq!(ring.get(1), None);
        assert_eq!(ring.get(0), Some(10));
        assert_eq!(ring.len(), 2);
        // Removing the front releases it and the dead middle slot.
        ring.remove(0);
        assert_eq!(ring.get(2), Some(30));
        ring.remove(2);
        assert!(ring.is_empty());
        // Stale lookups below the base are simply absent.
        assert_eq!(ring.get(0), None);
        ring.insert(3, 40);
        assert_eq!(ring.get(3), Some(40));
    }
}
