//! The cycle-stepped decoupled-machine engine: four processors, the
//! architectural queues, the two-step store engine and the bypass unit.
//!
//! The engine is a [`dva_engine::Processor`]: it advances its units one
//! tick at a time and reports progress honestly; the clock, the
//! fast-forward stepping, the watchdog and the statistics bookkeeping
//! all live in the shared [`dva_engine::Driver`].
//!
//! # Instruction queues
//!
//! The APIQ, SPIQ and VPIQ are windows `[head, tail)` over the compiled
//! program's AP, SP and VP µop streams. Dispatching an instruction moves
//! the three tails to its stream ends, issuing moves one head, and each
//! unit reads its front µop in place; the APIQ head doubles as the
//! serial number of the AP's front µop for the disambiguation cache.
//!
//! # Skipping attempts
//!
//! The units interact only through the architectural queues (paper,
//! Section 4), so a stalled unit can start again only when its own
//! queues or resources change, or when the clock reaches a time its
//! gates wait for. The engine therefore keeps, for each of the five
//! issuing units (AP, SP, VP, store engine, bypass unit), a cached
//! *wake* — the earliest cycle its front operation's gates can all be
//! open, or `Cycle::MAX` when only another unit's progress can open them
//! — and one *stale* bit. Each tick, `step` tests every unit inline —
//! its bit is set, or the clock has reached its wake — and calls the
//! unit's own issue attempt only when the test says it is due; a failed
//! attempt clears the bit and re-derives the wake, and a successful one
//! sets its own bit (its front moved). The fast-forward computation
//! reads a wake that is not due as it stands and derives only the
//! others. Each mutation marks exactly the units whose issue gates or
//! wake derivation read what it changed:
//!
//! | mutation | units marked |
//! |---|---|
//! | dispatch into an empty APIQ / SPIQ / VPIQ | AP / SP / VP |
//! | the final dispatch (the flush gate opens) | store engine |
//! | push into a SADQ / ASDQ holding under two entries | AP / SP |
//! | push into an empty SVDQ / VSDQ / SSDQ | VP / SP / store engine |
//! | push into an empty AVDQ; a bypass copy filling its front slot | VP |
//! | push into an empty pending-bypass queue | bypass unit |
//! | push into an empty SSAQ | store engine |
//! | push into an empty VSAQ / VADQ, or one leaving it one entry short of full | store engine |
//! | push into the VADQ | bypass unit |
//! | pop from a full SADQ / ASDQ / SVDQ / VSDQ / SSDQ / VADQ | SP / AP / SP / VP / SP / VP |
//! | QMOV pop from the AVDQ while every slot is busy | AP |
//! | AP memory-port reservation while the store engine's wake is finite | store engine |
//! | store commit (port, cache, store queues) | AP |
//! | entering or leaving drain mode | store engine |
//!
//! The store engine reads the VSAQ and VADQ only at their fronts and
//! against the lazy-writeback pressure threshold, so a push that
//! installs no front and reaches no threshold changes nothing it reads;
//! and the memory port enters its wake only beside a commit it could
//! make, so a reservation cannot move a wake of `Cycle::MAX`.
//!
//! Drain mode needs no AP mark: the AP enters and leaves it in its own
//! attempts, and while it drains only a store commit can end the drain,
//! so an AP that is not due while draining just counts a drain stall
//! cycle. Debug builds check the marks wherever the engine trusts a
//! cached wake instead of attempting or deriving — for a unit `step`
//! finds not due, and in the next-event computation: the wake is
//! asserted equal to a fresh derivation, and a trusted AP that waits on
//! the store queues (draining, or facing a full SSAQ / VSAQ) is asserted
//! still to wait, since its wake reads neither queue. A missing mark
//! fails the first test that reaches it. Release builds compile the
//! check out, so they run only the inline test.

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

/// An instruction queue: the window `[head, tail)` over one unit's µop
/// stream in the [`CompiledProgram`]. Dispatch moves the tail, issue the
/// head; the µops themselves stay in the compiled stream.
#[derive(Debug, Clone, Copy)]
struct Window {
    head: usize,
    tail: usize,
    cap: usize,
    max_occupancy: usize,
}

impl Window {
    fn new(cap: usize) -> Window {
        assert!(cap > 0, "instruction queues must have nonzero capacity");
        Window {
            head: 0,
            tail: 0,
            cap,
            max_occupancy: 0,
        }
    }

    fn len(&self) -> usize {
        self.tail - self.head
    }

    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// The front µop, read in place from `stream`.
    fn front<'s, T>(&self, stream: &'s [T]) -> Option<&'s T> {
        (self.head < self.tail).then(|| &stream[self.head])
    }

    fn pop(&mut self) {
        debug_assert!(!self.is_empty());
        self.head += 1;
    }

    /// Whether the window can grow to end at `tail` without exceeding
    /// its capacity.
    fn fits(&self, tail: usize) -> bool {
        tail - self.head <= self.cap
    }

    /// Grows the window to end at `tail`, returning whether that
    /// installed a new front µop (the queue was empty and now is not).
    fn extend_to(&mut self, tail: usize) -> bool {
        let installs = self.is_empty() && tail > self.tail;
        self.tail = tail;
        self.max_occupancy = self.max_occupancy.max(self.len());
        installs
    }
}

// The five issuing units, as bits of `Engine::stale`; each unit's wake
// lives at `Engine::wake[slot(unit)]`.
const AP: u8 = 1 << 0;
const SP: u8 = 1 << 1;
const VP: u8 = 1 << 2;
const STORE: u8 = 1 << 3;
const BYPASS: u8 = 1 << 4;
const ALL_UNITS: u8 = AP | SP | VP | STORE | BYPASS;

/// The index of `unit`'s wake in `Engine::wake`.
const fn slot(unit: u8) -> usize {
    unit.trailing_zeros() as usize
}

/// The most entries an issue gate reads at the front of the SADQ or the
/// ASDQ: an ALU µop pops up to two operands.
const OPERANDS: usize = 2;

/// Whether a push that just landed in the VSAQ or the VADQ can open a
/// gate the store engine reads: it installed the queue's front, or it
/// brought the queue to the lazy-writeback pressure threshold (one entry
/// short of full). Any other push changes only a length the store engine
/// compares against that threshold.
fn opens_writeback<T>(queue: &Fifo<T>) -> bool {
    queue.len() == 1 || queue.len() + 1 == queue.capacity()
}

/// When the first `pops` entries of an operand queue are all ready, or
/// `None` while the queue holds fewer (the producer must push first).
fn operands_ready_at(queue: &Fifo<Timed<()>>, pops: u8) -> Option<Cycle> {
    let mut at: Cycle = 0;
    for i in 0..pops as usize {
        at = at.max(queue.get(i)?.ready_at);
    }
    Some(at)
}

/// Issue attempts and failed attempts per unit (indexed by [`slot`]),
/// counted only in this crate's test build so that the tick costs the
/// same as without them everywhere else.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct AttemptCounts {
    attempts: [u64; 5],
    failures: [u64; 5],
}

#[cfg(test)]
impl AttemptCounts {
    fn record(&mut self, slot: usize, advanced: bool) {
        self.attempts[slot] += 1;
        self.failures[slot] += u64::from(!advanced);
    }
}

#[derive(Debug)]
pub(crate) struct Engine {
    cfg: DvaConfig,
    chain: ChainPolicy,
    now: Cycle,

    // Fetch processor state: the compiled µop streams and the index of
    // the next instruction to dispatch.
    compiled: Arc<CompiledProgram>,
    next: usize,

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

    // Instruction queues: windows over the compiled µop streams.
    apiq: Window,
    spiq: Window,
    vpiq: Window,

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
    disambig_cache: Option<(u64, usize, Option<Conflict>)>,

    // Attempt skipping (see the module docs): one stale bit per unit and
    // each unit's wake as derived after its last failed attempt.
    stale: u8,
    wake: [Cycle; 5],
    #[cfg(test)]
    counts: AttemptCounts,

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
            next: 0,
            vregs: VectorRegFile::new(&cfg.uarch),
            fu1: FuPipe::new("FU1"),
            fu2: FuPipe::new("FU2"),
            qmov1: FuPipe::new("QMOV1"),
            qmov2: FuPipe::new("QMOV2"),
            ap_sb: Scoreboard::new(),
            sp_sb: Scoreboard::new(),
            mem: cfg.memory.instantiate(),
            apiq: Window::new(q.instruction_queue),
            spiq: Window::new(q.instruction_queue),
            vpiq: Window::new(q.instruction_queue),
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
            stale: ALL_UNITS,
            wake: [0; 5],
            #[cfg(test)]
            counts: AttemptCounts::default(),
            fp_stalls: 0,
            drain_stall_cycles: 0,
            branches_to_fp: 0,
        }
    }

    /// Restores the engine to its initial state for a fresh run of
    /// (possibly) a different configuration and program, **reusing every
    /// buffer already allocated**: the architectural queues, the memory
    /// backend's ports and cache tags, the AVDQ drain list, the bypass
    /// queue and the data-ready ring all keep their storage. After
    /// `reset`, a run is byte-identical to one on a freshly constructed
    /// engine — the reset contract the sweep workers and the
    /// allocation-regression tests rely on.
    pub(crate) fn reset(&mut self, cfg: DvaConfig, compiled: Arc<CompiledProgram>) {
        let q = cfg.queues;
        self.cfg = cfg;
        self.chain = ChainPolicy::reference();
        self.now = 0;
        self.compiled = compiled;
        self.next = 0;
        self.vregs = VectorRegFile::new(&cfg.uarch);
        self.fu1 = FuPipe::new("FU1");
        self.fu2 = FuPipe::new("FU2");
        self.qmov1 = FuPipe::new("QMOV1");
        self.qmov2 = FuPipe::new("QMOV2");
        self.ap_sb = Scoreboard::new();
        self.sp_sb = Scoreboard::new();
        self.mem.reset(cfg.memory);
        self.apiq = Window::new(q.instruction_queue);
        self.spiq = Window::new(q.instruction_queue);
        self.vpiq = Window::new(q.instruction_queue);
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
        self.stale = ALL_UNITS;
        self.wake = [0; 5];
        #[cfg(test)]
        {
            self.counts = AttemptCounts::default();
        }
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

    fn avdq_busy_slots(&self) -> usize {
        // Every caller runs after the tick's expiry sweep, so the drain
        // list holds only live entries and the count is just its length.
        debug_assert!(self.avdq_draining.front().is_none_or(|&t| t > self.now));
        self.avdq.len() + self.avdq_draining.len()
    }

    fn avdq_has_free_slot(&self) -> bool {
        self.avdq_busy_slots() < self.avdq.capacity()
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
        let serial = self.apiq.head;
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
    fn step_store_engine(&mut self) -> bool {
        let now = self.now;
        // Scalar store: eager.
        if let Some(front) = self.ssaq.front().copied() {
            let data_ready = match front.ap_data_ready {
                Some(t) => t <= now,
                None => self.ssdq.front().is_some_and(|d| d.is_ready(now)),
            };
            if data_ready && self.mem.port_free(now) {
                if front.ap_data_ready.is_none() {
                    if self.ssdq.is_full() {
                        self.stale |= SP;
                    }
                    self.ssdq.pop();
                }
                self.mem.scalar_store(now, front.addr);
                self.ssaq.pop();
                self.store_gen += 1;
                self.stores_committed += 1;
                // The AP reads the port, the cache and the store queues.
                self.stale |= AP;
                return true;
            }
        }
        // Vector store: lazy.
        if !self.vector_writeback_open() {
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
        if self.vadq.is_full() {
            self.stale |= VP;
        }
        self.vsaq.pop();
        self.vadq.pop();
        self.store_gen += 1;
        self.stores_committed += 1;
        self.stale |= AP;
        // Only unreferenced data-ready slots go, so no pending bypass
        // loses its source.
        self.gc_store_data_ready(data.data);
        true
    }

    /// The lazy-writeback gates: vector stores commit only while the
    /// program is flushing, a store queue is one entry short of full
    /// (pressure), or the AP drains up to the VSAQ's front store.
    fn vector_writeback_open(&self) -> bool {
        let pressured = self.vsaq.len() + 1 >= self.vsaq.capacity()
            || self.vadq.len() + 1 >= self.vadq.capacity();
        let draining = match (self.ap_drain_until, self.vsaq.front()) {
            (Some(limit), Some(front)) => front.seq <= limit,
            _ => false,
        };
        self.all_dispatched() || pressured || draining
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
        if slot == 0 {
            self.stale |= VP;
        }
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
            // Leaving drain mode closes the store engine's `draining`
            // gate even when the attempt below fails.
            self.stale |= STORE;
        }
        let Some(&op) = self.apiq.front(&self.compiled.ap) else {
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
                } else if operands_ready_at(&self.sadq, pops_sadq).is_none_or(|t| t > now) {
                    false
                } else {
                    if pops_sadq > 0 && self.sadq.is_full() {
                        self.stale |= SP;
                    }
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
                    self.push_asdq(now + 1);
                    true
                }
            }
            ApOp::ScalarLoad { dst, to_sp, addr } => self.ap_scalar_load(dst, to_sp, addr),
            ApOp::ScalarStoreAddr { addr, data, seq } => {
                if self.ssaq.is_full() {
                    false
                } else {
                    if self.ssaq.is_empty() {
                        self.stale |= STORE;
                    }
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
                    if opens_writeback(&self.vsaq) {
                        self.stale |= STORE;
                    }
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

    /// Puts the AP in drain mode until `seq` commits. Drain entry opens
    /// the store engine's `draining` gate even though the load attempt
    /// itself fails: without the mark a store engine skipping on its
    /// cached wake would never notice the drain, and the machine would
    /// deadlock.
    fn enter_drain(&mut self, seq: StoreSeq) {
        self.ap_drain_until = Some(seq);
        self.stale |= STORE;
    }

    /// Marks the store engine after an AP memory-port reservation. The
    /// port enters only a finite store wake: a store engine waiting on
    /// another unit's progress (`Cycle::MAX`) reads no port time, and a
    /// stale one attempts anyway.
    fn mark_port_reserved(&mut self) {
        if self.wake[slot(STORE)] != Cycle::MAX {
            self.stale |= STORE;
        }
    }

    /// Pushes an AP→SP value ready at `ready_at`; the SP's gates read
    /// the first [`OPERANDS`] entries.
    fn push_asdq(&mut self, ready_at: Cycle) {
        if self.asdq.len() < OPERANDS {
            self.stale |= SP;
        }
        self.asdq.push(Timed::new((), ready_at));
    }

    /// Pushes into the AVDQ; a new front slot is the VP's to read.
    fn push_avdq(&mut self, slot: AvdqSlot) {
        if self.avdq.is_empty() {
            self.stale |= VP;
        }
        self.avdq.push(slot);
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
        let miss = self.mem.probe_scalar(addr) == CacheAccess::Miss;
        if miss && !self.mem.port_free(now) {
            return false;
        }
        let issue = self.mem.scalar_load(now, addr);
        if miss {
            self.mark_port_reserved();
        }
        if to_sp {
            self.push_asdq(issue.data_complete_at);
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
                self.push_avdq(AvdqSlot {
                    id,
                    ready_at: Cycle::MAX,
                    pending_bypass: Some(data),
                });
                if self.pending_bypasses.is_empty() {
                    self.stale |= BYPASS;
                }
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
                self.mark_port_reserved();
                let id = self.next_avdq_id;
                self.next_avdq_id += 1;
                self.push_avdq(AvdqSlot {
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
        let Some(&op) = self.spiq.front(&self.compiled.sp) else {
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
                } else if operands_ready_at(&self.asdq, pops_asdq).is_none_or(|t| t > now) {
                    false
                } else {
                    if pops_asdq > 0 && self.asdq.is_full() {
                        self.stale |= AP;
                    }
                    for _ in 0..pops_asdq {
                        self.asdq.pop();
                    }
                    self.sp_sb.set_ready(dst, now + 1);
                    true
                }
            }
            SpOp::PopAsdq { dst } => {
                if self.asdq.front().is_some_and(|e| e.is_ready(now)) {
                    if self.asdq.is_full() {
                        self.stale |= AP;
                    }
                    self.asdq.pop();
                    self.sp_sb.set_ready(dst, now + 1);
                    true
                } else {
                    false
                }
            }
            SpOp::PushSadq { src } => self.sp_push(src, AP, OPERANDS, |e| &mut e.sadq),
            SpOp::PushSvdq { src } => self.sp_push(src, VP, 1, |e| &mut e.svdq),
            SpOp::PushSsdq { src } => self.sp_push(src, STORE, 1, |e| &mut e.ssdq),
            SpOp::PopVsdq { dst } => {
                if self.vsdq.front().is_some_and(|e| e.is_ready(now)) {
                    if self.vsdq.is_full() {
                        self.stale |= VP;
                    }
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

    /// Pushes `src` into an SP→`consumer` data queue whose consumer's
    /// gates read its first `reads` entries.
    fn sp_push(
        &mut self,
        src: ScalarReg,
        consumer: u8,
        reads: usize,
        queue: impl for<'e> Fn(&'e mut Engine) -> &'e mut Fifo<Timed<()>>,
    ) -> bool {
        let now = self.now;
        if !self.sp_sb.is_ready(src, now) {
            return false;
        }
        let queue = queue(self);
        if queue.is_full() {
            return false;
        }
        let marks = queue.len() < reads;
        queue.push(Timed::new((), now + 1));
        if marks {
            self.stale |= consumer;
        }
        true
    }

    // -- vector processor ---------------------------------------------------

    fn step_vp(&mut self) -> bool {
        let now = self.now;
        let startup = self.cfg.uarch.fu_startup;
        let qstartup = self.cfg.uarch.qmov_startup;
        let Some(&op) = self.vpiq.front(&self.compiled.vp) else {
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
                            if self.svdq.is_full() {
                                self.stale |= SP;
                            }
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
                    if self.vsdq.is_empty() {
                        self.stale |= SP;
                    }
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
                    // The slot stays busy while it drains, so occupancy is
                    // unchanged; with every slot busy, the AP's wait for
                    // one reads the drain list this changes.
                    if !self.avdq_has_free_slot() {
                        self.stale |= AP;
                    }
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
                    self.stale |= BYPASS;
                    if opens_writeback(&self.vadq) {
                        self.stale |= STORE;
                    }
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

    /// Whether every instruction has dispatched (the store engine's
    /// flush gate).
    fn all_dispatched(&self) -> bool {
        self.next == self.compiled.len()
    }

    /// Dispatches the next instruction when all three instruction queues
    /// have room for its µops: one architectural instruction per cycle.
    /// Returns whether it dispatched.
    fn dispatch(&mut self) -> bool {
        let Some(&ends) = self.compiled.ends.get(self.next) else {
            return false;
        };
        let [ap, sp, vp] = ends.map(|end| end as usize);
        if !(self.apiq.fits(ap) && self.spiq.fits(sp) && self.vpiq.fits(vp)) {
            self.fp_stalls += 1;
            return false;
        }
        // A push into a non-empty queue changes no unit's front µop.
        let mut marks = 0;
        if self.apiq.extend_to(ap) {
            marks |= AP;
        }
        if self.spiq.extend_to(sp) {
            marks |= SP;
        }
        if self.vpiq.extend_to(vp) {
            marks |= VP;
        }
        self.next += 1;
        if self.all_dispatched() {
            marks |= STORE;
        }
        self.stale |= marks;
        true
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
        // blocked on another unit's *progress*, which marks it stale.
        // Jumps land on ticks that actually advance, instead of on every
        // timer anywhere in the machine. Each unit's wake is cached until
        // the unit goes stale or the clock reaches it (see the module
        // docs), so on consecutive stalls the gate-time computation is
        // skipped.
        let bypass = if self.cfg.bypass {
            self.wake_at::<BYPASS>(now)
        } else {
            Cycle::MAX
        };
        for wake in [
            self.wake_at::<AP>(now),
            self.wake_at::<SP>(now),
            self.wake_at::<VP>(now),
            self.wake_at::<STORE>(now),
            bypass,
        ] {
            if wake != Cycle::MAX {
                next.consider(wake);
            }
        }
        next.get()
    }

    // -- per-unit wake times ------------------------------------------------

    /// Whether `UNIT` must attempt at `now`: it is stale, or the clock
    /// has reached its wake. Otherwise its cached wake certifies that the
    /// attempt would fail (`Cycle::MAX` encodes "blocked on another
    /// unit's progress").
    #[inline(always)]
    fn due<const UNIT: u8>(&self, now: Cycle) -> bool {
        self.stale & UNIT != 0 || now >= self.wake[slot(UNIT)]
    }

    /// Checks, in debug builds only, the cached wake of a `UNIT` that is
    /// not [`due`](Engine::due) at `now`, where the engine trusts it in
    /// place of an attempt or a derivation: it must equal a fresh
    /// derivation, and a waiting AP must still wait on the store queues.
    #[inline(always)]
    fn check_cached_wake<const UNIT: u8>(&self, now: Cycle) {
        debug_assert_eq!(
            self.wake[slot(UNIT)],
            self.derive_wake::<UNIT>(now),
            "the {}'s cached wake went stale at cycle {now} without a mark",
            ["AP", "SP", "VP", "store engine", "bypass unit"][slot(UNIT)]
        );
        debug_assert!(
            UNIT != AP || self.ap_store_wait_holds(),
            "the AP's wait on the store queues ended at cycle {now} without a mark"
        );
    }

    /// Whether the AP's wait on the store queues, if any, still holds: a
    /// drain's limit store is still pending, a store-address µop still
    /// faces a full queue. The AP's wake is `None` either way, so only
    /// this check sees a commit that ended the wait without a mark.
    fn ap_store_wait_holds(&self) -> bool {
        if let Some(limit) = self.ap_drain_until {
            return self
                .oldest_pending_store()
                .is_some_and(|oldest| oldest <= limit);
        }
        match self.apiq.front(&self.compiled.ap) {
            Some(ApOp::ScalarStoreAddr { .. }) => self.ssaq.is_full(),
            Some(ApOp::VectorStoreAddr { .. }) => self.vsaq.is_full(),
            _ => true,
        }
    }

    /// Derives `UNIT`'s wake from the current state.
    #[inline(always)]
    fn derive_wake<const UNIT: u8>(&self, now: Cycle) -> Cycle {
        match UNIT {
            AP => self.wake_ap(now),
            SP => self.wake_sp(),
            VP => self.wake_vp(),
            STORE => self.wake_store(now),
            _ => self.wake_bypass(),
        }
        .unwrap_or(Cycle::MAX)
    }

    /// `UNIT`'s wake for the next-event computation: the cached one
    /// while the unit is not due, else a fresh derivation.
    #[inline(always)]
    fn wake_at<const UNIT: u8>(&self, now: Cycle) -> Cycle {
        if self.due::<UNIT>(now) {
            return self.derive_wake::<UNIT>(now);
        }
        self.check_cached_wake::<UNIT>(now);
        self.wake[slot(UNIT)]
    }

    /// Runs `UNIT`'s issue attempt at `now`; the caller has found it
    /// [`due`](Engine::due). A success marks the unit itself, since its
    /// front moved; a failure clears its stale bit and re-derives its
    /// wake, which the attempt's gates just confirmed.
    fn attempt<const UNIT: u8>(&mut self, now: Cycle) -> bool {
        let advanced = match UNIT {
            AP => self.step_ap(),
            SP => self.step_sp(),
            VP => self.step_vp(),
            STORE => self.step_store_engine(),
            _ => self.step_bypass_engine(),
        };
        #[cfg(test)]
        self.counts.record(slot(UNIT), advanced);
        if advanced {
            self.stale |= UNIT;
        } else {
            self.stale &= !UNIT;
            self.wake[slot(UNIT)] = self.derive_wake::<UNIT>(now);
        }
        advanced
    }

    /// Attempts `UNIT` at `now` if it is [`due`](Engine::due); otherwise
    /// its cached wake stands (checked in debug builds) and, for a
    /// draining AP, the cycle counts as a drain stall: every store
    /// commit marks the AP, so unmarked it is still draining.
    #[inline(always)]
    fn visit<const UNIT: u8>(&mut self, now: Cycle) -> bool {
        if self.due::<UNIT>(now) {
            return self.attempt::<UNIT>(now);
        }
        self.check_cached_wake::<UNIT>(now);
        if UNIT == AP && self.ap_drain_until.is_some() {
            self.drain_stall_cycles += 1;
        }
        false
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
        let busy = self.avdq_busy_slots();
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
        match self.disambig_cache {
            Some((gen, s, result)) if gen == self.store_gen && s == self.apiq.head => result,
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
        let op = self.apiq.front(&self.compiled.ap)?;
        match *op {
            ApOp::Alu {
                srcs, pops_sadq, ..
            } => {
                // `None`: waiting on an SP push.
                let operands = operands_ready_at(&self.sadq, pops_sadq)?;
                Some(operands.max(self.ap_sb.ready_after(&srcs)))
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
        let op = self.spiq.front(&self.compiled.sp)?;
        match *op {
            SpOp::Alu {
                srcs, pops_asdq, ..
            } => {
                // `None`: waiting on an AP push.
                let operands = operands_ready_at(&self.asdq, pops_asdq)?;
                Some(operands.max(self.sp_sb.ready_after(&srcs)))
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
        let op = self.vpiq.front(&self.compiled.vp)?;
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
        if self.vector_writeback_open() {
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

        // The AP owns the memory port; lazy store writebacks take the
        // bus only in the cycles the AP leaves it idle. Each unit's
        // attempt is skipped while its cached wake certifies it must fail
        // (see the module docs); a mutation marks the units that read
        // what it changed, which re-enables their attempts — including
        // the ones later in this same tick.
        let mut progress = self.visit::<AP>(now);
        progress |= self.visit::<SP>(now);
        progress |= self.visit::<VP>(now);
        progress |= self.visit::<STORE>(now);
        if self.cfg.bypass {
            progress |= self.visit::<BYPASS>(now);
        }
        progress |= self.dispatch();
        Progress::from(progress)
    }

    /// Structural completion: everything dispatched, all queues drained.
    fn is_done(&self) -> bool {
        let done = self.all_dispatched()
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
        obs.record_occupancy(self.avdq_busy_slots());
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
        // After a stalled tick, an undispatched instruction is one the
        // fetch processor failed to dispatch.
        if !self.all_dispatched() {
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
            self.next,
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
/// reset; on a tripped deadlock watchdog it is left mid-flight, and
/// [`reset`](Engine::reset) restores it.
pub(crate) fn drive(engine: &mut Engine, fast_forward: bool) -> Result<DvaResult, SimError> {
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
        max_vpiq: engine.vpiq.max_occupancy,
        max_apiq: engine.apiq.max_occupancy,
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
        drive(&mut Engine::new(cfg, compiled), fast_forward).unwrap()
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
        let _ = drive(&mut engine, true).unwrap();
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
        let _ = drive(&mut engine, true).unwrap();
        for (cfg, compiled) in [
            (DvaConfig::dva(70), &storm),
            (DvaConfig::byp(30, 4, 8), &mixed),
            (DvaConfig::builder().latency(5).avdq(4).build(), &storm),
        ] {
            engine.reset(cfg, Arc::clone(compiled));
            let reused = drive(&mut engine, true).unwrap();
            let fresh = drive(&mut Engine::new(cfg, Arc::clone(compiled)), true).unwrap();
            assert_eq!(reused, fresh, "cfg={cfg:?}");
        }
    }

    /// The SP pushes a scalar store's data while the AP still waits on a
    /// branch, so the store engine, idle with data but no address, has
    /// its wake at `Cycle::MAX` when the address lands in the SSAQ: only
    /// the SSAQ mark lets it commit, and in debug builds the wake oracle
    /// names a missing one.
    #[test]
    fn scalar_store_data_may_wait_for_its_address() {
        use dva_isa::ScalarReg;
        let program = Program::from_insts(
            "data-first",
            vec![
                Inst::SLoad {
                    dst: ScalarReg::addr(1),
                    addr: 0x100,
                },
                Inst::Branch {
                    cond: ScalarReg::addr(1),
                    taken: false,
                },
                Inst::SStore {
                    src: ScalarReg::scalar(0),
                    addr: 0x200,
                },
            ],
        );
        for latency in [1, 100] {
            let cfg = DvaConfig::dva(latency);
            let fast = run(cfg, &program, true);
            assert_eq!(fast, run(cfg, &program, false), "L={latency}");
            assert!(fast.cycles > latency, "L={latency}");
        }
    }

    /// Attempts and failed attempts per unit (AP, SP, VP, store engine,
    /// bypass unit) and executed ticks on ARC2D Quick: a host-independent
    /// count of the work per tick. A change to the skip logic or the mark
    /// table moves these numbers, and must say why.
    #[test]
    fn attempt_counts_are_pinned() {
        let program = dva_workloads::Benchmark::Arc2d.program(dva_workloads::Scale::Quick);
        let compiled = Arc::new(CompiledProgram::compile(&program));
        let pins: [(DvaConfig, [u64; 5], [u64; 5], u64); 4] = [
            (
                DvaConfig::dva(1),
                [2922, 1651, 2344, 1039, 0],
                [1039, 399, 1096, 735, 0],
                6966,
            ),
            (
                DvaConfig::dva(100),
                [2950, 1674, 2332, 1033, 0],
                [1067, 422, 1084, 729, 0],
                7399,
            ),
            (
                DvaConfig::byp(1, 4, 8),
                [2903, 1597, 2320, 1090, 293],
                [1020, 345, 1072, 786, 253],
                6682,
            ),
            (
                DvaConfig::byp(100, 4, 8),
                [2950, 1618, 2320, 1069, 297],
                [1067, 366, 1072, 765, 257],
                7172,
            ),
        ];
        for (cfg, attempts, failures, ticks) in pins {
            let mut engine = Engine::new(cfg, Arc::clone(&compiled));
            let r = drive(&mut engine, true).unwrap();
            let label = format!("L={} bypass={}", cfg.memory.latency, cfg.bypass);
            assert_eq!(engine.counts.attempts, attempts, "attempts, {label}");
            assert_eq!(engine.counts.failures, failures, "failures, {label}");
            assert_eq!(r.ticks_executed.get(), ticks, "ticks, {label}");
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
