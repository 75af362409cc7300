//! The banked vector register file with chaining-aware hazard tracking.

use crate::params::{ChainPolicy, UarchParams};
use dva_isa::{Cycle, VectorReg, MAX_DELAY, NUM_VECTOR_REGS, VECTOR_BANK_SIZE};

/// The kind of unit currently (or last) writing a register; determines
/// whether consumers may chain off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// Register is architecturally idle (no in-flight writer).
    Idle,
    /// Written by `FU1`/`FU2`.
    FunctionalUnit,
    /// Written by a QMOV unit (decoupled machine).
    Qmov,
    /// Written by the memory load unit.
    MemoryLoad,
}

#[derive(Debug, Clone, Copy)]
struct VRegState {
    /// Cycle at which the last element is written and the register is
    /// fully architecturally valid.
    ready_at: Cycle,
    /// Cycle at which the first element is written (chaining window
    /// start).
    first_elem_at: Cycle,
    /// Who is writing it.
    producer: Producer,
    /// Latest cycle at which an in-flight reader is still streaming the
    /// register (write-after-read hazard bound).
    readers_until: Cycle,
}

impl Default for VRegState {
    fn default() -> Self {
        VRegState {
            ready_at: 0,
            first_elem_at: 0,
            producer: Producer::Idle,
            readers_until: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankPorts {
    /// Free-from cycles of the two read ports.
    read_free: [Cycle; 2],
    /// Free-from cycle of the single write port.
    write_free: Cycle,
}

const NUM_BANKS: usize = NUM_VECTOR_REGS / VECTOR_BANK_SIZE;

/// Read-port demand per bank for an operand list, deduplicating repeated
/// registers (a register read twice by one instruction needs one port).
/// Shared by [`VectorRegFile::can_issue`] and
/// [`VectorRegFile::issue_ready_at`], whose answers must stay exactly
/// consistent for the fast-forward wake times to be sound.
fn read_port_need(reads: &[VectorReg]) -> [usize; NUM_BANKS] {
    let mut need = [0usize; NUM_BANKS];
    let mut seen: [Option<VectorReg>; 2] = [None, None];
    for &r in reads {
        if seen.contains(&Some(r)) {
            continue;
        }
        if seen[0].is_none() {
            seen[0] = Some(r);
        } else {
            seen[1] = Some(r);
        }
        need[r.bank()] += 1;
    }
    need
}

/// The eight-register vector register file.
///
/// Tracks read-after-write (with chaining), write-after-write and
/// write-after-read hazards, plus the structural 2R/1W port limits of each
/// two-register bank.
#[derive(Debug, Clone)]
pub struct VectorRegFile {
    regs: [VRegState; NUM_VECTOR_REGS],
    banks: [BankPorts; NUM_BANKS],
    check_ports: bool,
}

impl VectorRegFile {
    /// Creates a register file with all registers idle and ready.
    ///
    /// Both engines build their register file from `params` at every
    /// construction and reset, so this is where a run's startup delays
    /// are checked, before its first tick.
    ///
    /// # Panics
    ///
    /// Panics if `fu_startup` or `qmov_startup` exceeds
    /// [`MAX_DELAY`]; decoding rejects both.
    pub fn new(params: &UarchParams) -> VectorRegFile {
        for (name, startup) in [
            ("fu_startup", params.fu_startup),
            ("qmov_startup", params.qmov_startup),
        ] {
            assert!(
                startup <= MAX_DELAY,
                "{name} {startup} exceeds MAX_DELAY ({MAX_DELAY})"
            );
        }
        VectorRegFile {
            regs: [VRegState::default(); NUM_VECTOR_REGS],
            banks: [BankPorts::default(); NUM_BANKS],
            check_ports: params.check_bank_ports,
        }
    }

    /// The earliest cycle at which `reg` may begin being *read* by a
    /// consumer operating under `policy`.
    ///
    /// If the in-flight producer is chainable the consumer may start one
    /// cycle after the first element lands; otherwise it must wait for the
    /// register to be complete.
    pub fn read_ready_at(&self, reg: VectorReg, policy: ChainPolicy) -> Cycle {
        let st = &self.regs[reg.index()];
        if policy.allows(st.producer) {
            // Chained consumers run element-synchronous with the producer
            // at one element per cycle, one cycle behind.
            st.first_elem_at.saturating_add(1).min(st.ready_at)
        } else {
            st.ready_at
        }
    }

    /// The earliest cycle at which `reg` may be *overwritten*: its current
    /// write must have completed (WAW) and all in-flight readers drained
    /// (WAR).
    pub fn write_ready_at(&self, reg: VectorReg) -> Cycle {
        let st = &self.regs[reg.index()];
        st.ready_at.max(st.readers_until)
    }

    /// Whether all of `reads` are readable and `write` (if any) writable at
    /// cycle `now`, including bank port availability for an operation that
    /// would stream for `duration` cycles.
    pub fn can_issue(
        &self,
        now: Cycle,
        reads: &[VectorReg],
        write: Option<VectorReg>,
        policy: ChainPolicy,
    ) -> bool {
        for &r in reads {
            if self.read_ready_at(r, policy) > now {
                return false;
            }
        }
        if let Some(w) = write {
            if self.write_ready_at(w) > now {
                return false;
            }
        }
        if self.check_ports {
            for (bank, &n) in read_port_need(reads).iter().enumerate() {
                let free = self.banks[bank]
                    .read_free
                    .iter()
                    .filter(|&&f| f <= now)
                    .count();
                if free < n {
                    return false;
                }
            }
            if let Some(w) = write {
                if self.banks[w.bank()].write_free > now {
                    return false;
                }
            }
        }
        true
    }

    /// The earliest cycle at which [`can_issue`](VectorRegFile::can_issue)
    /// with the same operands would pass, **assuming no further activity
    /// begins in the meantime** — the register file's contribution to a
    /// stalled instruction's precise wake time. Every gating condition is
    /// monotone while the machine makes no progress (operands only become
    /// ready, ports only free), so the earliest issue cycle is the max
    /// over the individual gates' flip times; `can_issue(t, ..)` is true
    /// at exactly `t >= issue_ready_at(..)` until something else issues.
    pub fn issue_ready_at(
        &self,
        reads: &[VectorReg],
        write: Option<VectorReg>,
        policy: ChainPolicy,
    ) -> Cycle {
        let mut at: Cycle = 0;
        for &r in reads {
            at = at.max(self.read_ready_at(r, policy));
        }
        if let Some(w) = write {
            at = at.max(self.write_ready_at(w));
        }
        if self.check_ports {
            // The n-th port of a bank is available at the n-th smallest
            // free time.
            for (bank, &n) in read_port_need(reads).iter().enumerate() {
                let [a, b] = self.banks[bank].read_free;
                at = at.max(match n {
                    0 => 0,
                    1 => a.min(b),
                    _ => a.max(b),
                });
            }
            if let Some(w) = write {
                at = at.max(self.banks[w.bank()].write_free);
            }
        }
        at
    }

    /// Marks `reads` as being streamed for `duration` cycles starting at
    /// `now`, allocating bank read ports.
    ///
    /// # Panics
    ///
    /// Panics if a needed read port is unavailable (callers must gate on
    /// [`VectorRegFile::can_issue`]).
    pub fn begin_reads(&mut self, now: Cycle, reads: &[VectorReg], duration: u64) {
        let until = now + duration;
        let mut seen: [Option<VectorReg>; 2] = [None, None];
        for &r in reads {
            if seen.contains(&Some(r)) {
                continue;
            }
            if seen[0].is_none() {
                seen[0] = Some(r);
            } else {
                seen[1] = Some(r);
            }
            self.regs[r.index()].readers_until = self.regs[r.index()].readers_until.max(until);
            if self.check_ports {
                let bank = &mut self.banks[r.bank()];
                let port = bank
                    .read_free
                    .iter_mut()
                    .find(|f| **f <= now)
                    .expect("read port unavailable; call can_issue first");
                *port = until;
            }
        }
    }

    /// Marks `reg` as being written: first element at `first_elem_at`,
    /// complete at `ready_at`, by a unit of kind `producer`. Allocates the
    /// bank write port from `now` until `ready_at`.
    ///
    /// # Panics
    ///
    /// Panics if the write port is unavailable.
    pub fn begin_write(
        &mut self,
        reg: VectorReg,
        now: Cycle,
        first_elem_at: Cycle,
        ready_at: Cycle,
        producer: Producer,
    ) {
        debug_assert!(first_elem_at <= ready_at);
        let st = &mut self.regs[reg.index()];
        st.first_elem_at = first_elem_at;
        st.ready_at = ready_at;
        st.producer = producer;
        if self.check_ports {
            let bank = &mut self.banks[reg.bank()];
            assert!(
                bank.write_free <= now,
                "write port of bank {} unavailable; call can_issue first",
                reg.bank()
            );
            bank.write_free = ready_at;
        }
    }

    /// The cycle at which `reg` is fully written.
    pub fn ready_at(&self, reg: VectorReg) -> Cycle {
        self.regs[reg.index()].ready_at
    }

    /// The producer kind of the in-flight (or last) write to `reg`.
    pub fn producer(&self, reg: VectorReg) -> Producer {
        self.regs[reg.index()].producer
    }

    /// The earliest cycle by which every register is idle: no pending
    /// write and no in-flight reader. Used to detect end of execution.
    pub fn quiesce_at(&self) -> Cycle {
        self.regs
            .iter()
            .map(|st| st.ready_at.max(st.readers_until))
            .max()
            .unwrap_or(0)
    }

    /// The earliest cycle strictly after `now` at which any hazard or
    /// structural condition tracked by the register file can change: a
    /// chaining window opening (`first_elem_at + 1`), a write completing,
    /// a reader draining, or a bank port freeing. `None` when the file is
    /// fully quiet.
    ///
    /// The engines' fast-forward no longer needs this global scan — they
    /// ask [`issue_ready_at`](VectorRegFile::issue_ready_at) for the
    /// stalled instruction's specific operands instead — but it remains
    /// the right probe for custom processors that cannot enumerate their
    /// gates.
    pub fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        let mut next = dva_isa::EarliestAfter::new(now);
        for st in &self.regs {
            if st.ready_at.max(st.readers_until) <= now {
                continue; // quiet: every window it could open is past
            }
            // The chaining window opens at first_elem_at + 1, clamped to
            // ready_at exactly as in `read_ready_at`.
            next.consider(st.first_elem_at.saturating_add(1).min(st.ready_at));
            next.consider(st.ready_at);
            next.consider(st.readers_until);
        }
        for bank in &self.banks {
            next.consider(bank.write_free);
            for &port in &bank.read_free {
                next.consider(port);
            }
        }
        next.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regfile() -> VectorRegFile {
        VectorRegFile::new(&UarchParams::default())
    }

    #[test]
    fn chainable_producer_opens_early_read_window() {
        let mut rf = regfile();
        rf.begin_write(VectorReg::V0, 0, 4, 68, Producer::FunctionalUnit);
        let policy = ChainPolicy::reference();
        assert_eq!(rf.read_ready_at(VectorReg::V0, policy), 5);
        // Memory loads are not chainable under the same policy.
        rf.begin_write(VectorReg::V2, 0, 10, 74, Producer::MemoryLoad);
        assert_eq!(rf.read_ready_at(VectorReg::V2, policy), 74);
    }

    #[test]
    fn waw_and_war_block_overwrites() {
        let mut rf = regfile();
        rf.begin_write(VectorReg::V1, 0, 4, 68, Producer::FunctionalUnit);
        assert_eq!(rf.write_ready_at(VectorReg::V1), 68);
        rf.begin_reads(10, &[VectorReg::V3], 50);
        assert_eq!(rf.write_ready_at(VectorReg::V3), 60);
    }

    #[test]
    fn bank_write_port_conflicts_block_issue() {
        let mut rf = regfile();
        // v0 and v1 share bank 0's single write port.
        rf.begin_write(VectorReg::V0, 0, 4, 100, Producer::FunctionalUnit);
        assert!(!rf.can_issue(10, &[], Some(VectorReg::V1), ChainPolicy::reference()));
        // v2 lives in bank 1 and is fine.
        assert!(rf.can_issue(10, &[], Some(VectorReg::V2), ChainPolicy::reference()));
    }

    #[test]
    fn bank_read_ports_allow_two_concurrent_readers() {
        let mut rf = regfile();
        rf.begin_reads(0, &[VectorReg::V0], 100);
        assert!(rf.can_issue(0, &[VectorReg::V1], None, ChainPolicy::reference()));
        rf.begin_reads(0, &[VectorReg::V1], 100);
        // Both ports of bank 0 are now streaming.
        assert!(!rf.can_issue(50, &[VectorReg::V0], None, ChainPolicy::reference()));
        // Ports free at cycle 100.
        assert!(rf.can_issue(100, &[VectorReg::V0], None, ChainPolicy::reference()));
    }

    #[test]
    fn duplicate_source_needs_one_port() {
        let mut rf = regfile();
        rf.begin_reads(0, &[VectorReg::V0], 100);
        // vadd v2, v1, v1 needs only the second port of bank 0.
        assert!(rf.can_issue(
            0,
            &[VectorReg::V1, VectorReg::V1],
            Some(VectorReg::V2),
            ChainPolicy::reference()
        ));
    }

    #[test]
    fn port_checks_can_be_disabled() {
        let params = UarchParams {
            check_bank_ports: false,
            ..UarchParams::default()
        };
        let mut rf = VectorRegFile::new(&params);
        rf.begin_write(VectorReg::V0, 0, 4, 100, Producer::FunctionalUnit);
        // Full crossbar: the shared write port no longer matters.
        assert!(rf.can_issue(10, &[], Some(VectorReg::V1), ChainPolicy::reference()));
    }

    #[test]
    fn next_event_covers_chain_window_completion_and_readers() {
        let mut rf = regfile();
        assert_eq!(rf.next_event_after(0), None);
        rf.begin_write(VectorReg::V0, 0, 4, 68, Producer::FunctionalUnit);
        // Chain window opens at first_elem_at + 1 = 5.
        assert_eq!(rf.next_event_after(0), Some(5));
        // Past the window: the next change is the write completing (the
        // bank write port frees at the same cycle).
        assert_eq!(rf.next_event_after(5), Some(68));
        rf.begin_reads(0, &[VectorReg::V4], 30);
        assert_eq!(rf.next_event_after(5), Some(30));
        assert_eq!(rf.next_event_after(68), None);
    }

    #[test]
    fn issue_ready_at_is_the_first_cycle_can_issue_passes() {
        let policy = ChainPolicy::reference();
        let mut rf = regfile();
        rf.begin_write(VectorReg::V0, 0, 4, 68, Producer::MemoryLoad); // not chainable
        rf.begin_reads(0, &[VectorReg::V2], 30);
        rf.begin_write(VectorReg::V4, 0, 4, 40, Producer::FunctionalUnit);
        for (reads, write) in [
            (vec![VectorReg::V0], Some(VectorReg::V6)), // RAW on load
            (vec![], Some(VectorReg::V2)),              // WAR on reader
            (vec![VectorReg::V4], None),                // chainable RAW
            (vec![VectorReg::V1], None),                // bank 0 port vs V0 write
            (vec![VectorReg::V0, VectorReg::V4], Some(VectorReg::V2)),
        ] {
            let t = rf.issue_ready_at(&reads, write, policy);
            assert!(
                rf.can_issue(t, &reads, write, policy),
                "reads={reads:?} write={write:?}: not issuable at claimed t={t}"
            );
            if t > 0 {
                assert!(
                    !rf.can_issue(t - 1, &reads, write, policy),
                    "reads={reads:?} write={write:?}: already issuable before t={t}"
                );
            }
        }
    }

    #[test]
    fn quiesce_tracks_latest_activity() {
        let mut rf = regfile();
        assert_eq!(rf.quiesce_at(), 0);
        rf.begin_write(VectorReg::V4, 0, 4, 68, Producer::FunctionalUnit);
        rf.begin_reads(0, &[VectorReg::V5], 90);
        assert_eq!(rf.quiesce_at(), 90);
    }
}
