//! Microarchitecture parameters shared by both simulators.

use crate::regfile::Producer;
use dva_isa::MAX_DELAY;
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};

/// Timing and feature knobs of the vector engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UarchParams {
    /// Functional-unit startup (pipeline depth): cycles from instruction
    /// start to its first result element being written.
    pub fu_startup: u64,
    /// Startup of the QMOV data-movement units of the decoupled machine.
    pub qmov_startup: u64,
    /// Whether to model the 2-read/1-write port restriction of each
    /// two-register bank. The Convex compiler schedules around port
    /// conflicts; disabling the check models a full crossbar.
    pub check_bank_ports: bool,
}

impl Default for UarchParams {
    fn default() -> Self {
        UarchParams {
            fu_startup: 4,
            qmov_startup: 2,
            check_bank_ports: true,
        }
    }
}

impl ToJson for UarchParams {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("fu_startup", &self.fu_startup);
            w.field("qmov_startup", &self.qmov_startup);
            w.field("check_bank_ports", &self.check_bank_ports);
        })
    }
}

impl FromJson for UarchParams {
    fn read_json(r: &mut Reader<'_>) -> Result<UarchParams, JsonError> {
        r.object(|o| {
            Ok(UarchParams {
                fu_startup: o.field_in("fu_startup", 0..=MAX_DELAY)?,
                qmov_startup: o.field_in("qmov_startup", 0..=MAX_DELAY)?,
                check_bank_ports: o.field("check_bank_ports")?,
            })
        })
    }
}

/// Which producers a consumer may chain from.
///
/// The modeled machines implement *fully flexible* chaining between
/// functional units and from functional units to the store unit, but never
/// chain memory loads into functional units (paper, Section 2.1: neither
/// the Convex C34 nor the Cray-2/3 chain loads, because memory may deliver
/// elements out of order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainPolicy {
    /// Chaining from a functional-unit producer.
    pub from_fu: bool,
    /// Chaining from a QMOV data-movement unit (decoupled machine only).
    pub from_qmov: bool,
    /// Chaining from a memory load.
    pub from_memory: bool,
}

impl ChainPolicy {
    /// The reference architecture's policy: chain from FUs, never from
    /// memory. (QMOV units do not exist on the reference machine; the flag
    /// is irrelevant there.)
    pub fn reference() -> ChainPolicy {
        ChainPolicy {
            from_fu: true,
            from_qmov: true,
            from_memory: false,
        }
    }

    /// A policy with no chaining at all, for ablation studies.
    pub fn none() -> ChainPolicy {
        ChainPolicy {
            from_fu: false,
            from_qmov: false,
            from_memory: false,
        }
    }

    /// Whether a register written by `producer` may be chained from.
    pub fn allows(&self, producer: Producer) -> bool {
        match producer {
            Producer::Idle => true,
            Producer::FunctionalUnit => self.from_fu,
            Producer::Qmov => self.from_qmov,
            Producer::MemoryLoad => self.from_memory,
        }
    }
}

impl Default for ChainPolicy {
    fn default() -> Self {
        ChainPolicy::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_policy_blocks_memory_chaining_only() {
        let p = ChainPolicy::reference();
        assert!(p.allows(Producer::FunctionalUnit));
        assert!(p.allows(Producer::Qmov));
        assert!(p.allows(Producer::Idle));
        assert!(!p.allows(Producer::MemoryLoad));
    }

    #[test]
    fn uarch_params_round_trip_through_json() {
        let params = UarchParams {
            fu_startup: 7,
            qmov_startup: 1,
            check_bank_ports: false,
        };
        assert_eq!(UarchParams::from_json(&params.to_json()).unwrap(), params);
    }

    fn startup_error(field: &str, value: u64) -> String {
        let line = if field == "fu_startup" {
            format!(r#"{{"fu_startup":{value},"qmov_startup":2,"check_bank_ports":true}}"#)
        } else {
            format!(r#"{{"fu_startup":4,"qmov_startup":{value},"check_bank_ports":true}}"#)
        };
        UarchParams::parse_json(&line).unwrap_err().0
    }

    #[test]
    fn decoding_rejects_an_fu_startup_outside_the_bound() {
        for hostile in [MAX_DELAY + 1, 1 << 62, i64::MAX as u64] {
            assert_eq!(
                startup_error("fu_startup", hostile),
                format!("field `fu_startup` = {hostile} outside 0..={MAX_DELAY}")
            );
        }
    }

    #[test]
    fn decoding_rejects_a_qmov_startup_outside_the_bound() {
        for hostile in [MAX_DELAY + 1, 1 << 62, i64::MAX as u64] {
            assert_eq!(
                startup_error("qmov_startup", hostile),
                format!("field `qmov_startup` = {hostile} outside 0..={MAX_DELAY}")
            );
        }
        let widest = UarchParams {
            fu_startup: MAX_DELAY,
            qmov_startup: MAX_DELAY,
            check_bank_ports: true,
        };
        assert_eq!(UarchParams::from_json(&widest.to_json()).unwrap(), widest);
    }

    #[test]
    fn none_policy_blocks_everything_but_idle() {
        let p = ChainPolicy::none();
        assert!(p.allows(Producer::Idle));
        assert!(!p.allows(Producer::FunctionalUnit));
        assert!(!p.allows(Producer::Qmov));
        assert!(!p.allows(Producer::MemoryLoad));
    }
}
