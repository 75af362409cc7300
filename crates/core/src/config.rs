//! Configuration of the decoupled machine.

use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_memory::MemoryParams;
use dva_uarch::UarchParams;

/// The largest queue capacity a decoded [`QueueConfig`] may name: each
/// capacity sizes a queue's storage. The paper's largest queue is 512.
pub const MAX_QUEUE_CAPACITY: usize = 512;

/// Capacities of the architectural queues (paper, Sections 4 and 5).
/// Decoding holds each to `1..=`[`MAX_QUEUE_CAPACITY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueConfig {
    /// Instruction queues (APIQ, SPIQ, VPIQ). The paper uses 16: reducing
    /// from 512 to 16 costs under 2%.
    pub instruction_queue: usize,
    /// Vector load data queue (AVDQ) slots, each one full vector register.
    /// The paper's default study uses 256; Section 6 shows 4 suffices.
    pub avdq: usize,
    /// Vector store queue slots (paired address/data: VSAQ + VADQ). The
    /// paper fixes 16 and shows 8 captures almost all of the benefit.
    pub store_queue: usize,
    /// Scalar store address queue (SSAQ) slots.
    pub scalar_store_queue: usize,
    /// Scalar data queues (ASDQ, SADQ, SVDQ, VSDQ, SSDQ).
    pub scalar_data_queue: usize,
}

impl Default for QueueConfig {
    /// The paper's DVA configuration: instruction queues of 16, AVDQ of
    /// 256, store queue of 16, scalar queues of 256.
    fn default() -> Self {
        QueueConfig {
            instruction_queue: 16,
            avdq: 256,
            store_queue: 16,
            scalar_store_queue: 16,
            scalar_data_queue: 256,
        }
    }
}

impl QueueConfig {
    /// The `BYP n/m` configurations of Section 7: load queue of `avdq`
    /// slots, store queue of `store_queue` slots.
    pub fn bypass_config(avdq: usize, store_queue: usize) -> QueueConfig {
        QueueConfig {
            avdq,
            store_queue,
            ..QueueConfig::default()
        }
    }
}

/// Full configuration of the decoupled vector architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DvaConfig {
    /// Vector engine timing (shared with the reference machine).
    pub uarch: UarchParams,
    /// Memory system parameters.
    pub memory: MemoryParams,
    /// Queue capacities.
    pub queues: QueueConfig,
    /// Whether the VADQ→AVDQ store→load bypass unit is present
    /// (Section 7).
    pub bypass: bool,
}

impl DvaConfig {
    /// The paper's base DVA at the given memory latency: 16-entry
    /// instruction queues, 256-slot AVDQ, 16-slot store queue, no bypass.
    pub fn dva(latency: u64) -> DvaConfig {
        DvaConfig {
            uarch: UarchParams::default(),
            memory: MemoryParams::with_latency(latency),
            queues: QueueConfig::default(),
            bypass: false,
        }
    }

    /// A `BYP load/store` configuration of Section 7 at the given latency.
    pub fn byp(latency: u64, load_queue: usize, store_queue: usize) -> DvaConfig {
        DvaConfig {
            uarch: UarchParams::default(),
            memory: MemoryParams::with_latency(latency),
            queues: QueueConfig::bypass_config(load_queue, store_queue),
            bypass: true,
        }
    }
}

impl Default for DvaConfig {
    fn default() -> Self {
        DvaConfig::dva(1)
    }
}

impl ToJson for QueueConfig {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("instruction_queue", &self.instruction_queue);
            w.field("avdq", &self.avdq);
            w.field("store_queue", &self.store_queue);
            w.field("scalar_store_queue", &self.scalar_store_queue);
            w.field("scalar_data_queue", &self.scalar_data_queue);
        })
    }
}

impl FromJson for QueueConfig {
    fn read_json(r: &mut Reader<'_>) -> Result<QueueConfig, JsonError> {
        r.object(|o| {
            let capacities = 1..=MAX_QUEUE_CAPACITY;
            Ok(QueueConfig {
                instruction_queue: o.field_in("instruction_queue", capacities.clone())?,
                avdq: o.field_in("avdq", capacities.clone())?,
                store_queue: o.field_in("store_queue", capacities.clone())?,
                scalar_store_queue: o.field_in("scalar_store_queue", capacities.clone())?,
                scalar_data_queue: o.field_in("scalar_data_queue", capacities)?,
            })
        })
    }
}

impl ToJson for DvaConfig {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("uarch", &self.uarch);
            w.field("memory", &self.memory);
            w.field("queues", &self.queues);
            w.field("bypass", &self.bypass);
        })
    }
}

impl FromJson for DvaConfig {
    fn read_json(r: &mut Reader<'_>) -> Result<DvaConfig, JsonError> {
        r.object(|o| {
            Ok(DvaConfig {
                uarch: o.field("uarch")?,
                memory: o.field("memory")?,
                queues: o.field("queues")?,
                bypass: o.field("bypass")?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_base_configuration() {
        let q = QueueConfig::default();
        assert_eq!(q.instruction_queue, 16);
        assert_eq!(q.avdq, 256);
        assert_eq!(q.store_queue, 16);
        assert!(!DvaConfig::dva(30).bypass);
    }

    #[test]
    fn configurations_round_trip_through_json() {
        for config in [
            DvaConfig::dva(30),
            DvaConfig::byp(100, 4, 8),
            DvaConfig {
                queues: QueueConfig {
                    instruction_queue: 4,
                    scalar_data_queue: 64,
                    ..QueueConfig::default()
                },
                ..DvaConfig::dva(50)
            },
        ] {
            assert_eq!(DvaConfig::from_json(&config.to_json()).unwrap(), config);
        }
    }

    #[test]
    fn decoding_rejects_queue_capacities_outside_the_bound() {
        let fields = [
            "instruction_queue",
            "avdq",
            "store_queue",
            "scalar_store_queue",
            "scalar_data_queue",
        ];
        let widest = QueueConfig {
            instruction_queue: MAX_QUEUE_CAPACITY,
            avdq: MAX_QUEUE_CAPACITY,
            store_queue: MAX_QUEUE_CAPACITY,
            scalar_store_queue: MAX_QUEUE_CAPACITY,
            scalar_data_queue: MAX_QUEUE_CAPACITY,
        };
        assert_eq!(QueueConfig::from_json(&widest.to_json()).unwrap(), widest);
        for hostile in [0, MAX_QUEUE_CAPACITY + 1, 1 << 40] {
            for field in fields {
                let line = fields
                    .map(|f| {
                        let value = if f == field { hostile } else { 16 };
                        format!("\"{f}\":{value}")
                    })
                    .join(",");
                assert_eq!(
                    QueueConfig::parse_json(&format!("{{{line}}}"))
                        .unwrap_err()
                        .0,
                    format!("field `{field}` = {hostile} outside 1..={MAX_QUEUE_CAPACITY}")
                );
            }
        }
    }

    #[test]
    fn byp_configurations_set_both_queues() {
        let c = DvaConfig::byp(1, 4, 8);
        assert!(c.bypass);
        assert_eq!(c.queues.avdq, 4);
        assert_eq!(c.queues.store_queue, 8);
        assert_eq!(c.queues.instruction_queue, 16);
    }
}
