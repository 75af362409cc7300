//! Configuration of the decoupled machine.

use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_memory::MemoryParams;
use dva_uarch::UarchParams;

/// Capacities of the architectural queues (paper, Sections 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
            Ok(QueueConfig {
                instruction_queue: o.field("instruction_queue")?,
                avdq: o.field("avdq")?,
                store_queue: o.field("store_queue")?,
                scalar_store_queue: o.field("scalar_store_queue")?,
                scalar_data_queue: o.field("scalar_data_queue")?,
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

impl DvaConfig {
    /// Starts an ergonomic builder from the paper's base DVA at unit
    /// latency.
    ///
    /// ```
    /// use dva_core::DvaConfig;
    ///
    /// let config = DvaConfig::builder()
    ///     .latency(30)
    ///     .avdq(4)
    ///     .store_queue(8)
    ///     .bypass(true)
    ///     .build();
    /// assert_eq!(config.memory.latency, 30);
    /// assert_eq!(config.queues.avdq, 4);
    /// assert!(config.bypass);
    /// ```
    pub fn builder() -> DvaConfigBuilder {
        DvaConfigBuilder {
            config: DvaConfig::dva(1),
        }
    }
}

/// Builder for [`DvaConfig`], created by [`DvaConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct DvaConfigBuilder {
    config: DvaConfig,
}

impl DvaConfigBuilder {
    /// Sets the main memory latency `L` in cycles.
    pub fn latency(mut self, latency: u64) -> Self {
        self.config.memory.latency = latency;
        self
    }

    /// Replaces the whole memory configuration.
    pub fn memory(mut self, memory: MemoryParams) -> Self {
        self.config.memory = memory;
        self
    }

    /// Replaces the vector engine timing.
    pub fn uarch(mut self, uarch: UarchParams) -> Self {
        self.config.uarch = uarch;
        self
    }

    /// Replaces the whole queue configuration.
    pub fn queues(mut self, queues: QueueConfig) -> Self {
        self.config.queues = queues;
        self
    }

    /// Sets the instruction queue (APIQ/SPIQ/VPIQ) depth.
    pub fn instruction_queue(mut self, slots: usize) -> Self {
        self.config.queues.instruction_queue = slots;
        self
    }

    /// Sets the vector load data queue (AVDQ) depth.
    pub fn avdq(mut self, slots: usize) -> Self {
        self.config.queues.avdq = slots;
        self
    }

    /// Sets the vector store queue (VSAQ/VADQ) depth.
    pub fn store_queue(mut self, slots: usize) -> Self {
        self.config.queues.store_queue = slots;
        self
    }

    /// Sets the scalar store address queue (SSAQ) depth.
    pub fn scalar_store_queue(mut self, slots: usize) -> Self {
        self.config.queues.scalar_store_queue = slots;
        self
    }

    /// Sets the scalar data queue depths (ASDQ, SADQ, SVDQ, VSDQ, SSDQ).
    pub fn scalar_data_queue(mut self, slots: usize) -> Self {
        self.config.queues.scalar_data_queue = slots;
        self
    }

    /// Enables or disables the VADQ→AVDQ store→load bypass unit.
    pub fn bypass(mut self, bypass: bool) -> Self {
        self.config.bypass = bypass;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> DvaConfig {
        self.config
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
    fn builder_mirrors_the_named_constructors() {
        let byp = DvaConfig::builder()
            .latency(30)
            .avdq(4)
            .store_queue(8)
            .bypass(true)
            .build();
        let named = DvaConfig::byp(30, 4, 8);
        assert_eq!(byp.memory, named.memory);
        assert_eq!(byp.queues, named.queues);
        assert_eq!(byp.bypass, named.bypass);

        let dva = DvaConfig::builder().latency(50).build();
        let named = DvaConfig::dva(50);
        assert_eq!(dva.memory, named.memory);
        assert_eq!(dva.queues, named.queues);
        assert!(!dva.bypass);
    }

    #[test]
    fn builder_reaches_every_queue() {
        let c = DvaConfig::builder()
            .instruction_queue(4)
            .scalar_store_queue(2)
            .scalar_data_queue(8)
            .build();
        assert_eq!(c.queues.instruction_queue, 4);
        assert_eq!(c.queues.scalar_store_queue, 2);
        assert_eq!(c.queues.scalar_data_queue, 8);
    }

    #[test]
    fn configurations_round_trip_through_json() {
        for config in [
            DvaConfig::dva(30),
            DvaConfig::byp(100, 4, 8),
            DvaConfig::builder()
                .latency(50)
                .instruction_queue(4)
                .scalar_data_queue(64)
                .build(),
        ] {
            assert_eq!(DvaConfig::from_json(&config.to_json()).unwrap(), config);
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
