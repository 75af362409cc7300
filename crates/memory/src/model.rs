//! The pluggable memory-model layer: [`MemoryParams`], the
//! [`MemoryModelKind`] axis, and the [`MemoryModel`] trait both engines
//! issue their accesses through.

use crate::backends::{BankedMemory, FlatMemory, MultiPortMemory};
use crate::bus::AddressBus;
use crate::cache::{CacheAccess, ScalarCache, ScalarCacheParams};
use dva_isa::{Cycle, Stride, VectorLength};
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_metrics::Traffic;
use std::fmt;

/// Which main-memory timing backend a machine runs against.
///
/// The paper's model (Section 4.2) is [`Flat`](MemoryModelKind::Flat):
/// one address bus, one uniform latency `L`. The other kinds generalize
/// exactly the two assumptions decoupling leans on — that a vector
/// access always streams at one element per cycle, and that there is
/// exactly one memory port to fight over:
///
/// * [`Banked`](MemoryModelKind::Banked) interleaves main memory over
///   `banks` banks; a non-unit stride can revisit a bank before it is
///   ready and throttle the stream (see [`BankedMemory`] for the exact
///   rule).
/// * [`MultiPort`](MemoryModelKind::MultiPort) provides `ports`
///   independent address buses; accesses arbitrate for the first free
///   one (see [`MultiPortMemory`]).
///
/// # Examples
///
/// ```
/// use dva_memory::MemoryModelKind;
/// assert_eq!(MemoryModelKind::default(), MemoryModelKind::Flat);
/// assert_eq!(MemoryModelKind::Flat.label(), "flat");
/// assert_eq!(MemoryModelKind::Banked { banks: 8, bank_busy: 8 }.label(), "banked8x8");
/// assert_eq!(MemoryModelKind::MultiPort { ports: 2 }.label(), "2-port");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModelKind {
    /// The paper's single-ported, conflict-free memory: a vector access
    /// of length `VL` holds the one address bus for exactly `VL` cycles.
    Flat,
    /// Interleaved main memory: `banks` banks, each able to accept a new
    /// access only every `bank_busy` cycles. Stride-aware — unit strides
    /// stream at full speed, strides that are a multiple of the bank
    /// count serialize on one bank.
    Banked {
        /// Number of interleaved banks (> 0).
        banks: u32,
        /// Cycles a bank is busy after accepting an access (> 0).
        bank_busy: u64,
    },
    /// `ports` independent address buses; loads and stores arbitrate for
    /// the first free one.
    MultiPort {
        /// Number of address ports (> 0).
        ports: u32,
    },
}

impl Default for MemoryModelKind {
    /// The paper's flat model.
    fn default() -> Self {
        MemoryModelKind::Flat
    }
}

impl MemoryModelKind {
    /// A short display label, used as the memory axis of sweep tables:
    /// `flat`, `banked8x8`, `2-port`.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for MemoryModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryModelKind::Flat => write!(f, "flat"),
            MemoryModelKind::Banked { banks, bank_busy } => {
                write!(f, "banked{banks}x{bank_busy}")
            }
            MemoryModelKind::MultiPort { ports } => write!(f, "{ports}-port"),
        }
    }
}

/// Memory system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryParams {
    /// Main memory latency `L` in cycles: the delay from an address issuing
    /// on the bus to the first data element arriving at the processor. The
    /// paper sweeps this from 1 to 100.
    pub latency: u64,
    /// Scalar cache geometry.
    pub cache: ScalarCacheParams,
    /// Which timing backend [`MemoryParams::build`] instantiates.
    pub model: MemoryModelKind,
}

impl MemoryParams {
    /// Parameters with the given latency, the default cache and the flat
    /// memory model.
    pub fn with_latency(latency: u64) -> MemoryParams {
        MemoryParams {
            latency,
            cache: ScalarCacheParams::default(),
            model: MemoryModelKind::Flat,
        }
    }

    /// These parameters with the memory model replaced.
    #[must_use]
    pub fn with_model(mut self, model: MemoryModelKind) -> MemoryParams {
        self.model = model;
        self
    }

    /// Instantiates the configured backend.
    ///
    /// ```
    /// use dva_memory::{MemoryModelKind, MemoryParams};
    /// let flat = MemoryParams::with_latency(30).build();
    /// assert_eq!(flat.ports().len(), 1);
    /// let two = MemoryParams::with_latency(30)
    ///     .with_model(MemoryModelKind::MultiPort { ports: 2 })
    ///     .build();
    /// assert_eq!(two.ports().len(), 2);
    /// ```
    pub fn build(&self) -> Box<dyn MemoryModel> {
        match self.model {
            MemoryModelKind::Flat => Box::new(FlatMemory::new(*self)),
            MemoryModelKind::Banked { banks, bank_busy } => {
                Box::new(BankedMemory::new(*self, banks, bank_busy))
            }
            MemoryModelKind::MultiPort { ports } => Box::new(MultiPortMemory::new(*self, ports)),
        }
    }
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams::with_latency(1)
    }
}

impl ToJson for MemoryModelKind {
    /// A tagged object: `{"kind":"flat"}`, `{"kind":"banked",...}` or
    /// `{"kind":"multiport",...}`.
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| match self {
            MemoryModelKind::Flat => w.field("kind", "flat"),
            MemoryModelKind::Banked { banks, bank_busy } => {
                w.field("kind", "banked");
                w.field("banks", banks);
                w.field("bank_busy", bank_busy);
            }
            MemoryModelKind::MultiPort { ports } => {
                w.field("kind", "multiport");
                w.field("ports", ports);
            }
        })
    }
}

impl FromJson for MemoryModelKind {
    fn read_json(r: &mut Reader<'_>) -> Result<MemoryModelKind, JsonError> {
        r.object(|o| match &*o.field_with("kind", Reader::str)? {
            "flat" => Ok(MemoryModelKind::Flat),
            "banked" => Ok(MemoryModelKind::Banked {
                banks: u32::try_from(o.field::<u64>("banks")?)
                    .map_err(|_| JsonError::msg("bank count out of range"))?,
                bank_busy: o.field("bank_busy")?,
            }),
            "multiport" => Ok(MemoryModelKind::MultiPort {
                ports: u32::try_from(o.field::<u64>("ports")?)
                    .map_err(|_| JsonError::msg("port count out of range"))?,
            }),
            other => Err(JsonError(format!("unknown memory model kind `{other}`"))),
        })
    }
}

impl ToJson for ScalarCacheParams {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("lines", &self.lines);
            w.field("line_bytes", &self.line_bytes);
        })
    }
}

impl FromJson for ScalarCacheParams {
    fn read_json(r: &mut Reader<'_>) -> Result<ScalarCacheParams, JsonError> {
        r.object(|o| {
            Ok(ScalarCacheParams {
                lines: o.field("lines")?,
                line_bytes: o.field("line_bytes")?,
            })
        })
    }
}

impl ToJson for MemoryParams {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("latency", &self.latency);
            w.field("cache", &self.cache);
            w.field("model", &self.model);
        })
    }
}

impl FromJson for MemoryParams {
    fn read_json(r: &mut Reader<'_>) -> Result<MemoryParams, JsonError> {
        r.object(|o| {
            Ok(MemoryParams {
                latency: o.field("latency")?,
                cache: o.field("cache")?,
                model: o.field("model")?,
            })
        })
    }
}

/// Timing of an issued load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadIssue {
    /// When the address port the access won becomes free again.
    pub port_free_at: Cycle,
    /// When the first element reaches the processor.
    pub data_first_at: Cycle,
    /// When the last element has arrived (a vector register or AVDQ slot is
    /// complete and consumable — the model never chains off memory).
    pub data_complete_at: Cycle,
}

/// A main-memory timing backend: address-port arbitration, the latency
/// model, the scalar cache and traffic accounting.
///
/// Both the reference and the decoupled simulators issue every access
/// through this trait, so their memory timing rules are identical by
/// construction — and swapping the backend changes *both* machines'
/// memory behavior at once. Backends are built from
/// [`MemoryParams::build`].
///
/// The trait deliberately mirrors what the engines need and nothing
/// more: issue hooks ([`issue_vector_load`](MemoryModel::issue_vector_load),
/// [`issue_vector_store`](MemoryModel::issue_vector_store),
/// [`scalar_load`](MemoryModel::scalar_load),
/// [`scalar_store`](MemoryModel::scalar_store)), non-mutating probes
/// ([`port_free`](MemoryModel::port_free),
/// [`probe_scalar`](MemoryModel::probe_scalar)), the next-event hooks
/// fast-forward relies on ([`next_free_at`](MemoryModel::next_free_at),
/// [`quiesce_at`](MemoryModel::quiesce_at)), and the measurement hooks
/// ([`traffic`](MemoryModel::traffic), [`cache`](MemoryModel::cache),
/// [`ports`](MemoryModel::ports)).
pub trait MemoryModel: fmt::Debug + Send {
    /// The configured parameters.
    fn params(&self) -> MemoryParams;

    /// Whether a new access can issue at `now` (at least one address
    /// port is free).
    fn port_free(&self, now: Cycle) -> bool;

    /// Whether any address port is mid-transfer at `now` (the `LD` flag
    /// of the paper's Figure 1 state tuple).
    fn busy(&self, now: Cycle) -> bool;

    /// The earliest cycle strictly after `now` at which any address
    /// port frees — the memory system's contribution to the engines'
    /// next-event (fast-forward) computation, or `None` when every port
    /// is already quiet. Every port freeing is an event: it can flip
    /// both the issue gate ([`port_free`](MemoryModel::port_free)) and
    /// the sampled busy flag ([`busy`](MemoryModel::busy)), and the two
    /// flip at *different* ports' free times on a multi-ported memory.
    fn next_free_at(&self, now: Cycle) -> Option<Cycle>;

    /// The cycle at which *every* address port is free — the memory
    /// system's contribution to the engines' post-completion drain.
    fn quiesce_at(&self) -> Cycle;

    /// Issues a vector load of length `vl` at cycle `now`. `stride` is
    /// the access's element stride, `None` for indexed (gather)
    /// accesses; only stride-aware backends read it.
    ///
    /// # Panics
    ///
    /// Panics if no port is free at `now`; callers gate on
    /// [`MemoryModel::port_free`].
    fn issue_vector_load(
        &mut self,
        now: Cycle,
        vl: VectorLength,
        stride: Option<Stride>,
    ) -> LoadIssue;

    /// Issues a vector store of length `vl` at cycle `now`, returning
    /// when its port frees. Stores never expose memory latency to the
    /// processor (paper, Section 4.2).
    ///
    /// # Panics
    ///
    /// Panics if no port is free at `now`.
    fn issue_vector_store(&mut self, now: Cycle, vl: VectorLength, stride: Option<Stride>)
        -> Cycle;

    /// Checks whether a scalar load would hit in the cache without
    /// updating any state.
    fn probe_scalar(&self, addr: u64) -> CacheAccess;

    /// Performs a scalar load at cycle `now`.
    ///
    /// On a hit the access completes next cycle without touching any
    /// port. On a miss a port is held for one cycle and the data arrives
    /// after the memory latency.
    ///
    /// # Panics
    ///
    /// Panics if the access misses while no port is free; callers must
    /// gate on [`MemoryModel::port_free`] when
    /// [`MemoryModel::probe_scalar`] reports a miss.
    fn scalar_load(&mut self, now: Cycle, addr: u64) -> LoadIssue;

    /// Performs a scalar store at cycle `now` (write-through: always one
    /// port cycle of traffic), returning when its port frees.
    ///
    /// # Panics
    ///
    /// Panics if no port is free at `now`.
    fn scalar_store(&mut self, now: Cycle, addr: u64) -> Cycle;

    /// Records a vector load satisfied entirely by the store→load bypass:
    /// no port usage, no memory traffic.
    fn record_bypass(&mut self, vl: VectorLength);

    /// Traffic counters accumulated so far.
    fn traffic(&self) -> Traffic;

    /// The scalar cache (for hit-rate reporting).
    fn cache(&self) -> &ScalarCache;

    /// The address ports, in arbitration order (for utilization
    /// reporting; flat and banked memories have exactly one).
    fn ports(&self) -> &[AddressBus];

    /// Mean port utilization over `total` elapsed cycles (0..=1) — for a
    /// single-ported backend, exactly the old address-bus utilization.
    fn utilization(&self, total: Cycle) -> f64 {
        let ports = self.ports();
        if ports.is_empty() {
            0.0
        } else {
            ports.iter().map(|p| p.utilization(total)).sum::<f64>() / ports.len() as f64
        }
    }

    /// Per-port utilization over `total` elapsed cycles, in arbitration
    /// order.
    fn port_utilizations(&self, total: Cycle) -> Vec<f64> {
        self.ports().iter().map(|p| p.utilization(total)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(MemoryModelKind::Flat.label(), "flat");
        assert_eq!(
            MemoryModelKind::Banked {
                banks: 16,
                bank_busy: 4
            }
            .label(),
            "banked16x4"
        );
        assert_eq!(MemoryModelKind::MultiPort { ports: 4 }.label(), "4-port");
    }

    #[test]
    fn memory_configuration_round_trips_through_json() {
        for model in [
            MemoryModelKind::Flat,
            MemoryModelKind::Banked {
                banks: 16,
                bank_busy: 4,
            },
            MemoryModelKind::MultiPort { ports: 3 },
        ] {
            assert_eq!(MemoryModelKind::from_json(&model.to_json()).unwrap(), model);
            let params = MemoryParams::with_latency(70).with_model(model);
            assert_eq!(MemoryParams::from_json(&params.to_json()).unwrap(), params);
        }
        assert_eq!(
            MemoryModelKind::parse_json(r#"{"kind":"warp"}"#)
                .unwrap_err()
                .0,
            "unknown memory model kind `warp`"
        );
    }

    #[test]
    fn params_default_to_the_flat_model() {
        assert_eq!(MemoryParams::default().model, MemoryModelKind::Flat);
        assert_eq!(MemoryParams::with_latency(50).model, MemoryModelKind::Flat);
    }

    #[test]
    fn build_dispatches_on_the_kind() {
        let banked = MemoryParams::with_latency(1).with_model(MemoryModelKind::Banked {
            banks: 8,
            bank_busy: 8,
        });
        assert_eq!(banked.build().ports().len(), 1);
        let multi =
            MemoryParams::with_latency(1).with_model(MemoryModelKind::MultiPort { ports: 3 });
        assert_eq!(multi.build().ports().len(), 3);
    }
}
