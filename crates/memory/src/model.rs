//! The memory configuration: [`MemoryParams`], the [`MemoryModelKind`]
//! axis and its two timing factors, and their wire form.

use crate::cache::{ScalarCacheParams, MAX_CACHE_LINES};
use dva_isa::{Cycle, Stride, MAX_DELAY};
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use std::fmt;

/// The most address ports a decoded [`MemoryModelKind::MultiPort`] may
/// have. Every tick scans the ports, so a client's port count is bounded.
pub const MAX_PORTS: u32 = 4;

/// The most banks a decoded [`MemoryModelKind::Banked`] may have.
pub const MAX_BANKS: u32 = 32;

/// The longest bank-busy time a decoded [`MemoryModelKind::Banked`] may
/// have. It bounds the [`slowdown`](MemoryModelKind::slowdown), so a
/// vector access's port hold never overflows.
pub const MAX_BANK_BUSY: u64 = 32;

/// Which main-memory timing model a machine runs against.
///
/// The paper's model (Section 4.2) is [`Flat`](MemoryModelKind::Flat):
/// one address bus, one uniform latency `L`. The other kinds generalize
/// exactly the two assumptions decoupling leans on — that a vector
/// access always streams at one element per cycle, and that there is
/// exactly one memory port to fight over:
///
/// * [`Banked`](MemoryModelKind::Banked) interleaves main memory over
///   `banks` banks; a non-unit stride can revisit a bank before it is
///   ready and throttle the stream (see
///   [`slowdown`](MemoryModelKind::slowdown) for the exact rule).
/// * [`MultiPort`](MemoryModelKind::MultiPort) provides `ports`
///   independent address buses; accesses arbitrate for the first free
///   one (see [`ports`](MemoryModelKind::ports)).
///
/// [`Memory`](crate::Memory) runs every kind by one rule; these two
/// methods are the only places the kinds differ.
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
    /// Interleaved main memory: `banks` banks behind one address bus,
    /// each able to accept a new access only every `bank_busy` cycles.
    /// Stride-aware — unit strides stream at full speed, strides that
    /// are a multiple of the bank count serialize on one bank.
    Banked {
        /// Number of interleaved banks (`1..=`[`MAX_BANKS`]).
        banks: u32,
        /// Cycles a bank is busy after accepting an access
        /// (`1..=`[`MAX_BANK_BUSY`]).
        bank_busy: u64,
    },
    /// `ports` independent address buses in front of a conflict-free
    /// memory; loads and stores arbitrate for the lowest-numbered free
    /// one and then time exactly like the flat model on it.
    MultiPort {
        /// Number of address ports (`1..=`[`MAX_PORTS`]).
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

    /// How many address ports the memory has: `ports` for
    /// [`MultiPort`](MemoryModelKind::MultiPort), one otherwise.
    ///
    /// ```
    /// use dva_memory::MemoryModelKind;
    /// assert_eq!(MemoryModelKind::Flat.ports(), 1);
    /// assert_eq!(MemoryModelKind::Banked { banks: 8, bank_busy: 8 }.ports(), 1);
    /// assert_eq!(MemoryModelKind::MultiPort { ports: 2 }.ports(), 2);
    /// ```
    pub fn ports(&self) -> usize {
        match *self {
            MemoryModelKind::MultiPort { ports } => ports as usize,
            MemoryModelKind::Flat | MemoryModelKind::Banked { .. } => 1,
        }
    }

    /// The per-element issue slowdown an access at `stride` pays (1 =
    /// full speed): a vector access of length `VL` holds its port for
    /// `VL * slowdown` cycles. Only [`Banked`](MemoryModelKind::Banked)
    /// memory is ever slower than 1.
    ///
    /// Consecutive elements of a stride-`s` access map to banks `s` apart
    /// (element addresses are word-interleaved), so the stream cycles over
    /// `banks / gcd(s mod banks, banks)` *distinct* banks and revisits each
    /// one every that-many issue slots. When the revisit interval is
    /// shorter than `bank_busy` the stream throttles to the banks'
    /// aggregate service rate:
    ///
    /// ```text
    /// slowdown = max(1, ceil(bank_busy / distinct_banks))
    /// ```
    ///
    /// Unit strides touch every bank and stream at full speed (whenever
    /// `bank_busy <= banks`); a stride that is a multiple of the bank
    /// count hammers a single bank and pays `bank_busy` cycles per
    /// element — the classic worst case. Indexed (gather/scatter)
    /// accesses carry no stride (`None`) and are modeled conflict-free.
    ///
    /// ```
    /// use dva_memory::MemoryModelKind;
    /// use dva_isa::Stride;
    ///
    /// let banked = MemoryModelKind::Banked { banks: 8, bank_busy: 8 };
    /// assert_eq!(banked.slowdown(Some(Stride::UNIT)), 1);    // 8 distinct banks
    /// assert_eq!(banked.slowdown(Some(Stride::new(2))), 2);  // 4 distinct banks
    /// assert_eq!(banked.slowdown(Some(Stride::new(8))), 8);  // one bank only
    /// assert_eq!(banked.slowdown(Some(Stride::new(-2))), 2); // sign is irrelevant
    /// assert_eq!(banked.slowdown(None), 1);                  // indexed: conflict-free
    /// assert_eq!(MemoryModelKind::Flat.slowdown(Some(Stride::new(8))), 1);
    /// ```
    pub fn slowdown(&self, stride: Option<Stride>) -> u64 {
        let (MemoryModelKind::Banked { banks, bank_busy }, Some(stride)) = (*self, stride) else {
            return 1;
        };
        let banks = u64::from(banks);
        let s = stride.elems().unsigned_abs() % banks;
        let g = if s == 0 { banks } else { gcd(s, banks) };
        let distinct = banks / g;
        bank_busy.div_ceil(distinct).max(1)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryParams {
    /// Main memory latency `L` in cycles: the delay from an address issuing
    /// on the bus to the first data element arriving at the processor. The
    /// paper sweeps this from 1 to 100.
    pub latency: u64,
    /// Scalar cache geometry.
    pub cache: ScalarCacheParams,
    /// Which memory kind [`Memory`](crate::Memory) runs.
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
                // In range, so the casts are exact.
                banks: o.field_in("banks", 1..=u64::from(MAX_BANKS))? as u32,
                bank_busy: o.field_in("bank_busy", 1..=MAX_BANK_BUSY)?,
            }),
            "multiport" => Ok(MemoryModelKind::MultiPort {
                ports: o.field_in("ports", 1..=u64::from(MAX_PORTS))? as u32,
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
    /// Rejects a geometry [`ScalarCache`](crate::ScalarCache) cannot take:
    /// either field not a power of two, or more than [`MAX_CACHE_LINES`]
    /// lines.
    fn read_json(r: &mut Reader<'_>) -> Result<ScalarCacheParams, JsonError> {
        r.object(|o| {
            let params = ScalarCacheParams {
                lines: o.field_in("lines", 1..=MAX_CACHE_LINES)?,
                line_bytes: o.field("line_bytes")?,
            };
            if !params.lines.is_power_of_two() || !params.line_bytes.is_power_of_two() {
                return Err(JsonError::msg("cache geometry must be powers of two"));
            }
            Ok(params)
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
                latency: o.field_in("latency", 0..=MAX_DELAY)?,
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
    fn new_sizes_the_ports_by_kind() {
        let banked = MemoryParams::with_latency(1).with_model(MemoryModelKind::Banked {
            banks: 8,
            bank_busy: 8,
        });
        assert_eq!(crate::Memory::new(banked).ports().len(), 1);
        let multi =
            MemoryParams::with_latency(1).with_model(MemoryModelKind::MultiPort { ports: 3 });
        assert_eq!(crate::Memory::new(multi).ports().len(), 3);
    }

    #[test]
    fn decoding_rejects_a_latency_outside_the_bound() {
        let line = |latency: u64| {
            format!(
                r#"{{"latency":{latency},"cache":{{"lines":512,"line_bytes":32}},"model":{{"kind":"flat"}}}}"#
            )
        };
        for hostile in [MAX_DELAY + 1, 1 << 62, i64::MAX as u64] {
            assert_eq!(
                MemoryParams::parse_json(&line(hostile)).unwrap_err().0,
                format!("field `latency` = {hostile} outside 0..={MAX_DELAY}")
            );
        }
        let widest = MemoryParams::with_latency(MAX_DELAY);
        assert_eq!(MemoryParams::parse_json(&line(MAX_DELAY)).unwrap(), widest);
    }

    #[test]
    fn decoding_rejects_shapes_outside_the_bounds() {
        for (line, message) in [
            (
                r#"{"kind":"multiport","ports":0}"#,
                "field `ports` = 0 outside 1..=4",
            ),
            (
                r#"{"kind":"multiport","ports":5}"#,
                "field `ports` = 5 outside 1..=4",
            ),
            (
                r#"{"kind":"multiport","ports":4294967295}"#,
                "field `ports` = 4294967295 outside 1..=4",
            ),
            (
                r#"{"kind":"multiport","ports":4294967296}"#,
                "field `ports` = 4294967296 outside 1..=4",
            ),
            (
                r#"{"kind":"banked","banks":0,"bank_busy":8}"#,
                "field `banks` = 0 outside 1..=32",
            ),
            (
                r#"{"kind":"banked","banks":33,"bank_busy":8}"#,
                "field `banks` = 33 outside 1..=32",
            ),
            (
                r#"{"kind":"banked","banks":8,"bank_busy":0}"#,
                "field `bank_busy` = 0 outside 1..=32",
            ),
            (
                r#"{"kind":"banked","banks":8,"bank_busy":1099511627776}"#,
                "field `bank_busy` = 1099511627776 outside 1..=32",
            ),
        ] {
            assert_eq!(MemoryModelKind::parse_json(line).unwrap_err().0, message);
        }
        for (line, message) in [
            (
                r#"{"lines":1024,"line_bytes":32}"#,
                "field `lines` = 1024 outside 1..=512",
            ),
            (
                r#"{"lines":1099511627776,"line_bytes":32}"#,
                "field `lines` = 1099511627776 outside 1..=512",
            ),
            (
                r#"{"lines":0,"line_bytes":32}"#,
                "field `lines` = 0 outside 1..=512",
            ),
            (
                r#"{"lines":3,"line_bytes":32}"#,
                "cache geometry must be powers of two",
            ),
            (
                r#"{"lines":512,"line_bytes":24}"#,
                "cache geometry must be powers of two",
            ),
        ] {
            assert_eq!(ScalarCacheParams::parse_json(line).unwrap_err().0, message);
        }
        // The bounds themselves decode.
        let widest = MemoryModelKind::Banked {
            banks: MAX_BANKS,
            bank_busy: MAX_BANK_BUSY,
        };
        assert_eq!(
            MemoryModelKind::from_json(&widest.to_json()).unwrap(),
            widest
        );
        let ports = MemoryModelKind::MultiPort { ports: MAX_PORTS };
        assert_eq!(MemoryModelKind::from_json(&ports.to_json()).unwrap(), ports);
        let cache = ScalarCacheParams::default();
        assert_eq!(cache.lines, MAX_CACHE_LINES);
        assert_eq!(
            ScalarCacheParams::from_json(&cache.to_json()).unwrap(),
            cache
        );
    }
}
