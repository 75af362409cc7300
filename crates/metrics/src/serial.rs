//! Stable JSON forms of the metric types.
//!
//! These impls define the *wire and disk format* of every measurement —
//! the sweep service's result cache and protocol are built on them, so
//! the field names are a compatibility surface. The golden-format test
//! in `dva-sim-api` pins the rendered bytes; changing a field here must
//! go together with a bump of `dva_engine::ENGINE_VERSION`.

use crate::{CacheStats, Histogram, StateTracker, Traffic};
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};

impl ToJson for StateTracker {
    /// The eight per-state cycle counts, in [`crate::UnitState::index`]
    /// order.
    fn write_json(&self, w: &mut Writer<'_>) {
        self.counts().as_slice().write_json(w);
    }
}

impl FromJson for StateTracker {
    fn read_json(r: &mut Reader<'_>) -> Result<StateTracker, JsonError> {
        let mut counts = [0u64; 8];
        let mut len = 0;
        r.elements(|r| {
            let count = r.u64()?;
            if let Some(slot) = counts.get_mut(len) {
                *slot = count;
            }
            len += 1;
            Ok(())
        })?;
        if len != counts.len() {
            return Err(JsonError::msg("state tracker needs exactly 8 counts"));
        }
        Ok(StateTracker::from_counts(counts))
    }
}

impl ToJson for Traffic {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("vector_load_elems", &self.vector_load_elems);
            w.field("vector_store_elems", &self.vector_store_elems);
            w.field("scalar_load_words", &self.scalar_load_words);
            w.field("scalar_store_words", &self.scalar_store_words);
            w.field("bypassed_elems", &self.bypassed_elems);
            w.field("bypassed_loads", &self.bypassed_loads);
        })
    }
}

impl FromJson for Traffic {
    fn read_json(r: &mut Reader<'_>) -> Result<Traffic, JsonError> {
        r.object(|o| {
            Ok(Traffic {
                vector_load_elems: o.field("vector_load_elems")?,
                vector_store_elems: o.field("vector_store_elems")?,
                scalar_load_words: o.field("scalar_load_words")?,
                scalar_store_words: o.field("scalar_store_words")?,
                bypassed_elems: o.field("bypassed_elems")?,
                bypassed_loads: o.field("bypassed_loads")?,
            })
        })
    }
}

impl ToJson for CacheStats {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("load_hits", &self.load_hits);
            w.field("load_misses", &self.load_misses);
            w.field("store_hits", &self.store_hits);
            w.field("store_misses", &self.store_misses);
        })
    }
}

impl FromJson for CacheStats {
    fn read_json(r: &mut Reader<'_>) -> Result<CacheStats, JsonError> {
        r.object(|o| {
            Ok(CacheStats {
                load_hits: o.field("load_hits")?,
                load_misses: o.field("load_misses")?,
                store_hits: o.field("store_hits")?,
                store_misses: o.field("store_misses")?,
            })
        })
    }
}

impl ToJson for Histogram {
    /// Buckets plus the overflow count; the bucket vector's length is the
    /// configured capacity, so the shape round-trips exactly.
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("buckets", self.buckets());
            w.field("overflow", &self.overflow());
        })
    }
}

impl FromJson for Histogram {
    fn read_json(r: &mut Reader<'_>) -> Result<Histogram, JsonError> {
        r.object(|o| {
            let buckets: Vec<u64> = o.field("buckets")?;
            if buckets.is_empty() {
                return Err(JsonError::msg("histogram needs at least one bucket"));
            }
            Ok(Histogram::from_parts(buckets, o.field("overflow")?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitState;
    use dva_json::Json;

    #[test]
    fn state_tracker_round_trips() {
        let mut t = StateTracker::new();
        t.add(UnitState::FU2 | UnitState::LD, 7);
        t.add(UnitState::empty(), 3);
        let back = StateTracker::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_json().render(), t.to_json().render());
    }

    #[test]
    fn traffic_and_cache_round_trip() {
        let traffic = Traffic {
            vector_load_elems: 1,
            vector_store_elems: 2,
            scalar_load_words: 3,
            scalar_store_words: 4,
            bypassed_elems: 5,
            bypassed_loads: 6,
        };
        assert_eq!(Traffic::from_json(&traffic.to_json()).unwrap(), traffic);
        let cache = CacheStats {
            load_hits: 9,
            load_misses: 1,
            store_hits: 0,
            store_misses: 2,
        };
        assert_eq!(CacheStats::from_json(&cache.to_json()).unwrap(), cache);
    }

    #[test]
    fn histogram_round_trips_shape_and_overflow() {
        let mut h = Histogram::new(4);
        h.add(2, 10);
        h.add(9, 3); // clamps into the last bucket, counts as overflow
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.buckets().len(), 5);
        assert_eq!(back.overflow(), 3);
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        assert!(StateTracker::from_json(&Json::Array(vec![Json::Int(1)])).is_err());
        assert!(Histogram::from_json(&Json::obj([
            ("buckets", Json::Array(vec![])),
            ("overflow", Json::Int(0)),
        ]))
        .is_err());
        assert!(Traffic::from_json(&Json::obj([("nope", Json::Null)])).is_err());
    }
}
