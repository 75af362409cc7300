//! The scalar data cache.
//!
//! In both architectures scalar memory accesses go through a small cache
//! that holds only scalar data; vector accesses bypass it entirely (paper,
//! Section 4.2). The cache is also one of the five resources of the IDEAL
//! lower-bound model.

use dva_metrics::CacheStats;
use std::fmt;

/// The most lines a decoded [`ScalarCacheParams`] may have: the tag
/// store is sized by the line count.
pub const MAX_CACHE_LINES: usize = 512;

/// Configuration of the direct-mapped scalar cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarCacheParams {
    /// Number of cache lines (a power of two; decoding also bounds it by
    /// [`MAX_CACHE_LINES`]).
    pub lines: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl Default for ScalarCacheParams {
    /// A 16 KiB direct-mapped cache with 32-byte lines, in the spirit of
    /// early-1990s vector machines' scalar caches.
    fn default() -> Self {
        ScalarCacheParams {
            lines: 512,
            line_bytes: 32,
        }
    }
}

/// The outcome of a scalar cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present; the access completes in one cycle and does not
    /// use the memory port.
    Hit,
    /// The line was absent; the access must use the memory port and pays
    /// the memory latency.
    Miss,
}

/// A direct-mapped write-through scalar cache model.
///
/// Only tags are modeled — the simulators never need data values, only
/// hit/miss timing.
///
/// # Examples
///
/// ```
/// use dva_memory::{CacheAccess, ScalarCache};
/// let mut cache = ScalarCache::default();
/// assert_eq!(cache.load(0x1000), CacheAccess::Miss);
/// assert_eq!(cache.load(0x1008), CacheAccess::Hit); // same 32-byte line
/// ```
#[derive(Debug, Clone)]
pub struct ScalarCache {
    params: ScalarCacheParams,
    tags: Vec<Option<u64>>,
    stats: CacheStats,
}

impl Default for ScalarCache {
    fn default() -> Self {
        ScalarCache::new(ScalarCacheParams::default())
    }
}

impl ScalarCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless both `lines` and `line_bytes` are non-zero powers of
    /// two.
    pub fn new(params: ScalarCacheParams) -> ScalarCache {
        let mut cache = ScalarCache {
            params,
            tags: Vec::new(),
            stats: CacheStats::default(),
        };
        cache.reset(params);
        cache
    }

    /// Empties the cache and re-arms it with `params`, keeping the tag
    /// storage when it is large enough: afterwards the cache equals
    /// [`ScalarCache::new`]`(params)`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ScalarCache::new`].
    pub fn reset(&mut self, params: ScalarCacheParams) {
        assert!(
            params.lines.is_power_of_two() && params.line_bytes.is_power_of_two(),
            "cache geometry must be powers of two"
        );
        self.params = params;
        self.tags.clear();
        self.tags.resize(params.lines, None);
        self.stats = CacheStats::default();
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.params.line_bytes as u64;
        let index = (line as usize) & (self.params.lines - 1);
        (index, line)
    }

    /// Non-mutating variant of [`ScalarCache::load`]: reports what a load
    /// of `addr` would do without updating tags or statistics.
    pub fn probe(&self, addr: u64) -> CacheAccess {
        let (index, tag) = self.index_and_tag(addr);
        if self.tags[index] == Some(tag) {
            CacheAccess::Hit
        } else {
            CacheAccess::Miss
        }
    }

    /// Performs a scalar load, filling the line on a miss.
    pub fn load(&mut self, addr: u64) -> CacheAccess {
        let (index, tag) = self.index_and_tag(addr);
        if self.tags[index] == Some(tag) {
            self.stats.load_hits += 1;
            CacheAccess::Hit
        } else {
            self.tags[index] = Some(tag);
            self.stats.load_misses += 1;
            CacheAccess::Miss
        }
    }

    /// Performs a scalar store. The cache is write-through/write-allocate:
    /// the store always generates memory traffic, but it installs the line
    /// so that later loads hit.
    pub fn store(&mut self, addr: u64) -> CacheAccess {
        let (index, tag) = self.index_and_tag(addr);
        let access = if self.tags[index] == Some(tag) {
            self.stats.store_hits += 1;
            CacheAccess::Hit
        } else {
            self.stats.store_misses += 1;
            CacheAccess::Miss
        };
        self.tags[index] = Some(tag);
        access
    }

    /// Invalidates all lines.
    pub fn flush(&mut self) {
        self.tags.fill(None);
    }

    /// Total hits observed (loads and stores combined).
    pub fn hits(&self) -> u64 {
        self.stats.hits()
    }

    /// Total misses observed (loads and stores combined).
    pub fn misses(&self) -> u64 {
        self.stats.misses()
    }

    /// Hit rate over all accesses (0..=1), 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// The full hit/miss statistics, split by access kind — store
    /// outcomes are recorded too, not discarded at the memory-system
    /// boundary.
    ///
    /// ```
    /// use dva_memory::ScalarCache;
    /// let mut cache = ScalarCache::default();
    /// cache.store(0x40); // miss, installs the line
    /// cache.load(0x48); // hits the installed line
    /// let stats = cache.stats();
    /// assert_eq!(stats.store_misses, 1);
    /// assert_eq!(stats.load_hits, 1);
    /// ```
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The configured geometry.
    pub fn params(&self) -> ScalarCacheParams {
        self.params
    }
}

impl fmt::Display for ScalarCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scalar cache: {} hits, {} misses ({:.1}% hit rate)",
            self.hits(),
            self.misses(),
            100.0 * self.hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_to_same_line_hits() {
        let mut c = ScalarCache::default();
        assert_eq!(c.load(0x40), CacheAccess::Miss);
        assert_eq!(c.load(0x40), CacheAccess::Hit);
        assert_eq!(c.load(0x5f), CacheAccess::Hit); // same 32B line
        assert_eq!(c.load(0x60), CacheAccess::Miss); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicting_lines_evict_each_other() {
        let params = ScalarCacheParams {
            lines: 4,
            line_bytes: 32,
        };
        let mut c = ScalarCache::new(params);
        let a = 0u64;
        let b = (4 * 32) as u64; // maps to the same index
        assert_eq!(c.load(a), CacheAccess::Miss);
        assert_eq!(c.load(b), CacheAccess::Miss);
        assert_eq!(c.load(a), CacheAccess::Miss); // evicted by b
    }

    #[test]
    fn store_installs_line_for_later_loads() {
        let mut c = ScalarCache::default();
        assert_eq!(c.store(0x100), CacheAccess::Miss);
        assert_eq!(c.load(0x100), CacheAccess::Hit);
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = ScalarCache::default();
        c.load(0x100);
        c.flush();
        assert_eq!(c.load(0x100), CacheAccess::Miss);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_geometry_rejected() {
        let _ = ScalarCache::new(ScalarCacheParams {
            lines: 3,
            line_bytes: 32,
        });
    }
}
