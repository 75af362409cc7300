//! Occupancy histograms (Figure 6 of the paper).

use std::fmt;

/// A histogram over small non-negative integer values, used to record how
/// many cycles a queue spent at each occupancy level.
///
/// Values above the configured maximum are clamped into the last bucket,
/// so every reading — [`total`](Histogram::total),
/// [`count`](Histogram::count), [`mean`](Histogram::mean),
/// [`cumulative_fraction`](Histogram::cumulative_fraction) — counts an
/// overflowed sample as the maximum. [`Histogram::overflow`] additionally
/// counts how many were clamped; it is a subset of `total()`, not an
/// addition to it.
///
/// # Examples
///
/// ```
/// use dva_metrics::Histogram;
/// let mut h = Histogram::new(9);
/// h.tick(0);
/// h.add(2, 10);
/// assert_eq!(h.count(2), 10);
/// assert_eq!(h.max_observed(), Some(2));
///
/// // An overflowing sample lands in the last bucket and is also
/// // counted as overflow: one observation, not two.
/// let mut h = Histogram::new(8);
/// h.add(12, 1);
/// assert_eq!(h.total(), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.count(8), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with buckets for values `0..=max_value`.
    ///
    /// # Panics
    ///
    /// Panics if `max_value` is so large that allocating would be absurd
    /// (> 1<<20); queue occupancies in this workspace are small.
    pub fn new(max_value: usize) -> Histogram {
        assert!(max_value < (1 << 20), "histogram too large");
        Histogram {
            buckets: vec![0; max_value + 1],
            overflow: 0,
        }
    }

    /// Rebuilds a histogram from its raw parts (the inverse of
    /// [`buckets`](Self::buckets)/[`overflow`](Self::overflow), used by
    /// the JSON round-trip).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or absurdly large (the same bound as
    /// [`Histogram::new`]).
    pub fn from_parts(buckets: Vec<u64>, overflow: u64) -> Histogram {
        assert!(!buckets.is_empty(), "histogram needs at least one bucket");
        assert!(buckets.len() <= (1 << 20), "histogram too large");
        Histogram { buckets, overflow }
    }

    /// Records one observation of `value`.
    pub fn tick(&mut self, value: usize) {
        self.add(value, 1);
    }

    /// Records `count` observations of `value`.
    #[inline]
    pub fn add(&mut self, value: usize, count: u64) {
        if value >= self.buckets.len() {
            self.overflow += count;
            let last = self.buckets.len() - 1;
            self.buckets[last] += count;
        } else {
            self.buckets[value] += count;
        }
    }

    /// Number of observations of exactly `value`. Overflowed samples
    /// count as the maximum, so the last bucket includes them.
    pub fn count(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// The bucket values, index = observed value.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations that exceeded the configured maximum. They are also
    /// in the last bucket, so this is a subset of [`total`](Self::total).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, overflowed ones included (each is
    /// counted once, in the last bucket).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The largest value with at least one observation, or `None` when the
    /// histogram is empty.
    pub fn max_observed(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Mean observed value, counting each overflowed sample as the
    /// maximum.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }

    /// Fraction of observations at or below `value`, counting each
    /// overflowed sample as the maximum.
    pub fn cumulative_fraction(&self, value: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let below: u64 = self.buckets.iter().take(value + 1).sum();
        below as f64 / total as f64
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different bucket counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram shape mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.max_observed().unwrap_or(0);
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for v in 0..=max {
            let bar_len = (self.count(v) * 40 / peak) as usize;
            writeln!(f, "{v:>3} | {:<40} {}", "#".repeat(bar_len), self.count(v))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_value() {
        let mut h = Histogram::new(4);
        h.tick(0);
        h.tick(0);
        h.add(3, 5);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(3), 5);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn overflow_clamps_into_last_bucket() {
        let mut h = Histogram::new(2);
        h.add(7, 3);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.count(2), 3);
        assert_eq!(h.max_observed(), Some(2));
    }

    #[test]
    fn mean_and_cumulative_are_consistent() {
        let mut h = Histogram::new(10);
        h.add(2, 2);
        h.add(4, 2);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(2) - 0.5).abs() < 1e-12);
        assert!((h.cumulative_fraction(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_has_no_max() {
        let h = Histogram::new(4);
        assert_eq!(h.max_observed(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Histogram::new(3);
        a.add(1, 1);
        let mut b = Histogram::new(3);
        b.add(1, 2);
        b.add(3, 1);
        a.merge(&b);
        assert_eq!(a.count(1), 3);
        assert_eq!(a.count(3), 1);
    }
}
