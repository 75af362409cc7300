//! Cycle accounting and reporting for the *Decoupled Vector Architectures*
//! reproduction.
//!
//! The paper analyzes executions through three lenses, all implemented
//! here:
//!
//! * the **8-state functional-unit occupancy breakdown** of Figure 1
//!   ([`StateTracker`], [`UnitState`]),
//! * **queue occupancy histograms** like the AVDQ busy-slot plots of
//!   Figure 6 ([`Histogram`]),
//! * **memory traffic counters** for the bypass study of Figure 8
//!   ([`Traffic`]), plus scalar-cache hit/miss counters split by access
//!   kind ([`CacheStats`]).
//!
//! # Examples
//!
//! ```
//! use dva_metrics::{StateTracker, UnitState};
//!
//! let mut t = StateTracker::new();
//! t.tick(UnitState::empty());
//! t.tick(UnitState::FU2 | UnitState::LD);
//! assert_eq!(t.idle_cycles(), 1);
//! assert_eq!(t.total_cycles(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache_stats;
mod diag;
mod hist;
mod serial;
mod states;
mod traffic;

pub use cache_stats::CacheStats;
pub use diag::Diag;
pub use hist::Histogram;
pub use states::{StateTracker, UnitState};
pub use traffic::Traffic;

/// Computes `reference_cycles / improved_cycles` as a speedup, returning 0
/// when the denominator is zero.
pub fn speedup(reference_cycles: u64, improved_cycles: u64) -> f64 {
    if improved_cycles == 0 {
        0.0
    } else {
        reference_cycles as f64 / improved_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_handles_zero_denominator() {
        assert_eq!(speedup(100, 0), 0.0);
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
    }
}
