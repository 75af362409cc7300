//! Shared experiment plumbing: latency grids, the standard machine line-up
//! and the REF/DVA/IDEAL sweep shared by Figures 3–5.
//!
//! All heavy lifting is delegated to [`dva_sim_api::Sweep`], which fans
//! the (machine × program × latency) grid out over worker threads.

use crate::RunOpts;
use dva_sim_api::{Machine, Sweep, SweepResults};
use dva_workloads::Benchmark;

/// The memory latencies swept, mirroring the paper's x axis (1 to 100
/// cycles). `full` adds the intermediate decades.
pub fn latencies(full: bool) -> Vec<u64> {
    if full {
        vec![1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    } else {
        vec![1, 10, 30, 50, 70, 100]
    }
}

/// The latencies Figure 1 uses for its per-program bars.
pub const FIG1_LATENCIES: [u64; 4] = [1, 30, 70, 100];

/// The latencies Figure 6 uses for its occupancy histograms.
pub const FIG6_LATENCIES: [u64; 3] = [1, 30, 100];

/// The three machines of the paper's central comparison.
pub fn core_machines() -> [Machine; 3] {
    [Machine::reference(1), Machine::dva(1), Machine::ideal()]
}

/// The REF/DVA/IDEAL sweep over every benchmark and `latencies`, shared
/// by Figures 3, 4 and 5 — configured but not yet run. Because all three
/// figures declare this identical sweep, the artifact runner's
/// content-addressed cache simulates the grid once per process.
pub fn latency_sweep_cfg(opts: RunOpts, latencies: &[u64]) -> Sweep {
    opts.sweep()
        .machines(core_machines())
        .benchmarks(Benchmark::ALL)
        .latencies(latencies.iter().copied())
}

/// The IDEAL bound of one benchmark in a sweep that included
/// [`Machine::ideal`] (the bound is latency independent; any measured
/// latency serves).
pub fn ideal_of(sweep: &SweepResults, benchmark: Benchmark) -> u64 {
    sweep
        .of(benchmark)
        .find(|p| p.label == "IDEAL")
        .map(|p| p.result.cycles)
        .expect("sweep includes the IDEAL machine")
}

/// Formats a cycle count in thousands with one decimal, as the paper's
/// y axes do (theirs are in hundreds of millions; ours are scaled traces).
pub fn kcycles(c: u64) -> String {
    format!("{:.1}", c as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::Scale;

    #[test]
    fn latency_grids_are_sorted_and_bounded() {
        for full in [false, true] {
            let l = latencies(full);
            assert_eq!(*l.first().unwrap(), 1);
            assert_eq!(*l.last().unwrap(), 100);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(latencies(true).len() > latencies(false).len());
    }

    #[test]
    fn sweep_collects_every_point() {
        let sweep = latency_sweep_cfg(RunOpts::quick(), &[1, 100]).run();
        assert_eq!(sweep.points.len(), 3 * Benchmark::ALL.len() * 2);
        for b in Benchmark::ALL {
            assert_eq!(sweep.of(b).count(), 6);
            let ideal = ideal_of(&sweep, b);
            assert!(ideal > 0);
            // The bound never exceeds either machine's time.
            for latency in [1, 100] {
                assert!(ideal <= sweep.cycles("REF", b, latency).unwrap());
                assert!(ideal <= sweep.cycles("DVA", b, latency).unwrap());
            }
        }
    }

    #[test]
    fn kcycles_formats_thousands() {
        assert_eq!(kcycles(1500), "1.5");
        assert_eq!(kcycles(0), "0.0");
    }

    #[test]
    fn scale_parsing_still_reaches_through_the_shared_parser() {
        // The parser itself is tested in `cli`; here we only pin that
        // the options keep their defaults.
        let opts = RunOpts::default();
        assert_eq!(opts.scale, Scale::Default);
        assert!(!opts.full);
        assert_eq!(opts.threads, 0);
        assert_eq!(RunOpts::quick().scale, Scale::Quick);
    }
}
