//! Calibration summary (run with `--ignored --nocapture` to inspect the
//! headline numbers against the paper's).

use dva_core::ideal_bound;
use dva_sim_api::Machine;
use dva_workloads::{stats::spill_fraction, Benchmark, Scale};

/// Prints Table-1 ratios, speedups and bypass gains side by side with the
/// paper's values. Not an assertion — a human-readable calibration sheet.
#[test]
#[ignore = "diagnostic dump; run with --ignored --nocapture"]
fn calibration_sheet() {
    println!("paper speedups @L100: ARC2D 1.35 .. SPEC77 2.05, DYFESM ~1.0");
    println!("paper bypass gains @L1: DYFESM 22% TRFD 17% BDNA 11% FLO52 9% ARC2D 3% SPEC77 1%");
    for b in Benchmark::ALL {
        let p = b.program(Scale::Default);
        let s = p.summary();
        let t = b.paper_row();
        let ideal = ideal_bound(&p).cycles();
        let r100 = Machine::reference(100).simulate(&p);
        let d100 = Machine::dva(100).simulate(&p);
        let d1 = Machine::dva(1).simulate(&p);
        let b1 = Machine::byp(1, 256, 16).simulate(&p);
        println!(
            "{:8} vect {:5.1}% (paper {:5.1}) VL {:5.1} (paper {:5.1}) spill {:.2} | \
             ideal {:>7} | speedup@100 {:.2} | byp@1 {:+.1}% traffic x{:.2}",
            b.name(),
            s.vectorization(),
            t.vectorization,
            s.avg_vector_length(),
            t.avg_vl,
            spill_fraction(&p),
            ideal,
            r100.cycles as f64 / d100.cycles as f64,
            100.0 * (d1.cycles as f64 / b1.cycles as f64 - 1.0),
            b1.traffic.ratio_to(&d1.traffic),
        );
    }
}
