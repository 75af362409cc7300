//! Regenerates Figure 6: AVDQ busy-slot distributions.

fn main() {
    let spec = dva_experiments::find("fig6").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
