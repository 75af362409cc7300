//! Regenerates Figure 1: reference-architecture state breakdown.

fn main() {
    let spec = dva_experiments::find("fig1").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
