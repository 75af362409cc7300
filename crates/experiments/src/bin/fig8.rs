//! Regenerates Figure 8: memory traffic ratio DVA vs BYP.

fn main() {
    let spec = dva_experiments::find("fig8").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
