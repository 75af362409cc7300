//! Regenerates Figure 5: DVA speedup over REF.

fn main() {
    let spec = dva_experiments::find("fig5").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
