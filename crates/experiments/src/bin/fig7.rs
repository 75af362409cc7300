//! Regenerates Figure 7: bypass configurations vs DVA and IDEAL.

fn main() {
    let spec = dva_experiments::find("fig7").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
