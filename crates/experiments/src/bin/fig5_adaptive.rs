//! Regenerates the adaptively sampled high-resolution Figure 5.

fn main() {
    let spec = dva_experiments::find("fig5_adaptive").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
