//! Regenerates Figure 4: REF/DVA ratio of all-idle cycles.

fn main() {
    let spec = dva_experiments::find("fig4").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
