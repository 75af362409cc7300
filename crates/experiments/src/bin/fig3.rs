//! Regenerates Figure 3: IDEAL / REF / DVA execution time vs latency.

fn main() {
    let spec = dva_experiments::find("fig3").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
