//! Regenerates Table 1 of the paper.

fn main() {
    let spec = dva_experiments::find("table1").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
