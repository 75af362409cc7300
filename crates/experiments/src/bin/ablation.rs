//! Ablation studies: chaining and register bank ports.

fn main() {
    let spec = dva_experiments::find("ablation").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
