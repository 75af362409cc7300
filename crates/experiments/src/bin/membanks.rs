//! Bank-conflict stride sweep: REF vs DVA under flat vs banked memory.

fn main() {
    let spec = dva_experiments::find("membanks").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
