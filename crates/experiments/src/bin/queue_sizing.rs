//! Regenerates the queue-sizing studies of Sections 5–7.

fn main() {
    let spec = dva_experiments::find("queue_sizing").expect("registered spec");
    dva_experiments::cli::run_spec(spec)
}
