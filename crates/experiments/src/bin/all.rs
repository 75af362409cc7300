//! Runs every experiment in sequence — the full evaluation of the paper.
//!
//! One shared runner executes the whole spec registry: the REF/DVA/IDEAL
//! latency sweep behind Figures 3, 4 and 5 simulates once and the other
//! two figures render from the content-addressed cache.

fn main() {
    dva_experiments::cli::run_all(&dva_experiments::REGISTRY)
}
