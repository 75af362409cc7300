//! Byte-exact stdout parity with the pre-artifact experiment binaries.
//!
//! `artifacts/golden/text/*.quick.txt` are verbatim captures of every
//! binary's stdout (quick grid) from before the spec/runner refactor.
//! These tests re-render each experiment through the declarative path —
//! [`Runner`] + [`Artifact::to_text`] / [`Artifact::tables_text`] — and
//! require the bytes to be identical, which is the refactor's acceptance
//! criterion.

use dva_experiments::registry::REGISTRY;
use dva_experiments::{RunOpts, Runner};
use std::path::PathBuf;

fn golden_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../artifacts/golden/text")
        .join(format!("{name}.quick.txt"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden capture {}: {e}", path.display()))
}

#[test]
fn every_standalone_binary_matches_its_captured_stdout() {
    let mut runner = Runner::new();
    for spec in &REGISTRY {
        let artifact = runner.run(spec, &RunOpts::quick()).unwrap();
        assert_eq!(
            artifact.to_text(),
            golden_text(spec.name),
            "stdout drifted for `{}`",
            spec.name
        );
    }
}

#[test]
fn the_all_binary_matches_its_captured_stdout() {
    let mut runner = Runner::new();
    let mut out = String::new();
    for spec in REGISTRY.iter().filter(|s| s.all_header.is_some()) {
        let artifact = runner.run(spec, &RunOpts::quick()).unwrap();
        out.push_str(&format!(
            "{}\n\n{}\n",
            spec.all_header.unwrap(),
            artifact.tables_text()
        ));
    }
    assert_eq!(out, golden_text("all"));
    // The shared runner answers the repeated Figures 3–5 sweep from the
    // cache: at least two full grids' worth of hits.
    assert!(
        runner.cache_hits() >= 2 * 3 * 5 * 6,
        "expected the shared sweep to be cached, got {} hits",
        runner.cache_hits()
    );
}
