//! The spec registry: every experiment of the evaluation, as data.
//!
//! The order is the `all` binary's print order. The two big-grid specs
//! — `fig5_adaptive` and the ablation — are excluded from `all` via
//! `all_header: None`. Each entry is also a standalone binary of the
//! same name.

use crate::ExperimentSpec;
use crate::{
    ablation, fig1, fig3, fig4, fig5, fig5_adaptive, fig6, fig7, fig8, membanks, queues, table1,
};

/// Every experiment spec, in `all`-binary order.
pub static REGISTRY: [ExperimentSpec; 12] = [
    table1::SPEC,
    fig1::SPEC,
    fig3::SPEC,
    fig4::SPEC,
    fig5::SPEC,
    fig5_adaptive::SPEC,
    fig6::SPEC,
    fig7::SPEC,
    fig8::SPEC,
    queues::SPEC,
    membanks::SPEC,
    ablation::SPEC,
];

/// Looks a spec up by its registry name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for spec in &REGISTRY {
            assert!(std::ptr::eq(find(spec.name).unwrap(), spec));
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn only_the_slow_specs_are_outside_all() {
        // The adaptive high-resolution figure and the ablation run far
        // bigger grids than the rest; both stay out of the `all` binary.
        let outside: Vec<&str> = REGISTRY
            .iter()
            .filter(|s| s.all_header.is_none())
            .map(|s| s.name)
            .collect();
        assert_eq!(outside, ["fig5_adaptive", "ablation"]);
    }
}
