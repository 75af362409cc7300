//! Content-addressed identity of a grid point.
//!
//! A [`PointKey`] names everything that determines a simulation's
//! outcome — the program's instruction stream (by the content hash the
//! program carries, [`Program::content_hash`]), the full
//! machine configuration (including the stamped latency and memory
//! model), and the fast-forward flag — and nothing that doesn't (program
//! *names*, benchmark labels, grid position). Two points with equal keys
//! are guaranteed byte-identical results, so the cache in
//! [`crate::cache`] never simulates the same point twice, across jobs or
//! across process restarts.
//!
//! The key is structural: plain data compared and hashed field by field,
//! so deriving and looking one up formats nothing and allocates nothing.
//! Its canonical string form — `v{ENGINE_VERSION};prog={hash};ff={flag};
//! machine={json}`, written by [`Display`](fmt::Display) — exists only
//! where a key leaves the process: the disk tier's lines. The engine
//! version is part of that form alone, since one process runs one engine.
//!
//! Because IDEAL machines carry no latency or memory knob, every IDEAL
//! point of a latency grid collapses onto one key: a 4-machine × 6-latency
//! sweep simulates IDEAL once and serves the other five from cache.
//!
//! [`Program::content_hash`]: dva_isa::Program::content_hash

use dva_engine::ENGINE_VERSION;
use dva_json::{FromJson, ToJson};
use dva_sim_api::{Machine, PointSpec};
use std::convert::Infallible;
use std::fmt;

/// The canonical identity of one simulation, usable as a cache key. Its
/// [`Display`](fmt::Display) form is stable across processes (for one
/// engine version); see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointKey {
    /// The program's content hash.
    program: u128,
    fast_forward: bool,
    /// The machine, with its latency and memory model stamped.
    machine: Machine,
}

impl PointKey {
    /// Computes the key of a grid point. Every machine is plain data, so
    /// every point has a key: the error type is [`Infallible`], and the
    /// `Result` only keeps existing callers compiling
    /// (`let Ok(key) = PointKey::of(..);`).
    pub fn of(spec: &PointSpec, fast_forward: bool) -> Result<PointKey, Infallible> {
        Ok(PointKey {
            program: spec.program.content_hash(),
            fast_forward,
            machine: spec.machine,
        })
    }

    /// Reads a key back from its canonical string form. `None` unless the
    /// text is exactly what [`Display`](fmt::Display) writes for the key
    /// it decodes to, so another engine version's prefix, a machine
    /// outside the decode bounds, or any byte out of canonical form is
    /// refused.
    pub(crate) fn parse(text: &str) -> Option<PointKey> {
        let (_version, rest) = text.split_once(";prog=")?;
        let (program, rest) = rest.split_once(";ff=")?;
        let (fast_forward, machine) = rest.split_once(";machine=")?;
        let key = PointKey {
            program: u128::from_str_radix(program, 16).ok()?,
            fast_forward: fast_forward.parse().ok()?,
            machine: Machine::parse_json(machine).ok()?,
        };
        (key.to_string() == text).then_some(key)
    }
}

impl fmt::Display for PointKey {
    /// The canonical string form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "v{ENGINE_VERSION};prog={:032x};ff={};machine={}",
            self.program,
            self.fast_forward,
            self.machine.render_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_sim_api::{Machine, Sweep};
    use dva_workloads::{Benchmark, Scale};

    fn key(spec: &PointSpec, fast_forward: bool) -> PointKey {
        let Ok(key) = PointKey::of(spec, fast_forward);
        key
    }

    fn spec_grid() -> Vec<PointSpec> {
        Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1), Machine::ideal()])
            .benchmarks([Benchmark::Trfd, Benchmark::Dyfesm])
            .latencies([1, 30])
            .scale(Scale::Quick)
            .grid()
    }

    #[test]
    fn keys_are_stable_across_grid_rebuilds() {
        // Two independently generated grids produce the same keys, and so
        // does a spec whose program was copied into fresh storage:
        // content, not identity.
        let a = spec_grid();
        let b = spec_grid();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(key(x, true), key(y, true));
        }
        let spec = &a[0];
        let mut copied = spec.clone();
        copied.program =
            dva_isa::Program::from_insts(copied.program.name(), copied.program.insts().to_vec());
        assert_ne!(
            copied.program.insts().as_ptr(),
            spec.program.insts().as_ptr(),
            "the copy must not share storage for this test to mean anything"
        );
        assert_eq!(key(&copied, true), key(spec, true));
    }

    #[test]
    fn keys_separate_every_axis() {
        let grid = spec_grid();
        // REF/DVA keys are unique per (machine, program, latency) point;
        // IDEAL collapses across the latency axis by design.
        let mut seen = std::collections::HashMap::new();
        for spec in &grid {
            let key = key(spec, true);
            if let Some(prev) = seen.insert(key.clone(), spec) {
                assert_eq!(prev.machine, Machine::ideal(), "{key} collided");
                assert_eq!(prev.benchmark, spec.benchmark);
            }
        }
        let ideal_keys: std::collections::HashSet<_> = grid
            .iter()
            .filter(|s| s.machine == Machine::ideal())
            .map(|s| key(s, true))
            .collect();
        // 2 benchmarks × 2 latencies, but only 2 distinct IDEAL keys.
        assert_eq!(ideal_keys.len(), 2);
    }

    #[test]
    fn fast_forward_and_engine_version_are_part_of_the_key() {
        let spec = &spec_grid()[0];
        let fast = key(spec, true);
        let naive = key(spec, false);
        assert_ne!(fast, naive);
        assert!(fast.to_string().starts_with(&format!("v{ENGINE_VERSION};")));
    }

    #[test]
    fn the_string_form_parses_back_to_the_same_key() {
        for spec in spec_grid() {
            for fast_forward in [true, false] {
                let key = key(&spec, fast_forward);
                assert_eq!(PointKey::parse(&key.to_string()), Some(key));
            }
        }
    }
}
