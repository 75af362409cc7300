//! Content-addressed identity of a grid point.
//!
//! A [`PointKey`] names everything that determines a simulation's
//! outcome — the program's instruction stream (by the content hash the
//! program carries, [`Program::content_hash`]), the full
//! machine configuration (including the stamped latency and memory
//! model), the fast-forward flag, and the engine version — and nothing
//! that doesn't (program *names*, benchmark labels, grid position).
//! Two points with equal keys are guaranteed byte-identical results, so
//! the cache in [`crate::cache`] never simulates the same point twice,
//! across jobs or across process restarts.
//!
//! Because IDEAL machines carry no latency or memory knob, every IDEAL
//! point of a latency grid collapses onto one key: a 4-machine × 6-latency
//! sweep simulates IDEAL once and serves the other five from cache.
//!
//! [`Program::content_hash`]: dva_isa::Program::content_hash

use dva_engine::ENGINE_VERSION;
use dva_json::{ToJson, Writer};
use dva_sim_api::PointSpec;
use std::convert::Infallible;
use std::fmt::{self, Write as _};

/// The capacity a key is written into: enough for the prefix and the
/// largest machine configuration (a decoupled machine's, about 330
/// bytes), so writing never reallocates. The key is then shrunk to fit,
/// since the cache keeps every key it stores.
const KEY_CAPACITY: usize = 512;

/// The canonical identity of one simulation, usable as a cache key and
/// stable across processes (for one engine version).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey(String);

impl PointKey {
    /// Computes the key of a grid point. Every machine is plain data, so
    /// every point has a key: the error type is [`Infallible`], and the
    /// `Result` only keeps existing callers compiling
    /// (`let Ok(key) = PointKey::of(..);`).
    pub fn of(spec: &PointSpec, fast_forward: bool) -> Result<PointKey, Infallible> {
        let program = spec.program.content_hash();
        let mut key = String::with_capacity(KEY_CAPACITY);
        let _ = write!(
            key,
            "v{ENGINE_VERSION};prog={program:032x};ff={fast_forward};machine="
        );
        spec.machine.write_json(&mut Writer::new(&mut key));
        key.shrink_to_fit();
        Ok(PointKey(key))
    }

    /// The canonical string form (what the disk tier stores).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Wraps a key string read back from the disk tier. No validation:
    /// the string *is* the identity.
    pub(crate) fn from_string(key: String) -> PointKey {
        PointKey(key)
    }
}

impl fmt::Display for PointKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
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
        assert!(fast.as_str().starts_with(&format!("v{ENGINE_VERSION};")));
    }
}
