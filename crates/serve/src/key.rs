//! Content-addressed identity of a grid point.
//!
//! A [`PointKey`] names everything that determines a simulation's
//! outcome — the program's instruction stream (by content hash), the full
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

use dva_engine::ENGINE_VERSION;
use dva_isa::Program;
use dva_json::{JsonError, Writer};
use dva_sim_api::PointSpec;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::{Mutex, OnceLock};

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
    /// Computes the key of a grid point.
    ///
    /// # Errors
    ///
    /// Fails for points on a [`Machine::custom`](dva_sim_api::Machine::custom)
    /// machine: its behaviour lives in a function pointer, which has no
    /// content address.
    pub fn of(spec: &PointSpec, fast_forward: bool) -> Result<PointKey, JsonError> {
        let program = program_hash(&spec.program);
        let mut key = String::with_capacity(KEY_CAPACITY);
        let _ = write!(
            key,
            "v{ENGINE_VERSION};prog={program:032x};ff={fast_forward};machine="
        );
        spec.machine.write_json(&mut Writer::new(&mut key))?;
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

/// FNV-1a, 128-bit: tiny, dependency-free, and collision-safe far beyond
/// the handful of distinct programs a sweep service ever sees.
struct Fnv128(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Hashes a program's instruction stream by content: each instruction's
/// canonical `Debug` rendering (a pure function of the instruction's
/// fields) is fed through FNV-1a without materializing the text.
fn hash_insts(program: &Program) -> u128 {
    let mut hasher = Fnv128::new();
    for inst in program.insts() {
        // The separator keeps adjacent instructions from sharing bytes.
        let _ = write!(hasher, "{inst:?};");
    }
    hasher.0
}

/// Process-wide memo of program content hashes, keyed by the identity of
/// the shared instruction storage. Each entry holds a clone of its
/// program, which pins the storage — an equal pointer is therefore the
/// same allocation, hence the same content (the same soundness argument
/// as `dva-sim-api`'s compiled-program cache). Cleared wholesale past a
/// bound so unique-program workloads don't accumulate entries forever.
static HASHES: OnceLock<Mutex<HashMap<usize, (Program, u128)>>> = OnceLock::new();

/// Distinct programs memoized before the memo is flushed.
const HASH_CACHE_BOUND: usize = 64;

/// The content hash of a program's instruction stream, memoized by
/// storage identity: sweeping one program across a big grid hashes it
/// once, not once per point.
pub fn program_hash(program: &Program) -> u128 {
    let key = program.insts().as_ptr() as usize;
    let map = HASHES.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some((_, hash)) = map.lock().unwrap().get(&key) {
        return *hash;
    }
    let hash = hash_insts(program);
    let mut map = map.lock().unwrap();
    if map.len() >= HASH_CACHE_BOUND {
        map.clear();
    }
    map.insert(key, (program.clone(), hash));
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_sim_api::{Machine, Sweep};
    use dva_workloads::{Benchmark, Scale};

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
            assert_eq!(
                PointKey::of(x, true).unwrap(),
                PointKey::of(y, true).unwrap()
            );
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
        assert_eq!(
            PointKey::of(&copied, true).unwrap(),
            PointKey::of(spec, true).unwrap()
        );
    }

    #[test]
    fn keys_separate_every_axis() {
        let grid = spec_grid();
        // REF/DVA keys are unique per (machine, program, latency) point;
        // IDEAL collapses across the latency axis by design.
        let mut seen = std::collections::HashMap::new();
        for spec in &grid {
            let key = PointKey::of(spec, true).unwrap();
            if let Some(prev) = seen.insert(key.clone(), spec) {
                assert_eq!(prev.machine, Machine::ideal(), "{key} collided");
                assert_eq!(prev.benchmark, spec.benchmark);
            }
        }
        let ideal_keys: std::collections::HashSet<_> = grid
            .iter()
            .filter(|s| s.machine == Machine::ideal())
            .map(|s| PointKey::of(s, true).unwrap())
            .collect();
        // 2 benchmarks × 2 latencies, but only 2 distinct IDEAL keys.
        assert_eq!(ideal_keys.len(), 2);
    }

    #[test]
    fn fast_forward_and_engine_version_are_part_of_the_key() {
        let spec = &spec_grid()[0];
        let fast = PointKey::of(spec, true).unwrap();
        let naive = PointKey::of(spec, false).unwrap();
        assert_ne!(fast, naive);
        assert!(fast.as_str().starts_with(&format!("v{ENGINE_VERSION};")));
    }

    #[test]
    fn program_hashes_are_content_hashes() {
        let a = Benchmark::Trfd.program(Scale::Quick);
        let b = Benchmark::Trfd.program(Scale::Quick);
        let c = Benchmark::Trfd.program(Scale::Default);
        assert_eq!(program_hash(&a), program_hash(&b));
        assert_ne!(program_hash(&a), program_hash(&c));
        // Renaming shares storage, so the hash (and the memo hit) agree.
        assert_eq!(program_hash(&a.with_name("other")), program_hash(&a));
    }

    #[test]
    fn custom_machines_have_no_key() {
        fn build(_: &dva_isa::Program) -> dva_sim_api::CustomSim<'_> {
            unreachable!()
        }
        let mut spec = spec_grid().remove(0);
        spec.machine = Machine::custom("LOCAL", build);
        assert!(PointKey::of(&spec, true).is_err());
    }
}
