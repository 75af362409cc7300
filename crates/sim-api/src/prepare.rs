//! Translate-once program preparation and per-worker engine reuse.

use dva_core::{DvaRunner, IdealBound};
use dva_isa::Program;
use dva_ref::RefRunner;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide memo of compiled forms, keyed by the identity of a
/// program's shared instruction storage. Entries keep that storage alive
/// (the compiled form holds the program), so a cached pointer can never
/// be reused by a different allocation while its entry exists; the map
/// is cleared wholesale when it grows past a bound, which keeps
/// workloads that stream unique programs (property tests) from
/// accumulating translations forever.
struct CompiledCache<C> {
    map: OnceLock<Mutex<HashMap<usize, Arc<C>>>>,
}

/// Distinct programs cached before the memo is flushed.
const COMPILED_CACHE_BOUND: usize = 64;

impl<C> CompiledCache<C> {
    const fn new() -> CompiledCache<C> {
        CompiledCache {
            map: OnceLock::new(),
        }
    }

    fn get_or_compile(&self, program: &Program, compile: impl FnOnce(&Program) -> C) -> Arc<C> {
        // A hit is sound by the lifetime argument above: the entry pins
        // the storage behind this pointer, so an equal pointer is the
        // same allocation — and therefore the same instruction stream.
        let key = program.insts().as_ptr() as usize;
        let map = self.map.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(cached) = map.lock().unwrap().get(&key) {
            return Arc::clone(cached);
        }
        // Translate outside the lock; losing a race just compiles twice.
        let compiled = Arc::new(compile(program));
        let mut map = map.lock().unwrap();
        if map.len() >= COMPILED_CACHE_BOUND {
            map.clear();
        }
        map.insert(key, Arc::clone(&compiled));
        compiled
    }
}

static DVA_COMPILED: CompiledCache<dva_core::CompiledProgram> = CompiledCache::new();
static REF_COMPILED: CompiledCache<dva_ref::CompiledProgram> = CompiledCache::new();

/// A program with its per-machine compiled forms, built lazily and at
/// most once each.
///
/// Every machine family consumes a program differently: the decoupled
/// engine replays three per-unit µop streams
/// ([`dva_core::CompiledProgram`]), the reference dispatcher replays a
/// decoded issue stream ([`dva_ref::CompiledProgram`]), and the IDEAL
/// bound is a pure function of the trace. A `PreparedProgram` caches all
/// three behind [`OnceLock`]s keyed by this program, so a sweep grid of
/// machines × latencies × memory models pays each translation exactly
/// once — computed on whichever worker thread gets there first and shared
/// by all of them.
///
/// # Examples
///
/// ```
/// use dva_sim_api::{Machine, PreparedProgram, Runners};
/// use dva_workloads::{Benchmark, Scale};
///
/// let program = Benchmark::Trfd.program(Scale::Quick);
/// let prepared = PreparedProgram::new(&program);
/// let mut runners = Runners::new();
/// for latency in [1, 30] {
///     let machine = Machine::dva(latency);
///     let fast = machine.try_simulate_prepared(&prepared, true, &mut runners);
///     assert_eq!(fast.unwrap(), machine.simulate(&program));
/// }
/// ```
#[derive(Debug)]
pub struct PreparedProgram {
    program: Program,
    dva: OnceLock<Arc<dva_core::CompiledProgram>>,
    reference: OnceLock<Arc<dva_ref::CompiledProgram>>,
    ideal: OnceLock<IdealBound>,
}

impl PreparedProgram {
    /// Prepares `program` (shares its instruction storage; nothing is
    /// compiled until a machine asks).
    pub fn new(program: &Program) -> PreparedProgram {
        PreparedProgram {
            program: program.clone(),
            dva: OnceLock::new(),
            reference: OnceLock::new(),
            ideal: OnceLock::new(),
        }
    }

    /// The source program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The decoupled machine's compiled form: translated on first use,
    /// and shared process-wide — repeated sweeps over the same program
    /// (same instruction storage) reuse one translation.
    pub fn dva(&self) -> &Arc<dva_core::CompiledProgram> {
        self.dva.get_or_init(|| {
            DVA_COMPILED.get_or_compile(&self.program, dva_core::CompiledProgram::compile)
        })
    }

    /// The reference machine's compiled form: decoded on first use, and
    /// shared process-wide like [`dva`](PreparedProgram::dva).
    pub fn reference(&self) -> &Arc<dva_ref::CompiledProgram> {
        self.reference.get_or_init(|| {
            REF_COMPILED.get_or_compile(&self.program, dva_ref::CompiledProgram::compile)
        })
    }

    /// The IDEAL resource bound (computed on first use).
    pub fn ideal(&self) -> IdealBound {
        *self
            .ideal
            .get_or_init(|| dva_core::ideal_bound(&self.program))
    }
}

impl From<&Program> for PreparedProgram {
    fn from(program: &Program) -> PreparedProgram {
        PreparedProgram::new(program)
    }
}

/// One reusable engine per machine family — the per-worker companion of
/// [`PreparedProgram`]: where the prepared program amortizes
/// *translation* across a sweep, the runners amortize *engine
/// allocations*. Each sweep worker thread owns one `Runners` and drives
/// every grid point it claims through it; the engines' reset contract
/// keeps the results byte-identical to fresh construction.
#[derive(Debug, Default)]
pub struct Runners {
    /// The decoupled machine's reusable engine.
    pub dva: DvaRunner,
    /// The reference machine's reusable engine.
    pub reference: RefRunner,
}

impl Runners {
    /// Runners with no engines yet; first use constructs them.
    pub fn new() -> Runners {
        Runners::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_workloads::{Benchmark, Scale};

    #[test]
    fn compiled_forms_are_built_once_and_shared() {
        let program = Benchmark::Trfd.program(Scale::Quick);
        let prepared = PreparedProgram::new(&program);
        let first = Arc::as_ptr(prepared.dva());
        assert_eq!(Arc::as_ptr(prepared.dva()), first, "cached, not rebuilt");
        assert_eq!(
            prepared.reference().program().insts().as_ptr(),
            program.insts().as_ptr(),
            "compiled forms share the trace storage"
        );
        assert_eq!(prepared.ideal(), dva_core::ideal_bound(&program));
    }
}
