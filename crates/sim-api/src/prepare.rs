//! Translate-once program preparation and per-worker engine reuse.

use dva_core::{DvaRunner, IdealBound};
use dva_isa::Program;
use dva_ref::RefRunner;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A program with its per-machine compiled forms, each built lazily and
/// at most once per process.
///
/// Every machine family consumes a program differently: the decoupled
/// engine replays three per-unit µop streams
/// ([`dva_core::CompiledProgram`]), the reference dispatcher replays a
/// decoded issue stream ([`dva_ref::CompiledProgram`]), and the IDEAL
/// bound is a pure function of the trace. A `PreparedProgram` is a cheap
/// handle on all three, behind [`OnceLock`]s that every handle on the
/// same instruction storage shares: a sweep grid of machines × latencies
/// × memory models, and every later job over the same program, pays each
/// translation exactly once — computed on whichever thread gets there
/// first.
///
/// The forms come from one process-wide memo keyed by the identity of
/// the program's shared instruction storage. Its entries pin that
/// storage, so an equal pointer is the same allocation and hence the
/// same instructions. It holds at most 64 programs and is cleared
/// wholesale when full, so workloads that stream unique programs
/// (property tests, a long-lived daemon) do not accumulate translations;
/// handles already taken keep their forms.
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
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// The program as the caller named it.
    program: Program,
    forms: Arc<Forms>,
}

/// The compiled forms every handle on one instruction storage shares.
#[derive(Debug, Default)]
struct Forms {
    dva: OnceLock<Arc<dva_core::CompiledProgram>>,
    reference: OnceLock<Arc<dva_ref::CompiledProgram>>,
    ideal: OnceLock<IdealBound>,
}

/// Distinct programs the memo holds before it is cleared.
const MEMO_BOUND: usize = 64;

/// The memo: instruction-storage address → a handle, whose program pins
/// that storage.
static MEMO: OnceLock<Mutex<HashMap<usize, PreparedProgram>>> = OnceLock::new();

impl PreparedProgram {
    /// The handle on `program`'s compiled forms (shares its instruction
    /// storage; nothing is compiled until a machine asks).
    pub fn new(program: &Program) -> PreparedProgram {
        let key = program.insts().as_ptr() as usize;
        // Every update leaves the map valid, so a poisoned lock is safe
        // to take over.
        let mut memo = MEMO
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let forms = match memo.get(&key) {
            Some(hit) => Arc::clone(&hit.forms),
            None => {
                if memo.len() >= MEMO_BOUND {
                    memo.clear();
                }
                let entry = PreparedProgram {
                    program: program.clone(),
                    forms: Arc::default(),
                };
                let forms = Arc::clone(&entry.forms);
                memo.insert(key, entry);
                forms
            }
        };
        PreparedProgram {
            program: program.clone(),
            forms,
        }
    }

    /// The source program, under the name it was prepared with.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The decoupled machine's compiled form, translated on first use.
    pub fn dva(&self) -> &Arc<dva_core::CompiledProgram> {
        self.forms
            .dva
            .get_or_init(|| Arc::new(dva_core::CompiledProgram::compile(&self.program)))
    }

    /// The reference machine's compiled form, decoded on first use.
    pub fn reference(&self) -> &Arc<dva_ref::CompiledProgram> {
        self.forms
            .reference
            .get_or_init(|| Arc::new(dva_ref::CompiledProgram::compile(&self.program)))
    }

    /// The IDEAL resource bound, computed on first use.
    pub fn ideal(&self) -> IdealBound {
        *self
            .forms
            .ideal
            .get_or_init(|| dva_core::ideal_bound(&self.program))
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
    use dva_isa::{Inst, ScalarReg};
    use dva_workloads::{Benchmark, Scale};

    /// Serializes the tests below: the unique-program flood clears the
    /// memo, which would split a concurrent sharing check's handles.
    static MEMO_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn compiled_forms_are_built_once_and_shared() {
        let _serial = MEMO_TESTS.lock().unwrap();
        let program = Benchmark::Trfd.program(Scale::Quick);
        let first = PreparedProgram::new(&program);
        let second = PreparedProgram::new(&program.clone());
        assert!(Arc::ptr_eq(first.dva(), second.dva()), "translated once");
        assert!(Arc::ptr_eq(first.reference(), second.reference()));
        assert_eq!(first.ideal(), dva_core::ideal_bound(&program));
        assert_eq!(second.forms.ideal.get(), Some(&first.ideal()), "bound once");
        assert_eq!(
            first.reference().program().insts().as_ptr(),
            program.insts().as_ptr(),
            "compiled forms share the trace storage"
        );
        // A renamed view shares the forms but keeps its own name.
        let renamed = PreparedProgram::new(&program.with_name("other"));
        assert!(Arc::ptr_eq(renamed.dva(), first.dva()));
        assert_eq!(renamed.program().name(), "other");
    }

    #[test]
    fn unique_programs_leave_the_memo_bounded() {
        let _serial = MEMO_TESTS.lock().unwrap();
        let memo = || MEMO.get_or_init(Mutex::default).lock().unwrap().len();
        for n in 0..200 {
            let insts = (0..=n % 7)
                .map(|i| Inst::SAlu {
                    dst: ScalarReg::scalar(i),
                    src1: None,
                    src2: None,
                })
                .collect();
            PreparedProgram::new(&Program::from_insts(format!("p{n}"), insts)).ideal();
            assert!(memo() <= MEMO_BOUND, "{} entries after {n}", memo());
        }
    }
}
