//! Allocation-regression tests: the engines' steady-state tick loops
//! must not touch the heap.
//!
//! The method: install a counting global allocator, compile two programs
//! of the same shape but different lengths outside the measurement, warm
//! a reusable runner (first run builds the engine's buffers), then
//! compare the allocation deltas of a short and a long run. Each run
//! pays the same small constant (the memory backend, the observers, the
//! result assembly); if the long run — thousands of additional ticks —
//! allocates exactly as much as the short one, the per-tick allocation
//! count is pinned at zero.
//!
//! The runs are measured with the per-thread count: libtest's harness
//! and the other test allocate on their own threads, and those
//! allocations never land inside this thread's window.

use dva_core::{CompiledProgram, DvaConfig, DvaRunner, DvaSim};
use dva_isa::{Program, VectorReg};
use dva_ref::{RefParams, RefRunner, RefSim};
use dva_testutil::{thread_allocation_count, vadd, vload, vstore};
use std::sync::Arc;

#[global_allocator]
static ALLOC: dva_testutil::CountingAllocator = dva_testutil::CountingAllocator;

/// `n` rounds of load → add → store over rotating registers: every
/// engine structure (AVDQ, store queues, scoreboards, FUs) cycles in
/// steady state, and the tick count scales with `n`.
fn kernel(n: usize) -> Program {
    let mut insts = Vec::new();
    for i in 0..n {
        let base = 0x10_0000 + (i as u64) * 0x4000;
        let [a, b, c] = [
            VectorReg::ALL[(2 * i) % 6],
            VectorReg::ALL[(2 * i + 1) % 6],
            VectorReg::ALL[6 + i % 2],
        ];
        insts.push(vload(a, base, 64));
        insts.push(vload(b, base + 0x1000, 64));
        insts.push(vadd(c, a, b, 64));
        insts.push(vstore(c, base + 0x2000, 64));
        // Reload what was just stored: with bypass configured this
        // exercises the pending-bypass queue and the data-ready ring.
        insts.push(vload(a, base + 0x2000, 64));
    }
    Program::from_insts("alloc-kernel", insts)
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let short = Arc::new(CompiledProgram::compile(&kernel(40)));
    let long = Arc::new(CompiledProgram::compile(&kernel(80)));

    for config in [
        DvaConfig::dva(30),
        DvaConfig::byp(30, 4, 8),
        DvaConfig::builder().latency(100).bypass(true).build(),
    ] {
        let sim = DvaSim::new(config);
        let mut runner = DvaRunner::new();
        // Warm: the first run sizes every buffer the configuration needs.
        let warm = runner.try_run(&sim, &long).unwrap();
        let measure = |runner: &mut DvaRunner, compiled: &Arc<CompiledProgram>| {
            let before = thread_allocation_count();
            let result = runner.try_run(&sim, compiled).unwrap();
            (thread_allocation_count() - before, result)
        };
        let (short_allocs, short_result) = measure(&mut runner, &short);
        let (long_allocs, long_result) = measure(&mut runner, &long);
        assert!(
            long_result.ticks_executed.get() >= short_result.ticks_executed.get() + 500,
            "the long run must execute substantially more ticks \
             ({} vs {})",
            long_result.ticks_executed.get(),
            short_result.ticks_executed.get(),
        );
        assert_eq!(
            long_allocs,
            short_allocs,
            "steady-state ticks allocated ({long_allocs} allocations over \
             {} ticks vs {short_allocs} over {}; cfg={config:?})",
            long_result.ticks_executed.get(),
            short_result.ticks_executed.get(),
        );
        // The per-run constant itself stays small: the memory backend,
        // the observers and the result assembly, nothing proportional.
        assert!(
            short_allocs < 64,
            "per-run constant allocation count grew suspiciously large \
             ({short_allocs}; cfg={config:?})"
        );
        // Reuse did not change the measurement.
        assert_eq!(warm, runner.try_run(&sim, &long).unwrap());
    }
}

#[test]
fn ref_steady_state_ticks_do_not_allocate() {
    let short = Arc::new(dva_ref::CompiledProgram::compile(&kernel(40)));
    let long = Arc::new(dva_ref::CompiledProgram::compile(&kernel(80)));
    let sim = RefSim::new(RefParams::with_latency(30));
    let mut runner = RefRunner::new();
    let _ = runner.try_run(&sim, &long).unwrap();
    let measure = |runner: &mut RefRunner, compiled: &Arc<dva_ref::CompiledProgram>| {
        let before = thread_allocation_count();
        let result = runner.try_run(&sim, compiled).unwrap();
        (thread_allocation_count() - before, result)
    };
    let (short_allocs, _) = measure(&mut runner, &short);
    let (long_allocs, long_result) = measure(&mut runner, &long);
    assert_eq!(
        long_allocs,
        short_allocs,
        "REF steady-state ticks allocated ({long_allocs} vs {short_allocs} \
         allocations; {} ticks)",
        long_result.ticks_executed.get(),
    );
    assert!(short_allocs < 32);
}
