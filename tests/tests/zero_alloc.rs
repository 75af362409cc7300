//! Allocation-regression tests: the engines' steady-state tick loops
//! must not touch the heap.
//!
//! The method: install a counting global allocator, compile two programs
//! of the same shape but different lengths outside the measurement, warm
//! a reusable runner (first run builds the engine's buffers), then
//! compare the allocation deltas of a short and a long run. Each run
//! pays the same small constant (the memory, the observers, the
//! result assembly); if the long run — thousands of additional ticks —
//! allocates exactly as much as the short one, the per-tick allocation
//! count is pinned at zero.
//!
//! The runs are measured with the per-thread count: libtest's harness
//! and the other test allocate on their own threads, and those
//! allocations never land inside this thread's window.

use dva_core::{CompiledProgram, DvaConfig, DvaRunner};
use dva_isa::{Program, VectorReg};
use dva_ref::{ChainPolicy, RefParams, RefRunner};
use dva_sim_api::MemoryModelKind;
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
        DvaConfig {
            bypass: true,
            ..DvaConfig::dva(100)
        },
    ] {
        let mut runner = DvaRunner::new();
        // Warm: the first run sizes every buffer the configuration needs.
        let warm = runner.try_run(&config, &long, true).unwrap();
        let measure = |runner: &mut DvaRunner, compiled: &Arc<CompiledProgram>| {
            let before = thread_allocation_count();
            let (core, _) = runner.try_run(&config, compiled, true).unwrap();
            (thread_allocation_count() - before, core)
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
        // The per-run constant is exact: the occupancy histogram and the
        // per-port utilization list of the result. The memory
        // and every queue keep their storage across resets.
        assert_eq!(
            short_allocs, 2,
            "per-run allocations changed (cfg={config:?})"
        );
        // Reuse did not change the measurement.
        assert_eq!(warm, runner.try_run(&config, &long, true).unwrap());
    }
}

#[test]
fn ref_steady_state_ticks_do_not_allocate() {
    let short = Arc::new(dva_ref::CompiledProgram::compile(&kernel(40)));
    let long = Arc::new(dva_ref::CompiledProgram::compile(&kernel(80)));
    let params = RefParams::with_latency(30);
    let chain = ChainPolicy::reference();
    let mut runner = RefRunner::new();
    let _ = runner.try_run(&params, chain, &long, true).unwrap();
    let measure = |runner: &mut RefRunner, compiled: &Arc<dva_ref::CompiledProgram>| {
        let before = thread_allocation_count();
        let result = runner.try_run(&params, chain, compiled, true).unwrap();
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
    // The per-port utilization list of the result, and nothing else:
    // the memory keeps its storage across resets.
    assert_eq!(short_allocs, 1, "REF per-run allocations changed");
}

/// A run on another memory kind reuses the memory's port and cache-tag
/// storage: after a flat warm-up, a banked run allocates exactly the
/// per-run constant of a same-kind run.
#[test]
fn a_memory_kind_change_keeps_the_storage() {
    let banked = MemoryModelKind::Banked {
        banks: 8,
        bank_busy: 8,
    };
    let program = kernel(40);

    let flat = DvaConfig::dva(30);
    let mut config = flat;
    config.memory.model = banked;
    let compiled = Arc::new(CompiledProgram::compile(&program));
    let mut runner = DvaRunner::new();
    let _ = runner.try_run(&flat, &compiled, true).unwrap();
    let before = thread_allocation_count();
    let result = runner.try_run(&config, &compiled, true).unwrap();
    assert_eq!(thread_allocation_count() - before, 2, "DVA flat → banked");
    let fresh = DvaRunner::new().try_run(&config, &compiled, true);
    assert_eq!(result, fresh.unwrap());

    let flat = RefParams::with_latency(30);
    let mut params = flat;
    params.memory.model = banked;
    let compiled = Arc::new(dva_ref::CompiledProgram::compile(&program));
    let chain = ChainPolicy::reference();
    let mut runner = RefRunner::new();
    let _ = runner.try_run(&flat, chain, &compiled, true).unwrap();
    let before = thread_allocation_count();
    let result = runner.try_run(&params, chain, &compiled, true).unwrap();
    assert_eq!(thread_allocation_count() - before, 1, "REF flat → banked");
    let fresh = RefRunner::new().try_run(&params, chain, &compiled, true);
    assert_eq!(result, fresh.unwrap());
}
