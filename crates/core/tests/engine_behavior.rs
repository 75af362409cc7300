//! Behavioral tests of the decoupled engine on hand-built traces with
//! known timing.

use dva_core::{CompiledProgram, DvaConfig, DvaDetail, DvaRunner, QueueConfig};
use dva_engine::ResultCore;
use dva_isa::{Inst, Program, ReduceOp, ScalarReg, VectorAccess, VectorReg};
use dva_testutil::{vadd, vl, vload};
use std::sync::Arc;

/// Runs `p` under `config` on a fresh runner, fast-forward on.
fn run(config: DvaConfig, p: &Program) -> (ResultCore, DvaDetail) {
    let compiled = Arc::new(CompiledProgram::compile(p));
    DvaRunner::new().try_run(&config, &compiled, true).unwrap()
}

#[test]
fn single_load_pays_fetch_queue_and_memory_latency() {
    let p = Program::from_insts("one-load", vec![vload(VectorReg::V0, 0x1000, 64)]);
    let (d, _) = run(DvaConfig::dva(30), &p);
    // Lower bound: bus VL + latency + QMOV move; upper bound adds only a
    // handful of queue-hop cycles.
    assert!(d.cycles >= 30 + 64 + 64);
    assert!(
        d.cycles <= 30 + 64 + 64 + 16,
        "too much overhead: {}",
        d.cycles
    );
}

#[test]
fn independent_loads_pipeline_on_the_bus() {
    // Six independent loads: the bus serializes them but latency is paid
    // once, not six times.
    let insts: Vec<Inst> = (0..6)
        .map(|i| {
            vload(
                VectorReg::from_index(i).unwrap(),
                0x10000 * (i as u64 + 1),
                64,
            )
        })
        .collect();
    let p = Program::from_insts("loads", insts);
    let (d, _) = run(DvaConfig::dva(100), &p);
    // 6*64 bus cycles + one latency + drain; decoupling hides the rest.
    assert!(d.cycles < 6 * 64 + 100 + 100);
}

#[test]
fn fetch_stalls_on_full_instruction_queue_but_completes() {
    let mut config = DvaConfig::dva(50);
    config.queues = QueueConfig {
        instruction_queue: 2,
        ..config.queues
    };
    let insts: Vec<Inst> = (0..12)
        .map(|i| {
            vload(
                VectorReg::from_index(i % 8).unwrap(),
                0x10000 * (i as u64 + 1),
                32,
            )
        })
        .collect();
    let p = Program::from_insts("fp-stall", insts);
    let (d, _) = run(config, &p);
    assert!(d.stall_cycles > 0, "expected fetch back-pressure");
    assert_eq!(d.traffic.vector_load_elems, 12 * 32);
}

#[test]
fn queue_occupancy_never_exceeds_capacity() {
    let p = dva_workloads::Benchmark::Spec77.program(dva_workloads::Scale::Quick);
    let config = DvaConfig::dva(100);
    let (_, d) = run(config, &p);
    assert!(d.max_vpiq <= config.queues.instruction_queue);
    assert!(d.max_apiq <= config.queues.instruction_queue);
}

#[test]
fn reduction_round_trip_reaches_the_scalar_processor() {
    // load -> reduce -> scalar use: the value crosses VP -> VSDQ -> SP.
    let p = Program::from_insts(
        "reduce",
        vec![
            vload(VectorReg::V0, 0x1000, 16),
            Inst::VReduce {
                op: ReduceOp::Sum,
                dst: ScalarReg::scalar(1),
                src: VectorReg::V0,
                vl: vl(16),
            },
            Inst::SAlu {
                dst: ScalarReg::scalar(2),
                src1: Some(ScalarReg::scalar(1)),
                src2: None,
            },
        ],
    );
    let (d, _) = run(DvaConfig::dva(10), &p);
    // load complete (10+16), then the QMOV move; the reduce *chains* off
    // the QMOV, completes ~(4+16) later, and the result hops VSDQ → SP.
    assert!(d.cycles >= 26 + 18, "too fast: {}", d.cycles);
    assert!(d.cycles < 120, "too slow: {}", d.cycles);
}

#[test]
fn dependent_compute_chains_off_the_qmov() {
    // The QMOV unit is chainable: the add starts while the QMOV is still
    // moving elements into v0.
    let chained = Program::from_insts(
        "chain",
        vec![
            vload(VectorReg::V0, 0x1000, 128),
            vadd(VectorReg::V2, VectorReg::V0, VectorReg::V0, 128),
        ],
    );
    let (d, _) = run(DvaConfig::dva(1), &chained);
    // Without QMOV chaining this would be >= 128 (load) + 128 (QMOV) +
    // 128 (add); chaining overlaps the last two.
    assert!(
        d.cycles < 129 + 128 + 128,
        "no chaining visible: {}",
        d.cycles
    );
}

#[test]
fn store_data_queue_backpressure_blocks_vp_not_ap() {
    // Many stores with a 1-slot store queue: the VP stalls pushing data,
    // but the AP keeps prefetching loads.
    let mut insts = Vec::new();
    for i in 0..4 {
        insts.push(vload(
            VectorReg::from_index(i).unwrap(),
            0x10000 * (i as u64 + 1),
            32,
        ));
    }
    for i in 0..4 {
        insts.push(Inst::VStore {
            src: VectorReg::from_index(i).unwrap(),
            access: VectorAccess::unit(0x80000 + 0x1000 * i as u64, vl(32)),
        });
    }
    let p = Program::from_insts("sq-pressure", insts);
    let (d, _) = run(DvaSmallStoreQueue::config(), &p);
    assert_eq!(d.traffic.vector_store_elems, 4 * 32);
}

struct DvaSmallStoreQueue;
impl DvaSmallStoreQueue {
    fn config() -> DvaConfig {
        let mut config = DvaConfig::dva(20);
        config.queues.store_queue = 1;
        config
    }
}

#[test]
fn branches_resolve_on_their_owning_processor() {
    let p = Program::from_insts(
        "branches",
        vec![
            Inst::Branch {
                cond: ScalarReg::addr(0),
                taken: true,
            },
            Inst::Branch {
                cond: ScalarReg::scalar(0),
                taken: false,
            },
        ],
    );
    let (d, _) = run(DvaConfig::dva(1), &p);
    assert!(d.cycles >= 2);
    assert!(d.cycles < 10);
}

#[test]
fn empty_program_finishes_immediately() {
    let p = Program::from_insts("empty", vec![]);
    let (d, _) = run(DvaConfig::dva(100), &p);
    assert!(d.cycles <= 1);
    assert_eq!(d.insts, 0);
}
