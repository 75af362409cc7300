//! Dynamic memory disambiguation (paper, Section 4.2), exercised with
//! hand-built traces: hazards force drains, identical accesses bypass,
//! gathers/scatters conflict with everything.

use dva_isa::{Inst, Program, Stride, VOperand, VectorAccess, VectorOp, VectorReg};
use dva_sim_api::Machine;
use dva_tests::{unit, vl};

/// load a; c = a+a; store c to X; load X (identical reload).
fn store_then_reload(identical: bool) -> Program {
    let reload = if identical {
        unit(0x9000, 32)
    } else {
        // Overlapping but offset: a hazard that cannot bypass.
        VectorAccess::new(0x9008, Stride::UNIT, vl(32))
    };
    Program::from_insts(
        "reload",
        vec![
            Inst::VLoad {
                dst: VectorReg::V0,
                access: unit(0x1000, 32),
            },
            Inst::VCompute {
                op: VectorOp::Add,
                dst: VectorReg::V2,
                src1: VOperand::Reg(VectorReg::V0),
                src2: Some(VOperand::Reg(VectorReg::V0)),
                vl: vl(32),
            },
            Inst::VStore {
                src: VectorReg::V2,
                access: unit(0x9000, 32),
            },
            Inst::VLoad {
                dst: VectorReg::V4,
                access: reload,
            },
        ],
    )
}

#[test]
fn identical_reload_bypasses_when_enabled() {
    let p = store_then_reload(true);
    let byp = Machine::byp(100, 256, 16).simulate(&p);
    assert_eq!(byp.decoupled().unwrap().bypassed_loads, 1);
    assert_eq!(byp.traffic.bypassed_elems, 32);
    // Without bypass, the same trace drains instead.
    let dva = Machine::dva(100).simulate(&p);
    assert_eq!(dva.decoupled().unwrap().bypassed_loads, 0);
    assert!(
        dva.decoupled().unwrap().drain_stall_cycles > 0,
        "expected a hazard drain"
    );
    assert!(byp.cycles < dva.cycles);
}

#[test]
fn overlapping_but_different_access_drains_even_with_bypass() {
    let p = store_then_reload(false);
    let byp = Machine::byp(100, 256, 16).simulate(&p);
    assert_eq!(byp.decoupled().unwrap().bypassed_loads, 0);
    assert!(byp.decoupled().unwrap().drain_stall_cycles > 0);
}

#[test]
fn disjoint_loads_never_drain() {
    let p = Program::from_insts(
        "disjoint",
        vec![
            Inst::VLoad {
                dst: VectorReg::V0,
                access: unit(0x1000, 16),
            },
            Inst::VStore {
                src: VectorReg::V0,
                access: unit(0x2000, 16),
            },
            Inst::VLoad {
                dst: VectorReg::V2,
                access: unit(0x3000, 16),
            },
        ],
    );
    let d = Machine::dva(30).simulate(&p);
    assert_eq!(d.decoupled().unwrap().drain_stall_cycles, 0);
}

#[test]
fn scatter_blocks_subsequent_loads() {
    // A scatter defines all of memory: the next load must drain it.
    let p = Program::from_insts(
        "scatter",
        vec![
            Inst::VLoad {
                dst: VectorReg::V0,
                access: unit(0x1000, 16),
            },
            Inst::VLoad {
                dst: VectorReg::V1,
                access: unit(0x5000, 16),
            },
            Inst::VScatter {
                src: VectorReg::V0,
                index: VectorReg::V1,
                base: 0x8000,
                vl: vl(16),
            },
            Inst::VLoad {
                dst: VectorReg::V2,
                access: unit(0x2000, 16),
            },
        ],
    );
    let d = Machine::dva(30).simulate(&p);
    assert!(
        d.decoupled().unwrap().drain_stall_cycles > 0,
        "scatter must force a drain"
    );
}

#[test]
fn scalar_load_drains_matching_scalar_store() {
    use dva_isa::ScalarReg;
    let p = Program::from_insts(
        "scalar-hazard",
        vec![
            Inst::SLoad {
                dst: ScalarReg::scalar(2),
                addr: 0x100,
            },
            Inst::SStore {
                src: ScalarReg::scalar(2),
                addr: 0x200,
            },
            Inst::SLoad {
                dst: ScalarReg::scalar(3),
                addr: 0x200,
            },
        ],
    );
    // Completes correctly (no deadlock) and the dependent load observes
    // the store ordering.
    let d = Machine::dva(10).simulate(&p);
    assert!(d.cycles > 0);
}

#[test]
fn bypassed_data_flows_to_the_vector_processor() {
    // After a bypass, the consuming compute still executes — the AVDQ slot
    // delivers data to the QMOV exactly once.
    let mut insts = store_then_reload(true).insts().to_vec();
    insts.push(Inst::VCompute {
        op: VectorOp::Add,
        dst: VectorReg::V6,
        src1: VOperand::Reg(VectorReg::V4),
        src2: Some(VOperand::Reg(VectorReg::V4)),
        vl: vl(32),
    });
    let p = Program::from_insts("consume", insts);
    let byp = Machine::byp(50, 4, 8).simulate(&p);
    assert_eq!(byp.decoupled().unwrap().bypassed_loads, 1);
    assert!(byp.cycles > 0);
}
