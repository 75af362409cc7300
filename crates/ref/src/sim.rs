//! The cycle-stepped reference simulator.
//!
//! The engine is a [`dva_engine::Processor`]: it advances the in-order
//! dispatcher one tick at a time; the clock, the fast-forward stepping,
//! the watchdog and the statistics bookkeeping all live in the shared
//! [`dva_engine::Driver`].

use crate::compiled::{CompiledProgram, RefOp};
use dva_engine::{Driver, Observers, Processor, Progress, Report, ResultCore, SimError};
use dva_isa::Cycle;
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_memory::{CacheAccess, Memory, MemoryParams};
use dva_metrics::UnitState;
use dva_uarch::{ChainPolicy, FuPipe, Producer, Scoreboard, UarchParams, VectorRegFile};
use std::sync::Arc;

/// Configuration of the reference machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RefParams {
    /// Vector engine timing.
    pub uarch: UarchParams,
    /// Memory system (latency is the paper's sweep parameter).
    pub memory: MemoryParams,
}

impl ToJson for RefParams {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("uarch", &self.uarch);
            w.field("memory", &self.memory);
        })
    }
}

impl FromJson for RefParams {
    fn read_json(r: &mut Reader<'_>) -> Result<RefParams, JsonError> {
        r.object(|o| {
            Ok(RefParams {
                uarch: o.field("uarch")?,
                memory: o.field("memory")?,
            })
        })
    }
}

impl RefParams {
    /// Default microarchitecture with the given memory latency.
    pub fn with_latency(latency: u64) -> RefParams {
        RefParams {
            uarch: UarchParams::default(),
            memory: MemoryParams::with_latency(latency),
        }
    }
}

/// The reference machine's one entry point, mirroring
/// [`DvaRunner`](https://docs.rs/dva-core) on the decoupled side: each
/// [`try_run`](RefRunner::try_run) resets a reusable engine and drives it
/// to completion, byte-identical to a run on a fresh runner (the reset
/// contract), while reusing the engine's allocations across runs.
///
/// With `fast_forward` on, whenever the dispatcher stalls the engine
/// jumps straight to the next cycle at which anything can change,
/// bulk-accounting the skipped stall cycles. The results are
/// byte-identical to naive per-cycle stepping (`fast_forward` off).
///
/// # Examples
///
/// ```
/// use dva_ref::{ChainPolicy, CompiledProgram, RefParams, RefRunner};
/// use dva_workloads::{Benchmark, Scale};
/// use std::sync::Arc;
///
/// let compiled = Arc::new(CompiledProgram::compile(&Benchmark::Trfd.program(Scale::Quick)));
/// let chain = ChainPolicy::reference();
/// let mut reused = RefRunner::new();
/// for latency in [1, 30, 100] {
///     let params = RefParams::with_latency(latency);
///     let fresh = RefRunner::new().try_run(&params, chain, &compiled, true).unwrap();
///     assert_eq!(reused.try_run(&params, chain, &compiled, true).unwrap(), fresh);
/// }
/// ```
#[derive(Debug, Default)]
pub struct RefRunner {
    /// The reusable engine, built by the first run.
    engine: Option<Engine>,
}

impl RefRunner {
    /// A runner with no engine yet; the first run constructs one.
    pub fn new() -> RefRunner {
        RefRunner::default()
    }

    /// Runs `compiled` under `params` and the `chain` policy
    /// ([`ChainPolicy::reference`] is the paper's machine; the chaining
    /// ablation passes [`ChainPolicy::none`]), reusing this runner's
    /// engine allocations. The core's front-end
    /// [`stall_cycles`](ResultCore::stall_cycles) are the dispatcher's
    /// stalls. A detected deadlock comes back as a [`SimError`]; the
    /// engine is left mid-flight on error, and the next run's reset
    /// restores it, so the runner stays reusable.
    ///
    /// # Panics
    ///
    /// Panics before the first tick if `params` carries a delay above
    /// [`dva_isa::MAX_DELAY`] or a memory shape [`Memory`] refuses.
    pub fn try_run(
        &mut self,
        params: &RefParams,
        chain: ChainPolicy,
        compiled: &Arc<CompiledProgram>,
        fast_forward: bool,
    ) -> Result<ResultCore, SimError> {
        drive(self.arm(*params, chain, compiled), fast_forward)
    }

    /// Readies the engine for `params` — reset when it exists, built when
    /// it does not.
    fn arm(
        &mut self,
        params: RefParams,
        chain: ChainPolicy,
        compiled: &Arc<CompiledProgram>,
    ) -> &mut Engine {
        match &mut self.engine {
            Some(engine) => {
                engine.reset(params, chain, Arc::clone(compiled));
                engine
            }
            slot => slot.insert(Engine::new(params, chain, Arc::clone(compiled))),
        }
    }
}

/// Drives `engine` (fresh or reset) to completion through the shared
/// [`Driver`] and assembles the reference machine's result.
fn drive(engine: &mut Engine, fast_forward: bool) -> Result<ResultCore, SimError> {
    let mut observers = Observers::new();
    let completion = Driver::new()
        .fast_forward(fast_forward)
        .try_run(engine, &mut observers)?;
    let (core, _) = completion.into_core(engine, observers);
    Ok(core)
}

#[derive(Debug)]
struct Engine {
    params: RefParams,
    chain: ChainPolicy,
    now: Cycle,
    compiled: Arc<CompiledProgram>,
    pc: usize,
    regs: VectorRegFile,
    sb: Scoreboard,
    fu1: FuPipe,
    fu2: FuPipe,
    mem: Memory,
    dispatch_stalls: u64,
}

impl Engine {
    fn new(params: RefParams, chain: ChainPolicy, compiled: Arc<CompiledProgram>) -> Engine {
        Engine {
            params,
            chain,
            now: 0,
            compiled,
            pc: 0,
            regs: VectorRegFile::new(&params.uarch),
            sb: Scoreboard::new(),
            fu1: FuPipe::new("FU1"),
            fu2: FuPipe::new("FU2"),
            mem: Memory::new(params.memory),
            dispatch_stalls: 0,
        }
    }

    /// Restores the engine to its initial state for a fresh run — the
    /// same reset contract as the decoupled engine: a run after `reset`
    /// is byte-identical to a run on a freshly constructed engine.
    fn reset(&mut self, params: RefParams, chain: ChainPolicy, compiled: Arc<CompiledProgram>) {
        self.params = params;
        self.chain = chain;
        self.now = 0;
        self.compiled = compiled;
        self.pc = 0;
        self.regs = VectorRegFile::new(&params.uarch);
        self.sb = Scoreboard::new();
        self.fu1 = FuPipe::new("FU1");
        self.fu2 = FuPipe::new("FU2");
        self.mem.reset(params.memory);
        self.dispatch_stalls = 0;
    }

    fn state_at(&self, now: Cycle) -> UnitState {
        UnitState::from_flags(
            self.fu2.is_busy_at(now),
            self.fu1.is_busy_at(now),
            self.mem.busy(now),
        )
    }

    /// Attempts to issue the pre-decoded `op` at the current cycle.
    /// Returns `true` when the instruction left the dispatcher.
    fn try_issue(&mut self, op: RefOp) -> bool {
        let now = self.now;
        let startup = self.params.uarch.fu_startup;
        match op {
            RefOp::SAlu { dst, srcs } => {
                if !self.sb.all_ready(&srcs, now) {
                    return false;
                }
                self.sb.set_ready(dst, now + 1);
                true
            }
            RefOp::SLoad { dst, addr } => {
                if self.mem.probe_scalar(addr) == CacheAccess::Miss && !self.mem.port_free(now) {
                    return false;
                }
                let issue = self.mem.scalar_load(now, addr);
                self.sb.set_ready(dst, issue.data_complete_at);
                true
            }
            RefOp::SStore { src, addr } => {
                if !self.sb.is_ready(src, now) || !self.mem.port_free(now) {
                    return false;
                }
                self.mem.scalar_store(now, addr);
                true
            }
            RefOp::Branch { cond } => self.sb.is_ready(cond, now),
            RefOp::VCompute {
                dst,
                reads,
                sregs,
                general_unit,
                vl,
            } => {
                if !self.sb.all_ready(&sregs, now) {
                    return false;
                }
                if !self.regs.can_issue(now, &reads, Some(dst), self.chain) {
                    return false;
                }
                let unit = if general_unit {
                    &mut self.fu2
                } else if self.fu1.is_free(now) {
                    &mut self.fu1
                } else {
                    &mut self.fu2
                };
                if !unit.is_free(now) {
                    return false;
                }
                unit.reserve(now, vl.cycles());
                self.regs.begin_reads(now, &reads, vl.cycles());
                self.regs.begin_write(
                    dst,
                    now,
                    now + startup,
                    now + startup + vl.cycles(),
                    Producer::FunctionalUnit,
                );
                true
            }
            RefOp::VReduce { dst, src, vl } => {
                if !self.regs.can_issue(now, &[src], None, self.chain) {
                    return false;
                }
                let unit = if self.fu1.is_free(now) {
                    &mut self.fu1
                } else if self.fu2.is_free(now) {
                    &mut self.fu2
                } else {
                    return false;
                };
                unit.reserve(now, vl.cycles());
                self.regs.begin_reads(now, &[src], vl.cycles());
                // The scalar result is available once the whole vector has
                // streamed through the adder tree.
                self.sb.set_ready(dst, now + startup + vl.cycles() + 1);
                true
            }
            RefOp::VLoad { dst, vl, stride } => {
                if !self.mem.port_free(now) || !self.regs.can_issue(now, &[], Some(dst), self.chain)
                {
                    return false;
                }
                let issue = self.mem.issue_vector_load(now, vl, Some(stride));
                self.regs.begin_write(
                    dst,
                    now,
                    issue.data_first_at,
                    issue.data_complete_at,
                    Producer::MemoryLoad,
                );
                true
            }
            RefOp::VStore { src, vl, stride } => {
                if !self.mem.port_free(now) || !self.regs.can_issue(now, &[src], None, self.chain) {
                    return false;
                }
                self.mem.issue_vector_store(now, vl, Some(stride));
                self.regs.begin_reads(now, &[src], vl.cycles());
                true
            }
            RefOp::VGather { dst, index, vl } => {
                if !self.mem.port_free(now)
                    || !self.regs.can_issue(now, &[index], Some(dst), self.chain)
                {
                    return false;
                }
                let issue = self.mem.issue_vector_load(now, vl, None);
                self.regs.begin_reads(now, &[index], vl.cycles());
                self.regs.begin_write(
                    dst,
                    now,
                    issue.data_first_at,
                    issue.data_complete_at,
                    Producer::MemoryLoad,
                );
                true
            }
            RefOp::VScatter { src, index, vl } => {
                if !self.mem.port_free(now)
                    || !self.regs.can_issue(now, &[src, index], None, self.chain)
                {
                    return false;
                }
                self.mem.issue_vector_store(now, vl, None);
                self.regs.begin_reads(now, &[src, index], vl.cycles());
                true
            }
        }
    }

    /// The first cycle at which at least one address port can accept an
    /// access, given no new reservations.
    fn port_ready_at(&self, now: Cycle) -> Cycle {
        if self.mem.port_free(now) {
            now
        } else {
            self.mem.next_free_at(now).unwrap_or(now)
        }
    }

    /// The exact earliest cycle the stalled front instruction can issue,
    /// assuming the machine keeps stalling until then: the max over the
    /// same gate conditions [`Engine::try_issue`] checks, each of which
    /// only opens over time while nothing issues.
    fn wake_at(&self, now: Cycle) -> Cycle {
        let either_fu = self.fu1.free_at().min(self.fu2.free_at());
        match self.compiled.ops()[self.pc] {
            RefOp::SAlu { srcs, .. } => self.sb.ready_after(&srcs),
            RefOp::SLoad { addr, .. } => {
                if self.mem.probe_scalar(addr) == CacheAccess::Miss {
                    self.port_ready_at(now)
                } else {
                    now // a hit always issues; unreachable on a stall
                }
            }
            RefOp::SStore { src, .. } => self.sb.ready_at(src).max(self.port_ready_at(now)),
            RefOp::Branch { cond } => self.sb.ready_at(cond),
            RefOp::VCompute {
                dst,
                reads,
                sregs,
                general_unit,
                ..
            } => {
                let unit = if general_unit {
                    self.fu2.free_at()
                } else {
                    either_fu
                };
                self.sb
                    .ready_after(&sregs)
                    .max(self.regs.issue_ready_at(&reads, Some(dst), self.chain))
                    .max(unit)
            }
            RefOp::VReduce { src, .. } => self
                .regs
                .issue_ready_at(&[src], None, self.chain)
                .max(either_fu),
            RefOp::VLoad { dst, .. } => {
                self.port_ready_at(now)
                    .max(self.regs.issue_ready_at(&[], Some(dst), self.chain))
            }
            RefOp::VStore { src, .. } => {
                self.port_ready_at(now)
                    .max(self.regs.issue_ready_at(&[src], None, self.chain))
            }
            RefOp::VGather { dst, index, .. } => self
                .port_ready_at(now)
                .max(self.regs.issue_ready_at(&[index], Some(dst), self.chain)),
            RefOp::VScatter { src, index, .. } => self
                .port_ready_at(now)
                .max(self.regs.issue_ready_at(&[src, index], None, self.chain)),
        }
    }
}

impl Processor for Engine {
    fn step(&mut self, now: Cycle) -> Progress {
        self.now = now;
        let op = self.compiled.ops()[self.pc];
        if self.try_issue(op) {
            self.pc += 1;
            Progress::Advanced
        } else {
            self.dispatch_stalls += 1;
            Progress::Stalled
        }
    }

    fn is_done(&self) -> bool {
        self.pc >= self.compiled.len()
    }

    /// The earliest cycle strictly after `now` at which anything
    /// observable can change: a sampled state flag flipping (a functional
    /// unit or address port freeing), or the stalled front instruction's
    /// gates all opening. The dispatcher is the machine's only actor, so
    /// its wake time — the max over the specific gate times
    /// [`Engine::try_issue`] checks, each monotone while the machine
    /// stalls — is exact: the jump lands on the issue cycle itself
    /// instead of on every intermediate timer. `None` when the machine is
    /// fully quiet (the stalled instruction can then never issue —
    /// impossible for valid traces).
    fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        let mut next = dva_isa::EarliestAfter::new(now);
        // Sample-exactness events: the Figure 1 state tuple.
        next.consider(self.fu1.free_at());
        next.consider(self.fu2.free_at());
        next.consider_opt(self.mem.next_free_at(now));
        // The stalled instruction's precise wake time.
        next.consider(self.wake_at(now));
        next.get()
    }

    fn quiesce_at(&self) -> Cycle {
        self.regs
            .quiesce_at()
            .max(self.sb.quiesce_at())
            .max(self.fu1.free_at())
            .max(self.fu2.free_at())
            .max(self.mem.quiesce_at())
    }

    fn sample(&self, now: Cycle, obs: &mut Observers) {
        obs.record_state(self.state_at(now));
    }

    fn account_skipped(&mut self, _now: Cycle, skipped: u64) {
        self.dispatch_stalls += skipped;
    }

    fn report(&self, cycles: Cycle) -> Report {
        Report {
            insts: self.compiled.len() as u64,
            traffic: self.mem.traffic(),
            bus_utilization: self.mem.utilization(cycles),
            port_utilization: self.mem.port_utilizations(cycles),
            cache_hit_rate: self.mem.cache().hit_rate(),
            cache: self.mem.cache().stats(),
            stall_cycles: self.dispatch_stalls,
        }
    }

    fn deadlock_context(&self, _now: Cycle) -> String {
        format!(
            "REF pc={}/{} cannot issue {:?}",
            self.pc,
            self.compiled.len(),
            self.compiled.program().insts()[self.pc],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::{
        Inst, Program, ReduceOp, ScalarReg, VOperand, VectorAccess, VectorOp, VectorReg,
    };
    use dva_testutil::{vadd, vl, vload};

    fn run_program(program: &Program, latency: u64) -> ResultCore {
        let compiled = Arc::new(CompiledProgram::compile(program));
        let params = RefParams::with_latency(latency);
        RefRunner::new()
            .try_run(&params, ChainPolicy::reference(), &compiled, true)
            .unwrap()
    }

    fn run(insts: Vec<Inst>, latency: u64) -> ResultCore {
        run_program(&Program::from_insts("t", insts), latency)
    }

    #[test]
    fn single_vector_load_pays_latency_plus_vl() {
        // Load issues at cycle 0; data complete at L + VL = 30 + 64.
        let r = run(vec![vload(VectorReg::V0, 0x1000, 64)], 30);
        assert_eq!(r.cycles, 94);
        assert_eq!(r.traffic.vector_load_elems, 64);
    }

    #[test]
    fn two_loads_serialize_on_the_bus() {
        // Bus: [0,64) then [64,128); second data complete at 64+30+64.
        let r = run(
            vec![
                vload(VectorReg::V0, 0x1000, 64),
                vload(VectorReg::V2, 0x9000, 64),
            ],
            30,
        );
        assert_eq!(r.cycles, 64 + 30 + 64);
    }

    #[test]
    fn load_use_does_not_chain() {
        // add must wait for the load to be complete at 30+64=94; add then
        // takes startup+64 more.
        let startup = UarchParams::default().fu_startup;
        let r = run(
            vec![
                vload(VectorReg::V0, 0x1000, 64),
                vload(VectorReg::V2, 0x9000, 64),
                vadd(VectorReg::V4, VectorReg::V0, VectorReg::V2, 64),
            ],
            30,
        );
        // Second load complete at 64+30+64 = 158; add: 158+startup+64.
        assert_eq!(r.cycles, 158 + startup + 64);
    }

    #[test]
    fn fu_to_fu_chaining_overlaps_execution() {
        let startup = UarchParams::default().fu_startup;
        // Two dependent adds on pre-ready registers: the second chains one
        // cycle after the first's first element.
        let r = run(
            vec![
                vadd(VectorReg::V2, VectorReg::V0, VectorReg::V1, 64),
                vadd(VectorReg::V4, VectorReg::V2, VectorReg::V6, 64),
            ],
            1,
        );
        // First add: issues at 0 on FU1, first element at `startup`, done
        // at startup+64. Second chains at startup+1 (on FU2, FU1 is busy)
        // and completes at (startup+1) + startup + 64.
        assert_eq!(r.cycles, 2 * startup + 1 + 64);
    }

    #[test]
    fn store_chains_from_functional_unit() {
        let startup = UarchParams::default().fu_startup;
        let r = run(
            vec![
                vadd(VectorReg::V2, VectorReg::V0, VectorReg::V1, 32),
                Inst::VStore {
                    src: VectorReg::V2,
                    access: VectorAccess::unit(0x2000, vl(32)),
                },
            ],
            100,
        );
        // Store chains at startup+1 and holds the bus 32 cycles; stores
        // hide memory latency.
        assert_eq!(r.cycles, startup + 1 + 32);
        assert_eq!(r.traffic.vector_store_elems, 32);
    }

    #[test]
    fn scalar_code_runs_at_one_ipc() {
        let insts: Vec<Inst> = (0..100)
            .map(|_| Inst::SAlu {
                dst: ScalarReg::scalar(2),
                src1: Some(ScalarReg::scalar(2)),
                src2: None,
            })
            .collect();
        let r = run(insts, 50);
        // 100 instructions at 1 per cycle; the last result lands exactly
        // as the clock stops.
        assert_eq!(r.cycles, 100);
        assert!((r.ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_scalar_load_blocks_dispatch() {
        let r = run(
            vec![
                Inst::SLoad {
                    dst: ScalarReg::scalar(3),
                    addr: 0x100,
                },
                Inst::SAlu {
                    dst: ScalarReg::scalar(2),
                    src1: Some(ScalarReg::scalar(3)),
                    src2: None,
                },
            ],
            40,
        );
        // Miss: data at cycle 40; ALU issues at 40, result at 41.
        assert_eq!(r.cycles, 41);
        assert!(r.stall_cycles > 30);
    }

    #[test]
    fn reduction_result_reaches_scoreboard() {
        let startup = UarchParams::default().fu_startup;
        let r = run(
            vec![
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
            1,
        );
        // Reduce result at startup+16+1; SAlu one cycle later.
        assert_eq!(r.cycles, startup + 16 + 2);
    }

    #[test]
    fn mul_only_issues_on_fu2() {
        // A mul and an add can overlap (different units); two muls cannot.
        let two_muls = run(
            vec![
                Inst::VCompute {
                    op: VectorOp::Mul,
                    dst: VectorReg::V2,
                    src1: VOperand::Reg(VectorReg::V0),
                    src2: Some(VOperand::Reg(VectorReg::V1)),
                    vl: vl(64),
                },
                Inst::VCompute {
                    op: VectorOp::Mul,
                    dst: VectorReg::V4,
                    src1: VOperand::Reg(VectorReg::V6),
                    src2: Some(VOperand::Reg(VectorReg::V7)),
                    vl: vl(64),
                },
            ],
            1,
        );
        let mul_add = run(
            vec![
                Inst::VCompute {
                    op: VectorOp::Mul,
                    dst: VectorReg::V2,
                    src1: VOperand::Reg(VectorReg::V0),
                    src2: Some(VOperand::Reg(VectorReg::V1)),
                    vl: vl(64),
                },
                vadd(VectorReg::V4, VectorReg::V6, VectorReg::V7, 64),
            ],
            1,
        );
        assert!(two_muls.cycles > mul_add.cycles);
    }

    #[test]
    fn state_breakdown_accounts_every_cycle() {
        let program = dva_workloads::Benchmark::Arc2d.program(dva_workloads::Scale::Quick);
        let r = run_program(&program, 30);
        assert_eq!(r.states.total_cycles(), r.cycles);
        assert!(r.states.idle_cycles() < r.cycles);
        assert!(r.bus_utilization > 0.0 && r.bus_utilization <= 1.0);
    }

    #[test]
    fn longer_latency_never_speeds_up_execution() {
        let program = dva_workloads::Benchmark::Trfd.program(dva_workloads::Scale::Quick);
        let mut prev = 0;
        for latency in [1, 10, 30, 70, 100] {
            let r = run_program(&program, latency);
            assert!(
                r.cycles >= prev,
                "latency {latency} ran faster: {} < {prev}",
                r.cycles
            );
            prev = r.cycles;
        }
    }

    #[test]
    fn branch_waits_for_condition() {
        let r = run(
            vec![
                Inst::SLoad {
                    dst: ScalarReg::scalar(3),
                    addr: 0x100,
                },
                Inst::Branch {
                    cond: ScalarReg::scalar(3),
                    taken: true,
                },
            ],
            25,
        );
        // Branch issues once the miss returns at cycle 25.
        assert_eq!(r.cycles, 26);
    }
}
