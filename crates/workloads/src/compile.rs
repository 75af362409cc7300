//! The vectorizing "compiler": lowers [`Kernel`]s to decoded instruction
//! traces.
//!
//! This module plays the role of the Convex Fortran compiler in the
//! paper's toolchain:
//!
//! * **strip-mining**: a loop over `N` elements becomes `strips` vector
//!   strips of length `VL`;
//! * **register allocation** onto the eight architectural vector
//!   registers, inserting *spill* stores and reloads to stable stack slots
//!   when pressure exceeds the register file — precisely the spill traffic
//!   the bypass mechanism of Section 7 targets;
//! * **software pipelining** (double buffering): when pressure allows,
//!   the loads of strip `s+1` are hoisted above the computation of strip
//!   `s` using the opposite half of the register file, compensating for
//!   the machine's lack of load→FU chaining — the paper notes the Convex
//!   compiler schedules with that restriction in mind;
//! * **loop overhead**: per-strip address arithmetic, scalar bookkeeping
//!   and the closing branch.

use crate::arrays::ArrayAllocator;
use crate::kernel::{Advance, KOperand, KStmt, Kernel, VVal};
use dva_isa::{
    Inst, Program, ProgramBuilder, ScalarReg, Stride, VOperand, VectorAccess, VectorLength,
    VectorReg,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Scalar bookkeeping emitted for every strip of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripOverhead {
    /// `A`-register address-arithmetic instructions.
    pub addr_ops: u32,
    /// `S`-register scalar instructions.
    pub scalar_ops: u32,
    /// Scalar loads (through the scalar cache).
    pub scalar_loads: u32,
}

impl Default for StripOverhead {
    /// Two address updates and one scalar op per strip, plus the implicit
    /// branch.
    fn default() -> Self {
        StripOverhead {
            addr_ops: 2,
            scalar_ops: 1,
            scalar_loads: 0,
        }
    }
}

/// A strip-mined vector loop: `strips` executions of a [`Kernel`] body at
/// vector length `vl`.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// The loop body.
    pub kernel: Kernel,
    /// Number of strips executed.
    pub strips: u32,
    /// Vector length of every strip.
    pub vl: u32,
    /// Ask for software pipelining (honored only when the kernel's
    /// register pressure fits half the register file and the kernel has no
    /// recurrence or in-place access).
    pub software_pipeline: bool,
    /// Per-strip scalar bookkeeping.
    pub overhead: StripOverhead,
}

impl LoopSpec {
    /// A loop with default overhead and pipelining enabled.
    pub fn new(kernel: Kernel, strips: u32, vl: u32) -> LoopSpec {
        LoopSpec {
            kernel,
            strips,
            vl,
            software_pipeline: true,
            overhead: StripOverhead::default(),
        }
    }
}

/// A stretch of purely scalar execution (scalar sections dominate weakly
/// vectorized programs such as TRFD).
#[derive(Debug, Clone, Copy)]
pub struct ScalarSection {
    /// Number of scalar instructions.
    pub insts: u32,
    /// Fraction of them that are memory accesses (alternating load/store).
    pub memory_fraction: f64,
}

/// One phase of a program: a vector loop or a scalar section.
#[derive(Debug, Clone)]
pub enum Phase {
    /// A strip-mined vector loop.
    Loop(LoopSpec),
    /// A scalar-only section.
    Scalar(ScalarSection),
}

/// A whole synthetic program: `repeat` passes over a phase list.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Program name (e.g. `"ARC2D"`).
    pub name: String,
    /// Number of passes over `phases`.
    pub repeat: u32,
    /// The phase list.
    pub phases: Vec<Phase>,
}

impl ProgramSpec {
    /// Compiles the spec into a decoded trace. Generation is fully
    /// deterministic for a given `seed`.
    pub fn compile(&self, seed: u64) -> Program {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut alloc = ArrayAllocator::new();
        let mut builder = ProgramBuilder::new(self.name.clone());
        let mut scalar_pool = ScalarAddrPool::new();
        for _ in 0..self.repeat {
            for phase in &self.phases {
                match phase {
                    Phase::Loop(spec) => {
                        compile_loop(&mut builder, &mut alloc, &mut scalar_pool, spec, &mut rng)
                    }
                    Phase::Scalar(sec) => emit_scalar_section(
                        &mut builder,
                        &mut alloc,
                        &mut scalar_pool,
                        sec,
                        &mut rng,
                    ),
                }
            }
        }
        builder.finish()
    }
}

/// Scalar register conventions used by generated code.
pub mod regs {
    use dva_isa::ScalarReg;

    /// Loop counter (address processor).
    pub fn loop_counter() -> ScalarReg {
        ScalarReg::addr(0)
    }
    /// Address-arithmetic temporary.
    pub fn addr_temp() -> ScalarReg {
        ScalarReg::addr(1)
    }
    /// Address derived from a recurrent reduction (the lockstep path).
    pub fn recurrence_addr() -> ScalarReg {
        ScalarReg::addr(2)
    }
    /// Broadcast scalar operand of vector computations.
    pub fn broadcast() -> ScalarReg {
        ScalarReg::scalar(0)
    }
    /// Reduction result.
    pub fn reduction() -> ScalarReg {
        ScalarReg::scalar(1)
    }
    /// Scalar compute accumulator.
    pub fn scalar_acc() -> ScalarReg {
        ScalarReg::scalar(2)
    }
    /// Scalar load destination.
    pub fn scalar_load_dst() -> ScalarReg {
        ScalarReg::scalar(3)
    }
}

/// A pool of recently-touched scalar addresses: 80% of scalar accesses
/// revisit the working set (cache hits), the rest touch fresh lines.
#[derive(Debug)]
struct ScalarAddrPool {
    recent: VecDeque<u64>,
}

impl ScalarAddrPool {
    fn new() -> ScalarAddrPool {
        ScalarAddrPool {
            recent: VecDeque::new(),
        }
    }

    fn next(&mut self, alloc: &mut ArrayAllocator, rng: &mut SmallRng) -> u64 {
        if !self.recent.is_empty() && rng.gen_bool(0.8) {
            let idx = rng.gen_range(0..self.recent.len());
            self.recent[idx]
        } else {
            let addr = alloc.scalar_addr();
            self.recent.push_back(addr);
            if self.recent.len() > 32 {
                self.recent.pop_front();
            }
            addr
        }
    }
}

/// Where a virtual value currently lives during allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(VectorReg),
    Spilled(u64),
    /// Defined but dead (no remaining uses) and evicted.
    Gone,
}

/// Code for one strip, split so the loads can be software-pipelined ahead.
#[derive(Debug, Default)]
struct StripCode {
    /// The leading run of loads (hoistable).
    loads: Vec<Inst>,
    /// Everything else: computation, stores, spill code, recurrence ALU.
    rest: Vec<Inst>,
}

/// The schedule a kernel compiles under: its statements with hoistable
/// loads moved to the front (loads carry no input dependences, so any load
/// appearing before the first store/scatter may legally lead the strip —
/// this is what lets the machine overlap next-strip loads with current
/// computation despite the lack of load chaining).
#[derive(Debug, Clone)]
struct Schedule {
    stmts: Vec<KStmt>,
    hoisted: usize,
}

impl Schedule {
    fn of(kernel: &Kernel) -> Schedule {
        let mut loads = Vec::new();
        let mut rest = Vec::new();
        let mut seen_store = false;
        for stmt in kernel.stmts() {
            let is_store = matches!(stmt, KStmt::Store { .. } | KStmt::Scatter { .. });
            if !seen_store && matches!(stmt, KStmt::Load { .. }) {
                loads.push(stmt.clone());
            } else {
                seen_store = seen_store || is_store;
                rest.push(stmt.clone());
            }
        }
        let hoisted = loads.len();
        loads.extend(rest);
        Schedule {
            stmts: loads,
            hoisted,
        }
    }

    /// Register pressure of the scheduled order (destination counted live
    /// alongside its operands, matching the allocator).
    fn pressure(&self, num_vals: u32) -> usize {
        let n = num_vals as usize;
        let mut last_use = vec![0usize; n];
        for (i, stmt) in self.stmts.iter().enumerate() {
            for used in stmt.uses().into_iter().flatten() {
                last_use[used.0 as usize] = i;
            }
        }
        let mut live = vec![false; n];
        let mut max = 0usize;
        for (i, stmt) in self.stmts.iter().enumerate() {
            if let Some(def) = stmt.def() {
                live[def.0 as usize] = true;
            }
            max = max.max(live.iter().filter(|&&l| l).count());
            for used in stmt.uses().into_iter().flatten() {
                if last_use[used.0 as usize] == i {
                    live[used.0 as usize] = false;
                }
            }
        }
        max
    }
}

/// Per-strip linear-scan register allocator over a [`Schedule`].
struct StripAlloc<'a> {
    kernel_name: &'a str,
    vl: VectorLength,
    strip: u32,
    free: VecDeque<VectorReg>,
    loc: Vec<Loc>,
    owner: [Option<VVal>; 8],
    /// use_positions[v] = sorted schedule indices that read v.
    use_positions: Vec<Vec<usize>>,
    out: Vec<Inst>,
}

impl<'a> StripAlloc<'a> {
    fn new(
        kernel_name: &'a str,
        schedule: &'a Schedule,
        num_vals: u32,
        vl: VectorLength,
        strip: u32,
        pool: &[VectorReg],
    ) -> StripAlloc<'a> {
        let n = num_vals as usize;
        let mut use_positions = vec![Vec::new(); n];
        for (i, stmt) in schedule.stmts.iter().enumerate() {
            for used in stmt.uses().into_iter().flatten() {
                use_positions[used.0 as usize].push(i);
            }
        }
        StripAlloc {
            kernel_name,
            vl,
            strip,
            free: pool.iter().copied().collect(),
            loc: vec![Loc::Gone; n],
            owner: [None; 8],
            use_positions,
            out: Vec::new(),
        }
    }

    fn next_use_after(&self, v: VVal, pos: usize) -> Option<usize> {
        self.use_positions[v.0 as usize]
            .iter()
            .copied()
            .find(|&u| u > pos)
    }

    fn spill_slot(&self, alloc: &mut ArrayAllocator, v: VVal) -> u64 {
        alloc.spill_slot(self.kernel_name, v.0)
    }

    /// Allocates a register, spilling the live value with the furthest
    /// next use when none are free. `locked` registers (operands of the
    /// current statement) are never spilled.
    fn alloc_reg(
        &mut self,
        alloc: &mut ArrayAllocator,
        pos: usize,
        locked: &[VectorReg],
    ) -> VectorReg {
        if let Some(r) = self.free.pop_front() {
            return r;
        }
        // Pick the victim with the furthest next use (dead values were
        // already freed, so every owner has a future use or is current).
        let mut victim: Option<(VectorReg, VVal, usize)> = None;
        for (idx, owner) in self.owner.iter().enumerate() {
            let Some(v) = owner else { continue };
            let reg = VectorReg::from_index(idx).expect("owner index in range");
            if locked.contains(&reg) {
                continue;
            }
            let nu = self.next_use_after(*v, pos).unwrap_or(usize::MAX);
            if victim.is_none_or(|(_, _, best)| nu > best) {
                victim = Some((reg, *v, nu));
            }
        }
        let (reg, v, _) = victim.expect("register pool exhausted by one statement");
        let slot = self.spill_slot(alloc, v);
        self.out.push(Inst::VStore {
            src: reg,
            access: VectorAccess::unit(slot, self.vl),
        });
        self.loc[v.0 as usize] = Loc::Spilled(slot);
        self.owner[reg.index()] = None;
        reg
    }

    fn bind(&mut self, v: VVal, reg: VectorReg) {
        self.loc[v.0 as usize] = Loc::Reg(reg);
        self.owner[reg.index()] = Some(v);
    }

    /// Ensures `v` is in a register, reloading from its spill slot if
    /// needed.
    fn ensure_reg(
        &mut self,
        alloc: &mut ArrayAllocator,
        v: VVal,
        pos: usize,
        locked: &[VectorReg],
    ) -> VectorReg {
        match self.loc[v.0 as usize] {
            Loc::Reg(r) => r,
            Loc::Spilled(slot) => {
                let r = self.alloc_reg(alloc, pos, locked);
                self.out.push(Inst::VLoad {
                    dst: r,
                    access: VectorAccess::unit(slot, self.vl),
                });
                self.bind(v, r);
                r
            }
            Loc::Gone => panic!(
                "kernel {}: value {v} used at statement {pos} but dead",
                self.kernel_name
            ),
        }
    }

    /// Releases values whose last use is at or before `pos`.
    fn release_dead(&mut self, uses: &[Option<VVal>], pos: usize) {
        for v in uses.iter().flatten() {
            if self.next_use_after(*v, pos).is_none() {
                if let Loc::Reg(r) = self.loc[v.0 as usize] {
                    self.loc[v.0 as usize] = Loc::Gone;
                    self.owner[r.index()] = None;
                    self.free.push_back(r);
                }
            }
        }
    }

    fn access(
        &self,
        alloc: &mut ArrayAllocator,
        array: &str,
        stride: i64,
        advance: Advance,
    ) -> VectorAccess {
        let base = alloc.array_base(array);
        let offset = match advance {
            Advance::Sequential => {
                u64::from(self.strip) * self.vl.cycles() * stride.unsigned_abs() * 8
            }
            Advance::InPlace => 0,
        };
        VectorAccess::new(base + offset, Stride::new(stride), self.vl)
    }

    /// Lowers one kernel statement, returning emitted instructions via
    /// `self.out`.
    fn lower(&mut self, alloc: &mut ArrayAllocator, pos: usize, stmt: &KStmt) {
        // Bring all uses into registers first.
        let uses = stmt.uses();
        let mut locked: Vec<VectorReg> = Vec::with_capacity(3);
        let mut use_regs: [Option<VectorReg>; 2] = [None, None];
        for (slot, v) in uses.iter().enumerate() {
            if let Some(v) = v {
                let r = self.ensure_reg(alloc, *v, pos, &locked);
                locked.push(r);
                use_regs[slot] = Some(r);
            }
        }
        // Allocate the destination, if any.
        let def_reg = stmt.def().map(|d| {
            let r = self.alloc_reg(alloc, pos, &locked);
            self.bind(d, r);
            r
        });

        let vl = self.vl;
        match stmt {
            KStmt::Load {
                array,
                stride,
                advance,
                ..
            } => {
                let access = self.access(alloc, array, *stride, *advance);
                self.out.push(Inst::VLoad {
                    dst: def_reg.expect("load defines"),
                    access,
                });
            }
            KStmt::Store {
                array,
                stride,
                advance,
                ..
            } => {
                let access = self.access(alloc, array, *stride, *advance);
                self.out.push(Inst::VStore {
                    src: use_regs[0].expect("store uses"),
                    access,
                });
            }
            KStmt::Gather { array, .. } => {
                let base = alloc.array_base(array);
                self.out.push(Inst::VGather {
                    dst: def_reg.expect("gather defines"),
                    index: use_regs[0].expect("gather uses index"),
                    base,
                    vl,
                });
            }
            KStmt::Scatter { array, .. } => {
                let base = alloc.array_base(array);
                self.out.push(Inst::VScatter {
                    src: use_regs[0].expect("scatter uses src"),
                    index: use_regs[1].expect("scatter uses index"),
                    base,
                    vl,
                });
            }
            KStmt::Unary { op, .. } => {
                self.out.push(Inst::VCompute {
                    op: *op,
                    dst: def_reg.expect("unary defines"),
                    src1: VOperand::Reg(use_regs[0].expect("unary uses")),
                    src2: None,
                    vl,
                });
            }
            KStmt::Binary { op, b, .. } => {
                let src2 = match b {
                    KOperand::Val(_) => VOperand::Reg(use_regs[1].expect("binary uses b")),
                    KOperand::Scalar => VOperand::Scalar(regs::broadcast()),
                };
                self.out.push(Inst::VCompute {
                    op: *op,
                    dst: def_reg.expect("binary defines"),
                    src1: VOperand::Reg(use_regs[0].expect("binary uses a")),
                    src2: Some(src2),
                    vl,
                });
            }
            KStmt::Reduce { op, recurrent, .. } => {
                self.out.push(Inst::VReduce {
                    op: *op,
                    dst: regs::reduction(),
                    src: use_regs[0].expect("reduce uses"),
                    vl,
                });
                if *recurrent {
                    // Address computation consuming the reduction result:
                    // the distance-1 dependence that serializes the
                    // processors.
                    self.out.push(Inst::SAlu {
                        dst: regs::recurrence_addr(),
                        src1: Some(regs::reduction()),
                        src2: None,
                    });
                }
            }
        }
        self.release_dead(&uses, pos);
    }
}

/// Generates the code for one strip. `pool` is the register half (or the
/// whole file) this strip may use.
fn gen_strip(
    alloc: &mut ArrayAllocator,
    kernel: &Kernel,
    schedule: &Schedule,
    vl: VectorLength,
    strip: u32,
    pool: &[VectorReg],
) -> StripCode {
    let mut sa = StripAlloc::new(kernel.name(), schedule, kernel.num_vals(), vl, strip, pool);
    let mut code = StripCode::default();
    let stmts: Vec<KStmt> = schedule.stmts.clone();
    for (pos, stmt) in stmts.iter().enumerate() {
        sa.lower(alloc, pos, stmt);
        let sink = if pos < schedule.hoisted {
            &mut code.loads
        } else {
            &mut code.rest
        };
        sink.append(&mut sa.out);
    }
    code
}

fn emit_overhead(
    builder: &mut ProgramBuilder,
    alloc: &mut ArrayAllocator,
    pool: &mut ScalarAddrPool,
    overhead: &StripOverhead,
    rng: &mut SmallRng,
) {
    for i in 0..overhead.addr_ops {
        let dst = if i == 0 {
            regs::loop_counter()
        } else {
            regs::addr_temp()
        };
        builder.push(Inst::SAlu {
            dst,
            src1: Some(regs::loop_counter()),
            src2: None,
        });
    }
    for _ in 0..overhead.scalar_ops {
        builder.push(Inst::SAlu {
            dst: regs::scalar_acc(),
            src1: Some(regs::scalar_acc()),
            src2: None,
        });
    }
    for _ in 0..overhead.scalar_loads {
        let addr = pool.next(alloc, rng);
        builder.push(Inst::SLoad {
            dst: regs::scalar_load_dst(),
            addr,
        });
    }
}

/// Whether a kernel has the exact `load a; load b; c = a op b; store c`
/// shape (with sequential accesses) that the compiler can modulo-schedule
/// at depth 2: loads hoisted *two* strips ahead using three rotating
/// register pairs plus two alternating result registers — 8 registers,
/// exactly the architectural file. This is how the Convex compiler keeps
/// the paper's 3-chime DYFESM loop at its resource bound even at long
/// memory latencies.
fn is_triad_shape(kernel: &Kernel) -> bool {
    let stmts = kernel.stmts();
    if stmts.len() != 4 {
        return false;
    }
    let seq_load = |s: &KStmt| {
        matches!(
            s,
            KStmt::Load {
                advance: Advance::Sequential,
                ..
            }
        )
    };
    let (KStmt::Binary { dst, a, b, .. }, KStmt::Store { src, advance, .. }) =
        (&stmts[2], &stmts[3])
    else {
        return false;
    };
    seq_load(&stmts[0])
        && seq_load(&stmts[1])
        && *advance == Advance::Sequential
        && src == dst
        && stmts[0].def() == Some(*a)
        && stmts[1].def().map(KOperand::Val) == Some(*b)
}

/// Depth-2 modulo schedule for triad-shaped loops: loads of strip `s+2`
/// issue before the computation of strip `s`.
fn compile_loop_depth2(
    builder: &mut ProgramBuilder,
    alloc: &mut ArrayAllocator,
    pool: &mut ScalarAddrPool,
    spec: &LoopSpec,
    rng: &mut SmallRng,
) {
    let kernel = &spec.kernel;
    let vl = VectorLength::clamped(spec.vl);
    // Three rotating load-register pairs and two alternating results. The
    // pairs are chosen so the two loads of a strip live in *different*
    // banks (a load holds its bank's single write port for L+VL cycles)
    // and consecutive strips do not revisit a bank before its port frees.
    const LOAD_GROUPS: [[VectorReg; 2]; 3] = [
        [VectorReg::V0, VectorReg::V2],
        [VectorReg::V4, VectorReg::V1],
        [VectorReg::V3, VectorReg::V5],
    ];
    const RESULTS: [VectorReg; 2] = [VectorReg::V6, VectorReg::V7];

    let (arrays, op, scalar_b, store_array): (Vec<(String, i64)>, _, bool, (String, i64)) = {
        let mut loads = Vec::new();
        let mut op = None;
        let mut scalar_b = false;
        let mut store = None;
        for stmt in kernel.stmts() {
            match stmt {
                KStmt::Load { array, stride, .. } => loads.push((array.clone(), *stride)),
                KStmt::Binary { op: o, b, .. } => {
                    op = Some(*o);
                    scalar_b = matches!(b, KOperand::Scalar);
                }
                KStmt::Store { array, stride, .. } => store = Some((array.clone(), *stride)),
                _ => unreachable!("is_triad_shape guarantees the statement mix"),
            }
        }
        (loads, op.expect("binary"), scalar_b, store.expect("store"))
    };
    let emit_loads = |builder: &mut ProgramBuilder, alloc: &mut ArrayAllocator, s: u32| {
        let group = LOAD_GROUPS[(s as usize) % 3];
        for (i, (array, stride)) in arrays.iter().enumerate() {
            let base =
                alloc.array_base(array) + u64::from(s) * vl.cycles() * stride.unsigned_abs() * 8;
            builder.push(Inst::VLoad {
                dst: group[i],
                access: VectorAccess::new(base, Stride::new(*stride), vl),
            });
        }
    };
    let branch = |taken: bool| Inst::Branch {
        cond: regs::loop_counter(),
        taken,
    };

    // Prologue: two strips of loads in flight before any computation.
    for s in 0..spec.strips.min(2) {
        emit_overhead(builder, alloc, pool, &spec.overhead, rng);
        emit_loads(builder, alloc, s);
    }
    for s in 0..spec.strips {
        if s + 2 < spec.strips {
            emit_overhead(builder, alloc, pool, &spec.overhead, rng);
            emit_loads(builder, alloc, s + 2);
        }
        let group = LOAD_GROUPS[(s as usize) % 3];
        let result = RESULTS[(s as usize) % 2];
        let src2 = if scalar_b {
            VOperand::Scalar(regs::broadcast())
        } else {
            VOperand::Reg(group[1])
        };
        builder.push(Inst::VCompute {
            op,
            dst: result,
            src1: VOperand::Reg(group[0]),
            src2: Some(src2),
            vl,
        });
        let (array, stride) = &store_array;
        let base = alloc.array_base(array) + u64::from(s) * vl.cycles() * stride.unsigned_abs() * 8;
        builder.push(Inst::VStore {
            src: result,
            access: VectorAccess::new(base, Stride::new(*stride), vl),
        });
        builder.push(branch(s + 1 < spec.strips));
    }
}

/// Compiles one strip-mined loop into the trace.
fn compile_loop(
    builder: &mut ProgramBuilder,
    alloc: &mut ArrayAllocator,
    pool: &mut ScalarAddrPool,
    spec: &LoopSpec,
    rng: &mut SmallRng,
) {
    let kernel = &spec.kernel;
    kernel.validate();
    let vl = VectorLength::clamped(spec.vl);
    let has_in_place = kernel.stmts().iter().any(|s| {
        matches!(
            s,
            KStmt::Load {
                advance: Advance::InPlace,
                ..
            } | KStmt::Store {
                advance: Advance::InPlace,
                ..
            }
        )
    });
    if spec.software_pipeline && spec.strips >= 3 && is_triad_shape(kernel) {
        return compile_loop_depth2(builder, alloc, pool, spec, rng);
    }
    let schedule = Schedule::of(kernel);
    let pipelined = spec.software_pipeline
        && spec.strips >= 2
        && schedule.pressure(kernel.num_vals()) <= 4
        && !kernel.has_recurrence()
        && !has_in_place;

    const HALF_A: [VectorReg; 4] = [VectorReg::V0, VectorReg::V1, VectorReg::V2, VectorReg::V3];
    const HALF_B: [VectorReg; 4] = [VectorReg::V4, VectorReg::V5, VectorReg::V6, VectorReg::V7];

    let branch = |taken: bool| Inst::Branch {
        cond: regs::loop_counter(),
        taken,
    };

    if pipelined {
        let pool_for = |s: u32| -> &[VectorReg] {
            if s.is_multiple_of(2) {
                &HALF_A
            } else {
                &HALF_B
            }
        };
        // Prologue: overhead and loads of strip 0.
        emit_overhead(builder, alloc, pool, &spec.overhead, rng);
        let mut current = gen_strip(alloc, kernel, &schedule, vl, 0, pool_for(0));
        builder.extend(current.loads.drain(..));
        for s in 0..spec.strips {
            let next = if s + 1 < spec.strips {
                emit_overhead(builder, alloc, pool, &spec.overhead, rng);
                let mut next = gen_strip(alloc, kernel, &schedule, vl, s + 1, pool_for(s + 1));
                builder.extend(next.loads.drain(..));
                Some(next)
            } else {
                None
            };
            builder.extend(current.rest.drain(..));
            builder.push(branch(s + 1 < spec.strips));
            if let Some(next) = next {
                current = next;
            }
        }
    } else {
        for s in 0..spec.strips {
            emit_overhead(builder, alloc, pool, &spec.overhead, rng);
            let mut code = gen_strip(alloc, kernel, &schedule, vl, s, &VectorReg::ALL);
            builder.extend(code.loads.drain(..));
            builder.extend(code.rest.drain(..));
            builder.push(branch(s + 1 < spec.strips));
        }
    }
}

fn emit_scalar_section(
    builder: &mut ProgramBuilder,
    alloc: &mut ArrayAllocator,
    pool: &mut ScalarAddrPool,
    sec: &ScalarSection,
    rng: &mut SmallRng,
) {
    // Several independent dependence chains, as real scalar code has:
    // four accumulators and two load destinations rotate, so a load's
    // consumer sits a few instructions downstream instead of immediately
    // after it.
    let accs = [
        regs::scalar_acc(),
        ScalarReg::scalar(4),
        ScalarReg::scalar(5),
        ScalarReg::scalar(6),
    ];
    let load_dsts = [regs::scalar_load_dst(), ScalarReg::scalar(7)];
    let mut store_next = false;
    for i in 0..sec.insts {
        let i = i as usize;
        if rng.gen_bool(sec.memory_fraction) {
            let addr = pool.next(alloc, rng);
            if store_next {
                builder.push(Inst::SStore {
                    src: accs[i % accs.len()],
                    addr,
                });
            } else {
                builder.push(Inst::SLoad {
                    dst: load_dsts[i % load_dsts.len()],
                    addr,
                });
            }
            store_next = !store_next;
        } else {
            let acc = accs[i % accs.len()];
            builder.push(Inst::SAlu {
                dst: acc,
                src1: Some(acc),
                src2: Some(load_dsts[(i / 2) % load_dsts.len()]),
            });
        }
        // A branch roughly every 16 instructions keeps basic blocks
        // scalar-section sized.
        if i % 16 == 15 {
            builder.push(Inst::Branch {
                cond: accs[i % accs.len()],
                taken: rng.gen_bool(0.5),
            });
        }
    }
    builder.end_block();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::VectorOp;

    fn daxpy() -> Kernel {
        let mut k = Kernel::new("daxpy");
        let x = k.load("x");
        let ax = k.mul_scalar(x);
        let y = k.load("y");
        let s = k.add(ax, y);
        k.store(s, "y");
        k
    }

    fn compile_one(spec: LoopSpec) -> Program {
        let prog = ProgramSpec {
            name: "test".into(),
            repeat: 1,
            phases: vec![Phase::Loop(spec)],
        };
        prog.compile(42)
    }

    #[test]
    fn daxpy_strip_has_expected_shape() {
        let program = compile_one(LoopSpec::new(daxpy(), 4, 64));
        let s = program.summary();
        // 5 vector insts per strip, no spills (pressure 2).
        assert_eq!(s.vector_insts, 20);
        assert_eq!(s.vector_ops, 20 * 64);
        assert_eq!(program.basic_blocks(), 4);
    }

    #[test]
    fn pipelined_loop_hoists_next_strip_loads() {
        let program = compile_one(LoopSpec::new(daxpy(), 3, 32));
        // Count loads appearing before the first VCompute: prologue must
        // contain strip 0's loads... and the loop body should interleave.
        let insts = program.insts();
        let first_compute = insts
            .iter()
            .position(|i| matches!(i, Inst::VCompute { .. }))
            .unwrap();
        let loads_before: usize = insts[..first_compute]
            .iter()
            .filter(|i| matches!(i, Inst::VLoad { .. }))
            .count();
        // Strip 0's two loads plus strip 1's two hoisted loads.
        assert_eq!(loads_before, 4);
    }

    #[test]
    fn pipelined_strips_alternate_register_halves() {
        let program = compile_one(LoopSpec::new(daxpy(), 2, 16));
        let mut low = false;
        let mut high = false;
        for inst in program.insts() {
            if let Inst::VLoad { dst, .. } = inst {
                if dst.index() < 4 {
                    low = true;
                } else {
                    high = true;
                }
            }
        }
        assert!(low && high, "expected both register halves in use");
    }

    #[test]
    fn high_pressure_kernel_spills_to_stable_slots() {
        // 10 values live at once: guaranteed spills with 8 registers.
        let mut k = Kernel::new("fat");
        let loads: Vec<_> = (0..10).map(|i| k.load(format!("a{i}"))).collect();
        let mut acc = loads[0];
        for &l in loads.iter().skip(1).rev() {
            acc = k.add(acc, l);
        }
        k.store(acc, "out");
        assert!(k.max_pressure() > 8);

        let program = compile_one(LoopSpec {
            kernel: k,
            strips: 2,
            vl: 32,
            software_pipeline: false,
            overhead: StripOverhead::default(),
        });
        // Spill slots live at 0x8000_0000 and up.
        let mut spill_stores = Vec::new();
        let mut spill_loads = Vec::new();
        for inst in program.insts() {
            match inst {
                Inst::VStore { access, .. } if access.base >= 0x8000_0000 => {
                    spill_stores.push(access.base)
                }
                Inst::VLoad { access, .. } if access.base >= 0x8000_0000 => {
                    spill_loads.push(access.base)
                }
                _ => {}
            }
        }
        assert!(!spill_stores.is_empty(), "expected spill stores");
        assert!(!spill_loads.is_empty(), "expected spill reloads");
        // Every reload address matches some earlier spill store (identical
        // accesses — bypass candidates).
        for l in &spill_loads {
            assert!(spill_stores.contains(l));
        }
    }

    #[test]
    fn recurrent_reduce_emits_address_alu_after_reduce() {
        let mut k = Kernel::new("rec");
        let v = k.load("x");
        let t = k.add_scalar(v);
        k.reduce_recurrent(dva_isa::ReduceOp::Sum, t);
        let program = compile_one(LoopSpec {
            kernel: k,
            strips: 2,
            vl: 32,
            software_pipeline: true, // must be refused due to recurrence
            overhead: StripOverhead::default(),
        });
        let insts = program.insts();
        let reduce_pos = insts
            .iter()
            .position(|i| matches!(i, Inst::VReduce { .. }))
            .unwrap();
        assert!(matches!(
            insts[reduce_pos + 1],
            Inst::SAlu {
                src1: Some(s),
                ..
            } if s == regs::reduction()
        ));
    }

    #[test]
    fn scalar_sections_emit_mixed_scalar_code() {
        let prog = ProgramSpec {
            name: "scal".into(),
            repeat: 1,
            phases: vec![Phase::Scalar(ScalarSection {
                insts: 64,
                memory_fraction: 0.3,
            })],
        };
        let program = prog.compile(7);
        let s = program.summary();
        assert_eq!(s.vector_insts, 0);
        assert!(s.scalar_insts >= 64);
        assert!(s.scalar_mem_insts > 5);
        assert!(program.basic_blocks() >= 2);
    }

    #[test]
    fn in_place_kernel_reuses_addresses_across_strips() {
        let mut k = Kernel::new("inplace");
        let v = k.load_in_place("state");
        let t = k.mul_scalar(v);
        k.store_in_place(t, "state");
        let program = compile_one(LoopSpec::new(k, 3, 16));
        let mut load_bases = Vec::new();
        let mut store_bases = Vec::new();
        for inst in program.insts() {
            match inst {
                Inst::VLoad { access, .. } => load_bases.push(access.base),
                Inst::VStore { access, .. } => store_bases.push(access.base),
                _ => {}
            }
        }
        assert!(load_bases.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(load_bases[0], store_bases[0]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = ProgramSpec {
            name: "det".into(),
            repeat: 2,
            phases: vec![
                Phase::Loop(LoopSpec::new(daxpy(), 3, 48)),
                Phase::Scalar(ScalarSection {
                    insts: 20,
                    memory_fraction: 0.5,
                }),
            ],
        };
        assert_eq!(spec.compile(99), spec.compile(99));
        assert_ne!(spec.compile(99), spec.compile(100));
    }

    #[test]
    fn mul_requires_general_unit_in_lowered_code() {
        let program = compile_one(LoopSpec::new(daxpy(), 1, 8));
        let has_mul = program.insts().iter().any(|i| {
            matches!(
                i,
                Inst::VCompute {
                    op: VectorOp::Mul,
                    ..
                }
            )
        });
        assert!(has_mul);
    }
}
