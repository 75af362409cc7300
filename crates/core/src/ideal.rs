//! The IDEAL lower bound of Section 5.
//!
//! "To compute the lower bound … we consider what would be the execution
//! time if there were no dependencies at all. We consider only resource
//! constraints … Given that our two architectures both have essentially
//! five resources (unit FU1, unit FU2, the memory port, the scalar
//! processor and the scalar cache), we partition all operations executed
//! by a program into these five categories. Then, the category that has
//! the maximum number of operations determines the minimum theoretical
//! execution time."
//!
//! Vector work that can run on either functional unit is split optimally
//! between FU1 and FU2; scalar cache misses consume the memory port as
//! well as the cache. The bound assumes a *single* memory port — which is
//! why the bypass configurations can outperform it (the paper observes the
//! same artifact for FLO52).

use dva_isa::{Cycle, Inst, Program};
use dva_json::{FromJson, JsonError, Reader, ToJson, Writer};
use dva_memory::{CacheAccess, ScalarCache, ScalarCacheParams};

/// Per-resource operation totals and the resulting bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealBound {
    /// Cycles of FU2-only work (multiply/divide/square-root).
    pub fu2_only: Cycle,
    /// Cycles of vector work either unit can execute.
    pub either_fu: Cycle,
    /// Memory port cycles (vector elements plus scalar cache misses).
    pub memory_port: Cycle,
    /// Scalar processor cycles (one per scalar instruction).
    pub scalar_processor: Cycle,
    /// Scalar cache cycles (one per scalar memory access).
    pub scalar_cache: Cycle,
}

impl IdealBound {
    /// The balanced per-FU load after splitting the either-unit pool.
    pub fn fu_bound(&self) -> Cycle {
        let total = self.fu2_only + self.either_fu;
        self.fu2_only.max(total.div_ceil(2))
    }

    /// The lower bound on execution time: the busiest resource.
    pub fn cycles(&self) -> Cycle {
        self.fu_bound()
            .max(self.memory_port)
            .max(self.scalar_processor)
            .max(self.scalar_cache)
    }

    /// The name of the limiting resource.
    pub fn bottleneck(&self) -> &'static str {
        let c = self.cycles();
        if c == self.memory_port {
            "memory port"
        } else if c == self.fu_bound() {
            "functional units"
        } else if c == self.scalar_processor {
            "scalar processor"
        } else {
            "scalar cache"
        }
    }
}

impl ToJson for IdealBound {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("fu2_only", &self.fu2_only);
            w.field("either_fu", &self.either_fu);
            w.field("memory_port", &self.memory_port);
            w.field("scalar_processor", &self.scalar_processor);
            w.field("scalar_cache", &self.scalar_cache);
        })
    }
}

impl FromJson for IdealBound {
    fn read_json(r: &mut Reader<'_>) -> Result<IdealBound, JsonError> {
        r.object(|o| {
            Ok(IdealBound {
                fu2_only: o.field("fu2_only")?,
                either_fu: o.field("either_fu")?,
                memory_port: o.field("memory_port")?,
                scalar_processor: o.field("scalar_processor")?,
                scalar_cache: o.field("scalar_cache")?,
            })
        })
    }
}

/// Computes the IDEAL execution-time lower bound for a program.
///
/// The scalar cache behaviour is reproduced by streaming the trace's
/// scalar addresses through the same cache model the simulators use, so
/// the bound's memory-port total counts exactly the accesses that would
/// miss.
pub fn ideal_bound(program: &Program) -> IdealBound {
    let mut bound = IdealBound {
        fu2_only: 0,
        either_fu: 0,
        memory_port: 0,
        scalar_processor: 0,
        scalar_cache: 0,
    };
    let mut cache = ScalarCache::new(ScalarCacheParams::default());
    for inst in program.insts() {
        match inst {
            Inst::SAlu { .. } | Inst::Branch { .. } => bound.scalar_processor += 1,
            Inst::SLoad { addr, .. } => {
                bound.scalar_processor += 1;
                bound.scalar_cache += 1;
                if cache.load(*addr) == CacheAccess::Miss {
                    bound.memory_port += 1;
                }
            }
            Inst::SStore { addr, .. } => {
                bound.scalar_processor += 1;
                bound.scalar_cache += 1;
                // Write-through: every store reaches memory.
                let _ = cache.store(*addr);
                bound.memory_port += 1;
            }
            Inst::VCompute { op, vl, .. } => {
                if op.requires_general_unit() {
                    bound.fu2_only += vl.cycles();
                } else {
                    bound.either_fu += vl.cycles();
                }
            }
            Inst::VReduce { vl, .. } => bound.either_fu += vl.cycles(),
            Inst::VLoad { access, .. } | Inst::VStore { access, .. } => {
                bound.memory_port += access.vl.cycles();
            }
            Inst::VGather { vl, .. } | Inst::VScatter { vl, .. } => {
                bound.memory_port += vl.cycles();
            }
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use dva_isa::{ScalarReg, VOperand, VectorAccess, VectorOp, VectorReg};
    use dva_testutil::vl;

    #[test]
    fn memory_bound_program_is_limited_by_the_port() {
        let program = Program::from_insts(
            "mem",
            vec![
                Inst::VLoad {
                    dst: VectorReg::V0,
                    access: VectorAccess::unit(0, vl(100)),
                },
                Inst::VLoad {
                    dst: VectorReg::V1,
                    access: VectorAccess::unit(0x1000, vl(100)),
                },
                Inst::VStore {
                    src: VectorReg::V0,
                    access: VectorAccess::unit(0x2000, vl(100)),
                },
            ],
        );
        let b = ideal_bound(&program);
        assert_eq!(b.memory_port, 300);
        assert_eq!(b.cycles(), 300);
        assert_eq!(b.bottleneck(), "memory port");
    }

    #[test]
    fn either_fu_work_splits_across_units() {
        let adds: Vec<Inst> = (0..4)
            .map(|_| Inst::VCompute {
                op: VectorOp::Add,
                dst: VectorReg::V2,
                src1: VOperand::Reg(VectorReg::V0),
                src2: Some(VOperand::Reg(VectorReg::V1)),
                vl: vl(50),
            })
            .collect();
        let b = ideal_bound(&Program::from_insts("adds", adds));
        assert_eq!(b.either_fu, 200);
        assert_eq!(b.fu_bound(), 100); // balanced over FU1 and FU2
    }

    #[test]
    fn fu2_only_work_cannot_be_balanced() {
        let muls: Vec<Inst> = (0..2)
            .map(|_| Inst::VCompute {
                op: VectorOp::Mul,
                dst: VectorReg::V2,
                src1: VOperand::Reg(VectorReg::V0),
                src2: Some(VOperand::Reg(VectorReg::V1)),
                vl: vl(64),
            })
            .collect();
        let b = ideal_bound(&Program::from_insts("muls", muls));
        assert_eq!(b.fu2_only, 128);
        assert_eq!(b.fu_bound(), 128);
    }

    #[test]
    fn scalar_cache_hits_do_not_use_the_port() {
        let program = Program::from_insts(
            "scalar",
            vec![
                Inst::SLoad {
                    dst: ScalarReg::scalar(0),
                    addr: 0x100,
                },
                Inst::SLoad {
                    dst: ScalarReg::scalar(1),
                    addr: 0x108, // same line: hit
                },
            ],
        );
        let b = ideal_bound(&program);
        assert_eq!(b.memory_port, 1);
        assert_eq!(b.scalar_cache, 2);
        assert_eq!(b.scalar_processor, 2);
    }

    #[test]
    fn bound_never_exceeds_simulated_time() {
        use crate::{CompiledProgram, DvaConfig, DvaRunner};
        for bench in [
            dva_workloads::Benchmark::Arc2d,
            dva_workloads::Benchmark::Dyfesm,
        ] {
            let program = bench.program(dva_workloads::Scale::Quick);
            let bound = ideal_bound(&program).cycles();
            let compiled = std::sync::Arc::new(CompiledProgram::compile(&program));
            let (sim, _) = DvaRunner::new()
                .try_run(&DvaConfig::dva(1), &compiled, true)
                .unwrap();
            assert!(
                bound <= sim.cycles,
                "{}: bound {bound} exceeds simulated {}",
                bench.name(),
                sim.cycles
            );
        }
    }
}
