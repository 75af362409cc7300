//! Program/trace containers.

use crate::inst::Inst;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// A decoded dynamic instruction trace, as produced by the workload
/// generator (the stand-in for the paper's Dixie traces).
///
/// Basic-block boundaries are recorded so that block counts (Table 1) can
/// be reproduced; [`Inst::Branch`] instructions always terminate a block.
///
/// The instruction stream is reference-counted: cloning a `Program` (or
/// deriving one with [`Program::with_name`]) shares the trace instead of
/// copying it, so sweep sessions and compiled-program caches can hand the
/// same multi-thousand-instruction trace to many simulations for free.
/// The trace's [content hash](Program::content_hash) is shared the same
/// way: computed once, on first use, by whichever copy asks first.
///
/// # Examples
///
/// ```
/// use dva_isa::{Inst, ProgramBuilder, ScalarReg};
///
/// let mut b = ProgramBuilder::new("tiny");
/// b.push(Inst::SAlu { dst: ScalarReg::scalar(0), src1: None, src2: None });
/// b.end_block();
/// let program = b.finish();
/// assert_eq!(program.basic_blocks(), 1);
///
/// // Cheap share-not-copy derivation:
/// let alias = program.with_name("tiny-alias");
/// assert_eq!(alias.insts().as_ptr(), program.insts().as_ptr());
/// ```
#[derive(Clone)]
pub struct Program {
    name: Arc<str>,
    insts: Arc<[Inst]>,
    /// Indices into `insts` where each basic block begins.
    block_starts: Arc<[usize]>,
    /// The memoized [`content_hash`](Program::content_hash) of `insts`.
    hash: Arc<OnceLock<u128>>,
}

/// FNV-1a, 128-bit: tiny, dependency-free, and collision-safe far beyond
/// the handful of distinct programs a sweep service ever sees.
struct Fnv128(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

impl Program {
    /// Builds a program from a flat instruction list, deriving basic-block
    /// boundaries from branch instructions.
    pub fn from_insts(name: impl Into<String>, insts: Vec<Inst>) -> Program {
        let mut builder = ProgramBuilder::new(name);
        for inst in insts {
            builder.push(inst);
        }
        builder.finish()
    }

    /// The workload name (e.g. `"ARC2D"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This trace under a different name, sharing the instruction stream
    /// (no instructions are copied — both programs point at the same
    /// reference-counted storage).
    #[must_use]
    pub fn with_name(&self, name: impl Into<String>) -> Program {
        Program {
            name: Arc::from(name.into()),
            insts: Arc::clone(&self.insts),
            block_starts: Arc::clone(&self.block_starts),
            hash: Arc::clone(&self.hash),
        }
    }

    /// The content hash of the instruction stream: FNV-1a (128-bit) over
    /// each instruction's `Debug` rendering (a pure function of its
    /// fields) followed by `;`, fed through without materializing the
    /// text. Equal instruction streams hash equal wherever they are
    /// stored and in every process; the name plays no part.
    ///
    /// Computed on the first call and kept with the instructions, so
    /// clones and [`with_name`](Program::with_name) derivations share
    /// one computation.
    pub fn content_hash(&self) -> u128 {
        *self.hash.get_or_init(|| {
            let mut hasher = Fnv128(FNV_OFFSET);
            for inst in self.insts() {
                // The separator keeps adjacent instructions from sharing bytes.
                let _ = write!(hasher, "{inst:?};");
            }
            hasher.0
        })
    }

    /// The dynamic instruction stream.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of basic blocks executed.
    pub fn basic_blocks(&self) -> usize {
        self.block_starts.len()
    }

    /// Iterates over the instruction index ranges of each basic block.
    pub fn blocks(&self) -> BasicBlockIter<'_> {
        BasicBlockIter {
            program: self,
            next: 0,
        }
    }

    /// Summary counts over the trace (the raw material for Table 1).
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            name: self.name.to_string(),
            basic_blocks: self.basic_blocks() as u64,
            ..TraceSummary::default()
        };
        for inst in self.insts() {
            if inst.is_vector() {
                s.vector_insts += 1;
                s.vector_ops += inst.operations();
            } else {
                s.scalar_insts += 1;
            }
            if inst.is_memory() {
                if inst.is_vector() {
                    s.vector_mem_insts += 1;
                    s.vector_mem_ops += inst.operations();
                } else {
                    s.scalar_mem_insts += 1;
                }
            }
        }
        s
    }
}

/// Equality is by name and trace; the memoized hash plays no part.
impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.name == other.name
            && self.insts == other.insts
            && self.block_starts == other.block_starts
    }
}

impl Eq for Program {}

/// Renders the name and trace exactly as a derived `Debug` would,
/// leaving out the memoized hash.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("insts", &self.insts)
            .field("block_starts", &self.block_starts)
            .finish()
    }
}

/// Iterator over basic blocks as index ranges into [`Program::insts`].
#[derive(Debug)]
pub struct BasicBlockIter<'a> {
    program: &'a Program,
    next: usize,
}

impl<'a> Iterator for BasicBlockIter<'a> {
    type Item = &'a [Inst];

    fn next(&mut self) -> Option<Self::Item> {
        let starts = &self.program.block_starts;
        if self.next >= starts.len() {
            return None;
        }
        let start = starts[self.next];
        let end = starts
            .get(self.next + 1)
            .copied()
            .unwrap_or(self.program.insts.len());
        self.next += 1;
        Some(&self.program.insts[start..end])
    }
}

/// Incremental builder for [`Program`] traces.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    block_starts: Vec<usize>,
    block_open: bool,
}

impl ProgramBuilder {
    /// Starts building a program with the given name.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            insts: Vec::new(),
            block_starts: Vec::new(),
            block_open: false,
        }
    }

    /// Appends one instruction. Branches implicitly close the current basic
    /// block.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        if !self.block_open {
            self.block_starts.push(self.insts.len());
            self.block_open = true;
        }
        let is_branch = matches!(inst, Inst::Branch { .. });
        self.insts.push(inst);
        if is_branch {
            self.block_open = false;
        }
        self
    }

    /// Appends several instructions.
    pub fn extend(&mut self, insts: impl IntoIterator<Item = Inst>) -> &mut Self {
        for inst in insts {
            self.push(inst);
        }
        self
    }

    /// Explicitly ends the current basic block (e.g. a fall-through edge).
    pub fn end_block(&mut self) -> &mut Self {
        self.block_open = false;
        self
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instructions have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Finishes the trace.
    pub fn finish(self) -> Program {
        Program {
            name: Arc::from(self.name),
            insts: Arc::from(self.insts),
            block_starts: Arc::from(self.block_starts),
            hash: Arc::default(),
        }
    }
}

/// Raw counts over a trace: the per-program quantities reported in Table 1
/// of the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Workload name.
    pub name: String,
    /// Basic blocks executed.
    pub basic_blocks: u64,
    /// Scalar instructions issued.
    pub scalar_insts: u64,
    /// Vector instructions issued.
    pub vector_insts: u64,
    /// Operations performed by vector instructions (sum of VL).
    pub vector_ops: u64,
    /// Vector memory instructions.
    pub vector_mem_insts: u64,
    /// Operations performed by vector memory instructions.
    pub vector_mem_ops: u64,
    /// Scalar memory instructions.
    pub scalar_mem_insts: u64,
}

impl TraceSummary {
    /// Degree of vectorization: vector operations over total operations
    /// (paper, Section 2.2).
    pub fn vectorization(&self) -> f64 {
        let total = (self.scalar_insts + self.vector_ops) as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.vector_ops as f64 / total
        }
    }

    /// Average vector length: vector operations per vector instruction.
    pub fn avg_vector_length(&self) -> f64 {
        if self.vector_insts == 0 {
            0.0
        } else {
            self.vector_ops as f64 / self.vector_insts as f64
        }
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} bbs, {} scalar, {} vector insts, {} vector ops, {:.1}% vect, VL {:.1}",
            self.name,
            self.basic_blocks,
            self.scalar_insts,
            self.vector_insts,
            self.vector_ops,
            self.vectorization(),
            self.avg_vector_length()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScalarReg, VectorAccess, VectorLength, VectorReg};

    fn salu() -> Inst {
        Inst::SAlu {
            dst: ScalarReg::scalar(0),
            src1: None,
            src2: None,
        }
    }

    fn branch(taken: bool) -> Inst {
        Inst::Branch {
            cond: ScalarReg::scalar(0),
            taken,
        }
    }

    fn vload(vl: u32) -> Inst {
        Inst::VLoad {
            dst: VectorReg::V0,
            access: VectorAccess::unit(0x1000, VectorLength::new(vl).unwrap()),
        }
    }

    #[test]
    fn branches_delimit_basic_blocks() {
        let program = Program::from_insts(
            "bb",
            vec![salu(), branch(true), salu(), salu(), branch(false), salu()],
        );
        assert_eq!(program.basic_blocks(), 3);
        let sizes: Vec<usize> = program.blocks().map(<[Inst]>::len).collect();
        assert_eq!(sizes, vec![2, 3, 1]);
    }

    #[test]
    fn summary_separates_instructions_from_operations() {
        let program = Program::from_insts("sum", vec![salu(), vload(100), vload(28), branch(true)]);
        let s = program.summary();
        assert_eq!(s.scalar_insts, 2);
        assert_eq!(s.vector_insts, 2);
        assert_eq!(s.vector_ops, 128);
        assert_eq!(s.vector_mem_insts, 2);
        assert!((s.avg_vector_length() - 64.0).abs() < 1e-9);
        // 128 vector ops out of 130 total operations.
        assert!((s.vectorization() - 100.0 * 128.0 / 130.0).abs() < 1e-9);
    }

    #[test]
    fn empty_program_summary_is_zeroed() {
        let program = Program::from_insts("empty", vec![]);
        let s = program.summary();
        assert_eq!(s.vectorization(), 0.0);
        assert_eq!(s.avg_vector_length(), 0.0);
        assert!(program.is_empty());
    }

    #[test]
    fn with_name_shares_the_instruction_storage() {
        let program = Program::from_insts("orig", vec![salu(), branch(true), vload(8)]);
        let alias = program.with_name("alias");
        assert_eq!(alias.name(), "alias");
        assert_eq!(alias.insts(), program.insts());
        assert_eq!(alias.basic_blocks(), program.basic_blocks());
        // Shared, not copied: both views point at the same storage, as do
        // plain clones.
        assert_eq!(alias.insts().as_ptr(), program.insts().as_ptr());
        assert_eq!(program.clone().insts().as_ptr(), program.insts().as_ptr());
    }

    #[test]
    fn program_hashes_are_content_hashes() {
        let insts = vec![salu(), branch(true), vload(8)];
        let a = Program::from_insts("a", insts.clone());
        let b = Program::from_insts("b", insts);
        assert_ne!(a.insts().as_ptr(), b.insts().as_ptr());
        assert_eq!(
            a.content_hash(),
            b.content_hash(),
            "fresh storage, same content"
        );
        let c = Program::from_insts("a", vec![salu(), branch(true), vload(16)]);
        assert_ne!(a.content_hash(), c.content_hash());
        // Clones and renamed views share the one memoized computation.
        let alias = a.with_name("other");
        assert!(Arc::ptr_eq(&alias.hash, &a.hash));
        assert!(Arc::ptr_eq(&a.clone().hash, &a.hash));
        assert_eq!(alias.content_hash(), a.content_hash());
    }

    #[test]
    fn the_memoized_hash_is_invisible_to_eq_and_debug() {
        let a = Program::from_insts("a", vec![salu(), branch(false)]);
        let b = Program::from_insts("a", vec![salu(), branch(false)]);
        let before = format!("{b:?}");
        a.content_hash();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), before);
        assert!(before.starts_with("Program { name: \"a\", insts: [SAlu"));
        assert!(before.ends_with("block_starts: [0] }"), "{before}");
    }

    #[test]
    fn builder_end_block_splits_without_branch() {
        let mut b = ProgramBuilder::new("split");
        b.push(salu());
        b.end_block();
        b.push(salu());
        let program = b.finish();
        assert_eq!(program.basic_blocks(), 2);
    }
}
