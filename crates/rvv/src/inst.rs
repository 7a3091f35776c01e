//! The unified instruction AST.
//!
//! One AST serves both dialects; dialect differences live in the printer,
//! parser and rollback pass. The subset covers what the suite's vectorised
//! loops need: scalar address/loop arithmetic, branches, scalar FP loads,
//! `vsetvli` strip-mining, unit-stride and strided vector memory ops, vector
//! FP/integer arithmetic (including FMA), splats, reductions and moves.

use crate::dialect::{Lmul, Sew};
use std::fmt;

macro_rules! reg_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u8);

        impl $name {
            /// Construct, panicking on numbers ≥ 32.
            pub fn new(n: u8) -> Self {
                assert!(n < 32, concat!($prefix, " register number out of range"));
                $name(n)
            }

            /// Register number.
            pub fn num(self) -> u8 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

reg_newtype!(
    /// A scalar integer register `x0`–`x31` (`x0` reads as zero).
    XReg,
    "x"
);
reg_newtype!(
    /// A scalar floating-point register `f0`–`f31`.
    FReg,
    "f"
);
reg_newtype!(
    /// A vector register `v0`–`v31`.
    VReg,
    "v"
);

/// Vector floating point binary op selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VfBinOp {
    /// `vfadd`
    Add,
    /// `vfsub`
    Sub,
    /// `vfmul`
    Mul,
    /// `vfdiv`
    Div,
    /// `vfmin`
    Min,
    /// `vfmax`
    Max,
}

impl VfBinOp {
    /// Mnemonic stem, e.g. `vfadd`.
    pub fn stem(self) -> &'static str {
        match self {
            VfBinOp::Add => "vfadd",
            VfBinOp::Sub => "vfsub",
            VfBinOp::Mul => "vfmul",
            VfBinOp::Div => "vfdiv",
            VfBinOp::Min => "vfmin",
            VfBinOp::Max => "vfmax",
        }
    }
}

/// Vector integer binary op selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViBinOp {
    /// `vadd`
    Add,
    /// `vsub`
    Sub,
    /// `vmul`
    Mul,
    /// `vand`
    And,
    /// `vor`
    Or,
    /// `vxor`
    Xor,
}

impl ViBinOp {
    /// Mnemonic stem, e.g. `vadd`.
    pub fn stem(self) -> &'static str {
        match self {
            ViBinOp::Add => "vadd",
            ViBinOp::Sub => "vsub",
            ViBinOp::Mul => "vmul",
            ViBinOp::And => "vand",
            ViBinOp::Or => "vor",
            ViBinOp::Xor => "vxor",
        }
    }
}

/// Scalar branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blt` (signed)
    Lt,
    /// `bge` (signed)
    Ge,
}

impl BranchCond {
    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        }
    }
}

/// One instruction (or label pseudo-op).
///
/// Field meanings follow RISC-V assembly conventions (`rd`/`vd` destination,
/// `rs`/`vs`/`fs` sources, `imm` immediate); each variant's doc comment
/// gives the mnemonic and semantics, so per-field docs are waived.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    // ----- pseudo -----
    /// A branch target.
    Label(String),
    /// Stop execution (stands in for `ret`).
    Ret,

    // ----- scalar integer -----
    /// `li rd, imm`
    Li { rd: XReg, imm: i64 },
    /// `mv rd, rs`
    Mv { rd: XReg, rs: XReg },
    /// `add rd, rs1, rs2`
    Add { rd: XReg, rs1: XReg, rs2: XReg },
    /// `addi rd, rs1, imm`
    Addi { rd: XReg, rs1: XReg, imm: i64 },
    /// `sub rd, rs1, rs2`
    Sub { rd: XReg, rs1: XReg, rs2: XReg },
    /// `mul rd, rs1, rs2`
    Mul { rd: XReg, rs1: XReg, rs2: XReg },
    /// `slli rd, rs1, shamt`
    Slli { rd: XReg, rs1: XReg, shamt: u8 },
    /// Conditional branch to a label.
    Branch { cond: BranchCond, rs1: XReg, rs2: XReg, target: String },
    /// `j label`
    Jump { target: String },

    // ----- scalar float -----
    /// `flw fd, imm(rs1)` — load a 32-bit float.
    Flw { fd: FReg, rs1: XReg, imm: i64 },
    /// `fld fd, imm(rs1)` — load a 64-bit float.
    Fld { fd: FReg, rs1: XReg, imm: i64 },

    // ----- vector configuration -----
    /// `vsetvli rd, rs1, <sew>, <lmul>[, ta, ma]` — the policy flags exist
    /// only when printed in the v1.0 dialect.
    Vsetvli { rd: XReg, rs1: XReg, sew: Sew, lmul: Lmul, tail_agnostic: bool, mask_agnostic: bool },

    // ----- vector memory -----
    /// Unit-stride load of `eew`-bit elements: v1.0 `vle<eew>.v vd, (rs1)`,
    /// v0.7.1 `vle.v vd, (rs1)` (width from the active `vtype`).
    Vle { vd: VReg, rs1: XReg, eew: Sew },
    /// Unit-stride store.
    Vse { vs: VReg, rs1: XReg, eew: Sew },
    /// Strided load: `vlse<eew>.v vd, (rs1), rs2`.
    Vlse { vd: VReg, rs1: XReg, stride: XReg, eew: Sew },
    /// Strided store.
    Vsse { vs: VReg, rs1: XReg, stride: XReg, eew: Sew },

    // ----- vector arithmetic -----
    /// FP vector-vector op: `vfadd.vv vd, vs1, vs2` etc.
    VfVV { op: VfBinOp, vd: VReg, vs1: VReg, vs2: VReg },
    /// FP vector-scalar op: `vfadd.vf vd, vs1, fs2` etc.
    VfVF { op: VfBinOp, vd: VReg, vs1: VReg, fs2: FReg },
    /// FP fused multiply-add, vector-vector: `vfmacc.vv vd, vs1, vs2`
    /// (`vd += vs1 * vs2`).
    VfmaccVV { vd: VReg, vs1: VReg, vs2: VReg },
    /// FP fused multiply-add, vector-scalar: `vfmacc.vf vd, fs1, vs2`
    /// (`vd += fs1 * vs2`).
    VfmaccVF { vd: VReg, fs1: FReg, vs2: VReg },
    /// Integer vector-vector op.
    ViVV { op: ViBinOp, vd: VReg, vs1: VReg, vs2: VReg },
    /// Integer vector-immediate add: `vadd.vi vd, vs1, imm`.
    VaddVI { vd: VReg, vs1: VReg, imm: i8 },

    // ----- masks and divergence -----
    /// FP compare writing mask bits: `vmflt.vf vd, vs1, fs2`
    /// (`vd.mask[i] = vs1[i] < fs2`).
    VmfltVF { vd: VReg, vs1: VReg, fs2: FReg },
    /// FP compare writing mask bits: `vmfge.vf vd, vs1, fs2`.
    VmfgeVF { vd: VReg, vs1: VReg, fs2: FReg },
    /// Mask-conditional merge: `vmerge.vvm vd, vs2, vs1, v0`
    /// (`vd[i] = mask[i] ? vs1[i] : vs2[i]`; the mask is always `v0`).
    VmergeVVM { vd: VReg, vs2: VReg, vs1: VReg },
    /// Elementwise square root: `vfsqrt.v vd, vs1` (optionally masked by
    /// `v0` when `masked` is set, printed as `, v0.t`).
    VfsqrtV { vd: VReg, vs1: VReg, masked: bool },

    // ----- splats, moves, reductions -----
    /// Splat an x register: `vmv.v.x vd, rs1`.
    VmvVX { vd: VReg, rs1: XReg },
    /// Splat an f register: `vfmv.v.f vd, fs1`.
    VfmvVF { vd: VReg, fs1: FReg },
    /// Move first element to f register: `vfmv.f.s fd, vs1`.
    VfmvFS { fd: FReg, vs1: VReg },
    /// Unordered FP sum reduction: v1.0 `vfredusum.vs vd, vs1, vs2`,
    /// v0.7.1 `vfredsum.vs` — `vd[0] = sum(vs1[0..vl]) + vs2[0]`.
    Vfredusum { vd: VReg, vs1: VReg, vs2: VReg },
    /// Ordered FP sum reduction (`vfredosum.vs` in both dialects).
    Vfredosum { vd: VReg, vs1: VReg, vs2: VReg },
}

/// A straight-line program with labels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Instruction sequence, labels inline.
    pub insts: Vec<Inst>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Number of real instructions (labels excluded).
    pub fn len_insts(&self) -> usize {
        self.insts.iter().filter(|i| !matches!(i, Inst::Label(_))).count()
    }

    /// Count of vector instructions (config + memory + arithmetic).
    pub fn len_vector_insts(&self) -> usize {
        self.insts.iter().filter(|i| i.is_vector()).count()
    }

    /// Resolve label name → instruction index.
    pub fn label_map(&self) -> Result<std::collections::HashMap<String, usize>, String> {
        let mut map = std::collections::HashMap::new();
        for (idx, inst) in self.insts.iter().enumerate() {
            if let Inst::Label(name) = inst {
                if map.insert(name.clone(), idx).is_some() {
                    return Err(format!("duplicate label {name}"));
                }
            }
        }
        Ok(map)
    }
}

/// Coarse opcode class of an instruction, the granularity at which the
/// interpreter publishes retirement counters (`rvv.retired.<class>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Scalar integer ALU ops (`li`, `mv`, `add`, `mul`, …).
    ScalarAlu,
    /// Scalar FP loads (`flw`, `fld`).
    ScalarMem,
    /// Branches, jumps and `ret`.
    Control,
    /// `vsetvli` configuration.
    VectorConfig,
    /// Vector loads/stores, unit-stride and strided.
    VectorMem,
    /// Vector FP/integer arithmetic including FMA and sqrt.
    VectorArith,
    /// Mask generation and mask-driven merges.
    VectorMask,
    /// Splats and scalar↔vector moves.
    VectorMove,
    /// Cross-lane sum reductions.
    VectorReduce,
}

impl OpClass {
    /// Every class, in counter-name order.
    pub const ALL: [OpClass; 9] = [
        OpClass::ScalarAlu,
        OpClass::ScalarMem,
        OpClass::Control,
        OpClass::VectorConfig,
        OpClass::VectorMem,
        OpClass::VectorArith,
        OpClass::VectorMask,
        OpClass::VectorMove,
        OpClass::VectorReduce,
    ];

    /// The `rvv.retired.<class>` registry counter a traced run publishes
    /// this class's retirements to.
    pub fn counter_name(self) -> &'static str {
        match self {
            OpClass::ScalarAlu => "rvv.retired.scalar_alu",
            OpClass::ScalarMem => "rvv.retired.scalar_mem",
            OpClass::Control => "rvv.retired.control",
            OpClass::VectorConfig => "rvv.retired.vector_config",
            OpClass::VectorMem => "rvv.retired.vector_mem",
            OpClass::VectorArith => "rvv.retired.vector_arith",
            OpClass::VectorMask => "rvv.retired.vector_mask",
            OpClass::VectorMove => "rvv.retired.vector_move",
            OpClass::VectorReduce => "rvv.retired.vector_reduce",
        }
    }

    /// Index into [`OpClass::ALL`].
    pub fn index(self) -> usize {
        OpClass::ALL.iter().position(|c| *c == self).expect("class listed")
    }
}

impl Inst {
    /// The instruction's opcode class; `None` for labels (pseudo-ops that
    /// never retire).
    pub fn op_class(&self) -> Option<OpClass> {
        Some(match self {
            Inst::Label(_) => return None,
            Inst::Ret | Inst::Branch { .. } | Inst::Jump { .. } => OpClass::Control,
            Inst::Li { .. }
            | Inst::Mv { .. }
            | Inst::Add { .. }
            | Inst::Addi { .. }
            | Inst::Sub { .. }
            | Inst::Mul { .. }
            | Inst::Slli { .. } => OpClass::ScalarAlu,
            Inst::Flw { .. } | Inst::Fld { .. } => OpClass::ScalarMem,
            Inst::Vsetvli { .. } => OpClass::VectorConfig,
            Inst::Vle { .. } | Inst::Vse { .. } | Inst::Vlse { .. } | Inst::Vsse { .. } => {
                OpClass::VectorMem
            }
            Inst::VfVV { .. }
            | Inst::VfVF { .. }
            | Inst::VfmaccVV { .. }
            | Inst::VfmaccVF { .. }
            | Inst::ViVV { .. }
            | Inst::VaddVI { .. }
            | Inst::VfsqrtV { .. } => OpClass::VectorArith,
            Inst::VmfltVF { .. } | Inst::VmfgeVF { .. } | Inst::VmergeVVM { .. } => {
                OpClass::VectorMask
            }
            Inst::VmvVX { .. } | Inst::VfmvVF { .. } | Inst::VfmvFS { .. } => OpClass::VectorMove,
            Inst::Vfredusum { .. } | Inst::Vfredosum { .. } => OpClass::VectorReduce,
        })
    }

    /// Whether this is a vector instruction.
    pub fn is_vector(&self) -> bool {
        matches!(
            self,
            Inst::Vsetvli { .. }
                | Inst::Vle { .. }
                | Inst::Vse { .. }
                | Inst::Vlse { .. }
                | Inst::Vsse { .. }
                | Inst::VfVV { .. }
                | Inst::VfVF { .. }
                | Inst::VfmaccVV { .. }
                | Inst::VfmaccVF { .. }
                | Inst::ViVV { .. }
                | Inst::VaddVI { .. }
                | Inst::VmfltVF { .. }
                | Inst::VmfgeVF { .. }
                | Inst::VmergeVVM { .. }
                | Inst::VfsqrtV { .. }
                | Inst::VmvVX { .. }
                | Inst::VfmvVF { .. }
                | Inst::VfmvFS { .. }
                | Inst::Vfredusum { .. }
                | Inst::Vfredosum { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_display() {
        assert_eq!(XReg::new(5).to_string(), "x5");
        assert_eq!(FReg::new(0).to_string(), "f0");
        assert_eq!(VReg::new(31).to_string(), "v31");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_range_checked() {
        let _ = VReg::new(32);
    }

    #[test]
    fn label_map_detects_duplicates() {
        let p =
            Program { insts: vec![Inst::Label("a".into()), Inst::Ret, Inst::Label("a".into())] };
        assert!(p.label_map().is_err());
    }

    #[test]
    fn inst_counts_exclude_labels() {
        let p = Program {
            insts: vec![
                Inst::Label("loop".into()),
                Inst::Li { rd: XReg::new(1), imm: 3 },
                Inst::Vle { vd: VReg::new(0), rs1: XReg::new(1), eew: Sew::E32 },
                Inst::Ret,
            ],
        };
        assert_eq!(p.len_insts(), 3);
        assert_eq!(p.len_vector_insts(), 1);
    }
}
