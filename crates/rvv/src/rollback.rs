//! The v1.0 → v0.7.1 rewriter: a miniature RVV-Rollback.
//!
//! The paper (Section 3.2) uses the RVV-Rollback tool of Lee et al. \[11\] to
//! take Clang's RVV v1.0 assembly and backport it so the C920 can execute
//! it. The translation is mostly mechanical — drop the `vsetvli` policy
//! flags, move the element width from load/store mnemonics back into the
//! active `vtype`, rename the unordered reduction — but it is *partial*:
//!
//! * fractional LMUL (`mf2`/`mf4`/`mf8`) has no v0.7.1 encoding;
//! * a unit-stride memory access whose EEW differs from the active SEW
//!   would need extra `vsetvli` juggling (the real tool warns here too);
//! * FP64 vector arithmetic, while encodable, does not execute on the C920
//!   — rejecting it here is what surfaces the paper's central FP64 finding
//!   in the compile pipeline.
//!
//! The rewrite is verified behaviourally: property tests run the original
//! under v1.0 semantics and the result under v0.7.1 semantics and require
//! identical memory.

use crate::dialect::{Dialect, Sew};
use crate::inst::{Inst, Program};

/// Why a program cannot be rolled back to v0.7.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RollbackError {
    /// `vsetvli` uses fractional LMUL, which v0.7.1 cannot encode.
    FractionalLmul {
        /// Instruction index.
        at: usize,
    },
    /// A vector memory op's EEW differs from the active SEW; v0.7.1
    /// unit-stride accesses are SEW-typed.
    EewMismatch {
        /// Instruction index.
        at: usize,
        /// EEW encoded in the v1.0 mnemonic.
        eew: Sew,
        /// SEW active at that point.
        sew: Sew,
    },
    /// Vector memory op with no preceding `vsetvli`.
    NoVtype {
        /// Instruction index.
        at: usize,
    },
    /// FP64 vector arithmetic: encodable in v0.7.1 but not implemented by
    /// the C920, so the backport refuses it.
    Fp64Vector {
        /// Instruction index.
        at: usize,
        /// Mnemonic stem.
        what: String,
    },
}

impl std::fmt::Display for RollbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackError::FractionalLmul { at } => {
                write!(f, "inst {at}: fractional LMUL has no RVV v0.7.1 encoding")
            }
            RollbackError::EewMismatch { at, eew, sew } => write!(
                f,
                "inst {at}: EEW {eew} differs from active SEW {sew}; v0.7.1 memory ops are SEW-typed"
            ),
            RollbackError::NoVtype { at } => {
                write!(f, "inst {at}: vector memory op before any vsetvli")
            }
            RollbackError::Fp64Vector { at, what } => write!(
                f,
                "inst {at}: `{what}` is FP64 vector arithmetic, not implemented by the XuanTie C920"
            ),
        }
    }
}

impl RollbackError {
    /// Index of the instruction the refusal points at (maps to a source
    /// line through [`crate::parse::SourceMap`] for parsed programs).
    pub fn inst_index(&self) -> usize {
        match self {
            RollbackError::FractionalLmul { at }
            | RollbackError::EewMismatch { at, .. }
            | RollbackError::NoVtype { at }
            | RollbackError::Fp64Vector { at, .. } => *at,
        }
    }
}

impl std::error::Error for RollbackError {}

/// Rewrite a v1.0 program into a v0.7.1 program, or explain why that is
/// impossible. On success, the result prints and executes under
/// [`Dialect::V071`].
///
/// ```
/// use rvhpc_rvv::{parse_program, print_program, rollback, Dialect};
///
/// let v10 = parse_program(
///     "    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    ret\n",
///     Dialect::V10,
/// ).unwrap();
/// let v071 = rollback(&v10).unwrap();
/// let text = print_program(&v071, Dialect::V071);
/// assert!(text.contains("vle.v v0, (x11)"));
/// assert!(!text.contains("ta, ma"));
/// ```
pub fn rollback(program: &Program) -> Result<Program, RollbackError> {
    let mut out = Vec::with_capacity(program.insts.len());
    let mut sew: Option<Sew> = None;
    for (at, inst) in program.insts.iter().enumerate() {
        let rewritten = match inst {
            Inst::Vsetvli { rd, rs1, sew: s, lmul, .. } => {
                if !lmul.valid_in_v071() {
                    return Err(RollbackError::FractionalLmul { at });
                }
                sew = Some(*s);
                // Drop the policy flags: v0.7.1 has no ta/ma and behaves
                // tail-undisturbed, which is a refinement of tail-agnostic
                // (any ta-valid consumer accepts tu results).
                Inst::Vsetvli {
                    rd: *rd,
                    rs1: *rs1,
                    sew: *s,
                    lmul: *lmul,
                    tail_agnostic: false,
                    mask_agnostic: false,
                }
            }
            Inst::Vle { eew, .. }
            | Inst::Vse { eew, .. }
            | Inst::Vlse { eew, .. }
            | Inst::Vsse { eew, .. } => {
                let active = sew.ok_or(RollbackError::NoVtype { at })?;
                if *eew != active {
                    return Err(RollbackError::EewMismatch { at, eew: *eew, sew: active });
                }
                inst.clone()
            }
            Inst::VfVV { op, .. } | Inst::VfVF { op, .. } => {
                guard_fp64(at, sew, op.stem())?;
                inst.clone()
            }
            Inst::VfmaccVV { .. } | Inst::VfmaccVF { .. } => {
                guard_fp64(at, sew, "vfmacc")?;
                inst.clone()
            }
            Inst::VfmvVF { .. } => {
                guard_fp64(at, sew, "vfmv.v.f")?;
                inst.clone()
            }
            Inst::VmfltVF { .. } | Inst::VmfgeVF { .. } => {
                guard_fp64(at, sew, "vmf-compare")?;
                inst.clone()
            }
            Inst::VfsqrtV { .. } => {
                guard_fp64(at, sew, "vfsqrt.v")?;
                inst.clone()
            }
            Inst::Vfredusum { .. } | Inst::Vfredosum { .. } => {
                guard_fp64(at, sew, "vfredsum")?;
                // Same AST node; the printer renames vfredusum → vfredsum.
                inst.clone()
            }
            other => other.clone(),
        };
        out.push(rewritten);
    }
    Ok(Program { insts: out })
}

fn guard_fp64(at: usize, sew: Option<Sew>, what: &str) -> Result<(), RollbackError> {
    if sew == Some(Sew::E64) {
        return Err(RollbackError::Fp64Vector { at, what: what.to_string() });
    }
    Ok(())
}

/// Convenience: rollback and print as v0.7.1 text in one step.
pub fn rollback_to_text(program: &Program) -> Result<String, RollbackError> {
    let p = rollback(program)?;
    Ok(crate::print::print_program(&p, Dialect::V071))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::interp::Machine;
    use crate::parse::parse_program;

    fn v10(text: &str) -> Program {
        parse_program(text, Dialect::V10).unwrap()
    }

    #[test]
    fn daxpy_rolls_back_and_matches_expected_text() {
        let p = v10(
            "loop:\n    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    vle32.v v1, (x12)\n    vfmacc.vf v1, f0, v0\n    vse32.v v1, (x12)\n    slli x6, x5, 2\n    add x11, x11, x6\n    add x12, x12, x6\n    sub x10, x10, x5\n    bne x10, x0, loop\n    ret\n",
        );
        let text = rollback_to_text(&p).unwrap();
        assert!(text.contains("vsetvli x5, x10, e32, m1\n"), "{text}");
        assert!(text.contains("vle.v v0, (x11)"), "{text}");
        assert!(text.contains("vse.v v1, (x12)"), "{text}");
        assert!(!text.contains("ta, ma"), "{text}");
        // And the result re-parses as v0.7.1.
        parse_program(&text, Dialect::V071).unwrap();
    }

    #[test]
    fn fractional_lmul_refused() {
        let p = v10("    vsetvli x5, x10, e32, mf2, ta, ma\n    ret\n");
        assert_eq!(rollback(&p).unwrap_err(), RollbackError::FractionalLmul { at: 0 });
    }

    #[test]
    fn eew_mismatch_refused() {
        let p = v10("    vsetvli x5, x10, e32, m1, ta, ma\n    vle64.v v0, (x11)\n    ret\n");
        match rollback(&p).unwrap_err() {
            RollbackError::EewMismatch { eew, sew, .. } => {
                assert_eq!(eew, Sew::E64);
                assert_eq!(sew, Sew::E32);
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn fp64_vector_arithmetic_refused() {
        let p = v10("    vsetvli x5, x10, e64, m1, ta, ma\n    vfadd.vv v2, v0, v1\n    ret\n");
        assert!(matches!(rollback(&p).unwrap_err(), RollbackError::Fp64Vector { .. }));
    }

    #[test]
    fn int64_vector_arithmetic_allowed() {
        // The C920 restriction is FP64 only; INT64 vectors are fine (this
        // is the REDUCE3_INT effect in the paper's Figure 2).
        let p = v10("    vsetvli x5, x10, e64, m1, ta, ma\n    vadd.vv v2, v0, v1\n    ret\n");
        assert!(rollback(&p).is_ok());
    }

    #[test]
    fn memory_op_without_vsetvli_refused() {
        let p = Program {
            insts: vec![
                Inst::Vle {
                    vd: crate::inst::VReg::new(0),
                    rs1: crate::inst::XReg::new(11),
                    eew: Sew::E32,
                },
                Inst::Ret,
            ],
        };
        assert_eq!(rollback(&p).unwrap_err(), RollbackError::NoVtype { at: 0 });
    }

    #[test]
    fn rolled_back_program_computes_identically() {
        // End-to-end: DAXPY on 37 elements under both dialects.
        let p10 = v10(
            "loop:\n    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    vle32.v v1, (x12)\n    vfmacc.vf v1, f0, v0\n    vse32.v v1, (x12)\n    slli x6, x5, 2\n    add x11, x11, x6\n    add x12, x12, x6\n    sub x10, x10, x5\n    bne x10, x0, loop\n    ret\n",
        );
        let p071 = rollback(&p10).unwrap();

        let n = 37;
        let setup = |m: &mut Machine| {
            let x: Vec<f32> = (0..n).map(|i| 0.5 * i as f32).collect();
            let y: Vec<f32> = (0..n).map(|i| 1.5 * i as f32).collect();
            m.write_f32s(0, &x);
            m.write_f32s(1024, &y);
            m.set_x(10, n as u64);
            m.set_x(11, 0);
            m.set_x(12, 1024);
            m.set_f(0, -2.5);
        };
        let mut m10 = Machine::new(Dialect::V10, 4096);
        setup(&mut m10);
        m10.run(&p10, 100_000).unwrap();
        let mut m071 = Machine::new(Dialect::V071, 4096);
        setup(&mut m071);
        m071.run(&p071, 100_000).unwrap();
        assert_eq!(m10.mem(), m071.mem(), "memory must match after rollback");
    }
}
