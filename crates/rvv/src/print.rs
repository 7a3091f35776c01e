//! Assembly printing for both dialects.

use crate::dialect::Dialect;
use crate::inst::{Inst, Program};
use std::fmt::Write as _;

/// Print a whole program as assembly text in the given dialect.
///
/// The printer is total for v1.0. For v0.7.1 it asserts that the program is
/// representable (no fractional LMUL) — use [`crate::rollback()`] to convert a
/// v1.0 program first.
pub fn print_program(program: &Program, dialect: Dialect) -> String {
    let mut out = String::new();
    for inst in &program.insts {
        match inst {
            Inst::Label(name) => {
                let _ = writeln!(out, "{name}:");
            }
            other => {
                let _ = writeln!(out, "    {}", print_inst(other, dialect));
            }
        }
    }
    out
}

/// Print one instruction in the given dialect.
pub fn print_inst(inst: &Inst, dialect: Dialect) -> String {
    match inst {
        Inst::Label(name) => format!("{name}:"),
        Inst::Ret => "ret".into(),
        Inst::Li { rd, imm } => format!("li {rd}, {imm}"),
        Inst::Mv { rd, rs } => format!("mv {rd}, {rs}"),
        Inst::Add { rd, rs1, rs2 } => format!("add {rd}, {rs1}, {rs2}"),
        Inst::Addi { rd, rs1, imm } => format!("addi {rd}, {rs1}, {imm}"),
        Inst::Sub { rd, rs1, rs2 } => format!("sub {rd}, {rs1}, {rs2}"),
        Inst::Mul { rd, rs1, rs2 } => format!("mul {rd}, {rs1}, {rs2}"),
        Inst::Slli { rd, rs1, shamt } => format!("slli {rd}, {rs1}, {shamt}"),
        Inst::Branch { cond, rs1, rs2, target } => {
            format!("{} {rs1}, {rs2}, {target}", cond.mnemonic())
        }
        Inst::Jump { target } => format!("j {target}"),
        Inst::Flw { fd, rs1, imm } => format!("flw {fd}, {imm}({rs1})"),
        Inst::Fld { fd, rs1, imm } => format!("fld {fd}, {imm}({rs1})"),
        Inst::Vsetvli { rd, rs1, sew, lmul, tail_agnostic, mask_agnostic } => match dialect {
            Dialect::V10 => {
                let ta = if *tail_agnostic { "ta" } else { "tu" };
                let ma = if *mask_agnostic { "ma" } else { "mu" };
                format!("vsetvli {rd}, {rs1}, {sew}, {lmul}, {ta}, {ma}")
            }
            Dialect::V071 => {
                assert!(lmul.valid_in_v071(), "fractional LMUL {lmul} cannot be printed as v0.7.1");
                // v0.7.1 vsetvli has no policy flags; the d1 field (SEDIV)
                // is omitted as always-1, matching XuanTie GCC output.
                format!("vsetvli {rd}, {rs1}, {sew}, {lmul}")
            }
        },
        Inst::Vle { vd, rs1, eew } => match dialect {
            Dialect::V10 => format!("vle{}.v {vd}, ({rs1})", eew.bits()),
            Dialect::V071 => format!("vle.v {vd}, ({rs1})"),
        },
        Inst::Vse { vs, rs1, eew } => match dialect {
            Dialect::V10 => format!("vse{}.v {vs}, ({rs1})", eew.bits()),
            Dialect::V071 => format!("vse.v {vs}, ({rs1})"),
        },
        Inst::Vlse { vd, rs1, stride, eew } => match dialect {
            Dialect::V10 => format!("vlse{}.v {vd}, ({rs1}), {stride}", eew.bits()),
            Dialect::V071 => format!("vlse.v {vd}, ({rs1}), {stride}"),
        },
        Inst::Vsse { vs, rs1, stride, eew } => match dialect {
            Dialect::V10 => format!("vsse{}.v {vs}, ({rs1}), {stride}", eew.bits()),
            Dialect::V071 => format!("vsse.v {vs}, ({rs1}), {stride}"),
        },
        Inst::VfVV { op, vd, vs1, vs2 } => format!("{}.vv {vd}, {vs1}, {vs2}", op.stem()),
        Inst::VfVF { op, vd, vs1, fs2 } => format!("{}.vf {vd}, {vs1}, {fs2}", op.stem()),
        Inst::VfmaccVV { vd, vs1, vs2 } => format!("vfmacc.vv {vd}, {vs1}, {vs2}"),
        Inst::VfmaccVF { vd, fs1, vs2 } => format!("vfmacc.vf {vd}, {fs1}, {vs2}"),
        Inst::ViVV { op, vd, vs1, vs2 } => format!("{}.vv {vd}, {vs1}, {vs2}", op.stem()),
        Inst::VaddVI { vd, vs1, imm } => format!("vadd.vi {vd}, {vs1}, {imm}"),
        Inst::VmfltVF { vd, vs1, fs2 } => format!("vmflt.vf {vd}, {vs1}, {fs2}"),
        Inst::VmfgeVF { vd, vs1, fs2 } => format!("vmfge.vf {vd}, {vs1}, {fs2}"),
        Inst::VmergeVVM { vd, vs2, vs1 } => format!("vmerge.vvm {vd}, {vs2}, {vs1}, v0"),
        Inst::VfsqrtV { vd, vs1, masked } => {
            if *masked {
                format!("vfsqrt.v {vd}, {vs1}, v0.t")
            } else {
                format!("vfsqrt.v {vd}, {vs1}")
            }
        }
        Inst::VmvVX { vd, rs1 } => format!("vmv.v.x {vd}, {rs1}"),
        Inst::VfmvVF { vd, fs1 } => format!("vfmv.v.f {vd}, {fs1}"),
        Inst::VfmvFS { fd, vs1 } => format!("vfmv.f.s {fd}, {vs1}"),
        Inst::Vfredusum { vd, vs1, vs2 } => match dialect {
            // The v1.0 spec renamed the unordered reduction.
            Dialect::V10 => format!("vfredusum.vs {vd}, {vs1}, {vs2}"),
            Dialect::V071 => format!("vfredsum.vs {vd}, {vs1}, {vs2}"),
        },
        Inst::Vfredosum { vd, vs1, vs2 } => format!("vfredosum.vs {vd}, {vs1}, {vs2}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{Lmul, Sew};
    use crate::inst::{FReg, VReg, XReg};

    #[test]
    fn vsetvli_dialect_difference() {
        let i = Inst::Vsetvli {
            rd: XReg::new(5),
            rs1: XReg::new(10),
            sew: Sew::E32,
            lmul: Lmul::M1,
            tail_agnostic: true,
            mask_agnostic: true,
        };
        assert_eq!(print_inst(&i, Dialect::V10), "vsetvli x5, x10, e32, m1, ta, ma");
        assert_eq!(print_inst(&i, Dialect::V071), "vsetvli x5, x10, e32, m1");
    }

    #[test]
    fn load_store_dialect_difference() {
        let l = Inst::Vle { vd: VReg::new(0), rs1: XReg::new(11), eew: Sew::E32 };
        assert_eq!(print_inst(&l, Dialect::V10), "vle32.v v0, (x11)");
        assert_eq!(print_inst(&l, Dialect::V071), "vle.v v0, (x11)");
        let s = Inst::Vsse {
            vs: VReg::new(2),
            rs1: XReg::new(12),
            stride: XReg::new(13),
            eew: Sew::E64,
        };
        assert_eq!(print_inst(&s, Dialect::V10), "vsse64.v v2, (x12), x13");
        assert_eq!(print_inst(&s, Dialect::V071), "vsse.v v2, (x12), x13");
    }

    #[test]
    fn reduction_rename() {
        let r = Inst::Vfredusum { vd: VReg::new(1), vs1: VReg::new(2), vs2: VReg::new(3) };
        assert_eq!(print_inst(&r, Dialect::V10), "vfredusum.vs v1, v2, v3");
        assert_eq!(print_inst(&r, Dialect::V071), "vfredsum.vs v1, v2, v3");
    }

    #[test]
    #[should_panic(expected = "fractional LMUL")]
    fn fractional_lmul_unprintable_in_v071() {
        let i = Inst::Vsetvli {
            rd: XReg::new(5),
            rs1: XReg::new(10),
            sew: Sew::E32,
            lmul: Lmul::F2,
            tail_agnostic: true,
            mask_agnostic: true,
        };
        let _ = print_inst(&i, Dialect::V071);
    }

    #[test]
    fn fmacc_scalar_form() {
        let i = Inst::VfmaccVF { vd: VReg::new(3), fs1: FReg::new(0), vs2: VReg::new(1) };
        assert_eq!(print_inst(&i, Dialect::V10), "vfmacc.vf v3, f0, v1");
    }
}
