//! RVV code generation for the streaming kernels.
//!
//! The paper contrasts Vector Length Specific (VLS) code — XuanTie GCC's
//! only mode, also Clang's better-performing mode on the C920 — with Vector
//! Length Agnostic (VLA) code. The generated loops differ exactly where the
//! real ones do:
//!
//! * **VLA** re-executes `vsetvli` every strip with the remaining element
//!   count, and bumps pointers by the dynamic `vl` (a shift plus an add per
//!   pointer);
//! * **VLS** configures the vector unit once for the full 128-bit width and
//!   uses immediate pointer bumps, so each strip retires fewer
//!   instructions — the instruction-count difference *is* the VLS-vs-VLA
//!   gap in the performance model, and it is measured by executing the
//!   generated code in the `rvhpc-rvv` interpreter rather than assumed.
//!
//! Code is generated for the suite's streaming kernels (the shapes RVV
//! autovectorisers actually handle well); the calling convention is
//! `x10 = n`, `x11/x12 = source pointers`, `x13 = destination pointer`,
//! `f0 = scalar operand`. Reductions leave their result in `f2`.

use rvhpc_kernels::KernelName;
use rvhpc_rvv::inst::{FReg, Inst, VReg, VfBinOp, XReg};
use rvhpc_rvv::{Dialect, Lmul, Program, ProgramBuilder, Sew, VLEN_BITS};

/// Vector code generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorMode {
    /// Vector Length Specific: fixed 128-bit strips, `vsetvli` hoisted out
    /// of the loop. Requires `n` to be a lane multiple (real compilers add
    /// a scalar epilogue; the model charges it as overhead instead).
    Vls,
    /// Vector Length Agnostic: `vsetvli` per strip.
    Vla,
}

impl VectorMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            VectorMode::Vls => "vls",
            VectorMode::Vla => "vla",
        }
    }
}

/// The streaming kernels the generator supports (IF_QUAD is the divergent
/// one: it exercises the mask compare / masked-sqrt / merge path).
pub const SUPPORTED: [KernelName; 10] = [
    KernelName::STREAM_ADD,
    KernelName::STREAM_COPY,
    KernelName::STREAM_DOT,
    KernelName::STREAM_MUL,
    KernelName::STREAM_TRIAD,
    KernelName::DAXPY,
    KernelName::MEMSET,
    KernelName::MEMCPY,
    KernelName::REDUCE_SUM,
    KernelName::IF_QUAD,
];

/// A code-generation request resolved to its loop shape.
#[derive(Debug, Clone, Copy)]
pub struct CodegenKernel {
    /// Which kernel.
    pub kernel: KernelName,
    /// Pointers bumped each strip (x11..), destination included.
    pub pointers: u8,
    /// Whether the kernel is a reduction (accumulator + final reduce).
    pub reduction: bool,
}

impl CodegenKernel {
    /// Resolve a kernel to its shape, or `None` if unsupported.
    pub fn resolve(kernel: KernelName) -> Option<CodegenKernel> {
        use KernelName::*;
        let (pointers, reduction) = match kernel {
            STREAM_COPY | MEMCPY => (2, false),
            STREAM_MUL => (2, false),
            STREAM_ADD | STREAM_TRIAD => (3, false),
            STREAM_DOT => (2, true),
            DAXPY => (2, false),
            MEMSET => (1, false),
            REDUCE_SUM => (1, true),
            IF_QUAD => (5, false),
            _ => return None,
        };
        Some(CodegenKernel { kernel, pointers, reduction })
    }
}

const VL: XReg = XReg(5);
const TMP: XReg = XReg(6);
const CONST: XReg = XReg(7);
const N: XReg = XReg(10);
const P1: XReg = XReg(11);
const P2: XReg = XReg(12);
const P3: XReg = XReg(13);
const P4: XReg = XReg(14);
const P5: XReg = XReg(15);
const ALPHA: FReg = FReg(0);
const RESULT: FReg = FReg(2);
const TWO: FReg = FReg(1);
const ZERO_F: FReg = FReg(3);

/// Generate RVV v1.0 assembly for a supported kernel.
///
/// Returns `None` for kernels outside [`SUPPORTED`]. The result targets
/// [`Dialect::V10`]; run it through `rvhpc_rvv::rollback` for v0.7.1 (this
/// is what the Clang pipeline does) or print it directly as v1.0.
pub fn generate(kernel: KernelName, mode: VectorMode, sew: Sew) -> Option<Program> {
    let shape = CodegenKernel::resolve(kernel)?;
    let lanes = (VLEN_BITS as u32 / sew.bits()) as i64;
    let shift = (sew.bits() / 8).trailing_zeros() as u8;
    let mut b = ProgramBuilder::new();
    let loop_l = b.fresh_label("loop");

    // Reduction prologue: zero the accumulator vector v4 across VLMAX.
    if shape.reduction {
        b.li(CONST, lanes);
        // tu policy so later short strips leave high accumulator lanes
        // intact.
        b.push(Inst::Vsetvli {
            rd: VL,
            rs1: CONST,
            sew,
            lmul: Lmul::M1,
            tail_agnostic: false,
            mask_agnostic: false,
        });
        b.li(TMP, 0);
        b.push(Inst::VmvVX { vd: VReg(4), rs1: TMP });
    }
    // MEMSET prologue: splat the fill value once.
    if kernel == KernelName::MEMSET {
        b.li(CONST, lanes);
        b.vsetvli(VL, CONST, sew, Lmul::M1);
        b.vfmv_vf(VReg(0), ALPHA);
    }
    // VLS: configure once for full strips.
    if mode == VectorMode::Vls && kernel != KernelName::MEMSET && !shape.reduction {
        b.li(CONST, lanes);
        b.vsetvli(VL, CONST, sew, Lmul::M1);
    }

    b.label(&loop_l);
    if mode == VectorMode::Vla {
        // Per-strip vsetvli on the remaining count.
        if shape.reduction {
            b.push(Inst::Vsetvli {
                rd: VL,
                rs1: N,
                sew,
                lmul: Lmul::M1,
                tail_agnostic: false,
                mask_agnostic: false,
            });
        } else {
            b.vsetvli(VL, N, sew, Lmul::M1);
        }
    }

    // Loop body.
    use KernelName::*;
    match kernel {
        STREAM_COPY | MEMCPY => {
            b.vle(VReg(0), P1, sew);
            b.vse(VReg(0), P3, sew);
        }
        STREAM_MUL => {
            b.vle(VReg(0), P1, sew);
            b.vf_vf(VfBinOp::Mul, VReg(1), VReg(0), ALPHA);
            b.vse(VReg(1), P3, sew);
        }
        STREAM_ADD => {
            b.vle(VReg(0), P1, sew);
            b.vle(VReg(1), P2, sew);
            b.vf_vv(VfBinOp::Add, VReg(2), VReg(0), VReg(1));
            b.vse(VReg(2), P3, sew);
        }
        STREAM_TRIAD => {
            // a = b + alpha*c
            b.vle(VReg(0), P1, sew); // b
            b.vle(VReg(1), P2, sew); // c
            b.vf_vf(VfBinOp::Mul, VReg(2), VReg(1), ALPHA);
            b.vf_vv(VfBinOp::Add, VReg(2), VReg(2), VReg(0));
            b.vse(VReg(2), P3, sew);
        }
        STREAM_DOT => {
            b.vle(VReg(0), P1, sew);
            b.vle(VReg(1), P2, sew);
            b.vfmacc_vv(VReg(4), VReg(0), VReg(1));
        }
        DAXPY => {
            // y += alpha*x; x at P1, y at P2 (load + store same pointer).
            b.vle(VReg(0), P1, sew);
            b.vle(VReg(1), P2, sew);
            b.vfmacc_vf(VReg(1), ALPHA, VReg(0));
            b.vse(VReg(1), P2, sew);
        }
        MEMSET => {
            b.vse(VReg(0), P3, sew);
        }
        REDUCE_SUM => {
            b.vle(VReg(0), P1, sew);
            b.vf_vv(VfBinOp::Add, VReg(4), VReg(4), VReg(0));
        }
        IF_QUAD => {
            // a at P1, b at P2, c at P3; roots to P4 (x1) and P5 (x2).
            // f0 = 4.0, f1 = 2.0, f3 = 0.0.
            b.vle(VReg(1), P1, sew); // a
            b.vle(VReg(2), P2, sew); // b
            b.vle(VReg(3), P3, sew); // c
            b.vf_vv(VfBinOp::Mul, VReg(4), VReg(2), VReg(2)); // b*b
            b.vf_vv(VfBinOp::Mul, VReg(5), VReg(1), VReg(3)); // a*c
            b.vf_vf(VfBinOp::Mul, VReg(5), VReg(5), ALPHA); // 4*a*c
            b.vf_vv(VfBinOp::Sub, VReg(4), VReg(4), VReg(5)); // d
            b.push(Inst::VmfgeVF { vd: VReg(0), vs1: VReg(4), fs2: ZERO_F }); // d >= 0
            b.push(Inst::VfsqrtV { vd: VReg(6), vs1: VReg(4), masked: true }); // s
            b.vf_vf(VfBinOp::Mul, VReg(7), VReg(1), TWO); // 2a
            b.vf_vv(VfBinOp::Sub, VReg(8), VReg(6), VReg(2)); // s - b
            b.vf_vv(VfBinOp::Div, VReg(8), VReg(8), VReg(7)); // r1
            b.vf_vv(VfBinOp::Add, VReg(9), VReg(2), VReg(6)); // b + s
            b.push(Inst::VmvVX { vd: VReg(10), rs1: XReg(0) }); // 0.0 splat
            b.vf_vv(VfBinOp::Sub, VReg(9), VReg(10), VReg(9)); // -(b+s)
            b.vf_vv(VfBinOp::Div, VReg(9), VReg(9), VReg(7)); // r2
            b.push(Inst::VmergeVVM { vd: VReg(8), vs2: VReg(10), vs1: VReg(8) });
            b.push(Inst::VmergeVVM { vd: VReg(9), vs2: VReg(10), vs1: VReg(9) });
            b.vse(VReg(8), P4, sew);
            b.vse(VReg(9), P5, sew);
        }
        _ => unreachable!("resolve() filtered unsupported kernels"),
    }

    // Pointer bumps + trip count.
    match mode {
        VectorMode::Vla => {
            b.slli(TMP, VL, shift);
            for p in pointer_regs(kernel, shape.pointers) {
                b.add(p, p, TMP);
            }
            b.sub(N, N, VL);
        }
        VectorMode::Vls => {
            let bytes = lanes << shift;
            for p in pointer_regs(kernel, shape.pointers) {
                b.addi(p, p, bytes);
            }
            b.addi(N, N, -lanes);
        }
    }
    b.bne(N, XReg(0), &loop_l);

    // Reduction epilogue: widen vl to VLMAX, reduce, extract.
    if shape.reduction {
        b.li(CONST, lanes);
        b.push(Inst::Vsetvli {
            rd: VL,
            rs1: CONST,
            sew,
            lmul: Lmul::M1,
            tail_agnostic: false,
            mask_agnostic: false,
        });
        b.li(TMP, 0);
        b.push(Inst::VmvVX { vd: VReg(6), rs1: TMP });
        b.vfredusum(VReg(5), VReg(4), VReg(6));
        b.vfmv_fs(RESULT, VReg(5));
    }
    b.ret();
    Some(b.build())
}

/// The pointer registers a kernel bumps (destination pointers included).
fn pointer_regs(kernel: KernelName, count: u8) -> Vec<XReg> {
    use KernelName::*;
    match kernel {
        MEMSET => vec![P3],
        IF_QUAD => vec![P1, P2, P3, P4, P5],
        STREAM_COPY | MEMCPY | STREAM_MUL => vec![P1, P3],
        DAXPY | STREAM_DOT => vec![P1, P2],
        REDUCE_SUM => vec![P1],
        STREAM_ADD | STREAM_TRIAD => vec![P1, P2, P3],
        _ => (0..count).map(|i| XReg(11 + i)).collect(),
    }
}

/// Instruction counts from actually executing generated code in the
/// interpreter (used by the performance model for the VLS/VLA gap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstCounts {
    /// Total instructions retired.
    pub total: u64,
    /// Vector instructions retired.
    pub vector: u64,
    /// Elements processed.
    pub elements: u64,
}

impl InstCounts {
    /// Total instructions per element.
    pub fn per_element(&self) -> f64 {
        self.total as f64 / self.elements as f64
    }
}

/// Execute a generated program on a scratch machine and count instructions.
/// `n` must be a lane multiple for VLS code.
///
/// Results are memoised process-wide (generation and execution are
/// deterministic); `compiler.measure.hit`/`.miss` counters expose the memo
/// rate, since a miss costs a full interpreter run.
pub fn measure(kernel: KernelName, mode: VectorMode, sew: Sew, n: usize) -> Option<InstCounts> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type MemoKey = (KernelName, VectorMode, u32, usize);
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, Option<InstCounts>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (kernel, mode, sew.bits(), n);
    if let Some(cached) = memo.lock().expect("no poisoned lock").get(&key) {
        rvhpc_obs::counter!("compiler.measure.hit", 1);
        return *cached;
    }
    rvhpc_obs::counter!("compiler.measure.miss", 1);
    let _span = rvhpc_trace::span!("compiler.measure", kernel = kernel, mode = mode.label());
    let counts = (|| {
        let program = generate(kernel, mode, sew)?;
        let mut m = rvhpc_rvv::Machine::new(Dialect::V10, 16 * 1024 + n * sew.bytes() * 6);
        setup_machine(&mut m, kernel, sew, n);
        m.run(&program, 10_000_000).ok()?;
        Some(InstCounts { total: m.executed, vector: m.executed_vector, elements: n as u64 })
    })();
    memo.lock().expect("no poisoned lock").insert(key, counts);
    counts
}

/// Standard operand layout: a at 0, b at `n*eb`, c at `2*n*eb`.
pub fn setup_machine(m: &mut rvhpc_rvv::Machine, kernel: KernelName, sew: Sew, n: usize) {
    let eb = sew.bytes();
    m.set_x(N.0, n as u64);
    m.set_x(P1.0, 0);
    m.set_x(P2.0, (n * eb) as u64);
    m.set_x(P3.0, (2 * n * eb) as u64);
    m.set_x(P4.0, (3 * n * eb) as u64);
    m.set_x(P5.0, (4 * n * eb) as u64);
    m.set_f(ALPHA.0, 1.5);
    if kernel == KernelName::IF_QUAD {
        // Quadratic coefficients: a, b, c with mixed-sign discriminants.
        m.set_f(ALPHA.0, 4.0);
        m.set_f(TWO.0, 2.0);
        m.set_f(ZERO_F.0, 0.0);
        match sew {
            Sew::E32 => {
                let a: Vec<f32> = (0..n).map(|i| 1.0 + (i % 7) as f32 * 0.1).collect();
                let b: Vec<f32> = (0..n).map(|i| -4.0 + (i % 13) as f32 * 0.7).collect();
                let c: Vec<f32> = (0..n).map(|i| 0.5 + (i % 5) as f32 * 0.2).collect();
                m.write_f32s(0, &a);
                m.write_f32s(n * eb, &b);
                m.write_f32s(2 * n * eb, &c);
            }
            Sew::E64 => {
                let a: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
                let b: Vec<f64> = (0..n).map(|i| -4.0 + (i % 13) as f64 * 0.7).collect();
                let c: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.2).collect();
                m.write_f64s(0, &a);
                m.write_f64s(n * eb, &b);
                m.write_f64s(2 * n * eb, &c);
            }
            _ => {}
        }
        return;
    }
    match sew {
        Sew::E32 => {
            let a: Vec<f32> = (0..n).map(|i| 0.1 * (i % 17 + 1) as f32).collect();
            let b: Vec<f32> = (0..n).map(|i| 0.2 * (i % 17 + 1) as f32).collect();
            m.write_f32s(0, &a);
            m.write_f32s(n * eb, &b);
        }
        Sew::E64 => {
            let a: Vec<f64> = (0..n).map(|i| 0.1 * (i % 17 + 1) as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| 0.2 * (i % 17 + 1) as f64).collect();
            m.write_f64s(0, &a);
            m.write_f64s(n * eb, &b);
        }
        _ => {}
    }
    let _ = kernel;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_rvv::Machine;

    fn run_f32(kernel: KernelName, mode: VectorMode, n: usize) -> Machine {
        let program = generate(kernel, mode, Sew::E32).expect("supported");
        let mut m = Machine::new(Dialect::V10, 64 * 1024);
        setup_machine(&mut m, kernel, Sew::E32, n);
        m.run(&program, 1_000_000).unwrap();
        m
    }

    #[test]
    fn triad_vla_computes_correctly_for_ragged_n() {
        let n = 37;
        let m = run_f32(KernelName::STREAM_TRIAD, VectorMode::Vla, n);
        let out = m.read_f32s(2 * n * 4, n);
        for (i, v) in out.iter().enumerate() {
            let b = 0.1 * (i % 17 + 1) as f32;
            let c = 0.2 * (i % 17 + 1) as f32;
            assert_eq!(*v, b + 1.5 * c, "i={i}");
        }
    }

    #[test]
    fn triad_vls_computes_correctly_for_lane_multiple() {
        let n = 40;
        let m = run_f32(KernelName::STREAM_TRIAD, VectorMode::Vls, n);
        let out = m.read_f32s(2 * n * 4, n);
        for (i, v) in out.iter().enumerate() {
            let b = 0.1 * (i % 17 + 1) as f32;
            let c = 0.2 * (i % 17 + 1) as f32;
            assert_eq!(*v, b + 1.5 * c, "i={i}");
        }
    }

    #[test]
    fn dot_reduction_matches_scalar_sum() {
        let n = 32;
        let m = run_f32(KernelName::STREAM_DOT, VectorMode::Vla, n);
        let expect: f32 =
            (0..n).map(|i| 0.1 * (i % 17 + 1) as f32 * (0.2 * (i % 17 + 1) as f32)).sum();
        assert!((m.f(RESULT.0) as f32 - expect).abs() < 1e-4, "{} vs {expect}", m.f(RESULT.0));
    }

    #[test]
    fn reduce_sum_with_ragged_tail_is_exact() {
        // 13 elements: the final strip has vl=1; tu policy must protect the
        // accumulator's other lanes.
        let n = 13;
        let m = run_f32(KernelName::REDUCE_SUM, VectorMode::Vla, n);
        let expect: f32 = (0..n).map(|i| 0.1 * (i % 17 + 1) as f32).sum();
        assert!((m.f(RESULT.0) as f32 - expect).abs() < 1e-5);
    }

    #[test]
    fn memset_fills_destination() {
        let n = 24;
        let m = run_f32(KernelName::MEMSET, VectorMode::Vls, n);
        let out = m.read_f32s(2 * n * 4, n);
        assert!(out.iter().all(|&v| v == 1.5));
    }

    #[test]
    fn daxpy_updates_in_place() {
        let n = 20;
        let m = run_f32(KernelName::DAXPY, VectorMode::Vla, n);
        let y = m.read_f32s(n * 4, n);
        for (i, v) in y.iter().enumerate() {
            let x = 0.1 * (i % 17 + 1) as f32;
            let y0 = 0.2 * (i % 17 + 1) as f32;
            // vfmacc fuses the rounding; compare with mul_add.
            assert_eq!(*v, 1.5f32.mul_add(x, y0), "i={i}");
        }
    }

    #[test]
    fn vls_retires_fewer_instructions_than_vla() {
        for kernel in SUPPORTED {
            let n = 4096;
            let vla = measure(kernel, VectorMode::Vla, Sew::E32, n).unwrap();
            let vls = measure(kernel, VectorMode::Vls, Sew::E32, n).unwrap();
            assert!(vls.total < vla.total, "{kernel}: VLS {} !< VLA {}", vls.total, vla.total);
            assert_eq!(vls.elements, vla.elements);
        }
    }

    #[test]
    fn vla_and_vls_agree_on_results() {
        let n = 64;
        for kernel in [KernelName::STREAM_ADD, KernelName::STREAM_MUL, KernelName::MEMCPY] {
            let a = run_f32(kernel, VectorMode::Vla, n);
            let b = run_f32(kernel, VectorMode::Vls, n);
            assert_eq!(a.read_f32s(2 * n * 4, n), b.read_f32s(2 * n * 4, n), "{kernel}");
        }
    }

    #[test]
    fn if_quad_vector_code_matches_scalar_semantics() {
        // The divergent kernel: per element, real roots iff d >= 0 else 0.
        let n = 37;
        for mode in [VectorMode::Vla, VectorMode::Vls] {
            if mode == VectorMode::Vls && n % 4 != 0 {
                // VLS requires a lane multiple; test with 40 instead.
                continue;
            }
            let program = generate(KernelName::IF_QUAD, mode, Sew::E32).unwrap();
            let mut m = Machine::new(Dialect::V10, 64 * 1024);
            setup_machine(&mut m, KernelName::IF_QUAD, Sew::E32, n);
            m.run(&program, 1_000_000).unwrap();
            let x1 = m.read_f32s(3 * n * 4, n);
            let x2 = m.read_f32s(4 * n * 4, n);
            let mut real_roots = 0;
            for i in 0..n {
                let a = 1.0f32 + (i % 7) as f32 * 0.1;
                let b = -4.0f32 + (i % 13) as f32 * 0.7;
                let c = 0.5f32 + (i % 5) as f32 * 0.2;
                let d = b * b - 4.0 * a * c;
                if d >= 0.0 {
                    real_roots += 1;
                    let s = d.sqrt();
                    let r1 = (s - b) / (2.0 * a);
                    let r2 = -(b + s) / (2.0 * a);
                    assert!((x1[i] - r1).abs() < 1e-4, "{mode:?} i={i}: {} vs {r1}", x1[i]);
                    assert!((x2[i] - r2).abs() < 1e-4, "{mode:?} i={i}: {} vs {r2}", x2[i]);
                } else {
                    assert_eq!(x1[i], 0.0, "{mode:?} i={i}");
                    assert_eq!(x2[i], 0.0, "{mode:?} i={i}");
                }
            }
            assert!(real_roots > 5 && real_roots < n, "divergence must occur: {real_roots}/{n}");
        }
    }

    #[test]
    fn if_quad_rolls_back_to_v071() {
        use rvhpc_rvv::{parse_program, print_program, rollback};
        let p = generate(KernelName::IF_QUAD, VectorMode::Vla, Sew::E32).unwrap();
        let rolled = rollback(&p).expect("FP32 masked code rolls back");
        let text = print_program(&rolled, Dialect::V071);
        assert!(text.contains("vmfge.vf"), "{text}");
        assert!(text.contains("vfsqrt.v v6, v4, v0.t"), "{text}");
        parse_program(&text, Dialect::V071).unwrap();
    }

    #[test]
    fn unsupported_kernels_return_none() {
        assert!(generate(KernelName::FLOYD_WARSHALL, VectorMode::Vla, Sew::E32).is_none());
        assert!(CodegenKernel::resolve(KernelName::ADI).is_none());
    }

    #[test]
    fn generated_code_round_trips_through_both_dialect_printers() {
        use rvhpc_rvv::{parse_program, print_program, rollback};
        for kernel in SUPPORTED {
            let p = generate(kernel, VectorMode::Vla, Sew::E32).unwrap();
            let v10_text = print_program(&p, Dialect::V10);
            assert_eq!(parse_program(&v10_text, Dialect::V10).unwrap(), p, "{kernel}");
            let rolled = rollback(&p).unwrap_or_else(|e| panic!("{kernel}: {e}"));
            let v071_text = print_program(&rolled, Dialect::V071);
            parse_program(&v071_text, Dialect::V071).unwrap();
        }
    }
}
