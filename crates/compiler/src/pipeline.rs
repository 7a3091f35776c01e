//! The end-to-end compile pipeline for the C920.
//!
//! * **XuanTie GCC** emits VLS RVV v0.7.1 directly.
//! * **Clang** emits RVV v1.0 (VLA or VLS), which cannot run on the C920;
//!   the pipeline then applies the rollback rewriter from `rvhpc-rvv`, and
//!   any rollback refusal (fractional LMUL, FP64 vector arithmetic) demotes
//!   the kernel to the scalar path — exactly the constraint chain the paper
//!   describes in Section 3.2.

use crate::capability::{vec_status, Compiler, VecStatus};
use crate::codegen::{generate, measure, InstCounts, VectorMode};
use rvhpc_kernels::{vec_profile, KernelName};
use rvhpc_rvv::{print_program, rollback, Dialect, Program, Sew};

/// The vector ISA level a compilation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// RVV v0.7.1 — executable on the C920.
    Rvv071,
    /// RVV v1.0 — *not* executable on the C920 without rollback.
    Rvv10,
}

/// The outcome of compiling one kernel for the C920.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel compiled.
    pub kernel: KernelName,
    /// Toolchain used.
    pub compiler: Compiler,
    /// Requested vector mode.
    pub mode: VectorMode,
    /// Element width.
    pub sew: Sew,
    /// Capability verdict before hardware constraints.
    pub status: VecStatus,
    /// Whether vector code will actually execute on the C920 after all
    /// constraints (capability, runtime path, rollback, FP64).
    pub vector_path: bool,
    /// Reason the vector path was lost, when it was.
    pub note: Option<String>,
    /// Executable v0.7.1 assembly for the streaming kernels the code
    /// generator covers (None for kernels modelled by descriptor only).
    pub assembly_v071: Option<String>,
    /// Instruction counts from executing the generated loop, when
    /// available.
    pub inst_counts: Option<InstCounts>,
}

/// Compile a kernel for the C920 through a given toolchain.
pub fn compile(
    kernel: KernelName,
    compiler: Compiler,
    mode: VectorMode,
    sew: Sew,
) -> CompiledKernel {
    let status = vec_status(compiler, kernel);
    let mut out = CompiledKernel {
        kernel,
        compiler,
        mode,
        sew,
        status,
        vector_path: false,
        note: None,
        assembly_v071: None,
        inst_counts: None,
    };

    // GCC only emits VLS.
    if compiler == Compiler::XuanTieGcc && mode == VectorMode::Vla {
        out.note = Some("XuanTie GCC generates VLS only; VLA unavailable".into());
        return out;
    }

    match status {
        VecStatus::NotVectorized => {
            out.note = Some(format!("{} does not auto-vectorise this loop", compiler.label()));
            return out;
        }
        VecStatus::VectorizedScalarPath => {
            out.note =
                Some("vector code emitted but runtime dispatch picks the scalar path".into());
            return out;
        }
        VecStatus::Vectorized => {}
    }

    // Hardware constraint: no FP64 vectors on the C920 (integer-data
    // kernels exempt).
    if sew == Sew::E64 && !vec_profile(kernel).int_data {
        out.note = Some("C920 RVV v0.7.1 does not implement FP64 vector arithmetic".into());
        return out;
    }

    out.vector_path = true;

    // Produce real assembly where the generator covers the kernel.
    if let Some(program) = generate(kernel, mode, sew) {
        match lower(compiler, &program) {
            Ok(text) => {
                out.assembly_v071 = Some(text);
                out.inst_counts = measure(kernel, mode, sew, 4096);
            }
            Err(reason) => {
                // Rollback refusal demotes to scalar.
                out.vector_path = false;
                out.note = Some(reason);
            }
        }
    }
    out
}

/// Lower a v1.0 program to C920-executable v0.7.1 text via the
/// compiler-specific route.
fn lower(compiler: Compiler, program: &Program) -> Result<String, String> {
    match compiler {
        // The GCC fork targets v0.7.1 natively; structurally this is the
        // same constraint set the rollback pass checks, so reuse it.
        Compiler::XuanTieGcc => rollback(program)
            .map(|p| print_program(&p, Dialect::V071))
            .map_err(|e| format!("not encodable in RVV v0.7.1: {e}")),
        Compiler::Clang => rollback(program)
            .map(|p| print_program(&p, Dialect::V071))
            .map_err(|e| format!("RVV-Rollback refused: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcc_vls_fp32_daxpy_takes_vector_path_with_assembly() {
        let c = compile(KernelName::DAXPY, Compiler::XuanTieGcc, VectorMode::Vls, Sew::E32);
        assert!(c.vector_path);
        let asm = c.assembly_v071.expect("streaming kernel generates code");
        assert!(asm.contains("vle.v"), "{asm}");
        assert!(!asm.contains("vle32.v"), "must be v0.7.1 text: {asm}");
        assert!(c.inst_counts.is_some());
    }

    #[test]
    fn gcc_has_no_vla_mode() {
        let c = compile(KernelName::DAXPY, Compiler::XuanTieGcc, VectorMode::Vla, Sew::E32);
        assert!(!c.vector_path);
        assert!(c.note.unwrap().contains("VLS only"));
    }

    #[test]
    fn fp64_demotes_to_scalar_everywhere() {
        for compiler in [Compiler::XuanTieGcc, Compiler::Clang] {
            let mode = match compiler {
                Compiler::XuanTieGcc => VectorMode::Vls,
                Compiler::Clang => VectorMode::Vla,
            };
            let c = compile(KernelName::DAXPY, compiler, mode, Sew::E64);
            assert!(!c.vector_path, "{compiler:?}");
            assert!(c.note.unwrap().contains("FP64"));
        }
    }

    #[test]
    fn int64_reduction_keeps_vector_path_at_e64() {
        let c = compile(KernelName::REDUCE3_INT, Compiler::XuanTieGcc, VectorMode::Vls, Sew::E64);
        assert!(c.vector_path, "integer data vectorises regardless of FP width");
    }

    #[test]
    fn clang_scalar_path_kernels_lose_vector_path() {
        let c = compile(KernelName::GEMM, Compiler::Clang, VectorMode::Vls, Sew::E32);
        assert!(!c.vector_path);
        assert_eq!(c.status, VecStatus::VectorizedScalarPath);
    }

    #[test]
    fn clang_vla_and_vls_both_produce_runnable_code() {
        for mode in [VectorMode::Vla, VectorMode::Vls] {
            let c = compile(KernelName::STREAM_TRIAD, Compiler::Clang, mode, Sew::E32);
            assert!(c.vector_path, "{mode:?}");
            assert!(c.assembly_v071.is_some());
        }
    }

    #[test]
    fn vls_instruction_advantage_visible_through_pipeline() {
        let vla = compile(KernelName::STREAM_TRIAD, Compiler::Clang, VectorMode::Vla, Sew::E32);
        let vls = compile(KernelName::STREAM_TRIAD, Compiler::Clang, VectorMode::Vls, Sew::E32);
        let (a, b) = (vla.inst_counts.unwrap(), vls.inst_counts.unwrap());
        assert!(b.per_element() < a.per_element());
    }

    #[test]
    fn descriptor_only_kernels_compile_without_assembly() {
        let c = compile(KernelName::HYDRO_1D, Compiler::XuanTieGcc, VectorMode::Vls, Sew::E32);
        assert!(c.vector_path);
        assert!(c.assembly_v071.is_none(), "not covered by the code generator");
    }
}
