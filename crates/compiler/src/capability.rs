//! Per-kernel auto-vectorisation capability tables for the two toolchains.
//!
//! The aggregate numbers come from the paper and its reference [11]
//! (Lee et al., "Test-driving RISC-V Vector hardware for HPC"): XuanTie GCC
//! vectorises 30/64 kernels with 7 taking the scalar path at runtime; Clang
//! vectorises 59/64 with 3 taking the scalar path. The paper names several
//! members explicitly — GCC vectorises the whole *stream* class, fails on
//! FLOYD_WARSHALL and HEAT_3D, and vectorises JACOBI_1D/JACOBI_2D but
//! executes them on the scalar path; Clang's three scalar-path kernels are
//! 2MM, 3MM and GEMM. The remaining members are assigned to match both the
//! totals and each kernel's inherent vectorisability from the descriptors.

use rvhpc_kernels::{workload, KernelName};

/// A toolchain that can target the C920.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    /// T-Head's XuanTie GCC 8.4 fork (20210618 release): VLS RVV v0.7.1.
    XuanTieGcc,
    /// Upstream Clang: VLA or VLS RVV v1.0, needs the rollback pass.
    Clang,
}

impl Compiler {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Compiler::XuanTieGcc => "xuantie-gcc-8.4",
            Compiler::Clang => "clang",
        }
    }
}

/// How a compiler handles one kernel's hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecStatus {
    /// The loop was not auto-vectorised.
    NotVectorized,
    /// Vector code was emitted but the runtime dispatch takes the scalar
    /// path (cost checks, alignment peel decisions, …).
    VectorizedScalarPath,
    /// Vector code is emitted and executed.
    Vectorized,
}

impl VecStatus {
    /// Whether the vector code path actually executes.
    pub fn vector_path_taken(self) -> bool {
        self == VecStatus::Vectorized
    }
}

/// Kernels XuanTie GCC 8.4 manages to auto-vectorise (30 total).
const GCC_VECTORIZED: [KernelName; 30] = [
    // Stream — the paper: "the stream class is unique as GCC is able to
    // vectorise all of its constituent kernels".
    KernelName::STREAM_ADD,
    KernelName::STREAM_COPY,
    KernelName::STREAM_DOT,
    KernelName::STREAM_MUL,
    KernelName::STREAM_TRIAD,
    // Algorithm
    KernelName::MEMCPY,
    KernelName::MEMSET,
    KernelName::REDUCE_SUM,
    // Basic
    KernelName::DAXPY,
    KernelName::INIT3,
    KernelName::INIT_VIEW1D,
    KernelName::INIT_VIEW1D_OFFSET,
    KernelName::MULADDSUB,
    KernelName::NESTED_INIT,
    KernelName::PI_REDUCE,
    KernelName::REDUCE3_INT,
    KernelName::REDUCE_STRUCT,
    KernelName::TRAP_INT,
    // Lcals
    KernelName::FIRST_DIFF,
    KernelName::FIRST_SUM,
    KernelName::HYDRO_1D,
    // Apps
    KernelName::FIR,
    // Polybench
    KernelName::GEMM,
    KernelName::P2MM,
    KernelName::P3MM,
    KernelName::ATAX,
    KernelName::GESUMMV,
    KernelName::MVT,
    KernelName::JACOBI_1D,
    KernelName::JACOBI_2D,
];

/// Of the 30, the seven whose runtime dispatch still picks the scalar path.
/// JACOBI_1D and JACOBI_2D are named by the paper; the other five are
/// gather/reduction-shaped loops where GCC's versioning check bails.
const GCC_SCALAR_PATH: [KernelName; 7] = [
    KernelName::JACOBI_1D,
    KernelName::JACOBI_2D,
    KernelName::ATAX,
    KernelName::MVT,
    KernelName::GESUMMV,
    KernelName::REDUCE_STRUCT,
    KernelName::TRAP_INT,
];

/// Kernels Clang cannot vectorise at all (5 of 64): the loop-carried
/// recurrences and the serial compaction.
const CLANG_NOT_VECTORIZED: [KernelName; 5] = [
    KernelName::TRIDIAG_ELIM,
    KernelName::GEN_LIN_RECUR,
    KernelName::ADI,
    KernelName::INDEXLIST,
    KernelName::SCAN,
];

/// Clang's three vectorised-but-scalar-path kernels (named in the paper:
/// "the 2MM, 3MM and GEMM kernels execute in scalar mode only").
const CLANG_SCALAR_PATH: [KernelName; 3] = [KernelName::P2MM, KernelName::P3MM, KernelName::GEMM];

/// The capability verdict for one (compiler, kernel) pair.
pub fn vec_status(compiler: Compiler, kernel: KernelName) -> VecStatus {
    match compiler {
        Compiler::XuanTieGcc => {
            if !GCC_VECTORIZED.contains(&kernel) {
                VecStatus::NotVectorized
            } else if GCC_SCALAR_PATH.contains(&kernel) {
                VecStatus::VectorizedScalarPath
            } else {
                VecStatus::Vectorized
            }
        }
        Compiler::Clang => {
            if CLANG_NOT_VECTORIZED.contains(&kernel) {
                VecStatus::NotVectorized
            } else if CLANG_SCALAR_PATH.contains(&kernel) {
                VecStatus::VectorizedScalarPath
            } else {
                VecStatus::Vectorized
            }
        }
    }
}

/// Whether the vector path actually executes for a given element width,
/// folding in the hardware constraint: the C920's RVV v0.7.1 does not
/// vectorise FP64 (integer-data kernels are exempt).
pub fn vector_path_executes(
    compiler: Compiler,
    kernel: KernelName,
    elem_bits: u32,
    hw_supports_fp64_vec: bool,
) -> bool {
    let _span = rvhpc_trace::span!("compiler.capability", kernel = kernel, bits = elem_bits);
    let executes = vector_path_decision(compiler, kernel, elem_bits, hw_supports_fp64_vec);
    if executes {
        rvhpc_obs::counter!("compiler.vector_path.executes", 1);
    } else {
        rvhpc_obs::counter!("compiler.vector_path.refused", 1);
    }
    executes
}

fn vector_path_decision(
    compiler: Compiler,
    kernel: KernelName,
    elem_bits: u32,
    hw_supports_fp64_vec: bool,
) -> bool {
    if !vec_status(compiler, kernel).vector_path_taken() {
        return false;
    }
    // The capability tables count kernels where the compiler vectorised
    // *some* loop (that is how reference [11] reaches 59/64 for Clang);
    // whether the hot loop can run vectorised is still bounded by the
    // kernel's inherent dependence structure.
    let w = workload(kernel, kernel.default_size());
    if !w.vec.vectorizable {
        return false;
    }
    if w.vec.int_data {
        return true; // integer vectors work at any "precision" setting
    }
    elem_bits < 64 || hw_supports_fp64_vec
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_kernels::KernelClass;

    fn count(compiler: Compiler, status: VecStatus) -> usize {
        KernelName::ALL.iter().filter(|&&k| vec_status(compiler, k) == status).count()
    }

    #[test]
    fn gcc_totals_match_reference_11() {
        // "out of the 64 kernels ... only 30 were auto-vectorised by GCC and
        //  out of those 30 the scalar code path was executed for 7".
        assert_eq!(
            count(Compiler::XuanTieGcc, VecStatus::Vectorized)
                + count(Compiler::XuanTieGcc, VecStatus::VectorizedScalarPath),
            30
        );
        assert_eq!(count(Compiler::XuanTieGcc, VecStatus::VectorizedScalarPath), 7);
    }

    #[test]
    fn clang_totals_match_reference_11() {
        // "Clang was able to auto-vectorise 59 kernels with only 3 of these
        //  following the scalar path at runtime".
        assert_eq!(
            count(Compiler::Clang, VecStatus::Vectorized)
                + count(Compiler::Clang, VecStatus::VectorizedScalarPath),
            59
        );
        assert_eq!(count(Compiler::Clang, VecStatus::VectorizedScalarPath), 3);
    }

    #[test]
    fn gcc_vectorises_all_stream_kernels() {
        for k in KernelName::in_class(KernelClass::Stream) {
            assert_eq!(vec_status(Compiler::XuanTieGcc, k), VecStatus::Vectorized, "{k}");
        }
    }

    #[test]
    fn paper_figure3_named_kernels() {
        // GCC cannot vectorise Warshall and Heat3D.
        assert_eq!(
            vec_status(Compiler::XuanTieGcc, KernelName::FLOYD_WARSHALL),
            VecStatus::NotVectorized
        );
        assert_eq!(vec_status(Compiler::XuanTieGcc, KernelName::HEAT_3D), VecStatus::NotVectorized);
        // GCC vectorises Jacobi1D/2D but the scalar path runs.
        assert_eq!(
            vec_status(Compiler::XuanTieGcc, KernelName::JACOBI_1D),
            VecStatus::VectorizedScalarPath
        );
        assert_eq!(
            vec_status(Compiler::XuanTieGcc, KernelName::JACOBI_2D),
            VecStatus::VectorizedScalarPath
        );
        // Clang vectorises both.
        assert_eq!(vec_status(Compiler::Clang, KernelName::FLOYD_WARSHALL), VecStatus::Vectorized);
        assert_eq!(vec_status(Compiler::Clang, KernelName::HEAT_3D), VecStatus::Vectorized);
        // Clang's 2MM/3MM/GEMM run scalar.
        for k in [KernelName::P2MM, KernelName::P3MM, KernelName::GEMM] {
            assert_eq!(vec_status(Compiler::Clang, k), VecStatus::VectorizedScalarPath, "{k}");
        }
    }

    #[test]
    fn serial_kernels_never_execute_the_vector_path() {
        // The capability count may credit partially-vectorised kernels, but
        // the executable verdict must respect loop-carried dependences.
        for &k in KernelName::ALL.iter() {
            if !workload(k, k.default_size()).vec.vectorizable {
                for c in [Compiler::XuanTieGcc, Compiler::Clang] {
                    assert!(!vector_path_executes(c, k, 32, false), "{k} via {c:?}");
                }
            }
        }
    }

    #[test]
    fn gcc_hot_loop_vectorized_set_is_inherently_vectorizable() {
        // GCC's Vectorized (vector-path) set is curated to hot loops only.
        for &k in KernelName::ALL.iter() {
            if vec_status(Compiler::XuanTieGcc, k) == VecStatus::Vectorized {
                assert!(workload(k, k.default_size()).vec.vectorizable, "{k}");
            }
        }
    }

    #[test]
    fn fp64_vector_path_blocked_on_c920_except_int_data() {
        // DAXPY: vectorised by both, FP64 blocked without hardware support.
        assert!(vector_path_executes(Compiler::XuanTieGcc, KernelName::DAXPY, 32, false));
        assert!(!vector_path_executes(Compiler::XuanTieGcc, KernelName::DAXPY, 64, false));
        assert!(vector_path_executes(Compiler::XuanTieGcc, KernelName::DAXPY, 64, true));
        // REDUCE3_INT is integer data: vectorises even at "FP64".
        assert!(vector_path_executes(Compiler::XuanTieGcc, KernelName::REDUCE3_INT, 64, false));
    }

    #[test]
    fn clang_strictly_broader_than_gcc() {
        // Every kernel GCC executes vectorised, Clang also vectorises
        // (Clang ≥ GCC in coverage, as [11] found).
        for &k in KernelName::ALL.iter() {
            if vec_status(Compiler::XuanTieGcc, k) == VecStatus::Vectorized {
                assert_ne!(vec_status(Compiler::Clang, k), VecStatus::NotVectorized, "{k}");
            }
        }
    }
}
