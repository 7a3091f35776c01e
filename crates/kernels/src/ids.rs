//! Kernel and class identifiers for the 64-kernel suite.
//!
//! The RAJA Performance Suite groups its kernels into the six classes the
//! paper describes in Section 2.2: *Algorithm* (6 kernels), *Apps* (13),
//! *Basic* (16), *Lcals* (11), *Polybench* (13) and *Stream* (5).

use std::fmt;

/// The six benchmark classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelClass {
    /// Basic algorithmic activities: memory copies, sorting, reductions.
    Algorithm,
    /// Common components of HPC applications.
    Apps,
    /// Foundational mathematical functions.
    Basic,
    /// The Livermore Compiler Analysis Loop Suite.
    Lcals,
    /// Polyhedral kernels.
    Polybench,
    /// Memory bandwidth focused kernels.
    Stream,
}

impl KernelClass {
    /// All classes, in the paper's reporting order.
    pub const ALL: [KernelClass; 6] = [
        KernelClass::Algorithm,
        KernelClass::Apps,
        KernelClass::Basic,
        KernelClass::Lcals,
        KernelClass::Polybench,
        KernelClass::Stream,
    ];

    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            KernelClass::Algorithm => "algorithm",
            KernelClass::Apps => "apps",
            KernelClass::Basic => "basic",
            KernelClass::Lcals => "lcals",
            KernelClass::Polybench => "polybench",
            KernelClass::Stream => "stream",
        }
    }
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

macro_rules! kernels {
    ($( $class:ident { $( $(#[$doc:meta])* $name:ident = $label:literal ),+ $(,)? } )+) => {
        /// Every kernel in the suite.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(non_camel_case_types)]
        pub enum KernelName {
            $( $( $(#[$doc])* $name, )+ )+
        }

        impl KernelName {
            /// All kernels, grouped by class in declaration order.
            pub const ALL: [KernelName; 64] = [
                $( $( KernelName::$name, )+ )+
            ];

            /// The class a kernel belongs to.
            pub fn class(self) -> KernelClass {
                match self {
                    $( $( KernelName::$name )|+ => KernelClass::$class, )+
                }
            }

            /// RAJAPerf-style display label, e.g. `Basic_DAXPY`.
            pub fn label(self) -> &'static str {
                match self {
                    $( $( KernelName::$name => $label, )+ )+
                }
            }

            /// Look up by RAJAPerf label.
            pub fn from_label(label: &str) -> Option<KernelName> {
                match label {
                    $( $( $label => Some(KernelName::$name), )+ )+
                    _ => None,
                }
            }
        }
    };
}

kernels! {
    Algorithm {
        /// Bulk memory copy.
        MEMCPY = "Algorithm_MEMCPY",
        /// Bulk memory set (40× faster on the C920 than the U74 in FP32 —
        /// the paper's standout kernel).
        MEMSET = "Algorithm_MEMSET",
        /// Sum reduction.
        REDUCE_SUM = "Algorithm_REDUCE_SUM",
        /// Exclusive prefix sum.
        SCAN = "Algorithm_SCAN",
        /// Sort values.
        SORT = "Algorithm_SORT",
        /// Sort key/value pairs.
        SORTPAIRS = "Algorithm_SORTPAIRS",
    }
    Apps {
        /// 3D convection by partial assembly.
        CONVECTION3DPA = "Apps_CONVECTION3DPA",
        /// Divergence of a vector field on a 2D mesh.
        DEL_DOT_VEC_2D = "Apps_DEL_DOT_VEC_2D",
        /// 3D diffusion by partial assembly.
        DIFFUSION3DPA = "Apps_DIFFUSION3DPA",
        /// Hydrodynamics energy update.
        ENERGY = "Apps_ENERGY",
        /// Finite impulse response filter.
        FIR = "Apps_FIR",
        /// Halo-exchange buffer packing/unpacking.
        HALO_PACKING = "Apps_HALO_PACKING",
        /// Discrete-ordinates scattering source (with views).
        LTIMES = "Apps_LTIMES",
        /// Discrete-ordinates scattering source (raw indexing).
        LTIMES_NOVIEW = "Apps_LTIMES_NOVIEW",
        /// 3D mass matrix by partial assembly.
        MASS3DPA = "Apps_MASS3DPA",
        /// Zone-to-node accumulation.
        NODAL_ACCUMULATION_3D = "Apps_NODAL_ACCUMULATION_3D",
        /// Equation-of-state pressure update.
        PRESSURE = "Apps_PRESSURE",
        /// Hexahedral cell volumes.
        VOL3D = "Apps_VOL3D",
        /// Node-to-zone accumulation.
        ZONAL_ACCUMULATION_3D = "Apps_ZONAL_ACCUMULATION_3D",
    }
    Basic {
        /// `y += a*x`.
        DAXPY = "Basic_DAXPY",
        /// DAXPY with atomic updates.
        DAXPY_ATOMIC = "Basic_DAXPY_ATOMIC",
        /// Quadratic root computation with a discriminant branch.
        IF_QUAD = "Basic_IF_QUAD",
        /// Conditional index-list construction (serial dependence).
        INDEXLIST = "Basic_INDEXLIST",
        /// Three-loop index-list (count, scan, fill).
        INDEXLIST_3LOOP = "Basic_INDEXLIST_3LOOP",
        /// Three simultaneous initialisations.
        INIT3 = "Basic_INIT3",
        /// 1D view initialisation.
        INIT_VIEW1D = "Basic_INIT_VIEW1D",
        /// 1D view initialisation with offset.
        INIT_VIEW1D_OFFSET = "Basic_INIT_VIEW1D_OFFSET",
        /// Tiled matrix multiply (shared-tile formulation).
        MAT_MAT_SHARED = "Basic_MAT_MAT_SHARED",
        /// Fused multiply / add / subtract.
        MULADDSUB = "Basic_MULADDSUB",
        /// Triply-nested initialisation.
        NESTED_INIT = "Basic_NESTED_INIT",
        /// π by atomic accumulation.
        PI_ATOMIC = "Basic_PI_ATOMIC",
        /// π by reduction.
        PI_REDUCE = "Basic_PI_REDUCE",
        /// Integer min/max/sum reduction (integer vectors — the kernel that
        /// lifts the *basic* class FP64 average in the paper's Figure 2).
        REDUCE3_INT = "Basic_REDUCE3_INT",
        /// Struct-of-arrays reduction.
        REDUCE_STRUCT = "Basic_REDUCE_STRUCT",
        /// Trapezoidal integration.
        TRAP_INT = "Basic_TRAP_INT",
    }
    Lcals {
        /// Difference predictor.
        DIFF_PREDICT = "Lcals_DIFF_PREDICT",
        /// Equation of state fragment.
        EOS = "Lcals_EOS",
        /// First difference.
        FIRST_DIFF = "Lcals_FIRST_DIFF",
        /// First minimum with location.
        FIRST_MIN = "Lcals_FIRST_MIN",
        /// First sum.
        FIRST_SUM = "Lcals_FIRST_SUM",
        /// General linear recurrence (loop-carried dependence).
        GEN_LIN_RECUR = "Lcals_GEN_LIN_RECUR",
        /// 1D hydrodynamics fragment.
        HYDRO_1D = "Lcals_HYDRO_1D",
        /// 2D hydrodynamics fragment.
        HYDRO_2D = "Lcals_HYDRO_2D",
        /// Integrate predictors.
        INT_PREDICT = "Lcals_INT_PREDICT",
        /// Planckian distribution (transcendental-heavy).
        PLANCKIAN = "Lcals_PLANCKIAN",
        /// Tridiagonal elimination below diagonal (loop-carried).
        TRIDIAG_ELIM = "Lcals_TRIDIAG_ELIM",
    }
    Polybench {
        /// Two chained matrix multiplications.
        P2MM = "Polybench_2MM",
        /// Three chained matrix multiplications.
        P3MM = "Polybench_3MM",
        /// Alternating direction implicit solver (recurrences).
        ADI = "Polybench_ADI",
        /// `y = Aᵀ(Ax)`.
        ATAX = "Polybench_ATAX",
        /// 2D finite-difference time domain.
        FDTD_2D = "Polybench_FDTD_2D",
        /// All-pairs shortest paths (min-plus).
        FLOYD_WARSHALL = "Polybench_FLOYD_WARSHALL",
        /// General matrix multiply.
        GEMM = "Polybench_GEMM",
        /// Vector multiplication and matrix addition.
        GEMVER = "Polybench_GEMVER",
        /// Scalar, vector and matrix multiplication.
        GESUMMV = "Polybench_GESUMMV",
        /// 3D heat equation stencil.
        HEAT_3D = "Polybench_HEAT_3D",
        /// 1D Jacobi stencil.
        JACOBI_1D = "Polybench_JACOBI_1D",
        /// 2D Jacobi stencil.
        JACOBI_2D = "Polybench_JACOBI_2D",
        /// Matrix-vector product and transpose.
        MVT = "Polybench_MVT",
    }
    Stream {
        /// `c = a + b`.
        STREAM_ADD = "Stream_ADD",
        /// `c = a`.
        STREAM_COPY = "Stream_COPY",
        /// `sum += a*b`.
        STREAM_DOT = "Stream_DOT",
        /// `b = alpha*c`.
        STREAM_MUL = "Stream_MUL",
        /// `a = b + alpha*c`.
        STREAM_TRIAD = "Stream_TRIAD",
    }
}

impl KernelName {
    /// Kernels belonging to one class, in declaration order.
    pub fn in_class(class: KernelClass) -> Vec<KernelName> {
        KernelName::ALL.into_iter().filter(|k| k.class() == class).collect()
    }

    /// Default problem size (≈ RAJAPerf's default target problem sizes).
    /// The meaning is kernel-specific (elements for 1D kernels, total
    /// points for grids); [`crate::descriptor::workload`] derives the real
    /// shapes.
    pub fn default_size(self) -> usize {
        use KernelName::*;
        match self {
            // Matrix kernels: size is interpreted as total result elements.
            P2MM | P3MM | GEMM | MAT_MAT_SHARED => 1_000_000,
            FLOYD_WARSHALL => 262_144, // 512×512 — O(N³) makes bigger painful
            // Everything else: ~1M elements / grid points.
            _ => 1_000_000,
        }
    }

    /// Default repetition count per measured run (RAJAPerf-style; cheap
    /// kernels repeat more).
    pub fn default_reps(self) -> u32 {
        use KernelName::*;
        match self {
            SORT | SORTPAIRS => 4,
            FLOYD_WARSHALL | P2MM | P3MM | GEMM | MAT_MAT_SHARED => 2,
            ADI | HEAT_3D | FDTD_2D | JACOBI_2D => 10,
            _ => 50,
        }
    }
}

impl fmt::Display for KernelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_match_the_paper() {
        // Section 2.2: 6 algorithm, 13 apps, 16 basic, 11 lcals,
        // 13 polybench, 5 stream = 64 kernels.
        let count = |c| KernelName::in_class(c).len();
        assert_eq!(count(KernelClass::Algorithm), 6);
        assert_eq!(count(KernelClass::Apps), 13);
        assert_eq!(count(KernelClass::Basic), 16);
        assert_eq!(count(KernelClass::Lcals), 11);
        assert_eq!(count(KernelClass::Polybench), 13);
        assert_eq!(count(KernelClass::Stream), 5);
        assert_eq!(KernelName::ALL.len(), 64);
    }

    #[test]
    fn labels_unique_and_round_trip() {
        let mut labels: Vec<&str> = KernelName::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate labels");
        for k in KernelName::ALL {
            assert_eq!(KernelName::from_label(k.label()), Some(k));
        }
    }

    #[test]
    fn labels_carry_class_prefix() {
        for k in KernelName::ALL {
            let prefix = match k.class() {
                KernelClass::Algorithm => "Algorithm_",
                KernelClass::Apps => "Apps_",
                KernelClass::Basic => "Basic_",
                KernelClass::Lcals => "Lcals_",
                KernelClass::Polybench => "Polybench_",
                KernelClass::Stream => "Stream_",
            };
            assert!(k.label().starts_with(prefix), "{k}");
        }
    }

    #[test]
    fn defaults_are_positive() {
        for k in KernelName::ALL {
            assert!(k.default_size() > 0);
            assert!(k.default_reps() > 0);
        }
    }
}
