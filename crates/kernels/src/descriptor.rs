//! Kernel work descriptors: the per-loop facts the performance model needs.
//!
//! Each kernel declares, as data derived from its actual loop body: the
//! iteration count, floating-point and integer operation counts per
//! iteration, its memory streams (footprint, stride, sweep count, write
//! fraction, locality), and a vectorisation profile (inherent
//! data-parallelism, gather/scatter needs, reductions, branch divergence).
//!
//! These descriptors are consumed by `rvhpc-compiler` (can this loop be
//! vectorised, and how well?) and `rvhpc-perfmodel` (how many cycles and
//! how many bytes at each memory level?). They are kept in one module,
//! separate from the executable implementations in [`crate::exec`], so that
//! the mapping from loop body → model input is reviewable side by side.

use crate::ids::KernelName;
use std::sync::OnceLock;

/// Spatial access shape of one stream (converted to the cache model's
/// locality classes by `rvhpc-perfmodel`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// Unit-stride sweep.
    Sequential,
    /// Fixed stride of this many *elements*.
    Strided(f64),
    /// Data-dependent / random.
    Random,
}

/// One memory stream of a kernel (per repetition, whole problem — the
/// performance model divides by threads).
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Array name as in the loop body (for reports/debugging).
    pub name: &'static str,
    /// Footprint in elements.
    pub elems: f64,
    /// Full sweeps over the footprint per kernel repetition.
    pub passes: f64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Spatial shape.
    pub access: Access,
    /// Element size override in bytes (e.g. 1 for MEMSET's bytes, 8 for
    /// index arrays); `None` means the run's floating-point element size.
    pub elem_bytes_override: Option<u32>,
}

impl StreamSpec {
    /// A read-only sequential stream of `elems` elements, one pass.
    pub fn read(name: &'static str, elems: f64) -> Self {
        StreamSpec {
            name,
            elems,
            passes: 1.0,
            write_fraction: 0.0,
            access: Access::Sequential,
            elem_bytes_override: None,
        }
    }

    /// A write-only sequential stream.
    pub fn write(name: &'static str, elems: f64) -> Self {
        StreamSpec { write_fraction: 1.0, ..StreamSpec::read(name, elems) }
    }

    /// A read-modify-write sequential stream.
    pub fn read_write(name: &'static str, elems: f64) -> Self {
        StreamSpec { write_fraction: 0.5, ..StreamSpec::read(name, elems) }
    }

    /// Set the sweep count.
    pub fn passes(mut self, p: f64) -> Self {
        self.passes = p;
        self
    }

    /// Mark as strided by `s` elements.
    pub fn strided(mut self, s: f64) -> Self {
        self.access = Access::Strided(s);
        self
    }

    /// Mark as random access.
    pub fn random(mut self) -> Self {
        self.access = Access::Random;
        self
    }

    /// Override the element size in bytes.
    pub fn elem_bytes(mut self, b: u32) -> Self {
        self.elem_bytes_override = Some(b);
        self
    }
}

/// How a loop responds to vectorisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecProfile {
    /// The loop has no loop-carried dependence (inherently vectorisable).
    pub vectorizable: bool,
    /// Fraction of the ideal lane speedup achievable on the compute-bound
    /// part (unit-stride FMA-friendly code ≈ 0.9; branchy or shuffle-heavy
    /// code lower).
    pub efficiency: f64,
    /// Data elements are integers, so "FP64" runs still vectorise on the
    /// C920 (REDUCE3_INT is the paper's example).
    pub int_data: bool,
    /// Needs gather/scatter when vectorised.
    pub gather_scatter: bool,
    /// Contains a reduction (vectorised via partial sums + final reduce).
    pub reduction: bool,
    /// Branch-divergence factor 0..1 (1 = fully divergent; costs scale up).
    pub divergence: f64,
}

impl VecProfile {
    /// A clean, unit-stride, dependence-free loop.
    pub fn clean() -> Self {
        VecProfile {
            vectorizable: true,
            efficiency: 0.9,
            int_data: false,
            gather_scatter: false,
            reduction: false,
            divergence: 0.0,
        }
    }

    /// A loop with a loop-carried dependence: never vectorisable.
    pub fn serial() -> Self {
        VecProfile { vectorizable: false, efficiency: 0.0, ..VecProfile::clean() }
    }

    /// Lower the achievable efficiency.
    pub fn efficiency(mut self, e: f64) -> Self {
        self.efficiency = e;
        self
    }

    /// Mark as a reduction loop.
    pub fn reduction(mut self) -> Self {
        self.reduction = true;
        self
    }

    /// Mark as integer-data.
    pub fn int_data(mut self) -> Self {
        self.int_data = true;
        self
    }

    /// Mark as gather/scatter.
    pub fn gather_scatter(mut self) -> Self {
        self.gather_scatter = true;
        self
    }

    /// Set the divergence factor.
    pub fn divergence(mut self, d: f64) -> Self {
        self.divergence = d;
        self
    }
}

/// Everything the models need to know about one kernel at one problem size.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Inner-loop iterations per repetition.
    pub iterations: f64,
    /// Cheap FP ops (add/sub/mul/fma-as-two) per iteration.
    pub fp_ops: f64,
    /// Expensive FP ops (div/sqrt/exp) per iteration.
    pub fp_expensive: f64,
    /// Integer ALU ops per iteration (index math beyond the induction
    /// variable, comparisons, data-integer arithmetic).
    pub int_ops: f64,
    /// Memory streams.
    pub streams: Vec<StreamSpec>,
    /// Vectorisation response.
    pub vec: VecProfile,
}

impl Workload {
    /// Total bytes requested per repetition at an element size (streams
    /// with overrides keep their own sizes).
    pub fn requested_bytes(&self, elem_bytes: u32) -> f64 {
        self.streams
            .iter()
            .map(|s| {
                let eb = s.elem_bytes_override.unwrap_or(elem_bytes) as f64;
                s.elems * s.passes * eb
            })
            .sum()
    }

    /// Total FP ops per repetition.
    pub fn total_flops(&self) -> f64 {
        self.iterations * (self.fp_ops + self.fp_expensive)
    }

    /// Arithmetic intensity (flops per requested byte) at an element size.
    pub fn arithmetic_intensity(&self, elem_bytes: u32) -> f64 {
        let b = self.requested_bytes(elem_bytes);
        if b == 0.0 {
            0.0
        } else {
            self.total_flops() / b
        }
    }
}

/// The workload descriptor for a kernel at problem size `n`.
///
/// `n` follows each kernel's [`KernelName::default_size`] convention
/// (elements for 1D kernels, total points for grids, result elements for
/// matrix kernels).
pub fn workload(name: KernelName, n: usize) -> Workload {
    use KernelName::*;
    let nf = n as f64;
    match name {
        // ------------------------------ Stream ------------------------------
        STREAM_COPY => Workload {
            iterations: nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("a", nf), StreamSpec::write("c", nf)],
            vec: VecProfile::clean().efficiency(0.95),
        },
        STREAM_MUL => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("c", nf), StreamSpec::write("b", nf)],
            vec: VecProfile::clean().efficiency(0.95),
        },
        STREAM_ADD => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read("a", nf),
                StreamSpec::read("b", nf),
                StreamSpec::write("c", nf),
            ],
            vec: VecProfile::clean().efficiency(0.95),
        },
        STREAM_TRIAD => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read("b", nf),
                StreamSpec::read("c", nf),
                StreamSpec::write("a", nf),
            ],
            vec: VecProfile::clean().efficiency(0.95),
        },
        STREAM_DOT => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("a", nf), StreamSpec::read("b", nf)],
            vec: VecProfile::clean().efficiency(0.9).reduction(),
        },

        // ---------------------------- Algorithm -----------------------------
        MEMCPY => Workload {
            iterations: nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("src", nf), StreamSpec::write("dst", nf)],
            // Byte movement is precision-agnostic: vector copies work at
            // "FP64" too (int_data).
            vec: VecProfile::clean().efficiency(1.0).int_data(),
        },
        MEMSET => Workload {
            iterations: nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            // Write-only: the C920's vector stores shine here (the paper's
            // 40× kernel). Byte fills vectorise at any precision.
            streams: vec![StreamSpec::write("dst", nf)],
            vec: VecProfile::clean().efficiency(1.0).int_data(),
        },
        REDUCE_SUM => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("x", nf)],
            vec: VecProfile::clean().reduction(),
        },
        SCAN => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("x", nf), StreamSpec::write("y", nf)],
            // Prefix sums carry a dependence; neither compiler vectorises.
            vec: VecProfile::serial(),
        },
        SORT => Workload {
            // ~n log2 n branchy comparisons; pdq-style partitioning is
            // compute/branch bound, and the passes that do touch memory are
            // cache-blocked — only ~2 full sequential sweeps reach DRAM.
            iterations: nf * nf.log2().max(1.0),
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 8.0, // compare + swap + mispredict amortisation
            streams: vec![StreamSpec::read_write("x", nf).passes(2.0)],
            vec: VecProfile::serial(),
        },
        SORTPAIRS => Workload {
            iterations: nf * nf.log2().max(1.0),
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 10.0,
            streams: vec![
                StreamSpec::read_write("keys", nf).passes(2.0),
                StreamSpec::read_write("vals", nf).passes(2.0),
            ],
            vec: VecProfile::serial(),
        },

        // ------------------------------ Basic -------------------------------
        DAXPY => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("x", nf), StreamSpec::read_write("y", nf)],
            vec: VecProfile::clean().efficiency(0.95),
        },
        DAXPY_ATOMIC => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 4.0, // CAS loop overhead
            streams: vec![StreamSpec::read("x", nf), StreamSpec::read_write("y", nf)],
            vec: VecProfile::serial(), // atomics block vectorisation
        },
        IF_QUAD => Workload {
            iterations: nf,
            fp_ops: 8.0,
            fp_expensive: 1.5, // sqrt + divides on the taken branch
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read("a", nf),
                StreamSpec::read("b", nf),
                StreamSpec::read("c", nf),
                StreamSpec::write("x1", nf),
                StreamSpec::write("x2", nf),
            ],
            vec: VecProfile::clean().efficiency(0.5).divergence(0.4),
        },
        INDEXLIST => Workload {
            iterations: nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 3.0,
            streams: vec![
                StreamSpec::read("x", nf),
                StreamSpec::write("list", nf / 2.0).elem_bytes(4),
            ],
            vec: VecProfile::serial(), // compaction has a serial counter
        },
        INDEXLIST_3LOOP => Workload {
            iterations: 3.0 * nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 2.0,
            streams: vec![
                StreamSpec::read("x", nf).passes(2.0),
                StreamSpec::read_write("counts", nf).elem_bytes(4).passes(2.0),
                StreamSpec::write("list", nf / 2.0).elem_bytes(4),
            ],
            vec: VecProfile::serial(), // the scan loop dominates
        },
        INIT3 => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read("in1", nf),
                StreamSpec::read("in2", nf),
                StreamSpec::write("out1", nf),
                StreamSpec::write("out2", nf),
                StreamSpec::write("out3", nf),
            ],
            vec: VecProfile::clean().efficiency(0.9),
        },
        INIT_VIEW1D => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 1.0,
            streams: vec![StreamSpec::write("a", nf)],
            vec: VecProfile::clean().efficiency(0.9),
        },
        INIT_VIEW1D_OFFSET => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 2.0,
            streams: vec![StreamSpec::write("a", nf)],
            vec: VecProfile::clean().efficiency(0.9),
        },
        MAT_MAT_SHARED => {
            let dim = nf.sqrt();
            Workload {
                iterations: nf * dim, // N² results × N MACs
                fp_ops: 2.0,
                fp_expensive: 0.0,
                int_ops: 2.0, // tile index arithmetic
                streams: vec![
                    StreamSpec::read("A", nf).passes(dim / 16.0), // 16×16 tiles
                    StreamSpec::read("B", nf).passes(dim / 16.0),
                    StreamSpec::write("C", nf),
                ],
                vec: VecProfile::clean().efficiency(0.7),
            }
        }
        MULADDSUB => Workload {
            iterations: nf,
            fp_ops: 3.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read("in1", nf),
                StreamSpec::read("in2", nf),
                StreamSpec::write("out1", nf),
                StreamSpec::write("out2", nf),
                StreamSpec::write("out3", nf),
            ],
            vec: VecProfile::clean().efficiency(0.9),
        },
        NESTED_INIT => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 4.0, // 3D index arithmetic
            streams: vec![StreamSpec::write("array", nf)],
            vec: VecProfile::clean().efficiency(0.8),
        },
        PI_ATOMIC => Workload {
            iterations: nf,
            fp_ops: 4.0,
            fp_expensive: 1.0, // divide
            int_ops: 4.0,      // atomic CAS
            streams: vec![],   // no array traffic: one shared accumulator
            vec: VecProfile::serial(),
        },
        PI_REDUCE => Workload {
            iterations: nf,
            fp_ops: 4.0,
            fp_expensive: 1.0,
            int_ops: 0.0,
            streams: vec![],
            vec: VecProfile::clean().reduction().efficiency(0.6),
        },
        REDUCE3_INT => Workload {
            iterations: nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 6.0, // sum + (cmp, select) for min and for max
            streams: vec![StreamSpec::read("vec", nf).elem_bytes(4)],
            vec: VecProfile::clean().reduction().int_data(),
        },
        REDUCE_STRUCT => Workload {
            iterations: nf,
            fp_ops: 6.0, // 2 sums, 2 mins, 2 maxs
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read("x", nf), StreamSpec::read("y", nf)],
            vec: VecProfile::clean().reduction().efficiency(0.7),
        },
        TRAP_INT => Workload {
            iterations: nf,
            fp_ops: 6.0,
            fp_expensive: 2.0, // two divides in the integrand
            int_ops: 0.0,
            streams: vec![],
            vec: VecProfile::clean().reduction().efficiency(0.6),
        },

        // ------------------------------ Lcals -------------------------------
        DIFF_PREDICT => Workload {
            iterations: nf,
            fp_ops: 10.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                // 14 planes of px (read-write) and 14 of cx (read), strided
                // by plane in the RAJAPerf layout.
                StreamSpec::read_write("px", 14.0 * nf),
                StreamSpec::read("cx", 14.0 * nf),
            ],
            vec: VecProfile::clean().efficiency(0.7),
        },
        EOS => Workload {
            iterations: nf,
            fp_ops: 16.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::write("x", nf),
                StreamSpec::read("y", nf),
                StreamSpec::read("z", nf),
                StreamSpec::read("u", nf).passes(1.2), // overlapping windows
            ],
            vec: VecProfile::clean().efficiency(0.85),
        },
        FIRST_DIFF => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::write("x", nf), StreamSpec::read("y", nf)],
            vec: VecProfile::clean().efficiency(0.95),
        },
        FIRST_MIN => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 1.0, // location tracking
            streams: vec![StreamSpec::read("x", nf)],
            vec: VecProfile::clean().reduction().efficiency(0.5),
        },
        FIRST_SUM => Workload {
            iterations: nf,
            fp_ops: 1.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::write("x", nf), StreamSpec::read("y", nf)],
            vec: VecProfile::clean().efficiency(0.95),
        },
        GEN_LIN_RECUR => Workload {
            iterations: 2.0 * nf,
            fp_ops: 3.0,
            fp_expensive: 0.0,
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read_write("b5", nf),
                StreamSpec::read("sa", nf),
                StreamSpec::read("sb", nf),
                StreamSpec::read_write("stb5", nf),
            ],
            vec: VecProfile::serial(), // recurrence on stb5
        },
        HYDRO_1D => Workload {
            iterations: nf,
            fp_ops: 5.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::write("x", nf),
                StreamSpec::read("y", nf),
                StreamSpec::read("z", nf).passes(1.1),
            ],
            vec: VecProfile::clean().efficiency(0.9),
        },
        HYDRO_2D => Workload {
            iterations: nf,
            fp_ops: 20.0,
            fp_expensive: 0.0,
            int_ops: 2.0,
            streams: vec![
                StreamSpec::read("za..zr in", 5.0 * nf),
                StreamSpec::write("za..zr out", 3.0 * nf),
            ],
            vec: VecProfile::clean().efficiency(0.6),
        },
        INT_PREDICT => Workload {
            iterations: nf,
            fp_ops: 17.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![StreamSpec::read_write("px", 13.0 * nf)],
            vec: VecProfile::clean().efficiency(0.7),
        },
        PLANCKIAN => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 3.0, // two divides + exp
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read("u", nf),
                StreamSpec::read("v", nf),
                StreamSpec::read("x", nf),
                StreamSpec::write("y", nf),
                StreamSpec::write("w", nf),
            ],
            vec: VecProfile::clean().efficiency(0.3), // exp stays scalar-ish
        },
        TRIDIAG_ELIM => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read_write("x", nf),
                StreamSpec::read("y", nf),
                StreamSpec::read("z", nf),
            ],
            vec: VecProfile::serial(), // x[i] depends on x[i-1]
        },

        // ---------------------------- Polybench -----------------------------
        P2MM => {
            let dim = nf.sqrt();
            Workload {
                iterations: 2.0 * nf * dim,
                fp_ops: 2.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read("A", nf),
                    StreamSpec::read("B", nf).passes(dim / 8.0),
                    StreamSpec::read_write("tmp", nf).passes(2.0),
                    StreamSpec::read("C", nf).passes(dim / 8.0),
                    StreamSpec::write("D", nf),
                ],
                vec: VecProfile::clean().efficiency(0.8),
            }
        }
        P3MM => {
            let dim = nf.sqrt();
            Workload {
                iterations: 3.0 * nf * dim,
                fp_ops: 2.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read("A", nf),
                    StreamSpec::read("B", nf).passes(dim / 8.0),
                    StreamSpec::read("C", nf).passes(dim / 8.0),
                    StreamSpec::read("D", nf).passes(dim / 8.0),
                    StreamSpec::read_write("E F G", 3.0 * nf),
                ],
                vec: VecProfile::clean().efficiency(0.8),
            }
        }
        ADI => Workload {
            // n grid points swept by column and row passes over T steps≈4.
            iterations: 8.0 * nf,
            fp_ops: 12.0,
            fp_expensive: 2.0,
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read_write("u", nf).passes(8.0),
                StreamSpec::read_write("v p q", 3.0 * nf).passes(8.0),
            ],
            vec: VecProfile::serial(), // sweep recurrences
        },
        ATAX => {
            let dim = nf.sqrt();
            Workload {
                iterations: 2.0 * nf,
                fp_ops: 2.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read("A", nf).passes(2.0),
                    StreamSpec::read("x", dim).passes(dim),
                    StreamSpec::read_write("tmp y", 2.0 * dim).passes(dim / 4.0),
                ],
                vec: VecProfile::clean().reduction().efficiency(0.7),
            }
        }
        FDTD_2D => Workload {
            iterations: 3.0 * nf,
            fp_ops: 3.0,
            fp_expensive: 0.0,
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read_write("ex", nf).passes(2.0),
                StreamSpec::read_write("ey", nf).passes(2.0),
                StreamSpec::read_write("hz", nf).passes(3.0),
            ],
            vec: VecProfile::clean().efficiency(0.8),
        },
        FLOYD_WARSHALL => {
            let dim = nf.sqrt();
            Workload {
                iterations: nf * dim,
                fp_ops: 2.0, // add + min
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![StreamSpec::read_write("path", nf).passes(dim)],
                vec: VecProfile::clean().efficiency(0.5), // GCC can't; Clang can
            }
        }
        GEMM => {
            let dim = nf.sqrt();
            Workload {
                iterations: nf * dim,
                fp_ops: 2.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read("A", nf),
                    StreamSpec::read("B", nf).passes(dim / 8.0),
                    StreamSpec::read_write("C", nf),
                ],
                vec: VecProfile::clean().efficiency(0.8),
            }
        }
        GEMVER => {
            let dim = nf.sqrt();
            Workload {
                iterations: 2.0 * nf + 2.0 * dim,
                fp_ops: 3.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read_write("A", nf).passes(2.0),
                    StreamSpec::read("u1 u2 v1 v2 y z", 6.0 * dim).passes(dim / 4.0),
                    StreamSpec::read_write("x w", 2.0 * dim).passes(dim / 4.0),
                ],
                vec: VecProfile::clean().efficiency(0.75),
            }
        }
        GESUMMV => {
            let dim = nf.sqrt();
            Workload {
                iterations: nf,
                fp_ops: 4.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read("A", nf),
                    StreamSpec::read("B", nf),
                    StreamSpec::read("x", dim).passes(dim),
                    StreamSpec::write("y", dim),
                ],
                vec: VecProfile::clean().reduction().efficiency(0.7),
            }
        }
        HEAT_3D => Workload {
            iterations: 2.0 * nf,
            fp_ops: 10.0,
            fp_expensive: 0.0,
            int_ops: 3.0,
            streams: vec![
                StreamSpec::read_write("A", nf).passes(2.0),
                StreamSpec::read_write("B", nf).passes(2.0),
            ],
            vec: VecProfile::clean().efficiency(0.6),
        },
        JACOBI_1D => Workload {
            iterations: 2.0 * nf,
            fp_ops: 3.0,
            fp_expensive: 0.0,
            int_ops: 0.0,
            streams: vec![
                StreamSpec::read_write("A", nf).passes(2.0),
                StreamSpec::read_write("B", nf).passes(2.0),
            ],
            vec: VecProfile::clean().efficiency(0.9),
        },
        JACOBI_2D => Workload {
            iterations: 2.0 * nf,
            fp_ops: 5.0,
            fp_expensive: 0.0,
            int_ops: 2.0,
            streams: vec![
                StreamSpec::read_write("A", nf).passes(2.0),
                StreamSpec::read_write("B", nf).passes(2.0),
            ],
            vec: VecProfile::clean().efficiency(0.75),
        },
        MVT => {
            let dim = nf.sqrt();
            Workload {
                iterations: 2.0 * nf,
                fp_ops: 2.0,
                fp_expensive: 0.0,
                int_ops: 1.0,
                streams: vec![
                    StreamSpec::read("A", nf).passes(2.0), // row- and column-wise
                    StreamSpec::read("y1 y2", 2.0 * dim).passes(dim / 4.0),
                    StreamSpec::read_write("x1 x2", 2.0 * dim).passes(dim / 4.0),
                ],
                vec: VecProfile::clean().reduction().efficiency(0.65),
            }
        }

        // ------------------------------- Apps --------------------------------
        CONVECTION3DPA => Workload {
            iterations: nf,
            fp_ops: 50.0, // dense small-tensor contractions per point
            fp_expensive: 0.0,
            int_ops: 6.0,
            streams: vec![
                StreamSpec::read("basis", 4096.0).passes(nf / 512.0),
                StreamSpec::read("in", nf),
                StreamSpec::write("out", nf),
            ],
            vec: VecProfile::clean().efficiency(0.5),
        },
        DEL_DOT_VEC_2D => Workload {
            iterations: nf,
            fp_ops: 30.0,
            fp_expensive: 0.0,
            int_ops: 4.0,
            streams: vec![
                StreamSpec::read("x y xdot ydot", 4.0 * nf).passes(1.5), // node reuse across zones
                StreamSpec::read("real_zones", nf).elem_bytes(4),
                StreamSpec::write("div", nf),
            ],
            vec: VecProfile::clean().gather_scatter().efficiency(0.4),
        },
        DIFFUSION3DPA => Workload {
            iterations: nf,
            fp_ops: 54.0,
            fp_expensive: 0.0,
            int_ops: 6.0,
            streams: vec![
                StreamSpec::read("basis", 4096.0).passes(nf / 512.0),
                StreamSpec::read("in", nf),
                StreamSpec::write("out", nf),
            ],
            vec: VecProfile::clean().efficiency(0.5),
        },
        ENERGY => Workload {
            iterations: 6.0 * nf,
            fp_ops: 11.0,
            fp_expensive: 0.5,
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read_write("e_new e_old", 2.0 * nf).passes(3.0),
                StreamSpec::read("delvc p_old q_old compHalfStep", 4.0 * nf).passes(2.0),
                StreamSpec::read("pbvc bvc ql qq vnewc", 5.0 * nf),
            ],
            vec: VecProfile::clean().efficiency(0.55).divergence(0.3),
        },
        FIR => Workload {
            iterations: nf,
            fp_ops: 32.0, // 16-tap FMA
            fp_expensive: 0.0,
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read("in", nf).passes(1.3), // tap window overlap
                StreamSpec::write("out", nf),
            ],
            vec: VecProfile::clean().efficiency(0.85),
        },
        HALO_PACKING => Workload {
            iterations: nf,
            fp_ops: 0.0,
            fp_expensive: 0.0,
            int_ops: 2.0,
            streams: vec![
                StreamSpec::read("vars", nf).strided(8.0), // every-8th halo gather
                StreamSpec::write("buffers", nf),
                StreamSpec::read("indices", nf).elem_bytes(4),
            ],
            vec: VecProfile::clean().gather_scatter().efficiency(0.3),
        },
        LTIMES => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 4.0, // view arithmetic
            streams: vec![
                StreamSpec::read("ell", 4096.0).passes(nf / 4096.0),
                StreamSpec::read("psi", nf),
                StreamSpec::read_write("phi", nf / 2.0).passes(2.0),
            ],
            vec: VecProfile::clean().efficiency(0.6),
        },
        LTIMES_NOVIEW => Workload {
            iterations: nf,
            fp_ops: 2.0,
            fp_expensive: 0.0,
            int_ops: 3.0,
            streams: vec![
                StreamSpec::read("ell", 4096.0).passes(nf / 4096.0),
                StreamSpec::read("psi", nf),
                StreamSpec::read_write("phi", nf / 2.0).passes(2.0),
            ],
            vec: VecProfile::clean().efficiency(0.65),
        },
        MASS3DPA => Workload {
            iterations: nf,
            fp_ops: 40.0,
            fp_expensive: 0.0,
            int_ops: 5.0,
            streams: vec![
                StreamSpec::read("basis", 4096.0).passes(nf / 512.0),
                StreamSpec::read("D X", 2.0 * nf),
                StreamSpec::write("Y", nf),
            ],
            vec: VecProfile::clean().efficiency(0.5),
        },
        NODAL_ACCUMULATION_3D => Workload {
            iterations: nf,
            fp_ops: 8.0, // 8 corner accumulations
            fp_expensive: 0.0,
            int_ops: 9.0,
            streams: vec![
                StreamSpec::read("vol", nf),
                StreamSpec::read_write("x", nf).passes(2.0), // 8-corner scatter, heavy reuse
                StreamSpec::read("real_zones", nf).elem_bytes(4),
            ],
            vec: VecProfile::serial(), // scatter-add conflicts
        },
        PRESSURE => Workload {
            iterations: 2.0 * nf,
            fp_ops: 5.0,
            fp_expensive: 0.5,
            int_ops: 1.0,
            streams: vec![
                StreamSpec::read("compression bvc", 2.0 * nf),
                StreamSpec::read_write("p_new", nf).passes(2.0),
                StreamSpec::read("e_old vnewc", 2.0 * nf),
            ],
            vec: VecProfile::clean().efficiency(0.6).divergence(0.2),
        },
        VOL3D => Workload {
            iterations: nf,
            fp_ops: 72.0,
            fp_expensive: 0.0,
            int_ops: 8.0,
            streams: vec![
                StreamSpec::read("x y z", 3.0 * nf).passes(1.5), // 8-corner reuse
                StreamSpec::write("vol", nf),
            ],
            vec: VecProfile::clean().efficiency(0.45),
        },
        ZONAL_ACCUMULATION_3D => Workload {
            iterations: nf,
            fp_ops: 8.0,
            fp_expensive: 0.0,
            int_ops: 9.0,
            streams: vec![
                StreamSpec::read("x", nf).passes(2.0), // 8-corner gather, heavy reuse
                StreamSpec::write("zonal", nf),
                StreamSpec::read("real_zones", nf).elem_bytes(4),
            ],
            vec: VecProfile::clean().gather_scatter().efficiency(0.35),
        },
    }
}

/// A kernel's vectorisation response, which no problem size changes: its
/// [`workload`]'s `vec` at the default size, read from a table built once
/// per process, so asking for it builds no descriptor.
pub fn vec_profile(name: KernelName) -> VecProfile {
    static TABLE: OnceLock<Vec<VecProfile>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        KernelName::ALL.iter().map(|&k| workload(k, k.default_size()).vec).collect()
    });
    table[name as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{KernelClass, KernelName};

    #[test]
    fn every_kernel_has_a_workload() {
        for k in KernelName::ALL {
            let w = workload(k, k.default_size());
            assert!(w.iterations > 0.0, "{k}");
            assert!(w.fp_ops >= 0.0 && w.fp_expensive >= 0.0 && w.int_ops >= 0.0, "{k}");
            for s in &w.streams {
                assert!(s.elems > 0.0, "{k}/{}", s.name);
                assert!(s.passes > 0.0, "{k}/{}", s.name);
                assert!((0.0..=1.0).contains(&s.write_fraction), "{k}/{}", s.name);
            }
            assert!((0.0..=1.0).contains(&w.vec.efficiency), "{k}");
            assert!((0.0..=1.0).contains(&w.vec.divergence), "{k}");
        }
    }

    #[test]
    fn stream_kernels_are_bandwidth_bound() {
        for k in KernelName::in_class(KernelClass::Stream) {
            let w = workload(k, 1_000_000);
            assert!(
                w.arithmetic_intensity(8) < 0.5,
                "{k}: stream kernels must be memory bound, got {}",
                w.arithmetic_intensity(8)
            );
        }
    }

    #[test]
    fn matrix_kernels_are_compute_bound() {
        for k in [KernelName::GEMM, KernelName::P2MM, KernelName::P3MM] {
            let w = workload(k, 1_000_000);
            assert!(
                w.arithmetic_intensity(8) > 1.5,
                "{k}: matmul must be compute bound, got {}",
                w.arithmetic_intensity(8)
            );
        }
    }

    #[test]
    fn serial_kernels_are_not_vectorizable() {
        for k in [
            KernelName::TRIDIAG_ELIM,
            KernelName::GEN_LIN_RECUR,
            KernelName::SCAN,
            KernelName::INDEXLIST,
            KernelName::ADI,
            KernelName::DAXPY_ATOMIC,
        ] {
            assert!(!workload(k, 1000).vec.vectorizable, "{k}");
        }
    }

    #[test]
    fn reduce3_int_is_integer_data() {
        let w = workload(KernelName::REDUCE3_INT, 1000);
        assert!(w.vec.int_data && w.vec.vectorizable && w.vec.reduction);
    }

    #[test]
    fn workload_scales_with_problem_size() {
        for k in KernelName::ALL {
            let small = workload(k, 10_000);
            let large = workload(k, 1_000_000);
            assert!(large.iterations > small.iterations, "{k}: iterations must grow with n");
            assert!(
                large.requested_bytes(8) >= small.requested_bytes(8),
                "{k}: bytes must not shrink with n"
            );
        }
    }

    #[test]
    fn vec_profile_does_not_depend_on_the_size() {
        for k in KernelName::ALL {
            for n in [1_000, k.default_size(), 8_388_608] {
                assert_eq!(vec_profile(k), workload(k, n).vec, "{k} at {n}");
            }
        }
    }

    #[test]
    fn requested_bytes_respects_overrides() {
        let w = workload(KernelName::REDUCE3_INT, 1000);
        // The int stream is 4-byte regardless of FP precision.
        assert_eq!(w.requested_bytes(4), w.requested_bytes(8));
    }
}
