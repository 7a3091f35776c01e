//! rvhpc — a reproduction of "Is RISC-V ready for HPC prime-time:
//! Evaluating the 64-core Sophon SG2042 RISC-V CPU" (SC-W 2023).
//!
//! The paper benchmarks the first commodity 64-core RISC-V CPU with the
//! RAJA Performance Suite against earlier RISC-V boards and four x86 server
//! CPUs. This workspace rebuilds the entire experimental apparatus in Rust:
//!
//! * [`rvhpc_kernels`] — all 64 RAJAPerf kernels, really executing, plus
//!   per-kernel workload descriptors;
//! * [`rvhpc_machines`] — descriptors for every CPU in the study, including
//!   the SG2042's interleaved NUMA map and its three placement policies;
//! * [`rvhpc_threads`] — an OpenMP-substitute threading runtime;
//! * [`rvhpc_rvv`] — a miniature RVV toolchain (v1.0/v0.7.1 dialects,
//!   interpreter, and the RVV-Rollback rewriter);
//! * [`rvhpc_compiler`] — GCC/Clang auto-vectorisation capability tables
//!   and a real RVV code generator;
//! * [`rvhpc_analyze`] — a static dataflow verifier for RVV programs
//!   (`repro lint`) plus a machine-descriptor lint;
//! * [`rvhpc_perfmodel`] — the analytic timing engine that stands in for
//!   the hardware (see DESIGN.md for the substitution argument);
//! * this crate — the suite runner, one experiment module per paper table
//!   and figure, report rendering, the paper's numbers in one table
//!   ([`paper`]) and the model scored against them ([`fidelity`]).
//!
//! # Quick start
//!
//! ```
//! use rvhpc::experiments::fig1;
//! use rvhpc::perfmodel::Model;
//!
//! let fig = fig1::run(Model::paper());
//! // The headline numbers of the paper's Section 3.1:
//! let sg_fp64 = fig.series.iter().find(|s| s.label.contains("SG2042 FP64")).unwrap();
//! assert!(sg_fp64.classes.iter().all(|c| c.mean > 0.0), "C920 beats the U74 everywhere");
//! println!("{}", fig.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fidelity;
pub mod inspect;
pub mod native;
pub mod paper;
pub mod report;
pub mod suite;

pub use report::{ClassStat, FigureReport, SeriesStat, TableReport};
pub use suite::{class_mean, suite_times, times_faster, KernelTime};

// Re-export the workspace crates under their natural names.
pub use rvhpc_analyze as analyze;
pub use rvhpc_cachesim as cachesim;
pub use rvhpc_cluster as cluster;
pub use rvhpc_compiler as compiler;
pub use rvhpc_kernels as kernels;
pub use rvhpc_machines as machines;
pub use rvhpc_perfmodel as perfmodel;
pub use rvhpc_rvv as rvv;
pub use rvhpc_threads as threads;
pub use rvhpc_verify as verify;
