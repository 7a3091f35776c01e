//! The compiler model: who can vectorise what, and what code comes out.
//!
//! The paper's toolchain findings (Sections 2.1 and 3.2) are:
//!
//! * upstream GCC has no RVV support at all; the **XuanTie GCC 8.4** fork
//!   emits Vector Length Specific (VLS) RVV v0.7.1 and auto-vectorises only
//!   30 of the 64 RAJAPerf kernels, 7 of which still take the scalar path
//!   at runtime (per the paper's reference \[11\]);
//! * **Clang** auto-vectorises 59 of 64 (3 of which take the scalar path),
//!   can emit VLA or VLS, but only targets RVV v1.0 — so its output must be
//!   run through the RVV-Rollback rewriter before the C920 can execute it;
//! * the C920 cannot vectorise FP64 arithmetic, so FP64 loops fall back to
//!   scalar regardless of compiler (integer loops like REDUCE3_INT still
//!   vectorise).
//!
//! This crate encodes those capability tables ([`capability`]), actually
//! generates RVV assembly for the streaming kernels ([`codegen`]), and
//! provides the full compile pipeline ([`pipeline`]) whose Clang leg runs
//! the real rollback pass from `rvhpc-rvv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capability;
pub mod codegen;
pub mod pipeline;

pub use capability::{vec_status, Compiler, VecStatus};
pub use codegen::{generate, CodegenKernel, VectorMode};
pub use pipeline::{compile, CompiledKernel, Isa};
