//! A miniature RISC-V Vector (RVV) toolchain substrate.
//!
//! The paper's compiler study (Section 3.2, Figure 3) hinges on a toolchain
//! quirk: the SG2042's XuanTie C920 cores implement **RVV v0.7.1**, while
//! upstream Clang only emits **RVV v1.0** assembly. The authors bridge the
//! gap with their RVV-Rollback tool, which rewrites v1.0 assembly into
//! v0.7.1. This crate reproduces that whole tool path in miniature:
//!
//! * [`inst`] — a unified instruction AST covering the subset of scalar and
//!   vector RISC-V that the suite's vectorised loops need;
//! * [`dialect`] — the two vector dialects and their differences (mnemonic
//!   families, `vsetvli` tail/mask policy flags, fractional LMUL);
//! * [`print`](mod@print) / [`parse`] — assembly text in either dialect;
//! * [`interp`] — a functional interpreter with 128-bit vector registers
//!   (the C920's VLEN) and dialect-faithful tail semantics, used to *prove*
//!   rewrites preserve behaviour;
//! * [`rollback`](mod@rollback) — the v1.0 → v0.7.1 rewriter itself, including the
//!   paper-critical refusals: fractional LMUL has no v0.7.1 encoding, and
//!   FP64 vector arithmetic is rejected because the C920 does not implement
//!   it.
//!
//! The property tests assert the rollback contract end-to-end: for every
//! supported program, executing the original under v1.0 semantics and the
//! rewritten program under v0.7.1 semantics leaves identical memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dialect;
pub mod inst;
pub mod interp;
pub mod parse;
pub mod print;
pub mod rollback;

#[cfg(test)]
mod proptests;

pub use builder::ProgramBuilder;
pub use dialect::{Dialect, Lmul, Sew};
pub use inst::{FReg, Inst, OpClass, Program, VReg, XReg};
pub use interp::{ExecError, Machine, VLEN_BITS};
pub use parse::{parse_program, parse_program_with_lines, ParseError, SourceMap};
pub use print::print_program;
pub use rollback::{rollback, RollbackError};
