//! OpenMP-substitute threading runtime for the rvhpc suite.
//!
//! The paper runs RAJAPerf under OpenMP with `OMP_PROC_BIND=true` and static
//! scheduling, and its scaling results (Tables 1–3) depend on exactly those
//! semantics: a fixed team of bound threads, contiguous static chunks, a
//! fork-join barrier per kernel repetition. This crate provides the same
//! semantics from scratch:
//!
//! * [`Team`] — a persistent pool of worker threads with logical core
//!   bindings, executing SPMD regions ([`Team::run`]),
//! * [`SpinBarrier`] — a sense-reversing spin barrier (the fork/join and
//!   `#pragma omp barrier` analogue),
//! * [`schedule`] — OpenMP-style static chunking,
//! * [`Team::parallel_for`] / [`Team::parallel_reduce`] — the worksharing
//!   constructs the kernels use,
//! * [`global_team`] — a process-wide shared pool for callers that would
//!   otherwise respawn a team per call, with
//!   [`Team::parallel_for_worksteal`] (backed by [`worksteal::WorkQueues`])
//!   for irregular work; kernel paths stay on static chunks.
//!
//! The pool never oversubscribes and the team shape is immutable after
//! construction, mirroring `OMP_NUM_THREADS` + `OMP_PROC_BIND=true`.
//! Physical pinning is not performed (the *simulated* machines are where
//! placement matters); the logical core id of each thread is recorded and
//! exposed so the performance model can reason about it.

#![warn(missing_docs)]

pub mod barrier;
pub mod pool;
pub mod schedule;
pub mod shared;
pub mod worksteal;

pub use barrier::{BarrierToken, SpinBarrier};
pub use pool::{global_team, Team, ThreadCtx};
pub use schedule::{static_chunk, static_chunks};
pub use shared::SharedSlice;
pub use worksteal::WorkQueues;
