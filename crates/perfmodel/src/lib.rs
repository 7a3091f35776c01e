//! The analytic timing engine: predicts kernel execution times on the
//! paper's machines from architecture descriptors and kernel workload
//! descriptors.
//!
//! The model is deliberately structural — every paper phenomenon should
//! *emerge* from an architectural parameter rather than be painted on:
//!
//! * the C920-vs-U74 gap comes from issue width/out-of-order calibration
//!   and the memory subsystem;
//! * the FP32-vs-FP64 gap on the SG2042 comes from the vector model
//!   refusing FP64 lanes (via `rvhpc-compiler`);
//! * Table 1's 32-thread collapse comes from the [`memory`] module's
//!   memory-controller queueing once block placement parks 32 threads on
//!   two of four controllers;
//! * cluster-cyclic placement wins at ≤ 32 threads because the shared-L2
//!   capacity and bandwidth shares in [`memory`] depend on how many
//!   threads land in each four-core cluster;
//! * VLS-vs-VLA comes from instruction counts of actually-generated RVV
//!   loops (`rvhpc-compiler::codegen::measure`).
//!
//! Constants that cannot be derived from datasheets live in
//! [`calibration`](mod@calibration), one commented block per machine, held
//! by a [`Model`]: [`Model::paper`] reproduces the artefacts, and an edited
//! clone runs the same code under another calibration.
//!
//! Repeated sweep traffic (the paper's ~30 full-suite sweeps overlap
//! heavily) is amortised by [`cache`]: a bounded process-wide memoisation
//! of the paper model's averaged estimates keyed by `(machine, kernel,
//! canonical config)`, with hit/miss/eviction counters in the `rvhpc-obs`
//! registry, surfaced through the `metrics` op and the `--trace` counters
//! table. A sweep's rows share the kernel-independent part of the model —
//! clamped threads, calibration, and the placement's memory environment —
//! through one [`RowEnv`] per row, whatever the model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod calibration;
pub mod compute;
pub mod config;
pub mod estimate;
pub mod explain;
pub mod memory;
pub mod persist;
pub mod row;
pub mod scaling;

#[cfg(test)]
mod proptests;

pub use cache::{estimate_batch, estimate_cached, CacheStats};
pub use calibration::{Calibration, Model};
pub use config::{Precision, RunConfig, Toolchain};
pub use estimate::{estimate, estimate_averaged, sim_size, TimeEstimate};
pub use explain::{explain, Explanation};
pub use row::RowEnv;
