//! The resolved environment of one suite row.
//!
//! A suite row is every kernel estimated under one `(machine, RunConfig)`
//! of a [`Model`]. The clamped thread count, the calibration and the
//! [`MemoryEnv`] of the thread placement depend on the machine and the
//! configuration only, never on the kernel. A [`RowEnv`] resolves them
//! once and shares them across every kernel estimated in it.
//!
//! Resolving the memory environment reads only how the placement occupies
//! the package ([`PlacementPolicy::occupancy`]: threads per NUMA region and
//! in the busiest cluster), never the thread → core map, and allocates
//! nothing on a catalog machine: about 0.15–0.25 µs on a 2-core Xeon VM,
//! less than one estimate's model arithmetic.
//!
//! The memory environment is built lazily, on the first estimate that
//! needs it, inside a [`OnceLock`]: a row shared across threads (the
//! `row-env` verify oracle hands one to several) fills it from whichever
//! thread gets there first, and a row whose estimates
//! are all served from the cache never resolves a placement at all. Each
//! resolution counts as the `perfmodel.placement.resolve` registry counter.
//!
//! A `RowEnv` borrows the caller's model and descriptor and memoises
//! nothing process-wide, so a perturbed descriptor (the metamorphic verify
//! oracles) or an edited model (the ablation tests) is never estimated
//! against another's placement or constants. Every estimate through a
//! `RowEnv` is bit-identical to the per-call [`crate::estimate()`] family,
//! which is itself a one-off row of [`Model::paper`].

use crate::calibration::{Calibration, Model};
use crate::config::RunConfig;
use crate::estimate::{model_parts, sim_size, TimeEstimate};
use crate::memory::MemoryEnv;
use rvhpc_kernels::KernelName;
use rvhpc_machines::Machine;
#[cfg(doc)]
use rvhpc_machines::PlacementPolicy;
use std::sync::OnceLock;

/// Everything an estimate needs that depends on the model, the machine and
/// the run configuration but not on the kernel.
///
/// ```
/// use rvhpc_machines::{catalog, MachineId};
/// use rvhpc_kernels::KernelName;
/// use rvhpc_perfmodel::{estimate, Model, Precision, RowEnv, RunConfig};
///
/// let sg = catalog(MachineId::Sg2042);
/// let cfg = RunConfig::sg2042_best(Precision::Fp32, 16);
/// let row = RowEnv::new(Model::paper(), sg, &cfg);
/// for kernel in KernelName::ALL {
///     let shared = row.estimate(kernel);
///     let alone = estimate(sg, kernel, &cfg);
///     assert_eq!(shared.seconds.to_bits(), alone.seconds.to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct RowEnv<'m> {
    model: &'m Model,
    machine: &'m Machine,
    cfg: RunConfig,
    threads: usize,
    memory: OnceLock<MemoryEnv>,
}

impl<'m> RowEnv<'m> {
    /// The row of `machine` under `cfg`, with the machine's calibration in
    /// `model`.
    pub fn new(model: &'m Model, machine: &'m Machine, cfg: &RunConfig) -> Self {
        RowEnv {
            model,
            machine,
            cfg: *cfg,
            // The model clamps to the core count before anything else.
            threads: cfg.threads.clamp(1, machine.n_cores()),
            memory: OnceLock::new(),
        }
    }

    /// The model the row estimates under.
    pub(crate) fn model(&self) -> &'m Model {
        self.model
    }

    /// The machine descriptor.
    pub(crate) fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// The run configuration, as given (threads unclamped).
    pub(crate) fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The thread count the model runs: the configured count clamped to
    /// `1..=n_cores`.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The calibration constants applied: the model's for the machine.
    pub(crate) fn cal(&self) -> &'m Calibration {
        self.model.calibration_of(self.machine.id)
    }

    /// The memory environment of the row's placement, resolved on first
    /// use.
    pub fn memory(&self) -> &MemoryEnv {
        self.memory.get_or_init(|| {
            rvhpc_obs::counter!("perfmodel.placement.resolve", 1);
            let occupancy = self.cfg.placement.occupancy(&self.machine.topology, self.threads);
            MemoryEnv::of_occupancy(self.machine, &occupancy)
        })
    }

    /// Whether the memory environment has been resolved yet.
    #[cfg(test)]
    pub(crate) fn resolved(&self) -> bool {
        self.memory.get().is_some()
    }

    /// One kernel repetition at the suite's problem size
    /// ([`crate::estimate()`]).
    pub fn estimate(&self, kernel: KernelName) -> TimeEstimate {
        self.estimate_sized(kernel, sim_size(kernel))
    }

    /// One kernel repetition at an explicit problem size: the
    /// distributed-memory model in `rvhpc-cluster` shrinks per-node
    /// domains under strong scaling this way.
    pub fn estimate_sized(&self, kernel: KernelName, size: usize) -> TimeEstimate {
        let _span = rvhpc_trace::span!(
            "perfmodel.estimate",
            kernel = kernel,
            machine = self.machine.id.token(),
            threads = self.cfg.threads,
        );
        model_parts(self, kernel, size).estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Precision, Toolchain};
    use crate::estimate::estimate;
    use rvhpc_compiler::VectorMode;
    use rvhpc_machines::{machine, MachineId, PlacementPolicy, Topology};

    fn assert_bit_identical(a: &TimeEstimate, b: &TimeEstimate, ctx: &dyn Fn() -> String) {
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{}: seconds", ctx());
        assert_eq!(a.compute_seconds.to_bits(), b.compute_seconds.to_bits(), "{}", ctx());
        assert_eq!(a.memory_seconds.to_bits(), b.memory_seconds.to_bits(), "{}", ctx());
        assert_eq!(a.overhead_seconds.to_bits(), b.overhead_seconds.to_bits(), "{}", ctx());
        assert_eq!(a.vector_path, b.vector_path, "{}: vector_path", ctx());
    }

    /// Every kernel of one row, estimated through one shared environment,
    /// against a fresh per-call estimate of each.
    fn check_row(m: &Machine, cfg: &RunConfig) {
        let row = RowEnv::new(Model::paper(), m, cfg);
        for kernel in KernelName::ALL {
            let shared = row.estimate(kernel);
            let alone = estimate(m, kernel, cfg);
            assert_bit_identical(&shared, &alone, &|| format!("{} {kernel} {cfg:?}", m.id.token()));
        }
    }

    fn config(
        m: &Machine,
        precision: Precision,
        policy: PlacementPolicy,
        threads: usize,
    ) -> RunConfig {
        RunConfig {
            precision,
            vectorize: true,
            toolchain: if m.id.is_riscv() { Toolchain::XuanTieGcc } else { Toolchain::X86Gcc },
            mode: VectorMode::Vls,
            placement: policy,
            threads,
        }
    }

    #[test]
    fn shared_row_is_bit_identical_to_per_call_estimates() {
        for id in MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]) {
            let m = machine(id);
            for policy in PlacementPolicy::ALL {
                for threads in [1, 2, 4, 8, 16, 32, 64, m.n_cores()] {
                    for precision in [Precision::Fp32, Precision::Fp64] {
                        check_row(&m, &config(&m, precision, policy, threads));
                    }
                }
            }
        }
    }

    #[test]
    fn non_catalog_descriptor_rows_are_bit_identical_too() {
        // A descriptor no catalog entry has: a 12-core package of three
        // 4-core clusters in one NUMA region with two controllers.
        let mut m = machine(MachineId::Sg2042);
        m.topology = Topology::contiguous(12, 1, 2, 4);
        for policy in PlacementPolicy::ALL {
            for threads in [1, 3, 12, 64] {
                for precision in [Precision::Fp32, Precision::Fp64] {
                    check_row(&m, &config(&m, precision, policy, threads));
                }
            }
        }
    }

    #[test]
    fn threads_are_clamped_and_the_config_is_kept() {
        let v2 = machine(MachineId::VisionFiveV2);
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 64);
        let row = RowEnv::new(Model::paper(), &v2, &cfg);
        assert_eq!(row.threads(), v2.n_cores());
        assert_eq!(row.config().threads, 64);
        assert_eq!(RowEnv::new(Model::paper(), &v2, &RunConfig { threads: 0, ..cfg }).threads(), 1);
    }

    #[test]
    fn memory_environment_is_resolved_lazily_and_once() {
        let m = machine(MachineId::Sg2042);
        let row = RowEnv::new(Model::paper(), &m, &RunConfig::sg2042_best(Precision::Fp32, 16));
        assert!(!row.resolved(), "nothing resolved before the first estimate");
        let _ = row.estimate(KernelName::DAXPY);
        let first: *const MemoryEnv = row.memory();
        let _ = row.estimate(KernelName::STREAM_TRIAD);
        assert!(std::ptr::eq(first, row.memory()), "one environment for the whole row");
        assert_eq!(row.memory().capacity_shares[1], 1024.0 * 1024.0, "one thread per cluster");
    }
}
