//! The resolved environment of one suite row.
//!
//! A suite row is every kernel estimated under one `(machine, RunConfig)`.
//! The clamped thread count, the calibration and the thread → core
//! placement with the [`MemoryEnv`] derived from it depend on the machine
//! and the configuration only, never on the kernel, yet resolving the
//! placement costs more than half of a cold estimate. A [`RowEnv`] resolves
//! them once and shares them across every kernel estimated in it.
//!
//! The memory environment is built lazily, on the first estimate that
//! needs it, inside a [`OnceLock`]: a row shared across threads (the
//! `row-env` verify oracle hands one to a pool) fills it from whichever
//! thread gets there first, and a row whose estimates
//! are all served from the cache never resolves a placement at all. Each
//! resolution counts as the `perfmodel.placement.resolve` registry counter.
//!
//! A `RowEnv` borrows the caller's descriptor and memoises nothing
//! process-wide, so a perturbed descriptor (the metamorphic verify
//! oracles) can never be estimated against a placement resolved for
//! another. Every estimate through a `RowEnv` is bit-identical to the
//! per-call [`crate::estimate()`] family, which is itself a one-off row.

use crate::calibration::{calibration, Calibration};
use crate::config::RunConfig;
use crate::estimate::{average_runs, model_parts, sim_size, TimeEstimate};
use crate::memory::MemoryEnv;
use rvhpc_kernels::KernelName;
use rvhpc_machines::Machine;
use std::sync::OnceLock;

/// Everything an estimate needs that depends on the machine and the run
/// configuration but not on the kernel.
///
/// ```
/// use rvhpc_machines::{machine, MachineId};
/// use rvhpc_kernels::KernelName;
/// use rvhpc_perfmodel::{estimate_averaged, Precision, RowEnv, RunConfig};
///
/// let sg = machine(MachineId::Sg2042);
/// let cfg = RunConfig::sg2042_best(Precision::Fp32, 16);
/// let row = RowEnv::new(&sg, &cfg);
/// for kernel in KernelName::ALL {
///     let shared = row.estimate_averaged(kernel);
///     let alone = estimate_averaged(&sg, kernel, &cfg);
///     assert_eq!(shared.seconds.to_bits(), alone.seconds.to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct RowEnv<'m> {
    machine: &'m Machine,
    cfg: RunConfig,
    threads: usize,
    cal: Calibration,
    memory: OnceLock<MemoryEnv>,
}

impl<'m> RowEnv<'m> {
    /// The row of `machine` under `cfg`, with the machine's calibration.
    pub fn new(machine: &'m Machine, cfg: &RunConfig) -> Self {
        Self::with_calibration(machine, cfg, &calibration(machine.id))
    }

    /// The row under an explicit calibration (the ablation tests switch
    /// model ingredients off this way).
    pub(crate) fn with_calibration(
        machine: &'m Machine,
        cfg: &RunConfig,
        cal: &Calibration,
    ) -> Self {
        RowEnv {
            machine,
            cfg: *cfg,
            // The model clamps to the core count before anything else.
            threads: cfg.threads.clamp(1, machine.n_cores()),
            cal: *cal,
            memory: OnceLock::new(),
        }
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

    /// The calibration constants applied.
    pub(crate) fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// The memory environment of the row's placement, resolved on first
    /// use.
    pub fn memory(&self) -> &MemoryEnv {
        self.memory.get_or_init(|| {
            rvhpc_obs::counter!("perfmodel.placement.resolve", 1);
            let placement = self.cfg.placement.map(&self.machine.topology, self.threads);
            MemoryEnv::new(self.machine, &placement)
        })
    }

    /// Whether the memory environment has been resolved yet.
    #[cfg(test)]
    pub(crate) fn resolved(&self) -> bool {
        self.memory.get().is_some()
    }

    /// One kernel repetition at the suite's problem size
    /// ([`crate::estimate`]).
    pub(crate) fn estimate(&self, kernel: KernelName) -> TimeEstimate {
        self.estimate_sized(kernel, sim_size(kernel))
    }

    /// One kernel repetition at an explicit problem size
    /// ([`crate::estimate_sized`]).
    pub(crate) fn estimate_sized(&self, kernel: KernelName, size: usize) -> TimeEstimate {
        let _span = rvhpc_trace::span!(
            "perfmodel.estimate",
            kernel = kernel,
            machine = self.machine.id.token(),
            threads = self.cfg.threads,
        );
        model_parts(self, kernel, size).estimate()
    }

    /// The paper's five-run average ([`crate::estimate_averaged`]).
    pub fn estimate_averaged(&self, kernel: KernelName) -> TimeEstimate {
        average_runs(self, kernel, self.estimate(kernel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Precision, Toolchain};
    use crate::estimate::estimate_averaged;
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
        let row = RowEnv::new(m, cfg);
        for kernel in KernelName::ALL {
            let shared = row.estimate_averaged(kernel);
            let alone = estimate_averaged(m, kernel, cfg);
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
        let row = RowEnv::new(&v2, &cfg);
        assert_eq!(row.threads(), v2.n_cores());
        assert_eq!(row.config().threads, 64);
        assert_eq!(RowEnv::new(&v2, &RunConfig { threads: 0, ..cfg }).threads(), 1);
    }

    #[test]
    fn memory_environment_is_resolved_lazily_and_once() {
        let m = machine(MachineId::Sg2042);
        let row = RowEnv::new(&m, &RunConfig::sg2042_best(Precision::Fp32, 16));
        assert!(!row.resolved(), "nothing resolved before the first estimate");
        let _ = row.estimate(KernelName::DAXPY);
        let first: *const MemoryEnv = row.memory();
        let _ = row.estimate(KernelName::STREAM_TRIAD);
        assert!(std::ptr::eq(first, row.memory()), "one environment for the whole row");
        assert_eq!(row.memory().capacity_shares[1], 1024.0 * 1024.0, "one thread per cluster");
    }
}
