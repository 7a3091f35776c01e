//! The simulated suite runner and ratio conventions.

use rvhpc_kernels::{KernelClass, KernelName};
use rvhpc_machines::Machine;
use rvhpc_perfmodel::{estimate_batch, Model, RowEnv, RunConfig, TimeEstimate};

/// One kernel's simulated time under one configuration.
#[derive(Debug, Clone)]
pub struct KernelTime {
    /// Which kernel.
    pub kernel: KernelName,
    /// Its class.
    pub class: KernelClass,
    /// Estimate (per repetition).
    pub estimate: TimeEstimate,
}

/// Run the whole 64-kernel suite on a simulated machine under `model`.
///
/// The row goes through [`estimate_batch`], the cross-sweep cache's batch
/// path ([`rvhpc_perfmodel::cache`]), whose store is keyed by suite row:
/// under [`Model::paper`] every kernel already cached is answered under
/// one map lock and one map probe for the whole row, and only the misses
/// are estimated, one after another on the calling thread. A row with no
/// kernel cached is told apart by that same probe: its 64 misses are
/// estimated and the row goes into the cache whole, under one more lock
/// and in one map insert. So repeated
/// configurations are computed once per process, no row dispatches to a
/// thread pool, and all 64 kernels share one [`RowEnv`], whose thread
/// placement is resolved at most once, and not at all when every kernel
/// hits the cache. Under any other model every kernel is estimated and
/// nothing is cached. Results come back in `KernelName::ALL` order and are
/// bit-identical to a plain uncached loop: the estimator is pure, and the
/// cache state cannot change a value.
pub fn suite_times(model: &Model, machine: &Machine, cfg: &RunConfig) -> Vec<KernelTime> {
    KernelName::ALL
        .into_iter()
        .zip(suite_row(model, machine, cfg))
        .map(|(kernel, estimate)| KernelTime { kernel, class: kernel.class(), estimate })
        .collect()
}

/// Each kernel's [`suite_times`] seconds, in `KernelName::ALL` order: the
/// form the experiments aggregate by position. It is a fixed array, so
/// from here to the rendered artefact the numbers move through arrays and
/// only [`estimate_batch`]'s answer is allocated.
pub fn suite_seconds(
    model: &Model,
    machine: &Machine,
    cfg: &RunConfig,
) -> [f64; KernelName::ALL.len()] {
    let row = suite_row(model, machine, cfg);
    std::array::from_fn(|i| row[i].seconds)
}

fn suite_row(model: &Model, machine: &Machine, cfg: &RunConfig) -> Vec<TimeEstimate> {
    let _span = rvhpc_trace::span!("core.suite_times", machine = machine.id.token());
    let row = RowEnv::new(model, machine, cfg);
    estimate_batch(&KernelName::ALL.map(|k| (&row, k)))
}

/// The kernel-by-kernel minimum of two rows of seconds: a machine at the
/// better of two configurations.
pub(crate) fn fastest_of(
    a: &[f64; KernelName::ALL.len()],
    b: &[f64; KernelName::ALL.len()],
) -> [f64; KernelName::ALL.len()] {
    std::array::from_fn(|i| a[i].min(b[i]))
}

/// The paper's "number of times faster" convention for its figures:
/// `0` means parity, `+1` means twice as fast as the baseline, `-1` means
/// twice as slow (the transform is symmetric around zero).
///
/// Degenerate measurements — a zero, negative or non-finite time on either
/// side — have no meaningful ratio; they are clamped to `0.0` (parity) so
/// one broken sample cannot poison a figure's class mean with ±inf/NaN.
pub fn times_faster(baseline_seconds: f64, this_seconds: f64) -> f64 {
    let usable = |t: f64| t.is_finite() && t > 0.0;
    if !usable(baseline_seconds) || !usable(this_seconds) {
        rvhpc_obs::counter!("core.times_faster.clamped", 1);
        return 0.0;
    }
    let ratio = baseline_seconds / this_seconds;
    if ratio >= 1.0 {
        ratio - 1.0
    } else {
        -(1.0 / ratio - 1.0)
    }
}

/// [`times_faster`] kernel by kernel, for rows of seconds in the same
/// order.
pub(crate) fn times_faster_each(
    baseline: &[f64; KernelName::ALL.len()],
    this: &[f64; KernelName::ALL.len()],
) -> [f64; KernelName::ALL.len()] {
    std::array::from_fn(|i| times_faster(baseline[i], this[i]))
}

/// Mean of a slice.
pub fn class_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::{machine, MachineId};
    use rvhpc_perfmodel::{estimate, Precision};

    #[test]
    fn suite_covers_all_64_kernels() {
        let m = machine(MachineId::Sg2042);
        let times = suite_times(Model::paper(), &m, &RunConfig::sg2042_best(Precision::Fp32, 1));
        assert_eq!(times.len(), 64);
        assert!(times.iter().all(|t| t.estimate.seconds > 0.0));
    }

    fn assert_bit_identical(a: &TimeEstimate, b: &TimeEstimate, ctx: &str) {
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{ctx}: seconds");
        assert_eq!(a.compute_seconds.to_bits(), b.compute_seconds.to_bits(), "{ctx}: compute");
        assert_eq!(a.memory_seconds.to_bits(), b.memory_seconds.to_bits(), "{ctx}: memory");
        assert_eq!(a.overhead_seconds.to_bits(), b.overhead_seconds.to_bits(), "{ctx}: overhead");
        assert_eq!(a.vector_path, b.vector_path, "{ctx}: vector_path");
    }

    /// The sweep-determinism contract: `suite_times`, cold or warm cache,
    /// returns bit-identical estimates to a plain uncached loop, on all 8
    /// machines.
    #[test]
    fn suite_times_matches_serial_run_bit_for_bit_on_all_machines() {
        for id in MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]) {
            let m = machine(id);
            let cfg = RunConfig::sg2042_best(Precision::Fp32, 16);
            // Reference: a plain loop, no cache.
            let serial: Vec<TimeEstimate> =
                KernelName::ALL.into_iter().map(|k| estimate(&m, k, &cfg)).collect();
            // Cold pass (other tests may have warmed the cache — clear it),
            // then a warm pass served from the cache.
            rvhpc_perfmodel::cache::clear();
            let cold = suite_times(Model::paper(), &m, &cfg);
            let warm = suite_times(Model::paper(), &m, &cfg);
            for ((s, c), w) in serial.iter().zip(&cold).zip(&warm) {
                assert_eq!(c.kernel, w.kernel, "order must be KernelName::ALL");
                assert_bit_identical(s, &c.estimate, &format!("{id}/{} cold", c.kernel));
                assert_bit_identical(s, &w.estimate, &format!("{id}/{} warm", w.kernel));
            }
        }
    }

    #[test]
    fn times_faster_convention_matches_paper_text() {
        // "zero ... same performance"
        assert_eq!(times_faster(1.0, 1.0), 0.0);
        // "one means ... one time faster (e.g. double)"
        assert_eq!(times_faster(2.0, 1.0), 1.0);
        // "minus one indicates it is twice as slow"
        assert_eq!(times_faster(1.0, 2.0), -1.0);
        // Symmetry.
        assert_eq!(times_faster(3.0, 1.0), -times_faster(1.0, 3.0));
    }

    // The degenerate-input edges, one test each so a regression names the
    // exact edge. Before the clamp, these produced ±inf/NaN that flowed
    // silently into figure class-means.
    #[test]
    fn zero_this_seconds_is_clamped_not_inf() {
        assert_eq!(times_faster(1.0, 0.0), 0.0);
    }

    #[test]
    fn zero_baseline_is_clamped_not_inf() {
        assert_eq!(times_faster(0.0, 1.0), 0.0);
    }

    #[test]
    fn nan_inputs_are_clamped_not_propagated() {
        assert_eq!(times_faster(f64::NAN, 1.0), 0.0);
        assert_eq!(times_faster(1.0, f64::NAN), 0.0);
    }

    #[test]
    fn infinite_inputs_are_clamped() {
        assert_eq!(times_faster(f64::INFINITY, 1.0), 0.0);
        assert_eq!(times_faster(1.0, f64::INFINITY), 0.0);
        assert_eq!(times_faster(f64::NEG_INFINITY, 1.0), 0.0);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        assert_eq!(times_faster(-1.0, 1.0), 0.0);
        assert_eq!(times_faster(1.0, -1.0), 0.0);
    }

    #[test]
    fn clamped_values_cannot_poison_class_means() {
        let vals = [times_faster(2.0, 1.0), times_faster(1.0, 0.0), times_faster(f64::NAN, 2.0)];
        assert!(class_mean(&vals).is_finite());
        assert_eq!(class_mean(&vals), 1.0 / 3.0);
    }

    #[test]
    fn class_mean_handles_empty() {
        assert_eq!(class_mean(&[]), 0.0);
        assert_eq!(class_mean(&[2.0, 4.0]), 3.0);
    }
}
