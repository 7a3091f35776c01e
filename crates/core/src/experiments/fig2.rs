//! Figure 2: single-core speedup from enabling vectorisation on the
//! SG2042's C920, at FP32 and FP64, per class.

use crate::report::{FigureReport, SeriesStat};
use crate::suite::{suite_seconds, times_faster};
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{Model, Precision, RunConfig};
use std::collections::HashMap;

/// Per-kernel vector-on vs vector-off ratio at one precision under
/// `model`.
pub fn vectorisation_ratios(model: &Model, precision: Precision) -> HashMap<KernelName, f64> {
    KernelName::ALL.into_iter().zip(ratios(model, precision)).collect()
}

/// [`vectorisation_ratios`] in `KernelName::ALL` order.
fn ratios(model: &Model, precision: Precision) -> [f64; KernelName::ALL.len()] {
    let m = catalog(MachineId::Sg2042);
    let on = suite_seconds(model, m, &RunConfig::sg2042_best(precision, 1));
    let mut off_cfg = RunConfig::sg2042_best(precision, 1);
    off_cfg.vectorize = false;
    let off = suite_seconds(model, m, &off_cfg);
    std::array::from_fn(|k| off[k] / on[k])
}

/// Regenerate Figure 2 under `model`.
pub fn run(model: &Model) -> FigureReport {
    // times_faster with the scalar run as baseline.
    let series = |label, precision| {
        let faster = ratios(model, precision).map(|r| times_faster(r, 1.0));
        SeriesStat::from_kernel_values(label, &faster)
    };
    FigureReport {
        id: "Figure 2",
        title: "Maximum single core speedup for each benchmark class when enabling \
                vectorisation on C920 of SG2042",
        value_label: "times faster than scalar-only (0 = no benefit)",
        series: vec![series("FP32", Precision::Fp32), series("FP64", Precision::Fp64)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_kernels::KernelClass;

    #[test]
    fn fp32_benefits_exceed_fp64_everywhere() {
        let fig = run(Model::paper());
        let fp32 = &fig.series[0];
        let fp64 = &fig.series[1];
        assert!(fp32.overall_mean() > fp64.overall_mean());
    }

    #[test]
    fn fp64_vectorisation_is_marginal() {
        // "enabling vectorisation for FP64 delivers very marginal benefit".
        let fig = run(Model::paper());
        let fp64 = fig.series.iter().find(|s| s.label == "FP64").unwrap();
        for c in &fp64.classes {
            assert!(c.mean < 0.5, "{}: FP64 vector mean {} should be near zero", c.class, c.mean);
        }
    }

    #[test]
    fn basic_fp64_average_is_lifted_by_reduce3_int() {
        // "Some benefit of FP64 vectorisation with the basic class can be
        //  observed, but it is just one kernel which operates on integers".
        let ratios = vectorisation_ratios(Model::paper(), Precision::Fp64);
        let int_gain = ratios[&KernelName::REDUCE3_INT];
        assert!(int_gain > 1.2, "REDUCE3_INT must vectorise at FP64: {int_gain}");
        for k in KernelName::in_class(KernelClass::Basic) {
            if k != KernelName::REDUCE3_INT {
                assert!(
                    ratios[&k] < int_gain,
                    "{k}: {} should trail REDUCE3_INT's {int_gain}",
                    ratios[&k]
                );
            }
        }
    }

    #[test]
    fn stream_class_gains_most_at_fp32() {
        // "the stream class ... demonstrated by far the largest average
        //  improvement when enabling vectorisation" (GCC vectorises all its
        //  kernels).
        let fig = run(Model::paper());
        let fp32 = fig.series.iter().find(|s| s.label == "FP32").unwrap();
        let stream = fp32.class(KernelClass::Stream).unwrap().mean;
        for c in &fp32.classes {
            if c.class != KernelClass::Stream {
                assert!(stream >= c.mean, "{}: {} > stream {stream}", c.class, c.mean);
            }
        }
    }

    #[test]
    fn no_kernel_catastrophically_regresses_with_vectorisation() {
        // Paper: some kernels run slower vectorised, but "the overhead of
        // even the worst performing kernels tends to be small".
        for p in [Precision::Fp32, Precision::Fp64] {
            for (k, r) in vectorisation_ratios(Model::paper(), p) {
                assert!(r > 0.7, "{k} at {p:?}: vector/scalar ratio {r}");
            }
        }
    }
}
