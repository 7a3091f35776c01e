//! Figure 1: single-core comparison of the VisionFive V1, VisionFive V2 and
//! SG2042 at FP32 and FP64, baselined to the V2 at FP64.

use crate::report::{FigureReport, SeriesStat};
use crate::suite::{suite_seconds, times_faster_each};
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{Model, Precision, RunConfig};
use std::collections::HashMap;

/// The per-kernel baseline, in `KernelName::ALL` order: VisionFive V2 at
/// FP64, one core, best config.
fn baseline(model: &Model) -> [f64; KernelName::ALL.len()] {
    single_core(model, MachineId::VisionFiveV2, Precision::Fp64)
}

fn single_core(model: &Model, id: MachineId, precision: Precision) -> [f64; KernelName::ALL.len()] {
    suite_seconds(model, catalog(id), &RunConfig::sg2042_best(precision, 1))
}

/// Regenerate Figure 1 under `model`.
pub fn run(model: &Model) -> FigureReport {
    let base = baseline(model);
    let series = |label, id, precision| {
        let times = single_core(model, id, precision);
        SeriesStat::from_kernel_values(label, &times_faster_each(&base, &times))
    };
    FigureReport {
        id: "Figure 1",
        title: "Single core comparison baselined against StarFive VisionFive V2 \
                running in double precision (FP64), against V1 and SG2042",
        value_label: "times faster than V2 FP64 (0 = parity, negative = slower)",
        series: vec![
            series("V1 FP64", MachineId::VisionFiveV1, Precision::Fp64),
            series("V1 FP32", MachineId::VisionFiveV1, Precision::Fp32),
            series("V2 FP32", MachineId::VisionFiveV2, Precision::Fp32),
            series("SG2042 FP64", MachineId::Sg2042, Precision::Fp64),
            series("SG2042 FP32", MachineId::Sg2042, Precision::Fp32),
        ],
    }
}

/// The raw per-kernel speedup (plain ratio, not the plot transform) of one
/// machine/precision against the V2-FP64 baseline under `model` — used by
/// tests and EXPERIMENTS.md.
pub fn speedup_ratios(model: &Model, id: MachineId, p: Precision) -> HashMap<KernelName, f64> {
    let base = baseline(model);
    KernelName::ALL
        .into_iter()
        .zip(base.iter().zip(single_core(model, id, p)).map(|(b, t)| b / t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_kernels::KernelClass;

    #[test]
    fn sg2042_outperforms_v2_in_every_class_at_both_precisions() {
        let fig = run(Model::paper());
        for label in ["SG2042 FP64", "SG2042 FP32"] {
            let s = fig.series.iter().find(|s| s.label == label).unwrap();
            for c in &s.classes {
                assert!(c.mean > 0.0, "{label}/{}: {}", c.class, c.mean);
            }
        }
    }

    #[test]
    fn no_kernel_runs_slower_on_the_c920_than_the_u74() {
        // Paper: "there were no kernels that ran slower on the C920 core
        // than the U74".
        for p in [Precision::Fp32, Precision::Fp64] {
            for (k, r) in speedup_ratios(Model::paper(), MachineId::Sg2042, p) {
                assert!(r > 1.0, "{k} at {p:?}: ratio {r}");
            }
        }
    }

    #[test]
    fn fp32_gap_exceeds_fp64_gap_on_sg2042() {
        // The C920 vectorises FP32 but not FP64, so its advantage over the
        // (vectorless) U74 must be larger at FP32.
        let fig = run(Model::paper());
        let fp64 = fig.series.iter().find(|s| s.label == "SG2042 FP64").unwrap();
        let fp32 = fig.series.iter().find(|s| s.label == "SG2042 FP32").unwrap();
        assert!(fp32.overall_mean() > fp64.overall_mean());
    }

    #[test]
    fn v1_is_slower_than_v2() {
        let fig = run(Model::paper());
        let v1 = fig.series.iter().find(|s| s.label == "V1 FP64").unwrap();
        for c in &v1.classes {
            assert!(c.mean < 0.0, "{}: {}", c.class, c.mean);
        }
    }

    #[test]
    fn memset_is_the_standout_kernel() {
        // Paper: MEMSET ran 40× faster in FP32 and 18× in FP64 than on the
        // U74 — the largest speedups in the algorithm class.
        let r = speedup_ratios(Model::paper(), MachineId::Sg2042, Precision::Fp32);
        let memset = r[&KernelName::MEMSET];
        for k in KernelName::in_class(KernelClass::Algorithm) {
            assert!(memset >= r[&k], "{k}: {} > memset {memset}", r[&k]);
        }
    }
}
