//! Extension experiment (not in the paper, but specified by it): the
//! paper's conclusion lists what the next high-performance RISC-V part
//! needs — RVV v1.0, FP64 vectorisation, wider vector registers, larger L1
//! and more memory controllers per NUMA region. This experiment configures
//! exactly that machine and asks how far it closes the gap to the x86
//! parts.

use super::x86::sg2042_times;
use crate::report::{FigureReport, SeriesStat};
use crate::suite::{fastest_of, suite_seconds, times_faster_each};
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{Model, Precision, RunConfig, Toolchain};

/// Configuration for the what-if machine: mainline Clang targeting RVV
/// v1.0 natively (no rollback needed), cluster placement.
fn ng_config(precision: Precision, threads: usize) -> RunConfig {
    RunConfig {
        precision,
        vectorize: true,
        toolchain: Toolchain::ClangRvv,
        mode: VectorMode::Vls,
        placement: PlacementPolicy::ClusterCyclic,
        threads,
    }
}

/// The what-if comparison: SG2042-NG and the x86 parts, baselined against
/// today's SG2042, multithreaded, at a given precision, under `model`.
pub fn run(model: &Model, precision: Precision) -> FigureReport {
    let base = sg2042_times(model, precision, true);
    let series_of = |label, times: &[f64; KernelName::ALL.len()]| {
        SeriesStat::from_kernel_values(label, &times_faster_each(&base, times))
    };

    let mut series = Vec::new();
    // The what-if machine at its best thread count.
    let ng = catalog(MachineId::Sg2042NextGen);
    let best = fastest_of(
        &suite_seconds(model, ng, &ng_config(precision, 32)),
        &suite_seconds(model, ng, &ng_config(precision, 64)),
    );
    series.push(series_of("SG2042-NG (what-if)", &best));
    for id in [MachineId::AmdRome, MachineId::IntelIcelake] {
        let m = catalog(id);
        let times = suite_seconds(model, m, &RunConfig::x86(precision, m.n_cores()));
        series.push(series_of(m.name.as_str(), &times));
    }

    FigureReport {
        id: "Extension",
        title: match precision {
            Precision::Fp32 => {
                "What-if: the conclusion's next-gen SG2042 vs today's SG2042 and x86, \
                 multithreaded fp32"
            }
            Precision::Fp64 => {
                "What-if: the conclusion's next-gen SG2042 vs today's SG2042 and x86, \
                 multithreaded fp64"
            }
        },
        value_label: "times faster than today's SG2042",
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_gen_improves_on_todays_part_everywhere() {
        let fig = run(Model::paper(), Precision::Fp64);
        let ng = &fig.series[0];
        for c in &ng.classes {
            assert!(c.mean > 0.0, "{}: next-gen must beat today's SG2042, got {}", c.class, c.mean);
        }
    }

    #[test]
    fn fp64_gains_more_than_fp32() {
        // FP64 vectorisation is the headline addition, so the what-if part
        // gains more at FP64 (where today's C920 runs scalar) than at FP32.
        let fp64 = run(Model::paper(), Precision::Fp64).series[0].overall_mean();
        let fp32 = run(Model::paper(), Precision::Fp32).series[0].overall_mean();
        assert!(fp64 > fp32, "fp64 gain {fp64} vs fp32 gain {fp32}");
    }

    #[test]
    fn next_gen_narrows_but_does_not_close_the_x86_gap() {
        // The what-if experiment's finding: the conclusion's wishlist wins
        // back a large multiple over today's part (FP64 vectors + memory
        // fixes), yet the per-core compute gap to Zen 2 remains — the
        // redesign narrows the x86 gap without closing it.
        let fig = run(Model::paper(), Precision::Fp64);
        let ng = fig.series[0].overall_mean();
        let rome = fig.series[1].overall_mean();
        assert!(ng > 1.0, "wishlist must at least double performance: {ng}");
        assert!(ng < rome, "core microarchitecture still trails Zen 2: {ng} vs {rome}");
    }
}
