//! Figure 3: Clang VLA and VLS single-core comparison against XuanTie GCC
//! (baseline) for selected Polybench kernels at FP32.

use crate::report::TableReport;
use crate::suite::times_faster;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{estimate_batch, Precision, RowEnv, RunConfig, Toolchain};

/// The Polybench kernels the paper plots in Figure 3.
pub const FIG3_KERNELS: [KernelName; 12] = [
    KernelName::P2MM,
    KernelName::P3MM,
    KernelName::GEMM,
    KernelName::ATAX,
    KernelName::GEMVER,
    KernelName::GESUMMV,
    KernelName::MVT,
    KernelName::FLOYD_WARSHALL,
    KernelName::HEAT_3D,
    KernelName::JACOBI_1D,
    KernelName::JACOBI_2D,
    KernelName::FDTD_2D,
];

/// One kernel's Figure 3 data point.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Kernel.
    pub kernel: KernelName,
    /// Clang VLA vs GCC, in the paper's times-faster convention.
    pub clang_vla: f64,
    /// Clang VLS vs GCC.
    pub clang_vls: f64,
}

fn cfg(toolchain: Toolchain, mode: VectorMode) -> RunConfig {
    RunConfig {
        precision: Precision::Fp32,
        vectorize: true,
        toolchain,
        mode,
        placement: PlacementPolicy::Block,
        threads: 1,
    }
}

/// Regenerate Figure 3's data: three single-core rows of the twelve
/// kernels, each answered through the estimate cache's batch path.
pub fn run() -> Vec<Fig3Point> {
    let m = machine(MachineId::Sg2042);
    let row = |toolchain, mode| {
        let env = RowEnv::new(&m, &cfg(toolchain, mode));
        estimate_batch(&FIG3_KERNELS.map(|k| (&env, k)))
    };
    let gcc = row(Toolchain::XuanTieGcc, VectorMode::Vls);
    let vla = row(Toolchain::ClangRvv, VectorMode::Vla);
    let vls = row(Toolchain::ClangRvv, VectorMode::Vls);
    FIG3_KERNELS
        .into_iter()
        .enumerate()
        .map(|(i, kernel)| Fig3Point {
            kernel,
            clang_vla: times_faster(gcc[i].seconds, vla[i].seconds),
            clang_vls: times_faster(gcc[i].seconds, vls[i].seconds),
        })
        .collect()
}

/// Render the Figure 3 data as a table report.
pub fn report() -> TableReport {
    TableReport {
        id: "Figure 3".into(),
        title: "Clang VLA and VLS single core comparison against using GCC for \
                selected Polybench kernels in FP32"
            .into(),
        headers: vec!["kernel".into(), "Clang VLA vs GCC".into(), "Clang VLS vs GCC".into()],
        rows: run()
            .into_iter()
            .map(|p| {
                vec![
                    p.kernel.label().to_string(),
                    format!("{:+.2}", p.clang_vla),
                    format!("{:+.2}", p.clang_vls),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(kernel: KernelName) -> Fig3Point {
        run().into_iter().find(|p| p.kernel == kernel).unwrap()
    }

    #[test]
    fn matmul_kernels_are_slower_under_clang() {
        // Paper: "the 2MM, 3MM and GEMM kernels execute in scalar mode only
        // and switching to Clang delivers worse performance".
        for k in [KernelName::P2MM, KernelName::P3MM, KernelName::GEMM] {
            let p = point(k);
            assert!(p.clang_vls < 0.0, "{k}: {}", p.clang_vls);
            assert!(p.clang_vla < 0.0, "{k}: {}", p.clang_vla);
        }
    }

    #[test]
    fn gcc_failures_make_clang_win() {
        // GCC cannot vectorise Warshall/Heat3D; Clang can.
        for k in [KernelName::FLOYD_WARSHALL, KernelName::HEAT_3D] {
            let p = point(k);
            assert!(p.clang_vls > 0.0, "{k}: {}", p.clang_vls);
        }
        // Jacobi1D is GCC-vectorised but runs the scalar path; Clang wins.
        assert!(point(KernelName::JACOBI_1D).clang_vls > 0.0);
    }

    #[test]
    fn vls_tends_to_beat_vla() {
        // "VLS tends to outperform VLA on the C920".
        let pts = run();
        let wins = pts.iter().filter(|p| p.clang_vls >= p.clang_vla).count();
        assert!(wins * 2 > pts.len(), "VLS should win for most kernels: {wins}/{}", pts.len());
    }

    #[test]
    fn report_has_one_row_per_kernel() {
        assert_eq!(report().rows.len(), FIG3_KERNELS.len());
    }
}
