//! Tables 1–3: speed-up and parallel efficiency on the SG2042 as threads
//! scale under the three placement policies (FP32, vectorised).

use crate::report::{Cell, ClassStat, Fixed, TableReport};
use crate::suite::suite_seconds;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelClass;
use rvhpc_machines::{catalog, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{Model, Precision, RunConfig, Toolchain};

/// Thread counts the paper sweeps.
pub const THREADS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// A scaling table's columns: the thread count, then speedup and PE for
/// each class in `KernelClass::ALL` order.
const HEADERS: [&str; 1 + 2 * KernelClass::ALL.len()] = [
    "Threads",
    "algorithm speedup",
    "algorithm PE",
    "apps speedup",
    "apps PE",
    "basic speedup",
    "basic PE",
    "lcals speedup",
    "lcals PE",
    "polybench speedup",
    "polybench PE",
    "stream speedup",
    "stream PE",
];

/// One (class, thread-count) cell.
#[derive(Debug, Clone, Copy)]
pub struct ScalingCell {
    /// T(1)/T(t), averaged per class.
    pub speedup: f64,
    /// Speedup / threads.
    pub efficiency: f64,
}

/// A whole scaling table for one placement policy.
#[derive(Debug, Clone)]
pub struct ScalingTable {
    /// The placement policy.
    pub policy: PlacementPolicy,
    /// `cells[t][c]` is thread count `THREADS[t]` and class
    /// `KernelClass::ALL[c]`.
    pub cells: [[ScalingCell; KernelClass::ALL.len()]; THREADS.len()],
}

fn cfg(policy: PlacementPolicy, threads: usize) -> RunConfig {
    RunConfig {
        precision: Precision::Fp32, // "multi-threaded runs are undertaken in single precision"
        vectorize: true,
        toolchain: Toolchain::XuanTieGcc,
        mode: VectorMode::Vls,
        placement: policy,
        threads,
    }
}

/// Compute a scaling table for one policy under `model`.
pub fn run(model: &Model, policy: PlacementPolicy) -> ScalingTable {
    let m = catalog(MachineId::Sg2042);
    let t1 = suite_seconds(model, m, &cfg(policy, 1));
    let cells = THREADS.map(|threads| {
        let times = suite_seconds(model, m, &cfg(policy, threads));
        let speedups = std::array::from_fn(|k| t1[k] / times[k]);
        ClassStat::per_class(&speedups).map(|class| ScalingCell {
            speedup: class.mean,
            efficiency: class.mean / threads as f64,
        })
    });
    ScalingTable { policy, cells }
}

impl ScalingTable {
    /// Cell lookup; `threads` must be one of [`THREADS`].
    pub fn cell(&self, threads: usize, class: KernelClass) -> ScalingCell {
        let t = THREADS.iter().position(|&n| n == threads).expect("a THREADS entry");
        let c = KernelClass::ALL.iter().position(|&k| k == class).expect("every class is listed");
        self.cells[t][c]
    }

    /// Render as the paper's table of this policy: one row per thread
    /// count, speedup and PE columns per class.
    pub fn report(&self) -> TableReport {
        let (id, title) = match self.policy {
            PlacementPolicy::Block => ("Table 1", "block placement scaling (FP32)"),
            PlacementPolicy::NumaCyclic => ("Table 2", "NUMA-cyclic placement scaling (FP32)"),
            PlacementPolicy::ClusterCyclic => {
                ("Table 3", "cluster-cyclic placement scaling (FP32)")
            }
        };
        let mut cells = Vec::with_capacity(THREADS.len() * HEADERS.len());
        for (&threads, row) in THREADS.iter().zip(&self.cells) {
            cells.push(Cell::Int(threads));
            for c in row {
                cells.push(Fixed::new(c.speedup, 2).into());
                cells.push(Fixed::new(c.efficiency, 2).into());
            }
        }
        TableReport { id, title: title.into(), headers: &HEADERS, cells }
    }
}

/// Table 1: block placement.
pub fn table1(model: &Model) -> ScalingTable {
    run(model, PlacementPolicy::Block)
}

/// Table 2: NUMA-cyclic placement.
pub fn table2(model: &Model) -> ScalingTable {
    run(model, PlacementPolicy::NumaCyclic)
}

/// Table 3: cluster-aware cyclic placement.
pub fn table3(model: &Model) -> ScalingTable {
    run(model, PlacementPolicy::ClusterCyclic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polybench_scales_best() {
        // Paper Table 2: polybench reaches PE ≈ 0.9 at 64 threads while
        // stream collapses.
        let t = table2(Model::paper());
        let poly = t.cell(64, KernelClass::Polybench);
        let stream = t.cell(64, KernelClass::Stream);
        assert!(poly.speedup > 3.0 * stream.speedup, "poly {poly:?} stream {stream:?}");
        assert!(poly.efficiency > 0.4);
    }

    #[test]
    fn cyclic_beats_block_at_32_threads() {
        let block = table1(Model::paper());
        let cyclic = table2(Model::paper());
        let mut wins = 0;
        for class in KernelClass::ALL {
            if cyclic.cell(32, class).speedup > block.cell(32, class).speedup {
                wins += 1;
            }
        }
        assert!(wins >= 5, "cyclic should beat block in ≥5/6 classes at 32 threads: {wins}");
    }

    #[test]
    fn cluster_beats_cyclic_up_to_32_threads() {
        // Paper: "up to and including 32 threads such a policy delivers a
        // noticeable improvement compared to the previous cyclic policy".
        let cyclic = table2(Model::paper());
        let cluster = table3(Model::paper());
        for threads in [8usize, 16, 32] {
            let mut wins = 0;
            for class in KernelClass::ALL {
                if cluster.cell(threads, class).speedup
                    >= cyclic.cell(threads, class).speedup * 0.99
                {
                    wins += 1;
                }
            }
            assert!(wins >= 4, "cluster should not lose at {threads} threads: {wins}/6");
        }
    }

    #[test]
    fn block_placement_stream_collapses_at_32() {
        // Paper Table 1: stream speedup 4.31 @16 drops to 0.82 @32.
        let t = table1(Model::paper());
        let s16 = t.cell(16, KernelClass::Stream).speedup;
        let s32 = t.cell(32, KernelClass::Stream).speedup;
        assert!(s32 < s16, "block stream scaling must collapse: {s16} → {s32}");
    }

    #[test]
    fn efficiency_equals_speedup_over_threads() {
        let t = table3(Model::paper());
        for threads in THREADS {
            for class in KernelClass::ALL {
                let c = t.cell(threads, class);
                assert!((c.efficiency - c.speedup / threads as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn report_shape_matches_paper_tables() {
        let r = table1(Model::paper()).report();
        assert_eq!(r.headers.len(), 13, "threads + 6 × (speedup, PE)");
        assert_eq!(r.rows().len(), THREADS.len());
    }

    #[test]
    fn headers_name_each_class_in_order() {
        let mut expected = vec!["Threads".to_string()];
        for class in KernelClass::ALL {
            expected.push(format!("{class} speedup"));
            expected.push(format!("{class} PE"));
        }
        assert_eq!(HEADERS.to_vec(), expected);
    }
}
