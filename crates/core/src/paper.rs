//! The source paper's numbers: every value this repository compares the
//! model with, in one table.
//!
//! Four groups, as the paper gives them:
//! - Fig. 1 / §3.1: the range of class means of the C920's single-core
//!   speedup over the U74 (VisionFive V2 at FP64), per precision
//!   ([`FIG1_BANDS`], 4 band ends);
//! - Table 1 (block placement) and Table 2 (NUMA-cyclic placement): the
//!   FP32 class-mean speedups over one thread ([`TABLE1`], [`TABLE2`],
//!   18 and 36 cells);
//! - Figs. 4–7 and the conclusions: how many times faster than the SG2042
//!   each x86 part runs on average ([`X86_MEANS`], 14 means).
//!
//! Table 3, Fig. 2 and Fig. 3 are stated in the paper's prose, not as
//! numbers, so they enter [`crate::fidelity`] as orderings, not cells.
//! [`cells`] flattens the table into its 72 cells, each with a stable id.
//! Follow-up studies of the SG2042 and SG2044 (arXiv 2406.12394,
//! 2508.13840) would add rows here; none of their numbers are in the
//! repository.

use rvhpc_kernels::KernelClass;
use rvhpc_machines::MachineId;
use rvhpc_perfmodel::Precision;

/// Fig. 1's band: the lowest and highest class mean of the C920's
/// per-kernel speedup over the U74, as plain ratios (4.3 means 4.3 times
/// the U74's speed).
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// The precision both cores run at.
    pub precision: Precision,
    /// The lowest class mean.
    pub low: f64,
    /// The highest class mean.
    pub high: f64,
}

/// One row of a scaling table: class-mean speedups at a thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Thread count.
    pub threads: usize,
    /// Speedups in `KernelClass::ALL` order: algorithm, apps, basic,
    /// lcals, polybench, stream.
    pub speedups: [f64; KernelClass::ALL.len()],
}

/// One x86 part's mean over every kernel in one of Figs. 4–7.
#[derive(Debug, Clone, Copy)]
pub struct X86Mean {
    /// The figure's experiment token (`fig4` … `fig7`).
    pub figure: &'static str,
    /// The x86 part.
    pub machine: MachineId,
    /// The paper's "N× faster", read as N times faster: 0 is parity and
    /// N stands for a speed ratio of 1 + N, the figures' own convention
    /// ([`crate::times_faster`]).
    pub times_faster: f64,
}

/// Fig. 1's bands (§3.1): FP64 and FP32.
pub const FIG1_BANDS: [Band; 2] = [
    Band { precision: Precision::Fp64, low: 4.3, high: 6.5 },
    Band { precision: Precision::Fp32, low: 5.6, high: 11.8 },
];

/// Table 1 (block placement), the rows the paper quotes. Block placement
/// is the paper's pathological policy: threads 0–31 sit in NUMA regions
/// 0–1, so half the memory controllers idle at 32 threads.
pub const TABLE1: [ScalingRow; 3] = [
    ScalingRow { threads: 16, speedups: [4.64, 4.31, 6.92, 6.86, 15.39, 4.31] },
    ScalingRow { threads: 32, speedups: [1.11, 1.86, 0.22, 4.38, 14.09, 0.82] },
    ScalingRow { threads: 64, speedups: [0.97, 4.10, 12.33, 14.89, 40.42, 1.77] },
];

/// Table 2 (NUMA-cyclic placement).
pub const TABLE2: [ScalingRow; 6] = [
    ScalingRow { threads: 2, speedups: [1.52, 0.70, 1.06, 1.81, 2.11, 1.93] },
    ScalingRow { threads: 4, speedups: [3.21, 1.37, 2.09, 3.61, 4.11, 4.19] },
    ScalingRow { threads: 8, speedups: [4.72, 2.64, 3.96, 6.08, 8.15, 4.46] },
    ScalingRow { threads: 16, speedups: [4.55, 4.32, 6.97, 7.12, 15.07, 4.19] },
    ScalingRow { threads: 32, speedups: [6.10, 6.32, 13.11, 14.84, 30.05, 13.91] },
    ScalingRow { threads: 64, speedups: [2.09, 4.31, 17.29, 26.53, 57.93, 1.62] },
];

/// Figs. 4–7: each x86 part against the SG2042 baseline. Sandybridge has
/// no multithreaded mean: the paper says only that it loses.
pub const X86_MEANS: [X86Mean; 14] = {
    use MachineId::{AmdRome, IntelBroadwell, IntelIcelake, IntelSandybridge};
    const fn mean(figure: &'static str, machine: MachineId, times_faster: f64) -> X86Mean {
        X86Mean { figure, machine, times_faster }
    }
    [
        mean("fig4", AmdRome, 4.0),
        mean("fig4", IntelBroadwell, 4.0),
        mean("fig4", IntelIcelake, 5.0),
        mean("fig4", IntelSandybridge, 1.2),
        mean("fig5", AmdRome, 3.0),
        mean("fig5", IntelBroadwell, 4.0),
        mean("fig5", IntelIcelake, 4.0),
        mean("fig5", IntelSandybridge, 2.0),
        mean("fig6", AmdRome, 5.0),
        mean("fig6", IntelBroadwell, 4.0),
        mean("fig6", IntelIcelake, 8.0),
        mean("fig7", AmdRome, 8.0),
        mean("fig7", IntelBroadwell, 6.0),
        mean("fig7", IntelIcelake, 6.0),
    ]
};

/// Where a cell's value sits in the paper, and so what the model is
/// compared with.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A Fig. 1 band end: the lowest class mean, or the highest.
    Fig1 {
        /// The precision.
        precision: Precision,
        /// The highest class mean (`true`) or the lowest.
        high: bool,
    },
    /// A class-mean speedup of Table 1 or Table 2.
    Scaling {
        /// The table's experiment token (`table1` or `table2`).
        table: &'static str,
        /// Thread count.
        threads: usize,
        /// Kernel class.
        class: KernelClass,
    },
    /// An x86 part's times-faster mean in one of Figs. 4–7.
    X86 {
        /// The figure's experiment token.
        figure: &'static str,
        /// The x86 part.
        machine: MachineId,
    },
}

/// One number the paper gives.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable id: `fig1.fp64.low`, `table2.64.lcals`, `fig5.amd-rome`.
    pub id: String,
    /// The paper's value, in the units of its [`Source`].
    pub value: f64,
    /// Where it sits in the paper.
    pub source: Source,
}

/// Every cell of the table, in the paper's order: Fig. 1, Table 1,
/// Table 2, Figs. 4–7.
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::with_capacity(72);
    for band in FIG1_BANDS {
        let p = match band.precision {
            Precision::Fp32 => "fp32",
            Precision::Fp64 => "fp64",
        };
        for (end, value, high) in [("low", band.low, false), ("high", band.high, true)] {
            out.push(Cell {
                id: format!("fig1.{p}.{end}"),
                value,
                source: Source::Fig1 { precision: band.precision, high },
            });
        }
    }
    for (table, rows) in [("table1", &TABLE1[..]), ("table2", &TABLE2[..])] {
        for row in rows {
            for (class, &value) in KernelClass::ALL.into_iter().zip(&row.speedups) {
                out.push(Cell {
                    id: format!("{table}.{}.{class}", row.threads),
                    value,
                    source: Source::Scaling { table, threads: row.threads, class },
                });
            }
        }
    }
    for m in X86_MEANS {
        out.push(Cell {
            id: format!("{}.{}", m.figure, m.machine.token()),
            value: m.times_faster,
            source: Source::X86 { figure: m.figure, machine: m.machine },
        });
    }
    out
}
