//! Fidelity as a tracked number: the model against every number the paper
//! gives ([`crate::paper`]) and every ordering its prose states.
//!
//! [`score`] runs the experiments under a [`Model`] through
//! [`Experiment::run_under`](driver::Experiment::run_under) and pairs each of the paper's 72 cells with
//! the model's value and `ln(model/paper)`. The cells are read this way:
//! - a Table 1–2 speedup is compared as it is;
//! - a Fig. 1 band end is a plain speed ratio, C920 over U74; the model's
//!   is the speed ratio of the lowest or highest class mean of the
//!   figure's SG2042 series (`1 + t` for a times-faster mean `t ≥ 0`);
//! - an x86 mean is times faster on both sides, the paper's "N×" read as
//!   N times faster; both are compared as the speed ratio they stand for,
//!   which is `(1 + model)/(1 + paper)` whenever both are at parity or
//!   better (a mean `t` below parity stands for `1/(1 − t)`).
//!
//! Table 3 and Fig. 2 have no paper numbers in the repository, only
//! statements, so the score records whether each ordering the paper
//! states holds; `paper_shapes.rs` asserts these checks by id.
//!
//! `FIDELITY.json` at the repository root is [`Score::to_json`] under
//! [`Model::paper`]. The `fidelity_gate` test fails when
//! [`Score::regressions`] names anything: a cell whose `|ln|` exceeds its
//! pinned value by more than [`TOLERANCE`], a cell or ordering added or
//! dropped, or an ordering that no longer holds. Its message is the fresh
//! document, to check in when the change is meant.

use crate::experiments::driver::{self, Artefact};
use crate::paper::{self, Source};
use crate::report::{FigureReport, SeriesStat, TableReport};
use rvhpc_kernels::KernelClass;
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{Model, Precision};
use rvhpc_trace::json::Json;
use std::fmt::{self, Write as _};

/// Schema tag of the rendered score.
pub const SCHEMA: &str = "rvhpc-fidelity-v1";

/// How far a cell's `|ln(model/paper)|` may rise above its pinned value:
/// the ±2% band of the model's five-run jitter.
pub const TOLERANCE: f64 = 0.02;

/// The experiments the score reads, by command token.
const READ: [&str; 9] =
    ["fig1", "table1", "table2", "table3", "fig2", "fig4", "fig5", "fig6", "fig7"];

/// One paper cell next to the model's value.
#[derive(Debug, Clone)]
pub struct CellScore {
    /// The cell's id in [`paper::cells`].
    pub id: String,
    /// The paper's value.
    pub paper: f64,
    /// The model's value, in the paper's units.
    pub model: f64,
    /// `ln(model/paper)` under the cell's reading (see the module docs).
    pub ln_ratio: f64,
}

/// One ordering the paper states, and whether the model keeps it.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Stable id, e.g. `table1.stream_collapses_at_32`.
    pub id: &'static str,
    /// Whether the model keeps it.
    pub holds: bool,
}

/// A cell or ordering that got worse than the pinned document.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The cell or ordering id.
    pub id: String,
    /// How it got worse.
    pub what: String,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.what)
    }
}

/// Every paper cell and ordering, scored under one model.
#[derive(Debug, Clone)]
pub struct Score {
    /// One per [`paper::cells`] entry, in that order.
    pub cells: Vec<CellScore>,
    /// The orderings, in a fixed order.
    pub orderings: Vec<Check>,
}

/// The speed ratio a times-faster value `t` stands for, the inverse of
/// [`crate::times_faster`]: `1 + t` at parity or better, `1/(1 − t)`
/// below.
fn speed_ratio(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 + t
    } else {
        1.0 / (1.0 - t)
    }
}

/// Score `model` against the paper.
pub fn score(model: &Model) -> Score {
    let run = Artefacts(
        READ.map(|name| (name, driver::find(name).expect("a batch experiment").run_under(model))),
    );
    let cells = paper::cells()
        .into_iter()
        .map(|cell| {
            let (model, ln_ratio) = match cell.source {
                Source::Fig1 { precision, high } => {
                    let label = match precision {
                        Precision::Fp64 => "SG2042 FP64",
                        Precision::Fp32 => "SG2042 FP32",
                    };
                    let means = series(run.figure("fig1"), label).classes.map(|c| c.mean);
                    let pick = if high { f64::max } else { f64::min };
                    let ratio = speed_ratio(means.into_iter().reduce(pick).expect("six classes"));
                    (ratio, (ratio / cell.value).ln())
                }
                Source::Scaling { table, threads, class } => {
                    let speedup = speedup(run.table(table), threads, class);
                    (speedup, (speedup / cell.value).ln())
                }
                Source::X86 { figure, machine } => {
                    let t = x86_mean(run.figure(figure), machine);
                    (t, (speed_ratio(t) / speed_ratio(cell.value)).ln())
                }
            };
            CellScore { id: cell.id, paper: cell.value, model, ln_ratio }
        })
        .collect();
    Score { cells, orderings: orderings(&run) }
}

/// The experiments' artefacts, by command token.
struct Artefacts([(&'static str, Artefact); READ.len()]);

impl Artefacts {
    fn get(&self, name: &str) -> &Artefact {
        &self.0.iter().find(|(n, _)| *n == name).expect("a scored experiment").1
    }

    fn figure(&self, name: &str) -> &FigureReport {
        match self.get(name) {
            Artefact::Figure(f) => f,
            Artefact::Table(_) => panic!("{name} is a table"),
        }
    }

    fn table(&self, name: &str) -> &TableReport {
        match self.get(name) {
            Artefact::Table(t) => t,
            Artefact::Figure(_) => panic!("{name} is a figure"),
        }
    }
}

fn series<'a>(fig: &'a FigureReport, label: &str) -> &'a SeriesStat {
    fig.series.iter().find(|s| s.label == label).unwrap_or_else(|| panic!("{label} missing"))
}

/// An x86 part's mean over every class in one of Figs. 4–7.
fn x86_mean(fig: &FigureReport, machine: MachineId) -> f64 {
    series(fig, &catalog(machine).name).overall_mean()
}

/// A scaling table's class-mean speedup: each row is the thread count,
/// then a speedup and a PE column per class.
fn speedup(table: &TableReport, threads: usize, class: KernelClass) -> f64 {
    let c = KernelClass::ALL.iter().position(|&k| k == class).expect("every class is listed");
    let row = table
        .rows()
        .find(|row| row[0].number() == Some(threads as f64))
        .unwrap_or_else(|| panic!("{} has no {threads}-thread row", table.id));
    row[1 + 2 * c].number().expect("a speedup cell")
}

/// The orderings the paper states, each with its tolerance; the one
/// statement of them (`paper_shapes.rs` asserts them by id).
fn orderings(run: &Artefacts) -> Vec<Check> {
    use KernelClass::{Basic, Lcals, Polybench, Stream};
    use MachineId::{AmdRome, IntelBroadwell, IntelIcelake, IntelSandybridge};
    let [block, cyclic, cluster] = ["table1", "table2", "table3"].map(|t| run.table(t));
    let at = speedup;
    let stream_collapses_at_64 =
        |t| at(t, 64, Stream) < 0.5 * at(t, 32, Stream) && at(t, 64, Stream) < 4.0;
    let fig2 = run.figure("fig2");
    let (fp32, fp64) = (series(fig2, "FP32"), series(fig2, "FP64"));
    let modern = [AmdRome, IntelBroadwell, IntelIcelake];
    let mean = |fig, m| x86_mean(run.figure(fig), m);
    let modern_ahead = |fig| modern.iter().all(|&m| mean(fig, m) > 0.5);
    let sandybridge_loses = |fig| mean(fig, IntelSandybridge) < 0.0;
    let crossover = |fig| {
        let snb = mean(fig, IntelSandybridge);
        snb.abs() < 1.5 && modern.iter().all(|&m| mean(fig, m) > snb)
    };
    let check = |id, holds| Check { id, holds };
    vec![
        check(
            "table1.stream_collapses_at_32",
            at(block, 32, Stream) < 0.5 * at(block, 16, Stream) && at(block, 32, Stream) < 1.0,
        ),
        check("table1.stream_recovers_at_64", at(block, 64, Stream) > at(block, 32, Stream)),
        check(
            "table1.polybench_keeps_scaling",
            at(block, 32, Polybench) > at(block, 16, Polybench)
                && at(block, 64, Polybench) > at(block, 32, Polybench),
        ),
        check("table2.stream_collapses_at_64", stream_collapses_at_64(cyclic)),
        check("table3.stream_collapses_at_64", stream_collapses_at_64(cluster)),
        check(
            "table3.cluster_keeps_up_with_cyclic_to_32",
            [2, 4, 8, 16, 32].into_iter().all(|t| {
                KernelClass::ALL.into_iter().all(|c| at(cluster, t, c) >= 0.95 * at(cyclic, t, c))
            }),
        ),
        check(
            "table3.converges_with_cyclic_at_64",
            KernelClass::ALL
                .into_iter()
                .all(|c| (0.9..=1.1).contains(&(at(cluster, 64, c) / at(cyclic, 64, c)))),
        ),
        check(
            "tables.block_cyclic_cluster_at_32",
            [Stream, Basic, Lcals].into_iter().all(|c| {
                at(cyclic, 32, c) >= 0.95 * at(block, 32, c)
                    && at(cluster, 32, c) >= 0.9 * at(cyclic, 32, c)
            }),
        ),
        check(
            "fig2.fp32_at_least_fp64",
            fp32.classes.iter().zip(&fp64.classes).all(|(a, b)| a.mean >= b.mean - 0.05),
        ),
        check("fig4.modern_x86_ahead", modern_ahead("fig4")),
        check("fig5.modern_x86_ahead", modern_ahead("fig5")),
        check("fig4.sandybridge_is_the_crossover", crossover("fig4")),
        check("fig5.sandybridge_is_the_crossover", crossover("fig5")),
        check("fig6.sandybridge_loses", sandybridge_loses("fig6")),
        check("fig7.sandybridge_loses", sandybridge_loses("fig7")),
    ]
}

impl Score {
    /// The sum of every cell's `|ln(model/paper)|`.
    pub fn total(&self) -> f64 {
        self.cells.iter().map(|c| c.ln_ratio.abs()).sum()
    }

    /// The mean of every cell's `|ln(model/paper)|`.
    pub fn mean(&self) -> f64 {
        self.total() / self.cells.len() as f64
    }

    /// How many cells the model matches within a factor of two.
    pub fn within_2x(&self) -> usize {
        self.cells.iter().filter(|c| c.ln_ratio.abs() <= std::f64::consts::LN_2).count()
    }

    /// How many orderings hold.
    pub fn holding(&self) -> usize {
        self.orderings.iter().filter(|o| o.holds).count()
    }

    /// The `rvhpc-fidelity-v1` document: a summary, then every cell and
    /// every ordering.
    pub fn to_json(&self) -> Json {
        let n = |x: usize| Json::Num(x as f64);
        let cells = self.cells.iter().map(|c| {
            Json::obj(vec![
                ("id", Json::str(&c.id)),
                ("paper", Json::Num(c.paper)),
                ("model", Json::Num(c.model)),
                ("ln_ratio", Json::Num(c.ln_ratio)),
            ])
        });
        let orderings = self
            .orderings
            .iter()
            .map(|o| Json::obj(vec![("id", Json::str(o.id)), ("holds", Json::Bool(o.holds))]));
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            (
                "summary",
                Json::obj(vec![
                    ("cells", n(self.cells.len())),
                    ("total_abs_ln", Json::Num(self.total())),
                    ("mean_abs_ln", Json::Num(self.mean())),
                    ("within_2x", n(self.within_2x())),
                    ("orderings", n(self.orderings.len())),
                    ("orderings_hold", n(self.holding())),
                ]),
            ),
            ("cells", Json::Arr(cells.collect())),
            ("orderings", Json::Arr(orderings.collect())),
        ])
    }

    /// The comparison as markdown: a row per cell (paper, model, `|ln|`),
    /// the total line, then a row per ordering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## Paper vs model\n\n");
        out.push_str("| cell | paper | model | \\|ln(model/paper)\\| |\n|---|---:|---:|---:|\n");
        for c in &self.cells {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {:.2} |",
                c.id,
                c.paper,
                c.model,
                c.ln_ratio.abs()
            );
        }
        let _ = writeln!(
            out,
            "\ntotal |ln(model/paper)| {:.2} over {} cells: mean {:.3}, {} within 2×\n",
            self.total(),
            self.cells.len(),
            self.mean(),
            self.within_2x()
        );
        out.push_str("| ordering | holds |\n|---|---|\n");
        for o in &self.orderings {
            let _ = writeln!(out, "| {} | {} |", o.id, if o.holds { "yes" } else { "NO" });
        }
        let _ = writeln!(out, "\n{} of {} orderings hold", self.holding(), self.orderings.len());
        out
    }

    /// Everything that got worse than `pinned`, a document [`to_json`]
    /// rendered: a cell whose `|ln|` exceeds its pinned value by more than
    /// [`TOLERANCE`] (or is not a number), a cell or ordering in one
    /// document but not the other, and an ordering that no longer holds.
    ///
    /// [`to_json`]: Score::to_json
    pub fn regressions(&self, pinned: &Json) -> Vec<Regression> {
        let entries = |key| pinned.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        let id = |entry: &Json| entry.get("id").and_then(Json::as_str).map(str::to_string);
        let mut out = Vec::new();
        let mut worse = |id: &str, what: String| out.push(Regression { id: id.to_string(), what });
        let pinned_cells: Vec<(String, Option<f64>)> = entries("cells")
            .iter()
            .filter_map(|e| Some((id(e)?, e.get("ln_ratio").and_then(Json::as_f64))))
            .collect();
        for c in &self.cells {
            let fresh = c.ln_ratio.abs();
            match pinned_cells.iter().find(|(id, _)| *id == c.id) {
                None => worse(&c.id, "not in the pinned document".into()),
                Some((_, pinned)) => {
                    let pinned = pinned.map_or(f64::NAN, f64::abs);
                    // False when either side is not a number.
                    let within = fresh <= pinned + TOLERANCE;
                    if !within {
                        worse(&c.id, format!("|ln(model/paper)| {pinned:.4} -> {fresh:.4}"));
                    }
                }
            }
        }
        for (id, _) in &pinned_cells {
            if !self.cells.iter().any(|c| c.id == *id) {
                worse(id, "pinned but no longer scored".into());
            }
        }
        let pinned_orderings: Vec<String> = entries("orderings").iter().filter_map(id).collect();
        for o in &self.orderings {
            if !o.holds {
                worse(o.id, "no longer holds".into());
            } else if !pinned_orderings.iter().any(|id| id == o.id) {
                worse(o.id, "not in the pinned document".into());
            }
        }
        for id in &pinned_orderings {
            if !self.orderings.iter().any(|o| o.id == id) {
                worse(id, "pinned but no longer checked".into());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_ratio_inverts_times_faster() {
        for ratio in [0.1, 0.5, 0.99, 1.0, 1.01, 2.0, 14.6] {
            let t = crate::times_faster(ratio, 1.0);
            assert!((speed_ratio(t) - ratio).abs() < 1e-12, "{ratio}: {}", speed_ratio(t));
        }
    }
}
