//! `--compare A B`: do two sets of runs agree within the bounds
//! `BENCHMARK.json` fixes for the end-to-end metrics?
//!
//! For each workload and end-to-end metric, the medians of the untraced
//! runs in each file are compared; they disagree when they differ by
//! more than the metric's bound, as a share of A's median, in either
//! direction.

use crate::json::Json;
use crate::record::{read_records, Record};
use crate::stats::median;
use std::path::Path;

/// An end-to-end metric and its bound, as `BENCHMARK.json` states them.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
}

pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err(format!("{}: no `end_to_end` list", path.display()));
    };
    items
        .iter()
        .map(|m| {
            match (m.get("name").and_then(Json::as_str), m.get("bound").and_then(Json::as_f64)) {
                (Some(name), Some(bound)) => Ok(Bound { name: name.to_string(), bound }),
                _ => Err(format!("{}: an end_to_end entry lacks a name or bound", path.display())),
            }
        })
        .collect()
}

/// One compared cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
}

impl Cell {
    /// B's median relative to A's.
    pub fn change(&self) -> f64 {
        (self.b - self.a) / self.a
    }

    /// Both sides measured and within the bound of each other.
    pub fn agrees(&self) -> bool {
        self.change().abs() <= self.bound
    }
}

/// Compare every workload present in either set on every bounded metric.
pub fn compare(bounds: &[Bound], a: &[Record], b: &[Record]) -> Vec<Cell> {
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let med = |set: &[Record], w: &str, m: &str| {
        let v: Vec<f64> =
            set.iter().filter(|r| r.workload == w && !r.trace).filter_map(|r| r.value(m)).collect();
        median(&v)
    };
    let mut cells = Vec::new();
    for w in workloads {
        for bd in bounds {
            cells.push(Cell {
                workload: w.to_string(),
                metric: bd.name.clone(),
                a: med(a, w, &bd.name),
                b: med(b, w, &bd.name),
                bound: bd.bound,
            });
        }
    }
    cells
}

/// Run the comparison and print it; exit status 0 when every cell
/// agrees, 1 when one does not, 2 when an input cannot be read.
pub fn run(bench: &Path, a: &Path, b: &Path) -> u8 {
    let loaded =
        read_bounds(bench).and_then(|bounds| Ok((bounds, read_records(a)?, read_records(b)?)));
    let (bounds, ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let cells = compare(&bounds, &ra, &rb);
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for c in &cells {
        println!(
            "{:<12} {:<14} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {}",
            c.workload,
            c.metric,
            c.a,
            c.b,
            c.change() * 100.0,
            c.bound * 100.0,
            if c.agrees() { "agree" } else { "DISAGREE" }
        );
    }
    let bad = cells.iter().filter(|c| !c.agrees()).count();
    println!("{} of {} cells agree", cells.len() - bad, cells.len());
    u8::from(bad > 0 || cells.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metric;

    fn rec(workload: &str, lat: f64, trace: bool) -> Record {
        Record {
            workload: workload.into(),
            seed: 1,
            seconds: 1.0,
            trace,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric { name: "lat".into(), value: lat, unit: "us".into() }],
            detail: Json::Null,
        }
    }

    #[test]
    fn medians_are_compared_against_the_bound_in_both_directions() {
        let bounds = vec![Bound { name: "lat".into(), bound: 0.1 }];
        let a = vec![rec("w", 100.0, false), rec("w", 102.0, false), rec("w", 1.0, true)];
        let near = vec![rec("w", 109.0, false)];
        let cells = compare(&bounds, &a, &near);
        assert_eq!(cells.len(), 1);
        assert_eq!((cells[0].a, cells[0].b), (101.0, 109.0));
        assert!(cells[0].agrees());
        assert!(!compare(&bounds, &a, &[rec("w", 115.0, false)])[0].agrees());
        assert!(!compare(&bounds, &a, &[rec("w", 85.0, false)])[0].agrees());
        // A workload measured on one side only cannot agree.
        assert!(!compare(&bounds, &a, &[rec("v", 100.0, false)]).iter().any(Cell::agrees));
    }

    #[test]
    fn bounds_come_from_the_benchmark_description() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bounds = read_bounds(&path).expect("BENCHMARK.json is readable");
        assert!(bounds.iter().any(|b| b.name == "setup_s"));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
