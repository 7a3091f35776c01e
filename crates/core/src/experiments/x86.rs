//! Table 4 and Figures 4–7: the x86 comparison.

use crate::report::{Cell, FigureReport, SeriesStat, TableReport};
use crate::suite::{fastest_of, suite_seconds, times_faster_each};
use rvhpc_kernels::KernelName;
use rvhpc_machines::vector::VectorFamily;
use rvhpc_machines::{catalog, x86_machines, MachineId};
use rvhpc_perfmodel::{Model, Precision, RunConfig};

/// Table 4: the x86 CPU inventory, straight from the machine descriptors.
pub fn table4() -> TableReport {
    const HEADERS: [&str; 5] = ["CPU", "Part", "Clock", "Cores", "Vector"];
    let machines = x86_machines();
    let mut cells = Vec::with_capacity(machines.len() * HEADERS.len());
    for m in machines {
        let vector = match m.vector.as_ref().map(|v| v.family) {
            Some(VectorFamily::Avx) => "AVX",
            Some(VectorFamily::Avx2) => "AVX2",
            Some(VectorFamily::Avx512) => "AVX512",
            _ => "-",
        };
        cells.extend([
            Cell::from(m.name.as_str()),
            m.part.as_str().into(),
            format!("{}GHz", m.clock_ghz).into(),
            m.n_cores().into(),
            vector.into(),
        ]);
    }
    TableReport {
        id: "Table 4",
        title: "Summary of x86 CPUs used to compare against the SG2042".into(),
        headers: &HEADERS,
        cells,
    }
}

/// Per-kernel SG2042 baseline times (best config), in `KernelName::ALL`
/// order, at a precision and thread count ("best" multithreaded = min
/// over 32/64 threads, as the paper found 32 better for some classes).
pub(crate) fn sg2042_times(
    model: &Model,
    precision: Precision,
    multithreaded: bool,
) -> [f64; KernelName::ALL.len()] {
    let m = catalog(MachineId::Sg2042);
    let at = |threads| suite_seconds(model, m, &RunConfig::sg2042_best(precision, threads));
    if multithreaded {
        fastest_of(&at(32), &at(64))
    } else {
        at(1)
    }
}

/// A figure of every x86 machine, single-core or at all of its cores,
/// against the SG2042 baseline at one precision.
fn comparison(
    model: &Model,
    (id, title): (&'static str, &'static str),
    precision: Precision,
    mt: bool,
) -> FigureReport {
    let base = sg2042_times(model, precision, mt);
    let series = x86_machines()
        .into_iter()
        .map(|m| {
            let threads = if mt { m.n_cores() } else { 1 };
            let times = suite_seconds(model, m, &RunConfig::x86(precision, threads));
            SeriesStat::from_kernel_values(&m.name, &times_faster_each(&base, &times))
        })
        .collect();
    FigureReport {
        id,
        title,
        value_label: "times faster (+) or slower (−) than the SG2042 baseline",
        series,
    }
}

/// Figure 4: FP64 single-core comparison.
pub fn fig4(model: &Model) -> FigureReport {
    let caption = ("Figure 4", "FP64 single core comparison against x86, baselined to SG2042");
    comparison(model, caption, Precision::Fp64, false)
}

/// Figure 5: FP32 single-core comparison.
pub fn fig5(model: &Model) -> FigureReport {
    let caption = ("Figure 5", "FP32 single core comparison against x86, baselined to SG2042");
    comparison(model, caption, Precision::Fp32, false)
}

/// Figure 6: FP64 multithreaded comparison (each machine at its best
/// thread count).
pub fn fig6(model: &Model) -> FigureReport {
    let caption = ("Figure 6", "FP64 multithreaded comparison against x86, baselined to SG2042");
    comparison(model, caption, Precision::Fp64, true)
}

/// Figure 7: FP32 multithreaded comparison.
pub fn fig7(model: &Model) -> FigureReport {
    let caption = ("Figure 7", "FP32 multithreaded comparison against x86, baselined to SG2042");
    comparison(model, caption, Precision::Fp32, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_kernels::KernelClass;

    fn series<'a>(fig: &'a FigureReport, name: &str) -> &'a SeriesStat {
        fig.series
            .iter()
            .find(|s| s.label.contains(name))
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn table4_matches_paper() {
        let t = table4();
        assert_eq!(t.rows().len(), 4);
        let flat: Vec<String> = t.cells.iter().map(Cell::to_string).collect();
        for needle in ["EPYC 7742", "Xeon E5-2695", "Xeon 6330", "Xeon E5-2609", "AVX512"] {
            assert!(flat.iter().any(|c| c.contains(needle)), "{needle}");
        }
    }

    #[test]
    fn fig4_modern_x86_beats_sg2042_single_core_fp64() {
        let fig = fig4(Model::paper());
        for name in ["Rome", "Broadwell", "Icelake"] {
            let s = series(&fig, name);
            assert!(
                s.overall_mean() > 1.0,
                "{name} should be clearly faster at FP64: {}",
                s.overall_mean()
            );
        }
    }

    #[test]
    fn fig4_sandybridge_loses_stream_and_algorithm() {
        // Paper: "the Sandybridge core ... on average performs slower for
        // stream and algorithm benchmark classes".
        let fig = fig4(Model::paper());
        let snb = series(&fig, "Sandybridge");
        assert!(snb.class(KernelClass::Stream).unwrap().mean < 0.0);
        assert!(snb.class(KernelClass::Algorithm).unwrap().mean < 0.0);
    }

    #[test]
    fn fig5_rome_gains_less_from_fp32_than_icelake() {
        // Paper: "the AMD Rome CPU is fairly lacklustre when executing at
        // single precision compared to double, whereas the Intel processors
        // on average perform just as well". We assert the relative version:
        // Rome's FP32-over-FP64 improvement trails Icelake's.
        let rome_delta = series(&fig5(Model::paper()), "Rome").overall_mean()
            - series(&fig4(Model::paper()), "Rome").overall_mean();
        let icx_delta = series(&fig5(Model::paper()), "Icelake").overall_mean()
            - series(&fig4(Model::paper()), "Icelake").overall_mean();
        assert!(
            rome_delta < icx_delta + 0.1,
            "Rome Δ{rome_delta} should not exceed Icelake Δ{icx_delta}"
        );
    }

    #[test]
    fn fig6_sg2042_beats_sandybridge_multithreaded() {
        // 64 C920 cores vs 4 Sandybridge cores.
        let fig = fig6(Model::paper());
        let snb = series(&fig, "Sandybridge");
        for c in &snb.classes {
            assert!(c.mean < 0.0, "{}: SNB should lose multithreaded: {}", c.class, c.mean);
        }
    }

    #[test]
    fn fig6_modern_x86_still_wins_multithreaded() {
        let fig = fig6(Model::paper());
        for name in ["Rome", "Broadwell", "Icelake"] {
            let s = series(&fig, name);
            assert!(s.overall_mean() > 0.5, "{name}: {}", s.overall_mean());
        }
    }

    #[test]
    fn fig7_exists_with_all_series() {
        let fig = fig7(Model::paper());
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert_eq!(s.classes.len(), 6);
        }
    }
}
