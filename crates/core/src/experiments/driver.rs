//! The batched experiment driver: every paper artefact as one enumerable
//! pass through the shared sweep engine.
//!
//! `repro all` used to be a hand-maintained list of a dozen calls; the
//! driver makes the batch first-class so the binary, the benchmark and
//! CI all iterate the *same* experiments in the same order. Because every
//! experiment estimates through the cross-sweep cache, on the calling
//! thread, running the batch end-to-end makes
//! exactly one pass over each unique `(machine, kernel, config)` triple —
//! later experiments are served the earlier experiments' estimates. Under
//! any model but [`Model::paper`] ([`Experiment::run_under`]) nothing is
//! cached.

use super::{fig1, fig2, fig3, next_gen, scaling, x86};
use crate::report::{FigureReport, TableReport};
use rvhpc_perfmodel::{Model, Precision};

/// A regenerated artefact: the paper has bar-chart figures and tables.
pub enum Artefact {
    /// A figure (series × classes).
    Figure(FigureReport),
    /// A table.
    Table(TableReport),
}

/// One entry of the reproduction batch.
pub struct Experiment {
    /// Command-line token (`repro <name>`) and BENCH artefact key.
    pub name: &'static str,
    /// One-line description for listings.
    pub title: &'static str,
    run: fn(&Model) -> Artefact,
}

impl Experiment {
    /// Regenerate this experiment's artefact under [`Model::paper`].
    pub fn run(&self) -> Artefact {
        self.run_under(Model::paper())
    }

    /// Regenerate this experiment's artefact under `model`.
    pub fn run_under(&self, model: &Model) -> Artefact {
        let _span = rvhpc_trace::span!("core.experiment", name = self.name);
        (self.run)(model)
    }
}

/// The full reproduction batch, in the paper's presentation order (the
/// order `repro all` emits and the benchmark times).
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "fig1",
        title: "single-core RISC-V comparison",
        run: |m| Artefact::Figure(fig1::run(m)),
    },
    Experiment {
        name: "table1",
        title: "block placement scaling (FP32)",
        run: |m| Artefact::Table(scaling::table1(m).report()),
    },
    Experiment {
        name: "table2",
        title: "NUMA-cyclic placement scaling (FP32)",
        run: |m| Artefact::Table(scaling::table2(m).report()),
    },
    Experiment {
        name: "table3",
        title: "cluster-cyclic placement scaling (FP32)",
        run: |m| Artefact::Table(scaling::table3(m).report()),
    },
    Experiment {
        name: "fig2",
        title: "vectorisation speedup",
        run: |m| Artefact::Figure(fig2::run(m)),
    },
    Experiment {
        name: "fig3",
        title: "VLA/VLS compiler comparison",
        run: |m| Artefact::Table(fig3::report(m)),
    },
    Experiment {
        name: "table4",
        title: "x86 CPU inventory",
        run: |_| Artefact::Table(x86::table4()),
    },
    Experiment {
        name: "fig4",
        title: "FP64 single-core vs x86",
        run: |m| Artefact::Figure(x86::fig4(m)),
    },
    Experiment {
        name: "fig5",
        title: "FP32 single-core vs x86",
        run: |m| Artefact::Figure(x86::fig5(m)),
    },
    Experiment {
        name: "fig6",
        title: "FP64 multithreaded vs x86",
        run: |m| Artefact::Figure(x86::fig6(m)),
    },
    Experiment {
        name: "fig7",
        title: "FP32 multithreaded vs x86",
        run: |m| Artefact::Figure(x86::fig7(m)),
    },
    Experiment {
        name: "nextgen",
        title: "the conclusion's what-if machine (FP64)",
        run: |m| Artefact::Figure(next_gen::run(m, Precision::Fp64)),
    },
];

/// Look an experiment up by its command token.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_names_are_unique_command_tokens() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn find_resolves_every_entry_and_rejects_unknowns() {
        for e in &EXPERIMENTS {
            assert_eq!(find(e.name).expect("resolvable").name, e.name);
        }
        assert!(find("fig9").is_none());
    }

    #[test]
    fn batch_covers_every_figure_and_table_of_the_paper() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        for expected in [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2", "table3",
            "table4", "nextgen",
        ] {
            assert!(names.contains(&expected), "{expected} missing from the batch");
        }
    }

    #[test]
    fn driver_pass_is_estimate_cache_coherent() {
        // Running two overlapping experiments back-to-back must serve the
        // second one at least partly from the cache: fig5's SG2042 FP32
        // single-core baseline is also fig2's vector-on series.
        rvhpc_perfmodel::cache::clear();
        let _ = find("fig2").unwrap().run();
        let before = rvhpc_perfmodel::cache::stats();
        let _ = find("fig5").unwrap().run();
        let delta = rvhpc_perfmodel::cache::stats().since(&before);
        assert!(delta.hits > 0, "fig5 must reuse fig2's estimates: {delta:?}");
    }
}
