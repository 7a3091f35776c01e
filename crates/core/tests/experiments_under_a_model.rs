//! Every experiment is a function of the model. Under a clone of the paper
//! model each artefact renders the paper model's bytes; under a model with
//! the SG2042's controller queueing switched off the scaling tables move;
//! and neither model touches the estimate cache, which serves the paper
//! model only.
//! A test binary of its own, because the cache counters are process-wide.

use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};
use rvhpc::machines::MachineId;
use rvhpc::perfmodel::{cache, persist, Model};

fn rendered(artefact: Artefact) -> String {
    match artefact {
        Artefact::Figure(f) => f.to_json(),
        Artefact::Table(t) => t.to_json(),
    }
}

/// Every artefact under `model`, in batch order, with the cache's hit,
/// miss and eviction deltas and its change in resident entries.
fn pass_under(model: &Model) -> (Vec<String>, (u64, u64, u64, usize)) {
    let (before, entries) = (cache::stats(), cache::len());
    let artefacts = EXPERIMENTS.iter().map(|e| rendered(e.run_under(model))).collect();
    let delta = cache::stats().since(&before);
    (artefacts, (delta.hits, delta.misses, delta.evictions, cache::len().abs_diff(entries)))
}

#[test]
fn experiments_run_under_any_model_and_only_the_paper_model_is_cached() {
    persist::set_cache_dir(None);
    let paper: Vec<String> = EXPERIMENTS.iter().map(|e| rendered(e.run())).collect();

    let clone = Model::paper().clone();
    let (cloned, touched) = pass_under(&clone);
    assert_eq!(touched, (0, 0, 0, 0), "a cloned model leaves the cache alone");
    for ((e, got), want) in EXPERIMENTS.iter().zip(&cloned).zip(&paper) {
        assert_eq!(got, want, "{}: a clone renders the paper model's bytes", e.name);
    }

    let mut no_queueing = Model::paper().clone();
    no_queueing.calibration_mut(MachineId::Sg2042).queue_sensitivity = 0.0;
    let (edited, touched) = pass_under(&no_queueing);
    assert_eq!(touched, (0, 0, 0, 0), "an edited model leaves the cache alone");
    let moved: Vec<&str> = EXPERIMENTS
        .iter()
        .zip(edited.iter().zip(&paper))
        .filter(|(_, (got, want))| got != want)
        .map(|(e, _)| e.name)
        .collect();
    for table in ["table1", "table2", "table3"] {
        assert!(moved.contains(&table), "no queueing moves {table}: moved {moved:?}");
    }

    let again: Vec<String> = EXPERIMENTS.iter().map(|e| rendered(e.run())).collect();
    assert_eq!(again, paper, "the paper model still renders its own bytes");
}
