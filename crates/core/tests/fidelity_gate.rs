//! The fidelity gate. The model scored against every number the paper
//! gives (`rvhpc::fidelity::score`) may not move further from the paper
//! than `FIDELITY.json`, the score checked in at the repository root, by
//! more than `fidelity::TOLERANCE` on any cell, and every ordering the
//! paper states must hold. A failing gate prints the fresh document; check
//! it in as `FIDELITY.json` when the move is meant.

use rvhpc::fidelity::{score, Score, SCHEMA, TOLERANCE};
use rvhpc::machines::MachineId;
use rvhpc::paper;
use rvhpc::perfmodel::Model;
use rvhpc_trace::json::Json;
use std::collections::HashSet;

fn pinned() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIDELITY.json");
    let text = std::fs::read_to_string(path).expect("FIDELITY.json is at the repository root");
    Json::parse(&text).expect("FIDELITY.json parses")
}

/// The gate: `Err` names everything that got worse, then gives the fresh
/// document.
fn gate(fresh: &Score) -> Result<(), String> {
    let pinned = pinned();
    assert_eq!(pinned.get("schema").and_then(Json::as_str), Some(SCHEMA));
    let worse = fresh.regressions(&pinned);
    if worse.is_empty() {
        return Ok(());
    }
    let list: Vec<String> = worse.iter().map(|r| format!("  {r}")).collect();
    Err(format!(
        "{} worse than FIDELITY.json (tolerance {TOLERANCE}):\n{}\n\nthe fresh document:\n{}",
        worse.len(),
        list.join("\n"),
        fresh.to_json().pretty()
    ))
}

#[test]
fn the_model_is_no_further_from_the_paper_than_fidelity_json() {
    if let Err(message) = gate(&score(Model::paper())) {
        panic!("{message}");
    }
}

#[test]
fn halving_the_sg2042_per_core_bandwidth_fails_the_gate_by_cell() {
    let mut model = Model::paper().clone();
    model.calibration_mut(MachineId::Sg2042).per_core_stream_bw /= 2.0;
    let fresh = score(&model);
    let worse: Vec<String> = fresh.regressions(&pinned()).into_iter().map(|r| r.id).collect();
    // A slower C920 stream narrows its single-core lead over the U74,
    // widens the x86 parts' lead over it, and moves where stream saturates
    // the memory controllers.
    for id in
        ["fig1.fp64.low", "fig4.amd-rome", "table2.64.stream", "table1.stream_collapses_at_32"]
    {
        assert!(worse.iter().any(|w| w == id), "{id} must be named: {worse:?}");
    }
    let message = gate(&fresh).expect_err("the gate fails under the edited model");
    assert!(message.contains("fig1.fp64.low: |ln(model/paper)|"), "{message}");
    assert!(message.ends_with(&fresh.to_json().pretty()), "the message ends with the document");
}

#[test]
fn every_paper_cell_is_paired_exactly_once() {
    let cells = paper::cells();
    assert_eq!(cells.len(), 72, "4 Fig. 1 band ends, 18 + 36 table cells, 14 x86 means");
    let ids: HashSet<&str> = cells.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids.len(), cells.len(), "cell ids are unique");
    let scored = score(Model::paper());
    assert_eq!(scored.cells.len(), cells.len());
    for (paper, scored) in cells.iter().zip(&scored.cells) {
        assert_eq!(scored.id, paper.id);
        assert_eq!(scored.paper.to_bits(), paper.value.to_bits(), "{}", paper.id);
        assert!(scored.ln_ratio.is_finite(), "{}: {}", paper.id, scored.ln_ratio);
    }
    let orderings: HashSet<&str> = scored.orderings.iter().map(|o| o.id).collect();
    assert_eq!(orderings.len(), scored.orderings.len(), "ordering ids are unique");
}
