//! `repro --trace fig2` end to end: the Chrome trace lands in the working
//! directory with the estimator's spans and the registry's counters in
//! its metadata, and the stderr counter table lists the same counters.

use rvhpc_trace::json::Json;
use std::process::Command;

#[test]
fn trace_fig2_writes_spans_and_registry_counters() {
    let dir = std::env::temp_dir().join(format!("rvhpc-trace-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--trace", "fig2"])
        .current_dir(&dir)
        .env_remove("RVHPC_CACHE_DIR")
        .output()
        .expect("repro --trace fig2 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    let text = std::fs::read_to_string(dir.join("trace-fig2.json")).expect("trace file written");
    let doc = Json::parse(&text).expect("trace file is JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(
        events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("perfmodel.estimate")),
        "no perfmodel.estimate span"
    );
    let misses = doc
        .get("metadata")
        .and_then(|m| m.get("counters")?.get("perfmodel.estimate_cache.miss"))
        .and_then(Json::as_f64)
        .expect("metadata.counters carries the estimate-cache misses");
    assert!(misses > 0.0, "a fresh process misses the estimate cache");
    let row = format!("| perfmodel.estimate_cache.miss | {misses} |");
    assert!(stderr.lines().any(|l| l == row), "stderr table lacks `{row}`:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
