//! The persistent estimate store enabled through `RVHPC_CACHE_DIR` alone,
//! with no `--cache-dir` flag: the store resolves the variable lazily on
//! first use, so a first `repro bench --quick` run must write the store
//! file and a second run must replay it from disk.

use rvhpc_trace::json::Json;
use std::path::Path;
use std::process::Command;

/// Run `repro bench --quick` with the store directory taken from the
/// environment; return the artefact's total estimate-cache hit rate.
fn bench_total_hit_rate(store: &Path, artefact: &Path) -> f64 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--quick", "--json", artefact.to_str().expect("utf8 path")])
        .env("RVHPC_CACHE_DIR", store)
        .output()
        .expect("repro bench runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(artefact).expect("artefact written");
    let doc = Json::parse(&text).expect("artefact is JSON");
    doc.get("total")
        .and_then(|t| t.get("estimate_cache"))
        .and_then(|c| c.get("hit_rate"))
        .and_then(Json::as_f64)
        .expect("total.estimate_cache.hit_rate")
}

#[test]
fn env_cache_dir_warm_starts_a_second_run() {
    let tmp = std::env::temp_dir().join(format!("rvhpc-env-cache-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let store = tmp.join("store");
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let artefact = tmp.join("bench.json");

    bench_total_hit_rate(&store, &artefact);
    assert!(
        store.join(rvhpc_perfmodel::persist::FILE_NAME).is_file(),
        "the first run wrote the store from RVHPC_CACHE_DIR"
    );
    let warm = bench_total_hit_rate(&store, &artefact);
    assert!(warm >= 0.99, "second run replays the store: total hit_rate {warm}");

    let _ = std::fs::remove_dir_all(&tmp);
}
