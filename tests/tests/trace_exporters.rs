//! Golden tests for the tracing layer's exporters: a traced run must
//! produce valid Chrome-trace JSON (parseable, complete `X` events,
//! monotonic timestamps) with spans from at least four crates, every
//! registry counter it moves must reach every exporter, and disabling
//! tracing must leave report output byte-identical.

use rvhpc::cachesim::{AccessKind, CacheConfig, Hierarchy, LevelConfig};
use rvhpc::experiments::fig2;
use rvhpc::kernels::{make_kernel, KernelName};
use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{estimate, Model, Precision, RunConfig};
use rvhpc::threads::Team;
use rvhpc_trace::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The collector and the counter registry are process-global, so the
/// tests in this binary must not run their workloads concurrently.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn counters() -> BTreeMap<&'static str, u64> {
    rvhpc_obs::counters().into_iter().collect()
}

/// The registry counters that grew between two snapshots, with their
/// growth.
fn grown(before: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, u64> {
    counters()
        .into_iter()
        .filter_map(|(name, v)| {
            let d = v - before.get(name).copied().unwrap_or(0);
            (d > 0).then_some((name, d))
        })
        .collect()
}

/// Drive every instrumented subsystem once: the estimator (perfmodel →
/// compiler → rvv), a native fork-join region (threads), a cache replay
/// (cachesim), and a kernel instantiation (kernels).
fn traced_mini_run() -> rvhpc_trace::TraceData {
    rvhpc_trace::set_enabled(true);
    rvhpc_trace::take();

    let m = machine(MachineId::Sg2042);
    let _ = estimate(&m, KernelName::STREAM_TRIAD, &RunConfig::sg2042_best(Precision::Fp32, 4));

    let team = Team::new(2);
    team.run(|_| {});

    let mut h = Hierarchy::new(&[LevelConfig {
        cache: CacheConfig { size_bytes: 4096, line_bytes: 64, associativity: 4 },
    }]);
    h.replay((0..256u64).map(|i| (i * 64, AccessKind::Load)));

    let mut k = make_kernel::<f64>(KernelName::DAXPY, 256);
    k.run_serial();

    rvhpc_trace::set_enabled(false);
    rvhpc_trace::take()
}

#[test]
fn chrome_export_is_valid_and_covers_four_crates() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = traced_mini_run();
    assert!(!data.events.is_empty(), "mini-run produced no spans");

    let text = rvhpc_trace::chrome::export(&data, &rvhpc_obs::counters());
    let doc = Json::parse(&text).expect("chrome export parses as JSON");

    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert_eq!(events.len(), data.events.len());

    let mut last_ts = f64::MIN;
    let mut crates = std::collections::BTreeSet::new();
    for ev in events {
        // Complete events only, with the fields chrome://tracing needs.
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = ev.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ev.get("tid").and_then(Json::as_f64).is_some());
        assert!(ev.get("pid").and_then(Json::as_f64).is_some());
        assert!(dur >= 0.0, "negative duration on {name}");
        assert!(ts >= last_ts, "timestamps not monotonic at {name}");
        last_ts = ts;
        crates.insert(name.split('.').next().expect("dotted name").to_string());
    }
    assert!(crates.len() >= 4, "spans from ≥4 crates expected, got {crates:?}");
    for expected in ["perfmodel", "threads", "cachesim", "kernels"] {
        assert!(crates.contains(expected), "missing {expected} in {crates:?}");
    }

    // The caller's counter snapshot rides along in the metadata object.
    let metadata = doc.get("metadata").expect("metadata");
    assert!(metadata.get("counters").is_some());
}

#[test]
fn metrics_exporters_cover_every_counter() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = counters();
    let data = traced_mini_run();
    let moved = grown(&before);
    for name in ["threads.regions", "cachesim.l1.misses", "kernels.instantiated"] {
        assert!(moved.contains_key(name), "mini-run did not move {name}: {moved:?}");
    }

    let snapshot = rvhpc_obs::counters();
    let chrome = rvhpc_trace::chrome::to_json(&data, &snapshot);
    let metrics = rvhpc_obs::metrics_json();
    let prometheus = rvhpc_obs::metrics_prometheus();
    for name in moved.keys() {
        let value = counters()[name] as f64;
        let in_chrome = chrome.get("metadata").and_then(|m| m.get("counters")?.get(name));
        assert_eq!(in_chrome.and_then(Json::as_f64), Some(value), "chrome metadata: {name}");
        let in_metrics = metrics.get("counters").and_then(|c| c.get(name));
        assert_eq!(in_metrics.and_then(Json::as_f64), Some(value), "metrics document: {name}");
        let prom_name: String =
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        let line = format!("rvhpc_counter{{name=\"{prom_name}\"}} {}", counters()[name]);
        assert!(prometheus.lines().any(|l| l == line), "prometheus text missing `{line}`");
    }
}

/// Tracing must be observation-only: the same artefact rendered with the
/// collector enabled and disabled is byte-identical.
#[test]
fn disabling_tracing_leaves_reports_byte_identical() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    rvhpc_trace::set_enabled(false);
    rvhpc_trace::take();
    let fig = fig2::run(Model::paper());
    let plain = format!("{}\n{}", fig.to_markdown(), fig.to_csv());

    // The untraced run warmed the cross-sweep estimate cache; start the
    // traced run cold so it actually reaches the estimator (and proves
    // cache state cannot change the rendered artefact either).
    rvhpc::perfmodel::cache::clear();
    let before = counters();
    rvhpc_trace::set_enabled(true);
    rvhpc_trace::take();
    let fig = fig2::run(Model::paper());
    let traced = format!("{}\n{}", fig.to_markdown(), fig.to_csv());
    rvhpc_trace::set_enabled(false);
    let data = rvhpc_trace::take();

    assert_eq!(plain, traced, "tracing changed report output");
    assert!(
        data.events.iter().any(|e| e.name == "perfmodel.estimate"),
        "the traced regeneration recorded no estimator spans"
    );
    assert!(
        grown(&before).contains_key("perfmodel.estimate_cache.miss"),
        "a cold traced run must record estimate-cache misses"
    );
}
