//! `RVHPC_OBS=off` switches off stages and gauges, never counters: the
//! estimate-cache and fleet statistics are read back from the registry.
//! A test binary of its own, because the switch is read once per process.

use std::sync::atomic::Ordering::Relaxed;

#[test]
fn counters_record_with_obs_off() {
    // Before any registry call, so the one-time read sees it.
    std::env::set_var("RVHPC_OBS", "off");
    assert!(!rvhpc_obs::enabled());

    rvhpc_obs::counter!("test.off.counter", 3);
    rvhpc_obs::gauge!("test.off.gauge", 9);
    rvhpc_obs::stage("test.off.stage").record_us(10.0);

    assert_eq!(rvhpc_obs::counter("test.off.counter").load(Relaxed), 3);
    assert_eq!(rvhpc_obs::gauge("test.off.gauge").load(Relaxed), 0, "gauges stay gated");
    assert_eq!(rvhpc_obs::stage("test.off.stage").hist.snapshot().count, 0, "stages stay gated");
    let doc = rvhpc_obs::metrics_json();
    let listed = doc.get("counters").and_then(|c| c.get("test.off.counter"));
    assert_eq!(listed.and_then(rvhpc_trace::json::Json::as_f64), Some(3.0));
}
