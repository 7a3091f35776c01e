//! # rvhpc-obs — always-on runtime observability
//!
//! The sensor suite for the serving stack: where `rvhpc-trace` is an
//! off-by-default *post-hoc* recorder (collect everything, export once),
//! this crate is an *always-on streaming* aggregator sized so it can stay
//! enabled in production:
//!
//! * [`stage`] — named lock-free sharded log-bucketed histograms
//!   ([`ShardedHist`]) with 1s/10s/60s sliding windows ([`WindowRing`])
//!   for rates and percentiles; bucket math shared with
//!   [`rvhpc_trace::hist`].
//! * [`gauge_set`] — point-in-time gauges (queue depth, in-flight
//!   batches, worksteal backlog, cache occupancy).
//! * [`slo`] — a process-wide [`SloTracker`] counting requests against a
//!   latency SLO and tail-sampling breaching requests with full per-stage
//!   breakdowns ([`SlowRequest`]).
//! * [`metrics_json`] / [`metrics_prometheus`] — exposition of the whole
//!   registry as a `rvhpc-metrics-v1` document or Prometheus-style text;
//!   [`snapshot::SnapshotRing`] persists periodic scrapes to a bounded
//!   on-disk ring for post-mortem replay.
//!
//! Recording costs two relaxed fetch-adds, a fetch-max, and one short
//! mutex-guarded ring-slot update per sample. The whole layer can be
//! switched off for A/B overhead measurements with `RVHPC_OBS=off`
//! (read once, like `RVHPC_CACHE_CAP` in rvhpc-perfmodel).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod snapshot;
pub mod tail;
pub mod window;

pub use expo::{metrics_json, metrics_prometheus, validate_metrics, METRICS_SCHEMA};
pub use hist::{HistSnapshot, ShardedHist};
pub use tail::{SloTracker, SlowRequest};
pub use window::{WindowRing, WINDOWS_S};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Is recording on? Decided once from the `RVHPC_OBS` environment
/// variable (`0`/`off`/`false` disable it); defaults to on. Exposition
/// keeps working either way — disabled recording just leaves everything
/// at zero, which is what the checked-in overhead baseline uses.
pub fn enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        !matches!(
            std::env::var("RVHPC_OBS").ok().as_deref(),
            Some("0") | Some("off") | Some("false")
        )
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the observability epoch (first use in this process).
pub fn uptime_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Whole seconds since the epoch — the window rings' clock.
pub fn now_s() -> u64 {
    epoch().elapsed().as_secs()
}

/// One named pipeline stage: a cumulative histogram plus sliding windows.
pub struct Stage {
    /// Since-process-start sharded histogram (microseconds).
    pub hist: ShardedHist,
    /// Per-second ring backing the 1s/10s/60s windows.
    pub windows: WindowRing,
}

impl Stage {
    fn new() -> Stage {
        Stage { hist: ShardedHist::new(), windows: WindowRing::new() }
    }

    /// Record one latency sample in microseconds (no-op when recording
    /// is disabled).
    pub fn record_us(&self, v: f64) {
        if !enabled() {
            return;
        }
        self.hist.record_us(v);
        self.windows.record_at(now_s(), v);
    }
}

fn stage_registry() -> &'static Mutex<BTreeMap<&'static str, &'static Stage>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static Stage>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Look up (registering on first use) the stage with this name. The
/// returned reference is `'static`; hot paths should call this once and
/// keep it. Stage names form a small fixed set, so the one-time leak per
/// name is bounded.
pub fn stage(name: &'static str) -> &'static Stage {
    let mut registry = stage_registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.entry(name).or_insert_with(|| Box::leak(Box::new(Stage::new())))
}

/// All registered stages, sorted by name.
pub fn stages() -> Vec<(&'static str, &'static Stage)> {
    let registry = stage_registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.iter().map(|(&k, &v)| (k, v)).collect()
}

fn gauge_registry() -> &'static Mutex<BTreeMap<&'static str, &'static AtomicI64>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static AtomicI64>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Look up (registering on first use) a gauge by name.
pub fn gauge(name: &'static str) -> &'static AtomicI64 {
    let mut registry = gauge_registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.entry(name).or_insert_with(|| Box::leak(Box::new(AtomicI64::new(0))))
}

/// Set a gauge to a point-in-time value (no-op when recording is
/// disabled).
pub fn gauge_set(name: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    gauge(name).store(value, Ordering::Relaxed);
}

/// All gauges and their current values, sorted by name.
pub fn gauges() -> Vec<(&'static str, i64)> {
    let registry = gauge_registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.iter().map(|(&k, v)| (k, v.load(Ordering::Relaxed))).collect()
}

/// The process-wide SLO tracker and slow-request exemplar ring.
pub fn slo() -> &'static SloTracker {
    static SLO: OnceLock<SloTracker> = OnceLock::new();
    SLO.get_or_init(SloTracker::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_gauge_registries_are_stable_and_sorted() {
        // A prefix of its own: other tests in this process register
        // `test.lib.*` stages concurrently.
        let a = stage("test.lib.sorted.alpha");
        let b = stage("test.lib.sorted.alpha");
        assert!(std::ptr::eq(a, b), "same name → same stage");
        stage("test.lib.sorted.beta");
        let names: Vec<&str> = stages()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("test.lib.sorted."))
            .collect();
        assert_eq!(names, vec!["test.lib.sorted.alpha", "test.lib.sorted.beta"]);

        gauge_set("test.lib.gauge", 41);
        gauge_set("test.lib.gauge", 7);
        let got = gauges().into_iter().find(|&(n, _)| n == "test.lib.gauge");
        assert_eq!(got, Some(("test.lib.gauge", 7)));
    }

    #[test]
    fn stage_recording_reaches_both_cumulative_and_window_views() {
        let s = stage("test.lib.record");
        s.record_us(250.0);
        let cum = s.hist.snapshot();
        assert_eq!(cum.count, 1);
        assert_eq!(cum.quantile_us(0.5), 250.0);
        let windowed = s.windows.merge_at(now_s(), 60);
        assert_eq!(windowed.count, 1);
    }
}
