//! # rvhpc-obs — the metrics registry
//!
//! Every named number the workspace records lives here, in one registry
//! with one exposition schema. Where `rvhpc-trace` is an off-by-default
//! *post-hoc* span recorder (collect everything, export once), this crate
//! is an *always-on streaming* aggregator sized so it can stay enabled in
//! production:
//!
//! * [`counter!`] — named monotonic counters (estimate-cache hits and
//!   misses, placement resolves, barrier waits, verify cases). They
//!   always count: one relaxed `fetch_add` on a handle cached per call
//!   site.
//! * [`stage`] — named lock-free sharded log-bucketed histograms
//!   ([`ShardedHist`], bucket math in [`hist`]) with 1s/10s/60s sliding
//!   windows ([`WindowRing`]) for rates and percentiles.
//! * [`gauge!`] — point-in-time gauges (queue depth, in-flight batches,
//!   cache occupancy), also through a cached handle.
//! * [`slo`] — a process-wide [`SloTracker`] counting requests against a
//!   latency SLO and tail-sampling breaching requests with full per-stage
//!   breakdowns ([`SlowRequest`]).
//! * [`metrics_json`] / [`metrics_prometheus`] — exposition of the whole
//!   registry as a `rvhpc-metrics-v1` document or Prometheus-style text;
//!   [`snapshot::SnapshotRing`] persists periodic scrapes to a bounded
//!   on-disk ring for post-mortem replay.
//!
//! Recording a stage sample costs two relaxed fetch-adds, a fetch-max,
//! and one short mutex-guarded ring-slot update. Stages, gauges and the
//! SLO tracker can be switched off for A/B overhead measurements with
//! `RVHPC_OBS=off` (read once, like `RVHPC_CACHE_CAP` in
//! rvhpc-perfmodel); counters keep counting, because the cache and
//! server statistics are read from them.
//!
//! ```
//! rvhpc_obs::counter!("doc.example.events", 2);
//! rvhpc_obs::counter!("doc.example.events", 3);
//! let events = rvhpc_obs::counter("doc.example.events");
//! assert_eq!(events.load(std::sync::atomic::Ordering::Relaxed), 5);
//! ```

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
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Is recording on? Decided once from the `RVHPC_OBS` environment
/// variable (`0`/`off`/`false` disable it); defaults to on. It gates
/// stages, gauges and the SLO tracker, never counters. Exposition keeps
/// working either way — disabled recording just leaves the gated parts at
/// zero, which makes it the baseline side of an overhead comparison.
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

/// A name → `'static` handle map. Entries are leaked on first use: the
/// names form a small fixed set, so the leak is bounded.
type Registry<T> = Mutex<BTreeMap<&'static str, &'static T>>;

static STAGES: Registry<Stage> = Mutex::new(BTreeMap::new());
static GAUGES: Registry<AtomicI64> = Mutex::new(BTreeMap::new());
static COUNTERS: Registry<AtomicU64> = Mutex::new(BTreeMap::new());

fn lookup<T>(registry: &Registry<T>, name: &'static str, make: fn() -> T) -> &'static T {
    let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
    map.entry(name).or_insert_with(|| Box::leak(Box::new(make())))
}

fn entries<T>(registry: &Registry<T>) -> Vec<(&'static str, &'static T)> {
    let map = registry.lock().unwrap_or_else(|e| e.into_inner());
    map.iter().map(|(&k, &v)| (k, v)).collect()
}

/// Look up (registering on first use) the stage with this name. Hot
/// paths should call this once and keep the reference.
pub fn stage(name: &'static str) -> &'static Stage {
    lookup(&STAGES, name, Stage::new)
}

/// All registered stages, sorted by name.
pub fn stages() -> Vec<(&'static str, &'static Stage)> {
    entries(&STAGES)
}

/// Look up (registering on first use) a gauge by name. Call sites set
/// gauges through [`gauge!`], which caches this handle.
pub fn gauge(name: &'static str) -> &'static AtomicI64 {
    lookup(&GAUGES, name, || AtomicI64::new(0))
}

/// All gauges and their current values, sorted by name.
pub fn gauges() -> Vec<(&'static str, i64)> {
    entries(&GAUGES).into_iter().map(|(k, v)| (k, v.load(Ordering::Relaxed))).collect()
}

/// Look up (registering on first use) a counter by name. Call sites
/// count through [`counter!`], which caches this handle; sites whose
/// name comes from a table call this directly.
pub fn counter(name: &'static str) -> &'static AtomicU64 {
    lookup(&COUNTERS, name, || AtomicU64::new(0))
}

/// All counters and their current values, sorted by name.
pub fn counters() -> Vec<(&'static str, u64)> {
    entries(&COUNTERS).into_iter().map(|(k, v)| (k, v.load(Ordering::Relaxed))).collect()
}

/// Add to a named monotonic counter: `counter!("cachesim.analytic.streams", 1)`.
/// Counters always count, whatever `RVHPC_OBS` says: the cost is one
/// relaxed `fetch_add` on a handle cached per call site, so the registry
/// lock is taken once per site, never on the hot path.
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<&'static ::std::sync::atomic::AtomicU64> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::counter($name))
            .fetch_add($delta, ::std::sync::atomic::Ordering::Relaxed);
    }};
}

/// Set a gauge to a point-in-time value: `gauge!("serve.queue_depth", d)`.
/// A no-op when recording is disabled; otherwise one relaxed store on a
/// handle cached per call site, like [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr $(,)?) => {
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static ::std::sync::atomic::AtomicI64> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::gauge($name))
                .store($value, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
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

        for v in [41, 7] {
            gauge!("test.lib.gauge", v);
        }
        let got = gauges().into_iter().find(|&(n, _)| n == "test.lib.gauge");
        assert_eq!(got, Some(("test.lib.gauge", 7)));
    }

    #[test]
    fn counters_accumulate_per_name_across_call_sites() {
        let value = || counter("test.lib.counter").load(Ordering::Relaxed);
        let before = value();
        for _ in 0..3 {
            counter!("test.lib.counter", 2);
        }
        counter!("test.lib.counter", 1);
        assert_eq!(value() - before, 7, "two call sites share one registry entry");
        assert!(std::ptr::eq(counter("test.lib.counter"), counter("test.lib.counter")));
        let listed = counters().into_iter().find(|&(n, _)| n == "test.lib.counter");
        assert_eq!(listed, Some(("test.lib.counter", value())));
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
