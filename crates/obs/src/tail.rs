//! SLO tracking and tail sampling with exemplars.
//!
//! A [`SloTracker`] counts every completed request against a configurable
//! latency threshold and, for requests that breach it, captures a full
//! per-stage [`SlowRequest`] exemplar into a bounded ring — so a p999
//! spike in the histograms can always be traced back to concrete
//! offending requests and the stage that ate the time. Per-second
//! (total, breach) counters feed 1s/10s/60s burn-rate windows.

use crate::window::SLOTS;
use rvhpc_trace::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default capacity of the exemplar ring.
pub const DEFAULT_RING_CAP: usize = 64;

/// One tail-sampled request: everything needed to explain where an
/// SLO-breaching request spent its time.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// The request's rendered JSON `id`.
    pub id: String,
    /// The op, e.g. `estimate` or `suite`.
    pub op: String,
    /// Human-oriented summary of the payload (machine/kernel/threads…).
    pub detail: String,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Ordered per-stage breakdown, `(stage name, microseconds)`.
    pub stages: Vec<(String, f64)>,
    /// Completion time, seconds since the observability epoch.
    pub at_s: f64,
}

impl SlowRequest {
    /// Render as a JSON object for the `slow_requests` op.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(&self.id)),
            ("op", Json::str(&self.op)),
            ("detail", Json::str(&self.detail)),
            ("total_us", Json::Num(self.total_us)),
            (
                "stages",
                Json::Obj(self.stages.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
            ),
            ("at_s", Json::Num(self.at_s)),
        ])
    }
}

/// Counts requests against the SLO threshold and keeps breach exemplars.
pub struct SloTracker {
    /// Threshold in microseconds as f64 bits; 0 bits = tracking disabled.
    threshold_us_bits: AtomicU64,
    total: AtomicU64,
    breaches: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SlowRequest>>,
    cap: usize,
    /// Per-second (stamp, total, breaches) slots for burn windows.
    seconds: Mutex<Vec<(u64, u64, u64)>>,
}

impl Default for SloTracker {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAP)
    }
}

impl SloTracker {
    /// A tracker whose exemplar ring holds at most `cap` requests.
    pub fn with_capacity(cap: usize) -> SloTracker {
        SloTracker {
            threshold_us_bits: AtomicU64::new(0),
            total: AtomicU64::new(0),
            breaches: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(cap)),
            cap,
            seconds: Mutex::new(vec![(u64::MAX, 0, 0); SLOTS]),
        }
    }

    /// Set the SLO threshold in milliseconds. `0` (or negative) disables
    /// breach capture while keeping the total-request count running.
    pub fn set_threshold_ms(&self, ms: f64) {
        let us = if ms > 0.0 { ms * 1000.0 } else { 0.0 };
        self.threshold_us_bits.store(us.to_bits(), Ordering::Relaxed);
    }

    /// The configured threshold in milliseconds (`0.0` when disabled).
    pub fn threshold_ms(&self) -> f64 {
        f64::from_bits(self.threshold_us_bits.load(Ordering::Relaxed)) / 1000.0
    }

    /// Count one completed request at second `now_s`; when `total_us`
    /// breaches the threshold, build and capture an exemplar. Returns
    /// whether the request breached.
    pub fn observe_at(
        &self,
        now_s: u64,
        total_us: f64,
        exemplar: impl FnOnce() -> SlowRequest,
    ) -> bool {
        self.total.fetch_add(1, Ordering::Relaxed);
        let threshold_us = f64::from_bits(self.threshold_us_bits.load(Ordering::Relaxed));
        let breached = threshold_us > 0.0 && total_us > threshold_us;
        if breached {
            self.breaches.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() == self.cap {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(exemplar());
        }
        let mut seconds = self.seconds.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &mut seconds[(now_s % SLOTS as u64) as usize];
        if slot.0 != now_s {
            *slot = (now_s, 0, 0);
        }
        slot.1 += 1;
        if breached {
            slot.2 += 1;
        }
        breached
    }

    /// Lifetime counters: `(total, breaches, dropped_exemplars)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.total.load(Ordering::Relaxed),
            self.breaches.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// `(total, breaches)` over the trailing `window_s` seconds at `now_s`.
    pub fn window_counts_at(&self, now_s: u64, window_s: u64) -> (u64, u64) {
        let seconds = self.seconds.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = 0;
        let mut breaches = 0;
        for &(stamp, t, b) in seconds.iter() {
            if stamp != u64::MAX && stamp <= now_s && now_s - stamp < window_s {
                total += t;
                breaches += b;
            }
        }
        (total, breaches)
    }

    /// How many exemplars the ring currently holds.
    pub fn captured_count(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The newest `limit` captured exemplars, most recent first.
    pub fn captured(&self, limit: usize) -> Vec<SlowRequest> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().rev().take(limit).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar(tag: &str, total_us: f64) -> SlowRequest {
        SlowRequest {
            id: tag.to_string(),
            op: "sleep".to_string(),
            detail: format!("sleep {}ms", total_us / 1000.0),
            total_us,
            stages: vec![("compute".to_string(), total_us)],
            at_s: 0.0,
        }
    }

    #[test]
    fn breaches_are_captured_and_the_ring_is_bounded() {
        let slo = SloTracker::with_capacity(3);
        slo.set_threshold_ms(10.0);
        assert!(!slo.observe_at(0, 5_000.0, || unreachable!("under threshold")));
        for i in 0..5 {
            let us = 20_000.0 + i as f64;
            assert!(slo.observe_at(0, us, || exemplar(&format!("r{i}"), us)));
        }
        let (total, breaches, dropped) = slo.counters();
        assert_eq!((total, breaches, dropped), (6, 5, 2));
        let kept = slo.captured(10);
        assert_eq!(kept.len(), 3, "ring holds only the newest 3");
        assert_eq!(kept[0].id, "r4", "newest first");
        assert_eq!(kept[2].id, "r2", "oldest exemplars were evicted");
        assert_eq!(slo.captured(1).len(), 1, "limit trims the reply");
    }

    #[test]
    fn disabled_threshold_counts_but_never_captures() {
        let slo = SloTracker::default();
        assert_eq!(slo.threshold_ms(), 0.0);
        assert!(!slo.observe_at(0, 1.0e9, || unreachable!("capture disabled")));
        assert_eq!(slo.counters(), (1, 0, 0));
    }

    #[test]
    fn burn_windows_age_out() {
        let slo = SloTracker::default();
        slo.set_threshold_ms(1.0);
        for s in 0..30u64 {
            slo.observe_at(s, 500.0, || unreachable!());
            slo.observe_at(s, 2_000.0, || exemplar("x", 2_000.0));
        }
        assert_eq!(slo.window_counts_at(29, 1), (2, 1));
        assert_eq!(slo.window_counts_at(29, 10), (20, 10));
        assert_eq!(slo.window_counts_at(29, 60), (60, 30));
        assert_eq!(slo.window_counts_at(29 + 70, 60), (0, 0), "aged out");
    }
}
