//! Sliding-window rate + percentile tracking.
//!
//! A [`WindowRing`] keeps one histogram slot per wall-clock second in a
//! fixed ring of [`SLOTS`] entries. Recording stamps the current second's
//! slot (lazily resetting a slot the ring has wrapped past); querying
//! merges the slots belonging to the last 1, 10, or 60 seconds into a
//! [`HistSnapshot`], which yields both a rate (`count / window`) and the
//! same deterministic quantile machinery the cumulative histograms use.
//!
//! The ring is guarded by a single mutex. The critical section is a few
//! array writes (~100ns), which is "lock-light" at the request rates the
//! serving layer sustains; the cumulative [`crate::hist::ShardedHist`]
//! path next to it stays entirely lock-free.

use crate::hist::HistSnapshot;
use crate::hist::{bucket_index, N_BUCKETS};
use std::sync::Mutex;

/// Ring capacity in seconds. Must exceed the widest queryable window
/// (60s) so a full window of completed seconds is always resident.
pub const SLOTS: usize = 64;

/// The window widths exposed by the metrics document, in seconds.
pub const WINDOWS_S: [u64; 3] = [1, 10, 60];

const EMPTY: u64 = u64::MAX;

struct Slot {
    stamp_s: u64,
    counts: Vec<u32>,
    count: u64,
    sum_ns: u64,
    max_bits: u64,
}

impl Slot {
    fn new() -> Slot {
        Slot { stamp_s: EMPTY, counts: vec![0; N_BUCKETS], count: 0, sum_ns: 0, max_bits: 0 }
    }

    fn reset(&mut self, stamp_s: u64) {
        self.stamp_s = stamp_s;
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum_ns = 0;
        self.max_bits = 0;
    }
}

/// A ring of per-second histogram slots.
pub struct WindowRing {
    slots: Mutex<Vec<Slot>>,
}

impl Default for WindowRing {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowRing {
    /// An empty ring.
    pub fn new() -> WindowRing {
        WindowRing { slots: Mutex::new((0..SLOTS).map(|_| Slot::new()).collect()) }
    }

    /// Record one microsecond sample into the slot for second `now_s`
    /// (seconds since the observability epoch).
    pub fn record_at(&self, now_s: u64, v: f64) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = &mut slots[(now_s % SLOTS as u64) as usize];
        if slot.stamp_s != now_s {
            slot.reset(now_s);
        }
        slot.counts[bucket_index(v)] = slot.counts[bucket_index(v)].saturating_add(1);
        slot.count += 1;
        if v.is_finite() && v > 0.0 {
            slot.sum_ns += (v * 1000.0).round() as u64;
            slot.max_bits = slot.max_bits.max(v.to_bits());
        }
    }

    /// Merge every slot whose stamp lies in `(now_s - window_s, now_s]`
    /// (the current, possibly partial, second plus the `window_s - 1`
    /// completed seconds before it).
    pub fn merge_at(&self, now_s: u64, window_s: u64) -> HistSnapshot {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = HistSnapshot::empty();
        for slot in slots.iter() {
            if slot.stamp_s == EMPTY || slot.stamp_s > now_s {
                continue;
            }
            if now_s - slot.stamp_s >= window_s {
                continue;
            }
            for (acc, &c) in out.counts.iter_mut().zip(&slot.counts) {
                *acc += u64::from(c);
            }
            out.count += slot.count;
            out.sum_ns += slot.sum_ns;
            out.max_bits = out.max_bits.max(slot.max_bits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_exactly_their_trailing_seconds() {
        let ring = WindowRing::new();
        // One sample per second for 100 seconds, value == the second.
        for s in 0..100u64 {
            ring.record_at(s, s as f64 + 1.0);
        }
        let now = 99;
        assert_eq!(ring.merge_at(now, 1).count, 1);
        assert_eq!(ring.merge_at(now, 10).count, 10);
        assert_eq!(ring.merge_at(now, 60).count, 60);
        // The 10s window holds seconds 90..=99 → max sample is 100.
        assert_eq!(ring.merge_at(now, 10).max_us(), 100.0);
        // A silent stretch empties the windows without touching old slots'
        // stamps: 70 seconds later everything has aged out.
        assert_eq!(ring.merge_at(now + 70, 60).count, 0);
    }

    #[test]
    fn ring_wrap_resets_stale_slots() {
        let ring = WindowRing::new();
        ring.record_at(3, 50.0);
        // Same ring slot, SLOTS seconds later: the old sample must not
        // bleed into the new second.
        ring.record_at(3 + SLOTS as u64, 70.0);
        let merged = ring.merge_at(3 + SLOTS as u64, 1);
        assert_eq!(merged.count, 1);
        assert_eq!(merged.max_us(), 70.0);
    }

    #[test]
    fn empty_ring_merges_to_zero() {
        let ring = WindowRing::new();
        let s = ring.merge_at(42, 60);
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile_us(0.99), 0.0);
    }
}
