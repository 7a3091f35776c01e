//! Log-bucketed (HDR-style) histograms: the bucket math and the
//! lock-free sharded streaming histogram built on it.
//!
//! **Bucket math.** A fixed log-linear bucket layout (16 linear
//! sub-buckets per power-of-two octave), index/bound conversion, and
//! quantile estimation over a counts array. Everything is deterministic
//! integer/bit arithmetic — bucket assignment is derived from the IEEE-754
//! representation, not from `log2`, so the same value always lands in the
//! same bucket on every platform, and merged count arrays are
//! bit-identical regardless of the order shards are combined in.
//!
//! Layout, for values measured in any unit `u`:
//! * bucket `0`: the underflow bucket, `v < 1u` (plus NaN and negatives);
//! * buckets `1 ..= OCTAVES*SUB_BUCKETS`: octave `e` (values in
//!   `[2^e, 2^(e+1))`) split into [`SUB_BUCKETS`] equal linear steps,
//!   giving a worst-case relative error of `1/SUB_BUCKETS` ≈ 6%;
//! * the last bucket: saturating overflow, `v >= 2^OCTAVES`.
//!
//! With `OCTAVES = 40` and microsecond inputs the overflow threshold is
//! `2^40 µs` ≈ 12.7 days — effectively "never" for request latencies.
//!
//! **[`ShardedHist`]** keeps that layout in per-shard `AtomicU64` count
//! arrays so concurrent recorders touch disjoint cache lines most of the
//! time: a recording thread picks its shard from
//! [`rvhpc_trace::thread_ordinal`] and does two relaxed fetch-adds plus a
//! fetch-max — no locks, no allocation.
//!
//! Reads *merge* the shards into a [`HistSnapshot`]. Because every
//! aggregate is either an integer (bucket counts, sample count,
//! nanosecond sum) or a monotone bit-comparable maximum, the merged
//! snapshot is **bit-deterministic**: the same multiset of recorded
//! samples produces the same snapshot no matter which threads recorded
//! which sample or in what order the shards are combined.

use rvhpc_trace::thread_ordinal;
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (resolution ≈ 6%).
pub const SUB_BUCKETS: usize = 16;
/// Power-of-two octaves covered before the overflow bucket saturates.
pub const OCTAVES: usize = 40;
/// Total bucket count: underflow + `OCTAVES * SUB_BUCKETS` + overflow.
pub const N_BUCKETS: usize = 2 + OCTAVES * SUB_BUCKETS;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Map a sample to its bucket index. NaN, negative, and sub-1 values all
/// land in the underflow bucket `0`; values at or above `2^OCTAVES`
/// saturate into the final bucket.
#[inline]
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 1.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp >= OCTAVES as i64 {
        return N_BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    1 + exp as usize * SUB_BUCKETS + sub
}

/// Exclusive upper bound of a bucket. The underflow bucket's bound is
/// `1.0`; the overflow bucket's is `+inf`.
#[inline]
pub fn bucket_upper_bound(index: usize) -> f64 {
    if index == 0 {
        return 1.0;
    }
    if index >= N_BUCKETS - 1 {
        return f64::INFINITY;
    }
    let b = index - 1;
    let octave = (b / SUB_BUCKETS) as i32;
    let sub = (b % SUB_BUCKETS) as f64;
    f64::powi(2.0, octave) * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64)
}

/// Estimate the `q`-quantile (`0.0..=1.0`) of the distribution described
/// by a bucket-counts array, as the upper bound of the bucket holding the
/// rank-`ceil(q·n)` sample. Returns `0.0` for an empty histogram and
/// `+inf` when the rank falls in the overflow bucket — callers that track
/// the true observed maximum should clamp with it (`quantile.min(max)`),
/// which also turns the bound into the exact value for single-sample
/// histograms.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(counts.len().saturating_sub(1))
}

/// Shards per histogram. Recording threads hash onto these by thread
/// ordinal; more shards trade memory for less false sharing.
pub const N_SHARDS: usize = 8;

struct Shard {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Bit pattern of the largest sample. Samples are non-negative, so
    /// the IEEE-754 bit pattern is monotone in the value and a plain
    /// integer `fetch_max` tracks the true maximum.
    max_bits: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }
}

/// A cumulative (since process start) sharded histogram of microsecond
/// samples.
pub struct ShardedHist {
    shards: Vec<Shard>,
}

impl Default for ShardedHist {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedHist {
    /// An empty histogram.
    pub fn new() -> ShardedHist {
        ShardedHist { shards: (0..N_SHARDS).map(|_| Shard::new()).collect() }
    }

    /// Record one sample (microseconds). Negative and NaN samples are
    /// counted in the underflow bucket and contribute zero to the sum.
    pub fn record_us(&self, v: f64) {
        let shard = &self.shards[(thread_ordinal() as usize) % N_SHARDS];
        shard.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        // Sum in integer nanoseconds so merged sums are deterministic
        // (integer addition commutes; f64 addition does not).
        let ns = if v.is_finite() && v > 0.0 { (v * 1000.0).round() as u64 } else { 0 };
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
        let bits = if v.is_finite() && v > 0.0 { v.to_bits() } else { 0 };
        shard.max_bits.fetch_max(bits, Ordering::Relaxed);
    }

    /// Merge all shards into one deterministic snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::empty();
        for shard in &self.shards {
            for (acc, c) in out.counts.iter_mut().zip(&shard.counts) {
                *acc += c.load(Ordering::Relaxed);
            }
            out.count += shard.count.load(Ordering::Relaxed);
            out.sum_ns += shard.sum_ns.load(Ordering::Relaxed);
            out.max_bits = out.max_bits.max(shard.max_bits.load(Ordering::Relaxed));
        }
        out
    }
}

/// A merged, immutable view of a histogram: plain integers, safe to
/// compare bit-for-bit across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (the layout above).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples in integer nanoseconds.
    pub sum_ns: u64,
    /// IEEE-754 bit pattern of the largest sample (0 when empty).
    pub max_bits: u64,
}

impl HistSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> HistSnapshot {
        HistSnapshot { counts: vec![0; N_BUCKETS], count: 0, sum_ns: 0, max_bits: 0 }
    }

    /// Add another snapshot into this one (integer adds — deterministic).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (acc, c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    /// Largest recorded sample in microseconds (0 when empty).
    pub fn max_us(&self) -> f64 {
        f64::from_bits(self.max_bits)
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / 1000.0 / self.count as f64
        }
    }

    /// The `q`-quantile in microseconds: the bucket upper bound clamped to
    /// the observed maximum, so a saturated overflow bucket reports the
    /// real max instead of `+inf` and a single-sample histogram reports
    /// the sample itself.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        quantile_from_counts(&self.counts, q).min(self.max_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_observations_are_all_zeros() {
        let h = ShardedHist::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum_ns, 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.max_us(), 0.0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile_us(q), 0.0);
        }
    }

    #[test]
    fn single_observation_reports_itself_at_every_quantile() {
        let h = ShardedHist::new();
        h.record_us(137.25);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_ns, 137_250);
        assert_eq!(s.max_us(), 137.25);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile_us(q), 137.25, "q={q}: clamped to the observed max");
        }
    }

    #[test]
    fn saturating_max_bucket_keeps_count_and_clamps_quantiles() {
        let h = ShardedHist::new();
        let huge = 3.0e30; // far beyond 2^OCTAVES µs
        h.record_us(huge);
        h.record_us(huge * 2.0);
        h.record_us(5.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts[N_BUCKETS - 1], 2, "both giants saturate the final bucket");
        let p99 = s.quantile_us(0.99);
        assert!(p99.is_finite(), "overflow bucket must not leak +inf");
        assert_eq!(p99, huge * 2.0, "clamped to the true observed max");
    }

    #[test]
    fn nan_and_negative_samples_go_to_underflow_without_poisoning_sums() {
        let h = ShardedHist::new();
        h.record_us(f64::NAN);
        h.record_us(-7.0);
        h.record_us(2.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.sum_ns, 2000);
        assert_eq!(s.max_us(), 2.0);
    }

    #[test]
    fn concurrent_recording_from_std_threads_is_merge_deterministic() {
        // The same multiset of samples recorded under three different
        // thread layouts must merge to bit-identical snapshots.
        let samples: Vec<f64> = (0..4000).map(|i| 1.0 + (i as f64 * 17.31) % 90_000.0).collect();

        let serial = ShardedHist::new();
        for &v in &samples {
            serial.record_us(v);
        }
        let want = serial.snapshot();

        for n_threads in [2usize, 7] {
            let h = ShardedHist::new();
            std::thread::scope(|scope| {
                for t in 0..n_threads {
                    let h = &h;
                    let chunk: Vec<f64> =
                        samples.iter().copied().skip(t).step_by(n_threads).collect();
                    scope.spawn(move || {
                        for v in chunk {
                            h.record_us(v);
                        }
                    });
                }
            });
            let got = h.snapshot();
            assert_eq!(got, want, "{n_threads}-thread fan-in must merge bit-identically");
            assert_eq!(got.quantile_us(0.999).to_bits(), want.quantile_us(0.999).to_bits());
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_exact_at_powers_of_two() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(0.999), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(2.0), 1 + SUB_BUCKETS);
        assert_eq!(bucket_index(4.0), 1 + 2 * SUB_BUCKETS);
        let mut last = 0;
        let mut v = 1.0f64;
        while v < 2.0f64.powi(OCTAVES as i32 + 2) {
            let b = bucket_index(v);
            assert!(b >= last, "bucket index must be monotone in the value");
            assert!(b < N_BUCKETS);
            last = b;
            v *= 1.01;
        }
        assert_eq!(last, N_BUCKETS - 1, "huge values saturate the final bucket");
    }

    #[test]
    fn every_value_sits_below_its_bucket_upper_bound() {
        for i in 0..400 {
            let v = 1.0037f64.powi(i) * 1.3;
            let b = bucket_index(v);
            assert!(v < bucket_upper_bound(b), "v={v} bucket={b}");
            if b > 1 {
                assert!(
                    v >= bucket_upper_bound(b - 1),
                    "v={v} below previous bound {}",
                    bucket_upper_bound(b - 1)
                );
            }
        }
    }

    #[test]
    fn relative_error_of_the_bound_is_within_one_sub_bucket() {
        for i in 0..2000 {
            let v = 1.5f64 + i as f64 * 7.3;
            let bound = bucket_upper_bound(bucket_index(v));
            assert!(bound >= v);
            assert!(bound <= v * (1.0 + 2.0 / SUB_BUCKETS as f64), "v={v} bound={bound}");
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let mut counts = vec![0u64; N_BUCKETS];
        // 90 samples at ~10, 10 samples at ~1000.
        counts[bucket_index(10.0)] = 90;
        counts[bucket_index(1000.0)] = 10;
        let p50 = quantile_from_counts(&counts, 0.50);
        let p99 = quantile_from_counts(&counts, 0.99);
        assert!((10.0..11.0).contains(&p50), "p50={p50}");
        assert!((1000.0..1100.0).contains(&p99), "p99={p99}");
        assert!(quantile_from_counts(&counts, 0.0) > 0.0, "q=0 clamps to rank 1");
        assert_eq!(quantile_from_counts(&[0; N_BUCKETS], 0.5), 0.0, "empty histogram");
    }

    #[test]
    fn overflow_quantile_is_infinite_until_clamped() {
        let mut counts = vec![0u64; N_BUCKETS];
        counts[N_BUCKETS - 1] = 5;
        assert_eq!(quantile_from_counts(&counts, 0.5), f64::INFINITY);
        let observed_max = 1.0e30;
        assert_eq!(quantile_from_counts(&counts, 0.5).min(observed_max), observed_max);
    }
}
