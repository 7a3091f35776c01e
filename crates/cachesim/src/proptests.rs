//! Property tests for the cache simulator.

#![cfg(test)]

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::pattern::Pattern;
use rvhpc_quickprop::{run_cases, Gen};

/// Random mixed-pattern access stream.
fn stream(g: &mut Gen) -> Vec<(u64, AccessKind)> {
    let len = g.usize_in(1..=1999);
    (0..len)
        .map(|_| {
            let addr = g.u64_in(0..=64 * 1024 - 1);
            let kind = if g.bool_with(0.5) { AccessKind::Store } else { AccessKind::Load };
            (addr, kind)
        })
        .collect()
}

/// Inclusion property of fully-associative LRU: a larger cache never
/// misses more than a smaller one on the same trace.
#[test]
fn fully_associative_lru_inclusion() {
    run_cases(64, |g| {
        let stream = stream(g);
        let mk = |lines: usize| {
            let mut c = Cache::new(CacheConfig {
                size_bytes: lines * 64,
                line_bytes: 64,
                associativity: lines, // fully associative: 1 set
            });
            for &(a, k) in &stream {
                c.access(a, k);
            }
            c.stats().misses
        };
        let small = mk(4);
        let big = mk(16);
        assert!(big <= small, "16-line {big} > 4-line {small}");
    });
}

/// Counter consistency: hits + misses equals the access count, and the
/// miss count is at least the number of distinct lines touched
/// (compulsory misses) for any geometry.
#[test]
fn counters_are_consistent() {
    run_cases(64, |g| {
        let stream = stream(g);
        let sets = 1usize << g.usize_in(1..=5);
        let ways = g.usize_in(1..=8);
        let mut c = Cache::new(CacheConfig {
            size_bytes: sets * ways * 64,
            line_bytes: 64,
            associativity: ways,
        });
        for &(a, k) in &stream {
            c.access(a, k);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), stream.len() as u64);
        let mut lines: Vec<u64> = stream.iter().map(|(a, _)| a >> 6).collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(s.misses >= lines.len() as u64, "misses below compulsory");
        assert!((0.0..=1.0).contains(&s.miss_ratio()));
    });
}

/// Write-backs never exceed store misses' upper bound: each write-back
/// requires a previously dirtied line, so writebacks ≤ stores.
#[test]
fn writebacks_bounded_by_stores() {
    run_cases(64, |g| {
        let stream = stream(g);
        let mut c =
            Cache::new(CacheConfig { size_bytes: 2 * 1024, line_bytes: 64, associativity: 2 });
        let mut stores = 0u64;
        for &(a, k) in &stream {
            if k == AccessKind::Store {
                stores += 1;
            }
            c.access(a, k);
        }
        assert!(c.stats().writebacks <= stores);
    });
}

/// Pattern length contracts: every generator yields exactly `len()`
/// accesses and they are deterministic.
#[test]
fn patterns_honour_their_length() {
    run_cases(64, |g| {
        let base = g.u64_in(0..=4095);
        let stride = g.u64_in(1..=255);
        let count = g.u64_in(0..=499);
        let passes = g.u64_in(1..=3) as u32;
        let seq = Pattern::Sequential { base, stride, count, kind: AccessKind::Load };
        assert_eq!(seq.stream().count() as u64, count);
        let rep = Pattern::Repeated { inner: Box::new(seq), passes };
        assert_eq!(rep.stream().count() as u64, count * passes as u64);
        let a: Vec<_> = rep.stream().collect();
        let b: Vec<_> = rep.stream().collect();
        assert_eq!(a, b);
    });
}

/// Replaying a trace twice through a reset hierarchy gives identical
/// statistics (determinism of the simulator itself).
#[test]
fn cache_is_deterministic() {
    run_cases(64, |g| {
        let stream = stream(g);
        let cfg = CacheConfig { size_bytes: 4096, line_bytes: 64, associativity: 4 };
        let run = || {
            let mut c = Cache::new(cfg);
            for &(a, k) in &stream {
                c.access(a, k);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    });
}

/// The allocation-free traffic core, called the way the memory model
/// calls it — per-stream capacity shares, into a reused buffer with stale
/// contents — agrees to the bit with a fresh
/// [`TrafficModel::traffic`] on every field, and writes every level.
#[test]
fn traffic_core_matches_the_model_bit_for_bit() {
    use crate::analytic::{stream_traffic, AccessSpec, Locality, TrafficModel};
    run_cases(256, |g| {
        let levels = g.usize_in(1..=6);
        let mut physical = Vec::with_capacity(levels);
        let mut cap = g.f64_in(1e3, 1e5);
        for _ in 0..levels {
            physical.push(cap);
            cap *= g.f64_in(1.0, 64.0);
        }
        let line_bytes = *g.choose(&[32.0, 64.0, 128.0]);
        let steady_state = g.bool_with(0.5);
        let share = g.f64_in(0.0, 1.0);
        let locality = *g.choose(&[Locality::Sequential, Locality::Strided, Locality::Random]);
        let elem_bytes = *g.choose(&[4.0, 8.0]);
        let spec = AccessSpec {
            footprint_bytes: if g.bool_with(0.05) { 0.0 } else { g.f64_in(1.0, 1e9) },
            elem_bytes,
            stride_bytes: elem_bytes * g.f64_in(0.5, 64.0),
            passes: g.f64_in(0.0, 100.0),
            write_fraction: g.f64_in(0.0, 1.0),
            locality,
        };

        let caps: Vec<f64> = physical.iter().map(|c| c * share).collect();
        let mut model = TrafficModel::new(caps.clone(), line_bytes);
        model.steady_state = steady_state;
        let want = model.traffic(&spec);

        let mut buf = vec![f64::NAN; levels + 2];
        let got = stream_traffic(&caps, line_bytes, steady_state, &spec, &mut buf);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.requested_bytes.to_bits(), want.requested_bytes.to_bits(), "{spec:?}");
        assert_eq!(
            got.dram_writeback_bytes.to_bits(),
            want.dram_writeback_bytes.to_bits(),
            "{spec:?}"
        );
        assert_eq!(bits(&buf[..levels]), bits(&want.fetch_bytes), "{spec:?}");
        assert!(buf[levels..].iter().all(|x| x.is_nan()), "wrote past its levels");
    });
}
