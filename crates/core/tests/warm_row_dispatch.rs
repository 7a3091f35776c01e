//! What a sweep costs the pool and the cache counters: a suite row, cold
//! or warm, estimates its misses on the calling thread and dispatches no
//! pool region on any host, a warm row is answered under one cache lock,
//! and one paper batch pass counts the same hits and misses however the
//! lookups are grouped.
//! A test binary of its own, because the registry counters, the pool and
//! the estimate cache are process-wide.

use rvhpc::experiments::driver::EXPERIMENTS;
use rvhpc::kernels::KernelName;
use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{cache, estimate_cached, persist, Precision, RunConfig};
use rvhpc::suite_times;
use std::sync::atomic::Ordering;

/// `(pool regions, cache hits, cache misses)` so far in this process.
fn counts() -> (u64, u64, u64) {
    let stats = cache::stats();
    (rvhpc_obs::counter("threads.regions").load(Ordering::Relaxed), stats.hits, stats.misses)
}

fn since(before: (u64, u64, u64)) -> (u64, u64, u64) {
    let now = counts();
    (now.0 - before.0, now.1 - before.1, now.2 - before.2)
}

#[test]
fn warm_rows_dispatch_nothing_and_pass_counts_hold() {
    persist::set_cache_dir(None);
    cache::clear();

    let rows = [
        (MachineId::Sg2042, RunConfig::sg2042_best(Precision::Fp32, 16)),
        (MachineId::VisionFiveV2, RunConfig::scalar_single(Precision::Fp64)),
        (MachineId::AmdRome, RunConfig::x86(Precision::Fp64, 64)),
    ];
    for (id, cfg) in rows {
        let m = machine(id);
        let before = counts();
        let _ = suite_times(&m, &cfg);
        let (regions, hits, misses) = since(before);
        assert_eq!((regions, hits, misses), (0, 0, 64), "cold {id}: 64 misses, no pool region");
        let before = counts();
        let _ = suite_times(&m, &cfg);
        assert_eq!(since(before), (0, 64, 0), "warm {id}: one lookup, no pool region");
    }

    // A row with a single miss estimates it on the calling thread.
    let sg = machine(MachineId::Sg2042);
    let cfg = RunConfig::sg2042_best(Precision::Fp64, 8);
    for &kernel in &KernelName::ALL[1..] {
        let _ = estimate_cached(&sg, kernel, &cfg);
    }
    let before = counts();
    let _ = suite_times(&sg, &cfg);
    assert_eq!(since(before), (0, 63, 1), "one miss, no pool region");

    // One paper batch pass, cold then warm: the per-pass counts the
    // benchmark's `perfmodel.cache.hit_rate` is read from.
    let pass = || {
        let before = counts();
        for e in &EXPERIMENTS {
            let _ = e.run();
        }
        since(before)
    };
    cache::clear();
    assert_eq!(pass(), (0, 716, 3096), "a cold pass's hits and misses dispatch nothing");
    assert_eq!(pass(), (0, 3812, 0), "a warm pass is all hits and dispatches nothing");
}
