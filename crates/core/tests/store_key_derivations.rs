//! How often the persistent store hashes a machine descriptor for its
//! content keys: once per batch with a miss while the store is on, never
//! while it is off. A test binary of its own, because the registry
//! counters, the estimate cache and the store are process-wide.

use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};
use rvhpc::perfmodel::{cache, persist};
use std::sync::atomic::Ordering;

fn derivations() -> u64 {
    rvhpc_obs::counter("perfmodel.persist.descriptor_hash").load(Ordering::Relaxed)
}

fn disk_hits() -> u64 {
    rvhpc_obs::counter("perfmodel.estimate_cache.disk_hit").load(Ordering::Relaxed)
}

/// One pass of the paper batch: its descriptor derivations, its cache
/// misses and every artefact's JSON.
fn pass() -> (u64, u64, Vec<String>) {
    let (before, misses) = (derivations(), cache::stats().misses);
    let artefacts = EXPERIMENTS
        .iter()
        .map(|e| match e.run() {
            Artefact::Figure(f) => f.to_json(),
            Artefact::Table(t) => t.to_json(),
        })
        .collect();
    (derivations() - before, cache::stats().misses - misses, artefacts)
}

#[test]
fn a_pass_hashes_each_batch_descriptor_once() {
    let dir = std::env::temp_dir().join(format!("rvhpc-key-derivations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold into the store: every batch with a miss is one suite row of
    // one descriptor — 48 suite rows and Figure 3's two Clang rows, the
    // rows that resolve a placement in `row_placement_resolves`.
    persist::set_cache_dir(Some(dir.clone()));
    cache::clear();
    let (cold, cold_misses, reference) = pass();
    assert_eq!(cold_misses, 48 * 64 + 2 * 12);
    assert_eq!(cold, 48 + 2, "one descriptor hash per batch with a miss");

    // Served from disk into an empty cache: the same batches miss in
    // memory, so the same derivations, and nothing is estimated.
    persist::flush();
    cache::clear();
    persist::set_cache_dir(Some(dir.clone()));
    let hits_before = disk_hits();
    let (served, served_misses, from_disk) = pass();
    assert_eq!(served_misses, 0, "every miss in memory is a disk hit");
    assert_eq!(disk_hits() - hits_before, 48 * 64 + 2 * 12);
    assert_eq!(served, 48 + 2, "one descriptor hash per batch with a disk hit");
    assert!(from_disk == reference, "the pass served from disk changed an artefact");

    // Store off: a cold pass derives no key at all.
    persist::set_cache_dir(None);
    cache::clear();
    let (off, off_misses, recomputed) = pass();
    eprintln!("descriptor hashes: cold {cold}, from disk {served}, store off {off}");
    assert_eq!(off_misses, 48 * 64 + 2 * 12);
    assert_eq!(off, 0, "a store-off miss never hashes the descriptor");
    assert!(recomputed == reference, "the store-off pass changed an artefact");

    let _ = std::fs::remove_dir_all(&dir);
}
