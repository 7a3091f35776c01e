//! Bounded cross-sweep memoisation of averaged estimates.
//!
//! The paper's artefacts are ~30 full-suite sweeps, and the sweeps overlap
//! heavily: Figure 2's vector-on series is Figure 1's SG2042 series, the
//! x86 figures re-derive the same SG2042 baselines, and the what-if
//! experiment reuses the 32/64-thread bests of Figures 6–7. This module
//! memoises [`crate::estimate_averaged`] process-wide so `repro all` makes
//! exactly one pass over each unique `(machine, kernel, canonical
//! RunConfig)` triple, however many experiments ask for it.
//!
//! The cache is bounded (FIFO eviction at [`CACHE_CAPACITY`] entries) and
//! fully deterministic: a hit returns the exact `TimeEstimate` a miss would
//! recompute, so cached and uncached sweeps are bit-identical. Hit, miss
//! and eviction counts are the always-on `rvhpc-obs` registry counters
//! `perfmodel.estimate_cache.{hit,miss,eviction}`, read back through
//! [`stats`] (which the benchmark reads).
//!
//! Under the map sits the optional [`persist`] store. Its content-hash key
//! (the `Debug` text of the full descriptor and canonical config, salted
//! and hashed) costs several times the estimate, so a miss derives it only
//! when the store is enabled. With the store off a miss costs two map
//! locks (the lookup and the insert) around the estimate, and the estimate
//! resolves the thread placement only on the first miss of its [`RowEnv`]:
//! [`estimate_cached`] builds a one-off row per call, while
//! [`estimate_cached_in`] shares one row across a sweep's kernels.
//!
//! **Contract:** keys use [`MachineId`], not the descriptor contents, so
//! callers must pass catalog descriptors (`rvhpc_machines::machine`). Code
//! that perturbs a descriptor in place — the metamorphic verify oracles —
//! must use the uncached [`crate::estimate`] family instead.

use crate::config::{Precision, RunConfig, Toolchain};
use crate::estimate::TimeEstimate;
use crate::persist;
use crate::row::RowEnv;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{Machine, MachineId, PlacementPolicy};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};

/// Default maximum number of resident estimates. `repro all` touches ~15k
/// unique triples (8 machines × 64 kernels × ~30 configurations), so the
/// default keeps a full reproduction resident with headroom while bounding
/// worst-case memory to a few MiB. Override with the `RVHPC_CACHE_CAP`
/// environment variable (read once at first use; see [`capacity`]).
pub const CACHE_CAPACITY: usize = 32_768;

/// Parse an `RVHPC_CACHE_CAP` value; `None` (unset, empty, unparseable, or
/// zero) falls back to [`CACHE_CAPACITY`]. Zero is rejected rather than
/// honoured because a capacity-0 cache would still pay the insert/evict
/// bookkeeping on every miss while never producing a hit.
fn configured_capacity(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n >= 1).unwrap_or(CACHE_CAPACITY)
}

/// If the environment now disagrees with the capacity captured at first
/// use, produce the one-time warning text; `None` once warned or while the
/// env still agrees. Split out from [`capacity`] so the warning path has a
/// direct unit test without racing on process-global environment state.
fn capacity_drift_warning(
    captured: usize,
    raw_now: Option<&str>,
    warned: &std::sync::atomic::AtomicBool,
) -> Option<String> {
    if configured_capacity(raw_now) == captured {
        return None;
    }
    if warned.swap(true, Ordering::Relaxed) {
        return None;
    }
    Some(format!(
        "rvhpc-perfmodel: RVHPC_CACHE_CAP={} is being ignored: the estimate-cache \
         capacity was captured as {captured} at first use and is fixed for the \
         process lifetime; set the variable before the first estimate (or restart)",
        raw_now.unwrap_or("<unset>"),
    ))
}

/// The effective capacity bound: [`CACHE_CAPACITY`] unless the
/// `RVHPC_CACHE_CAP` environment variable overrides it. Read once, at the
/// first cache use, so the bound is stable for the process lifetime; if a
/// later read observes the environment variable disagreeing with the
/// captured value, a warning is printed to stderr (once) instead of the
/// change being silently ignored.
pub fn capacity() -> usize {
    static WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let raw = std::env::var("RVHPC_CACHE_CAP").ok();
    let cap = captured_capacity();
    if let Some(warning) = capacity_drift_warning(cap, raw.as_deref(), &WARNED) {
        eprintln!("{warning}");
    }
    cap
}

/// The capacity captured at first use, without re-reading the environment:
/// the insert paths run on every miss and need only the fixed bound (the
/// drift check lives in [`capacity`], which [`stats`] calls).
fn captured_capacity() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY.get_or_init(|| configured_capacity(std::env::var("RVHPC_CACHE_CAP").ok().as_deref()))
}

/// Number of currently resident entries (same as [`stats`]`().entries`).
pub fn len() -> usize {
    locked().map.len()
}

/// The canonical form of a [`RunConfig`]: two configs that provably produce
/// the same estimate share one canonical key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CanonicalConfig {
    precision: Precision,
    vectorize: bool,
    toolchain: Toolchain,
    mode: VectorMode,
    placement: PlacementPolicy,
    threads: usize,
}

impl CanonicalConfig {
    fn new(row: &RowEnv) -> Self {
        let cfg = row.config();
        CanonicalConfig {
            precision: cfg.precision,
            vectorize: cfg.vectorize,
            toolchain: cfg.toolchain,
            // The vector mode is only consulted after the vectorise gate, so
            // scalar configs collapse onto one key.
            mode: if cfg.vectorize { cfg.mode } else { VectorMode::Vls },
            placement: cfg.placement,
            // The model clamps to the core count before anything else, so a
            // 64-thread request on a 4-core part is the 4-thread estimate.
            threads: row.threads(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    machine: MachineId,
    kernel: KernelName,
    cfg: CanonicalConfig,
}

/// FIFO-bounded map. FIFO (not LRU) is deliberate: sweeps re-touch whole
/// generations of keys at once, so recency carries no extra signal, and a
/// FIFO queue needs no bookkeeping on the hit path.
struct Bounded {
    map: HashMap<Key, TimeEstimate>,
    order: VecDeque<Key>,
}

impl Bounded {
    /// Insert under a capacity bound; returns how many entries were evicted.
    fn insert(&mut self, capacity: usize, key: Key, est: TimeEstimate) -> u64 {
        let mut evicted = 0;
        if self.map.insert(key, est).is_none() {
            self.order.push_back(key);
            while self.map.len() > capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

fn cache() -> &'static Mutex<Bounded> {
    static CACHE: OnceLock<Mutex<Bounded>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Bounded { map: HashMap::new(), order: VecDeque::new() }))
}

fn locked() -> std::sync::MutexGuard<'static, Bounded> {
    // Estimation never panics while holding the lock (the compute happens
    // outside it), but stay robust to poisoning anyway.
    match cache().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Cache statistics since process start (monotonic; subtract two snapshots
/// with [`CacheStats::since`] to attribute hits to one phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then inserted).
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The effective capacity bound ([`capacity`]).
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over lookups, `0.0` when nothing was looked up (never NaN).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// The per-field difference of two snapshots (`self` taken after
    /// `earlier`); entry/capacity fields report the later snapshot's view.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
            capacity: self.capacity,
        }
    }
}

/// Current statistics snapshot.
pub fn stats() -> CacheStats {
    let count = |name| rvhpc_obs::counter(name).load(Ordering::Relaxed);
    CacheStats {
        hits: count("perfmodel.estimate_cache.hit"),
        misses: count("perfmodel.estimate_cache.miss"),
        evictions: count("perfmodel.estimate_cache.eviction"),
        entries: locked().map.len(),
        capacity: capacity(),
    }
}

/// Drop every resident entry (the counters stay monotonic). Used by cold
/// benchmark phases and determinism tests.
pub fn clear() {
    let mut c = locked();
    c.map.clear();
    c.order.clear();
}

/// [`crate::estimate_averaged`] through the process-wide cross-sweep cache.
///
/// Deterministic and bit-identical to the uncached call; see the module
/// docs for the catalog-descriptor contract. Callers estimating many
/// kernels under one configuration should build one [`RowEnv`] and use
/// [`estimate_cached_in`], which resolves the placement once per row.
pub fn estimate_cached(machine: &Machine, kernel: KernelName, cfg: &RunConfig) -> TimeEstimate {
    estimate_cached_in(&RowEnv::new(machine, cfg), kernel)
}

/// [`estimate_cached`] for one kernel of a row: a miss estimates through
/// the row's shared environment, and a hit touches nothing in it, so a row
/// served entirely from the cache never resolves its placement.
pub fn estimate_cached_in(row: &RowEnv, kernel: KernelName) -> TimeEstimate {
    let machine = row.machine();
    let key = Key { machine: machine.id, kernel, cfg: CanonicalConfig::new(row) };
    if let Some(found) = locked().map.get(&key) {
        rvhpc_obs::counter!("perfmodel.estimate_cache.hit", 1);
        return *found;
    }
    // Persistent layer: a disk warm-start is a hit (it serves the exact
    // bits a miss would recompute) and also populates the in-memory map so
    // later lookups never touch the store lock twice. The content-hash key
    // costs several times the estimate itself, so it is derived only when
    // the store is on; when it is off a miss is just the estimate.
    let disk_key = persist::enabled().then(|| {
        persist::key_hash(&format!("{machine:?}"), kernel.label(), &format!("{:?}", key.cfg))
    });
    if let Some(est) = disk_key.and_then(persist::lookup) {
        rvhpc_obs::counter!("perfmodel.estimate_cache.hit", 1);
        rvhpc_obs::counter!("perfmodel.estimate_cache.disk_hit", 1);
        let evicted = locked().insert(captured_capacity(), key, est);
        if evicted > 0 {
            rvhpc_obs::counter!("perfmodel.estimate_cache.eviction", evicted);
        }
        return est;
    }
    rvhpc_obs::counter!("perfmodel.estimate_cache.miss", 1);
    // Compute outside the lock: estimation is pure, so a racing duplicate
    // computation is wasted work at worst, never a wrong answer.
    let est = row.estimate_averaged(kernel);
    if let Some(disk_key) = disk_key {
        persist::record(disk_key, est);
    }
    let (evicted, resident) = {
        let mut c = locked();
        let evicted = c.insert(captured_capacity(), key, est);
        (evicted, c.map.len())
    };
    if evicted > 0 {
        rvhpc_obs::counter!("perfmodel.estimate_cache.eviction", evicted);
    }
    rvhpc_obs::gauge!("perfmodel.estimate_cache.entries", resident as i64);
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_averaged;
    use rvhpc_machines::machine;

    /// The cache and its counters are process-global; tests that assert
    /// exact deltas serialise on this lock to avoid cross-talk.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        persist::set_cache_dir(None); // keep the disk layer out of unrelated tests
        guard
    }

    fn sg() -> Machine {
        machine(MachineId::Sg2042)
    }

    #[test]
    fn hit_returns_the_bit_identical_estimate() {
        let _l = isolated();
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 8);
        let direct = estimate_averaged(&m, KernelName::STREAM_TRIAD, &cfg);
        let miss = estimate_cached(&m, KernelName::STREAM_TRIAD, &cfg);
        let hit = estimate_cached(&m, KernelName::STREAM_TRIAD, &cfg);
        for (a, b) in [(direct, miss), (miss, hit)] {
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(a.compute_seconds.to_bits(), b.compute_seconds.to_bits());
            assert_eq!(a.memory_seconds.to_bits(), b.memory_seconds.to_bits());
            assert_eq!(a.overhead_seconds.to_bits(), b.overhead_seconds.to_bits());
            assert_eq!(a.vector_path, b.vector_path);
        }
    }

    #[test]
    fn an_all_hit_row_never_resolves_its_placement() {
        let _l = isolated();
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 32);
        let cold = RowEnv::new(&m, &cfg);
        let miss = estimate_cached_in(&cold, KernelName::DAXPY);
        assert!(cold.resolved(), "a miss estimates through the row");
        let warm = RowEnv::new(&m, &cfg);
        let hit = estimate_cached_in(&warm, KernelName::DAXPY);
        assert!(!warm.resolved(), "a hit must not resolve the placement");
        assert_eq!(miss.seconds.to_bits(), hit.seconds.to_bits());
    }

    #[test]
    fn second_lookup_hits() {
        let _l = isolated();
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp64, 4);
        let before = stats();
        let _ = estimate_cached(&m, KernelName::DAXPY, &cfg);
        let _ = estimate_cached(&m, KernelName::DAXPY, &cfg);
        let delta = stats().since(&before);
        assert!(delta.hits >= 1, "{delta:?}");
        assert!(delta.hit_rate() > 0.0);
    }

    #[test]
    fn scalar_configs_share_a_key_across_modes() {
        // vectorize=false never reads the mode, so VLA-scalar and
        // VLS-scalar are one canonical entry.
        let _l = isolated();
        let m = sg();
        let mut vls = RunConfig::scalar_single(Precision::Fp32);
        vls.mode = VectorMode::Vls;
        let mut vla = vls;
        vla.mode = VectorMode::Vla;
        let before = stats();
        let a = estimate_cached(&m, KernelName::EOS, &vls);
        let b = estimate_cached(&m, KernelName::EOS, &vla);
        let delta = stats().since(&before);
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(delta.misses, 1, "{delta:?}");
        assert_eq!(delta.hits, 1, "{delta:?}");
    }

    #[test]
    fn oversubscribed_threads_share_the_clamped_key() {
        // A 4-core VisionFive V2 clamps any threads >= 4 to 4.
        let _l = isolated();
        let v2 = machine(MachineId::VisionFiveV2);
        let at4 = RunConfig::sg2042_best(Precision::Fp32, 4);
        let at64 = RunConfig::sg2042_best(Precision::Fp32, 64);
        let before = stats();
        let a = estimate_cached(&v2, KernelName::STREAM_ADD, &at4);
        let b = estimate_cached(&v2, KernelName::STREAM_ADD, &at64);
        let delta = stats().since(&before);
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!((delta.misses, delta.hits), (1, 1), "{delta:?}");
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let _l = isolated();
        let m = sg();
        let fp32 =
            estimate_cached(&m, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp32, 1));
        let fp64 =
            estimate_cached(&m, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp64, 1));
        assert_ne!(fp32.seconds.to_bits(), fp64.seconds.to_bits());
    }

    #[test]
    fn fifo_eviction_respects_the_bound() {
        // Exercised on a local instance so the test does not need to fill
        // the real 32k-entry cache.
        let mk_key = |threads| Key {
            machine: MachineId::Sg2042,
            kernel: KernelName::DAXPY,
            cfg: CanonicalConfig {
                precision: Precision::Fp32,
                vectorize: true,
                toolchain: Toolchain::XuanTieGcc,
                mode: VectorMode::Vls,
                placement: PlacementPolicy::Block,
                threads,
            },
        };
        let est = TimeEstimate {
            seconds: 1.0,
            compute_seconds: 0.5,
            memory_seconds: 0.5,
            overhead_seconds: 0.0,
            vector_path: false,
        };
        let mut b = Bounded { map: HashMap::new(), order: VecDeque::new() };
        let mut evicted = 0;
        for t in 1..=5 {
            evicted += b.insert(3, mk_key(t), est);
        }
        assert_eq!(evicted, 2);
        assert_eq!(b.map.len(), 3);
        assert_eq!(b.order.len(), 3);
        // Oldest keys (threads 1 and 2) were displaced, newest retained.
        assert!(!b.map.contains_key(&mk_key(1)) && !b.map.contains_key(&mk_key(2)));
        assert!(b.map.contains_key(&mk_key(5)));
        // Re-inserting an existing key neither grows nor evicts.
        assert_eq!(b.insert(3, mk_key(5), est), 0);
        assert_eq!(b.map.len(), 3);
    }

    #[test]
    fn capacity_env_parsing_falls_back_on_nonsense() {
        assert_eq!(configured_capacity(None), CACHE_CAPACITY);
        assert_eq!(configured_capacity(Some("")), CACHE_CAPACITY);
        assert_eq!(configured_capacity(Some("not a number")), CACHE_CAPACITY);
        assert_eq!(configured_capacity(Some("-5")), CACHE_CAPACITY);
        assert_eq!(configured_capacity(Some("0")), CACHE_CAPACITY);
        assert_eq!(configured_capacity(Some("1")), 1);
        assert_eq!(configured_capacity(Some(" 4096 ")), 4096);
        assert_eq!(configured_capacity(Some("131072")), 131_072);
    }

    #[test]
    fn tiny_capacity_evicts_every_prior_entry() {
        // Capacity 1: each distinct insert displaces the previous entry,
        // and a repeat lookup of the survivor still hits.
        let mk_key = |kernel| Key {
            machine: MachineId::Sg2042,
            kernel,
            cfg: CanonicalConfig {
                precision: Precision::Fp64,
                vectorize: true,
                toolchain: Toolchain::XuanTieGcc,
                mode: VectorMode::Vla,
                placement: PlacementPolicy::Block,
                threads: 8,
            },
        };
        let est = TimeEstimate {
            seconds: 2.0,
            compute_seconds: 1.0,
            memory_seconds: 1.0,
            overhead_seconds: 0.0,
            vector_path: true,
        };
        let mut b = Bounded { map: HashMap::new(), order: VecDeque::new() };
        let kernels = [KernelName::DAXPY, KernelName::EOS, KernelName::MEMSET];
        let mut evicted = 0;
        for k in kernels {
            evicted += b.insert(1, mk_key(k), est);
        }
        assert_eq!(evicted, 2, "each insert after the first displaces one entry");
        assert_eq!((b.map.len(), b.order.len()), (1, 1));
        assert!(b.map.contains_key(&mk_key(KernelName::MEMSET)), "newest entry survives");
        // A re-insert of the survivor is a no-op, not an eviction.
        assert_eq!(b.insert(1, mk_key(KernelName::MEMSET), est), 0);
        assert_eq!(b.map.len(), 1);
    }

    #[test]
    fn len_tracks_resident_entries() {
        let _l = isolated();
        assert_eq!(len(), 0);
        let m = sg();
        let _ = estimate_cached(&m, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp32, 1));
        assert_eq!(len(), 1);
        assert_eq!(stats().entries, 1);
        clear();
        assert_eq!(len(), 0);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_with_no_lookups() {
        let empty =
            CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0, capacity: CACHE_CAPACITY };
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn capacity_drift_warns_once_and_only_on_disagreement() {
        use std::sync::atomic::AtomicBool;
        let warned = AtomicBool::new(false);
        // Environment agrees with the captured value: no warning, flag untouched.
        assert_eq!(capacity_drift_warning(CACHE_CAPACITY, None, &warned), None);
        assert_eq!(capacity_drift_warning(4096, Some("4096"), &warned), None);
        assert!(!warned.load(Ordering::Relaxed));
        // A later read observes a different value: warn exactly once.
        let msg = capacity_drift_warning(CACHE_CAPACITY, Some("7"), &warned)
            .expect("disagreement must warn");
        assert!(msg.contains("RVHPC_CACHE_CAP=7"), "{msg}");
        assert!(msg.contains(&CACHE_CAPACITY.to_string()), "{msg}");
        assert!(msg.contains("ignored"), "{msg}");
        assert_eq!(capacity_drift_warning(CACHE_CAPACITY, Some("7"), &warned), None, "once only");
        // Unset-after-capture also counts as drift (capacity was custom).
        let warned2 = AtomicBool::new(false);
        let msg2 = capacity_drift_warning(4096, None, &warned2).expect("unset is drift");
        assert!(msg2.contains("<unset>"), "{msg2}");
    }

    #[test]
    fn persistent_store_warm_starts_across_clears() {
        let _l = isolated();
        let dir = std::env::temp_dir().join(format!("rvhpc-estcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        persist::set_cache_dir(Some(dir.clone()));

        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 16);
        let cold = estimate_cached(&m, KernelName::STREAM_TRIAD, &cfg);
        persist::flush();

        // Simulate a new process: drop the in-memory map and reload the
        // store from disk. The lookup must be a hit, not a recompute.
        clear();
        persist::set_cache_dir(Some(dir.clone()));
        assert_eq!(persist::loaded_entries(), 1, "flush persisted the entry");
        let before = stats();
        let warm = estimate_cached(&m, KernelName::STREAM_TRIAD, &cfg);
        let delta = stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 0), "{delta:?}");
        assert_eq!(cold.seconds.to_bits(), warm.seconds.to_bits());
        assert_eq!(cold.compute_seconds.to_bits(), warm.compute_seconds.to_bits());
        assert_eq!(cold.memory_seconds.to_bits(), warm.memory_seconds.to_bits());
        assert_eq!(cold.overhead_seconds.to_bits(), warm.overhead_seconds.to_bits());
        assert_eq!(cold.vector_path, warm.vector_path);

        // A corrupted file cold-starts instead of serving garbage.
        std::fs::write(dir.join(persist::FILE_NAME), "rvhpc-estcache-v1\ngarbage\n").unwrap();
        clear();
        persist::set_cache_dir(Some(dir.clone()));
        assert_eq!(persist::loaded_entries(), 0, "corrupt file = cold start");
        let before = stats();
        let _ = estimate_cached(&m, KernelName::STREAM_TRIAD, &cfg);
        assert_eq!(stats().since(&before).misses, 1);

        persist::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh, empty store directory unique to this process and test.
    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rvhpc-estcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The key column of every record in a flushed store file.
    fn stored_keys(dir: &std::path::Path) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join(persist::FILE_NAME)).expect("store file");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(persist::SCHEMA));
        lines.map(|l| l.split_whitespace().next().expect("key column").to_string()).collect()
    }

    #[test]
    fn store_on_miss_records_the_content_hash_key() {
        // Pins the on-disk key: deriving it only when the store is on must
        // not change what it is derived from.
        let _l = isolated();
        let dir = store_dir("keypin");
        persist::set_cache_dir(Some(dir.clone()));
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp64, 32);
        let kernel = KernelName::STREAM_COPY;
        let before = stats();
        let _ = estimate_cached(&m, kernel, &cfg);
        assert_eq!(stats().since(&before).misses, 1);
        persist::flush();
        let expected = persist::key_hash(
            &format!("{m:?}"),
            kernel.label(),
            &format!("{:?}", CanonicalConfig::new(&RowEnv::new(&m, &cfg))),
        );
        assert_eq!(stored_keys(&dir), vec![format!("{expected:016x}")]);
        persist::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_store_on_misses_are_recorded() {
        let _l = isolated();
        let m = sg();
        let cfg = |threads| RunConfig::sg2042_best(Precision::Fp32, threads);
        let off = [1, 2, 4];
        let on = [8, 16];
        for t in off {
            let _ = estimate_cached(&m, KernelName::DAXPY, &cfg(t));
        }
        let dir = store_dir("toggle");
        persist::set_cache_dir(Some(dir.clone()));
        let before = stats();
        for t in on {
            let _ = estimate_cached(&m, KernelName::DAXPY, &cfg(t));
        }
        assert_eq!(stats().since(&before).misses, on.len() as u64);
        persist::flush();
        assert_eq!(stored_keys(&dir).len(), on.len(), "store-off misses were not recorded");

        // A new process: empty memory, store reloaded from disk.
        clear();
        persist::set_cache_dir(Some(dir.clone()));
        assert_eq!(persist::loaded_entries(), on.len());
        let before = stats();
        for t in on {
            let _ = estimate_cached(&m, KernelName::DAXPY, &cfg(t));
        }
        let delta = stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (on.len() as u64, 0), "{delta:?}");
        let before = stats();
        for t in off {
            let _ = estimate_cached(&m, KernelName::DAXPY, &cfg(t));
        }
        let delta = stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (0, off.len() as u64), "{delta:?}");

        persist::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_forces_recomputation() {
        let _l = isolated();
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 2);
        let _ = estimate_cached(&m, KernelName::MEMSET, &cfg);
        clear();
        let before = stats();
        assert_eq!(before.entries, 0);
        let _ = estimate_cached(&m, KernelName::MEMSET, &cfg);
        let delta = stats().since(&before);
        assert_eq!(delta.misses, 1, "{delta:?}");
    }
}
