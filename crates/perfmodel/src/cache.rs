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
//! `perfmodel.estimate_cache.{hit,miss,eviction}`, one per query or
//! entry, read back through [`stats`] (which the benchmark reads).
//!
//! The store is keyed by suite row, the way every artefact asks: a
//! `(machine, canonical RunConfig)` row key maps to the row's resident
//! estimates, found by a 64-bit kernel mask and kept at the rank of their
//! kernel's bit, so a sparsely filled row (the server's random keys) holds
//! only what it has. A FIFO queue of `(row, kernel)` entries drives
//! eviction entry by entry, exactly as a map of single entries would; a
//! row goes when its last entry does.
//!
//! Every query goes through [`estimate_batch`], which owns query identity:
//! it answers every hit of a batch (a suite row, or a server batch) under
//! one map lock, with one map probe per run of queries from the same row,
//! and hands only the misses on, each `(row key, kernel)` once: a repeat
//! of an earlier miss counts as a hit and is answered from it. The misses
//! are estimated on the calling thread, one after another: a miss costs
//! under a microsecond, and on a two-CPU host even a full cold suite row
//! of 64 ran faster that way than handed out over a thread pool. Their
//! answers land in the batch's answer vector and are inserted under one
//! more map lock, one map lookup per row, which also publishes the
//! eviction count and the `perfmodel.estimate_cache.entries` gauge once
//! per batch ([`clear`] zeroes the gauge).
//!
//! A cold suite row is the common miss, and the batch's first probe
//! already tells it apart: when that probe finds the row absent and the
//! batch is that one row with a kernel of its own in every query, every
//! query is a first miss. No query is then checked for a repeat, and the
//! row is inserted as one `Row` built at its final size, its FIFO
//! entries pushed in query order and the bound applied exactly as entry
//! by entry. Other batches (a repeated kernel, several rows, a row partly
//! resident: the server's batches) take the general path above. So a warm
//! row costs one lock and one probe, and a cold row two locks, one probe
//! and one row insert.
//!
//! A row key hashes as one packed `u64` of its fields through std's keyed
//! SipHash, which keeps the map collision-resistant against the network
//! keys the server feeds it; equality still compares the fields.
//!
//! Under the map sits the optional [`persist`] store, keyed by a salted
//! hash of the `Debug` text of the full descriptor, the kernel and the
//! canonical config. Hashing the descriptor's ~1 KB of text costs several
//! times the estimate, so a batch hashes it once per distinct descriptor
//! and each miss then hashes only its kernel label and config text (~125
//! bytes); with the store disabled no key is derived and nothing is
//! allocated for one. The store is reached once per batch: all of the
//! misses' keys are looked up under one store lock, what it holds is
//! answered before any estimate runs, and the estimates of the rest are
//! recorded under one more. A one-off query ([`estimate_cached`]) is a
//! batch of one and takes the same path.
//! An estimate resolves the thread placement only on the first miss of its
//! [`RowEnv`], so a batch's queries that share a row share its placement.
//!
//! **Contract:** the cache holds [`Model::paper`]'s estimates only, and
//! checks it: [`estimate_batch`] answers a row under any other model, told
//! apart by the model's address, with the row's own estimate, touching no
//! map, counter or store. Keys use [`MachineId`], not the descriptor
//! contents, so callers must pass catalog descriptors: borrow them from
//! `rvhpc_machines::catalog` (`rvhpc_machines::machine` clones an entry for
//! a caller that needs to own one). Code that perturbs a descriptor — the
//! metamorphic verify oracles, the server's submitted machines — must use
//! the uncached [`crate::estimate_averaged`] family instead.

use crate::calibration::Model;
use crate::config::{Precision, RunConfig, Toolchain};
use crate::estimate::TimeEstimate;
use crate::persist;
use crate::row::RowEnv;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{Machine, MachineId, PlacementPolicy};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::hash::{Hash, Hasher};
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
    locked().len
}

/// The canonical form of a [`RunConfig`]: two configs that provably produce
/// the same estimate share one canonical key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Where one suite row's estimates live: the machine and the canonical
/// configuration, everything of a cache key but the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowKey {
    machine: MachineId,
    cfg: CanonicalConfig,
}

/// Bit offsets of [`RowKey::packed`]'s fields, low to high. The thread
/// count takes the rest of the word.
const PRECISION_SHIFT: u32 = 4;
const VECTORIZE_SHIFT: u32 = PRECISION_SHIFT + 1;
const TOOLCHAIN_SHIFT: u32 = VECTORIZE_SHIFT + 1;
const MODE_SHIFT: u32 = TOOLCHAIN_SHIFT + 2;
const PLACEMENT_SHIFT: u32 = MODE_SHIFT + 1;
const THREADS_SHIFT: u32 = PLACEMENT_SHIFT + 2;

// Every enum field fits below the next field's offset (each assertion
// names the enum's last variant or counts its `ALL`), and a row's kernels
// fit one `u64` mask.
const _: () = {
    assert!((MachineId::Sg2042NextGen as u32) < 1 << PRECISION_SHIFT);
    assert!((Precision::Fp64 as u32) < 1 << (VECTORIZE_SHIFT - PRECISION_SHIFT));
    assert!((Toolchain::X86Gcc as u32) < 1 << (MODE_SHIFT - TOOLCHAIN_SHIFT));
    assert!((VectorMode::Vla as u32) < 1 << (PLACEMENT_SHIFT - MODE_SHIFT));
    assert!(PlacementPolicy::ALL.len() <= 1 << (THREADS_SHIFT - PLACEMENT_SHIFT));
    assert!(KernelName::ALL.len() <= 64);
};

impl RowKey {
    fn new(row: &RowEnv) -> Self {
        RowKey { machine: row.machine().id, cfg: CanonicalConfig::new(row) }
    }

    /// Every field in one word, so a lookup hashes one `u64` instead of
    /// six fields. Distinct catalog keys pack to distinct words (a test
    /// enumerates them); a thread count past 2^53 would share a word with
    /// a smaller one, which costs a hash collision, never a wrong hit,
    /// since equality still compares the fields.
    fn packed(&self) -> u64 {
        let c = &self.cfg;
        self.machine as u64
            | (c.precision as u64) << PRECISION_SHIFT
            | (c.vectorize as u64) << VECTORIZE_SHIFT
            | (c.toolchain as u64) << TOOLCHAIN_SHIFT
            | (c.mode as u64) << MODE_SHIFT
            | (c.placement as u64) << PLACEMENT_SHIFT
            | (c.threads as u64) << THREADS_SHIFT
    }
}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.packed());
    }
}

/// The resident estimates of one suite row: bit `k` of `filled` marks
/// kernel `k` resident, and its estimate sits at the rank of that bit, so
/// a sparsely filled row holds only what it has.
#[derive(Default)]
struct Row {
    filled: u64,
    est: Vec<TimeEstimate>,
}

impl Row {
    fn bit(kernel: KernelName) -> u64 {
        1 << kernel as u32
    }

    /// The slot of a kernel's bit: how many resident kernels sort below it.
    fn rank(&self, bit: u64) -> usize {
        (self.filled & (bit - 1)).count_ones() as usize
    }

    fn get(&self, kernel: KernelName) -> Option<TimeEstimate> {
        let bit = Row::bit(kernel);
        (self.filled & bit != 0).then(|| self.est[self.rank(bit)])
    }

    /// Store a kernel's estimate; `true` if the kernel was absent, and
    /// `false` if it was resident and its estimate is replaced.
    fn insert(&mut self, kernel: KernelName, est: TimeEstimate) -> bool {
        let bit = Row::bit(kernel);
        let slot = self.rank(bit);
        if self.filled & bit != 0 {
            self.est[slot] = est;
            return false;
        }
        self.est.insert(slot, est);
        self.filled |= bit;
        true
    }

    fn remove(&mut self, kernel: KernelName) {
        let bit = Row::bit(kernel);
        if self.filled & bit != 0 {
            self.est.remove(self.rank(bit));
            self.filled &= !bit;
        }
    }
}

/// FIFO-bounded store of rows. FIFO (not LRU) is deliberate: sweeps
/// re-touch whole generations of keys at once, so recency carries no
/// extra signal, and a FIFO queue needs no bookkeeping on the hit path.
/// The queue and the bound count entries, not rows; a row goes when its
/// last entry does.
#[derive(Default)]
struct Bounded {
    rows: HashMap<RowKey, Row>,
    order: VecDeque<(RowKey, KernelName)>,
    len: usize,
}

impl Bounded {
    /// Insert one row's entries under a capacity bound through one map
    /// lookup; returns how many entries were evicted. The result is that
    /// of inserting the entries one at a time, each followed by evicting
    /// the oldest entries down to the bound: an entry of this row evicted
    /// part-way is absent again for a later entry of the same kernel.
    fn insert_row(
        &mut self,
        capacity: usize,
        key: RowKey,
        entries: impl IntoIterator<Item = (KernelName, TimeEstimate)>,
    ) -> u64 {
        // The i-th eviction takes `order[i]`: this row's evicted entries
        // leave it at once, other rows' once the row borrow ends.
        let mut evicted = 0;
        let row = self.rows.entry(key).or_default();
        for (kernel, est) in entries {
            if !row.insert(kernel, est) {
                continue;
            }
            self.order.push_back((key, kernel));
            self.len += 1;
            while self.len > capacity {
                let (oldest, k) = self.order[evicted];
                if oldest == key {
                    row.remove(k);
                }
                evicted += 1;
                self.len -= 1;
            }
        }
        if row.filled == 0 {
            self.rows.remove(&key);
        }
        for (oldest, kernel) in self.order.drain(..evicted) {
            if oldest == key {
                continue;
            }
            if let Some(row) = self.rows.get_mut(&oldest) {
                row.remove(kernel);
                if row.filled == 0 {
                    self.rows.remove(&oldest);
                }
            }
        }
        evicted as u64
    }

    /// Insert a row that is not resident, each kernel at most once, as
    /// one [`Row`] built at its final size; returns how many entries were
    /// evicted. The result is that of [`Bounded::insert_row`]: the entries
    /// join the FIFO queue in the order given, and when the row straddles
    /// the bound its first entries are the ones it evicts. A row that
    /// another batch made resident since the caller's probe takes
    /// [`Bounded::insert_row`].
    fn insert_absent_row<I>(&mut self, capacity: usize, key: RowKey, entries: I) -> u64
    where
        I: ExactSizeIterator<Item = (KernelName, TimeEstimate)> + Clone,
    {
        let slot = match self.rows.entry(key) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(_) => return self.insert_row(capacity, key, entries),
        };
        // Every entry is new, so entry by entry each one grows the store
        // by one and the i-th eviction takes the i-th entry of the queue
        // with this row appended: the older rows' entries first, then
        // this row's own, of which at least the last one stays.
        let (older, added) = (self.len, entries.len());
        let evicted = (older + added).saturating_sub(capacity);
        let kept = entries.skip(evicted.saturating_sub(older));
        let filled = kept.clone().fold(0, |filled, (kernel, _)| filled | Row::bit(kernel));
        debug_assert_eq!(filled.count_ones() as usize, kept.len(), "a kernel twice");
        let mut row = Row { filled, est: vec![UNANSWERED; filled.count_ones() as usize] };
        for (kernel, est) in kept.clone() {
            let rank = row.rank(Row::bit(kernel));
            row.est[rank] = est;
        }
        slot.insert(row);
        self.order.extend(kept.map(|(kernel, _)| (key, kernel)));
        for (oldest, kernel) in self.order.drain(..evicted.min(older)) {
            if let Some(row) = self.rows.get_mut(&oldest) {
                row.remove(kernel);
                if row.filled == 0 {
                    self.rows.remove(&oldest);
                }
            }
        }
        self.len = older + added - evicted;
        evicted as u64
    }
}

/// Run `insert` on the store under one map lock with the capacity bound,
/// then publish the evictions it reports and the
/// `perfmodel.estimate_cache.entries` gauge once.
fn insert_with(insert: impl FnOnce(&mut Bounded, usize) -> u64) {
    let capacity = captured_capacity();
    let (evicted, resident) = {
        let mut c = locked();
        let evicted = insert(&mut c, capacity);
        (evicted, c.len)
    };
    if evicted > 0 {
        rvhpc_obs::counter!("perfmodel.estimate_cache.eviction", evicted);
    }
    rvhpc_obs::gauge!("perfmodel.estimate_cache.entries", resident as i64);
}

/// Insert a batch of fresh estimates under one map lock, one map lookup
/// per run of entries from the same row ([`insert_with`]).
fn insert_all(entries: impl IntoIterator<Item = (RowKey, KernelName, TimeEstimate)>) {
    insert_with(|c, capacity| {
        let mut evicted = 0;
        let mut entries = entries.into_iter().peekable();
        while let Some(&(key, _, _)) = entries.peek() {
            let run = std::iter::from_fn(|| entries.next_if(|e| e.0 == key));
            evicted += c.insert_row(capacity, key, run.map(|(_, kernel, est)| (kernel, est)));
        }
        evicted
    });
}

fn cache() -> &'static Mutex<Bounded> {
    static CACHE: OnceLock<Mutex<Bounded>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Bounded::default()))
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
        entries: locked().len,
        capacity: capacity(),
    }
}

/// Drop every resident entry (the counters stay monotonic). Used by cold
/// benchmark phases and determinism tests.
pub fn clear() {
    let mut c = locked();
    c.rows.clear();
    c.order.clear();
    c.len = 0;
    rvhpc_obs::gauge!("perfmodel.estimate_cache.entries", 0);
}

/// [`crate::estimate_averaged`] through the process-wide cross-sweep cache,
/// as a batch of one query ([`estimate_batch`]); bit-identical to the
/// uncached call. See the module docs for the catalog-descriptor contract.
/// Many kernels under one configuration go as one batch over one
/// [`RowEnv`], which resolves the placement once per row.
pub fn estimate_cached(machine: &Machine, kernel: KernelName, cfg: &RunConfig) -> TimeEstimate {
    estimate_batch(&[(&RowEnv::new(Model::paper(), machine, cfg), kernel)])[0]
}

/// Every query of a batch, in query order; bit-identical to estimating
/// each query on its own. A query under any model but [`Model::paper`] is
/// answered by its own row and touches no map, counter or store. The rest
/// go through the cache: the hits are answered under one map lock, one map
/// probe per run of consecutive queries from the same row, and count on
/// `perfmodel.estimate_cache.hit`, as does a repeat of an earlier miss's
/// row key and kernel. Only the first misses go on, to the persistent store
/// when it is on (one store lock for the batch) and then to the estimate,
/// through the row's lazy placement, on the calling thread, and are
/// inserted under one more map lock. A batch that is one absent row, a
/// kernel of its own in each query (a cold suite row), is told apart by
/// its first probe: all of it misses, and the row is inserted whole. A
/// batch without misses touches neither the store nor any row's placement.
pub fn estimate_batch(queries: &[(&RowEnv, KernelName)]) -> Vec<TimeEstimate> {
    let paper = Model::paper();
    let cached = |&(row, _): &(&RowEnv, KernelName)| std::ptr::eq(row.model(), paper);
    if queries.iter().all(cached) {
        return paper_batch(queries);
    }
    let paper_queries: Vec<_> = queries.iter().copied().filter(cached).collect();
    let mut answers = paper_batch(&paper_queries).into_iter().peekable();
    // A paper query takes the next cached answer; any other is estimated.
    let answer = |q| answers.next_if(|_| cached(q)).unwrap_or_else(|| q.0.estimate_averaged(q.1));
    queries.iter().map(answer).collect()
}

/// The paper model's queries of an [`estimate_batch`].
fn paper_batch(queries: &[(&RowEnv, KernelName)]) -> Vec<TimeEstimate> {
    let Some(&(first_row, _)) = queries.first() else {
        return Vec::new();
    };
    let mut misses = Misses::default();
    let mut answers: Vec<TimeEstimate> = {
        let c = locked();
        // One map probe per run of queries from the same row, the first
        // of which also tells whether the batch is a whole absent row.
        let first = RowKey::new(first_row);
        let mut current = (first, c.rows.get(&first));
        if current.1.is_none() && one_row_of_distinct_kernels(queries, first) {
            drop(c);
            return absent_row(queries, first);
        }
        queries
            .iter()
            .enumerate()
            .map(|(i, &(row, kernel))| {
                let key = RowKey::new(row);
                if key != current.0 {
                    current = (key, c.rows.get(&key));
                }
                current.1.and_then(|r| r.get(kernel)).unwrap_or_else(|| {
                    misses.add(key, kernel, i);
                    UNANSWERED
                })
            })
            .collect()
    };
    let hits = (queries.len() - misses.first.len()) as u64;
    if hits > 0 {
        rvhpc_obs::counter!("perfmodel.estimate_cache.hit", hits);
    }
    if !misses.first.is_empty() {
        answer_misses(queries, &misses.first, &mut answers);
        insert_all(
            misses.first.iter().map(|&i| (RowKey::new(queries[i].0), queries[i].1, answers[i])),
        );
        if !misses.repeats.is_empty() {
            misses.answer_repeats(queries, &mut answers);
        }
    }
    answers
}

/// Whether every query of a batch is on the row `key`, each with a
/// kernel of its own. Suite rows share one [`RowEnv`], so the row test is
/// a pointer comparison.
fn one_row_of_distinct_kernels(queries: &[(&RowEnv, KernelName)], key: RowKey) -> bool {
    let first = queries[0].0;
    let mut kernels = 0;
    queries.iter().all(|&(row, kernel)| {
        let bit = Row::bit(kernel);
        let fresh = kernels & bit == 0;
        kernels |= bit;
        fresh && (std::ptr::eq(row, first) || RowKey::new(row) == key)
    })
}

/// A batch that is one absent row, each kernel once: every query is a
/// first miss, so no query is told from a repeat, and the row is inserted
/// whole ([`Bounded::insert_absent_row`]).
fn absent_row(queries: &[(&RowEnv, KernelName)], key: RowKey) -> Vec<TimeEstimate> {
    let mut answers = vec![UNANSWERED; queries.len()];
    answer_misses(queries, &(0..queries.len()).collect::<Vec<_>>(), &mut answers);
    let entries = queries.iter().zip(&answers).map(|(&(_, kernel), &est)| (kernel, est));
    insert_with(|c, capacity| c.insert_absent_row(capacity, key, entries));
    answers
}

/// The misses of a batch, each `(row key, kernel)` once: `first` holds the
/// query that first missed each pair, in query order, and `repeats` every
/// later query of a pair. Telling the two apart is a bit test in the mask
/// of the last miss's row; a miss from another row parks that mask and
/// takes up its own, so a batch whose misses share one row hashes nothing.
#[derive(Default)]
struct Misses {
    first: Vec<usize>,
    repeats: Vec<usize>,
    /// The row key of the last miss, and the kernels it has missed.
    row: Option<(RowKey, u64)>,
    /// The same for every other row key with a miss.
    parked: HashMap<RowKey, u64>,
}

impl Misses {
    fn add(&mut self, key: RowKey, kernel: KernelName, query: usize) {
        let mut missed = match self.row {
            Some((last, missed)) if last == key => missed,
            last => {
                if let Some((last, missed)) = last {
                    self.parked.insert(last, missed);
                }
                self.parked.remove(&key).unwrap_or(0)
            }
        };
        let bit = Row::bit(kernel);
        if missed & bit != 0 {
            self.repeats.push(query);
        } else {
            missed |= bit;
            self.first.push(query);
        }
        self.row = Some((key, missed));
    }

    /// Copy each repeat's answer from the first miss of its pair, once
    /// `answers` holds the first misses' answers.
    fn answer_repeats(&self, queries: &[(&RowEnv, KernelName)], answers: &mut [TimeEstimate]) {
        let pair = |i: usize| (RowKey::new(queries[i].0), queries[i].1);
        let first: HashMap<_, _> = self.first.iter().map(|&i| (pair(i), i)).collect();
        for &i in &self.repeats {
            if let Some(&j) = first.get(&pair(i)) {
                answers[i] = answers[j];
            }
        }
    }
}

/// Fill the answer slots of a batch's misses (indices into `queries`);
/// the caller inserts them under one map lock. With the store on, the misses'
/// store keys are derived and every key is looked up under one store lock;
/// what the store holds is answered at once and counts as a hit and a disk
/// hit. The rest count as misses, are estimated one after another outside
/// every lock and, with the store on, recorded under one more store lock,
/// which is also where the store's auto-flush writes the file. All of it
/// runs on the calling thread.
fn answer_misses(
    queries: &[(&RowEnv, KernelName)],
    misses: &[usize],
    answers: &mut [TimeEstimate],
) {
    let stored = persist::enabled().then(|| from_store(queries, misses, answers));
    let fresh = stored.as_ref().map_or(misses, |(fresh, _)| fresh);
    if !fresh.is_empty() {
        rvhpc_obs::counter!("perfmodel.estimate_cache.miss", fresh.len() as u64);
        // Outside every lock: estimation is pure, so two batches racing on
        // one miss waste work at worst, never answer wrongly.
        for &i in fresh {
            let (row, kernel) = queries[i];
            answers[i] = row.estimate_averaged(kernel);
        }
        if let Some((fresh, keys)) = &stored {
            persist::record_all(keys.iter().zip(fresh).map(|(&key, &i)| (key, answers[i])));
        }
    }
}

/// Answer the misses the persistent store holds, under one store lock;
/// returns the others with their store keys.
fn from_store(
    queries: &[(&RowEnv, KernelName)],
    misses: &[usize],
    answers: &mut [TimeEstimate],
) -> (Vec<usize>, Vec<u64>) {
    let keys = disk_keys(queries, misses);
    let (mut fresh, mut fresh_keys) = (Vec::new(), Vec::new());
    persist::lookup_all(&keys, |j, found| match found {
        Some(est) => answers[misses[j]] = est,
        None => {
            fresh.push(misses[j]);
            fresh_keys.push(keys[j]);
        }
    });
    let served = (misses.len() - fresh.len()) as u64;
    if served > 0 {
        // A disk warm-start is a hit: it serves the exact bits a miss
        // would recompute.
        rvhpc_obs::counter!("perfmodel.estimate_cache.hit", served);
        rvhpc_obs::counter!("perfmodel.estimate_cache.disk_hit", served);
    }
    (fresh, fresh_keys)
}

/// The persistent store's key of each miss of a batch, in `misses` order.
/// The descriptor part of a key is derived once per distinct descriptor
/// the batch borrows (rows sharing a `&Machine` share it). Misses come in
/// runs from one row, and a run formats its configuration text once,
/// hashes each kernel label on its own and then feeds the text to all of
/// the run's keys together ([`persist::finish_keys`]).
fn disk_keys(queries: &[(&RowEnv, KernelName)], misses: &[usize]) -> Vec<u64> {
    let mut prefixes: Vec<(&Machine, persist::KeyPrefix)> = Vec::new();
    let mut cfg_text = String::new();
    let mut keys = Vec::with_capacity(misses.len());
    let same_row = |&a: &usize, &b: &usize| {
        let (a, b) = (queries[a].0, queries[b].0);
        std::ptr::eq(a, b)
            || (std::ptr::eq(a.machine(), b.machine()) && RowKey::new(a) == RowKey::new(b))
    };
    for run in misses.chunk_by(same_row) {
        let row = queries[run[0]].0;
        let machine = row.machine();
        let prefix = match prefixes.iter().find(|(m, _)| std::ptr::eq(*m, machine)) {
            Some(&(_, prefix)) => prefix,
            None => {
                let prefix = persist::KeyPrefix::new(machine);
                prefixes.push((machine, prefix));
                prefix
            }
        };
        cfg_text.clear();
        // Writing to a `String` cannot fail.
        let _ = write!(cfg_text, "{:?}", RowKey::new(row).cfg);
        let start = keys.len();
        keys.extend(run.iter().map(|&i| prefix.with_kernel(queries[i].1.label())));
        persist::finish_keys(&mut keys[start..], &cfg_text);
    }
    keys
}

/// What a miss's answer slot holds until [`paper_batch`] fills it: every
/// slot is filled before the batch returns, and NaN could never pass for
/// an estimate if one were not.
const UNANSWERED: TimeEstimate = TimeEstimate {
    seconds: f64::NAN,
    compute_seconds: f64::NAN,
    memory_seconds: f64::NAN,
    overhead_seconds: f64::NAN,
    vector_path: false,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_averaged;
    use rvhpc_machines::machine;
    use std::cell::Cell;

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
        let cold = RowEnv::new(Model::paper(), &m, &cfg);
        let miss = estimate_batch(&[(&cold, KernelName::DAXPY)])[0];
        assert!(cold.resolved(), "a miss estimates through the row");
        let warm = RowEnv::new(Model::paper(), &m, &cfg);
        let hit = estimate_batch(&[(&warm, KernelName::DAXPY)])[0];
        assert!(!warm.resolved(), "a hit must not resolve the placement");
        assert_eq!(miss.seconds.to_bits(), hit.seconds.to_bits());
    }

    #[test]
    fn a_batch_estimates_only_its_misses_and_counts_each_query_once() {
        let _l = isolated();
        let (m, v2) = (sg(), machine(MachineId::VisionFiveV2));
        let a = RowEnv::new(Model::paper(), &m, &RunConfig::sg2042_best(Precision::Fp32, 32));
        let b = RowEnv::new(Model::paper(), &v2, &RunConfig::sg2042_best(Precision::Fp64, 64));
        let _ = estimate_batch(&[(&a, KernelName::DAXPY)]);
        let queries = [
            (&a, KernelName::DAXPY),
            (&a, KernelName::EOS),
            (&b, KernelName::DAXPY),
            (&b, KernelName::STREAM_ADD),
        ];
        let direct: Vec<TimeEstimate> = queries
            .iter()
            .map(|&(row, kernel)| estimate_averaged(row.machine(), kernel, row.config()))
            .collect();
        let regions = || rvhpc_obs::counter("threads.regions").load(Ordering::Relaxed);
        for (expected_hits, expected_misses) in [(1, 3), (4, 0)] {
            let before = (stats(), regions());
            let got = estimate_batch(&queries);
            let delta = stats().since(&before.0);
            assert_eq!((delta.hits, delta.misses), (expected_hits, expected_misses), "{delta:?}");
            assert_eq!(regions() - before.1, 0, "no pool region");
            for (d, g) in direct.iter().zip(&got) {
                assert_eq!(
                    (d.seconds.to_bits(), d.vector_path),
                    (g.seconds.to_bits(), g.vector_path)
                );
                assert_eq!(d.memory_seconds.to_bits(), g.memory_seconds.to_bits());
            }
        }
        let warm = RowEnv::new(Model::paper(), &m, &RunConfig::sg2042_best(Precision::Fp32, 32));
        let _ = estimate_batch(&[(&warm, KernelName::DAXPY), (&warm, KernelName::EOS)]);
        assert!(!warm.resolved(), "an all-hit batch must not resolve a placement");

        // A full cold suite row, the largest batch a caller builds, runs on
        // the calling thread too, on any host. So does an absent row of a
        // few kernels out of `KernelName::ALL` order, as Figure 3 asks;
        // either goes into the cache whole, and is then all hits.
        let scattered = [KernelName::GEMM, KernelName::DAXPY, KernelName::EOS, KernelName::MEMSET];
        for (threads, kernels) in [(9, &KernelName::ALL[..]), (10, &scattered[..])] {
            let cfg = RunConfig::sg2042_best(Precision::Fp64, threads);
            let row = RowEnv::new(Model::paper(), &m, &cfg);
            let queries: Vec<_> = kernels.iter().map(|&k| (&row, k)).collect();
            let (before, entries) = ((stats(), regions()), len());
            let got = estimate_batch(&queries);
            assert_eq!(stats().since(&before.0).misses, kernels.len() as u64);
            assert_eq!(regions() - before.1, 0, "{} misses: no pool region", kernels.len());
            assert_eq!(len(), entries + kernels.len(), "one entry per kernel");
            assert_uncached_bits(&queries, &got);
            let before = stats();
            let again = estimate_batch(&queries);
            assert_eq!(stats().since(&before).hits, kernels.len() as u64);
            assert_uncached_bits(&queries, &again);
        }
    }

    /// Every answer of a batch, bit for bit, against the uncached model.
    fn assert_uncached_bits(queries: &[(&RowEnv, KernelName)], got: &[TimeEstimate]) {
        for (&(row, kernel), g) in queries.iter().zip(got) {
            let d = estimate_averaged(row.machine(), kernel, row.config());
            assert_eq!(
                [d.seconds, d.compute_seconds, d.memory_seconds, d.overhead_seconds]
                    .map(f64::to_bits),
                [g.seconds, g.compute_seconds, g.memory_seconds, g.overhead_seconds]
                    .map(f64::to_bits),
                "{kernel}"
            );
            assert_eq!(d.vector_path, g.vector_path, "{kernel}");
        }
    }

    #[test]
    fn a_batch_estimates_each_canonical_query_once() {
        // The same query twice, and two rows of their own whose threads
        // (64 and 128 on the 64-core SG2042) clamp to one canonical key:
        // one estimate, one store record and one entry for all four.
        let _l = isolated();
        let dir = store_dir("dedup");
        persist::set_cache_dir(Some(dir.clone()));
        let m = sg();
        let cfg = |threads| RunConfig::sg2042_best(Precision::Fp64, threads);
        let (at64, again64, at128) = (
            RowEnv::new(Model::paper(), &m, &cfg(64)),
            RowEnv::new(Model::paper(), &m, &cfg(64)),
            RowEnv::new(Model::paper(), &m, &cfg(128)),
        );
        let k = KernelName::STREAM_TRIAD;
        let queries = [(&at64, k), (&at64, k), (&again64, k), (&at128, k)];
        let (before, entries) = (stats(), len());
        let got = estimate_batch(&queries);
        let delta = stats().since(&before);
        assert_eq!((delta.misses, delta.hits), (1, 3), "{delta:?}");
        assert_eq!(len(), entries + 1, "one entry per distinct canonical query");
        assert!(!again64.resolved() && !at128.resolved(), "a repeat estimates nothing");
        assert_uncached_bits(&queries, &got);
        persist::flush();
        assert_eq!(stored_keys(&dir).len(), 1, "a repeat records nothing");
        persist::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);

        // Repeats that come back after another row's misses: a scalar
        // config in either vector mode is one key, and so is a
        // VisionFive V2 row at 4 or 64 threads.
        let v2 = machine(MachineId::VisionFiveV2);
        let mut vls = RunConfig::scalar_single(Precision::Fp32);
        vls.mode = VectorMode::Vls;
        let vla = RunConfig { mode: VectorMode::Vla, ..vls };
        let rows = [
            RowEnv::new(Model::paper(), &m, &vls),
            RowEnv::new(Model::paper(), &v2, &cfg(4)),
            RowEnv::new(Model::paper(), &m, &vla),
            RowEnv::new(Model::paper(), &v2, &cfg(64)),
        ];
        let queries = [
            (&rows[0], KernelName::EOS),
            (&rows[1], KernelName::DAXPY),
            (&rows[2], KernelName::EOS),
            (&rows[3], KernelName::DAXPY),
            (&rows[0], KernelName::MEMSET),
            (&rows[2], KernelName::MEMSET),
        ];
        let (before, entries) = (stats(), len());
        let got = estimate_batch(&queries);
        let delta = stats().since(&before);
        assert_eq!((delta.misses, delta.hits), (3, 3), "{delta:?}");
        assert_eq!(len(), entries + 3, "one entry per distinct canonical query");
        assert_uncached_bits(&queries, &got);
    }

    #[test]
    fn rows_under_another_model_bypass_the_cache() {
        // A batch mixing the paper model's rows with an edited model's:
        // the paper queries count and are stored as always, and the others
        // are answered with their own model's bits and leave no trace.
        let _l = isolated();
        let dir = store_dir("other-model");
        persist::set_cache_dir(Some(dir.clone()));
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 64);
        let mut edited = Model::paper().clone();
        edited.calibration_mut(MachineId::Sg2042).queue_sensitivity = 0.0;
        let (paper, other) =
            (RowEnv::new(Model::paper(), &m, &cfg), RowEnv::new(&edited, &m, &cfg));
        let k = KernelName::STREAM_TRIAD;
        let (before, entries) = (stats(), len());
        let got = estimate_batch(&[(&other, k), (&paper, k), (&other, KernelName::DAXPY)]);
        let delta = stats().since(&before);
        assert_eq!((delta.misses, delta.hits, len()), (1, 0, entries + 1), "{delta:?}");
        assert_uncached_bits(&[(&paper, k)], &got[1..2]);
        let fresh = [other.estimate_averaged(k), other.estimate_averaged(KernelName::DAXPY)];
        for (a, b) in [(got[0], fresh[0]), (got[2], fresh[1])] {
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        }
        assert_ne!(got[0].seconds.to_bits(), got[1].seconds.to_bits(), "the edit moves the bits");

        let before = stats();
        let again = estimate_batch(&[(&other, k), (&other, k)]);
        assert_eq!(stats().since(&before), CacheStats { hits: 0, misses: 0, ..stats() });
        assert_eq!(again[0].seconds.to_bits(), fresh[0].seconds.to_bits());
        persist::flush();
        assert_eq!(stored_keys(&dir).len(), 1, "only the paper query is recorded");
        persist::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The store before rows: one map entry and one queue slot per key,
    /// each insert evicting the oldest entries down to the bound. The row
    /// store must behave exactly like it.
    #[derive(Default)]
    struct Reference {
        map: HashMap<(RowKey, KernelName), TimeEstimate>,
        order: VecDeque<(RowKey, KernelName)>,
    }

    impl Reference {
        fn insert(&mut self, capacity: usize, key: (RowKey, KernelName), est: TimeEstimate) -> u64 {
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

    fn row_key(precision: Precision, mode: VectorMode, threads: usize) -> RowKey {
        RowKey {
            machine: MachineId::Sg2042,
            cfg: CanonicalConfig {
                precision,
                vectorize: true,
                toolchain: Toolchain::XuanTieGcc,
                mode,
                placement: PlacementPolicy::Block,
                threads,
            },
        }
    }

    fn est(seconds: f64) -> TimeEstimate {
        TimeEstimate {
            seconds,
            compute_seconds: seconds / 2.0,
            memory_seconds: seconds / 2.0,
            overhead_seconds: 0.0,
            vector_path: false,
        }
    }

    impl Bounded {
        fn get(&self, key: &RowKey, kernel: KernelName) -> Option<TimeEstimate> {
            self.rows.get(key)?.get(kernel)
        }
    }

    /// Resident entries counted from the rows themselves; no row is empty.
    fn entries_in_rows(b: &Bounded) -> usize {
        assert!(b.rows.values().all(|r| r.filled != 0), "an empty row stays resident");
        assert!(b.rows.values().all(|r| r.est.len() == r.filled.count_ones() as usize));
        b.rows.values().map(|r| r.est.len()).sum()
    }

    #[test]
    fn fifo_eviction_respects_the_bound() {
        // Exercised on a local instance so the test does not need to fill
        // the real 32k-entry cache. One entry in each of five rows.
        let key = |threads| row_key(Precision::Fp32, VectorMode::Vls, threads);
        let mut b = Bounded::default();
        let mut evicted = 0;
        for t in 1..=5 {
            evicted += b.insert_row(3, key(t), [(KernelName::DAXPY, est(1.0))]);
        }
        assert_eq!(evicted, 2);
        assert_eq!((b.len, b.order.len(), entries_in_rows(&b)), (3, 3, 3));
        // Oldest keys (threads 1 and 2) were displaced with their rows,
        // newest retained.
        assert!(!b.rows.contains_key(&key(1)) && !b.rows.contains_key(&key(2)));
        assert!(b.get(&key(5), KernelName::DAXPY).is_some());
        // Re-inserting an existing key neither grows nor evicts.
        assert_eq!(b.insert_row(3, key(5), [(KernelName::DAXPY, est(1.0))]), 0);
        assert_eq!(b.len, 3);
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
        // and a repeat lookup of the survivor still hits. The kernels
        // share a row, inserted one at a time or as one group.
        let key = row_key(Precision::Fp64, VectorMode::Vla, 8);
        let kernels = [KernelName::DAXPY, KernelName::EOS, KernelName::MEMSET];
        let one_at_a_time = || {
            let mut b = Bounded::default();
            let evicted: u64 = kernels.map(|k| b.insert_row(1, key, [(k, est(2.0))])).iter().sum();
            (b, evicted)
        };
        let grouped = || {
            let mut b = Bounded::default();
            let evicted = b.insert_row(1, key, kernels.map(|k| (k, est(2.0))));
            (b, evicted)
        };
        for (mut b, evicted) in [one_at_a_time(), grouped()] {
            assert_eq!(evicted, 2, "each insert after the first displaces one entry");
            assert_eq!((b.len, b.order.len(), entries_in_rows(&b)), (1, 1, 1));
            assert!(b.get(&key, KernelName::MEMSET).is_some(), "newest entry survives");
            assert!(b.get(&key, KernelName::DAXPY).is_none());
            // A re-insert of the survivor is a no-op, not an eviction.
            assert_eq!(b.insert_row(1, key, [(KernelName::MEMSET, est(2.0))]), 0);
            assert_eq!(b.len, 1);
        }
    }

    #[test]
    fn the_row_store_evicts_exactly_like_the_per_entry_reference() {
        // Seeded sequences of grouped inserts (with re-inserts and repeats
        // inside a group), whole rows of distinct kernels and lookups over
        // 3–4 rows of all 64 kernels, at capacities from one entry to two
        // rows' worth, so evictions fall inside a row and across rows. A
        // whole row goes to an absent row when one is left, its kernels
        // in `KernelName::ALL` order or shuffled, all 64 or the first few,
        // so the bound can cut it part-way; into a resident row it must
        // take the per-entry path.
        let (whole_rows, cut_rows) = (Cell::new(0), Cell::new(0));
        rvhpc_quickprop::run_cases(48, |g| {
            let capacity = g.usize_in(1..=130);
            let rows: Vec<RowKey> = (1..=g.usize_in(3..=4))
                .map(|t| row_key(Precision::Fp32, VectorMode::Vls, t))
                .collect();
            let (mut store, mut reference) = (Bounded::default(), Reference::default());
            for step in 0..60 {
                let absent: Vec<RowKey> =
                    rows.iter().copied().filter(|k| !store.rows.contains_key(k)).collect();
                if g.bool_with(0.3) {
                    let key = *g.choose(if absent.is_empty() { &rows } else { &absent });
                    let mut kernels = KernelName::ALL.to_vec();
                    if g.bool_with(0.5) {
                        for i in (1..kernels.len()).rev() {
                            kernels.swap(i, g.usize_in(0..=i));
                        }
                    }
                    kernels.truncate(if g.bool_with(0.5) { 64 } else { g.usize_in(1..=64) });
                    let group: Vec<(KernelName, TimeEstimate)> = kernels
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| (k, est((step * 100 + i) as f64)))
                        .collect();
                    let expected: u64 =
                        group.iter().map(|&(k, e)| reference.insert(capacity, (key, k), e)).sum();
                    if !store.rows.contains_key(&key) {
                        whole_rows.set(whole_rows.get() + 1);
                        if group.len() > capacity {
                            cut_rows.set(cut_rows.get() + 1);
                        }
                    }
                    let evicted = store.insert_absent_row(capacity, key, group.iter().copied());
                    assert_eq!(evicted, expected, "step {step}: whole-row evictions");
                } else if g.bool_with(0.65) {
                    let key = *g.choose(&rows);
                    let n = g.usize_in(1..=80);
                    let group: Vec<(KernelName, TimeEstimate)> = (0..n)
                        .map(|i| (*g.choose(&KernelName::ALL), est((step * 100 + i) as f64)))
                        .collect();
                    let expected: u64 =
                        group.iter().map(|&(k, e)| reference.insert(capacity, (key, k), e)).sum();
                    let evicted = store.insert_row(capacity, key, group);
                    assert_eq!(evicted, expected, "step {step}: evictions");
                } else {
                    let key = *g.choose(&rows);
                    let k = *g.choose(&KernelName::ALL);
                    let got = store.get(&key, k).map(|e| e.seconds.to_bits());
                    let want = reference.map.get(&(key, k)).map(|e| e.seconds.to_bits());
                    assert_eq!(got, want, "step {step}: lookup");
                }
                assert_eq!(store.len, reference.map.len(), "step {step}: len");
                assert_eq!(store.order, reference.order, "step {step}: FIFO order");
                assert_eq!(entries_in_rows(&store), store.len, "step {step}: rows");
                for &key in &rows {
                    for k in KernelName::ALL {
                        let got = store.get(&key, k).map(|e| e.seconds.to_bits());
                        let want = reference.map.get(&(key, k)).map(|e| e.seconds.to_bits());
                        assert_eq!(got, want, "step {step}: {k} after the step");
                    }
                }
            }
        });
        assert!(whole_rows.get() > 100, "{} whole rows into an absent row", whole_rows.get());
        assert!(cut_rows.get() > 10, "{} whole rows cut by the bound", cut_rows.get());
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
            &format!("{:?}", CanonicalConfig::new(&RowEnv::new(Model::paper(), &m, &cfg))),
        );
        assert_eq!(stored_keys(&dir), vec![format!("{expected:016x}")]);
        persist::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_keys_equal_the_whole_text_hash_bit_for_bit() {
        // Every descriptor, every kernel and every canonical precision ×
        // vectorize/mode × toolchain × placement at threads {1, 4, 64},
        // as one batch of misses: each key built from a per-descriptor
        // prefix must equal the hash of the whole key text, and the batch
        // derives one prefix per descriptor.
        let _l = isolated();
        let machines: Vec<Machine> =
            MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]).map(machine).collect();
        let toolchains = [Toolchain::XuanTieGcc, Toolchain::ClangRvv, Toolchain::X86Gcc];
        let mut rows = Vec::new();
        for m in &machines {
            for precision in [Precision::Fp32, Precision::Fp64] {
                for (vectorize, mode) in
                    [(false, VectorMode::Vls), (true, VectorMode::Vls), (true, VectorMode::Vla)]
                {
                    for toolchain in toolchains {
                        for placement in PlacementPolicy::ALL {
                            for threads in [1, 4, 64] {
                                let cfg = RunConfig {
                                    precision,
                                    vectorize,
                                    toolchain,
                                    mode,
                                    placement,
                                    threads,
                                };
                                rows.push(RowEnv::new(Model::paper(), m, &cfg));
                            }
                        }
                    }
                }
            }
        }
        let queries: Vec<(&RowEnv, KernelName)> =
            rows.iter().flat_map(|row| KernelName::ALL.map(|k| (row, k))).collect();
        let misses: Vec<usize> = (0..queries.len()).collect();
        let derivations =
            || rvhpc_obs::counter("perfmodel.persist.descriptor_hash").load(Ordering::Relaxed);
        let before = derivations();
        let keys = disk_keys(&queries, &misses);
        assert_eq!(derivations() - before, machines.len() as u64, "one prefix per descriptor");
        let descriptors: Vec<String> = machines.iter().map(|m| format!("{m:?}")).collect();
        for (&(row, kernel), key) in queries.iter().zip(keys) {
            let d = machines.iter().position(|m| std::ptr::eq(m, row.machine())).unwrap();
            let cfg = format!("{:?}", CanonicalConfig::new(row));
            let expected = persist::key_hash(&descriptors[d], kernel.label(), &cfg);
            assert_eq!(key, expected, "{} {kernel} {cfg}", machines[d].id);
        }
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
    fn packed_keys_are_distinct_over_the_catalog_domain() {
        // Every canonical row key a catalog descriptor can produce: scalar
        // configs carry the VLS mode, threads run 1..=cores.
        let machines = MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]);
        let toolchains = [Toolchain::XuanTieGcc, Toolchain::ClangRvv, Toolchain::X86Gcc];
        let mut keys = 0usize;
        let mut words = Vec::new();
        for id in machines {
            for precision in [Precision::Fp32, Precision::Fp64] {
                for (vectorize, mode) in
                    [(false, VectorMode::Vls), (true, VectorMode::Vls), (true, VectorMode::Vla)]
                {
                    for toolchain in toolchains {
                        for placement in PlacementPolicy::ALL {
                            for threads in 1..=machine(id).n_cores() {
                                let cfg = CanonicalConfig {
                                    precision,
                                    vectorize,
                                    toolchain,
                                    mode,
                                    placement,
                                    threads,
                                };
                                // The loops yield each distinct key once.
                                keys += 1;
                                words.push(RowKey { machine: id, cfg }.packed());
                            }
                        }
                    }
                }
            }
        }
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), keys, "two catalog row keys share a packed word");
    }

    #[test]
    fn entries_gauge_tracks_every_insert_and_clear() {
        let _l = isolated();
        if !rvhpc_obs::enabled() {
            return; // RVHPC_OBS=off leaves gauges at zero by design
        }
        let gauge = || rvhpc_obs::gauge("perfmodel.estimate_cache.entries").load(Ordering::Relaxed);
        let m = sg();
        let cfg = |threads| RunConfig::sg2042_best(Precision::Fp32, threads);
        let _ = estimate_cached(&m, KernelName::DAXPY, &cfg(2));
        assert_eq!(gauge(), 1, "a true miss");
        let row = RowEnv::new(Model::paper(), &m, &cfg(4));
        let _ = estimate_batch(&[(&row, KernelName::DAXPY), (&row, KernelName::EOS)]);
        assert_eq!(gauge(), 3, "one batch insert");

        let dir = store_dir("gauge");
        persist::set_cache_dir(Some(dir.clone()));
        let _ = estimate_cached(&m, KernelName::MEMSET, &cfg(8));
        persist::flush();
        clear();
        assert_eq!(gauge(), 0, "clear");
        persist::set_cache_dir(Some(dir.clone()));
        let before = stats();
        let _ = estimate_cached(&m, KernelName::MEMSET, &cfg(8));
        assert_eq!(stats().since(&before).misses, 0, "served from the store");
        assert_eq!(gauge(), 1, "a disk hit");
        assert_eq!(gauge(), len() as i64);

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
