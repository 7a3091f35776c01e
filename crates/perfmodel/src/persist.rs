//! Persistent disk-backed layer under [`crate::cache::estimate_cached`].
//!
//! Disabled by default; enabled by pointing `RVHPC_CACHE_DIR` at a
//! directory (library callers and tests can use [`set_cache_dir`]).
//! Once enabled, every estimate computed by a miss is recorded and every
//! later process warm-starts from the file, so cross-process hit rates for
//! repeated sweeps (`repro` reruns, serve restarts, CI) approach 100%.
//!
//! Whether the store is enabled is mirrored into an atomic that
//! [`set_cache_dir`] and the lazy environment resolution keep in sync, so
//! the cache asks it without taking the store lock. The content-hash key
//! below is derived only when the store is enabled: a store-off miss never
//! formats the descriptor or touches this module's lock.
//!
//! Keys are built through one [`KeyPrefix`]: the hash state after the salt
//! and the descriptor, derived once per distinct descriptor in a batch
//! (each derivation counts as the `perfmodel.persist.descriptor_hash`
//! registry counter), from which each miss hashes only its kernel label
//! and canonical configuration text. FNV-1a is a streaming hash, so the
//! hashed bytes, and the key, are exactly those of hashing the whole key
//! text at once.
//!
//! # File format (`rvhpc-estcache-v1`)
//!
//! A plain text file, `estimates.v1`, one record per line:
//!
//! ```text
//! rvhpc-estcache-v1
//! <key-hash> <seconds> <compute> <memory> <overhead> <vector_path>
//! ...
//! ```
//!
//! * `key-hash` — 16 hex digits: an FNV-1a 64-bit hash over the **content**
//!   of the lookup key: a model-version salt, the full machine descriptor
//!   (not just its id — editing the catalog invalidates stale entries), the
//!   kernel name, and the canonical run configuration, hashed as the text
//!   `"{MODEL_SALT}|{machine:?}|{kernel}|{cfg:?}"`. Bumping
//!   [`MODEL_SALT`] when estimator behaviour changes invalidates every
//!   prior entry at once.
//! * the four time components — 16 hex digits each, the raw IEEE-754 bit
//!   patterns of the `f64`s, so a round trip through disk is bit-exact.
//! * `vector_path` — `0` or `1`.
//!
//! # Invalidation and corruption rules
//!
//! * An unknown first line (version bump) or any malformed record makes
//!   the whole file invalid: the store **cold-starts** (treats the file as
//!   absent) and the next flush overwrites it. No partial trust.
//! * Writes go to a process-unique temporary file in the same directory
//!   followed by an atomic rename, so readers never observe a torn file.
//! * Entries never expire by age; the key hash covering descriptor content
//!   and the model salt is the invalidation mechanism.

use crate::estimate::TimeEstimate;
use rvhpc_machines::Machine;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// First line of a valid store file.
pub const SCHEMA: &str = "rvhpc-estcache-v1";

/// File name inside the cache directory.
pub const FILE_NAME: &str = "estimates.v1";

/// Salt folded into every key hash; bump when estimator behaviour changes
/// so stale entries from older binaries can never be served.
const MODEL_SALT: &str = "rvhpc-perfmodel-2026-08";

/// Auto-flush after this many unflushed inserts (bounds loss on crash;
/// callers should still [`flush`] at natural boundaries).
const FLUSH_EVERY: u64 = 1024;

/// A running FNV-1a 64-bit hash. Text formatted into it (it is a
/// [`fmt::Write`]) hashes exactly as the formatted string would.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn bytes(self, bytes: &[u8]) -> Fnv {
        Fnv(bytes
            .iter()
            .fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)))
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        *self = self.bytes(s.as_bytes());
        Ok(())
    }
}

/// The content hash's row-independent part: the hash state after
/// `"{MODEL_SALT}|{machine:?}|"`. Formatting the descriptor is most of a
/// key's cost, so a batch derives one prefix per distinct descriptor and
/// every miss of that descriptor extends it. It lives no longer than the
/// batch: a prefix kept across batches by machine id would key a
/// perturbed descriptor's estimate under the catalog descriptor's key.
#[derive(Clone, Copy)]
pub(crate) struct KeyPrefix(Fnv);

impl KeyPrefix {
    /// Hash the salt and the full descriptor, streamed through the hash
    /// without building the text.
    pub(crate) fn new(machine: &Machine) -> KeyPrefix {
        rvhpc_obs::counter!("perfmodel.persist.descriptor_hash", 1);
        let mut h = Fnv::OFFSET;
        // Writing into the hash cannot fail.
        let _ = write!(h, "{MODEL_SALT}|{machine:?}|");
        KeyPrefix(h)
    }

    /// The content hash of one lookup key: this prefix extended by the
    /// kernel label and the canonical configuration's `Debug` text.
    pub(crate) fn key(self, kernel: &str, cfg_text: &str) -> u64 {
        self.0.bytes(kernel.as_bytes()).bytes(b"|").bytes(cfg_text.as_bytes()).0
    }
}

/// The content hash of one lookup key over the whole key text at once:
/// the reference [`KeyPrefix`] must reproduce bit for bit.
#[cfg(test)]
pub(crate) fn key_hash(machine_debug: &str, kernel: &str, canonical_cfg_debug: &str) -> u64 {
    let text = format!("{MODEL_SALT}|{machine_debug}|{kernel}|{canonical_cfg_debug}");
    Fnv::OFFSET.bytes(text.as_bytes()).0
}

#[derive(Default)]
struct Store {
    /// Explicit directory (CLI) takes precedence; `None` + `env_checked`
    /// false means the environment has not been consulted yet.
    dir: Option<PathBuf>,
    env_checked: bool,
    map: HashMap<u64, TimeEstimate>,
    dirty: u64,
    /// Entries loaded from disk at the last (re)load — warm-start telemetry.
    loaded: usize,
}

/// [`ENABLED`] states. `UNRESOLVED` until the first [`ensure_ready`] or
/// [`set_cache_dir`]; after that it mirrors `Store::dir.is_some()`.
const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Lock-free copy of "is the store enabled", kept in sync under the store
/// lock, so the cache's miss path can skip key derivation without taking it.
static ENABLED: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn locked() -> std::sync::MutexGuard<'static, Store> {
    match store().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Resolve the directory lazily from `RVHPC_CACHE_DIR` unless one was set
/// explicitly, loading the file on the transition to enabled.
fn ensure_ready(s: &mut Store) {
    if s.dir.is_none() && !s.env_checked {
        s.env_checked = true;
        if let Some(dir) = std::env::var_os("RVHPC_CACHE_DIR") {
            if !dir.is_empty() {
                s.dir = Some(PathBuf::from(dir));
                reload(s);
            }
        }
        publish_enabled(s);
    }
}

/// Mirror the resolved directory into [`ENABLED`]; call under the lock
/// after every change to `Store::dir`.
fn publish_enabled(s: &Store) {
    ENABLED.store(if s.dir.is_some() { ON } else { OFF }, Ordering::Release);
}

/// Whether the store is enabled: one atomic load once resolved. The first
/// call resolves `RVHPC_CACHE_DIR` (and loads the file) through
/// [`ensure_ready`].
pub(crate) fn enabled() -> bool {
    match ENABLED.load(Ordering::Acquire) {
        UNRESOLVED => cache_dir().is_some(),
        state => state == ON,
    }
}

fn reload(s: &mut Store) {
    s.map.clear();
    s.dirty = 0;
    s.loaded = 0;
    let Some(dir) = &s.dir else { return };
    let Ok(text) = std::fs::read_to_string(dir.join(FILE_NAME)) else { return };
    // Corrupt or version-mismatched file parses to `None`: cold start,
    // overwrite at the next flush.
    if let Some(map) = parse_file(&text) {
        s.loaded = map.len();
        s.map = map;
    }
}

/// Parse a store file; `None` on any deviation from the format.
fn parse_file(text: &str) -> Option<HashMap<u64, TimeEstimate>> {
    let mut lines = text.lines();
    if lines.next()? != SCHEMA {
        return None;
    }
    let mut map = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut f = line.split_ascii_whitespace();
        let key = u64::from_str_radix(f.next()?, 16).ok()?;
        let mut bits = || u64::from_str_radix(f.next().unwrap_or("x"), 16).ok();
        let est = TimeEstimate {
            seconds: f64::from_bits(bits()?),
            compute_seconds: f64::from_bits(bits()?),
            memory_seconds: f64::from_bits(bits()?),
            overhead_seconds: f64::from_bits(bits()?),
            vector_path: match f.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        };
        if f.next().is_some() {
            return None; // trailing junk
        }
        map.insert(key, est);
    }
    Some(map)
}

fn render_file(map: &HashMap<u64, TimeEstimate>) -> String {
    // Sorted for deterministic bytes (useful for diffing two runs).
    let mut keys: Vec<&u64> = map.keys().collect();
    keys.sort_unstable();
    let mut out = String::with_capacity(32 + map.len() * 90);
    out.push_str(SCHEMA);
    out.push('\n');
    for k in keys {
        let e = &map[k];
        // Each record goes straight into the buffer; writing to a
        // `String` cannot fail.
        let _ = writeln!(
            out,
            "{:016x} {:016x} {:016x} {:016x} {:016x} {}",
            k,
            e.seconds.to_bits(),
            e.compute_seconds.to_bits(),
            e.memory_seconds.to_bits(),
            e.overhead_seconds.to_bits(),
            u8::from(e.vector_path),
        );
    }
    out
}

/// Atomic write: temp file in the target directory, then rename.
fn write_atomic(dir: &Path, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{}.tmp-{}", FILE_NAME, std::process::id()));
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, dir.join(FILE_NAME))
}

/// Enable (or disable with `None`) the persistent store at an explicit
/// directory. Overrides `RVHPC_CACHE_DIR` and reloads from the new
/// location immediately.
pub fn set_cache_dir(dir: Option<PathBuf>) {
    let mut s = locked();
    s.env_checked = true; // explicit choice wins; never consult the env again
    s.dir = dir;
    reload(&mut s);
    publish_enabled(&s);
}

/// The directory currently backing the store, if enabled.
pub fn cache_dir() -> Option<PathBuf> {
    let mut s = locked();
    ensure_ready(&mut s);
    s.dir.clone()
}

/// Entries warm-loaded from disk at the last (re)load.
pub fn loaded_entries() -> usize {
    let mut s = locked();
    ensure_ready(&mut s);
    s.loaded
}

/// Look up a previously persisted estimate. `None` when the store is
/// disabled or the key is absent.
pub(crate) fn lookup(key: u64) -> Option<TimeEstimate> {
    let mut s = locked();
    ensure_ready(&mut s);
    s.dir.as_ref()?;
    s.map.get(&key).copied()
}

/// Record a freshly computed estimate; flushed in batches and on [`flush`].
pub(crate) fn record(key: u64, est: TimeEstimate) {
    let mut s = locked();
    ensure_ready(&mut s);
    if s.dir.is_none() {
        return;
    }
    if s.map.insert(key, est).is_none() {
        s.dirty += 1;
        if s.dirty >= FLUSH_EVERY {
            flush_locked(&mut s);
        }
    }
}

fn flush_locked(s: &mut Store) {
    if s.dirty == 0 {
        return;
    }
    if let Some(dir) = s.dir.clone() {
        let content = render_file(&s.map);
        if write_atomic(&dir, &content).is_ok() {
            s.dirty = 0;
        }
    }
}

/// Write any unflushed entries to disk (atomic temp + rename). A no-op
/// when the store is disabled or clean. `repro` calls this at the end of
/// each artefact command and after a `serve` drain, so short runs persist
/// their work.
pub fn flush() {
    let mut s = locked();
    ensure_ready(&mut s);
    flush_locked(&mut s);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(x: f64) -> TimeEstimate {
        TimeEstimate {
            seconds: x,
            compute_seconds: x / 2.0,
            memory_seconds: x / 4.0,
            overhead_seconds: x / 8.0,
            vector_path: true,
        }
    }

    #[test]
    fn file_round_trips_bit_exactly() {
        let mut map = HashMap::new();
        // Adversarial payloads: negative zero, subnormal, NaN bits.
        map.insert(1u64, est(1.0e-3));
        map.insert(
            u64::MAX,
            TimeEstimate {
                seconds: -0.0,
                compute_seconds: f64::from_bits(1),
                memory_seconds: f64::NAN,
                overhead_seconds: f64::INFINITY,
                vector_path: false,
            },
        );
        let text = render_file(&map);
        let back = parse_file(&text).expect("round trip");
        assert_eq!(back.len(), 2);
        for (k, e) in &map {
            let b = &back[k];
            assert_eq!(e.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(e.compute_seconds.to_bits(), b.compute_seconds.to_bits());
            assert_eq!(e.memory_seconds.to_bits(), b.memory_seconds.to_bits());
            assert_eq!(e.overhead_seconds.to_bits(), b.overhead_seconds.to_bits());
            assert_eq!(e.vector_path, b.vector_path);
        }
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut map = HashMap::new();
        for k in [9u64, 3, 7, 1] {
            map.insert(k, est(k as f64));
        }
        let a = render_file(&map);
        let b = render_file(&map);
        assert_eq!(a, b);
        let keys: Vec<&str> =
            a.lines().skip(1).map(|l| l.split_whitespace().next().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn corruption_means_cold_start() {
        let good = {
            let mut m = HashMap::new();
            m.insert(5u64, est(2.0));
            render_file(&m)
        };
        assert!(parse_file(&good).is_some());
        // Version bump.
        assert!(parse_file(&good.replace(SCHEMA, "rvhpc-estcache-v2")).is_none());
        // Truncated record.
        let truncated = good.trim_end().rsplit_once(' ').unwrap().0.to_string();
        assert!(parse_file(&truncated).is_none());
        // Trailing junk on a record.
        assert!(parse_file(&format!("{} extra", good.trim_end())).is_none());
        // Non-hex key.
        assert!(parse_file(&good.replace("0000000000000005", "not-hex-is-16ch")).is_none());
        // Bad vector_path flag.
        let flipped = good.trim_end().rsplit_once(' ').unwrap().0.to_string() + " 2\n";
        assert!(parse_file(&flipped).is_none());
        // Not even the header.
        assert!(parse_file("").is_none());
    }

    /// FNV-1a over the bits of `estimate_averaged` on a fixed probe set:
    /// every machine, one kernel per class, both precisions, threads
    /// {1, 4, 64} and every placement policy.
    fn model_fingerprint() -> u64 {
        use crate::config::{Precision, RunConfig};
        use rvhpc_kernels::{KernelClass, KernelName};
        use rvhpc_machines::{machine, MachineId, PlacementPolicy};
        let mut bytes = Vec::new();
        for id in MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]) {
            let m = machine(id);
            for class in KernelClass::ALL {
                let kernel =
                    KernelName::ALL.into_iter().find(|k| k.class() == class).expect("class kernel");
                for precision in [Precision::Fp32, Precision::Fp64] {
                    for threads in [1, 4, 64] {
                        for placement in PlacementPolicy::ALL {
                            let base = if id.is_riscv() {
                                RunConfig::sg2042_best(precision, threads)
                            } else {
                                RunConfig::x86(precision, threads)
                            };
                            let cfg = RunConfig { placement, ..base };
                            let e = crate::estimate_averaged(&m, kernel, &cfg);
                            for x in
                                [e.seconds, e.compute_seconds, e.memory_seconds, e.overhead_seconds]
                            {
                                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                            }
                            bytes.push(u8::from(e.vector_path));
                        }
                    }
                }
            }
        }
        Fnv::OFFSET.bytes(&bytes).0
    }

    /// The store serves estimates recorded by older binaries whenever the
    /// salt is unchanged, so the model and the salt must move together: a
    /// change that alters any estimate must bump [`MODEL_SALT`], and a
    /// change that does not (a refactor, a performance change) must leave
    /// this fingerprint exactly as pinned.
    #[test]
    fn model_fingerprint_is_pinned_to_the_salt() {
        let got = model_fingerprint();
        assert_eq!(
            (MODEL_SALT, got),
            ("rvhpc-perfmodel-2026-08", 0xeed6_95ab_80cf_ebac),
            "the estimator's output changed under an unchanged MODEL_SALT; if the change is \
             intended, bump MODEL_SALT and re-pin this test to (new salt, {got:#018x})"
        );
    }

    #[test]
    fn key_hash_separates_every_component() {
        let base = key_hash("m", "k", "c");
        assert_eq!(base, key_hash("m", "k", "c"), "stable");
        assert_ne!(base, key_hash("m2", "k", "c"));
        assert_ne!(base, key_hash("m", "k2", "c"));
        assert_ne!(base, key_hash("m", "k", "c2"));
    }
}
