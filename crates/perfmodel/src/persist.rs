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
//! Keys are built through one `KeyPrefix`: the hash state after the salt
//! and the descriptor, derived once per distinct descriptor in a batch
//! (each derivation counts as the `perfmodel.persist.descriptor_hash`
//! registry counter). A run of keys that share one configuration hashes
//! each kernel label on its own and then feeds the shared `|{config:?}`
//! suffix to the run's hash states eight at a time (`finish_keys`): the
//! states are independent multiply chains, so the CPU overlaps them.
//! FNV-1a is a streaming hash, so the hashed bytes, and the key, are
//! exactly those of hashing the whole key text at once.
//!
//! The cache reaches the store once per batch: `lookup_all` answers all
//! of a batch's keys under one store lock, and `record_all` records all
//! of its computed estimates under one more. Each acquisition of the store
//! lock counts as the `perfmodel.persist.lock` registry counter.
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
//!   `MODEL_SALT` when estimator behaviour changes invalidates every
//!   prior entry at once.
//! * the four time components — 16 hex digits each, the raw IEEE-754 bit
//!   patterns of the `f64`s, so a round trip through disk is bit-exact.
//! * `vector_path` — `0` or `1`.
//!
//! Records are written through a 16-entry digit table, one fixed-width
//! 86-byte line each, and sorted by key. A reload decodes each line of
//! that canonical shape through a 256-entry digit table and sends any other
//! line to the general parser (`from_str_radix` over whitespace-separated
//! fields), so the accepted language is that of the general parser alone.
//!
//! # Write schedule
//!
//! Besides the explicit [`flush`], `record_all` writes the file once the
//! map has grown, since the last write attempt or load, by
//! `max(FLUSH_EVERY, records the file then held)`; it checks once per
//! batch. Each write rewrites the whole file, so this keeps the total
//! bytes written linear in the store's size, and a cold pass of the paper
//! batch into an empty store writes at 1 024 and 2 048 records. A crash
//! loses at most `max(1 023, records on disk)` records plus one batch. A
//! failed write (an unwritable directory) warns once on stderr and is
//! retried only at the next threshold or [`flush`]; every write attempt
//! counts as `perfmodel.persist.write` and every failure as
//! `perfmodel.persist.write_failed`.
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
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// First line of a valid store file.
pub const SCHEMA: &str = "rvhpc-estcache-v1";

/// File name inside the cache directory.
pub const FILE_NAME: &str = "estimates.v1";

/// Salt folded into every key hash; bump when estimator behaviour changes
/// so stale entries from older binaries can never be served.
const MODEL_SALT: &str = "rvhpc-perfmodel-2026-10b";

/// The least growth of the map, in new records, that triggers an
/// auto-flush (see "Write schedule"); callers should still [`flush`] at
/// natural boundaries.
const FLUSH_EVERY: usize = 1024;

/// The FNV-1a 64-bit multiplier.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit hash. Text formatted into it (it is a
/// [`fmt::Write`]) hashes exactly as the formatted string would.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn bytes(self, bytes: &[u8]) -> Fnv {
        Fnv(bytes.iter().fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)))
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

    /// The hash state of a key up to its kernel label: this prefix
    /// extended by the label, waiting for [`finish_keys`].
    pub(crate) fn with_kernel(self, kernel: &str) -> u64 {
        self.0.bytes(kernel.as_bytes()).0
    }
}

/// Finish a run of keys that share one canonical configuration: feed
/// `|{cfg_text}` to every state from [`KeyPrefix::with_kernel`]. The states
/// go eight at a time, held in registers, and each byte goes to all eight
/// before the next, so eight independent multiply chains overlap. Each
/// state then holds the content hash of its whole key text.
pub(crate) fn finish_keys(states: &mut [u64], cfg_text: &str) {
    const LANES: usize = 8;
    let suffix = || b"|".iter().chain(cfg_text.as_bytes());
    let mut blocks = states.chunks_exact_mut(LANES);
    for block in &mut blocks {
        let mut lanes: [u64; LANES] = (&*block).try_into().expect("a block of LANES states");
        for &b in suffix() {
            for h in &mut lanes {
                *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        block.copy_from_slice(&lanes);
    }
    for h in blocks.into_remainder() {
        *h = suffix().fold(*h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME));
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
    /// Whether the map holds records that the file does not.
    dirty: bool,
    /// The map size at which [`record_all`] next writes the file.
    flush_at: usize,
    /// Entries loaded from disk at the last (re)load — warm-start telemetry.
    loaded: usize,
}

/// The auto-flush threshold after the file was written or loaded with
/// `written` records: it fires once the map has grown by
/// `max(FLUSH_EVERY, written)`.
fn next_flush_at(written: usize) -> usize {
    written + written.max(FLUSH_EVERY)
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
    rvhpc_obs::counter!("perfmodel.persist.lock", 1);
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
    s.dirty = false;
    s.loaded = 0;
    if let Some(dir) = &s.dir {
        // A missing, corrupt or version-mismatched file is a cold start,
        // overwritten at the next flush.
        if let Some(map) =
            std::fs::read_to_string(dir.join(FILE_NAME)).ok().and_then(|text| parse_file(&text))
        {
            s.loaded = map.len();
            s.map = map;
        }
    }
    s.flush_at = next_flush_at(s.loaded);
}

/// The length of a canonical record line, without its newline: five
/// 16-digit hex fields and the flag, separated by single spaces.
const RECORD_LEN: usize = 5 * 17 + 1;

/// Marks a byte that is not a hex digit in [`HEX_VALUE`].
const NOT_HEX: u8 = 0x10;

/// Each byte's hex digit value, or [`NOT_HEX`]. Upper- and lowercase
/// digits, the digits `u64::from_str_radix(_, 16)` takes.
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        table[b"0123456789abcdef"[d] as usize] = d as u8;
        table[b"0123456789ABCDEF"[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Decode a canonical record line without branching on its digits: the
/// OR of every digit's table entry shows whether any was not a digit.
/// `None` for any line of another shape, which the general parser then
/// judges.
fn parse_canonical(line: &[u8]) -> Option<(u64, TimeEstimate)> {
    let line: &[u8; RECORD_LEN] = line.try_into().ok()?;
    let (mut fields, mut seen) = ([0u64; 5], 0u8);
    for (f, field) in fields.iter_mut().enumerate() {
        for &b in &line[f * 17..f * 17 + 16] {
            let v = HEX_VALUE[usize::from(b)];
            *field = *field << 4 | u64::from(v & 0xf);
            seen |= v;
        }
    }
    let spaced = (0..5).all(|f| line[f * 17 + 16] == b' ');
    let flag = line[RECORD_LEN - 1].wrapping_sub(b'0');
    if seen & NOT_HEX != 0 || !spaced || flag > 1 {
        return None;
    }
    let [key, seconds, compute, memory, overhead] = fields;
    Some((
        key,
        TimeEstimate {
            seconds: f64::from_bits(seconds),
            compute_seconds: f64::from_bits(compute),
            memory_seconds: f64::from_bits(memory),
            overhead_seconds: f64::from_bits(overhead),
            vector_path: flag == 1,
        },
    ))
}

/// Parse one record of any spacing: six whitespace-separated fields, each
/// hex field as `u64::from_str_radix` reads it. `None` on any deviation.
fn parse_record(line: &str) -> Option<(u64, TimeEstimate)> {
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
    Some((key, est))
}

/// Parse a store file with `record` for each non-empty line after the
/// header; `None` on any deviation from the format.
fn parse_lines(
    text: &str,
    record: impl Fn(&str) -> Option<(u64, TimeEstimate)>,
) -> Option<HashMap<u64, TimeEstimate>> {
    let mut lines = text.lines();
    if lines.next()? != SCHEMA {
        return None;
    }
    let mut map = HashMap::with_capacity(text.len() / (RECORD_LEN + 1));
    for line in lines.filter(|l| !l.is_empty()) {
        let (key, est) = record(line)?;
        map.insert(key, est);
    }
    Some(map)
}

/// Parse a store file; `None` on any deviation from the format.
fn parse_file(text: &str) -> Option<HashMap<u64, TimeEstimate>> {
    parse_lines(text, |line| parse_canonical(line.as_bytes()).or_else(|| parse_record(line)))
}

/// One record as its canonical line, newline included.
fn render_record(key: u64, e: &TimeEstimate) -> [u8; RECORD_LEN + 1] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let fields = [
        key,
        e.seconds.to_bits(),
        e.compute_seconds.to_bits(),
        e.memory_seconds.to_bits(),
        e.overhead_seconds.to_bits(),
    ];
    let mut line = [b' '; RECORD_LEN + 1];
    for (f, x) in fields.into_iter().enumerate() {
        for (i, digit) in line[f * 17..f * 17 + 16].iter_mut().enumerate() {
            *digit = DIGITS[(x >> (60 - 4 * i)) as usize & 0xf];
        }
    }
    line[RECORD_LEN - 1] = b'0' + u8::from(e.vector_path);
    line[RECORD_LEN] = b'\n';
    line
}

fn render_file(map: &HashMap<u64, TimeEstimate>) -> String {
    // Sorted for deterministic bytes (useful for diffing two runs).
    let mut records: Vec<(u64, &TimeEstimate)> = map.iter().map(|(&k, e)| (k, e)).collect();
    records.sort_unstable_by_key(|&(k, _)| k);
    let mut out = Vec::with_capacity(SCHEMA.len() + 1 + records.len() * (RECORD_LEN + 1));
    out.extend_from_slice(SCHEMA.as_bytes());
    out.push(b'\n');
    for (k, e) in records {
        out.extend_from_slice(&render_record(k, e));
    }
    String::from_utf8(out).expect("the schema line and hex records are ASCII")
}

/// Atomic write: temp file in the target directory, then rename.
fn write_atomic(dir: &Path, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{}.tmp-{}", FILE_NAME, std::process::id()));
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, dir.join(FILE_NAME))
}

/// The one-time warning for a failed store write; `None` once warned.
/// Split out from [`write_locked`] so the text has a unit test.
fn write_failure_warning(dir: &Path, err: &std::io::Error, warned: &AtomicBool) -> Option<String> {
    if warned.swap(true, Ordering::Relaxed) {
        return None;
    }
    Some(format!(
        "rvhpc-perfmodel: cannot write the estimate store in {}: {err}; estimates are \
         unaffected, but new ones may not persist (the write is retried at the next \
         flush threshold; this warning is printed once)",
        dir.display(),
    ))
}

/// Write the whole map to the file and set the next auto-flush threshold,
/// whether or not the write succeeds: a failed write is retried at the
/// next threshold, not on every record.
fn write_locked(s: &mut Store) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let Some(dir) = &s.dir else { return };
    rvhpc_obs::counter!("perfmodel.persist.write", 1);
    s.flush_at = next_flush_at(s.map.len());
    match write_atomic(dir, &render_file(&s.map)) {
        Ok(()) => s.dirty = false,
        Err(err) => {
            rvhpc_obs::counter!("perfmodel.persist.write_failed", 1);
            if let Some(warning) = write_failure_warning(dir, &err, &WARNED) {
                eprintln!("{warning}");
            }
        }
    }
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

/// Look up every key of a batch under one store lock, calling
/// `each(j, found)` for `keys[j]` in order; `found` is `None` when the key
/// is absent or the store is disabled.
pub(crate) fn lookup_all(keys: &[u64], mut each: impl FnMut(usize, Option<TimeEstimate>)) {
    let mut s = locked();
    ensure_ready(&mut s);
    let map = s.dir.as_ref().map(|_| &s.map);
    for (j, key) in keys.iter().enumerate() {
        each(j, map.and_then(|m| m.get(key)).copied());
    }
}

/// Record a batch's freshly computed estimates under one store lock, then
/// write the file if the batch brought the map to the auto-flush
/// threshold. A no-op when the store is disabled.
pub(crate) fn record_all(entries: impl IntoIterator<Item = (u64, TimeEstimate)>) {
    let mut s = locked();
    ensure_ready(&mut s);
    if s.dir.is_none() {
        return;
    }
    for (key, est) in entries {
        if s.map.insert(key, est).is_none() {
            s.dirty = true;
        }
    }
    if s.map.len() >= s.flush_at {
        write_locked(&mut s);
    }
}

/// Write any unflushed entries to disk (atomic temp + rename). A no-op
/// when the store is disabled or clean. `repro` calls this at the end of
/// each artefact command and after a `serve` drain, so short runs persist
/// their work.
pub fn flush() {
    let mut s = locked();
    ensure_ready(&mut s);
    if s.dirty {
        write_locked(&mut s);
    }
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

    /// The store's renderer before the digit table: `fmt` over each record.
    fn render_file_reference(map: &HashMap<u64, TimeEstimate>) -> String {
        let mut keys: Vec<&u64> = map.keys().collect();
        keys.sort_unstable();
        let mut out = String::with_capacity(32 + map.len() * 90);
        out.push_str(SCHEMA);
        out.push('\n');
        for k in keys {
            let e = &map[k];
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

    /// The store's parser before the digit table: every record through
    /// `from_str_radix`.
    fn parse_file_reference(text: &str) -> Option<HashMap<u64, TimeEstimate>> {
        parse_lines(text, parse_record)
    }

    /// A parsed file as comparable bits, sorted by key.
    fn bits(map: Option<HashMap<u64, TimeEstimate>>) -> Option<Vec<(u64, [u64; 4], bool)>> {
        let mut records: Vec<_> = map?
            .into_iter()
            .map(|(k, e)| {
                let times = [e.seconds, e.compute_seconds, e.memory_seconds, e.overhead_seconds];
                (k, times.map(f64::to_bits), e.vector_path)
            })
            .collect();
        records.sort_unstable_by_key(|r| r.0);
        Some(records)
    }

    /// A 64-bit pattern that is often a corner of the `f64` encoding:
    /// NaN payloads of either sign, ±0.0, subnormals, infinities, all ones.
    fn adversarial_bits(g: &mut rvhpc_quickprop::Gen) -> u64 {
        const CORNERS: [u64; 12] = [
            0,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0x000f_ffff_ffff_ffff,
            0x800f_ffff_ffff_ffff,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
            0x7ff8_0000_0000_0000,
            0x7ff0_0000_0000_0001,
            0xfff8_dead_beef_0001,
            0x3ff0_0000_0000_0000,
        ];
        if g.bool_with(0.6) {
            *g.choose(&CORNERS)
        } else {
            g.u64()
        }
    }

    /// One single-byte mutation of a canonical record line.
    fn mutate(g: &mut rvhpc_quickprop::Gen, line: &str) -> String {
        let mut b = line.as_bytes().to_vec();
        let at = g.usize_in(0..=b.len() - 1);
        match g.usize_in(0..=6) {
            // An uppercase digit where there is a lowercase one.
            0 => b[at] = b[at].to_ascii_uppercase(),
            // An extra space, here or at either end.
            1 => b.insert(*g.choose(&[at, 0, b.len()]), b' '),
            // A tab, in place of a byte or between two.
            2 => {
                if g.bool_with(0.5) {
                    b[at] = b'\t';
                } else {
                    b.insert(at, b'\t');
                }
            }
            // Truncation, or one byte dropped.
            3 => {
                if g.bool_with(0.5) {
                    b.truncate(at);
                } else {
                    b.remove(at);
                }
            }
            // A sign, which `from_str_radix` takes at a field's start.
            4 => b[at] = *g.choose(b"+-"),
            // Any other ASCII byte: non-hex letters, controls, `\r`, `\n`.
            5 => b[at] = g.usize_in(0..=127) as u8,
            // The flag out of range.
            _ => *b.last_mut().expect("a record") = *g.choose(b"2x "),
        }
        String::from_utf8(b).expect("ASCII mutations")
    }

    #[test]
    fn fast_codec_matches_the_reference_codec() {
        rvhpc_quickprop::run_cases(200, |g| {
            let mut map = HashMap::new();
            for _ in 0..g.usize_in(1..=6) {
                let est = TimeEstimate {
                    seconds: f64::from_bits(adversarial_bits(g)),
                    compute_seconds: f64::from_bits(adversarial_bits(g)),
                    memory_seconds: f64::from_bits(adversarial_bits(g)),
                    overhead_seconds: f64::from_bits(adversarial_bits(g)),
                    vector_path: g.bool_with(0.5),
                };
                map.insert(adversarial_bits(g), est);
            }
            let text = render_file(&map);
            assert_eq!(text, render_file_reference(&map), "rendered bytes");
            let lines: Vec<&str> = text.lines().skip(1).collect();
            assert!(
                lines.iter().all(|l| parse_canonical(l.as_bytes()).is_some()),
                "every rendered record takes the table decode"
            );
            assert_eq!(bits(parse_file(&text)), bits(Some(map)), "round trip");
            for _ in 0..8 {
                let j = g.usize_in(0..=lines.len() - 1);
                let line = mutate(g, lines[j]);
                let mut mutated = lines.clone();
                mutated[j] = &line;
                let file = format!("{SCHEMA}\n{}\n", mutated.join("\n"));
                assert_eq!(
                    bits(parse_file(&file)),
                    bits(parse_file_reference(&file)),
                    "{:?} parses differently",
                    line
                );
                assert_eq!(
                    parse_canonical(line.as_bytes()).or_else(|| parse_record(&line)).map(|r| r.0),
                    parse_record(&line).map(|r| r.0),
                    "{line:?}"
                );
            }
        });
    }

    #[test]
    fn the_flush_threshold_grows_with_the_file() {
        assert_eq!(next_flush_at(0), 1024);
        assert_eq!(next_flush_at(1024), 2048);
        assert_eq!(next_flush_at(2048), 4096);
        assert_eq!(next_flush_at(200_000), 400_000);
    }

    #[test]
    fn a_failed_write_warns_once() {
        let warned = AtomicBool::new(false);
        let err = std::io::Error::new(std::io::ErrorKind::NotADirectory, "not a directory");
        let msg = write_failure_warning(Path::new("/x/store"), &err, &warned).expect("first");
        assert!(msg.contains("/x/store") && msg.contains("not a directory"), "{msg}");
        assert_eq!(write_failure_warning(Path::new("/x/store"), &err, &warned), None, "once");
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

    /// FNV-1a over the bits of `estimate` on a fixed probe set:
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
                            let e = crate::estimate(&m, kernel, &cfg);
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
            ("rvhpc-perfmodel-2026-10b", 0xe5a7_ca1a_d0c4_40dd),
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
