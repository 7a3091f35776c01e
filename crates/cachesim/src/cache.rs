//! A single set-associative, write-back, write-allocate LRU cache.

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read access.
    Load,
    /// Write access (write-allocate: a store miss fetches the line).
    Store,
}

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was fetched; no dirty line was displaced.
    Miss,
    /// The line was fetched and a dirty line was written back.
    MissDirtyEviction,
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn n_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    /// Check the geometry is well-formed (power-of-two line size and set
    /// count, non-zero everything). Returns the first violation as a
    /// human-readable message; admission paths turn this into a structured
    /// rejection instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!("line size {} must be a non-zero power of two", self.line_bytes));
        }
        if self.associativity == 0 {
            return Err("associativity must be non-zero".to_string());
        }
        if self.size_bytes == 0 || self.size_bytes % (self.line_bytes * self.associativity) != 0 {
            return Err(format!(
                "capacity {} must be a non-zero whole number of {}-byte sets",
                self.size_bytes,
                self.line_bytes * self.associativity
            ));
        }
        if !self.n_sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.n_sets()));
        }
        Ok(())
    }

    /// Panic unless the geometry is well-formed (see [`CacheConfig::validate`]).
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid cache geometry: {e}");
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// One line's bookkeeping. `tag == u64::MAX` marks an invalid way; LRU order
/// is tracked with a per-set monotonic stamp, which keeps an access O(ways)
/// with no linked lists (ways are small: 4–16 on every modelled machine).
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    dirty: bool,
    stamp: u64,
}

const INVALID: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache with true LRU
/// replacement.
///
/// ```
/// use rvhpc_cachesim::{AccessKind, AccessOutcome, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 4096, line_bytes: 64, associativity: 4 });
/// assert_eq!(c.access(0, AccessKind::Load), AccessOutcome::Miss);
/// assert_eq!(c.access(8, AccessKind::Load), AccessOutcome::Hit); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>,
    n_sets: usize,
    set_shift: u32,
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.assert_valid();
        let n_sets = config.n_sets();
        Cache {
            config,
            sets: vec![Way { tag: INVALID, dirty: false, stamp: 0 }; n_sets * config.associativity],
            n_sets,
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: (n_sets - 1) as u64,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all lines and counters.
    pub fn reset(&mut self) {
        for w in &mut self.sets {
            *w = Way { tag: INVALID, dirty: false, stamp: 0 };
        }
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Decompose a byte address into its (set, tag) pair — the single place
    /// the line/set/tag arithmetic lives, so `access` and `probe` can never
    /// drift from one another.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.n_sets.trailing_zeros();
        (set, tag)
    }

    /// Access one byte address. Returns the outcome; counters are updated.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let (set, tag) = self.locate(addr);
        self.clock += 1;
        let ways = self.config.associativity;
        let base = set * ways;

        // Hit path.
        for i in base..base + ways {
            if self.sets[i].tag == tag {
                self.sets[i].stamp = self.clock;
                if kind == AccessKind::Store {
                    self.sets[i].dirty = true;
                }
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }

        // Miss. Victim: invalid way first, else least-recent stamp.
        self.stats.misses += 1;
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + ways {
            if self.sets[i].tag == INVALID {
                victim = i;
                break;
            }
            if self.sets[i].stamp < best {
                best = self.sets[i].stamp;
                victim = i;
            }
        }
        let evicted_dirty = self.sets[victim].tag != INVALID && self.sets[victim].dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        self.sets[victim] = Way { tag, dirty: kind == AccessKind::Store, stamp: self.clock };
        if evicted_dirty {
            AccessOutcome::MissDirtyEviction
        } else {
            AccessOutcome::Miss
        }
    }

    /// Whether the line holding `addr` is currently present (no counter
    /// update); test helper.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let ways = self.config.associativity;
        self.sets[set * ways..(set + 1) * ways].iter().any(|w| w.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, line_bytes: 64, associativity: 2 })
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0, AccessKind::Load), AccessOutcome::Miss);
        assert_eq!(c.access(0, AccessKind::Load), AccessOutcome::Hit);
        assert_eq!(c.access(63, AccessKind::Load), AccessOutcome::Hit, "same line");
        assert_eq!(c.access(64, AccessKind::Load), AccessOutcome::Miss, "next line");
    }

    #[test]
    fn lru_within_set_evicts_oldest() {
        let mut c = tiny();
        // Lines mapping to set 0: addresses 0, 256, 512 (4 sets × 64 B).
        c.access(0, AccessKind::Load);
        c.access(256, AccessKind::Load);
        // Touch 0 again so 256 is LRU.
        c.access(0, AccessKind::Load);
        // Insert a third line into set 0 → evicts 256, keeps 0.
        c.access(512, AccessKind::Load);
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        assert_eq!(c.access(0, AccessKind::Store), AccessOutcome::Miss);
        c.access(256, AccessKind::Load);
        // Evict line 0 (dirty) by filling set 0 with a third line; line 0 is
        // LRU because 256 was touched later.
        let out = c.access(512, AccessKind::Load);
        assert_eq!(out, AccessOutcome::MissDirtyEviction);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sequential_stream_miss_rate_is_line_granular() {
        // A 64 KB 4-way cache reading 32 KB sequentially in 8-byte words:
        // one miss per 64 B line → miss ratio = 8/64.
        let mut c =
            Cache::new(CacheConfig { size_bytes: 64 * 1024, line_bytes: 64, associativity: 4 });
        let n_words = 32 * 1024 / 8;
        for i in 0..n_words {
            c.access(i as u64 * 8, AccessKind::Load);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), n_words as u64);
        assert_eq!(s.misses, 32 * 1024 / 64);
        assert!((s.miss_ratio() - 8.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_fitting_cache_hits_on_second_pass() {
        let mut c =
            Cache::new(CacheConfig { size_bytes: 64 * 1024, line_bytes: 64, associativity: 4 });
        let bytes = 32 * 1024u64; // fits
        for pass in 0..2 {
            for a in (0..bytes).step_by(8) {
                let out = c.access(a, AccessKind::Load);
                if pass == 1 {
                    assert_eq!(out, AccessOutcome::Hit, "addr {a} pass {pass}");
                }
            }
        }
    }

    #[test]
    fn working_set_exceeding_cache_thrashes_with_lru() {
        // Footprint 2× capacity with sequential LRU: every pass misses
        // every line (the classic LRU sequential-thrash behaviour).
        let mut c =
            Cache::new(CacheConfig { size_bytes: 4 * 1024, line_bytes: 64, associativity: 4 });
        let bytes = 8 * 1024u64;
        for _ in 0..3 {
            for a in (0..bytes).step_by(64) {
                c.access(a, AccessKind::Load);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 3 * bytes / 64, "all passes miss entirely");
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0, AccessKind::Store);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.probe(0));
    }

    #[test]
    #[should_panic]
    fn invalid_geometry_rejected() {
        let _ = Cache::new(CacheConfig { size_bytes: 500, line_bytes: 64, associativity: 2 });
    }

    #[test]
    fn validate_reports_each_geometry_violation() {
        let ok = CacheConfig { size_bytes: 512, line_bytes: 64, associativity: 2 };
        assert!(ok.validate().is_ok());
        let cases = [
            (CacheConfig { size_bytes: 512, line_bytes: 0, associativity: 2 }, "line size"),
            (CacheConfig { size_bytes: 512, line_bytes: 48, associativity: 2 }, "line size"),
            (CacheConfig { size_bytes: 512, line_bytes: 64, associativity: 0 }, "associativity"),
            (CacheConfig { size_bytes: 500, line_bytes: 64, associativity: 2 }, "whole number"),
            (CacheConfig { size_bytes: 0, line_bytes: 64, associativity: 2 }, "whole number"),
            (CacheConfig { size_bytes: 384, line_bytes: 64, associativity: 2 }, "power of two"),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(&format!("{cfg:?} must fail"));
            assert!(err.contains(needle), "{cfg:?}: {err}");
        }
    }

    #[test]
    fn probe_and_access_agree_on_line_identity() {
        // Regression for the deduplicated line/set/tag math: any address in
        // a just-accessed line must probe as present, including addresses
        // that alias the same set with a different tag staying absent.
        let mut c = tiny();
        c.access(130, AccessKind::Load); // line 2
        for a in 128..192 {
            assert!(c.probe(a), "addr {a} shares the accessed line");
        }
        assert!(!c.probe(128 + 256), "same set, different tag");
        assert!(!c.probe(64), "different set");
    }
}
