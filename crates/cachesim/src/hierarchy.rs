//! A multi-level cache hierarchy replaying one core's access stream.
//!
//! Levels are looked up outside-in only on miss (L1 miss → L2 access → …),
//! which is the traffic-filtering view the performance model needs: the
//! bytes a level serves are its *hits* × line size plus DRAM serves the
//! last level's misses.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};

/// Geometry of one hierarchy level.
#[derive(Debug, Clone, Copy)]
pub struct LevelConfig {
    /// Cache geometry.
    pub cache: CacheConfig,
}

/// Per-level and DRAM counters after replaying a stream.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Stats of each level, L1 first.
    pub levels: Vec<CacheStats>,
    /// Lines fetched from DRAM (misses of the last level).
    pub dram_lines: u64,
    /// Lines written back to DRAM (dirty evictions of the last level).
    pub dram_writeback_lines: u64,
}

impl HierarchyStats {
    /// Bytes transferred from DRAM (fetch + writeback), given a line size.
    pub fn dram_bytes(&self, line_bytes: usize) -> u64 {
        (self.dram_lines + self.dram_writeback_lines) * line_bytes as u64
    }
}

/// A stack of caches for a single core.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    dram_lines: u64,
    dram_writeback_lines: u64,
}

/// Per-level counter names published by a traced replay, L1 first. A
/// fourth level (no modelled machine has one) is not published.
const LEVEL_COUNTERS: [[&str; 2]; 3] = [
    ["cachesim.l1.hits", "cachesim.l1.misses"],
    ["cachesim.l2.hits", "cachesim.l2.misses"],
    ["cachesim.l3.hits", "cachesim.l3.misses"],
];

impl Hierarchy {
    /// Build a hierarchy from level configs, L1 first.
    ///
    /// # Panics
    /// Panics if no levels are given or line sizes differ across levels
    /// (the modelled machines all use 64-byte lines throughout).
    pub fn new(levels: &[LevelConfig]) -> Self {
        assert!(!levels.is_empty(), "need at least one level");
        let line = levels[0].cache.line_bytes;
        assert!(
            levels.iter().all(|l| l.cache.line_bytes == line),
            "all levels must share a line size"
        );
        Hierarchy {
            levels: levels.iter().map(|l| Cache::new(l.cache)).collect(),
            dram_lines: 0,
            dram_writeback_lines: 0,
        }
    }

    /// Replay one access through the stack.
    pub fn access(&mut self, addr: u64, kind: AccessKind) {
        for level in &mut self.levels {
            match level.access(addr, kind) {
                crate::cache::AccessOutcome::Hit => return,
                crate::cache::AccessOutcome::Miss
                | crate::cache::AccessOutcome::MissDirtyEviction => {
                    // Fall through to the next level. Dirty evictions are
                    // absorbed by the next level in a write-back hierarchy;
                    // only last-level writebacks reach DRAM (counted below).
                }
            }
        }
        self.dram_lines += 1;
    }

    /// Replay a whole address stream of loads/stores. With tracing enabled
    /// the replay's per-level hit/miss deltas are published as
    /// `cachesim.l<n>.hits`/`.misses` plus `cachesim.dram.lines`.
    pub fn replay<I: IntoIterator<Item = (u64, AccessKind)>>(&mut self, stream: I) {
        let _span = rvhpc_trace::span!("cachesim.replay", levels = self.levels.len());
        let before = rvhpc_trace::enabled().then(|| self.stats());
        for (addr, kind) in stream {
            self.access(addr, kind);
        }
        if let Some(before) = before {
            self.publish_deltas(&before);
        }
    }

    fn publish_deltas(&self, before: &HierarchyStats) {
        let add = |name, delta| {
            rvhpc_obs::counter(name).fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
        };
        let after = self.stats();
        for ((b, a), [hits, misses]) in before.levels.iter().zip(&after.levels).zip(LEVEL_COUNTERS)
        {
            add(hits, a.hits - b.hits);
            add(misses, a.misses - b.misses);
        }
        add("cachesim.dram.lines", after.dram_lines - before.dram_lines);
        add(
            "cachesim.dram.writeback_lines",
            after.dram_writeback_lines - before.dram_writeback_lines,
        );
    }

    /// Snapshot counters. Last-level dirty writebacks are read from that
    /// level's stats.
    pub fn stats(&self) -> HierarchyStats {
        let levels: Vec<CacheStats> = self.levels.iter().map(|c| c.stats()).collect();
        let wb = levels.last().map(|s| s.writebacks).unwrap_or(0);
        HierarchyStats {
            levels,
            dram_lines: self.dram_lines,
            dram_writeback_lines: self.dram_writeback_lines + wb,
        }
    }

    /// Reset all levels and counters.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
        self.dram_lines = 0;
        self.dram_writeback_lines = 0;
    }

    /// Line size shared by all levels.
    pub fn line_bytes(&self) -> usize {
        self.levels[0].config().line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        Hierarchy::new(&[
            LevelConfig {
                cache: CacheConfig { size_bytes: 1024, line_bytes: 64, associativity: 2 },
            },
            LevelConfig {
                cache: CacheConfig { size_bytes: 8192, line_bytes: 64, associativity: 4 },
            },
        ])
    }

    #[test]
    fn l1_hit_never_reaches_l2() {
        let mut h = two_level();
        h.access(0, AccessKind::Load);
        h.access(0, AccessKind::Load);
        let s = h.stats();
        assert_eq!(s.levels[0].hits, 1);
        assert_eq!(s.levels[0].misses, 1);
        assert_eq!(s.levels[1].accesses(), 1, "only the L1 miss reached L2");
        assert_eq!(s.dram_lines, 1);
    }

    #[test]
    fn l2_captures_l1_overflow() {
        let mut h = two_level();
        // Touch 4 KB (exceeds 1 KB L1, fits 8 KB L2) twice.
        for _ in 0..2 {
            for a in (0..4096u64).step_by(64) {
                h.access(a, AccessKind::Load);
            }
        }
        let s = h.stats();
        // Second pass: all L1 misses (thrash), all L2 hits.
        assert_eq!(s.dram_lines, 4096 / 64, "DRAM touched only on first pass");
        assert_eq!(s.levels[1].hits, 4096 / 64, "second pass served by L2");
    }

    #[test]
    fn store_heavy_stream_writes_back_to_dram() {
        let mut h = two_level();
        // Write 64 KB sequentially: far exceeds both levels, so dirty lines
        // must be written back to DRAM.
        for a in (0..65536u64).step_by(64) {
            h.access(a, AccessKind::Store);
        }
        let s = h.stats();
        assert!(s.dram_writeback_lines > 0);
        assert_eq!(s.dram_lines, 65536 / 64);
        // All but the lines still resident must have been written back.
        let resident = 8192 / 64;
        assert_eq!(s.dram_writeback_lines as usize, 65536 / 64 - resident);
    }

    #[test]
    fn replay_equals_manual_loop() {
        let stream: Vec<(u64, AccessKind)> =
            (0..256u64).map(|i| (i * 32, AccessKind::Load)).collect();
        let mut a = two_level();
        let mut b = two_level();
        a.replay(stream.iter().copied());
        for &(addr, kind) in &stream {
            b.access(addr, kind);
        }
        assert_eq!(a.stats().levels[0], b.stats().levels[0]);
        assert_eq!(a.stats().dram_lines, b.stats().dram_lines);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn mismatched_line_sizes_rejected() {
        let _ = Hierarchy::new(&[
            LevelConfig {
                cache: CacheConfig { size_bytes: 1024, line_bytes: 64, associativity: 2 },
            },
            LevelConfig {
                cache: CacheConfig { size_bytes: 8192, line_bytes: 128, associativity: 4 },
            },
        ]);
    }
}
