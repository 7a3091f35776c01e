//! Analytic working-set traffic model.
//!
//! Predicts, for one thread's access stream, the bytes crossing each cache
//! boundary — without replaying addresses. The model follows the behaviour
//! the trace simulator exhibits for the suite's access shapes:
//!
//! * **Sequential/strided sweeps** are line-granular and, under LRU, binary:
//!   a footprint that fits a level's capacity share hits there on every pass
//!   after the first; a footprint that exceeds it thrashes completely (the
//!   classic LRU sequential-scan property, verified by the trace tests).
//! * **Random accesses** hit a level with probability `capacity/footprint`.
//!
//! The first pass is compulsory traffic through every boundary; writes add
//! write-back traffic to DRAM.

/// Spatial/temporal shape of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Unit-ish stride sweep over the footprint.
    Sequential,
    /// Fixed stride larger than a line (column walks, strided gathers).
    Strided,
    /// Uniform random over the footprint (sorts, index-lists, scatters).
    Random,
}

/// One memory stream of a kernel, per thread, per kernel repetition.
#[derive(Debug, Clone, Copy)]
pub struct AccessSpec {
    /// Distinct bytes touched by this thread (its chunk of the array).
    pub footprint_bytes: f64,
    /// Bytes requested per access (element size).
    pub elem_bytes: f64,
    /// Byte distance between consecutive accesses (≥ `elem_bytes` for
    /// meaningful sweeps; clamped up if smaller).
    pub stride_bytes: f64,
    /// Number of full sweeps over the footprint per kernel repetition.
    pub passes: f64,
    /// Fraction of accesses that are stores, in `[0, 1]`.
    pub write_fraction: f64,
    /// Access shape.
    pub locality: Locality,
}

impl AccessSpec {
    /// A read-only sequential sweep — the most common stream shape.
    pub fn sequential_read(footprint_bytes: f64, elem_bytes: f64) -> Self {
        AccessSpec {
            footprint_bytes,
            elem_bytes,
            stride_bytes: elem_bytes,
            passes: 1.0,
            write_fraction: 0.0,
            locality: Locality::Sequential,
        }
    }

    /// A write-only sequential sweep.
    pub fn sequential_write(footprint_bytes: f64, elem_bytes: f64) -> Self {
        AccessSpec {
            write_fraction: 1.0,
            ..AccessSpec::sequential_read(footprint_bytes, elem_bytes)
        }
    }

    /// Set the pass count (temporal reuse within one kernel repetition).
    pub fn with_passes(mut self, passes: f64) -> Self {
        self.passes = passes;
        self
    }

    /// Set the stride and mark the stream strided.
    pub fn with_stride(mut self, stride_bytes: f64) -> Self {
        self.stride_bytes = stride_bytes;
        self.locality = Locality::Strided;
        self
    }
}

/// Predicted traffic for one stream.
#[derive(Debug, Clone, Default)]
pub struct LevelTraffic {
    /// Element-granular bytes the core requested (all served by L1 at L1
    /// bandwidth).
    pub requested_bytes: f64,
    /// `fetch_bytes[i]` = line-granular bytes fetched *into* cache level `i`
    /// (0 = L1). The source of level `i`'s fetches is level `i+1`, or DRAM
    /// for the last level, so these are exactly the per-boundary transfer
    /// volumes the bandwidth model charges.
    pub fetch_bytes: Vec<f64>,
    /// Bytes written back to DRAM.
    pub dram_writeback_bytes: f64,
}

impl LevelTraffic {
    /// Bytes arriving from DRAM (fetches at the last boundary plus
    /// writebacks).
    pub fn dram_bytes(&self) -> f64 {
        self.fetch_bytes.last().copied().unwrap_or(0.0) + self.dram_writeback_bytes
    }
}

/// The per-thread capacity shares and line size of a hierarchy.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    /// Effective capacity available to the thread at each level, L1 first.
    /// (For shared levels the caller divides the physical capacity by the
    /// number of active sharers.)
    pub level_capacities: Vec<f64>,
    /// Line size in bytes.
    pub line_bytes: f64,
    /// Steady-state accounting: drop the one-off compulsory traffic below a
    /// stream's home level. Benchmark harnesses measure many repetitions
    /// over resident arrays, so cold-start fills amortise to nothing; a
    /// single cold execution should keep this `false`.
    pub steady_state: bool,
}

impl TrafficModel {
    /// Build a model from capacities and a line size (cold-start
    /// accounting).
    pub fn new(level_capacities: Vec<f64>, line_bytes: f64) -> Self {
        assert!(!level_capacities.is_empty());
        assert!(line_bytes > 0.0);
        TrafficModel { level_capacities, line_bytes, steady_state: false }
    }

    /// Switch to steady-state accounting (see [`TrafficModel::steady_state`]).
    pub fn steady_state(mut self) -> Self {
        self.steady_state = true;
        self
    }

    /// Predict boundary traffic for one stream (a thin wrapper over
    /// [`stream_traffic`], which does the arithmetic).
    pub fn traffic(&self, spec: &AccessSpec) -> LevelTraffic {
        let mut fetch_bytes = vec![0.0; self.level_capacities.len()];
        let totals = stream_traffic(
            &self.level_capacities,
            self.line_bytes,
            self.steady_state,
            spec,
            &mut fetch_bytes,
        );
        LevelTraffic {
            requested_bytes: totals.requested_bytes,
            fetch_bytes,
            dram_writeback_bytes: totals.dram_writeback_bytes,
        }
    }
}

/// The per-stream totals of [`stream_traffic`]; the per-level fetches go
/// to the caller's slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTotals {
    /// As [`LevelTraffic::requested_bytes`].
    pub requested_bytes: f64,
    /// As [`LevelTraffic::dram_writeback_bytes`].
    pub dram_writeback_bytes: f64,
}

/// The traffic model's arithmetic, allocation-free: predict one stream's
/// boundary traffic under `level_capacities` (as
/// [`TrafficModel::level_capacities`]) and write the bytes fetched into
/// each level to `fetch_bytes[i]`, overwriting every one of the first
/// `level_capacities.len()` entries. The memory model calls this once per
/// stream per estimate with reused buffers; [`TrafficModel::traffic`] is
/// the allocating form.
///
/// # Panics
/// Panics if `fetch_bytes` is shorter than `level_capacities`.
pub fn stream_traffic(
    level_capacities: &[f64],
    line_bytes: f64,
    steady_state: bool,
    spec: &AccessSpec,
    fetch_bytes: &mut [f64],
) -> StreamTotals {
    let _span = rvhpc_trace::span!(
        "cachesim.traffic",
        footprint_bytes = spec.footprint_bytes,
        passes = spec.passes,
    );
    rvhpc_obs::counter!("cachesim.analytic.streams", 1);
    let n = level_capacities.len();
    let fetch_bytes = &mut fetch_bytes[..n];
    if spec.footprint_bytes <= 0.0 || spec.passes <= 0.0 {
        fetch_bytes.fill(0.0);
        return StreamTotals { requested_bytes: 0.0, dram_writeback_bytes: 0.0 };
    }
    let stride = spec.stride_bytes.max(spec.elem_bytes).max(1.0);
    let accesses_per_pass = (spec.footprint_bytes / stride).max(1.0);
    let requested_bytes = spec.passes * accesses_per_pass * spec.elem_bytes;

    let dram_writeback_bytes = match spec.locality {
        Locality::Sequential | Locality::Strided => {
            // Lines touched per pass: line-granular for dense sweeps, one
            // line per access once the stride exceeds a line.
            let lines_per_pass = if stride <= line_bytes {
                (spec.footprint_bytes / line_bytes).max(1.0)
            } else {
                accesses_per_pass
            };
            let pass_line_bytes = lines_per_pass * line_bytes;

            // Steady-state home level: first level whose share holds the
            // footprint; `n` means DRAM-resident.
            let home =
                level_capacities.iter().position(|&cap| spec.footprint_bytes <= cap).unwrap_or(n);

            for (i, f) in fetch_bytes.iter_mut().enumerate() {
                *f = if i < home {
                    spec.passes * pass_line_bytes
                } else if steady_state {
                    0.0 // resident across repetitions
                } else {
                    pass_line_bytes // compulsory first pass only
                };
            }

            // Dirty lines reach DRAM every pass when the footprint is
            // DRAM-resident, otherwise once.
            let wb_passes = if home == n { spec.passes } else { 1.0 };
            spec.write_fraction * pass_line_bytes * wb_passes
        }
        Locality::Random => {
            // Each access fetches a line with no spatial reuse; a level
            // hits with probability share/footprint.
            let mut reaching = spec.passes * accesses_per_pass; // accesses probing L1
            for (f, &cap) in fetch_bytes.iter_mut().zip(level_capacities) {
                let hit_p = (cap / spec.footprint_bytes).clamp(0.0, 1.0);
                let misses = reaching * (1.0 - hit_p);
                *f = misses * line_bytes;
                reaching = misses;
            }
            fetch_bytes.last().map_or(0.0, |&last| spec.write_fraction * last)
        }
    };
    StreamTotals { requested_bytes, dram_writeback_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TrafficModel {
        // 32 KB L1, 1 MB L2, 16 MB L3, 64 B lines.
        TrafficModel::new(vec![32e3, 1e6, 16e6], 64.0)
    }

    #[test]
    fn single_pass_stream_is_all_compulsory() {
        let m = model();
        let t = m.traffic(&AccessSpec::sequential_read(64e6, 8.0));
        // One pass over 64 MB: every boundary moves the footprint once.
        for (i, f) in t.fetch_bytes.iter().enumerate() {
            assert!((f - 64e6).abs() < 1.0, "level {i}: {f}");
        }
        assert_eq!(t.dram_writeback_bytes, 0.0);
        assert!((t.requested_bytes - 64e6).abs() < 1.0);
    }

    #[test]
    fn l2_resident_stream_reuses_in_l2() {
        let m = model();
        let t = m.traffic(&AccessSpec::sequential_read(500e3, 8.0).with_passes(10.0));
        // Fits L2 (1 MB), not L1: L1 boundary moves every pass, L2 and L3
        // boundaries only the compulsory pass.
        assert!((t.fetch_bytes[0] - 10.0 * 500e3).abs() < 1.0);
        assert!((t.fetch_bytes[1] - 500e3).abs() < 1.0);
        assert!((t.fetch_bytes[2] - 500e3).abs() < 1.0);
    }

    #[test]
    fn l1_resident_stream_only_compulsory_everywhere() {
        let m = model();
        let t = m.traffic(&AccessSpec::sequential_read(16e3, 8.0).with_passes(100.0));
        for f in &t.fetch_bytes {
            assert!((f - 16e3).abs() < 1.0);
        }
        assert!((t.requested_bytes - 100.0 * 16e3).abs() < 1.0);
    }

    #[test]
    fn dram_resident_writes_write_back_every_pass() {
        let m = model();
        let t = m.traffic(&AccessSpec::sequential_write(64e6, 8.0).with_passes(3.0));
        assert!((t.fetch_bytes[2] - 3.0 * 64e6).abs() < 1.0);
        assert!((t.dram_writeback_bytes - 3.0 * 64e6).abs() < 1.0);
    }

    #[test]
    fn strided_beyond_line_loses_spatial_locality() {
        let m = model();
        let dense = m.traffic(&AccessSpec::sequential_read(64e6, 8.0));
        let strided = m.traffic(&AccessSpec::sequential_read(64e6, 8.0).with_stride(256.0));
        // Dense: footprint bytes cross each boundary. Strided by 4 lines:
        // each access its own line → (footprint/256) × 64 B = footprint/4
        // lines bytes... fewer accesses but a full line each.
        assert!((dense.fetch_bytes[2] - 64e6).abs() < 1.0);
        let exp = (64e6 / 256.0) * 64.0;
        assert!((strided.fetch_bytes[2] - exp).abs() < 1.0);
        // Per requested byte, the strided stream moves 8× more.
        let dense_ratio = dense.fetch_bytes[2] / dense.requested_bytes;
        let strided_ratio = strided.fetch_bytes[2] / strided.requested_bytes;
        assert!((strided_ratio / dense_ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn random_hits_scale_with_capacity() {
        let m = model();
        let spec = AccessSpec {
            footprint_bytes: 32e6,
            elem_bytes: 8.0,
            stride_bytes: 8.0,
            passes: 1.0,
            write_fraction: 0.0,
            locality: Locality::Random,
        };
        let t = m.traffic(&spec);
        let accesses = 32e6 / 8.0;
        // L1 hit prob = 32e3/32e6 = 1e-3 → ~all miss into L1.
        assert!((t.fetch_bytes[0] - accesses * (1.0 - 1e-3) * 64.0).abs() < 1e3);
        // Traffic decreases monotonically outward.
        assert!(t.fetch_bytes[0] >= t.fetch_bytes[1]);
        assert!(t.fetch_bytes[1] >= t.fetch_bytes[2]);
    }

    #[test]
    fn empty_spec_is_zero() {
        let m = model();
        let t = m.traffic(&AccessSpec::sequential_read(0.0, 8.0));
        assert_eq!(t.requested_bytes, 0.0);
        assert!(t.fetch_bytes.iter().all(|&f| f == 0.0));
    }

    /// Cross-validate the analytic model against the trace simulator for a
    /// repeated sequential sweep at several footprints.
    #[test]
    fn analytic_matches_trace_for_repeated_sweeps() {
        use crate::cache::{AccessKind, CacheConfig};
        use crate::hierarchy::{Hierarchy, LevelConfig};
        use crate::pattern::Pattern;

        let l1 = CacheConfig { size_bytes: 8 * 1024, line_bytes: 64, associativity: 4 };
        let l2 = CacheConfig { size_bytes: 64 * 1024, line_bytes: 64, associativity: 8 };
        let model = TrafficModel::new(vec![l1.size_bytes as f64, l2.size_bytes as f64], 64.0);

        for footprint in [4 * 1024u64, 32 * 1024, 256 * 1024] {
            let passes = 4u32;
            let mut h = Hierarchy::new(&[LevelConfig { cache: l1 }, LevelConfig { cache: l2 }]);
            let pat = Pattern::Repeated {
                inner: Box::new(Pattern::Sequential {
                    base: 0,
                    stride: 8,
                    count: footprint / 8,
                    kind: AccessKind::Load,
                }),
                passes,
            };
            // The batched line-run path — what the sweep-facing callers use;
            // the `batched-cache` verify oracle pins it to per-access replay.
            h.replay_pattern(&pat);
            let s = h.stats();

            let spec =
                AccessSpec::sequential_read(footprint as f64, 8.0).with_passes(passes as f64);
            let t = model.traffic(&spec);

            // Fetches into L1 = L1 misses × line.
            let traced_l1 = s.levels[0].misses as f64 * 64.0;
            let traced_dram = s.dram_lines as f64 * 64.0;
            let tol = 0.02; // 2 %: cold-set edge effects only
            assert!(
                (t.fetch_bytes[0] - traced_l1).abs() <= tol * traced_l1.max(64.0),
                "footprint {footprint}: analytic L1 {} vs trace {}",
                t.fetch_bytes[0],
                traced_l1
            );
            assert!(
                (t.fetch_bytes[1] - traced_dram).abs() <= tol * traced_dram.max(64.0),
                "footprint {footprint}: analytic DRAM {} vs trace {}",
                t.fetch_bytes[1],
                traced_dram
            );
        }
    }
}
