//! Cross-check: analytic cache model vs. trace-driven hierarchy.
//!
//! A random two-level hierarchy and a random access pattern run through
//! both `cachesim::analytic::TrafficModel` (cold-start accounting — the
//! traced execution is a single cold run) and the set-associative LRU
//! `Hierarchy`; the per-level fetch traffic must agree within bounded
//! divergence. Case generation keeps footprints away from capacity
//! boundaries, where the analytic model is *deliberately* binary (at/near
//! a boundary LRU sweeps thrash gradually while the working-set model
//! snaps); the divergence bound is only meaningful away from them.
//! Writeback traffic is compared only for DRAM-resident store sweeps —
//! for cache-resident footprints the trace legitimately keeps dirty lines
//! resident (never evicted, never counted) while the analytic model
//! charges the one eventual flush.
//!
//! The FP32-vs-FP64 metamorphic property also lives here at the traffic
//! level: halving element size (same element count) must never increase
//! requested or fetched bytes at any level.

use crate::{drive, Fault, OracleReport, VerifyConfig};
use rvhpc_cachesim::analytic::Locality;
use rvhpc_cachesim::{
    AccessKind, AccessSpec, CacheConfig, Hierarchy, LevelConfig, Pattern, TrafficModel,
};
use rvhpc_quickprop::Gen;
use rvhpc_trace::json::Json;

/// Oracle name (CLI token).
pub const NAME: &str = "cache-model";

const LINE: u64 = 64;

/// One randomized cache cross-check case.
#[derive(Debug, Clone)]
pub struct CacheCase {
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 ways.
    pub l1_assoc: usize,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 ways.
    pub l2_assoc: usize,
    /// Footprint in bytes (line multiple, away from capacity boundaries).
    pub footprint: u64,
    /// Sweeps over the footprint.
    pub passes: u32,
    /// Byte stride (≤ line for sequential; element-granular when random).
    pub stride: u64,
    /// Stores instead of loads.
    pub store: bool,
    /// Uniform-random addresses instead of a sequential sweep.
    pub random: bool,
    /// Seed of the random address stream.
    pub stream_seed: u64,
}

impl CacheCase {
    /// Human-readable summary.
    pub fn describe(&self) -> String {
        format!(
            "L1 {}B/{}w, L2 {}B/{}w, footprint {}B, passes {}, stride {}, {}, {}",
            self.l1_bytes,
            self.l1_assoc,
            self.l2_bytes,
            self.l2_assoc,
            self.footprint,
            self.passes,
            self.stride,
            if self.store { "stores" } else { "loads" },
            if self.random { "random" } else { "sequential" },
        )
    }

    /// Full case as JSON (for the failure artefact).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("l1_bytes", Json::Num(self.l1_bytes as f64)),
            ("l1_assoc", Json::Num(self.l1_assoc as f64)),
            ("l2_bytes", Json::Num(self.l2_bytes as f64)),
            ("l2_assoc", Json::Num(self.l2_assoc as f64)),
            ("footprint", Json::Num(self.footprint as f64)),
            ("passes", Json::Num(f64::from(self.passes))),
            ("stride", Json::Num(self.stride as f64)),
            ("store", Json::Bool(self.store)),
            ("random", Json::Bool(self.random)),
            ("stream_seed", Json::str(format!("{:#x}", self.stream_seed))),
        ])
    }
}

/// Footprint at least 1.8× above or at most 0.6× below every capacity —
/// outside the band where the binary working-set model and gradual LRU
/// thrashing legitimately disagree.
pub fn comparable(footprint: u64, l1: u64, l2: u64) -> bool {
    let away = |cap: u64| {
        let r = footprint as f64 / cap as f64;
        r <= 0.6 || r >= 1.8
    };
    away(l1) && away(l2)
}

/// Generate a random case.
pub fn generate_case(g: &mut Gen) -> CacheCase {
    let l1_bytes = *g.choose(&[4096u64, 8192, 16384, 32768]);
    let l1_assoc = *g.choose(&[2usize, 4, 8]);
    let l2_bytes = l1_bytes * *g.choose(&[4u64, 8, 16]);
    let l2_assoc = *g.choose(&[4usize, 8, 16]);
    let random = g.bool_with(0.3);
    let stride = if random { 8 } else { *g.choose(&[8u64, 16, 32, 64]) };
    let store = g.bool_with(0.4);
    let passes = g.usize_in(1..=4) as u32;
    let footprint = if random {
        // Far past L2 so the no-reuse hit probability model holds.
        l2_bytes * g.u64_in(4..=12) / LINE * LINE
    } else {
        let mut picked = l2_bytes * 4; // fallback: well past both levels
        for _ in 0..64 {
            let exp = g.f64_in(10.0, (l2_bytes as f64 * 8.0).log2());
            let f = (2f64.powf(exp) as u64 / LINE * LINE).max(8 * LINE);
            if comparable(f, l1_bytes, l2_bytes) {
                picked = f;
                break;
            }
        }
        picked
    };
    let stream_seed = g.u64();
    CacheCase {
        l1_bytes,
        l1_assoc,
        l2_bytes,
        l2_assoc,
        footprint,
        passes,
        stride,
        store,
        random,
        stream_seed,
    }
}

fn spec_for(case: &CacheCase, footprint: f64, elem: f64) -> AccessSpec {
    AccessSpec {
        footprint_bytes: footprint,
        elem_bytes: elem,
        stride_bytes: if case.random { elem } else { case.stride as f64 },
        passes: f64::from(case.passes),
        write_fraction: if case.store { 1.0 } else { 0.0 },
        locality: if case.random {
            Locality::Random
        } else if case.stride <= 8 {
            Locality::Sequential
        } else {
            Locality::Strided
        },
    }
}

/// Check one case: trace the pattern through the LRU hierarchy and bound
/// its divergence from the analytic prediction.
pub fn check(case: &CacheCase, _fault: Fault) -> Result<(), String> {
    let mk = |size: u64, assoc: usize| LevelConfig {
        cache: CacheConfig {
            size_bytes: size as usize,
            line_bytes: LINE as usize,
            associativity: assoc,
        },
    };
    let mut h =
        Hierarchy::new(&[mk(case.l1_bytes, case.l1_assoc), mk(case.l2_bytes, case.l2_assoc)]);
    let kind = if case.store { AccessKind::Store } else { AccessKind::Load };
    let pattern = if case.random {
        Pattern::Random {
            base: 0,
            footprint: case.footprint,
            elem: 8,
            count: u64::from(case.passes) * (case.footprint / 8),
            seed: case.stream_seed,
            kind,
        }
    } else {
        Pattern::Repeated {
            inner: Box::new(Pattern::Sequential {
                base: 0,
                stride: case.stride,
                count: case.footprint / case.stride,
                kind,
            }),
            passes: case.passes,
        }
    };
    h.replay(pattern.stream());
    let stats = h.stats();

    let model = TrafficModel::new(vec![case.l1_bytes as f64, case.l2_bytes as f64], LINE as f64);
    let spec = spec_for(case, case.footprint as f64, 8.0);
    let t = model.traffic(&spec);

    // Divergence bounds. Sequential sweeps away from capacity boundaries
    // should agree almost exactly; random streams carry statistical noise
    // plus the cold-start transient the steady hit-probability misses
    // (about one capacity worth of lines per level).
    let (rel, abs) = if case.random {
        (0.10, (case.l1_bytes + case.l2_bytes) as f64 * 2.0)
    } else {
        (0.02, 32.0 * LINE as f64)
    };
    let bound = |name: &str, traced: f64, predicted: f64| -> Result<(), String> {
        let tol = abs + rel * predicted.max(traced);
        if (traced - predicted).abs() > tol {
            return Err(format!(
                "{name}: trace {traced:.0}B vs analytic {predicted:.0}B \
                 (tol {tol:.0}B) for {}",
                case.describe()
            ));
        }
        Ok(())
    };
    bound("L1 fetch", (stats.levels[0].misses * LINE) as f64, t.fetch_bytes[0])?;
    bound("DRAM fetch", (stats.dram_lines * LINE) as f64, t.fetch_bytes[1])?;

    // Writebacks: only DRAM-resident store sweeps force eviction of dirty
    // lines in the trace; up to one L1+L2 of dirty lines legitimately stays
    // resident at the end.
    if case.store && case.footprint as f64 >= 1.8 * case.l2_bytes as f64 {
        let traced_wb = (stats.dram_writeback_lines * LINE) as f64;
        let predicted_wb = t.dram_writeback_bytes;
        let tol = (case.l1_bytes + case.l2_bytes) as f64 + (rel + 0.03) * predicted_wb;
        if (traced_wb - predicted_wb).abs() > tol {
            return Err(format!(
                "DRAM writeback: trace {traced_wb:.0}B vs analytic {predicted_wb:.0}B \
                 (tol {tol:.0}B) for {}",
                case.describe()
            ));
        }
    }

    // Metamorphic: FP32 (half the bytes per element, same element count)
    // never moves more bytes than FP64 at any level.
    let elems = case.footprint as f64 / 8.0;
    let spec64 = spec_for(case, elems * 8.0, 8.0);
    let spec32 = spec_for(case, elems * 4.0, 4.0);
    let (t64, t32) = (model.traffic(&spec64), model.traffic(&spec32));
    if t32.requested_bytes > t64.requested_bytes * (1.0 + 1e-12) {
        return Err(format!(
            "FP32 requested {} > FP64 requested {} for {}",
            t32.requested_bytes,
            t64.requested_bytes,
            case.describe()
        ));
    }
    for (level, (f32b, f64b)) in t32.fetch_bytes.iter().zip(&t64.fetch_bytes).enumerate() {
        if *f32b > *f64b * (1.0 + 1e-12) {
            return Err(format!(
                "FP32 fetch {} > FP64 fetch {} at level {level} for {}",
                f32b,
                f64b,
                case.describe()
            ));
        }
    }
    Ok(())
}

/// Strictly-simpler variants for minimization.
pub fn shrink(case: &CacheCase) -> Vec<CacheCase> {
    let mut out = Vec::new();
    if case.passes > 1 {
        let mut c = case.clone();
        c.passes = 1;
        out.push(c);
        let mut c = case.clone();
        c.passes /= 2;
        out.push(c);
    }
    for f in [case.footprint / 2, case.footprint / 4] {
        let small_ok = f >= 8 * LINE
            && (case.random
                || (comparable(f, case.l1_bytes, case.l2_bytes) && f % case.stride == 0));
        if small_ok && f < case.footprint {
            let mut c = case.clone();
            c.footprint = f / LINE * LINE;
            out.push(c);
        }
    }
    if case.store {
        let mut c = case.clone();
        c.store = false;
        out.push(c);
    }
    out
}

/// Run the oracle.
pub fn run(cfg: &VerifyConfig) -> OracleReport {
    drive(NAME, cfg, generate_case, check, shrink, CacheCase::describe, CacheCase::to_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_case() -> CacheCase {
        CacheCase {
            l1_bytes: 8192,
            l1_assoc: 4,
            l2_bytes: 65536,
            l2_assoc: 8,
            footprint: 4096,
            passes: 3,
            stride: 8,
            store: false,
            random: false,
            stream_seed: 1,
        }
    }

    #[test]
    fn resident_sweep_agrees() {
        check(&base_case(), Fault::None).unwrap();
    }

    #[test]
    fn thrashing_sweep_agrees() {
        let mut c = base_case();
        c.footprint = 65536 * 4;
        c.store = true;
        check(&c, Fault::None).unwrap();
    }

    #[test]
    fn random_stream_agrees() {
        let mut c = base_case();
        c.random = true;
        c.footprint = 65536 * 6;
        c.passes = 1;
        check(&c, Fault::None).unwrap();
    }

    #[test]
    fn generated_footprints_stay_off_capacity_boundaries() {
        let mut g = Gen::new(5);
        for _ in 0..200 {
            let c = generate_case(&mut g);
            if !c.random {
                assert!(comparable(c.footprint, c.l1_bytes, c.l2_bytes), "{}", c.describe());
                assert_eq!(c.footprint % c.stride, 0, "{}", c.describe());
            }
            assert_eq!(c.footprint % LINE, 0);
        }
    }

    #[test]
    fn clean_cases_pass() {
        for index in 0..40u64 {
            let seed = rvhpc_quickprop::case_seed(rvhpc_quickprop::BASE_SEED, index);
            let case = generate_case(&mut Gen::new(seed));
            check(&case, Fault::None).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        }
    }
}
