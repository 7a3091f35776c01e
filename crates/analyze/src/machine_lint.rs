//! Descriptor lint over `rvhpc-machines`: internal-consistency checks that
//! the descriptors' own `validate()` methods do not enforce because they
//! are judgement calls about *plausibility* rather than well-formedness.
//!
//! * cache hierarchy monotonicity: capacity strictly grows, latency never
//!   shrinks, per-cycle bandwidth never grows as levels get farther away;
//! * NUMA regions partition the core set and their controller counts sum
//!   to the memory system's total;
//! * every placement policy yields a total, injective thread → core map at
//!   every thread count;
//! * vector ISA sanity (non-zero width, a multiple of 32 bits, at least
//!   one supported element type).

use crate::diag::{Diagnostic, Pass};
use rvhpc_machines::{all_machines, catalog, Machine, MachineId, PlacementPolicy};

fn finding(m: &Machine, message: String) -> Diagnostic {
    Diagnostic::global(Pass::Descriptor, format!("{}: {message}", m.id.token()))
}

/// Lint one machine descriptor.
pub fn lint_machine(m: &Machine) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if let Err(e) = m.validate() {
        diags.push(finding(m, format!("descriptor fails validate(): {e}")));
        // A structurally invalid descriptor makes the deeper checks
        // meaningless (and possibly panicky), so stop here.
        return diags;
    }

    // Cache hierarchy monotonicity, in level order.
    let mut caches: Vec<_> = m.caches.iter().collect();
    caches.sort_by_key(|c| c.level);
    for pair in caches.windows(2) {
        let (inner, outer) = (pair[0], pair[1]);
        if outer.size_bytes <= inner.size_bytes {
            diags.push(finding(
                m,
                format!(
                    "L{} ({} B) is not larger than L{} ({} B)",
                    outer.level, outer.size_bytes, inner.level, inner.size_bytes
                ),
            ));
        }
        if outer.latency_cycles < inner.latency_cycles {
            diags.push(finding(
                m,
                format!(
                    "L{} latency ({} cycles) is lower than L{} ({} cycles)",
                    outer.level, outer.latency_cycles, inner.level, inner.latency_cycles
                ),
            ));
        }
        if outer.bandwidth_bytes_per_cycle > inner.bandwidth_bytes_per_cycle {
            diags.push(finding(
                m,
                format!(
                    "L{} bandwidth ({} B/cycle) exceeds L{} ({} B/cycle)",
                    outer.level,
                    outer.bandwidth_bytes_per_cycle,
                    inner.level,
                    inner.bandwidth_bytes_per_cycle
                ),
            ));
        }
        if inner.bandwidth_bytes_per_cycle <= 0.0 {
            diags.push(finding(m, format!("L{} bandwidth is not positive", inner.level)));
        }
    }
    if let Some(last) = caches.last() {
        if last.bandwidth_bytes_per_cycle <= 0.0 {
            diags.push(finding(m, format!("L{} bandwidth is not positive", last.level)));
        }
    }

    // NUMA regions: partition of the core set (validate() already checks
    // this, but re-assert so the lint stands alone) and controller totals.
    let topo = &m.topology;
    let mut seen = vec![0u32; topo.n_cores()];
    for r in topo.regions() {
        for c in r.cores() {
            if c < seen.len() {
                seen[c] += 1;
            } else {
                diags.push(finding(m, format!("region {} claims core {c} out of range", r.id)));
            }
        }
    }
    for (c, &count) in seen.iter().enumerate() {
        if count != 1 {
            diags.push(finding(
                m,
                format!("core {c} belongs to {count} NUMA regions (want exactly 1)"),
            ));
        }
    }
    let region_ctrl: usize = topo.regions().iter().map(|r| r.controllers).sum();
    if region_ctrl != m.memory.controllers {
        diags.push(finding(
            m,
            format!(
                "NUMA regions declare {region_ctrl} memory controllers but the memory \
                 system has {}",
                m.memory.controllers
            ),
        ));
    }
    if m.memory.bw_per_controller_gbs <= 0.0 {
        diags.push(finding(m, "memory controller bandwidth is not positive".to_string()));
    }

    // Placement totality: every policy × thread count must produce exactly
    // n distinct, in-range cores.
    for policy in PlacementPolicy::ALL {
        for n in 1..=topo.n_cores() {
            let p = policy.map(topo, n);
            let cores = &p.cores;
            let mut bad = cores.len() != n;
            let mut dedup: Vec<usize> = cores.clone();
            dedup.sort_unstable();
            dedup.dedup();
            bad |= dedup.len() != cores.len();
            bad |= cores.iter().any(|&c| c >= topo.n_cores());
            if bad {
                diags.push(finding(
                    m,
                    format!(
                        "placement policy {} with {n} threads is not a total injective \
                         map onto cores (got {:?})",
                        policy.label(),
                        cores
                    ),
                ));
                // One finding per policy is enough.
                break;
            }
        }
    }

    // Vector ISA sanity.
    if let Some(v) = &m.vector {
        if v.width_bits == 0 || v.width_bits % 32 != 0 {
            diags.push(finding(
                m,
                format!("vector width {} bits is not a positive multiple of 32", v.width_bits),
            ));
        }
        if !(v.supports_fp32 || v.supports_fp64 || v.supports_int) {
            diags.push(finding(m, "vector unit supports no element type at all".to_string()));
        }
    }

    diags
}

/// Lint every machine in the catalog (the paper set plus the what-if
/// `sg2042-next-gen`).
pub fn lint_all_machines() -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = all_machines().into_iter().flat_map(lint_machine).collect();
    diags.extend(lint_machine(catalog(MachineId::Sg2042NextGen)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::{machine, CacheLevel, CacheSharing};

    /// Satellite 6: the shipped catalog is descriptor-lint clean. This is
    /// the regression fence — any future catalog edit that breaks cache
    /// monotonicity, the controller ledger or placement totality fails
    /// here before it can skew the perf model.
    #[test]
    fn shipped_catalog_is_lint_clean() {
        let diags = lint_all_machines();
        assert!(diags.is_empty(), "catalog lint findings: {diags:#?}");
    }

    #[test]
    fn shrunken_l2_is_reported() {
        let mut m = machine(MachineId::Sg2042);
        let l1 = m.cache_level(1).unwrap().size_bytes;
        for c in &mut m.caches {
            if c.level == 2 {
                c.size_bytes = l1 / 2;
            }
        }
        let diags = lint_machine(&m);
        assert!(
            diags.iter().any(|d| d.message.contains("not larger than")),
            "want a monotonicity finding, got {diags:#?}"
        );
    }

    #[test]
    fn latency_inversion_is_reported() {
        let mut m = machine(MachineId::AmdRome);
        for c in &mut m.caches {
            if c.level == 3 {
                c.latency_cycles = 0.5;
            }
        }
        let diags = lint_machine(&m);
        assert!(diags.iter().any(|d| d.message.contains("latency")), "{diags:#?}");
    }

    #[test]
    fn controller_ledger_mismatch_is_reported() {
        let mut m = machine(MachineId::Sg2042);
        m.memory.controllers = 2; // regions still declare 4 × 1
        let diags = lint_machine(&m);
        assert!(diags.iter().any(|d| d.message.contains("memory controllers")), "{diags:#?}");
    }

    #[test]
    fn zero_width_vector_unit_is_reported() {
        let mut m = machine(MachineId::Sg2042);
        if let Some(v) = &mut m.vector {
            v.width_bits = 0;
        }
        let diags = lint_machine(&m);
        assert!(diags.iter().any(|d| d.message.contains("vector width")), "{diags:#?}");
    }

    #[test]
    fn structurally_invalid_descriptor_short_circuits() {
        let mut m = machine(MachineId::VisionFiveV2);
        m.caches.push(CacheLevel {
            level: 9,
            size_bytes: 0, // validate() rejects zero-sized caches
            line_bytes: 64,
            associativity: 1,
            sharing: CacheSharing::PerCore,
            bandwidth_bytes_per_cycle: 1.0,
            latency_cycles: 1.0,
        });
        let diags = lint_machine(&m);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("validate()"), "{}", diags[0]);
    }
}
