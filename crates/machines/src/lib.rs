//! Machine, topology and thread-placement descriptors for the rvhpc suite.
//!
//! This crate is the "hardware inventory" substrate of the reproduction: it
//! describes, in data, every CPU the paper evaluates —
//!
//! * the Sophon SG2042 (64 × XuanTie C920, RVV v0.7.1, four NUMA regions with
//!   one DDR4-3200 controller each, clusters of four cores sharing 1 MB L2),
//! * the StarFive VisionFive V1 (JH7100) and V2 (JH7110) with SiFive U74
//!   cores and no vector extension,
//! * the four x86 comparison CPUs of the paper's Table 4 (AMD Rome EPYC 7742,
//!   Intel Broadwell Xeon E5-2695, Intel Icelake Xeon 6330, Intel
//!   Sandybridge Xeon E5-2609).
//!
//! It also implements the three thread-placement policies studied in the
//! paper's Section 3.2 (block, NUMA-cyclic and cluster-aware cyclic
//! allocation) as pure functions from a [`Topology`] to a thread → core map.
//!
//! Nothing in this crate measures or models time; the timing engine lives in
//! `rvhpc-perfmodel` and consumes these descriptors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod core_model;
pub mod ids;
pub mod memory;
pub mod placement;
pub mod topology;
pub mod vector;

#[cfg(test)]
mod proptests;

pub use cache::{CacheLevel, CacheSharing};
pub use catalog::{all_machines, catalog, machine, riscv_machines, x86_machines};
pub use core_model::CoreModel;
pub use ids::MachineId;
pub use memory::MemorySystem;
pub use placement::{Occupancy, Placement, PlacementPolicy};
pub use topology::{NumaRegion, Topology};
pub use vector::VectorIsa;

/// A complete description of one CPU under test.
///
/// All fields are architectural facts taken from public datasheets or from
/// the paper itself; calibrated *performance* constants (effective IPC,
/// achievable bandwidth fractions, …) deliberately live elsewhere, in
/// `rvhpc-perfmodel::calibration`, so that this crate stays a neutral
/// hardware inventory.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Stable identifier used to key calibration tables.
    pub id: MachineId,
    /// Human-readable name, e.g. "Sophon SG2042".
    pub name: String,
    /// Marketing part designation, e.g. "EPYC 7742" (paper Table 4).
    pub part: String,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Micro-architectural description of one core.
    pub core: CoreModel,
    /// Cache hierarchy, ordered L1 → last level.
    pub caches: Vec<CacheLevel>,
    /// Vector ISA, if any (the U74 machines have none).
    pub vector: Option<VectorIsa>,
    /// Core/NUMA/cluster layout.
    pub topology: Topology,
    /// DRAM subsystem.
    pub memory: MemorySystem,
}

impl Machine {
    /// Number of physical cores.
    pub fn n_cores(&self) -> usize {
        self.topology.n_cores()
    }

    /// The cache level with the given level number (1-based), if present.
    pub fn cache_level(&self, level: u8) -> Option<&CacheLevel> {
        self.caches.iter().find(|c| c.level == level)
    }

    /// Last-level cache.
    pub fn last_level_cache(&self) -> Option<&CacheLevel> {
        self.caches.iter().max_by_key(|c| c.level)
    }

    /// Peak DRAM bandwidth of the whole package in bytes/second.
    pub fn peak_dram_bandwidth(&self) -> f64 {
        self.memory.controllers as f64 * self.memory.bw_per_controller_gbs * 1e9
    }

    /// Whether the machine can vectorise the given element width in bits
    /// (32 = FP32, 64 = FP64). This encodes the paper's central observation
    /// that the C920's RVV v0.7.1 implementation does not vectorise FP64.
    pub fn vectorises_fp(&self, elem_bits: u32) -> bool {
        match &self.vector {
            None => false,
            Some(v) => match elem_bits {
                32 => v.supports_fp32,
                64 => v.supports_fp64,
                _ => false,
            },
        }
    }

    /// Vector lanes available for an element width, or 1 when the machine
    /// cannot vectorise it (scalar fallback).
    pub fn vector_lanes(&self, elem_bits: u32) -> u32 {
        if self.vectorises_fp(elem_bits) {
            let v = self.vector.as_ref().expect("vectorises_fp implies vector");
            (v.width_bits / elem_bits).max(1)
        } else {
            1
        }
    }

    /// Run a structural sanity check; used by tests and when the catalog
    /// is built ([`catalog()`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_ghz <= 0.0 {
            return Err(format!("{}: non-positive clock", self.name));
        }
        if self.caches.is_empty() {
            return Err(format!("{}: no caches", self.name));
        }
        let mut levels: Vec<u8> = self.caches.iter().map(|c| c.level).collect();
        levels.sort_unstable();
        levels.dedup();
        if levels.len() != self.caches.len() {
            return Err(format!("{}: duplicate cache levels", self.name));
        }
        for c in &self.caches {
            c.validate().map_err(|e| format!("{}: {e}", self.name))?;
        }
        self.topology.validate().map_err(|e| format!("{}: {e}", self.name))?;
        self.memory.validate().map_err(|e| format!("{}: {e}", self.name))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_machines_validate() {
        for m in all_machines() {
            m.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn sg2042_vectorises_fp32_not_fp64() {
        let m = machine(MachineId::Sg2042);
        assert!(m.vectorises_fp(32));
        assert!(!m.vectorises_fp(64), "C920 RVV v0.7.1 must not vectorise FP64");
        assert_eq!(m.vector_lanes(32), 4, "128-bit / 32-bit = 4 lanes");
        assert_eq!(m.vector_lanes(64), 1, "FP64 falls back to scalar");
    }

    #[test]
    fn u74_has_no_vector_isa() {
        for id in [MachineId::VisionFiveV1, MachineId::VisionFiveV2] {
            let m = machine(id);
            assert!(m.vector.is_none());
            assert_eq!(m.vector_lanes(32), 1);
        }
    }

    #[test]
    fn peak_bandwidth_is_controllers_times_channel() {
        let m = machine(MachineId::Sg2042);
        let expect = m.memory.controllers as f64 * m.memory.bw_per_controller_gbs * 1e9;
        assert_eq!(m.peak_dram_bandwidth(), expect);
    }
}
