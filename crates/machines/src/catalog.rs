//! The concrete machine catalog: every CPU in the paper, built from public
//! datasheet numbers and the architectural facts quoted in the paper itself.

use crate::cache::CacheLevel;
use crate::core_model::CoreModel;
use crate::ids::MachineId;
use crate::memory::MemorySystem;
use crate::topology::Topology;
use crate::vector::VectorIsa;
use crate::Machine;
use std::sync::OnceLock;

/// The process-wide descriptor for `id`.
///
/// All eight descriptors are built and validated once, on the first call,
/// in every build profile; a descriptor that fails [`Machine::validate`]
/// panics there. Every later call returns the same `&'static` entry, so
/// callers that only read a descriptor borrow it instead of building one.
pub fn catalog(id: MachineId) -> &'static Machine {
    static CATALOG: OnceLock<Vec<Machine>> = OnceLock::new();
    let entries = CATALOG.get_or_init(|| {
        MachineId::CATALOG
            .into_iter()
            .enumerate()
            .map(|(i, id)| {
                let m = build(id);
                assert_eq!(m.id as usize, i, "entries are indexed by discriminant");
                m.validate().unwrap_or_else(|e| panic!("machine catalog: {e}"));
                m
            })
            .collect()
    });
    &entries[id as usize]
}

/// An owned copy of the catalog descriptor for `id`, for callers that
/// perturb it; readers borrow [`catalog`] instead.
pub fn machine(id: MachineId) -> Machine {
    catalog(id).clone()
}

fn build(id: MachineId) -> Machine {
    match id {
        MachineId::Sg2042 => sg2042(),
        MachineId::VisionFiveV1 => visionfive_v1(),
        MachineId::VisionFiveV2 => visionfive_v2(),
        MachineId::AmdRome => amd_rome(),
        MachineId::IntelBroadwell => intel_broadwell(),
        MachineId::IntelIcelake => intel_icelake(),
        MachineId::IntelSandybridge => intel_sandybridge(),
        MachineId::Sg2042NextGen => sg2042_next_gen(),
    }
}

/// All machines in paper order.
pub fn all_machines() -> Vec<&'static Machine> {
    MachineId::ALL.into_iter().map(catalog).collect()
}

/// The three RISC-V machines (Section 3.1).
pub fn riscv_machines() -> Vec<&'static Machine> {
    MachineId::ALL.into_iter().filter(|m| m.is_riscv()).map(catalog).collect()
}

/// The four x86 machines (Table 4).
pub fn x86_machines() -> Vec<&'static Machine> {
    MachineId::ALL.into_iter().filter(|m| m.is_x86()).map(catalog).collect()
}

/// Sophon SG2042: 64 × XuanTie C920 @ 2 GHz, RVV v0.7.1 (128-bit, no FP64
/// vectors), 64 KB L1D per core, 1 MB L2 per 4-core cluster, 64 MB package
/// L3, four DDR4-3200 controllers (one per NUMA region).
fn sg2042() -> Machine {
    Machine {
        id: MachineId::Sg2042,
        name: "Sophon SG2042".into(),
        part: "SG2042".into(),
        clock_ghz: 2.0,
        core: CoreModel::xuantie_c920(),
        caches: vec![
            CacheLevel::private(1, 64 * 1024, 4, 32.0, 3.0),
            CacheLevel::per_cluster(2, 1024 * 1024, 16, 16.0, 14.0),
            // The SG2042's L3 sits behind a slow mesh: ~2 bytes/cycle/core
            // sustained, far below the x86 parts' LLCs.
            CacheLevel::package(3, 64 * 1024 * 1024, 16, 2.0, 40.0),
        ],
        vector: Some(VectorIsa::rvv071_c920()),
        topology: Topology::sg2042(),
        memory: MemorySystem::new(4, 25.6, 110.0).with_remote_penalty(1.6),
    }
}

/// A hypothetical next-generation SG2042, configured exactly as the
/// paper's conclusion recommends: "it would be very useful to have RVV
/// v1.0 provided ... provision of FP64 vectorisation, wider vector
/// registers, increased L1 cache, and more memory controllers per NUMA
/// region would also likely deliver significant performance advantages".
/// Same 64-core/4-region floorplan and clock; 256-bit RVV v1.0 with FP64,
/// 128 KB L1D, two DDR4-3200 controllers per region.
fn sg2042_next_gen() -> Machine {
    let mut m = sg2042();
    m.id = MachineId::Sg2042NextGen;
    m.name = "SG2042 next-gen (what-if)".into();
    m.part = "SG2042-NG".into();
    m.caches[0] = CacheLevel::private(1, 128 * 1024, 8, 64.0, 3.0);
    // A faster LLC mesh comes along with the redesign.
    m.caches[2] = CacheLevel::package(3, 64 * 1024 * 1024, 16, 8.0, 38.0);
    m.vector = Some(VectorIsa {
        family: crate::vector::VectorFamily::Rvv10,
        width_bits: 256,
        supports_fp32: true,
        supports_fp64: true,
        supports_int: true,
        fma: true,
    });
    m.memory = crate::memory::MemorySystem::new(8, 25.6, 100.0).with_remote_penalty(1.4);
    // Two controllers per region.
    let regions: Vec<crate::topology::NumaRegion> = m
        .topology
        .regions()
        .iter()
        .map(|r| crate::topology::NumaRegion {
            id: r.id,
            core_ranges: r.core_ranges.clone(),
            controllers: 2,
        })
        .collect();
    m.topology = Topology::new(64, 4, regions);
    m
}

/// StarFive VisionFive V1 (JH7100): 2 × SiFive U74 @ 1.5 GHz, no RVV.
///
/// The paper found the V1 three to six times slower than the V2 despite the
/// identical core and listed clock, and hypothesised (without confirmation)
/// a slower memory subsystem. We encode that hypothesis: the JH7100's
/// LPDDR4 path is modelled at a fraction of the JH7110's bandwidth with much
/// higher latency, which is also consistent with the JH7100's known
/// non-coherent L2/DMA design.
fn visionfive_v1() -> Machine {
    Machine {
        id: MachineId::VisionFiveV1,
        name: "StarFive VisionFive V1".into(),
        part: "JH7100".into(),
        clock_ghz: 1.5,
        core: CoreModel::sifive_u74(),
        caches: vec![
            CacheLevel::private(1, 32 * 1024, 4, 16.0, 2.0),
            CacheLevel::package(2, 2 * 1024 * 1024, 16, 6.0, 24.0),
        ],
        vector: None,
        topology: Topology::contiguous(2, 1, 1, 2),
        memory: MemorySystem::new(1, 2.8, 320.0),
    }
}

/// StarFive VisionFive V2 (JH7110): 4 × SiFive U74 @ 1.5 GHz, no RVV.
fn visionfive_v2() -> Machine {
    Machine {
        id: MachineId::VisionFiveV2,
        name: "StarFive VisionFive V2".into(),
        part: "JH7110".into(),
        clock_ghz: 1.5,
        core: CoreModel::sifive_u74(),
        caches: vec![
            CacheLevel::private(1, 32 * 1024, 4, 16.0, 2.0),
            CacheLevel::package(2, 2 * 1024 * 1024, 16, 6.0, 21.0),
        ],
        vector: None,
        topology: Topology::contiguous(4, 1, 1, 4),
        memory: MemorySystem::new(1, 8.8, 140.0),
    }
}

/// AMD Rome EPYC 7742 (ARCHER2): 64 Zen 2 cores @ 2.25 GHz, AVX2, four NUMA
/// regions of 16 cores (NPS4), eight DDR4-3200 controllers, 16 MB L3 per
/// 4-core CCX.
fn amd_rome() -> Machine {
    Machine {
        id: MachineId::AmdRome,
        name: "AMD Rome".into(),
        part: "EPYC 7742".into(),
        clock_ghz: 2.25,
        core: CoreModel::zen2(),
        caches: vec![
            CacheLevel::private(1, 32 * 1024, 8, 64.0, 4.0),
            CacheLevel::private(2, 512 * 1024, 8, 32.0, 12.0),
            CacheLevel::per_cluster(3, 16 * 1024 * 1024, 16, 16.0, 39.0),
        ],
        vector: Some(VectorIsa::avx2()),
        topology: Topology::contiguous(64, 4, 2, 4),
        memory: MemorySystem::new(8, 25.6, 96.0).with_remote_penalty(1.4),
    }
}

/// Intel Broadwell Xeon E5-2695 (Cirrus): 18 cores @ 2.1 GHz, AVX2, single
/// NUMA region, four DDR4-2400 controllers, 45 MB shared L3.
fn intel_broadwell() -> Machine {
    Machine {
        id: MachineId::IntelBroadwell,
        name: "Intel Broadwell".into(),
        part: "Xeon E5-2695".into(),
        clock_ghz: 2.1,
        core: CoreModel::broadwell(),
        caches: vec![
            CacheLevel::private(1, 32 * 1024, 8, 64.0, 4.0),
            CacheLevel::private(2, 256 * 1024, 8, 32.0, 12.0),
            // 45 MB is not a power-of-two set count at 20 ways; model the
            // nearest well-formed 16-way 32 MB for the set-indexed simulator.
            CacheLevel::package(3, 32 * 1024 * 1024, 16, 16.0, 38.0),
        ],
        vector: Some(VectorIsa::avx2()),
        topology: Topology::contiguous(18, 1, 4, 18),
        memory: MemorySystem::new(4, 19.2, 90.0),
    }
}

/// Intel Icelake Xeon 6330: 28 cores @ 2.0 GHz, AVX-512, single NUMA region,
/// eight DDR4-2933 controllers, 1.25 MB L2 per core (modelled 1 MB), 42 MB
/// shared L3 (modelled 32 MB for well-formed set indexing).
fn intel_icelake() -> Machine {
    Machine {
        id: MachineId::IntelIcelake,
        name: "Intel Icelake".into(),
        part: "Xeon 6330".into(),
        clock_ghz: 2.0,
        core: CoreModel::icelake(),
        caches: vec![
            CacheLevel::private(1, 48 * 1024, 12, 64.0, 5.0),
            CacheLevel::private(2, 1024 * 1024, 16, 48.0, 13.0),
            CacheLevel::package(3, 32 * 1024 * 1024, 16, 16.0, 42.0),
        ],
        vector: Some(VectorIsa::avx512()),
        topology: Topology::contiguous(28, 1, 8, 28),
        memory: MemorySystem::new(8, 23.5, 85.0),
    }
}

/// Intel Sandybridge Xeon E5-2609 (2012): 4 cores @ 2.4 GHz, AVX (no FMA),
/// 10 MB shared L3 (modelled 8 MB), four DDR3-1066 controllers.
fn intel_sandybridge() -> Machine {
    Machine {
        id: MachineId::IntelSandybridge,
        name: "Intel Sandybridge".into(),
        part: "Xeon E5-2609".into(),
        clock_ghz: 2.4,
        core: CoreModel::sandybridge(),
        caches: vec![
            CacheLevel::private(1, 32 * 1024, 8, 48.0, 4.0),
            CacheLevel::private(2, 256 * 1024, 8, 32.0, 12.0),
            CacheLevel::package(3, 8 * 1024 * 1024, 16, 12.0, 30.0),
        ],
        vector: Some(VectorIsa::avx_sandybridge()),
        topology: Topology::contiguous(4, 1, 4, 4),
        memory: MemorySystem::new(4, 8.5, 80.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_has_one_validated_entry_shared_across_threads() {
        let addrs = || MachineId::CATALOG.map(|id| catalog(id) as *const Machine as usize);
        let here = addrs();
        assert_eq!(here.len(), 8);
        let seen: Vec<[usize; 8]> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|_| s.spawn(addrs)).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, id) in MachineId::CATALOG.into_iter().enumerate() {
            let entry = catalog(id);
            assert_eq!(entry.id, id);
            assert!(std::ptr::eq(entry, catalog(id)), "{id:?}: one entry per id");
            assert!(seen.iter().all(|s| s[i] == here[i]), "{id:?}: every thread sees one entry");
            entry.validate().unwrap_or_else(|e| panic!("{e}"));
            let text = format!("{entry:?}");
            assert_eq!(format!("{:?}", machine(id)), text, "{id:?}");
            assert_eq!(format!("{:?}", build(id)), text, "{id:?}");
        }
    }

    #[test]
    fn table4_matches_paper() {
        // Paper Table 4: part, clock, cores, vector ISA.
        let rome = machine(MachineId::AmdRome);
        assert_eq!(rome.part, "EPYC 7742");
        assert_eq!(rome.clock_ghz, 2.25);
        assert_eq!(rome.n_cores(), 64);

        let bdw = machine(MachineId::IntelBroadwell);
        assert_eq!(bdw.part, "Xeon E5-2695");
        assert_eq!(bdw.clock_ghz, 2.1);
        assert_eq!(bdw.n_cores(), 18);

        let icx = machine(MachineId::IntelIcelake);
        assert_eq!(icx.part, "Xeon 6330");
        assert_eq!(icx.clock_ghz, 2.0);
        assert_eq!(icx.n_cores(), 28);
        assert_eq!(icx.vector.as_ref().unwrap().width_bits, 512);

        let snb = machine(MachineId::IntelSandybridge);
        assert_eq!(snb.part, "Xeon E5-2609");
        assert_eq!(snb.clock_ghz, 2.4);
        assert_eq!(snb.n_cores(), 4);
    }

    #[test]
    fn sg2042_structure_matches_paper() {
        let m = sg2042();
        assert_eq!(m.n_cores(), 64);
        assert_eq!(m.clock_ghz, 2.0);
        assert_eq!(m.topology.n_regions(), 4);
        assert_eq!(m.topology.cluster_size(), 4);
        assert_eq!(m.memory.controllers, 4);
        assert_eq!(m.cache_level(1).unwrap().size_bytes, 64 * 1024);
        assert_eq!(m.cache_level(2).unwrap().size_bytes, 1024 * 1024);
        assert_eq!(m.cache_level(3).unwrap().size_bytes, 64 * 1024 * 1024);
    }

    #[test]
    fn next_gen_implements_the_conclusions_wishlist() {
        let ng = machine(MachineId::Sg2042NextGen);
        ng.validate().unwrap();
        assert!(ng.vectorises_fp(64), "FP64 vectorisation");
        assert_eq!(ng.vector.as_ref().unwrap().width_bits, 256, "wider registers");
        assert!(
            ng.cache_level(1).unwrap().size_bytes > sg2042().cache_level(1).unwrap().size_bytes
        );
        assert_eq!(ng.topology.regions()[0].controllers, 2, "more controllers per region");
        assert_eq!(ng.n_cores(), 64, "same floorplan");
    }

    #[test]
    fn v1_memory_slower_than_v2() {
        // Encodes the paper's V1-vs-V2 anomaly hypothesis.
        let v1 = visionfive_v1();
        let v2 = visionfive_v2();
        assert!(v1.peak_dram_bandwidth() < v2.peak_dram_bandwidth() / 2.0);
        assert!(v1.memory.dram_latency_ns > v2.memory.dram_latency_ns);
    }

    #[test]
    fn rome_matches_paper_cache_quote() {
        // "32KB of I and 32KB of D L1 cache, 512 KB of L2 cache, and there
        //  is 16MB of L3 cache shared between four cores"
        let m = amd_rome();
        assert_eq!(m.cache_level(1).unwrap().size_bytes, 32 * 1024);
        assert_eq!(m.cache_level(2).unwrap().size_bytes, 512 * 1024);
        assert_eq!(m.cache_level(3).unwrap().size_bytes, 16 * 1024 * 1024);
        assert_eq!(m.topology.cluster_size(), 4);
        assert_eq!(m.memory.controllers, 8);
    }

    #[test]
    fn modern_x86_vectorises_fp64_but_sg2042_does_not() {
        // Rome/Broadwell/Icelake vectorise FP64; the 2012 Sandybridge part
        // gains nothing from AVX at FP64 in this study (see VectorIsa), and
        // the C920 lacks FP64 vectors entirely.
        for m in x86_machines() {
            if m.id == MachineId::IntelSandybridge {
                assert!(!m.vectorises_fp(64), "{}", m.name);
            } else {
                assert!(m.vectorises_fp(64), "{}", m.name);
            }
        }
        assert!(!sg2042().vectorises_fp(64));
    }
}
