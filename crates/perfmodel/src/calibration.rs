//! Calibrated effective-performance constants, one block per machine.
//!
//! Everything architectural (clocks, cache sizes, controller counts, vector
//! widths, NUMA maps) lives in `rvhpc-machines` and comes from datasheets.
//! What remains here is the small set of *effectiveness* constants a cycle
//! model cannot derive from a datasheet: sustained IPC on loop code,
//! achievable fractions of peak bandwidth, costs of expensive scalar ops,
//! synchronisation costs. Each value cites its source: a public
//! benchmark, a micro-architectural argument, or a paper observation.

use rvhpc_machines::MachineId;
use std::sync::OnceLock;

/// Effective-performance constants for one machine.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Sustained cheap-FP operations per cycle per core on scalar loop
    /// code (captures issue width, OoO depth, dependency stalls).
    pub scalar_flops_per_cycle: f64,
    /// Sustained integer ALU ops per cycle on loop code.
    pub int_ops_per_cycle: f64,
    /// Cycles per expensive op (div/sqrt/exp amortised mix).
    pub expensive_op_cycles: f64,
    /// Loop-control cycles per iteration (branch + induction).
    pub loop_overhead_cycles: f64,
    /// Machine-level multiplier on the ideal lane speedup (vector issue
    /// limitations, chaining quality).
    pub vector_efficiency: f64,
    /// Extra multiplier on vector-loop cycles for VLA code (strip-mine
    /// `vsetvli` + dynamic pointer bumps); 1.0 for machines without a VLA
    /// concept.
    pub vla_overhead: f64,
    /// Fraction of lane speedup retained by gather/scatter loops.
    pub gather_retention: f64,
    /// Outstanding misses a core sustains (memory-level parallelism).
    pub mlp: f64,
    /// Bytes/s one core can stream from DRAM (single-thread STREAM,
    /// measured with the machine's best memory instructions — vector where
    /// available).
    pub per_core_stream_bw: f64,
    /// Fraction of `per_core_stream_bw` reachable with scalar memory ops
    /// only. On the C920 scalar loads cannot keep the memory pipeline
    /// full — vectorisation's stream-class benefit in the paper's Figure 2
    /// comes from exactly this; mature x86 prefetchers saturate from scalar
    /// code too.
    pub scalar_stream_fraction: f64,
    /// Multiplier on DRAM write-back traffic when vector/streaming stores
    /// are not used (write-allocate read-for-ownership with no
    /// write-combining). 1.0 where the hardware streams stores well.
    pub scalar_store_penalty: f64,
    /// Achievable fraction of a controller's peak bandwidth under load.
    pub dram_efficiency: f64,
    /// Coefficient of the controller-oversubscription queueing penalty.
    /// The SG2042's memory subsystem degrades catastrophically once many
    /// cores hammer one controller (the paper's 64-thread collapse in
    /// Tables 1-3); server x86 parts arbitrate gracefully and take a much
    /// smaller value.
    pub queue_sensitivity: f64,
    /// Fork-join barrier base cost in nanoseconds.
    pub barrier_ns_base: f64,
    /// Additional barrier nanoseconds per participating thread.
    pub barrier_ns_per_thread: f64,
}

/// The performance model: one [`Calibration`] per machine, and nothing
/// else. Estimates take the machine's architecture from its descriptor and
/// its effectiveness constants from the model.
#[derive(Debug, Clone)]
pub struct Model {
    /// Indexed by `MachineId` discriminant.
    calibrations: [Calibration; MachineId::CATALOG.len()],
}

impl Model {
    /// The calibration the paper's artefacts are reproduced under, built
    /// once per process: every call returns the same `&'static` model, the
    /// only one the estimate cache serves ([`crate::cache`]).
    pub fn paper() -> &'static Model {
        static PAPER: OnceLock<Model> = OnceLock::new();
        PAPER.get_or_init(|| Model { calibrations: MachineId::CATALOG.map(paper_calibration) })
    }

    /// The constants of one machine.
    pub fn calibration_of(&self, id: MachineId) -> &Calibration {
        &self.calibrations[id as usize]
    }

    /// The constants of one machine, for editing a clone of a model.
    pub fn calibration_mut(&mut self, id: MachineId) -> &mut Calibration {
        &mut self.calibrations[id as usize]
    }
}

/// The paper model's calibration of each machine.
fn paper_calibration(id: MachineId) -> Calibration {
    match id {
        // The what-if next-gen part inherits the C920 core calibration but
        // with the memory pathologies the redesign addresses removed:
        // saturating vector memory ops, graceful controller arbitration.
        MachineId::Sg2042NextGen => Calibration {
            scalar_stream_fraction: 0.8,
            scalar_store_penalty: 1.1,
            per_core_stream_bw: 8e9,
            queue_sensitivity: 0.2,
            mlp: 10.0,
            dram_efficiency: 0.6,
            ..paper_calibration(MachineId::Sg2042)
        },
        // XuanTie C920 @ 2.0 GHz. 3-wide decode, 8-issue OoO, 2 FP pipes:
        // sustained ~1.3 flops/cycle on RAJAPerf-style loops (the core is
        // wide but the uncore is slow; T-Head's own materials quote ~5.8
        // CoreMark/MHz, strong for RISC-V but well below server x86).
        // Single-core copy bandwidth measured by early SG2042 reviews is
        // ~5–6 GB/s; the package sustains well under half of the 102 GB/s
        // peak (the paper's own scaling data and other SG2042 studies put
        // achievable DRAM efficiency near 0.45). Barrier costs are high:
        // 64 cores, slow mesh.
        MachineId::Sg2042 => Calibration {
            scalar_flops_per_cycle: 1.3,
            int_ops_per_cycle: 2.6,
            expensive_op_cycles: 14.0,
            loop_overhead_cycles: 0.5,
            vector_efficiency: 0.55,
            vla_overhead: 1.12,
            gather_retention: 0.3,
            mlp: 6.0,
            per_core_stream_bw: 3.4e9,
            scalar_stream_fraction: 0.65,
            scalar_store_penalty: 1.5,
            dram_efficiency: 0.42,
            queue_sensitivity: 2.0,
            barrier_ns_base: 900.0,
            barrier_ns_per_thread: 55.0,
        },
        // SiFive U74 @ 1.5 GHz: dual-issue in-order, one FP pipe; in-order
        // stalls on every L1 miss cut sustained FP throughput to ~0.28
        // flops/cycle on these loops. JH7110 single-channel DDR4 sustains
        // ~1.4 GB/s from one core.
        MachineId::VisionFiveV2 => Calibration {
            scalar_flops_per_cycle: 0.45,
            int_ops_per_cycle: 0.9,
            expensive_op_cycles: 26.0,
            loop_overhead_cycles: 1.0,
            vector_efficiency: 0.0, // no vector unit
            vla_overhead: 1.0,
            gather_retention: 0.0,
            mlp: 1.6,
            per_core_stream_bw: 1.1e9,
            scalar_stream_fraction: 1.0,
            scalar_store_penalty: 2.2,
            dram_efficiency: 0.5,
            queue_sensitivity: 0.5,
            barrier_ns_base: 300.0,
            barrier_ns_per_thread: 40.0,
        },
        // VisionFive V1 (JH7100): same U74 core, but the paper found it
        // 3–6× slower than the V2 and hypothesised the memory subsystem;
        // the JH7100's non-coherent LPDDR4 path sustains a fraction of the
        // V2's bandwidth at ~2.3× the latency, and the stalls drag
        // effective IPC down further on anything that touches memory.
        MachineId::VisionFiveV1 => Calibration {
            scalar_flops_per_cycle: 0.22,
            int_ops_per_cycle: 0.8,
            expensive_op_cycles: 26.0,
            loop_overhead_cycles: 1.0,
            vector_efficiency: 0.0,
            vla_overhead: 1.0,
            gather_retention: 0.0,
            mlp: 1.2,
            per_core_stream_bw: 0.5e9,
            scalar_stream_fraction: 1.0,
            scalar_store_penalty: 2.2,
            dram_efficiency: 0.4,
            queue_sensitivity: 0.5,
            barrier_ns_base: 300.0,
            barrier_ns_per_thread: 40.0,
        },
        // AMD Zen 2 (EPYC 7742 @ 2.25 GHz): 4-wide, deep OoO, 2×256-bit FMA
        // pipes; sustained scalar ~2.0 flops/cycle. Per-core DRAM ~20 GB/s,
        // package STREAM ~140 GB/s of 205 peak (0.68).
        MachineId::AmdRome => Calibration {
            scalar_flops_per_cycle: 2.0,
            int_ops_per_cycle: 3.0,
            expensive_op_cycles: 9.0,
            loop_overhead_cycles: 0.25,
            vector_efficiency: 1.1,
            vla_overhead: 1.0,
            gather_retention: 0.45,
            mlp: 10.0,
            per_core_stream_bw: 22e9,
            scalar_stream_fraction: 0.9,
            scalar_store_penalty: 1.0,
            dram_efficiency: 0.72,
            queue_sensitivity: 0.01,
            barrier_ns_base: 400.0,
            barrier_ns_per_thread: 25.0,
        },
        // Intel Broadwell (E5-2695 @ 2.1 GHz): 4-wide OoO, 2×256-bit FMA;
        // scalar ~1.9 flops/cycle; per-core ~16 GB/s, package ~60 of 77
        // peak.
        MachineId::IntelBroadwell => Calibration {
            scalar_flops_per_cycle: 1.9,
            int_ops_per_cycle: 2.8,
            expensive_op_cycles: 10.0,
            loop_overhead_cycles: 0.25,
            vector_efficiency: 1.15,
            vla_overhead: 1.0,
            gather_retention: 0.5,
            mlp: 10.0,
            per_core_stream_bw: 17e9,
            scalar_stream_fraction: 0.9,
            scalar_store_penalty: 1.0,
            dram_efficiency: 0.72,
            queue_sensitivity: 0.01,
            barrier_ns_base: 350.0,
            barrier_ns_per_thread: 22.0,
        },
        // Intel Icelake-SP (Xeon 6330 @ 2.0 GHz): 5-wide, 2×512-bit FMA;
        // scalar ~2.1 flops/cycle; AVX-512 downclock folded into
        // vector_efficiency. Per-core ~20 GB/s, package ~140 of 188 peak.
        MachineId::IntelIcelake => Calibration {
            scalar_flops_per_cycle: 2.1,
            int_ops_per_cycle: 3.2,
            expensive_op_cycles: 8.0,
            loop_overhead_cycles: 0.22,
            vector_efficiency: 0.95,
            vla_overhead: 1.0,
            gather_retention: 0.6,
            mlp: 12.0,
            per_core_stream_bw: 21e9,
            scalar_stream_fraction: 0.92,
            scalar_store_penalty: 1.0,
            dram_efficiency: 0.75,
            queue_sensitivity: 0.01,
            barrier_ns_base: 350.0,
            barrier_ns_per_thread: 20.0,
        },
        // Intel Sandybridge (E5-2609 @ 2.4 GHz, 2012): 4-wide OoO but no
        // FMA, AVX FP executes effectively 128-bit; scalar ~1.5
        // flops/cycle; DDR3-1066, per-core ~8 GB/s of a 34 GB/s package.
        MachineId::IntelSandybridge => Calibration {
            scalar_flops_per_cycle: 1.3,
            int_ops_per_cycle: 1.9,
            expensive_op_cycles: 14.0,
            loop_overhead_cycles: 0.3,
            vector_efficiency: 0.5,
            vla_overhead: 1.0,
            gather_retention: 0.35,
            mlp: 6.0,
            per_core_stream_bw: 2.4e9,
            scalar_stream_fraction: 0.85,
            scalar_store_penalty: 1.15,
            dram_efficiency: 0.65,
            queue_sensitivity: 0.02,
            barrier_ns_base: 300.0,
            barrier_ns_per_thread: 20.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_machines_have_sane_calibrations() {
        for id in MachineId::CATALOG {
            let c = Model::paper().calibration_of(id);
            assert_eq!(format!("{c:?}"), format!("{:?}", paper_calibration(id)), "{id}");
            assert!(c.scalar_flops_per_cycle > 0.0, "{id}");
            assert!(c.int_ops_per_cycle > 0.0, "{id}");
            assert!(c.expensive_op_cycles >= 1.0, "{id}");
            assert!((0.0..=1.5).contains(&c.vector_efficiency), "{id}");
            assert!(c.vla_overhead >= 1.0, "{id}");
            assert!((0.0..=1.0).contains(&c.gather_retention), "{id}");
            assert!(c.mlp >= 1.0, "{id}");
            assert!(c.per_core_stream_bw > 0.0, "{id}");
            assert!((0.0..=1.0).contains(&c.dram_efficiency), "{id}");
        }
    }

    #[test]
    fn c920_faster_per_core_than_u74_but_slower_than_x86() {
        use rvhpc_machines::catalog;
        let gf = |id: MachineId| {
            catalog(id).clock_ghz * Model::paper().calibration_of(id).scalar_flops_per_cycle
        };
        assert!(gf(MachineId::Sg2042) > 3.0 * gf(MachineId::VisionFiveV2));
        assert!(gf(MachineId::AmdRome) > gf(MachineId::Sg2042));
        assert!(gf(MachineId::IntelIcelake) > gf(MachineId::Sg2042));
    }

    #[test]
    fn v1_memory_weaker_than_v2() {
        let v1 = Model::paper().calibration_of(MachineId::VisionFiveV1);
        let v2 = Model::paper().calibration_of(MachineId::VisionFiveV2);
        assert!(v1.per_core_stream_bw < v2.per_core_stream_bw / 2.0);
    }

    #[test]
    fn the_paper_model_is_one_value_across_threads() {
        let here: *const Model = Model::paper();
        let there: Vec<usize> = std::thread::scope(|s| {
            let spawned: Vec<_> =
                (0..4).map(|_| s.spawn(|| Model::paper() as *const Model as usize)).collect();
            spawned.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(there.iter().all(|&p| p == here as usize), "one model per process");
    }

    #[test]
    fn an_edited_clone_leaves_the_paper_model_alone() {
        let mut edited = Model::paper().clone();
        edited.calibration_mut(MachineId::Sg2042).queue_sensitivity = 0.0;
        assert_eq!(edited.calibration_of(MachineId::Sg2042).queue_sensitivity, 0.0);
        assert_eq!(Model::paper().calibration_of(MachineId::Sg2042).queue_sensitivity, 2.0);
    }
}
