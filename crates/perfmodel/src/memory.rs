//! The memory-time model: cache traffic, shared-cache contention, and
//! NUMA memory-controller queueing.
//!
//! This module is where the paper's placement results come from:
//!
//! * shared L2/L3 capacity and bandwidth are divided by the number of
//!   threads the placement parks in each sharing domain, so cluster-cyclic
//!   placement (1 thread per 4-core cluster up to 16 threads) keeps full
//!   1 MB L2 shares while block placement packs 4 threads per cluster;
//! * DRAM bandwidth is per-controller: block placement at 32 threads lands
//!   16 threads on each of two controllers while cyclic lands 8 on each of
//!   four, and a queueing factor makes oversubscription degrade
//!   super-linearly (Table 1's collapse).
//!
//! A [`MemoryEnv`] holds its per-level shares inline, so resolving one for
//! a catalog machine allocates nothing. Every cold estimate runs
//! [`memory_seconds`], so it allocates nothing either:
//! each stream's per-level traffic comes from `cachesim`'s
//! allocation-free [`stream_traffic`] core into stack buffers (a
//! hierarchy deeper than `INLINE_LEVELS` takes one heap buffer), and the
//! streams are visited in workload order so the floating-point sums are
//! the same whichever way they are held.

use crate::calibration::Calibration;
use rvhpc_cachesim::analytic::{stream_traffic, AccessSpec, Locality};
use rvhpc_kernels::{Access, StreamSpec, Workload};
use rvhpc_machines::{CacheSharing, Machine, Occupancy, Placement};
use std::fmt;
use std::ops::Deref;

/// Resolved memory environment for one run.
#[derive(Debug, Clone)]
pub struct MemoryEnv {
    /// Per-thread capacity share at each cache level.
    pub capacity_shares: PerLevel,
    /// Per-thread bandwidth share at each cache level (bytes/cycle).
    pub bw_shares: PerLevel,
    /// Threads contending for the busiest memory controller.
    pub threads_per_controller: f64,
    /// Cache line size.
    pub line_bytes: f64,
}

impl MemoryEnv {
    /// Derive the environment from a machine and a placement.
    pub fn new(machine: &Machine, placement: &Placement) -> Self {
        MemoryEnv::from_counts(
            machine,
            placement.n_threads(),
            placement.max_threads_per_cluster(),
            &placement.threads_per_region,
        )
    }

    /// Derive the environment from a machine and the occupancy of a
    /// placement: the same environment as [`MemoryEnv::new`] of the
    /// policy's map, with no allocation on any catalog machine.
    pub fn of_occupancy(machine: &Machine, occupancy: &Occupancy) -> Self {
        MemoryEnv::from_counts(
            machine,
            occupancy.n_threads(),
            occupancy.max_threads_per_cluster(),
            occupancy.threads_per_region(),
        )
    }

    fn from_counts(
        machine: &Machine,
        n_threads: usize,
        max_threads_per_cluster: usize,
        threads_per_region: &[usize],
    ) -> Self {
        let sharers = |sharing: CacheSharing| -> f64 {
            match sharing {
                CacheSharing::PerCore => 1.0,
                CacheSharing::PerCluster => max_threads_per_cluster.max(1) as f64,
                CacheSharing::Package => n_threads.max(1) as f64,
            }
        };
        let capacity_shares = PerLevel::from_levels(
            machine.caches.iter().map(|c| c.size_bytes as f64 / sharers(c.sharing)),
        );
        let bw_shares = PerLevel::from_levels(machine.caches.iter().map(|c| {
            // Private levels keep full bandwidth. Shared caches are
            // banked: up to ~8 requesters stream from different banks
            // at full speed and only beyond that does per-thread
            // bandwidth divide — DRAM controllers, not the L2/L3
            // fabrics, are where contention bites first on these parts.
            let s = (sharers(c.sharing) / 8.0).max(1.0);
            c.bandwidth_bytes_per_cycle / s
        }));
        // Busiest controller: threads in the fullest region divided over
        // that region's controllers.
        let threads_per_controller = machine
            .topology
            .regions()
            .iter()
            .map(|r| threads_per_region[r.id] as f64 / r.controllers as f64)
            .fold(0.0f64, f64::max)
            .max(1.0);
        MemoryEnv {
            capacity_shares,
            bw_shares,
            threads_per_controller,
            line_bytes: machine.caches[0].line_bytes as f64,
        }
    }
}

/// One value per cache level, held inline up to `INLINE_LEVELS` levels
/// (every catalog machine) and on the heap beyond. It reads as a slice
/// and debug-prints as one.
#[derive(Clone)]
pub struct PerLevel {
    inline: [f64; INLINE_LEVELS],
    spilled: Vec<f64>,
    len: usize,
}

impl PerLevel {
    fn from_levels(values: impl ExactSizeIterator<Item = f64>) -> Self {
        let len = values.len();
        let mut out = PerLevel { inline: [0.0; INLINE_LEVELS], spilled: Vec::new(), len };
        if len > INLINE_LEVELS {
            out.spilled.extend(values);
        } else {
            for (slot, v) in out.inline.iter_mut().zip(values) {
                *slot = v;
            }
        }
        out
    }
}

impl Deref for PerLevel {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        if self.len > INLINE_LEVELS {
            &self.spilled
        } else {
            &self.inline[..self.len]
        }
    }
}

impl fmt::Debug for PerLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The bytes of a kernel stream one thread's share of the work touches:
/// static chunks split a sequential or strided footprint contiguously,
/// while random streams roam the whole array.
fn footprint_bytes(stream: &StreamSpec, default_elem_bytes: f64, effective_threads: f64) -> f64 {
    let eb = stream.elem_bytes_override.map_or(default_elem_bytes, f64::from);
    match stream.access {
        Access::Sequential | Access::Strided(_) => stream.elems * eb / effective_threads,
        Access::Random => stream.elems * eb,
    }
}

/// Convert a kernel stream into the cache model's access spec for one
/// thread's share of the work.
pub(crate) fn to_access_spec(
    stream: &StreamSpec,
    default_elem_bytes: f64,
    effective_threads: f64,
) -> AccessSpec {
    let eb = stream.elem_bytes_override.map_or(default_elem_bytes, f64::from);
    let footprint_bytes = footprint_bytes(stream, default_elem_bytes, effective_threads);
    match stream.access {
        Access::Sequential => AccessSpec {
            footprint_bytes,
            elem_bytes: eb,
            stride_bytes: eb,
            passes: stream.passes,
            write_fraction: stream.write_fraction,
            locality: Locality::Sequential,
        },
        Access::Strided(s) => AccessSpec {
            footprint_bytes,
            elem_bytes: eb,
            stride_bytes: s * eb,
            passes: stream.passes,
            write_fraction: stream.write_fraction,
            locality: Locality::Strided,
        },
        Access::Random => AccessSpec {
            // Each thread issues its share of the random accesses.
            footprint_bytes,
            elem_bytes: eb,
            stride_bytes: eb,
            passes: stream.passes / effective_threads,
            write_fraction: stream.write_fraction,
            locality: Locality::Random,
        },
    }
}

/// Cache levels [`memory_seconds`] keeps its per-level buffers for on the
/// stack, and a [`MemoryEnv`] its shares inline: every catalog machine has
/// at most three, and `Machine::validate` admits at most four. Deeper
/// hand-built descriptors take the heap.
pub(crate) const INLINE_LEVELS: usize = 4;

/// Seconds one thread spends waiting on the memory system per repetition.
#[allow(clippy::too_many_arguments)]
pub fn memory_seconds(
    machine: &Machine,
    cal: &Calibration,
    env: &MemoryEnv,
    w: &Workload,
    elem_bytes: f64,
    effective_threads: f64,
    vector_lanes: u32,
    compute_seconds_hint: f64,
) -> f64 {
    if w.streams.is_empty() {
        return 0.0;
    }
    let clock = machine.clock_ghz * 1e9;

    let vectored = vector_lanes > 1;
    // Live streams compete for cache capacity: allot each stream a share
    // of every level proportional to its footprint (the LRU steady state
    // for concurrently swept arrays). Without this, two 40 MB arrays would
    // each "fit" a 64 MB L3. The footprint sum runs in stream order and
    // builds no access spec.
    let footprint = |s| footprint_bytes(s, elem_bytes, effective_threads);
    let total_footprint: f64 = w.streams.iter().map(footprint).sum::<f64>().max(1.0);

    // Three per-level buffers — the stream's capacity shares, its fetches
    // and the running fetch totals — on the stack up to `INLINE_LEVELS`,
    // else in one heap buffer.
    let n = machine.caches.len();
    let mut inline = [0.0f64; 3 * INLINE_LEVELS];
    let mut spilled = Vec::new();
    let scratch: &mut [f64] = if n <= INLINE_LEVELS {
        &mut inline[..3 * n]
    } else {
        spilled.resize(3 * n, 0.0);
        &mut spilled
    };
    let (caps, rest) = scratch.split_at_mut(n);
    let (stream_fetch, fetch) = rest.split_at_mut(n);

    let mut requested = 0.0f64;
    let mut dram_wb = 0.0f64;
    for s in &w.streams {
        let spec = to_access_spec(s, elem_bytes, effective_threads);
        let share = spec.footprint_bytes / total_footprint;
        for (cap, c) in caps.iter_mut().zip(env.capacity_shares.iter()) {
            *cap = c * share;
        }
        // Steady-state accounting: the paper measures repetitions over
        // resident arrays, so one-off cold fills amortise away.
        let t = stream_traffic(caps, env.line_bytes, true, &spec, stream_fetch);
        requested += t.requested_bytes;
        for (acc, f) in fetch.iter_mut().zip(&*stream_fetch) {
            *acc += f;
        }
        // Scalar stores pay write-allocate read-for-ownership without the
        // write-combining that vector/streaming stores get.
        let wb_factor = if vectored { 1.0 } else { cal.scalar_store_penalty };
        dram_wb += t.dram_writeback_bytes * wb_factor;
    }

    // The hierarchy pipelines: an L2→L1 fill overlaps the L3→L2 fill of
    // the next line, so the memory time is the *bottleneck* boundary, not
    // the sum of all boundaries.
    //
    // L1 service: bounded by what the core can issue per cycle (load/store
    // pipes × element width × lanes) and by the L1 port width.
    let issue_bytes_per_cycle =
        machine.core.load_store_units as f64 * elem_bytes * vector_lanes.max(1) as f64;
    let l1_bw = issue_bytes_per_cycle.min(env.bw_shares[0]);
    let mut time = requested / (l1_bw * clock);

    // Inner boundaries: level i+1 serves the fetches into level i that it
    // actually hits on (traffic bound for DRAM passes through on the fill
    // path and is charged at the DRAM boundary instead). Scalar memory ops
    // cannot keep enough requests in flight to saturate the outer levels
    // either — the same issue-rate limitation the DRAM path models.
    let issue_fraction = if vectored { 1.0 } else { cal.scalar_stream_fraction };
    for i in 0..n - 1 {
        let served = (fetch[i] - fetch[i + 1]).max(0.0);
        time = time.max(served / (env.bw_shares[i + 1] * issue_fraction * clock));
    }

    // DRAM boundary: bandwidth share of the busiest controller plus a
    // queueing penalty that grows with controller oversubscription.
    let dram_bytes = fetch[n - 1] + dram_wb;
    if dram_bytes > 0.0 {
        let ctrl_bw = machine.memory.controller_bandwidth() * cal.dram_efficiency;
        // Scalar memory ops can't keep the memory pipeline full on every
        // machine (the C920's stream-class vectorisation benefit).
        let core_bw =
            cal.per_core_stream_bw * if vectored { 1.0 } else { cal.scalar_stream_fraction };
        let share = (ctrl_bw / env.threads_per_controller).min(core_bw);

        // Demand rate this thread would generate if memory were free:
        // its DRAM bytes over its compute time (floored to avoid inf).
        let demand = dram_bytes / compute_seconds_hint.max(1e-9);
        let k = env.threads_per_controller;
        // Controller overload factor: total desired rate over capacity.
        // Below `QUEUE_KNEE` the controller keeps up; beyond it, row-buffer
        // interference and queueing degrade super-linearly with a
        // machine-specific sensitivity (the SG2042's 64-thread collapse).
        let overload = k * demand.min(cal.per_core_stream_bw) / ctrl_bw;
        let queue_mult = queue_multiplier(cal.queue_sensitivity, overload);

        let bw_time = dram_bytes / share;
        let lat_time =
            (dram_bytes / env.line_bytes) * machine.memory.dram_latency_ns * 1e-9 / cal.mlp;
        time = time.max(bw_time.max(lat_time) * queue_mult);
    }
    time
}

/// Controller overload below which queueing costs nothing.
const QUEUE_KNEE: f64 = 2.6;

/// `1 + sensitivity · max(overload − QUEUE_KNEE, 0)^1.5`. Most estimates
/// sit below the knee, where the power is skipped; the product is still
/// taken, so a NaN or infinite sensitivity yields NaN there as well.
fn queue_multiplier(sensitivity: f64, overload: f64) -> f64 {
    let excess = (overload - QUEUE_KNEE).max(0.0);
    let pow = if excess == 0.0 { 0.0 } else { excess.powf(1.5) };
    1.0 + sensitivity * pow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Model;
    use rvhpc_kernels::{workload, KernelName};
    use rvhpc_machines::{machine, MachineId, PlacementPolicy};

    fn sg() -> Machine {
        machine(MachineId::Sg2042)
    }

    #[test]
    fn queue_multiplier_keeps_the_bits_of_the_unconditional_power() {
        let reference = |s: f64, o: f64| 1.0 + s * (o - QUEUE_KNEE).max(0.0).powf(1.5);
        let below = f64::from_bits(QUEUE_KNEE.to_bits() - 1);
        let above = f64::from_bits(QUEUE_KNEE.to_bits() + 1);
        for s in [0.0, 0.5, 3.0, f64::INFINITY, f64::NAN] {
            for o in [0.0, 1.0, below, QUEUE_KNEE, above, 3.0, 40.0, f64::NAN] {
                assert_eq!(
                    queue_multiplier(s, o).to_bits(),
                    reference(s, o).to_bits(),
                    "sensitivity {s}, overload {o}"
                );
            }
        }
    }

    #[test]
    fn cluster_cyclic_gets_bigger_l2_share_than_block() {
        let m = sg();
        let block = MemoryEnv::new(&m, &PlacementPolicy::Block.map(&m.topology, 16));
        let cluster = MemoryEnv::new(&m, &PlacementPolicy::ClusterCyclic.map(&m.topology, 16));
        // L2 is level index 1.
        assert_eq!(cluster.capacity_shares[1], 1024.0 * 1024.0, "one thread per cluster");
        assert_eq!(block.capacity_shares[1], 256.0 * 1024.0, "four threads per cluster");
    }

    #[test]
    fn block_32_overloads_controllers_vs_cyclic() {
        let m = sg();
        let block = MemoryEnv::new(&m, &PlacementPolicy::Block.map(&m.topology, 32));
        let cyclic = MemoryEnv::new(&m, &PlacementPolicy::NumaCyclic.map(&m.topology, 32));
        assert_eq!(block.threads_per_controller, 16.0, "two regions carry everything");
        assert_eq!(cyclic.threads_per_controller, 8.0, "spread over four regions");
    }

    #[test]
    fn stream_triad_is_memory_bound_on_sg2042() {
        let m = sg();
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let w = workload(KernelName::STREAM_TRIAD, 8_000_000);
        let env = MemoryEnv::new(&m, &PlacementPolicy::Block.map(&m.topology, 1));
        let mem = memory_seconds(&m, cal, &env, &w, 8.0, 1.0, 1, 1e-3);
        // 3 × 64 MB arrays from DRAM at ≤ 5.5 GB/s: tens of milliseconds.
        assert!(mem > 5e-3, "{mem}");
    }

    #[test]
    fn memory_time_grows_under_block_placement_contention() {
        let m = sg();
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let w = workload(KernelName::STREAM_TRIAD, 8_000_000);
        let per_thread_compute = 1e-3;
        let t16 = {
            let env = MemoryEnv::new(&m, &PlacementPolicy::Block.map(&m.topology, 16));
            memory_seconds(&m, cal, &env, &w, 8.0, 16.0, 1, per_thread_compute)
        };
        let t32 = {
            let env = MemoryEnv::new(&m, &PlacementPolicy::Block.map(&m.topology, 32));
            memory_seconds(&m, cal, &env, &w, 8.0, 32.0, 1, per_thread_compute)
        };
        // Per-thread work halves but the controller share also halves and
        // queueing worsens: no speedup from 16 → 32 under block placement.
        assert!(t32 > 0.9 * t16, "t16={t16} t32={t32}");
    }

    #[test]
    fn cyclic_beats_block_at_32_threads() {
        let m = sg();
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let w = workload(KernelName::STREAM_TRIAD, 8_000_000);
        let mk = |policy: PlacementPolicy| {
            let env = MemoryEnv::new(&m, &policy.map(&m.topology, 32));
            memory_seconds(&m, cal, &env, &w, 8.0, 32.0, 1, 1e-3)
        };
        assert!(mk(PlacementPolicy::NumaCyclic) < mk(PlacementPolicy::Block));
    }

    #[test]
    fn l3_resident_matrix_work_barely_touches_dram() {
        let m = sg();
        let cal = Model::paper().calibration_of(MachineId::Sg2042);
        let w = workload(KernelName::GEMM, 1_000_000); // 8 MB/matrix fits 64 MB L3
        let env = MemoryEnv::new(&m, &PlacementPolicy::Block.map(&m.topology, 1));
        let mem = memory_seconds(&m, cal, &env, &w, 8.0, 1.0, 1, 1.0);
        let stream_w = workload(KernelName::STREAM_TRIAD, 8_000_000);
        let stream_mem = memory_seconds(&m, cal, &env, &stream_w, 8.0, 1.0, 1, 1e-3);
        // GEMM does ~2 GFLOP; its memory time must be far below what the
        // same model charges a DRAM-resident stream sweep per byte.
        let gemm_per_req = mem / w.requested_bytes(8);
        let stream_per_req = stream_mem / stream_w.requested_bytes(8);
        assert!(gemm_per_req < stream_per_req, "{gemm_per_req} vs {stream_per_req}");
    }
}
