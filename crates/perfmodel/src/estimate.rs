//! The top-level estimator: machine × kernel × configuration → time.

use crate::calibration::{Calibration, Model};
use crate::compute::{compute_seconds, VectorCtx};
use crate::config::RunConfig;
use crate::memory::memory_seconds;
use crate::row::RowEnv;
use crate::scaling::effective_threads;
use rvhpc_compiler::codegen::measure;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::{workload, KernelClass, KernelName, Workload};
use rvhpc_machines::Machine;
use rvhpc_rvv::Sew;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Simulated problem size per kernel: chosen so the suite exercises the
/// memory hierarchy the way the paper's runs did — 1D streaming kernels
/// exceed every cache, matrix kernels fit the big L3s (making them
/// compute-bound, which is why *polybench* scales best in Tables 1–3).
pub fn sim_size(kernel: KernelName) -> usize {
    use KernelClass::*;
    use KernelName::*;
    match kernel {
        // O(N³) min-plus: 512×512.
        FLOYD_WARSHALL => 262_144,
        // The bandwidth classes: sized past every cache so they measure the
        // memory system, the way STREAM intends (and large enough that the
        // paper's 64-thread collapse — controller queueing — reproduces).
        _ if matches!(kernel.class(), Stream | Algorithm) => 8_388_608,
        // Everything else follows RAJAPerf's ~1M default problem size
        // (1000×1000 matrices, 1000² grids, 100³ bricks, 1M-element loops).
        // At these sizes the working sets are L2/L3-resident on the big
        // machines, which is why *polybench*, *basic* and *lcals* keep
        // scaling at 64 threads in the paper's Tables 1–3 while the
        // bandwidth classes collapse.
        _ => 1_000_000,
    }
}

/// One estimated execution.
#[derive(Debug, Clone, Copy)]
pub struct TimeEstimate {
    /// Seconds per kernel repetition (the suite runner multiplies by the
    /// repetition count; speedups are invariant to it).
    pub seconds: f64,
    /// Compute component (per thread).
    pub compute_seconds: f64,
    /// Memory component (per thread).
    pub memory_seconds: f64,
    /// Fork-join overhead component.
    pub overhead_seconds: f64,
    /// Whether vector code executed.
    pub vector_path: bool,
}

/// Measured VLA/VLS instruction ratio for a codegen-covered kernel.
/// [`measure`] memoises both interpreter runs process-wide, so a repeat
/// lookup costs two memo hits (`compiler.measure.hit`).
fn measured_vla_ratio(kernel: KernelName, sew: Sew) -> Option<f64> {
    let vla = measure(kernel, VectorMode::Vla, sew, 4096)?;
    let vls = measure(kernel, VectorMode::Vls, sew, 4096)?;
    Some(vla.per_element() / vls.per_element())
}

/// Resolve whether vector code executes and with how many lanes.
pub(crate) fn resolve_vector(
    machine: &Machine,
    kernel: KernelName,
    w: &Workload,
    cfg: &RunConfig,
) -> VectorCtx {
    if !cfg.vectorize {
        return VectorCtx::scalar();
    }
    let bits = cfg.precision.bits();

    // Integer-data kernels vectorise at the integer element width whenever
    // the machine has integer vectors (this is REDUCE3_INT lifting the
    // paper's FP64 averages in Figure 2).
    let lanes = if w.vec.int_data {
        machine.vector.as_ref().map_or(1, |v| if v.supports_int { v.width_bits / 32 } else { 1 })
    } else {
        machine.vector_lanes(bits)
    };
    if lanes <= 1 {
        return VectorCtx::scalar();
    }

    let active = match cfg.toolchain.riscv_compiler() {
        // x86 GCC: the kernel's own vectorisability decides.
        None => w.vec.vectorizable,
        Some(compiler) => {
            if compiler == rvhpc_compiler::Compiler::XuanTieGcc && cfg.mode == VectorMode::Vla {
                // The GCC fork emits VLS only.
                false
            } else {
                // Capability tables + runtime path + hardware FP64 support:
                // on the C920 this refuses FP64 (the paper's finding); on
                // RVV v1.0 hardware with FP64 lanes it does not.
                rvhpc_compiler::capability::vector_path_executes(
                    compiler,
                    kernel,
                    bits,
                    machine.vectorises_fp(64),
                )
            }
        }
    };
    if !active {
        return VectorCtx::scalar();
    }
    let sew = if bits == 64 { Sew::E64 } else { Sew::E32 };
    VectorCtx {
        active,
        lanes,
        mode: cfg.mode,
        measured_vla_ratio: if cfg.mode == VectorMode::Vla {
            measured_vla_ratio(kernel, if w.vec.int_data { Sew::E32 } else { sew })
        } else {
            None
        },
    }
}

/// Estimate the time of one kernel repetition under [`Model::paper`]; a
/// [`RowEnv`] estimates under any other model, or at another problem size.
///
/// ```
/// use rvhpc_machines::{machine, MachineId};
/// use rvhpc_kernels::KernelName;
/// use rvhpc_perfmodel::{estimate, Precision, RunConfig};
///
/// let sg = machine(MachineId::Sg2042);
/// let fp32 = estimate(&sg, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp32, 1));
/// let fp64 = estimate(&sg, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp64, 1));
/// assert!(fp32.vector_path && !fp64.vector_path); // the paper's FP64 finding
/// assert!(fp32.seconds < fp64.seconds);
/// ```
pub fn estimate(machine: &Machine, kernel: KernelName, cfg: &RunConfig) -> TimeEstimate {
    RowEnv::new(Model::paper(), machine, cfg).estimate(kernel)
}

/// Every kernel-dependent intermediate quantity of one estimate; the
/// kernel-independent ones (thread count, calibration, memory environment)
/// live in the [`RowEnv`]. [`RowEnv::estimate_sized`] and the [`crate::explain`]
/// module both go through here, so the printed breakdown is always the
/// arithmetic that produced the number.
pub(crate) struct ModelParts {
    pub w: Cow<'static, Workload>,
    pub eff_t: f64,
    pub vec: VectorCtx,
    pub compute: f64,
    pub memory: f64,
    pub overhead: f64,
    pub out_of_order: bool,
}

impl ModelParts {
    /// Busy time under the overlap rule: out-of-order cores overlap compute
    /// with outstanding misses (roofline max); in-order cores like the U74
    /// stall on every miss, so compute and memory time add — which is also
    /// why the V2 shows "far less" FP32-vs-FP64 difference than the SG2042
    /// in the paper's Figure 1.
    pub fn busy(&self) -> f64 {
        if self.out_of_order {
            self.compute.max(self.memory)
        } else {
            self.compute + self.memory
        }
    }

    pub fn estimate(&self) -> TimeEstimate {
        TimeEstimate {
            seconds: self.busy() + self.overhead,
            compute_seconds: self.compute,
            memory_seconds: self.memory,
            overhead_seconds: self.overhead,
            vector_path: self.vec.active,
        }
    }
}

/// Every kernel's workload at its [`sim_size`], built once per process, so
/// a suite-size estimate borrows its descriptor instead of building one.
fn sim_workload(kernel: KernelName) -> &'static Workload {
    static TABLE: OnceLock<Vec<Workload>> = OnceLock::new();
    let table =
        TABLE.get_or_init(|| KernelName::ALL.iter().map(|&k| workload(k, sim_size(k))).collect());
    &table[kernel as usize]
}

pub(crate) fn model_parts(env: &RowEnv, kernel: KernelName, size: usize) -> ModelParts {
    let (machine, cfg, cal) = (env.machine(), env.config(), env.cal());
    let w = if size == sim_size(kernel) {
        Cow::Borrowed(sim_workload(kernel))
    } else {
        Cow::Owned(workload(kernel, size))
    };
    let eff_t = effective_threads(kernel, env.threads());
    let vec = resolve_vector(machine, kernel, &w, cfg);

    let iters_per_thread = w.iterations / eff_t;
    let compute = compute_seconds(machine, cal, &w, &vec, iters_per_thread);

    let elem_bytes = f64::from(cfg.precision.bytes());
    let memory = memory_seconds(
        machine,
        cal,
        env.memory(),
        &w,
        elem_bytes,
        eff_t,
        if vec.active { vec.lanes } else { 1 },
        compute,
    );

    let overhead = fork_join_overhead(cal, env.threads());
    ModelParts { w, eff_t, vec, compute, memory, overhead, out_of_order: machine.core.out_of_order }
}

fn fork_join_overhead(cal: &Calibration, threads: usize) -> f64 {
    if threads <= 1 {
        0.0
    } else {
        (cal.barrier_ns_base + cal.barrier_ns_per_thread * threads as f64) * 1e-9
    }
}

/// The paper averages every measurement over five runs; we do the same
/// with deterministic ±2 % jitter so repeated invocations agree exactly.
/// Under [`Model::paper`], uncached ([`crate::estimate_cached`] is the
/// cached form).
pub fn estimate_averaged(machine: &Machine, kernel: KernelName, cfg: &RunConfig) -> TimeEstimate {
    RowEnv::new(Model::paper(), machine, cfg).estimate_averaged(kernel)
}

/// Average five jittered runs of `base`, the single-run estimate of
/// `kernel` in the row `env`.
pub(crate) fn average_runs(env: &RowEnv, kernel: KernelName, base: TimeEstimate) -> TimeEstimate {
    let mut seed = jitter_seed(env, kernel);
    let mut sum = 0.0;
    const RUNS: usize = 5;
    for _ in 0..RUNS {
        let r = splitmix(&mut seed);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        sum += base.seconds * (1.0 + 0.04 * (u - 0.5)); // ±2 %
    }
    TimeEstimate { seconds: sum / RUNS as f64, ..base }
}

/// The jitter's seed hashes the thread count the model runs, clamped like
/// every other use of it, so a request past the core count averages to
/// the bits of the clamped request.
/// The hash is SipHash-1-3 with zero keys, written out so that no change
/// to std's unspecified `DefaultHasher` can move a model number, over the
/// 37 little-endian bytes that hasher was fed: the machine-id and kernel
/// discriminants (8 bytes each), the precision bits (4), `vectorize` (1),
/// the clamped thread count (8) and the placement discriminant (8) —
/// four 8-byte blocks and a tail block carrying `37 << 56`.
fn jitter_seed(env: &RowEnv, kernel: KernelName) -> u64 {
    let cfg = env.config();
    let mut bytes = [0u8; 40];
    bytes[0..8].copy_from_slice(&(env.machine().id as u64).to_le_bytes());
    bytes[8..16].copy_from_slice(&(kernel as u64).to_le_bytes());
    bytes[16..20].copy_from_slice(&cfg.precision.bits().to_le_bytes());
    bytes[20] = u8::from(cfg.vectorize);
    bytes[21..29].copy_from_slice(&(env.threads() as u64).to_le_bytes());
    bytes[29..37].copy_from_slice(&(cfg.placement as u64).to_le_bytes());
    bytes[39] = 37;
    let mut v = [
        0x736f_6d65_7073_6575u64,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    for block in bytes.chunks_exact(8) {
        let m = u64::from_le_bytes(block.try_into().expect("8-byte block"));
        v[3] ^= m;
        sip_round(&mut v);
        v[0] ^= m;
    }
    v[2] ^= 0xff;
    for _ in 0..3 {
        sip_round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Precision, Toolchain};
    use rvhpc_machines::{machine, MachineId, PlacementPolicy};
    use std::sync::atomic::Ordering::Relaxed;

    fn sg() -> Machine {
        machine(MachineId::Sg2042)
    }

    #[test]
    fn estimates_are_positive_and_finite_everywhere() {
        for id in MachineId::ALL {
            let m = machine(id);
            for kernel in KernelName::ALL {
                for precision in [Precision::Fp32, Precision::Fp64] {
                    let cfg = RunConfig {
                        precision,
                        vectorize: true,
                        toolchain: if id.is_riscv() {
                            Toolchain::XuanTieGcc
                        } else {
                            Toolchain::X86Gcc
                        },
                        mode: VectorMode::Vls,
                        placement: PlacementPolicy::Block,
                        threads: 1,
                    };
                    let e = estimate(&m, kernel, &cfg);
                    assert!(
                        e.seconds.is_finite() && e.seconds > 0.0,
                        "{id}/{kernel}/{precision:?}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn c920_fp32_vector_beats_fp64_on_daxpy() {
        let m = sg();
        let f32run = estimate(&m, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp32, 1));
        let f64run = estimate(&m, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp64, 1));
        assert!(f32run.vector_path);
        assert!(!f64run.vector_path, "no FP64 vectors on the C920");
    }

    #[test]
    fn reduce3_int_keeps_vector_path_at_fp64() {
        let m = sg();
        let e = estimate(&m, KernelName::REDUCE3_INT, &RunConfig::sg2042_best(Precision::Fp64, 1));
        assert!(e.vector_path, "integer kernel vectorises regardless of precision");
    }

    #[test]
    fn vectorisation_off_is_never_faster_for_clean_fp32_loops() {
        let m = sg();
        for kernel in [KernelName::STREAM_TRIAD, KernelName::DAXPY, KernelName::EOS] {
            let on = estimate(&m, kernel, &RunConfig::sg2042_best(Precision::Fp32, 1));
            let mut cfg = RunConfig::sg2042_best(Precision::Fp32, 1);
            cfg.vectorize = false;
            let off = estimate(&m, kernel, &cfg);
            assert!(on.seconds <= off.seconds, "{kernel}");
        }
    }

    #[test]
    fn jitter_average_is_deterministic_and_close_to_base() {
        let m = sg();
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 8);
        let a = estimate_averaged(&m, KernelName::STREAM_ADD, &cfg);
        let b = estimate_averaged(&m, KernelName::STREAM_ADD, &cfg);
        assert_eq!(a.seconds, b.seconds);
        let base = estimate(&m, KernelName::STREAM_ADD, &cfg);
        assert!((a.seconds - base.seconds).abs() / base.seconds < 0.03);
    }

    #[test]
    fn threads_past_the_core_count_average_to_the_clamped_bits() {
        // The estimate cache keys a request by its clamped thread count,
        // so the averaged estimate, jitter included, must not see more.
        for id in MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]) {
            let m = machine(id);
            let cfg = |threads| RunConfig::sg2042_best(Precision::Fp64, threads);
            for kernel in [KernelName::DAXPY, KernelName::STREAM_TRIAD] {
                let clamped = estimate_averaged(&m, kernel, &cfg(m.n_cores()));
                let past = estimate_averaged(&m, kernel, &cfg(2 * m.n_cores() + 1));
                assert_eq!(clamped.seconds.to_bits(), past.seconds.to_bits(), "{id:?} {kernel}");
            }
        }
    }

    #[test]
    fn jitter_seeds_keep_the_bits_std_default_hasher_gave_them() {
        // `(machine, kernel, precision, vectorize, threads, placement,
        // seed)`, the seeds as std's `DefaultHasher` computed them. The
        // keys cover every machine, both precisions, vectorisation on and
        // off, one thread and threads past the core count, and every
        // placement policy.
        use MachineId::*;
        use PlacementPolicy::*;
        use Precision::*;
        let pinned = [
            (Sg2042, KernelName::DAXPY, Fp32, true, 1, Block, 0x65d6_c80e_7831_cf44),
            (VisionFiveV1, KernelName::GEMM, Fp64, false, 9, NumaCyclic, 0x4bb8_57da_d6f4_395c),
            (
                VisionFiveV2,
                KernelName::STREAM_TRIAD,
                Fp32,
                false,
                1,
                ClusterCyclic,
                0x9ce5_e531_4c36_1bcf,
            ),
            (AmdRome, KernelName::REDUCE3_INT, Fp64, true, 200, Block, 0x067c_bd82_25f8_f324),
            (IntelBroadwell, KernelName::EOS, Fp32, true, 16, NumaCyclic, 0xa6d2_eda7_35ac_071f),
            (IntelIcelake, KernelName::SORT, Fp64, false, 1, ClusterCyclic, 0x52ce_5846_f181_6805),
            (IntelSandybridge, KernelName::JACOBI_2D, Fp32, true, 5, Block, 0x14a2_b408_aa1c_cb8c),
            (
                Sg2042NextGen,
                KernelName::FLOYD_WARSHALL,
                Fp64,
                true,
                65,
                ClusterCyclic,
                0x53b8_3902_221f_3e4b,
            ),
        ];
        for (id, kernel, precision, vectorize, threads, placement, seed) in pinned {
            let m = machine(id);
            let mut cfg = RunConfig::sg2042_best(precision, threads);
            cfg.vectorize = vectorize;
            cfg.placement = placement;
            let got = jitter_seed(&RowEnv::new(Model::paper(), &m, &cfg), kernel);
            assert_eq!(
                got, seed,
                "{id:?} {kernel} {precision:?} {vectorize} {threads} {placement:?}"
            );
        }
    }

    #[test]
    fn more_threads_do_not_slow_polybench_at_moderate_counts() {
        let m = sg();
        let t1 = estimate(&m, KernelName::GEMM, &RunConfig::sg2042_best(Precision::Fp32, 1));
        let t16 = estimate(&m, KernelName::GEMM, &RunConfig::sg2042_best(Precision::Fp32, 16));
        assert!(
            t16.seconds < t1.seconds / 8.0,
            "compute-bound matmul must scale well: {} vs {}",
            t1.seconds,
            t16.seconds
        );
    }

    #[test]
    fn block_placement_collapses_at_32_threads_for_stream() {
        // The Table 1 phenomenon: block placement leaves half the memory
        // controllers idle at 32 threads and scaling collapses versus 16.
        let m = sg();
        let mk = |threads| {
            let cfg = RunConfig {
                precision: Precision::Fp32,
                vectorize: true,
                toolchain: Toolchain::XuanTieGcc,
                mode: VectorMode::Vls,
                placement: PlacementPolicy::Block,
                threads,
            };
            estimate(&m, KernelName::STREAM_TRIAD, &cfg).seconds
        };
        let (t16, t32) = (mk(16), mk(32));
        assert!(t32 > 0.8 * t16, "no meaningful gain 16→32 under block: {t16} vs {t32}");
    }

    #[test]
    fn cluster_placement_beats_block_at_16_threads() {
        let m = sg();
        let mk = |placement| {
            let cfg = RunConfig {
                precision: Precision::Fp32,
                vectorize: true,
                toolchain: Toolchain::XuanTieGcc,
                mode: VectorMode::Vls,
                placement,
                threads: 16,
            };
            // Average over classes with cache-resident reuse.
            estimate(&m, KernelName::STREAM_TRIAD, &cfg).seconds
                + estimate(&m, KernelName::JACOBI_2D, &cfg).seconds
        };
        assert!(mk(PlacementPolicy::ClusterCyclic) < mk(PlacementPolicy::Block));
    }

    #[test]
    fn vla_ratio_memo_hits_on_second_lookup() {
        // First lookup populates `measure`'s memo (or finds it already
        // populated by another test); both runs of every lookup after that
        // MUST be served from it — a miss here means the interpreter would
        // re-run on every estimate, which is exactly the regression this
        // counter guards.
        let _ = measured_vla_ratio(KernelName::STREAM_TRIAD, Sew::E32);
        let hits = || rvhpc_obs::counter("compiler.measure.hit").load(Relaxed);
        let before = hits();
        let first = measured_vla_ratio(KernelName::STREAM_TRIAD, Sew::E32);
        let second = measured_vla_ratio(KernelName::STREAM_TRIAD, Sew::E32);
        assert_eq!(first, second);
        assert!(first.expect("codegen covers STREAM_TRIAD") > 0.0);
        assert!(hits() >= before + 4, "both runs of both lookups must hit the memo");
    }

    #[test]
    fn sim_sizes_cover_all_kernels() {
        for k in KernelName::ALL {
            assert!(sim_size(k) > 0);
        }
    }

    #[test]
    fn shared_sim_workloads_match_freshly_built_ones() {
        for k in KernelName::ALL {
            let built = workload(k, sim_size(k));
            assert_eq!(format!("{:?}", sim_workload(k)), format!("{built:?}"), "{k}");
        }
    }
}
