//! Component attribution for one estimate — the paper's prose, as data.
//!
//! The paper explains every headline number through its parts: compute vs.
//! memory time, whether the vector path executed, where the working set
//! lives in the hierarchy, and which calibration constants shaped the
//! result. [`explain`] computes exactly the intermediates
//! [`RowEnv::estimate_sized`] computes (both go through the same internal
//! model), so the printed breakdown always sums — per the overlap rule —
//! to the reported [`TimeEstimate::seconds`].

use crate::calibration::{Calibration, Model};
use crate::config::RunConfig;
use crate::estimate::{model_parts, sim_size};
use crate::memory::to_access_spec;
use crate::row::RowEnv;
use crate::TimeEstimate;
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::Machine;
use rvhpc_trace::json::Json;
use std::fmt::Write as _;

/// Where one kernel stream's per-thread working set settles.
#[derive(Debug, Clone)]
pub struct StreamResidency {
    /// Stream name from the kernel descriptor (e.g. `a`, `x`, `nodes`).
    pub stream: &'static str,
    /// Per-thread footprint in bytes (after capacity sharing between
    /// concurrently swept streams).
    pub footprint_bytes: f64,
    /// Home level: `L1`/`L2`/`L3` cache index, or `None` for DRAM.
    pub home_level: Option<u8>,
}

impl StreamResidency {
    /// Human label of the home level.
    pub fn home_label(&self) -> String {
        match self.home_level {
            Some(l) => format!("L{l}"),
            None => "DRAM".to_string(),
        }
    }
}

/// The vector path the model resolved.
#[derive(Debug, Clone, Copy)]
pub struct VectorResolution {
    /// Vector code executes.
    pub active: bool,
    /// Lanes at the run's element width.
    pub lanes: u32,
    /// VLS or VLA.
    pub mode: VectorMode,
    /// Measured VLA/VLS instruction ratio, when codegen covers the kernel.
    pub measured_vla_ratio: Option<f64>,
}

/// Full component breakdown of one [`TimeEstimate`].
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Machine token (e.g. `sg2042`).
    pub machine: String,
    /// The kernel.
    pub kernel: KernelName,
    /// The configuration explained.
    pub config: RunConfig,
    /// Problem size (elements).
    pub size: usize,
    /// Threads actually used (clamped to the machine).
    pub threads: usize,
    /// Amdahl-effective threads.
    pub effective_threads: f64,
    /// Whether the core overlaps compute with memory (out-of-order).
    pub out_of_order: bool,
    /// The estimate being explained.
    pub estimate: TimeEstimate,
    /// Vector path resolution.
    pub vector: VectorResolution,
    /// Per-stream home levels.
    pub residency: Vec<StreamResidency>,
    /// The calibration constants applied.
    pub calibration: Calibration,
    /// Workload shape: loop iterations.
    pub iterations: f64,
    /// Cheap FP ops per iteration.
    pub fp_ops: f64,
    /// Expensive FP ops per iteration.
    pub fp_expensive: f64,
    /// Integer ops per iteration.
    pub int_ops: f64,
}

impl Explanation {
    /// Busy seconds under the overlap rule (see [`Self::overlap_rule`]).
    pub fn busy_seconds(&self) -> f64 {
        if self.out_of_order {
            self.estimate.compute_seconds.max(self.estimate.memory_seconds)
        } else {
            self.estimate.compute_seconds + self.estimate.memory_seconds
        }
    }

    /// The overlap rule as text.
    pub fn overlap_rule(&self) -> &'static str {
        if self.out_of_order {
            "out-of-order core: busy = max(compute, memory)"
        } else {
            "in-order core: busy = compute + memory"
        }
    }

    /// Render the full breakdown the way the paper explains its numbers.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let e = &self.estimate;
        let _ = writeln!(out, "## {} on {} — component breakdown", self.kernel, self.machine);
        let _ = writeln!(
            out,
            "config: {} | {} | mode {:?} | placement {:?} | {} threads (effective {:.2})",
            self.config.precision.label(),
            self.config.toolchain.label(),
            self.vector.mode,
            self.config.placement,
            self.threads,
            self.effective_threads,
        );
        let _ = writeln!(
            out,
            "workload: {} elements; per iteration {:.1} FP + {:.1} expensive-FP + {:.1} int ops",
            self.size, self.fp_ops, self.fp_expensive, self.int_ops,
        );
        let _ = writeln!(out);

        let _ = writeln!(out, "vector path:");
        if self.vector.active {
            let _ = writeln!(
                out,
                "  EXECUTES — {} lanes, {:?}{}",
                self.vector.lanes,
                self.vector.mode,
                match self.vector.measured_vla_ratio {
                    Some(r) => format!(", measured VLA/VLS instruction ratio {r:.3}"),
                    None => String::new(),
                }
            );
        } else {
            let _ = writeln!(
                out,
                "  SCALAR — the compiler/capability model refused vector code for this \
                 kernel/precision (the paper's FP64 finding on the C920, or vectorisation off)"
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "cache residency (per-thread footprints after capacity sharing):");
        for r in &self.residency {
            let _ = writeln!(
                out,
                "  {:<12} {:>12.0} bytes -> {}",
                r.stream,
                r.footprint_bytes,
                r.home_label()
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "component breakdown (seconds per repetition):");
        let _ = writeln!(out, "  compute            {:.6e}", e.compute_seconds);
        let _ = writeln!(out, "  memory             {:.6e}", e.memory_seconds);
        let _ = writeln!(out, "  {} = {:.6e}", self.overlap_rule(), self.busy_seconds());
        let _ = writeln!(out, "  fork-join overhead {:.6e}", e.overhead_seconds);
        let _ = writeln!(
            out,
            "  total = busy + overhead = {:.6e}  (TimeEstimate::seconds = {:.6e})",
            self.busy_seconds() + e.overhead_seconds,
            e.seconds
        );
        let _ = writeln!(out);

        let c = &self.calibration;
        let _ = writeln!(out, "calibration factors applied ({}):", self.machine);
        let _ = writeln!(out, "  scalar_flops_per_cycle  {:.3}", c.scalar_flops_per_cycle);
        let _ = writeln!(out, "  int_ops_per_cycle       {:.3}", c.int_ops_per_cycle);
        let _ = writeln!(out, "  expensive_op_cycles     {:.3}", c.expensive_op_cycles);
        let _ = writeln!(out, "  loop_overhead_cycles    {:.3}", c.loop_overhead_cycles);
        let _ = writeln!(out, "  vector_efficiency       {:.3}", c.vector_efficiency);
        let _ = writeln!(out, "  vla_overhead (default)  {:.3}", c.vla_overhead);
        let _ = writeln!(out, "  gather_retention        {:.3}", c.gather_retention);
        let _ = writeln!(out, "  mlp                     {:.3}", c.mlp);
        let _ = writeln!(out, "  per_core_stream_bw      {:.3e}", c.per_core_stream_bw);
        let _ = writeln!(out, "  scalar_stream_fraction  {:.3}", c.scalar_stream_fraction);
        let _ = writeln!(out, "  scalar_store_penalty    {:.3}", c.scalar_store_penalty);
        let _ = writeln!(out, "  dram_efficiency         {:.3}", c.dram_efficiency);
        let _ = writeln!(out, "  queue_sensitivity       {:.3}", c.queue_sensitivity);
        let _ = writeln!(out, "  barrier_ns_base         {:.1}", c.barrier_ns_base);
        let _ = writeln!(out, "  barrier_ns_per_thread   {:.1}", c.barrier_ns_per_thread);
        out
    }

    /// The full breakdown as JSON (machine-readable `repro explain --json`).
    pub fn to_json(&self) -> Json {
        let e = &self.estimate;
        let c = &self.calibration;
        Json::obj(vec![
            ("machine", Json::str(&self.machine)),
            ("kernel", Json::str(self.kernel.label())),
            (
                "config",
                Json::obj(vec![
                    ("precision", Json::str(self.config.precision.label())),
                    ("toolchain", Json::str(self.config.toolchain.label())),
                    ("mode", Json::str(format!("{:?}", self.config.mode))),
                    ("placement", Json::str(format!("{:?}", self.config.placement))),
                    ("vectorize", Json::Bool(self.config.vectorize)),
                    ("threads", Json::Num(self.config.threads as f64)),
                ]),
            ),
            ("size", Json::Num(self.size as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("effective_threads", Json::Num(self.effective_threads)),
            ("out_of_order", Json::Bool(self.out_of_order)),
            (
                "estimate",
                Json::obj(vec![
                    ("seconds", Json::Num(e.seconds)),
                    ("compute_seconds", Json::Num(e.compute_seconds)),
                    ("memory_seconds", Json::Num(e.memory_seconds)),
                    ("overhead_seconds", Json::Num(e.overhead_seconds)),
                    ("vector_path", Json::Bool(e.vector_path)),
                ]),
            ),
            ("busy_seconds", Json::Num(self.busy_seconds())),
            ("overlap_rule", Json::str(self.overlap_rule())),
            (
                "vector",
                Json::obj(vec![
                    ("active", Json::Bool(self.vector.active)),
                    ("lanes", Json::Num(f64::from(self.vector.lanes))),
                    ("mode", Json::str(format!("{:?}", self.vector.mode))),
                    (
                        "measured_vla_ratio",
                        self.vector.measured_vla_ratio.map_or(Json::Null, Json::Num),
                    ),
                ]),
            ),
            (
                "residency",
                Json::Arr(
                    self.residency
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("stream", Json::str(r.stream)),
                                ("footprint_bytes", Json::Num(r.footprint_bytes)),
                                ("home", Json::str(r.home_label())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "workload",
                Json::obj(vec![
                    ("iterations", Json::Num(self.iterations)),
                    ("fp_ops", Json::Num(self.fp_ops)),
                    ("fp_expensive", Json::Num(self.fp_expensive)),
                    ("int_ops", Json::Num(self.int_ops)),
                ]),
            ),
            (
                "calibration",
                Json::obj(vec![
                    ("scalar_flops_per_cycle", Json::Num(c.scalar_flops_per_cycle)),
                    ("int_ops_per_cycle", Json::Num(c.int_ops_per_cycle)),
                    ("expensive_op_cycles", Json::Num(c.expensive_op_cycles)),
                    ("loop_overhead_cycles", Json::Num(c.loop_overhead_cycles)),
                    ("vector_efficiency", Json::Num(c.vector_efficiency)),
                    ("vla_overhead", Json::Num(c.vla_overhead)),
                    ("gather_retention", Json::Num(c.gather_retention)),
                    ("mlp", Json::Num(c.mlp)),
                    ("per_core_stream_bw", Json::Num(c.per_core_stream_bw)),
                    ("scalar_stream_fraction", Json::Num(c.scalar_stream_fraction)),
                    ("scalar_store_penalty", Json::Num(c.scalar_store_penalty)),
                    ("dram_efficiency", Json::Num(c.dram_efficiency)),
                    ("queue_sensitivity", Json::Num(c.queue_sensitivity)),
                    ("barrier_ns_base", Json::Num(c.barrier_ns_base)),
                    ("barrier_ns_per_thread", Json::Num(c.barrier_ns_per_thread)),
                ]),
            ),
        ])
    }
}

/// Explain one estimate of [`Model::paper`] at the suite's standard
/// problem size.
pub fn explain(machine: &Machine, kernel: KernelName, cfg: &RunConfig) -> Explanation {
    let size = sim_size(kernel);
    let _span = rvhpc_trace::span!("perfmodel.explain", kernel = kernel);
    let env = RowEnv::new(Model::paper(), machine, cfg);
    let parts = model_parts(&env, kernel, size);

    // Home level per stream: the first cache level whose share of capacity
    // (scaled by this stream's fraction of the concurrently live footprint,
    // exactly as the memory model scales it) holds the per-thread
    // footprint. The analytic cache model uses the same binary criterion.
    let elem_bytes = f64::from(cfg.precision.bytes());
    let specs: Vec<_> = parts
        .w
        .streams
        .iter()
        .map(|s| (s.name, to_access_spec(s, elem_bytes, parts.eff_t)))
        .collect();
    let total_footprint: f64 = specs.iter().map(|(_, s)| s.footprint_bytes).sum::<f64>().max(1.0);
    let residency = specs
        .iter()
        .map(|(name, spec)| {
            let share = spec.footprint_bytes / total_footprint;
            let home_level = machine
                .caches
                .iter()
                .zip(env.memory().capacity_shares.iter())
                .find(|(_, cap)| spec.footprint_bytes <= **cap * share)
                .map(|(c, _)| c.level);
            StreamResidency { stream: name, footprint_bytes: spec.footprint_bytes, home_level }
        })
        .collect();

    Explanation {
        machine: machine.id.token().to_string(),
        kernel,
        config: *cfg,
        size,
        threads: env.threads(),
        effective_threads: parts.eff_t,
        out_of_order: parts.out_of_order,
        estimate: parts.estimate(),
        vector: VectorResolution {
            active: parts.vec.active,
            lanes: parts.vec.lanes,
            mode: parts.vec.mode,
            measured_vla_ratio: parts.vec.measured_vla_ratio,
        },
        residency,
        calibration: *env.cal(),
        iterations: parts.w.iterations,
        fp_ops: parts.w.fp_ops,
        fp_expensive: parts.w.fp_expensive,
        int_ops: parts.w.int_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use crate::estimate;
    use rvhpc_machines::{machine, MachineId};

    #[test]
    fn parts_sum_to_seconds_for_every_machine_and_rule() {
        for id in [MachineId::Sg2042, MachineId::VisionFiveV2, MachineId::AmdRome] {
            let m = machine(id);
            let cfg = if id.is_riscv() {
                RunConfig::sg2042_best(Precision::Fp32, 8)
            } else {
                RunConfig::x86(Precision::Fp32, 8)
            };
            let ex = explain(&m, KernelName::STREAM_TRIAD, &cfg);
            let direct = estimate(&m, KernelName::STREAM_TRIAD, &cfg);
            assert!(
                (ex.busy_seconds() + ex.estimate.overhead_seconds - direct.seconds).abs() < 1e-15,
                "{id}: breakdown must sum to the estimate"
            );
            assert_eq!(ex.estimate.seconds, direct.seconds, "{id}");
        }
    }

    #[test]
    fn stream_triad_lives_in_dram_and_gemm_in_cache_on_sg2042() {
        let m = machine(MachineId::Sg2042);
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 1);
        let triad = explain(&m, KernelName::STREAM_TRIAD, &cfg);
        assert!(
            triad.residency.iter().all(|r| r.home_level.is_none()),
            "64 MB STREAM arrays cannot be cache-resident: {:?}",
            triad.residency
        );
        let gemm = explain(&m, KernelName::GEMM, &cfg);
        assert!(
            gemm.residency.iter().any(|r| r.home_level.is_some()),
            "1000x1000 matrices fit the 64 MB L3: {:?}",
            gemm.residency
        );
    }

    #[test]
    fn text_report_carries_the_attribution() {
        let m = machine(MachineId::Sg2042);
        let ex =
            explain(&m, KernelName::STREAM_TRIAD, &RunConfig::sg2042_best(Precision::Fp32, 64));
        let text = ex.to_text();
        assert!(text.contains("component breakdown"));
        assert!(text.contains("vector path"));
        assert!(text.contains("EXECUTES"));
        assert!(text.contains("queue_sensitivity"));
        assert!(text.contains("fork-join overhead"));
    }

    #[test]
    fn json_report_round_trips_and_sums() {
        let m = machine(MachineId::Sg2042);
        let ex =
            explain(&m, KernelName::STREAM_TRIAD, &RunConfig::sg2042_best(Precision::Fp32, 32));
        let j = ex.to_json();
        let parsed = Json::parse(&j.render()).expect("rendered JSON must parse");
        assert_eq!(parsed, j, "render/parse round trip");
        let est = parsed.get("estimate").unwrap();
        let busy = parsed.get("busy_seconds").and_then(Json::as_f64).unwrap();
        let overhead = est.get("overhead_seconds").and_then(Json::as_f64).unwrap();
        let seconds = est.get("seconds").and_then(Json::as_f64).unwrap();
        assert!((busy + overhead - seconds).abs() <= 1e-12 * seconds.max(1e-300));
        assert_eq!(parsed.get("kernel").and_then(Json::as_str), Some("Stream_TRIAD"));
    }

    #[test]
    fn a_hierarchy_deeper_than_the_inline_buffers_estimates_and_sums() {
        // The model takes any descriptor a library caller builds, checked
        // or not: stack more package-shared levels under the SG2042's
        // three than the memory model keeps on the stack.
        let mut m = machine(MachineId::Sg2042);
        let base = m.caches.last().expect("catalog caches").clone();
        for extra in 1..=crate::memory::INLINE_LEVELS + 1 {
            let mut level = base.clone();
            level.level = base.level + extra as u8;
            level.size_bytes = base.size_bytes << extra;
            level.bandwidth_bytes_per_cycle = base.bandwidth_bytes_per_cycle / extra as f64;
            m.caches.push(level);
        }
        for (kernel, threads) in [(KernelName::STREAM_TRIAD, 64), (KernelName::GEMM, 1)] {
            let cfg = RunConfig::sg2042_best(Precision::Fp32, threads);
            let direct = estimate(&m, kernel, &cfg);
            assert!(direct.seconds.is_finite() && direct.memory_seconds.is_finite(), "{direct:?}");
            let ex = explain(&m, kernel, &cfg);
            assert_eq!(ex.estimate.seconds, direct.seconds, "{kernel:?}");
            assert!(
                (ex.busy_seconds() + ex.estimate.overhead_seconds - direct.seconds).abs() < 1e-15,
                "{kernel:?}: breakdown must sum to the estimate"
            );
        }
    }

    #[test]
    fn fp64_on_sg2042_reports_scalar_path() {
        let m = machine(MachineId::Sg2042);
        let ex = explain(&m, KernelName::DAXPY, &RunConfig::sg2042_best(Precision::Fp64, 1));
        assert!(!ex.vector.active);
        assert!(ex.to_text().contains("SCALAR"));
    }
}
