//! Ablations: one test per row of EXPERIMENTS.md's "Mechanism →
//! phenomenon index". Each test switches one model ingredient off and
//! asserts that the paper phenomenon it is credited with is present with
//! the ingredient on and gone with it off, so the attribution the index
//! claims is checked rather than printed. The VLS/VLA row has no public
//! switch and asserts the "on" side only (see its test).
//!
//! Ingredients are switched off only through values that are already
//! public. A calibration constant is switched off by a [`Model`] edit: a
//! clone of [`Model::paper`] with one constant neutralised, under which the
//! test runs the real experiment (`scaling::run`, `fig2`), exactly as the
//! artefact is produced. The estimate cache serves the paper model only, so
//! the edited model is always estimated afresh. An architectural fact is
//! switched off in a cloned [`Machine`] descriptor, estimated uncached
//! through [`estimate`]. The catalog is never touched.

use rvhpc::compiler::codegen::SUPPORTED;
use rvhpc::compiler::VectorMode;
use rvhpc::experiments::fig3::FIG3_KERNELS;
use rvhpc::experiments::{fig2, scaling};
use rvhpc::kernels::{KernelClass, KernelName};
use rvhpc::machines::{machine, CacheSharing, Machine, MachineId, PlacementPolicy};
use rvhpc::perfmodel::{estimate, Calibration, Model, Precision, RunConfig, Toolchain};

/// Tables 1–3's cell for a descriptor: the class mean of T(1)/T(threads)
/// under one placement policy, FP32 and vectorised like the paper's
/// scaling runs.
fn class_speedup(m: &Machine, class: KernelClass, policy: PlacementPolicy, threads: usize) -> f64 {
    let cfg = |t| RunConfig { placement: policy, ..RunConfig::sg2042_best(Precision::Fp32, t) };
    let kernels = KernelName::in_class(class);
    let sum: f64 = kernels
        .iter()
        .map(|&k| estimate(m, k, &cfg(1)).seconds / estimate(m, k, &cfg(threads)).seconds)
        .sum();
    sum / kernels.len() as f64
}

/// A collapse is a scaling step that loses more than half the speedup.
fn collapses(before: f64, after: f64) -> bool {
    after < 0.5 * before
}

/// The paper model with one edit to the SG2042's calibration.
fn sg2042_edited(edit: impl FnOnce(&mut Calibration)) -> Model {
    let mut model = Model::paper().clone();
    edit(model.calibration_mut(MachineId::Sg2042));
    model
}

/// Controller queueing (`queue_sensitivity`) produces Table 1's 32-thread
/// block collapse of the stream class (block placement parks all 32
/// threads on two of the four controllers) and Tables 2–3's 64-thread
/// stream collapse (every controller oversubscribed).
#[test]
fn queueing_produces_the_stream_collapses() {
    let off = sg2042_edited(|c| c.queue_sensitivity = 0.0);
    for (model, on) in [(Model::paper(), true), (&off, false)] {
        let state = if on { "on" } else { "off" };
        let steps = [
            (PlacementPolicy::Block, 16, 32),
            (PlacementPolicy::NumaCyclic, 32, 64),
            (PlacementPolicy::ClusterCyclic, 32, 64),
        ];
        for (policy, from, to) in steps {
            let table = scaling::run(model, policy);
            let stream = |threads| table.cell(threads, KernelClass::Stream).speedup;
            let (before, after) = (stream(from), stream(to));
            assert_eq!(
                collapses(before, after),
                on,
                "queueing {state}: {policy:?} stream {from} -> {to} threads, {before:.2} -> \
                 {after:.2}"
            );
        }
    }
}

/// Scalar memory issue (`scalar_stream_fraction` and
/// `scalar_store_penalty`) produces Figure 2's stream-class vectorisation
/// benefit and MEMSET's standout benefit: vector loads and stores keep the
/// C920's memory pipeline full where scalar ones cannot. With both set to
/// neutral the memory-bound kernels gain nothing from vectorising: their
/// vector-on and vector-off times are the same number, so the benefit is
/// exactly 1.
///
/// MEMSET's lead over the U74 in Figure 1 does not hinge on this
/// ingredient alone (the U74's own store penalty and the C920's wider core
/// remain), so the test checks the lead the ingredient is credited with:
/// MEMSET's vectorisation benefit within the algorithm class.
#[test]
fn scalar_memory_issue_produces_the_stream_vector_benefit() {
    let off = sg2042_edited(|c| {
        c.scalar_stream_fraction = 1.0;
        c.scalar_store_penalty = 1.0;
    });
    for (model, on) in [(Model::paper(), true), (&off, false)] {
        let state = if on { "on" } else { "off" };
        let benefit = fig2::vectorisation_ratios(model, Precision::Fp32);
        for k in KernelName::in_class(KernelClass::Stream) {
            let b = benefit[&k];
            assert_eq!(b > 1.3, on, "penalty {state}: {k} vector benefit {b:.3}");
            if !on {
                assert_eq!(b, 1.0, "penalty off: {k} gains {b:.17}");
            }
        }
        let memset = benefit[&KernelName::MEMSET];
        let leads = KernelName::in_class(KernelClass::Algorithm)
            .into_iter()
            .filter(|&k| k != KernelName::MEMSET)
            .all(|k| memset > benefit[&k]);
        assert_eq!(leads, on, "penalty {state}: MEMSET's lead in the algorithm class");
    }
}

/// FP64 over FP32 time on the VisionFive V2 for every stream kernel.
fn v2_stream_gaps(v2: &Machine) -> Vec<(KernelName, f64)> {
    let secs = |k, precision| estimate(v2, k, &RunConfig::sg2042_best(precision, 1)).seconds;
    KernelName::in_class(KernelClass::Stream)
        .into_iter()
        .map(|k| (k, secs(k, Precision::Fp64) / secs(k, Precision::Fp32)))
        .collect()
}

/// The in-order compute+memory additive combine (`core.out_of_order =
/// false` on the U74) produces the V2's small FP32-vs-FP64 gap in
/// Figure 1. The U74 has no vector unit, so precision only changes the
/// bytes moved: an in-order core stalls on every miss, so halving the
/// bytes cannot halve the time. An out-of-order overlap makes the
/// memory-bound stream kernels pay exactly the 2× byte ratio.
#[test]
fn in_order_combine_produces_the_small_v2_precision_gap() {
    let in_order = machine(MachineId::VisionFiveV2);
    assert!(!in_order.core.out_of_order, "the catalog U74 is in-order");
    for (k, gap) in v2_stream_gaps(&in_order) {
        assert!(gap < 1.98, "in-order: {k} FP64/FP32 {gap:.3} stays below the byte ratio");
    }

    let mut out_of_order = in_order.clone();
    out_of_order.core.out_of_order = true;
    for (k, gap) in v2_stream_gaps(&out_of_order) {
        assert!((gap - 2.0).abs() < 1e-9, "out-of-order: {k} pays the full 2x, got {gap:.3}");
    }
}

/// Cluster-cyclic over NUMA-cyclic speedup, per class, at one thread count.
fn cluster_over_cyclic(sg: &Machine, threads: usize) -> Vec<(KernelClass, f64)> {
    KernelClass::ALL
        .into_iter()
        .map(|c| {
            let cluster = class_speedup(sg, c, PlacementPolicy::ClusterCyclic, threads);
            let cyclic = class_speedup(sg, c, PlacementPolicy::NumaCyclic, threads);
            (c, cluster / cyclic)
        })
        .collect()
}

/// Dividing the shared 1 MB L2 by the threads placed in each 4-core
/// cluster (`CacheSharing::PerCluster`) produces Table 3 beating Table 2
/// up to 32 threads: cluster-cyclic placement keeps one thread per
/// cluster, so each keeps the whole L2. With a private L2 both policies
/// give every thread the same capacity and the tables coincide.
#[test]
fn shared_l2_division_produces_cluster_over_cyclic() {
    let shared = machine(MachineId::Sg2042);
    for threads in [8, 16, 32] {
        let ratios = cluster_over_cyclic(&shared, threads);
        assert!(
            ratios.iter().any(|&(_, r)| r > 1.05),
            "shared L2: cluster beats cyclic at {threads} threads: {ratios:.3?}"
        );
        assert!(ratios.iter().all(|&(_, r)| r > 0.999), "{threads} threads: {ratios:.3?}");
    }

    let mut private = shared.clone();
    for level in &mut private.caches {
        if level.sharing == CacheSharing::PerCluster {
            level.sharing = CacheSharing::PerCore;
        }
    }
    for threads in [2, 4, 8, 16, 32, 64] {
        let ratios = cluster_over_cyclic(&private, threads);
        assert!(
            ratios.iter().all(|&(_, r)| (r - 1.0).abs() < 1e-9),
            "private L2: the policies coincide at {threads} threads: {ratios:.3?}"
        );
    }
}

/// Kernels whose vector path executes on the machine at one precision.
fn vectorised(m: &Machine, precision: Precision) -> Vec<KernelName> {
    KernelName::ALL
        .into_iter()
        .filter(|&k| estimate(m, k, &RunConfig::sg2042_best(precision, 1)).vector_path)
        .collect()
}

/// The C920's FP64-vector refusal (`VectorIsa::supports_fp64 = false`,
/// folded into the compiler model) produces the FP32/FP64 asymmetry
/// throughout and REDUCE3_INT's exemption: at FP64 only integer-data
/// kernels keep their vector path. With FP64 vectors supported, FP64
/// vectorises exactly the kernels FP32 does.
#[test]
fn fp64_refusal_produces_the_precision_asymmetry() {
    let c920 = machine(MachineId::Sg2042);
    let (fp32, fp64) = (vectorised(&c920, Precision::Fp32), vectorised(&c920, Precision::Fp64));
    assert!(fp64.len() < fp32.len(), "refusal: FP64 {fp64:?} vs FP32 {} kernels", fp32.len());
    assert!(fp64.contains(&KernelName::REDUCE3_INT), "refusal: REDUCE3_INT is exempt");
    assert!(!fp64.contains(&KernelName::DAXPY), "refusal: FP64 DAXPY runs scalar");
    assert!(fp64.iter().all(|k| fp32.contains(k)), "FP64 vectorises a subset of FP32");

    let mut fp64_vectors = c920.clone();
    fp64_vectors.vector.as_mut().expect("the C920 has RVV").supports_fp64 = true;
    let (fp32, fp64) =
        (vectorised(&fp64_vectors, Precision::Fp32), vectorised(&fp64_vectors, Precision::Fp64));
    assert_eq!(fp64, fp32, "FP64 vectors: no asymmetry, and no exemption to make");
}

/// The measured VLS/VLA instruction ratios (real codegen) produce Figure
/// 3's VLS ≥ VLA ordering.
///
/// Only the "on" side is asserted. The estimator measures the ratio itself,
/// by running the generated VLA and VLS loops through the RVV interpreter,
/// and no public field replaces the measurement: `Calibration::vla_overhead`
/// applies only to kernels without codegen. Switching the ingredient off
/// would need a new model knob, which an ablation must not add.
#[test]
fn measured_vla_ratios_keep_vls_ahead() {
    let sg = machine(MachineId::Sg2042);
    let clang = |mode| RunConfig {
        toolchain: Toolchain::ClangRvv,
        mode,
        ..RunConfig::sg2042_best(Precision::Fp32, 1)
    };
    let vla_over_vls = |k| {
        estimate(&sg, k, &clang(VectorMode::Vla)).seconds
            / estimate(&sg, k, &clang(VectorMode::Vls)).seconds
    };

    let measured: Vec<(KernelName, f64)> =
        SUPPORTED.into_iter().map(|k| (k, vla_over_vls(k))).collect();
    assert!(measured.iter().all(|&(_, r)| r >= 1.0), "VLA never beats VLS: {measured:.3?}");
    assert!(
        measured.iter().any(|&(_, r)| r > 1.0),
        "some loop pays for strip-mining: {measured:.3?}"
    );

    for k in FIG3_KERNELS {
        let r = vla_over_vls(k);
        assert!(r >= 1.0, "Figure 3: {k} VLA/VLS time {r:.3}");
    }
}
