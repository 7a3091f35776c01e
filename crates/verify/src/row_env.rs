//! Differential oracle: a shared suite-row environment vs. independent
//! per-kernel estimates.
//!
//! Sweeps estimate every kernel of a row through one
//! [`rvhpc_perfmodel::RowEnv`], which resolves the thread placement and
//! its memory environment once and shares them across kernels. That path
//! is claimed *bit-identical* to estimating each kernel on its own. This
//! oracle pins the claim on seeded rows — every catalog machine including
//! the what-if part, every policy, thread counts past the core count, both
//! precisions, scalar and vector toolchains — with the kernels in a seeded
//! order. Sweeps estimate a row on one thread; the oracle instead shares
//! the row across a few scoped threads, each estimating a slice of the
//! kernels, so whichever thread arrives first resolves the row, which
//! stress-tests the row's `OnceLock` under concurrent first use.
//!
//! Half the cases swap in a non-catalog topology, and the catalog row of
//! the same configuration is estimated first, so a placement memoised
//! anywhere but the row itself would surface as a mismatch. The row's
//! memory environment is also checked against one derived directly from
//! `PlacementPolicy::map` and `MemoryEnv::new`.
//!
//! Bit-identity, not bounded divergence. Fault injection does not apply
//! (both sides share one estimator); the same claim runs under every
//! `--inject`.

use crate::{drive, Fault, OracleReport, VerifyConfig};
use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, Machine, MachineId, PlacementPolicy, Topology};
use rvhpc_perfmodel::memory::MemoryEnv;
use rvhpc_perfmodel::{estimate, Model, Precision, RowEnv, RunConfig, TimeEstimate, Toolchain};
use rvhpc_quickprop::Gen;
use rvhpc_trace::json::Json;
use std::thread::ScopedJoinHandle;

/// Oracle name (CLI token).
pub const NAME: &str = "row-env";

/// A non-catalog package: `cores` cores in `regions` contiguous NUMA
/// regions of `controllers` controllers each, 4-core clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Core count.
    pub cores: usize,
    /// NUMA regions.
    pub regions: usize,
    /// Memory controllers per region.
    pub controllers: usize,
}

/// One randomized shared-row case.
#[derive(Debug, Clone)]
pub struct RowCase {
    /// Catalog machine the descriptor starts from.
    pub machine: MachineId,
    /// Replacement topology, if the descriptor is perturbed.
    pub layout: Option<Layout>,
    /// FP64 instead of FP32.
    pub fp64: bool,
    /// Vectorisation enabled.
    pub vectorize: bool,
    /// Clang+rollback toolchain instead of XuanTie GCC (RISC-V only).
    pub clang: bool,
    /// VLS codegen instead of VLA.
    pub vls: bool,
    /// Thread placement policy.
    pub placement: PlacementPolicy,
    /// Requested threads (may exceed the core count; the model clamps).
    pub threads: usize,
    /// Kernels of the row, in estimation order.
    pub kernels: Vec<KernelName>,
}

impl RowCase {
    /// The run configuration of the row.
    pub fn config(&self) -> RunConfig {
        RunConfig {
            precision: if self.fp64 { Precision::Fp64 } else { Precision::Fp32 },
            vectorize: self.vectorize,
            toolchain: if self.machine.is_x86() {
                Toolchain::X86Gcc
            } else if self.clang {
                Toolchain::ClangRvv
            } else {
                Toolchain::XuanTieGcc
            },
            mode: if self.vls { VectorMode::Vls } else { VectorMode::Vla },
            placement: self.placement,
            threads: self.threads,
        }
    }

    /// The descriptor under test: the catalog entry, with the replacement
    /// topology if any.
    pub fn descriptor(&self) -> Machine {
        let mut m = machine(self.machine);
        if let Some(l) = self.layout {
            m.topology = Topology::contiguous(l.cores, l.regions, l.controllers, 4);
        }
        m
    }

    /// Human-readable summary.
    pub fn describe(&self) -> String {
        let cfg = self.config();
        format!(
            "{}{} {} {} {:?} {:?} t={}{} ({} kernels, first {})",
            self.machine.token(),
            self.layout.map_or(String::new(), |l| format!(
                " as {}c/{}r/{}mc",
                l.cores, l.regions, l.controllers
            )),
            cfg.precision.label(),
            cfg.toolchain.label(),
            cfg.mode,
            cfg.placement,
            self.threads,
            if self.vectorize { "" } else { " novec" },
            self.kernels.len(),
            self.kernels.first().map_or("-", |k| k.label()),
        )
    }

    /// Full case as JSON (for the failure artefact).
    pub fn to_json(&self) -> Json {
        let layout = self.layout.map_or(Json::Null, |l| {
            Json::obj(vec![
                ("cores", Json::Num(l.cores as f64)),
                ("regions", Json::Num(l.regions as f64)),
                ("controllers", Json::Num(l.controllers as f64)),
            ])
        });
        Json::obj(vec![
            ("machine", Json::str(self.machine.token())),
            ("layout", layout),
            ("fp64", Json::Bool(self.fp64)),
            ("vectorize", Json::Bool(self.vectorize)),
            ("clang", Json::Bool(self.clang)),
            ("vls", Json::Bool(self.vls)),
            ("placement", Json::str(self.placement.label())),
            ("threads", Json::Num(self.threads as f64)),
            ("kernels", Json::Arr(self.kernels.iter().map(|k| Json::str(k.label())).collect())),
        ])
    }
}

/// Generate a random case.
pub fn generate_case(g: &mut Gen) -> RowCase {
    let machine = *g.choose(&MachineId::CATALOG);
    let layout = g.bool_with(0.5).then(|| {
        let cores = *g.choose(&[4usize, 8, 12, 16, 32, 64]);
        let regions = *g.choose(&[1usize, 2, 4]);
        // Every region holds whole 4-core clusters.
        let regions = if cores % (regions * 4) == 0 { regions } else { 1 };
        Layout { cores, regions, controllers: g.usize_in(1..=2) }
    });
    // A seeded permutation of the suite: the row must not care which
    // kernel resolves it.
    let mut kernels = KernelName::ALL.to_vec();
    for i in (1..kernels.len()).rev() {
        kernels.swap(i, g.usize_in(0..=i));
    }
    RowCase {
        machine,
        layout,
        fp64: g.bool_with(0.5),
        vectorize: g.bool_with(0.8),
        clang: g.bool_with(0.3),
        vls: g.bool_with(0.5),
        placement: *g.choose(&PlacementPolicy::ALL),
        threads: *g.choose(&[1usize, 2, 3, 4, 8, 16, 32, 64, 128]),
        kernels,
    }
}

fn same_bits(a: &TimeEstimate, b: &TimeEstimate) -> bool {
    a.seconds.to_bits() == b.seconds.to_bits()
        && a.compute_seconds.to_bits() == b.compute_seconds.to_bits()
        && a.memory_seconds.to_bits() == b.memory_seconds.to_bits()
        && a.overhead_seconds.to_bits() == b.overhead_seconds.to_bits()
        && a.vector_path == b.vector_path
}

fn same_env(a: &MemoryEnv, b: &MemoryEnv) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.capacity_shares) == bits(&b.capacity_shares)
        && bits(&a.bw_shares) == bits(&b.bw_shares)
        && a.threads_per_controller.to_bits() == b.threads_per_controller.to_bits()
        && a.line_bytes.to_bits() == b.line_bytes.to_bits()
}

/// Estimate the row's kernels through one shared environment, a quarter of
/// them on each of four scoped threads.
fn shared_row(m: &Machine, cfg: &RunConfig, kernels: &[KernelName]) -> Vec<TimeEstimate> {
    let row = &RowEnv::new(Model::paper(), m, cfg);
    std::thread::scope(|s| {
        let threads: Vec<ScopedJoinHandle<Vec<TimeEstimate>>> = kernels
            .chunks(kernels.len().div_ceil(4).max(1))
            .map(|part| s.spawn(move || part.iter().map(|&k| row.estimate(k)).collect()))
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("row thread panicked")).collect()
    })
}

/// Check one case: the shared row against independent estimates.
pub fn check(case: &RowCase, _fault: Fault) -> Result<(), String> {
    let cfg = case.config();
    if case.layout.is_some() {
        // Warm whatever a placement memo could hold with the catalog row.
        let _ = shared_row(&machine(case.machine), &cfg, &case.kernels);
    }
    let m = case.descriptor();
    let shared = shared_row(&m, &cfg, &case.kernels);
    for (kernel, est) in case.kernels.iter().zip(&shared) {
        let alone = estimate(&m, *kernel, &cfg);
        if !same_bits(est, &alone) {
            return Err(format!(
                "shared row diverged on {kernel}: {est:?} vs per-kernel {alone:?} for {}",
                case.describe()
            ));
        }
    }

    let row = RowEnv::new(Model::paper(), &m, &cfg);
    let threads = case.threads.clamp(1, m.n_cores());
    if row.threads() != threads {
        return Err(format!("row runs {} threads, expected {threads}", row.threads()));
    }
    let direct = MemoryEnv::new(&m, &cfg.placement.map(&m.topology, threads));
    if !same_env(row.memory(), &direct) {
        return Err(format!(
            "row memory environment {:?} differs from the placement's {direct:?} for {}",
            row.memory(),
            case.describe()
        ));
    }
    Ok(())
}

/// Strictly-simpler variants for minimization.
pub fn shrink(case: &RowCase) -> Vec<RowCase> {
    let mut out = Vec::new();
    if case.kernels.len() > 1 {
        let half = case.kernels.len() / 2;
        for part in [&case.kernels[..half], &case.kernels[half..]] {
            out.push(RowCase { kernels: part.to_vec(), ..case.clone() });
        }
    }
    if case.layout.is_some() {
        out.push(RowCase { layout: None, ..case.clone() });
    }
    if case.threads > 1 {
        out.push(RowCase { threads: 1, ..case.clone() });
    }
    if case.placement != PlacementPolicy::Block {
        out.push(RowCase { placement: PlacementPolicy::Block, ..case.clone() });
    }
    if case.fp64 {
        out.push(RowCase { fp64: false, ..case.clone() });
    }
    out
}

/// Run the oracle.
pub fn run(cfg: &VerifyConfig) -> OracleReport {
    drive(NAME, cfg, generate_case, check, shrink, RowCase::describe, RowCase::to_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_pass() {
        for index in 0..20u64 {
            let seed = rvhpc_quickprop::case_seed(rvhpc_quickprop::BASE_SEED, index);
            let case = generate_case(&mut Gen::new(seed));
            check(&case, Fault::None).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        }
    }

    #[test]
    fn generated_rows_cover_perturbed_and_clamped_cases() {
        let cases: Vec<RowCase> = (0..200u64)
            .map(|i| generate_case(&mut Gen::new(rvhpc_quickprop::case_seed(42, i))))
            .collect();
        assert!(cases.iter().any(|c| c.layout.is_some()));
        assert!(cases.iter().any(|c| c.layout.is_none()));
        assert!(cases.iter().any(|c| c.machine == MachineId::Sg2042NextGen));
        assert!(cases.iter().any(|c| c.threads > c.descriptor().n_cores()));
        for c in &cases {
            let mut sorted = c.kernels.clone();
            sorted.sort_by_key(|k| k.label());
            let mut all = KernelName::ALL.to_vec();
            all.sort_by_key(|k| k.label());
            assert_eq!(sorted, all, "every row is a permutation of the suite");
        }
    }

    #[test]
    fn shrink_moves_toward_the_trivial_case() {
        let case = generate_case(&mut Gen::new(7));
        let floor = RowCase {
            layout: None,
            threads: 1,
            placement: PlacementPolicy::Block,
            fp64: false,
            kernels: vec![KernelName::DAXPY],
            ..case.clone()
        };
        assert!(shrink(&floor).is_empty());
        assert!(shrink(&case).iter().all(|c| c.kernels.len() <= case.kernels.len()));
    }
}
