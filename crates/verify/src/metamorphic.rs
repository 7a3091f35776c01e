//! Metamorphic properties of the performance model.
//!
//! No external oracle can say what DAXPY "should" take on an SG2042, but
//! some relations must hold on *every* machine × kernel × precision ×
//! thread-count, because they follow from what the model claims to be:
//!
//! * `explain` is an attribution, not a second model: its components sum
//!   exactly (f64-equal) to [`rvhpc_perfmodel::TimeEstimate::seconds`]
//!   under the machine's overlap rule, and its embedded estimate is the
//!   one `estimate` returns.
//! * FP32 never moves more bytes than FP64 for the same kernel and size.
//! * Estimates are monotone in hardware generosity: scaling the clock or
//!   the DRAM bandwidth up never slows a run down, and doubling threads
//!   never increases per-repetition compute time (overhead may grow — the
//!   paper's fork-join term is linear in thread count).
//! * The JSON report round-trips through the `Json` parser unchanged.

use crate::{drive, Fault, OracleReport, VerifyConfig};
use rvhpc_kernels::{workload, KernelName};
use rvhpc_machines::{catalog, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{estimate, explain, Model, Precision, RowEnv, RunConfig, Toolchain};
use rvhpc_quickprop::Gen;
use rvhpc_trace::json::Json;

/// Oracle name (CLI token).
pub const NAME: &str = "perfmodel-metamorphic";

/// One randomized model-property case.
#[derive(Debug, Clone)]
pub struct ModelCase {
    /// Machine under the model.
    pub machine: MachineId,
    /// Kernel estimated.
    pub kernel: KernelName,
    /// Thread count (power of two, as the paper sweeps).
    pub threads: usize,
    /// FP64 instead of FP32.
    pub fp64: bool,
    /// Thread placement policy.
    pub placement: PlacementPolicy,
    /// VLS codegen instead of VLA.
    pub vls: bool,
    /// Vectorisation enabled.
    pub vectorize: bool,
    /// Clang+rollback toolchain instead of XuanTie GCC (RISC-V only).
    pub clang: bool,
}

impl ModelCase {
    /// The run configuration this case describes.
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
            mode: if self.vls {
                rvhpc_compiler::VectorMode::Vls
            } else {
                rvhpc_compiler::VectorMode::Vla
            },
            placement: self.placement,
            threads: self.threads,
        }
    }

    /// Human-readable summary.
    pub fn describe(&self) -> String {
        let cfg = self.config();
        format!(
            "{} {} {} {} {:?} {:?} t={}{}",
            self.machine.token(),
            self.kernel.label(),
            cfg.precision.label(),
            cfg.toolchain.label(),
            cfg.mode,
            cfg.placement,
            self.threads,
            if self.vectorize { "" } else { " novec" },
        )
    }

    /// Full case as JSON (for the failure artefact).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("machine", Json::str(self.machine.token())),
            ("kernel", Json::str(self.kernel.label())),
            ("threads", Json::Num(self.threads as f64)),
            ("fp64", Json::Bool(self.fp64)),
            ("placement", Json::str(self.placement.label())),
            ("vls", Json::Bool(self.vls)),
            ("vectorize", Json::Bool(self.vectorize)),
            ("clang", Json::Bool(self.clang)),
        ])
    }
}

/// Generate a random case.
pub fn generate_case(g: &mut Gen) -> ModelCase {
    ModelCase {
        machine: *g.choose(&MachineId::ALL),
        kernel: *g.choose(&KernelName::ALL),
        threads: *g.choose(&[1usize, 2, 4, 8, 16, 32, 64]),
        fp64: g.bool_with(0.5),
        placement: *g.choose(&PlacementPolicy::ALL),
        vls: g.bool_with(0.5),
        vectorize: g.bool_with(0.8),
        clang: g.bool_with(0.3),
    }
}

fn finite_nonneg(label: &str, v: f64, case: &ModelCase) -> Result<(), String> {
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{label} = {v} (must be finite, >= 0) for {}", case.describe()));
    }
    Ok(())
}

/// Check one case: every metamorphic property of the model.
pub fn check(case: &ModelCase, _fault: Fault) -> Result<(), String> {
    let m = catalog(case.machine);
    let cfg = case.config();

    let est = estimate(m, case.kernel, &cfg);
    finite_nonneg("seconds", est.seconds, case)?;
    finite_nonneg("compute_seconds", est.compute_seconds, case)?;
    finite_nonneg("memory_seconds", est.memory_seconds, case)?;
    finite_nonneg("overhead_seconds", est.overhead_seconds, case)?;
    if est.seconds <= 0.0 {
        return Err(format!("seconds = {} (must be > 0) for {}", est.seconds, case.describe()));
    }

    // explain is an attribution of the same estimate, not a second model.
    let ex = explain(m, case.kernel, &cfg);
    if ex.estimate.seconds != est.seconds {
        return Err(format!(
            "explain embeds a different estimate: {} vs {} for {}",
            ex.estimate.seconds,
            est.seconds,
            case.describe()
        ));
    }
    let sum = ex.busy_seconds() + ex.estimate.overhead_seconds;
    if sum != est.seconds {
        return Err(format!(
            "explain components sum to {sum:e}, estimate is {:e} ({}) for {}",
            est.seconds,
            ex.overlap_rule(),
            case.describe()
        ));
    }

    // JSON report round-trips through the parser unchanged.
    let j = ex.to_json();
    match Json::parse(&j.render()) {
        Ok(parsed) if parsed == j => {}
        Ok(_) => return Err(format!("explain JSON round trip changed for {}", case.describe())),
        Err(e) => return Err(format!("explain JSON does not parse: {e} for {}", case.describe())),
    }

    // FP32 never moves more bytes than FP64.
    let w = workload(case.kernel, ex.size);
    let (b32, b64) = (w.requested_bytes(4), w.requested_bytes(8));
    if b32 > b64 {
        return Err(format!("FP32 moves {b32} bytes > FP64 {b64} bytes for {}", case.describe()));
    }

    // Monotone in hardware generosity. The slack covers f64 rounding only;
    // a real inversion is orders of magnitude larger.
    //
    // Clock is special: the queueing term deliberately couples a faster
    // core to a higher DRAM demand rate (the paper's controller
    // oversubscription collapse), so *total* time may legitimately rise
    // with clock past the knee. Compute time must still fall with the
    // shipped calibration, and total time must fall once the queueing
    // penalty is pinned off.
    let slack = 1.0 + 1e-9;
    let mut faster = m.clone();
    faster.clock_ghz *= 1.5;
    let est_clock = estimate(&faster, case.kernel, &cfg);
    if est_clock.compute_seconds > est.compute_seconds * slack {
        return Err(format!(
            "1.5x clock raised compute time: {} -> {} s for {}",
            est.compute_seconds,
            est_clock.compute_seconds,
            case.describe()
        ));
    }
    let mut no_queue = Model::paper().clone();
    no_queue.calibration_mut(case.machine).queue_sensitivity = 0.0;
    let base_nq = RowEnv::new(&no_queue, m, &cfg).estimate(case.kernel);
    let clock_nq = RowEnv::new(&no_queue, &faster, &cfg).estimate(case.kernel);
    if clock_nq.seconds > base_nq.seconds * slack {
        return Err(format!(
            "1.5x clock slowed the run even without queueing: {} -> {} s for {}",
            base_nq.seconds,
            clock_nq.seconds,
            case.describe()
        ));
    }
    let mut wider = m.clone();
    wider.memory.bw_per_controller_gbs *= 2.0;
    let est_bw = estimate(&wider, case.kernel, &cfg);
    if est_bw.seconds > est.seconds * slack {
        return Err(format!(
            "2x DRAM bandwidth slowed the run: {} -> {} s for {}",
            est.seconds,
            est_bw.seconds,
            case.describe()
        ));
    }

    // Doubling threads never increases per-repetition compute time, and
    // the fork-join term never shrinks.
    if case.threads * 2 <= 64 {
        let mut cfg2 = cfg;
        cfg2.threads = case.threads * 2;
        let est2 = estimate(m, case.kernel, &cfg2);
        if est2.compute_seconds > est.compute_seconds * slack {
            return Err(format!(
                "doubling threads raised compute time: {} -> {} s for {}",
                est.compute_seconds,
                est2.compute_seconds,
                case.describe()
            ));
        }
        if est2.overhead_seconds < est.overhead_seconds / slack {
            return Err(format!(
                "doubling threads shrank fork-join overhead: {} -> {} s for {}",
                est.overhead_seconds,
                est2.overhead_seconds,
                case.describe()
            ));
        }
    }
    Ok(())
}

/// Strictly-simpler variants for minimization.
pub fn shrink(case: &ModelCase) -> Vec<ModelCase> {
    let mut out = Vec::new();
    if case.threads > 1 {
        let mut c = case.clone();
        c.threads = case.threads / 2;
        out.push(c);
        let mut c = case.clone();
        c.threads = 1;
        out.push(c);
    }
    if case.placement != PlacementPolicy::Block {
        let mut c = case.clone();
        c.placement = PlacementPolicy::Block;
        out.push(c);
    }
    if case.clang {
        let mut c = case.clone();
        c.clang = false;
        out.push(c);
    }
    if case.fp64 {
        let mut c = case.clone();
        c.fp64 = false;
        out.push(c);
    }
    out
}

/// Run the oracle.
pub fn run(cfg: &VerifyConfig) -> OracleReport {
    drive(NAME, cfg, generate_case, check, shrink, ModelCase::describe, ModelCase::to_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_pass() {
        for index in 0..60u64 {
            let seed = rvhpc_quickprop::case_seed(rvhpc_quickprop::BASE_SEED, index);
            let case = generate_case(&mut Gen::new(seed));
            check(&case, Fault::None).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        }
    }

    #[test]
    fn every_machine_and_placement_is_reachable_and_passes() {
        for machine in MachineId::ALL {
            for placement in PlacementPolicy::ALL {
                let case = ModelCase {
                    machine,
                    kernel: KernelName::STREAM_TRIAD,
                    threads: 8,
                    fp64: false,
                    placement,
                    vls: true,
                    vectorize: true,
                    clang: false,
                };
                check(&case, Fault::None).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn shrink_moves_toward_the_trivial_case() {
        let case = ModelCase {
            machine: MachineId::Sg2042,
            kernel: KernelName::DAXPY,
            threads: 32,
            fp64: true,
            placement: PlacementPolicy::ClusterCyclic,
            vls: false,
            vectorize: true,
            clang: true,
        };
        assert!(!shrink(&case).is_empty());
        let floor = ModelCase {
            threads: 1,
            fp64: false,
            placement: PlacementPolicy::Block,
            clang: false,
            ..case
        };
        assert!(shrink(&floor).is_empty());
    }
}
