//! Differential & metamorphic verification across the model stack.
//!
//! The paper's conclusions rest on agreement between independent
//! measurement paths; our reproduction has the same structure in software,
//! and this crate cross-checks every pair of redundant code paths under
//! randomized, seed-reproducible inputs:
//!
//! * [`rvv_diff`] — each codegen-covered RAJAPerf kernel runs through the
//!   RVV interpreter (VLA and VLS code, v1.0 and rolled-back v0.7.1
//!   dialects) and a scalar reference; results must be bit-compatible
//!   across dialects and tolerance-bounded against the reference.
//! * [`cache_diff`] — random access patterns run through both
//!   `cachesim::analytic` and the trace-driven hierarchy; their per-level
//!   traffic (and hence miss rates) must agree within bounded divergence.
//! * [`kernels_diff`] — every executable kernel's parallel path must match
//!   its serial reference checksum, and `reset` must restore exact state.
//! * [`bounds_sound`] — the static resource bounds `rvhpc-analyze` infers
//!   (and the admission pipeline trusts for interpreter fuel) must
//!   over-approximate every dynamic run: observed steps, memory traffic
//!   and per-buffer spans all sit inside the inferred bounds, for every
//!   codegen program and its rollback.
//! * [`metamorphic`] — properties of `perfmodel` that hold on every
//!   machine × kernel × precision × thread-count: FP32 never moves more
//!   bytes than FP64, estimates are monotone in clock/bandwidth/threads
//!   within the model's own scaling assumptions, and `explain` components
//!   always sum exactly to [`rvhpc_perfmodel::TimeEstimate::seconds`].
//! * [`row_env`] — a suite row estimated through one shared
//!   [`rvhpc_perfmodel::RowEnv`] (placement resolved once, kernels fanned
//!   out over the pool) must be bit-identical to estimating each kernel on
//!   its own, on catalog and perturbed descriptors alike.
//!
//! Every case derives from a base seed (`repro verify --seed N`); on
//! failure the driver greedily minimizes the counterexample via
//! [`rvhpc_quickprop::minimize`] and emits a replayable JSON artefact.
//! [`Fault`] injects deliberate bugs to prove the harness catches real
//! divergence: a mutated reduction op (caught dynamically) and dropped
//! `vsetvli`s (caught statically by the `rvhpc-analyze` pre-execution
//! gate before the interpreter runs an instruction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artefact;
pub mod bounds_sound;
pub mod cache_diff;
pub mod kernels_diff;
pub mod metamorphic;
pub mod row_env;
pub mod rvv_diff;

use rvhpc_quickprop::Gen;
use rvhpc_trace::json::Json;

/// A deliberate bug injected into a checked path, to validate that the
/// harness detects real divergence (and to demo minimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No injection: all paths run as shipped.
    None,
    /// Mutate the reduction accumulation op in generated RVV code
    /// (`vfadd` → `vfsub` in REDUCE_SUM, `vfmacc` → `vfmul` in DOT).
    ReductionOp,
    /// Delete every `vsetvli` from generated RVV code. The program then
    /// fails `rvhpc-analyze`'s `no-vtype` pass, so this fault proves the
    /// static lint gate turns lint findings into differential failures
    /// *before* execution.
    DropVsetvli,
}

impl Fault {
    /// Parse a CLI token.
    pub fn from_token(s: &str) -> Option<Fault> {
        match s {
            "none" => Some(Fault::None),
            "reduction-op" => Some(Fault::ReductionOp),
            "drop-vsetvli" => Some(Fault::DropVsetvli),
            _ => None,
        }
    }

    /// CLI token / report label.
    pub fn label(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::ReductionOp => "reduction-op",
            Fault::DropVsetvli => "drop-vsetvli",
        }
    }
}

/// One verification run's parameters.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Base seed; case `i` uses `quickprop::case_seed(seed, i)`.
    pub seed: u64,
    /// Cases per oracle.
    pub cases: u64,
    /// Injected fault, if any.
    pub inject: Fault,
}

impl VerifyConfig {
    /// A run with no fault injection.
    pub fn new(seed: u64, cases: u64) -> VerifyConfig {
        VerifyConfig { seed, cases, inject: Fault::None }
    }
}

/// One verified divergence, minimized and replayable.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle diverged.
    pub oracle: &'static str,
    /// Index of the failing case under the base seed.
    pub case_index: u64,
    /// The derived per-case seed (regenerates the original case exactly).
    pub case_seed: u64,
    /// Failure message of the original case.
    pub detail: String,
    /// Human description of the minimized counterexample.
    pub minimized: String,
    /// Failure message of the minimized counterexample.
    pub minimized_detail: String,
    /// Replayable JSON artefact (see [`artefact`]).
    pub artefact: Json,
}

/// Result of running one oracle.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Oracle name.
    pub oracle: &'static str,
    /// Cases executed (stops at the first failure).
    pub cases_run: u64,
    /// Divergences found (at most one: the driver stops and minimizes).
    pub failures: Vec<Failure>,
}

impl OracleReport {
    /// No divergence found.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// All oracle names, in run order.
pub const ORACLES: [&str; 6] = [
    rvv_diff::NAME,
    bounds_sound::NAME,
    cache_diff::NAME,
    kernels_diff::NAME,
    metamorphic::NAME,
    row_env::NAME,
];

/// Replay budget for counterexample minimization.
const MINIMIZE_BUDGET: usize = 400;

/// Shared oracle driver: generate each case from its derived seed, check
/// it, and on the first failure minimize the counterexample and stop.
pub(crate) fn drive<C: Clone>(
    oracle: &'static str,
    cfg: &VerifyConfig,
    generate: impl Fn(&mut Gen) -> C,
    check: impl Fn(&C, Fault) -> Result<(), String>,
    candidates: impl Fn(&C) -> Vec<C>,
    describe: impl Fn(&C) -> String,
    to_json: impl Fn(&C) -> Json,
) -> OracleReport {
    let _span = rvhpc_trace::span!("verify.oracle", oracle = oracle);
    let mut failures = Vec::new();
    let mut cases_run = 0;
    for index in 0..cfg.cases {
        let case_seed = rvhpc_quickprop::case_seed(cfg.seed, index);
        let mut g = Gen::new(case_seed);
        let case = generate(&mut g);
        cases_run += 1;
        if let Err(detail) = check(&case, cfg.inject) {
            rvhpc_obs::counter!("verify.failures", 1);
            let inject = cfg.inject;
            let min = rvhpc_quickprop::minimize(
                case,
                &candidates,
                |c| check(c, inject).is_err(),
                MINIMIZE_BUDGET,
            );
            let minimized_detail = check(&min, inject)
                .err()
                .unwrap_or_else(|| "<minimized case no longer fails>".to_string());
            let art = artefact::failure_json(
                oracle,
                cfg,
                index,
                case_seed,
                to_json(&min),
                &minimized_detail,
            );
            failures.push(Failure {
                oracle,
                case_index: index,
                case_seed,
                detail,
                minimized: describe(&min),
                minimized_detail,
                artefact: art,
            });
            break;
        }
    }
    rvhpc_obs::counter!("verify.cases", cases_run);
    OracleReport { oracle, cases_run, failures }
}

/// Run one oracle by name.
pub fn run_oracle(name: &str, cfg: &VerifyConfig) -> Option<OracleReport> {
    match name {
        rvv_diff::NAME => Some(rvv_diff::run(cfg)),
        bounds_sound::NAME => Some(bounds_sound::run(cfg)),
        cache_diff::NAME => Some(cache_diff::run(cfg)),
        kernels_diff::NAME => Some(kernels_diff::run(cfg)),
        metamorphic::NAME => Some(metamorphic::run(cfg)),
        row_env::NAME => Some(row_env::run(cfg)),
        _ => None,
    }
}

/// Run every oracle.
pub fn run_all(cfg: &VerifyConfig) -> Vec<OracleReport> {
    ORACLES.iter().map(|name| run_oracle(name, cfg).expect("known oracle")).collect()
}

/// Re-run a single case of one oracle from its per-case seed (the replay
/// path for a recorded artefact). `Ok(())` means the case passes now.
pub fn replay_case(oracle: &str, case_seed: u64, inject: Fault) -> Result<(), String> {
    let mut g = Gen::new(case_seed);
    match oracle {
        rvv_diff::NAME => rvv_diff::check(&rvv_diff::generate_case(&mut g), inject),
        bounds_sound::NAME => bounds_sound::check(&bounds_sound::generate_case(&mut g), inject),
        cache_diff::NAME => cache_diff::check(&cache_diff::generate_case(&mut g), inject),
        kernels_diff::NAME => kernels_diff::check(&kernels_diff::generate_case(&mut g), inject),
        metamorphic::NAME => metamorphic::check(&metamorphic::generate_case(&mut g), inject),
        row_env::NAME => row_env::check(&row_env::generate_case(&mut g), inject),
        other => Err(format!("unknown oracle {other:?} (known: {ORACLES:?})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_resolve() {
        for name in ORACLES {
            assert!(run_oracle(name, &VerifyConfig::new(1, 0)).is_some(), "{name}");
        }
        assert!(run_oracle("nope", &VerifyConfig::new(1, 0)).is_none());
    }

    #[test]
    fn fault_tokens_round_trip() {
        for f in [Fault::None, Fault::ReductionOp, Fault::DropVsetvli] {
            assert_eq!(Fault::from_token(f.label()), Some(f));
        }
        assert_eq!(Fault::from_token("bogus"), None);
    }

    #[test]
    fn replay_rejects_unknown_oracle() {
        assert!(replay_case("bogus", 1, Fault::None).is_err());
    }
}
