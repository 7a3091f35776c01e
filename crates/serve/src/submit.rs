//! The lint-gated kernel/machine submission pipeline.
//!
//! `submit_kernel` turns untrusted RVV assembly into an executable
//! artifact — but only after the full admission chain passes:
//!
//! 1. **Dialect consistency** — text that mixes v0.7.1 and v1.0 forms is
//!    rejected before parsing (no single machine executes it).
//! 2. **Parse** — v1.0 first, then v0.7.1; a program neither dialect
//!    accepts is rejected with both parse errors.
//! 3. **Environment** — the optional `env` object declares the calling
//!    convention ([`rvhpc_analyze::parse_env`]); its buffers bound every
//!    address the program may touch.
//! 4. **Size cap** — at most [`MAX_SUBMIT_INSTS`] instructions.
//! 5. **Static analysis** — every `rvhpc-analyze` pass must come back
//!    clean, and the report must be *admissible*: a finite step bound and
//!    no memory access outside the declared buffers.
//! 6. **Fuel** — the inferred step bound times a safety factor, capped by
//!    the server's `--max-fuel`, becomes the interpreter's fuel. A bound
//!    above the cap is rejected up front rather than truncated silently.
//!
//! Only an artifact that clears every stage is ever executed, and its
//! execution is deterministic: fixed memory layout, fixed register seeds,
//! fuel from the bound — so repeated `estimate` calls on the same id are
//! bit-identical.

use rvhpc_analyze::{
    analyze_report, detect_dialect_mix, parse_env, AnalysisReport, Diagnostic, KernelEnv,
};
use rvhpc_rvv::{parse_program_with_lines, Dialect, ExecError, Machine, Program, SourceMap};
use rvhpc_trace::json::Json;

/// Instruction cap for submitted kernels: admission is for kernels, not
/// whole applications, and the analyser's fixpoint is superlinear.
pub const MAX_SUBMIT_INSTS: usize = 4096;

/// Safety margin on the inferred step bound when deriving fuel: the bound
/// is proven sound, but the margin keeps admission decisions (which reject
/// bounds above `max_fuel`) meaningful rather than razor-thin.
pub const FUEL_MARGIN: u64 = 64;

/// Default server-side fuel ceiling (the `--max-fuel` default).
pub const DEFAULT_MAX_FUEL: u64 = 10_000_000;

/// The most findings a rejection lists, in order; a capped one's message states the total.
pub const MAX_LISTED_FINDINGS: usize = 64;

/// An admitted, executable kernel artifact.
#[derive(Debug, Clone)]
pub struct KernelArtifact {
    /// Content-hash id (`k:<fnv64 of the asm+env text>`).
    pub id: String,
    /// The parsed program.
    pub program: Program,
    /// Which dialect the text parsed under.
    pub dialect: Dialect,
    /// The declared (or default) calling convention.
    pub env: KernelEnv,
    /// The clean analysis report admission was granted on.
    pub report: AnalysisReport,
    /// Interpreter fuel: `2 × step_bound + FUEL_MARGIN`, ≤ `max_fuel`.
    pub fuel: u64,
}

/// A structured admission rejection: a stable reason token plus the
/// findings that caused it (possibly empty for e.g. the size cap).
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Stable machine-readable reason token.
    pub reason: &'static str,
    /// Human summary.
    pub message: String,
    /// Lint findings, when the reason is lint-shaped ([`MAX_LISTED_FINDINGS`] at most).
    pub findings: Vec<Diagnostic>,
}

impl Rejection {
    fn new(reason: &'static str, message: impl Into<String>) -> Rejection {
        Rejection { reason, message: message.into(), findings: Vec::new() }
    }

    fn lint(reason: &'static str, mut message: String, mut findings: Vec<Diagnostic>) -> Self {
        let total = findings.len();
        if total > MAX_LISTED_FINDINGS {
            message = format!("{message} ({MAX_LISTED_FINDINGS} of {total} findings listed)");
            findings.truncate(MAX_LISTED_FINDINGS);
        }
        Rejection { reason, message, findings }
    }

    /// The response payload of a rejected submission.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("accepted", Json::Bool(false)),
            ("reason", Json::str(self.reason)),
            ("message", Json::str(&self.message)),
            ("findings", Json::Arr(self.findings.iter().map(Diagnostic::to_json).collect())),
        ])
    }
}

/// FNV-1a 64-bit, the workspace's content-hash for artifact ids.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_either_dialect(asm: &str) -> Result<(Program, SourceMap, Dialect), Rejection> {
    let v10_err = match parse_program_with_lines(asm, Dialect::V10) {
        Ok((p, map)) => return Ok((p, map, Dialect::V10)),
        Err(e) => e,
    };
    match parse_program_with_lines(asm, Dialect::V071) {
        Ok((p, map)) => Ok((p, map, Dialect::V071)),
        Err(v071_err) => Err(Rejection::new(
            "parse_error",
            format!("program parses in neither dialect: v1.0: {v10_err}; v0.7.1: {v071_err}"),
        )),
    }
}

/// Run the full admission chain over a submitted kernel. `env_text` is the
/// raw `env` JSON (None = the compiler's streaming default); `max_fuel` is
/// the server's fuel ceiling.
pub fn admit_kernel(
    asm: &str,
    env_text: Option<&str>,
    max_fuel: u64,
) -> Result<KernelArtifact, Rejection> {
    let mix = detect_dialect_mix(asm);
    if !mix.is_empty() {
        return Err(Rejection::lint("dialect_mixed", mix[0].message.clone(), mix));
    }
    let (program, map, dialect) = parse_either_dialect(asm)?;
    let env = match env_text {
        None => KernelEnv::default_streaming(),
        Some(text) => parse_env(text).map_err(|findings| {
            Rejection::lint("bad_env", "submission env rejected".into(), findings)
        })?,
    };
    if program.len_insts() > MAX_SUBMIT_INSTS {
        return Err(Rejection::new(
            "too_large",
            format!(
                "program has {} instructions, above the {MAX_SUBMIT_INSTS} admission cap",
                program.len_insts()
            ),
        ));
    }
    let mut spec = env.spec();
    spec.v071_target = dialect == Dialect::V071;
    let mut report = analyze_report(&program, &spec);
    for d in &mut report.findings {
        *d = d.clone().with_lines(&map);
    }
    if !report.clean() {
        let first = report.findings[0].to_string();
        return Err(Rejection::lint(
            "lint_findings",
            format!("{} finding(s), first: {first}", report.findings.len()),
            report.findings,
        ));
    }
    let Some(step_bound) = report.bounds.step_bound else {
        // A clean report with no bound cannot happen today (unbounded
        // loops are findings), but the admission contract must not depend
        // on that coupling.
        return Err(Rejection::new("unbounded", "no static step bound could be inferred"));
    };
    if report.bounds.unattributed_mem {
        return Err(Rejection::new(
            "unattributed_memory",
            "program touches memory the declared buffers do not cover",
        ));
    }
    let fuel = step_bound.saturating_mul(2).saturating_add(FUEL_MARGIN);
    if fuel > max_fuel {
        return Err(Rejection::new(
            "over_fuel",
            format!(
                "inferred step bound {step_bound} needs fuel {fuel}, above the \
                 server cap {max_fuel}"
            ),
        ));
    }
    let mut hashed = asm.as_bytes().to_vec();
    hashed.push(0);
    hashed.extend_from_slice(env_text.unwrap_or("").as_bytes());
    let id = format!("k:{:016x}", fnv64(&hashed));
    Ok(KernelArtifact { id, program, dialect, env, report, fuel })
}

/// The response payload of an accepted kernel submission.
pub fn accepted_json(artifact: &KernelArtifact) -> Json {
    Json::obj(vec![
        ("accepted", Json::Bool(true)),
        ("id", Json::str(&artifact.id)),
        (
            "dialect",
            Json::str(match artifact.dialect {
                Dialect::V10 => "rvv1.0",
                Dialect::V071 => "rvv0.7.1",
            }),
        ),
        ("fuel", Json::Num(artifact.fuel as f64)),
        ("report", artifact.report.to_json()),
    ])
}

/// Execute an admitted artifact deterministically and return the run
/// document. The environment fully determines the machine state: declared
/// constants and buffer bases in x-registers, `1.0` in every declared
/// f-register, zeroed memory sized by the env layout — so two calls on
/// the same artifact return byte-identical JSON.
pub fn execute_kernel(artifact: &KernelArtifact) -> Result<Json, String> {
    let mut m = Machine::new(artifact.dialect, artifact.env.mem_bytes);
    m.enable_mem_tracking();
    for &(reg, val) in &artifact.env.x {
        m.set_x(reg, val as u64);
    }
    for buf in &artifact.env.buffers {
        m.set_x(buf.reg, buf.base as u64);
    }
    for &fr in &artifact.env.f {
        m.set_f(fr, 1.0);
    }
    let steps = match m.run_fueled(&artifact.program, artifact.fuel) {
        Ok(steps) => steps,
        Err(ExecError::StepLimit) => {
            // Soundness violation: the bound that justified admission did
            // not cover the run. Surface it loudly; never loop further.
            return Err(format!(
                "artifact {} exhausted its fuel ({}) despite a step bound of {:?}",
                artifact.id, artifact.fuel, artifact.report.bounds.step_bound
            ));
        }
        Err(e) => return Err(format!("artifact {} failed: {e:?}", artifact.id)),
    };
    let touched: u64 = m.mem_bytes;
    Ok(Json::obj(vec![
        ("id", Json::str(&artifact.id)),
        ("steps", Json::Num(steps as f64)),
        ("executed", Json::Num(m.executed as f64)),
        ("executed_vector", Json::Num(m.executed_vector as f64)),
        ("mem_bytes", Json::Num(touched as f64)),
        ("fuel", Json::Num(artifact.fuel as f64)),
        (
            "step_bound",
            artifact.report.bounds.step_bound.map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_analyze::Pass;

    const CLEAN: &str = "\
loop:
    vsetvli x5, x10, e32, m1, ta, ma
    vle32.v v1, (x11)
    vfadd.vv v2, v1, v1
    vse32.v v2, (x13)
    slli x6, x5, 2
    add x11, x11, x6
    add x13, x13, x6
    sub x10, x10, x5
    bne x10, x0, loop
    ret
";

    #[test]
    fn clean_kernel_is_admitted_and_runs_within_fuel() {
        let artifact = admit_kernel(CLEAN, None, DEFAULT_MAX_FUEL).unwrap();
        assert!(artifact.id.starts_with("k:"));
        assert_eq!(artifact.dialect, Dialect::V10);
        assert!(artifact.report.admissible());
        let run1 = execute_kernel(&artifact).unwrap().render();
        let run2 = execute_kernel(&artifact).unwrap().render();
        assert_eq!(run1, run2, "execution must be deterministic");
        let doc = Json::parse(&run1).unwrap();
        let steps = doc.get("steps").and_then(Json::as_f64).unwrap();
        let bound = doc.get("step_bound").and_then(Json::as_f64).unwrap();
        assert!(steps <= bound, "steps {steps} above bound {bound}");
    }

    #[test]
    fn ids_are_content_addressed() {
        let a = admit_kernel(CLEAN, None, DEFAULT_MAX_FUEL).unwrap();
        let b = admit_kernel(CLEAN, None, DEFAULT_MAX_FUEL).unwrap();
        assert_eq!(a.id, b.id);
        let c = admit_kernel(
            CLEAN,
            Some(r#"{"x":{"10":64},"buffers":[{"reg":11,"len_bytes":256},{"reg":13,"len_bytes":256}]}"#),
            DEFAULT_MAX_FUEL,
        )
        .unwrap();
        assert_ne!(a.id, c.id, "env is part of the content hash");
    }

    #[test]
    fn dialect_mix_is_rejected_before_parsing() {
        let mixed = "    vsetvli x5, x10, e32, m1\n    vle32.v v1, (x11)\n    ret\n";
        let r = admit_kernel(mixed, None, DEFAULT_MAX_FUEL).unwrap_err();
        assert_eq!(r.reason, "dialect_mixed");
        assert_eq!(r.findings[0].pass, Pass::DialectMixed);
    }

    #[test]
    fn unparsable_text_reports_both_dialect_errors() {
        let r = admit_kernel("    frobnicate v1, v2\n", None, DEFAULT_MAX_FUEL).unwrap_err();
        assert_eq!(r.reason, "parse_error");
        assert!(r.message.contains("v1.0:"), "{}", r.message);
        assert!(r.message.contains("v0.7.1:"), "{}", r.message);
    }

    #[test]
    fn lint_findings_block_admission_with_source_lines() {
        // Reads v1 without any vsetvli: no-vtype, anchored to line 1.
        let dirty = "    vfadd.vv v2, v1, v1\n    vse32.v v2, (x13)\n    ret\n";
        let r = admit_kernel(dirty, None, DEFAULT_MAX_FUEL).unwrap_err();
        assert_eq!(r.reason, "lint_findings");
        assert!(!r.findings.is_empty());
        assert!(r.findings.iter().all(|d| d.line.is_some()), "{:?}", r.findings);
    }

    #[test]
    fn unbounded_loops_are_rejected() {
        let spin = "\
loop:
    vsetvli x5, x10, e32, m1, ta, ma
    vle32.v v1, (x11)
    bne x10, x0, loop
    ret
";
        let r = admit_kernel(spin, None, DEFAULT_MAX_FUEL).unwrap_err();
        assert_eq!(r.reason, "lint_findings");
        assert!(r.findings.iter().any(|d| d.pass == Pass::UnboundedLoop), "{:?}", r.findings);
    }

    #[test]
    fn fuel_cap_rejects_oversized_bounds() {
        // Admissible at the default cap, rejected when the server caps
        // fuel below the program's need.
        let r = admit_kernel(CLEAN, None, 16).unwrap_err();
        assert_eq!(r.reason, "over_fuel");
        assert!(r.message.contains("cap 16"), "{}", r.message);
    }

    #[test]
    fn oversized_programs_are_rejected() {
        let mut text = String::from("    vsetvli x5, x10, e32, m1, ta, ma\n");
        for _ in 0..MAX_SUBMIT_INSTS {
            text.push_str("    vfadd.vv v1, v1, v1\n");
        }
        text.push_str("    ret\n");
        let r = admit_kernel(&text, None, DEFAULT_MAX_FUEL).unwrap_err();
        assert_eq!(r.reason, "too_large");
    }

    #[test]
    fn v071_submissions_are_linted_as_v071() {
        let text = "\
    vsetvli x5, x10, e32, m1
    vle.v v1, (x11)
    vfadd.vv v2, v1, v1
    vse.v v2, (x13)
    ret
";
        let artifact = admit_kernel(text, None, DEFAULT_MAX_FUEL).unwrap();
        assert_eq!(artifact.dialect, Dialect::V071);
        execute_kernel(&artifact).unwrap();
    }

    #[test]
    fn rejection_json_is_structured() {
        let r = admit_kernel("???", None, DEFAULT_MAX_FUEL).unwrap_err();
        let doc = r.to_json();
        assert_eq!(doc.get("accepted"), Some(&Json::Bool(false)));
        assert!(doc.get("reason").and_then(Json::as_str).is_some());
        assert!(doc.get("findings").and_then(Json::as_arr).is_some());
    }
}
