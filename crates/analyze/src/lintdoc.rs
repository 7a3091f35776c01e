//! The `rvhpc-lint-v1` artefact: one JSON document wrapping a whole lint
//! run (findings, coverage counts, and optionally the per-program
//! `rvhpc-analysis-v1` reports), plus the validator behind
//! `repro lint --check`.
//!
//! The exit-code contract is shared by every `--check`: the CLI first
//! compares the embedded `schema` tag against [`LINT_SCHEMA`] (a mismatch
//! is a *format disagreement*, exit 2), then runs [`validate_lint`] (a
//! known-format document that breaks its own invariants is *invalid*,
//! exit 1).

use crate::diag::Diagnostic;
use crate::report::{AnalysisReport, ANALYSIS_SCHEMA};
use rvhpc_trace::json::Json;

/// Schema tag for the lint-run artefact.
pub const LINT_SCHEMA: &str = "rvhpc-lint-v1";

/// Build the `rvhpc-lint-v1` document for one lint run.
///
/// `findings` and `reports` pair each entry with the human-readable
/// context it came from (`"Basic_DAXPY Vla E32 v1.0"`, `"catalog"`, a
/// file path...). `reports` may be empty when the run did not infer
/// bounds (`--report` not requested).
pub fn lint_doc(
    descriptors: usize,
    programs: usize,
    findings: &[(String, Diagnostic)],
    reports: &[(String, AnalysisReport)],
) -> Json {
    let findings_json = findings
        .iter()
        .map(|(ctx, d)| {
            Json::obj(vec![("context", Json::str(ctx.as_str())), ("finding", d.to_json())])
        })
        .collect();
    let mut pairs = vec![
        ("schema", Json::str(LINT_SCHEMA)),
        ("descriptors", Json::Num(descriptors as f64)),
        ("programs", Json::Num(programs as f64)),
        ("findings", Json::Arr(findings_json)),
        ("clean", Json::Bool(findings.is_empty())),
    ];
    if !reports.is_empty() {
        let reports_json = reports
            .iter()
            .map(|(ctx, r)| {
                Json::obj(vec![("context", Json::str(ctx.as_str())), ("report", r.to_json())])
            })
            .collect();
        pairs.push(("reports", Json::Arr(reports_json)));
    }
    Json::obj(pairs)
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("`{key}` must be a non-negative integer")),
    }
}

/// Validate a `rvhpc-lint-v1` document's own invariants.
///
/// The caller is expected to have checked the `schema` tag already (the
/// bench-style exit-2 split); this function re-checks it for direct
/// library users, then enforces: coverage counts are non-negative
/// integers, every finding carries a `context` and a structured
/// `finding` with `pass` and `message`, `clean` agrees with the findings
/// list, and every embedded report is a well-formed `rvhpc-analysis-v1`
/// object whose `admissible` flag is consistent with its own contents.
pub fn validate_lint(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == LINT_SCHEMA => {}
        Some(s) => return Err(format!("schema is `{s}`, expected `{LINT_SCHEMA}`")),
        None => return Err("no `schema` tag".to_string()),
    }
    require_u64(&doc, "descriptors")?;
    require_u64(&doc, "programs")?;
    let Some(Json::Arr(findings)) = doc.get("findings") else {
        return Err("`findings` must be an array".to_string());
    };
    for (i, f) in findings.iter().enumerate() {
        if f.get("context").and_then(Json::as_str).is_none() {
            return Err(format!("findings[{i}]: missing string `context`"));
        }
        let Some(inner) = f.get("finding") else {
            return Err(format!("findings[{i}]: missing `finding` object"));
        };
        for key in ["pass", "message"] {
            if inner.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("findings[{i}].finding: missing string `{key}`"));
            }
        }
    }
    match doc.get("clean") {
        Some(Json::Bool(clean)) => {
            if *clean != findings.is_empty() {
                return Err(format!(
                    "`clean` is {clean} but the document lists {} finding(s)",
                    findings.len()
                ));
            }
        }
        _ => return Err("`clean` must be a boolean".to_string()),
    }
    match doc.get("reports") {
        None => {}
        Some(Json::Arr(reports)) => {
            for (i, r) in reports.iter().enumerate() {
                if r.get("context").and_then(Json::as_str).is_none() {
                    return Err(format!("reports[{i}]: missing string `context`"));
                }
                let Some(inner) = r.get("report") else {
                    return Err(format!("reports[{i}]: missing `report` object"));
                };
                validate_report(inner).map_err(|e| format!("reports[{i}].report: {e}"))?;
            }
        }
        Some(_) => return Err("`reports` must be an array when present".to_string()),
    }
    Ok(())
}

/// Validate one embedded `rvhpc-analysis-v1` report object.
fn validate_report(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == ANALYSIS_SCHEMA => {}
        Some(s) => return Err(format!("schema is `{s}`, expected `{ANALYSIS_SCHEMA}`")),
        None => return Err("no `schema` tag".to_string()),
    }
    let Some(program) = doc.get("program") else {
        return Err("missing `program` object".to_string());
    };
    require_u64(program, "insts")?;
    require_u64(program, "vector_insts")?;
    let opt_bound = |key: &str| -> Result<Option<u64>, String> {
        match doc.get(key) {
            Some(Json::Null) => Ok(None),
            Some(v) => match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as u64)),
                _ => Err(format!("`{key}` must be null or a non-negative integer")),
            },
            None => Err(format!("missing `{key}`")),
        }
    };
    let step_bound = opt_bound("step_bound")?;
    opt_bound("mem_bytes_bound")?;
    let Some(Json::Arr(buffers)) = doc.get("buffers") else {
        return Err("`buffers` must be an array".to_string());
    };
    for (i, b) in buffers.iter().enumerate() {
        if b.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("buffers[{i}]: missing string `name`"));
        }
        let len = require_u64(b, "len_bytes").map_err(|e| format!("buffers[{i}]: {e}"))?;
        let lo = require_u64(b, "touched_lo").map_err(|e| format!("buffers[{i}]: {e}"))?;
        let hi = require_u64(b, "touched_hi").map_err(|e| format!("buffers[{i}]: {e}"))?;
        if lo > hi || hi > len {
            return Err(format!(
                "buffers[{i}]: touched range [{lo}, {hi}) inconsistent with len {len}"
            ));
        }
    }
    require_u64(doc, "peak_vreg_bytes")?;
    let Some(Json::Bool(unattributed)) = doc.get("unattributed_mem") else {
        return Err("`unattributed_mem` must be a boolean".to_string());
    };
    let Some(Json::Arr(findings)) = doc.get("findings") else {
        return Err("`findings` must be an array".to_string());
    };
    let Some(Json::Bool(clean)) = doc.get("clean") else {
        return Err("`clean` must be a boolean".to_string());
    };
    if *clean != findings.is_empty() {
        return Err(format!("`clean` is {clean} but {} finding(s) listed", findings.len()));
    }
    match doc.get("admissible") {
        Some(Json::Bool(admissible)) => {
            let expect = *clean && step_bound.is_some() && !*unattributed;
            if *admissible != expect {
                return Err(format!(
                    "`admissible` is {admissible} but clean/step_bound/unattributed_mem imply \
                     {expect}"
                ));
            }
        }
        _ => return Err("`admissible` must be a boolean".to_string()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Pass;
    use crate::AnalysisSpec;
    use rvhpc_rvv::{parse_program, Dialect};

    fn sample_doc() -> Json {
        let program = parse_program(
            "    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v1, (x11)\n    ret\n",
            Dialect::V10,
        )
        .expect("parses");
        let report = crate::analyze_report(&program, &AnalysisSpec::liberal());
        let findings = vec![("catalog".to_string(), Diagnostic::global(Pass::Malformed, "boom"))];
        lint_doc(3, 7, &findings, &[("demo".to_string(), report)])
    }

    #[test]
    fn generated_documents_validate() {
        let doc = sample_doc();
        validate_lint(&doc.pretty()).expect("self-produced document is valid");
        // The finding-free form too.
        let clean = lint_doc(1, 0, &[], &[]);
        validate_lint(&clean.render()).expect("clean document is valid");
    }

    #[test]
    fn clean_flag_must_agree_with_findings() {
        let text = sample_doc().pretty().replacen("\"clean\": false", "\"clean\": true", 1);
        let err = validate_lint(&text).unwrap_err();
        assert!(err.contains("`clean` is true"), "{err}");
    }

    #[test]
    fn embedded_reports_are_schema_checked() {
        let text = sample_doc().pretty().replace(ANALYSIS_SCHEMA, "rvhpc-analysis-v999");
        let err = validate_lint(&text).unwrap_err();
        assert!(err.contains("rvhpc-analysis-v999"), "{err}");
    }

    #[test]
    fn structural_breakage_is_reported() {
        for (mutation, want) in [
            (r#"{"schema":"rvhpc-lint-v1"}"#.to_string(), "`descriptors`"),
            (
                r#"{"schema":"rvhpc-lint-v1","descriptors":1,"programs":2,
                   "findings":[{"finding":{}}],"clean":false}"#
                    .to_string(),
                "`context`",
            ),
            (
                r#"{"schema":"rvhpc-lint-v1","descriptors":1,"programs":2,
                   "findings":"nope","clean":true}"#
                    .to_string(),
                "`findings` must be an array",
            ),
        ] {
            let err = validate_lint(&mutation).unwrap_err();
            assert!(err.contains(want), "`{want}` not in `{err}`");
        }
    }

    #[test]
    fn admissible_consistency_is_enforced() {
        let original = sample_doc().pretty();
        // Flip whichever value the report actually carries.
        let text = if original.contains("\"admissible\": true") {
            original.replacen("\"admissible\": true", "\"admissible\": false", 1)
        } else {
            original.replacen("\"admissible\": false", "\"admissible\": true", 1)
        };
        let err = validate_lint(&text).unwrap_err();
        assert!(err.contains("`admissible`"), "{err}");
    }
}
