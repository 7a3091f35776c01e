//! Golden tests for `repro lint --check`'s exit-code contract (the split
//! every `--check` shares): 0 for a valid `rvhpc-lint-v1` document,
//! 1 for a broken document of the right schema version, 2 for an
//! unknown/missing schema version or an unreadable file. The valid input
//! is produced by `repro lint --report --json` itself, so the round trip
//! producer → checker is what's actually golden-tested.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rvhpc-lint-check-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write document");
    path
}

/// One `--kernel`-filtered run keeps the golden input fast while still
/// exercising reports, bounds and the catalog descriptors.
fn valid_document_text() -> String {
    let (code, out, err) = repro(&["lint", "--kernel", "Basic_DAXPY", "--report", "--json"]);
    assert_eq!(code, Some(0), "lint run must be clean: {err}");
    assert!(out.contains("rvhpc-lint-v1"), "document carries the schema tag:\n{out}");
    assert!(out.contains("rvhpc-analysis-v1"), "--report embeds analysis reports:\n{out}");
    out
}

#[test]
fn produced_document_exits_0() {
    let path = tmp_file("valid.json", &valid_document_text());
    let (code, _, err) = repro(&["lint", "--check", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(0), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_schema_version_exits_2() {
    let text = valid_document_text().replacen("rvhpc-lint-v1", "rvhpc-lint-v999", 1);
    let path = tmp_file("unknown-schema.json", &text);
    let (code, _, err) = repro(&["lint", "--check", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown schema version"), "{err}");
    assert!(err.contains("rvhpc-lint-v999"), "names the offending tag: {err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn missing_schema_tag_exits_2() {
    let path = tmp_file("no-schema.json", r#"{"findings": []}"#);
    let (code, _, err) = repro(&["lint", "--check", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("no `schema` tag"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn right_schema_but_broken_body_exits_1() {
    let path = tmp_file("broken-body.json", r#"{"schema": "rvhpc-lint-v1"}"#);
    let (code, _, err) = repro(&["lint", "--check", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("INVALID"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn inconsistent_clean_flag_exits_1() {
    // A structurally plausible document whose `clean` flag contradicts its
    // own findings list.
    let text = r#"{
      "schema": "rvhpc-lint-v1",
      "descriptors": 1,
      "programs": 1,
      "findings": [{"context": "x", "finding": {"pass": "no-vtype", "message": "m"}}],
      "clean": true
    }"#;
    let path = tmp_file("lying-clean.json", text);
    let (code, _, err) = repro(&["lint", "--check", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("`clean`"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn unreadable_file_exits_2() {
    let path = std::env::temp_dir().join("rvhpc-lint-check-definitely-missing.json");
    let _ = std::fs::remove_file(&path);
    let (code, _, err) = repro(&["lint", "--check", path.to_str().expect("utf8")]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn env_flag_requires_an_asm_file() {
    let (code, _, err) = repro(&["lint", "--env", "/tmp/whatever.json"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--env only applies"), "{err}");
}
