//! The exit-code contract every `repro` subcommand shares through its flag
//! table: `--check` exits 0 valid, 1 broken body of a known schema, 2
//! unknown or missing schema tag or unreadable file; unknown flags and
//! valued flags without a value exit 2; out-of-range values exit 2 (or 1
//! when only the server is missing), never with a panic.

mod support;

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn tmp_file(name: &str, contents: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("rvhpc-cli-contract-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write document");
    path.to_str().expect("utf8 path").to_string()
}

/// The stdout of a `repro` run that must exit 0.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8")
}

/// A valid lint document, produced by the lint run itself.
fn lint_document() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["lint", "--kernel", "Basic_DAXPY", "--json"])
        .output()
        .expect("repro lint runs");
    assert_eq!(out.status.code(), Some(0), "the lint run is clean");
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn check_follows_one_contract_for_every_schema() {
    let cases = [
        ("lint", "rvhpc-lint-v1", lint_document()),
        ("top", "rvhpc-metrics-v1", rvhpc_obs::metrics_json().pretty()),
        ("fleet-bench", "rvhpc-fleet-bench-v1", support::fleet_bench_run().to_string()),
        // This build's own score: no regression against itself.
        ("calibrate", "rvhpc-fidelity-v1", stdout_of(&["calibrate", "--json"])),
    ];
    for (cmd, schema, valid) in cases {
        let unknown = valid.replacen(schema, "rvhpc-unknown-v999", 1);
        for (name, text, code, needle) in [
            ("valid", valid.clone(), 0, ""),
            ("broken", format!("{{\"schema\": \"{schema}\"}}"), 1, "INVALID"),
            ("unknown", unknown, 2, "unknown schema version `rvhpc-unknown-v999`"),
            ("untagged", "{\"clean\": true}".to_string(), 2, "no `schema` tag"),
        ] {
            let path = tmp_file(&format!("{cmd}-{name}.json"), &text);
            let (got, err) = repro(&[cmd, "--check", &path]);
            assert_eq!(got, Some(code), "{cmd} --check {name}: {err}");
            assert!(err.contains(needle), "{cmd} --check {name}: {err}");
            let _ = std::fs::remove_file(path);
        }
        let (got, err) = repro(&[cmd, "--check", "/no/such/rvhpc/document.json"]);
        assert_eq!(got, Some(2), "{cmd} --check on an unreadable path: {err}");
        assert!(err.contains("cannot read"), "{cmd}: {err}");
    }
}

#[test]
fn every_subcommand_rejects_unknown_flags_and_missing_values() {
    for (cmd, valued) in [
        ("verify", "--seed"),
        ("lint", "--check"),
        ("serve", "--addr"),
        ("submit", "--asm"),
        ("loadgen", "--clients"),
        ("fleet", "--shards"),
        ("fleet-bench", "--json"),
        ("cluster", "--nodes"),
        ("top", "--frames"),
        ("calibrate", "--check"),
    ] {
        let (code, err) = repro(&[cmd, "--no-such-flag"]);
        assert_eq!(code, Some(2), "{cmd} --no-such-flag: {err}");
        assert!(err.contains(&format!("unknown {cmd} argument `--no-such-flag`")), "{err}");
        assert!(err.contains(&format!("usage: repro {cmd}")), "{cmd}: {err}");

        let (code, err) = repro(&[cmd, valued]);
        assert_eq!(code, Some(2), "{cmd} {valued} without a value: {err}");
        assert!(err.contains(&format!("{valued} needs a value")), "{err}");
    }
}

#[test]
fn out_of_range_values_exit_2_and_never_panic() {
    let unreachable = "127.0.0.1:1";
    for (flag, value) in [
        ("--duration", "-1"),
        ("--duration", "nan"),
        ("--duration", "1e300"),
        ("--rps", "-1"),
        ("--rps", "nan"),
        ("--rps", "inf"),
    ] {
        let (code, err) = repro(&["loadgen", "--addr", unreachable, flag, value]);
        assert_eq!(code, Some(2), "loadgen {flag} {value}: {err}");
        assert!(err.contains(&format!("{flag} must be")), "{err}");
    }
    // A positive rate too small for a pacing interval fails at run time.
    let (code, err) = repro(&["loadgen", "--addr", unreachable, "--rps", "1e-300"]);
    assert_eq!(code, Some(1), "{err}");

    for scale in ["abc", "0", "-1", "nan"] {
        let (code, err) = repro(&["native", scale]);
        assert_eq!(code, Some(2), "native {scale}: {err}");
        assert!(err.contains("scale must be a positive finite number"), "{err}");
    }
}

#[test]
fn removed_fleet_flags_are_rejected() {
    for flag in ["--probe-every-ms", "--cooldown-ms"] {
        let (code, err) = repro(&["fleet", "--shards", "1", flag, "200"]);
        assert_eq!(code, Some(2), "fleet {flag}: {err}");
        assert!(err.contains(&format!("unknown fleet argument `{flag}`")), "{err}");
    }
}

#[test]
fn calibrate_prints_every_paper_cell_and_the_total() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("calibrate")
        .output()
        .expect("repro calibrate runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8");
    for cell in rvhpc::paper::cells() {
        let row = format!("| {} | ", cell.id);
        assert!(text.lines().any(|l| l.starts_with(&row)), "no line for {}:\n{text}", cell.id);
    }
    assert!(
        text.lines().any(|l| l.starts_with("total |ln(model/paper)| ") && l.contains(" 72 cells")),
        "no total line:\n{text}"
    );
}
