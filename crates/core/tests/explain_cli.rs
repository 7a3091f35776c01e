//! Golden tests for `repro explain` (every machine's breakdown sums to its
//! estimate, JSON output round-trips) and smoke tests for the `repro
//! verify` subcommand through the real binary.

use rvhpc::kernels::KernelName;
use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{estimate, explain, Precision, RunConfig};
use rvhpc_trace::json::Json;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// The explain breakdown is an attribution of the estimate on every
/// modelled machine, at both precisions and at serial and parallel thread
/// counts: busy + overhead equals `TimeEstimate::seconds` exactly.
#[test]
fn explain_sums_exactly_on_every_machine() {
    let all = MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]);
    for id in all {
        let m = machine(id);
        for precision in [Precision::Fp32, Precision::Fp64] {
            for threads in [1usize, 8, 64] {
                let cfg = if id.is_riscv() {
                    RunConfig::sg2042_best(precision, threads)
                } else {
                    RunConfig::x86(precision, threads)
                };
                for kernel in [KernelName::STREAM_TRIAD, KernelName::DAXPY, KernelName::GEMM] {
                    let ex = explain(&m, kernel, &cfg);
                    let direct = estimate(&m, kernel, &cfg);
                    assert_eq!(
                        ex.estimate.seconds, direct.seconds,
                        "{id} {kernel} {precision:?} t={threads}: explain embeds the estimate"
                    );
                    let sum = ex.busy_seconds() + ex.estimate.overhead_seconds;
                    assert_eq!(
                        sum, direct.seconds,
                        "{id} {kernel} {precision:?} t={threads}: components must sum"
                    );
                }
            }
        }
    }
}

/// `Explanation::to_json` round-trips through the hand-rolled parser for
/// every machine (the CLI `--json` path is this serialisation verbatim).
#[test]
fn explain_json_round_trips_on_every_machine() {
    for id in MachineId::ALL {
        let m = machine(id);
        let cfg = if id.is_riscv() {
            RunConfig::sg2042_best(Precision::Fp32, 8)
        } else {
            RunConfig::x86(Precision::Fp32, 8)
        };
        let j = explain(&m, KernelName::STREAM_TRIAD, &cfg).to_json();
        let parsed = Json::parse(&j.render()).expect("rendered JSON parses");
        assert_eq!(parsed, j, "{id}");
        assert_eq!(parsed.get("machine").and_then(Json::as_str), Some(id.token()));
    }
}

/// `repro --json explain` emits parseable JSON whose components sum.
#[test]
fn cli_explain_json_parses_and_sums() {
    let out = repro()
        .args(["--json", "explain", "sg2042", "Stream_TRIAD", "fp32", "32"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8");
    let j = Json::parse(&text).expect("stdout is JSON");
    let busy = j.get("busy_seconds").and_then(Json::as_f64).unwrap();
    let est = j.get("estimate").unwrap();
    let overhead = est.get("overhead_seconds").and_then(Json::as_f64).unwrap();
    let seconds = est.get("seconds").and_then(Json::as_f64).unwrap();
    assert!((busy + overhead - seconds).abs() <= 1e-12 * seconds);
    assert_eq!(j.get("kernel").and_then(Json::as_str), Some("Stream_TRIAD"));
}

/// Plain `repro explain` still prints the text attribution.
#[test]
fn cli_explain_text_prints_breakdown() {
    let out =
        repro().args(["explain", "sg2042", "Basic_DAXPY", "fp64"]).output().expect("repro runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("component breakdown"), "{text}");
    assert!(text.contains("SCALAR"), "FP64 on the C920 runs scalar: {text}");
}

/// `repro verify` exits 0 on a clean run and prints one PASS per oracle.
#[test]
fn cli_verify_passes_clean() {
    let out =
        repro().args(["verify", "--seed", "42", "--cases", "5"]).output().expect("repro runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("PASS").count(), 8, "{text}");
    assert!(text.contains("row-env"), "{text}");
    assert!(text.contains("bounds-soundness"), "{text}");
    assert!(text.contains("strip-interp"), "{text}");
    assert!(text.contains("batched-cache"), "{text}");
}

/// `repro verify --inject reduction-op` exits 1, reports a minimized
/// counterexample, and writes a replayable artefact.
#[test]
fn cli_verify_catches_injected_bug() {
    let dir = std::env::temp_dir().join("rvhpc-verify-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = repro()
        .current_dir(&dir)
        .args(["verify", "--seed", "42", "--cases", "50", "--inject", "reduction-op"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL rvv-differential"), "{text}");
    assert!(text.contains("minimized"), "{text}");
    let artefact_path = dir.join("verify-failure-rvv-differential.json");
    let artefact = std::fs::read_to_string(&artefact_path).expect("artefact written");
    Json::parse(&artefact).expect("artefact is JSON");

    let replay = repro()
        .current_dir(&dir)
        .args(["verify", "--replay", "verify-failure-rvv-differential.json"])
        .output()
        .expect("repro runs");
    assert_eq!(replay.status.code(), Some(1), "the recorded failure must reproduce");
    assert!(String::from_utf8_lossy(&replay.stdout).contains("FAIL"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad verify arguments exit 2 with usage, not a panic.
#[test]
fn cli_verify_rejects_bad_arguments() {
    for args in [&["verify", "--seed", "zzz"][..], &["verify", "--bogus"], &["verify", "--cases"]] {
        let out = repro().args(args).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
