//! Golden tests for the observability CLI surface:
//! * `repro top --check` follows the same exit-code contract as
//!   `repro bench --check` — 0 valid, 1 broken-but-known-schema,
//!   2 unknown/missing schema or unreadable file;
//! * `repro serve` announces itself with one machine-parseable JSON
//!   banner line on stderr before accepting traffic.

use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

fn check(path: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["top", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("repro top --check runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rvhpc-top-check-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write snapshot");
    path
}

/// A genuine metrics document from the in-process registry: `repro top
/// --check` must accept exactly what the exposition layer produces.
fn valid_snapshot_text() -> String {
    rvhpc_obs::stage("test.top.check").record_us(123.0);
    rvhpc_obs::gauge!("test.top.gauge", 7);
    rvhpc_obs::metrics_json().pretty()
}

#[test]
fn valid_snapshot_exits_0() {
    let path = tmp_file("valid.json", &valid_snapshot_text());
    let (code, err) = check(&path);
    assert_eq!(code, Some(0), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_schema_version_exits_2() {
    let text = valid_snapshot_text().replace("rvhpc-metrics-v1", "rvhpc-metrics-v999");
    let path = tmp_file("unknown-schema.json", &text);
    let (code, err) = check(&path);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown schema"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn missing_schema_and_unreadable_file_exit_2() {
    let path = tmp_file("no-schema.json", r#"{"uptime_s": 1.0}"#);
    let (code, err) = check(&path);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("no `schema` tag"), "{err}");
    let _ = std::fs::remove_file(path);

    let (code, _) = check(std::path::Path::new("/no/such/rvhpc/snapshot.json"));
    assert_eq!(code, Some(2));
}

#[test]
fn broken_document_of_known_schema_exits_1() {
    // Corrupt the cumulative SLO burn fraction so it no longer matches
    // breaches/total: known schema, broken invariants.
    let text =
        valid_snapshot_text().replacen("\"burn_fraction\":", "\"burn_fraction\": 0.5, \"x\":", 1);
    assert!(text.contains("\"x\":"), "corruption applied");
    let path = tmp_file("broken.json", &text);
    let (code, err) = check(&path);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("INVALID"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn serve_banner_is_one_parseable_json_line_on_stderr() {
    let port_file = std::env::temp_dir().join(format!("rvhpc-banner-port-{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().expect("utf8"),
            "--slo-ms",
            "75",
            "--queue-cap",
            "9",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro serve spawns");

    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("banner line");
    let doc = Json::parse(banner.trim_end()).expect("banner is valid JSON");
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("serve.start"));
    assert_eq!(doc.get("slo_ms").and_then(Json::as_f64), Some(75.0));
    assert_eq!(doc.get("queue_cap").and_then(Json::as_f64), Some(9.0));
    assert_eq!(doc.get("pid").and_then(Json::as_f64), Some(child.id() as f64));
    let port = doc.get("port").and_then(Json::as_f64).expect("port field");
    assert!(port >= 1.0, "ephemeral port resolved in the banner, got {port}");
    let addr = doc.get("addr").and_then(Json::as_str).expect("addr field").to_string();
    assert!(addr.ends_with(&format!(":{port}")));

    // The banner's address is live: drain the server through it.
    for _ in 0..100 {
        if port_file.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stream = TcpStream::connect(&addr).expect("banner addr accepts connections");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"{\"op\":\"shutdown\"}\n").expect("send shutdown");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("shutdown acked");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "clean drain after shutdown: {status:?}");
    let _ = std::fs::remove_file(&port_file);
}
