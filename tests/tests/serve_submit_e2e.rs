//! End-to-end tests for the lint-gated submission pipeline: a real
//! `rvhpc_serve::Server` and real TCP sockets, driving `submit_kernel` /
//! `submit_machine` and the artifact-addressed `estimate` path.
//!
//! The acceptance contract:
//! * a clean kernel is admitted with an `rvhpc-analysis-v1` report and
//!   round-trips to **bit-identical** `estimate` replies,
//! * a lint-dirty kernel is rejected with structured findings **before
//!   any interpreter execution** (the `kernel_runs` counter stays zero),
//! * the artifact registry is bounded: past `REGISTRY_CAP` entries the
//!   oldest artifact is evicted and further lookups of it fail loudly.

use rvhpc_serve::protocol::MAX_LINE_BYTES;
use rvhpc_serve::server::REGISTRY_CAP;
use rvhpc_serve::submit::MAX_LISTED_FINDINGS;
use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const CLEAN: &str = "\
loop:
    vsetvli x5, x10, e32, m1, ta, ma
    vle32.v v1, (x11)
    vle32.v v2, (x12)
    vfmacc.vv v2, v1, v1
    vse32.v v2, (x13)
    slli x6, x5, 2
    add x11, x11, x6
    add x12, x12, x6
    add x13, x13, x6
    sub x10, x10, x5
    bne x10, x0, loop
    ret
";

/// Vector load before any vsetvli: two findings (`no-vtype`, `dead-store`).
const DIRTY: &str = "    vle32.v v1, (x11)\n    ret\n";

fn start() -> Server {
    Server::start(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
        .expect("server binds")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Send one raw line, return the raw reply line (for bit-identity checks).
fn ask_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("newline");
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("reply readable");
    assert!(n > 0, "server closed instead of replying");
    reply.trim_end().to_string()
}

fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    Json::parse(&ask_raw(stream, reader, line)).expect("reply is valid JSON")
}

fn submit_kernel(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    asm: &str,
    env: Option<Json>,
) -> Json {
    let mut pairs = vec![("op", Json::str("submit_kernel")), ("asm", Json::str(asm))];
    if let Some(env) = env {
        pairs.push(("env", env));
    }
    let reply = ask(stream, reader, &Json::obj(pairs).render());
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{}", reply.render());
    reply.get("result").cloned().expect("result present")
}

fn stats_server(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> Json {
    let reply = ask(stream, reader, r#"{"op":"stats"}"#);
    reply.get("result").and_then(|r| r.get("server").cloned()).expect("server stats")
}

fn stat(server_stats: &Json, key: &str) -> f64 {
    server_stats.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("stat {key}"))
}

#[test]
fn clean_kernel_round_trips_to_bit_identical_estimates() {
    let server = start();
    let (mut stream, mut reader) = connect(&server);

    let verdict = submit_kernel(&mut stream, &mut reader, CLEAN, None);
    assert_eq!(verdict.get("accepted"), Some(&Json::Bool(true)), "{}", verdict.render());
    let id = verdict.get("id").and_then(Json::as_str).expect("artifact id").to_string();
    assert!(id.starts_with("k:"), "{id}");
    let report = verdict.get("report").expect("admission report");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("rvhpc-analysis-v1"),
        "{}",
        report.render()
    );
    let step_bound = report.get("step_bound").and_then(Json::as_f64).expect("finite bound");
    let fuel = verdict.get("fuel").and_then(Json::as_f64).expect("fuel granted");
    assert!(fuel >= step_bound, "fuel {fuel} covers the bound {step_bound}");

    // The exact same request line twice: the replies must be byte-equal.
    let req = format!(r#"{{"id":7,"op":"estimate","kernel":"{id}"}}"#);
    let first = ask_raw(&mut stream, &mut reader, &req);
    let second = ask_raw(&mut stream, &mut reader, &req);
    assert_eq!(first, second, "artifact execution is deterministic");
    let doc = Json::parse(&first).expect("valid");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{first}");
    let result = doc.get("result").expect("result");
    let steps = result.get("steps").and_then(Json::as_f64).expect("steps");
    assert!(steps <= step_bound, "observed {steps} within inferred bound {step_bound}");
    assert!(
        result.get("mem_bytes").and_then(Json::as_f64).expect("mem_bytes")
            <= report.get("mem_bytes_bound").and_then(Json::as_f64).expect("mem bound"),
        "bytes touched within inferred bound"
    );

    let s = stats_server(&mut stream, &mut reader);
    assert_eq!(stat(&s, "submitted_kernels"), 1.0);
    assert_eq!(stat(&s, "kernel_runs"), 2.0);
    assert_eq!(stat(&s, "rejected_submissions"), 0.0);
    server.shutdown();
    server.join();
}

#[test]
fn dirty_kernel_is_rejected_before_any_execution() {
    let server = start();
    let (mut stream, mut reader) = connect(&server);

    let verdict = submit_kernel(&mut stream, &mut reader, DIRTY, None);
    assert_eq!(verdict.get("accepted"), Some(&Json::Bool(false)), "{}", verdict.render());
    assert_eq!(verdict.get("reason").and_then(Json::as_str), Some("lint_findings"));
    let Some(Json::Arr(findings)) = verdict.get("findings") else {
        panic!("structured findings expected: {}", verdict.render());
    };
    assert!(!findings.is_empty(), "findings list the defects");
    assert!(
        findings.iter().any(|f| f.get("pass").and_then(Json::as_str) == Some("no-vtype")),
        "{}",
        verdict.render()
    );
    // Rejections never mint an artifact id, so nothing is addressable.
    assert!(verdict.get("id").is_none(), "{}", verdict.render());

    // And nothing executed: the interpreter was never entered.
    let s = stats_server(&mut stream, &mut reader);
    assert_eq!(stat(&s, "kernel_runs"), 0.0, "rejected before execution");
    assert_eq!(stat(&s, "rejected_submissions"), 1.0);
    assert_eq!(stat(&s, "submitted_kernels"), 0.0);
    server.shutdown();
    server.join();
}

#[test]
fn a_rejection_lists_a_capped_prefix_of_its_findings_and_counts_them_all() {
    // A 64 KiB line of one v0.7.1 `vsetvli` and 3 442 `vfadd.vv` draws
    // tens of thousands of findings.
    let asm = format!("vsetvli x0,x0,e64,m8\n{}", "vfadd.vv v1,v2,v3\n".repeat(3442));
    let line =
        Json::obj(vec![("op", Json::str("submit_kernel")), ("asm", Json::str(&asm))]).render();
    assert!(line.len() <= MAX_LINE_BYTES && line.len() > MAX_LINE_BYTES - 512, "{}", line.len());
    let server = start();
    let (mut stream, mut reader) = connect(&server);

    let reply = ask_raw(&mut stream, &mut reader, &line);
    assert!(
        reply.len() < 2 * line.len(),
        "a {} byte reply to a {} byte line",
        reply.len(),
        line.len()
    );
    let verdict = Json::parse(&reply).expect("valid JSON").get("result").cloned().expect("result");
    assert_eq!(verdict.get("reason").and_then(Json::as_str), Some("lint_findings"));
    let Some(Json::Arr(findings)) = verdict.get("findings") else {
        panic!("structured findings expected: {reply}");
    };
    assert_eq!(findings.len(), MAX_LISTED_FINDINGS);
    // "<total> finding(s), first: … (<cap> of <total> findings listed)"
    let message = verdict.get("message").and_then(Json::as_str).expect("message");
    let total: usize = message.split(' ').next().and_then(|n| n.parse().ok()).expect(message);
    assert!(total >= 3442, "{message}");
    assert!(
        message.ends_with(&format!(" ({MAX_LISTED_FINDINGS} of {total} findings listed)")),
        "{message}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn unknown_artifacts_fail_loudly_and_eviction_is_bounded() {
    let server = start();
    let (mut stream, mut reader) = connect(&server);

    // An id that was never admitted.
    let reply = ask(&mut stream, &mut reader, r#"{"op":"estimate","kernel":"k:dead"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{}", reply.render());
    assert_eq!(
        reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("bad_request")
    );

    // Fill the registry past its cap with distinct artifacts (the env text
    // participates in the content hash, so varying `n` varies the id).
    let mut first_id = None;
    let mut last_id = None;
    for i in 0..=REGISTRY_CAP {
        let n = 8 + i as i64;
        let env = Json::parse(&format!(
            r#"{{"x": {{"10": {n}}}, "f": [0],
                "buffers": [{{"reg": 11, "name": "a", "len_bytes": {la}}},
                            {{"reg": 12, "name": "b", "len_bytes": {la}}},
                            {{"reg": 13, "name": "c", "len_bytes": {la}}}]}}"#,
            la = n * 4
        ))
        .expect("env JSON");
        let verdict = submit_kernel(&mut stream, &mut reader, CLEAN, Some(env));
        assert_eq!(verdict.get("accepted"), Some(&Json::Bool(true)), "n={n}: {}", verdict.render());
        let id = verdict.get("id").and_then(Json::as_str).expect("id").to_string();
        if first_id.is_none() {
            first_id = Some(id.clone());
        }
        last_id = Some(id);
    }
    let (first_id, last_id) = (first_id.expect("first"), last_id.expect("last"));
    assert_ne!(first_id, last_id, "env participates in the content hash");

    let s = stats_server(&mut stream, &mut reader);
    assert!(stat(&s, "artifact_evictions") >= 1.0, "cap crossed: {}", s.render());

    // The newest artifact still serves; the evicted oldest fails loudly.
    let ok = ask(&mut stream, &mut reader, &format!(r#"{{"op":"estimate","kernel":"{last_id}"}}"#));
    assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{}", ok.render());
    let gone =
        ask(&mut stream, &mut reader, &format!(r#"{{"op":"estimate","kernel":"{first_id}"}}"#));
    assert_eq!(gone.get("ok"), Some(&Json::Bool(false)), "{}", gone.render());
    let msg =
        gone.get("error").and_then(|e| e.get("message")).and_then(Json::as_str).expect("message");
    assert!(msg.contains("unknown kernel artifact"), "{msg}");
    server.shutdown();
    server.join();
}

#[test]
fn submitted_machine_descriptors_serve_estimates_and_dirty_ones_are_rejected() {
    let server = start();
    let (mut stream, mut reader) = connect(&server);

    let descriptor = r#"{
        "schema": "rvhpc-machine-v1",
        "base": "sg2042",
        "name": "SG2044 (submitted)",
        "part": "SG2044",
        "clock_ghz": 2.5,
        "vector": {"family": "rvv10", "width_bits": 256, "supports_fp64": true}
    }"#;
    let req = Json::obj(vec![
        ("op", Json::str("submit_machine")),
        ("descriptor", Json::parse(descriptor).expect("valid JSON")),
    ]);
    let reply = ask(&mut stream, &mut reader, &req.render());
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{}", reply.render());
    let verdict = reply.get("result").expect("result");
    assert_eq!(verdict.get("accepted"), Some(&Json::Bool(true)), "{}", verdict.render());
    let mid = verdict.get("id").and_then(Json::as_str).expect("machine id").to_string();
    assert!(mid.starts_with("m:"), "{mid}");

    // Estimates against the submitted machine answer like any catalog
    // machine, and repeatably so.
    let est =
        format!(r#"{{"op":"estimate","machine":"{mid}","kernel":"Stream_TRIAD","threads":4}}"#);
    let first = ask_raw(&mut stream, &mut reader, &est);
    let second = ask_raw(&mut stream, &mut reader, &est);
    assert_eq!(first, second, "submitted-machine estimates are deterministic");
    let doc = Json::parse(&first).expect("valid");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{first}");

    // A structurally broken descriptor is rejected with findings.
    let req = Json::obj(vec![
        ("op", Json::str("submit_machine")),
        ("descriptor", Json::parse(r#"{"schema": "rvhpc-machine-v1"}"#).expect("valid JSON")),
    ]);
    let reply = ask(&mut stream, &mut reader, &req.render());
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{}", reply.render());
    let verdict = reply.get("result").expect("result");
    assert_eq!(verdict.get("accepted"), Some(&Json::Bool(false)), "{}", verdict.render());
    assert_eq!(verdict.get("reason").and_then(Json::as_str), Some("descriptor_findings"));

    let s = stats_server(&mut stream, &mut reader);
    assert_eq!(stat(&s, "submitted_machines"), 1.0);
    assert_eq!(stat(&s, "rejected_submissions"), 1.0);
    server.shutdown();
    server.join();
}

#[test]
fn a_restated_catalog_machine_answers_exactly_like_the_catalog_machine() {
    // A descriptor that only restates `sg2042` is the catalog machine, so
    // its estimates are the catalog's five-run averages, byte for byte.
    let server = start();
    let (mut stream, mut reader) = connect(&server);
    let req =
        r#"{"op":"submit_machine","descriptor":{"schema":"rvhpc-machine-v1","base":"sg2042"}}"#;
    let reply = ask(&mut stream, &mut reader, req);
    let verdict = reply.get("result").expect("result");
    assert_eq!(verdict.get("accepted"), Some(&Json::Bool(true)), "{}", verdict.render());
    let mid = verdict.get("id").and_then(Json::as_str).expect("machine id").to_string();

    for kernel in ["Stream_TRIAD", "Basic_DAXPY", "Polybench_GEMM", "Algorithm_MEMSET"] {
        for threads in [1, 4, 64] {
            for precision in ["fp32", "fp64"] {
                let mut result = |machine: &str| {
                    let line = format!(
                        r#"{{"op":"estimate","machine":"{machine}","kernel":"{kernel}","precision":"{precision}","threads":{threads}}}"#
                    );
                    let reply = ask(&mut stream, &mut reader, &line);
                    reply.get("result").unwrap_or_else(|| panic!("{}", reply.render())).render()
                };
                let (submitted, catalog) = (result(&mid), result("sg2042"));
                assert_eq!(submitted, catalog, "{kernel} {precision} at {threads} threads");
            }
        }
    }
    server.shutdown();
    server.join();
}
