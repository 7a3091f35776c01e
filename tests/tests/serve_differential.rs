//! Differential harness: one server answers a seeded op mix, and every
//! reply must be bit-identical (`f64::to_bits` on every number, and the
//! same bytes on the wire) to the answer built in process from the model
//! and the public `rvhpc_serve::protocol` renderers.
//!
//! The transport changes *how* bytes move, never *what* is answered. The
//! mix covers estimate / explain / suite / stats / malformed / oversized /
//! split-frame writes, and a plugged tiny-queue server pins down the
//! overload and deadline-0 error taxonomy deterministically.
//!
//! The op schedule is seeded from [`rvhpc_quickprop::base_seed`], so CI can
//! pin it (`RVHPC_SEED=2042`) and any failure is replayable.

#![cfg(target_os = "linux")]

use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, MachineId};
use rvhpc_perfmodel::{estimate_cached, explain, Precision, RunConfig};
use rvhpc_serve::protocol::{error_response, estimate_json, ok_response, parse_request};
use rvhpc_serve::{ErrorKind, ServeConfig, Server, MAX_LINE_BYTES};
use rvhpc_trace::json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A deterministic splitmix-style generator for the op schedule. It only
/// has to be reproducible, not high quality.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(server: &Server) -> Conn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    /// Send one request line in two TCP writes with a pause between them,
    /// so the server's incremental framer must reassemble a split frame.
    fn send_split(&mut self, line: &str) {
        let mid = line.len() / 2;
        self.stream.write_all(&line.as_bytes()[..mid]).expect("write head");
        self.stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
        self.stream.write_all(&line.as_bytes()[mid..]).expect("write tail");
        self.stream.write_all(b"\n").expect("write newline");
    }

    /// One reply line, without its newline.
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply readable");
        assert!(n > 0, "server closed the connection instead of replying");
        line.trim_end().to_string()
    }

    fn recv(&mut self) -> Json {
        Json::parse(&self.recv_line()).expect("reply is valid JSON")
    }
}

/// Deep bit-identity: numbers compare via `to_bits`, objects must agree on
/// key order (the protocol renders replies deterministically), everything
/// else must be structurally equal.
fn assert_bit_identical(served: &Json, expected: &Json, path: &str) {
    match (served, expected) {
        (Json::Num(a), Json::Num(b)) => assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{path}: served {a} vs in-process {b} differ in bits"
        ),
        (Json::Arr(a), Json::Arr(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: array length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_bit_identical(x, y, &format!("{path}[{i}]"));
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            let ka: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let kb: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(ka, kb, "{path}: object keys (and order) must match");
            for ((k, x), (_, y)) in a.iter().zip(b) {
                assert_bit_identical(x, y, &format!("{path}.{k}"));
            }
        }
        (a, b) => assert_eq!(a, b, "{path}"),
    }
}

/// Compare one served reply line with the in-process rendering: every
/// number bit for bit (which names the first differing field), then the
/// whole line byte for byte.
fn assert_reply(served: &str, expected: &str, path: &str) {
    let parsed = |line: &str| Json::parse(line).expect("reply is valid JSON");
    assert_bit_identical(&parsed(served), &parsed(expected), path);
    assert_eq!(served, expected, "{path}: reply bytes");
}

const MACHINES: &[MachineId] = &[
    MachineId::Sg2042,
    MachineId::VisionFiveV2,
    MachineId::AmdRome,
    MachineId::IntelIcelake,
    MachineId::Sg2042NextGen,
];
const KERNELS: &[KernelName] = &[
    KernelName::STREAM_TRIAD,
    KernelName::DAXPY,
    KernelName::GEMM,
    KernelName::STREAM_ADD,
    KernelName::EOS,
    KernelName::MEMSET,
];
const THREADS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
const PRECISIONS: &[Precision] = &[Precision::Fp64, Precision::Fp32];

/// The run configuration a request with only `precision` and `threads`
/// set resolves to: the machine's paper-best default.
fn default_cfg(m: MachineId, precision: Precision, threads: usize) -> RunConfig {
    if m.is_riscv() {
        RunConfig::sg2042_best(precision, threads)
    } else {
        RunConfig::x86(precision, threads)
    }
}

/// One drawn `(machine, kernel, precision, threads)` query.
struct Query {
    m: MachineId,
    kernel: KernelName,
    precision: Precision,
    threads: usize,
}

impl Query {
    fn draw(g: &mut Lcg) -> Query {
        Query {
            m: *g.pick(MACHINES),
            kernel: *g.pick(KERNELS),
            precision: *g.pick(PRECISIONS),
            threads: *g.pick(THREADS),
        }
    }

    fn line(&self, id: u64, op: &str, extra: &str) -> String {
        format!(
            r#"{{"id":{id},"op":"{op}","machine":"{}","kernel":"{}","precision":"{}","threads":{}{extra}}}"#,
            self.m.token(),
            self.kernel.label(),
            self.precision.label(),
            self.threads,
        )
    }

    fn cfg(&self) -> RunConfig {
        default_cfg(self.m, self.precision, self.threads)
    }

    fn estimate_reply(&self, id: u64) -> String {
        let est = estimate_cached(&machine(self.m), self.kernel, &self.cfg());
        ok_response(&Json::Num(id as f64), "estimate", estimate_json(&est))
    }

    fn explain_reply(&self, id: u64) -> String {
        let ex = explain(&machine(self.m), self.kernel, &self.cfg());
        ok_response(&Json::Num(id as f64), "explain", ex.to_json())
    }
}

/// The whole-suite reply: one row per kernel, in catalog order.
fn suite_reply(id: u64, m: MachineId, precision: Precision, threads: usize) -> String {
    let descriptor = machine(m);
    let cfg = default_cfg(m, precision, threads);
    let rows: Vec<Json> = KernelName::ALL
        .into_iter()
        .map(|k| {
            let est = estimate_cached(&descriptor, k, &cfg);
            Json::obj(vec![
                ("kernel", Json::str(k.label())),
                ("class", Json::str(k.class().label())),
                ("seconds", Json::Num(est.seconds)),
                ("vector_path", Json::Bool(est.vector_path)),
            ])
        })
        .collect();
    let result = Json::obj(vec![
        ("machine", Json::str(m.token())),
        ("n", Json::Num(rows.len() as f64)),
        ("rows", Json::Arr(rows)),
    ]);
    ok_response(&Json::Num(id as f64), "suite", result)
}

/// The `bad_request` reply to a line the protocol rejects.
fn bad_request_reply(line: &str) -> String {
    let (id, parsed) = parse_request(line);
    let msg = parsed.expect_err("the line must be rejected");
    error_response(&id, ErrorKind::BadRequest, &msg, None)
}

/// What the harness has sent so far, i.e. what `stats` must report.
#[derive(Default)]
struct Sent {
    lines: u64,
    batched: u64,
    bad: u64,
}

fn assert_stats(reply: &Json, sent: &Sent, path: &str) {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{path}: {reply:?}");
    let server = reply.get("result").and_then(|r| r.get("server")).expect("server block");
    let count = |key: &str| server.get(key).and_then(Json::as_f64).expect(key) as u64;
    for (key, want) in [
        ("connections", 1),
        ("requests", sent.lines),
        ("admitted", sent.batched),
        ("completed", sent.batched),
        ("rejected_overload", 0),
        ("bad_requests", sent.bad),
        ("deadline_exceeded", 0),
        ("shed_shutting_down", 0),
        // Lockstep: each batched request is answered before the next is
        // sent, so every batch holds exactly one request.
        ("batches", sent.batched),
        ("batch_items", sent.batched),
        ("max_batch", sent.batched.min(1)),
        ("queue_depth", 0),
        ("rejected_conn_cap", 0),
        ("idle_disconnects", 0),
        ("dropped_slow", 0),
    ] {
        assert_eq!(count(key), want, "{path}: stats `{key}`");
    }
    assert_eq!(server.get("draining"), Some(&Json::Bool(false)), "{path}");
}

#[test]
fn served_op_mix_is_bit_identical_to_the_in_process_model() {
    let server = Server::start(ServeConfig::default()).expect("server binds");
    let mut conn = Conn::open(&server);

    let seed = rvhpc_quickprop::base_seed();
    let mut g = Lcg(seed ^ 0x5e7e_d1ff);
    let malformed: &[&str] = &[
        "this is not json",
        r#"{"id":1,"op":"no_such_op"}"#,
        r#"{"id":2,"op":"estimate"}"#,
        r#"{"id":3,"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","bogus":1}"#,
        r#"{"op":"estimate","machine":"not-a-machine","kernel":"Basic_DAXPY"}"#,
        r#"{"id":4,"op":"suite","machine":"sg2042","class":7}"#,
        r#"{"id":5,"op":"sleep","ms":50}"#,
    ];

    let ops = 120u64;
    let mut sent = Sent::default();
    let mut exercised: BTreeMap<&str, u32> = BTreeMap::new();
    for id in 0..ops {
        // Weighted mix; the weights are arbitrary but fixed and the draws
        // are seed-deterministic. `expected` is `None` only for `stats`,
        // whose counters are checked against `sent` instead.
        let roll = g.below(100);
        let (tag, line, expected) = if roll < 55 {
            let q = Query::draw(&mut g);
            ("estimate", q.line(id, "estimate", ""), Some(q.estimate_reply(id)))
        } else if roll < 65 {
            let q = Query::draw(&mut g);
            ("explain", q.line(id, "explain", ""), Some(q.explain_reply(id)))
        } else if roll < 72 {
            let (m, precision, threads) =
                (*g.pick(MACHINES), *g.pick(PRECISIONS), *g.pick(THREADS));
            let line = format!(
                r#"{{"id":{id},"op":"suite","machine":"{}","precision":"{}","threads":{threads}}}"#,
                m.token(),
                precision.label(),
            );
            ("suite", line, Some(suite_reply(id, m, precision, threads)))
        } else if roll < 80 {
            // A deadline generous enough to never expire: deterministic `ok`.
            let q = Query::draw(&mut g);
            let line = q.line(id, "estimate", r#","deadline_ms":60000"#);
            ("deadline_ok", line, Some(q.estimate_reply(id)))
        } else if roll < 88 {
            ("stats", format!(r#"{{"id":{id},"op":"stats"}}"#), None)
        } else if roll < 96 {
            let line = g.pick(malformed).to_string();
            let expected = bad_request_reply(&line);
            ("malformed", line, Some(expected))
        } else {
            let line = "x".repeat(MAX_LINE_BYTES + 1);
            let expected = bad_request_reply(&line);
            ("oversized", line, Some(expected))
        };
        *exercised.entry(tag).or_default() += 1;
        sent.lines += 1;
        match tag {
            "estimate" | "deadline_ok" => sent.batched += 1,
            "malformed" | "oversized" => sent.bad += 1,
            _ => {}
        }

        // Occasionally split the write mid-line so the framer has to
        // reassemble; the answer must not change.
        if tag == "estimate" && g.below(8) == 0 {
            conn.send_split(&line);
        } else {
            conn.send(&line);
        }
        let path = format!("op#{id}({tag})");
        match expected {
            Some(expected) => assert_reply(&conn.recv_line(), &expected, &path),
            None => assert_stats(&conn.recv(), &sent, &path),
        }
    }
    assert!(exercised.len() >= 6, "seed {seed:#x} must exercise the whole mix, got {exercised:?}");

    // Drain: the shutdown ack is the protocol's, then the server closes.
    conn.send(r#"{"id":"bye","op":"shutdown"}"#);
    let ack =
        ok_response(&Json::str("bye"), "shutdown", Json::obj(vec![("draining", Json::Bool(true))]));
    assert_reply(&conn.recv_line(), &ack, "shutdown ack");
    let mut line = String::new();
    let n = conn.reader.read_line(&mut line).expect("EOF readable");
    assert_eq!(n, 0, "clean EOF after drain, got {line:?}");
    server.join();
}

#[test]
fn plugged_queue_error_taxonomy_matches_the_protocol() {
    // One queue slot, one-request batches, and a paused batcher: the
    // admission outcome of every request is then fully deterministic, so
    // the overload / deadline-0 taxonomy can be compared reply-for-reply
    // (not just statistically).
    let tiny = ServeConfig {
        queue_capacity: 1,
        batch_max: 1,
        batch_window: Duration::from_micros(100),
        ..ServeConfig::default()
    };
    let server = Server::start(tiny).expect("server binds");
    let mut conn = Conn::open(&server);

    let pause = server.pause_batcher();
    // Takes the single queue slot; expired by the time its batch
    // assembles after the pause.
    conn.send(
        r#"{"id":"d0","op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","deadline_ms":0}"#,
    );
    // All of these find the queue full: deterministic `overloaded`.
    for i in 0..4 {
        conn.send(&format!(
            r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY"}}"#
        ));
    }

    // The retry hint is the batch window rounded up to 1 ms times the one
    // batch a one-slot queue holds.
    let retry_after_ms = 1;
    let mut expected: BTreeMap<String, String> = (0..4)
        .map(|i| {
            let id = Json::Num(f64::from(i));
            let reply = error_response(
                &id,
                ErrorKind::Overloaded,
                "admission queue full",
                Some(retry_after_ms),
            );
            (id.render(), reply)
        })
        .collect();
    expected.insert(
        Json::str("d0").render(),
        error_response(
            &Json::str("d0"),
            ErrorKind::DeadlineExceeded,
            "deadline expired before execution",
            None,
        ),
    );

    // The four rejections are immediate; `d0` is answered only once the
    // pause drops. Key replies by id before comparing.
    let mut recv_keyed = || {
        let line = conn.recv_line();
        let id = Json::parse(&line).expect("valid JSON").get("id").expect("id echoed").render();
        (id, line)
    };
    let mut served: BTreeMap<String, String> = (0..4).map(|_| recv_keyed()).collect();
    drop(pause);
    served.extend([recv_keyed()]);
    assert_eq!(
        served.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "every request answered exactly once"
    );
    for (id, want) in &expected {
        assert_reply(&served[id], want, &format!("id {id}"));
    }

    server.shutdown();
    server.join();
}
