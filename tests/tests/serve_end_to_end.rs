//! End-to-end tests for the serving layer: a real `rvhpc_serve::Server`
//! and real TCP sockets in one process, so every assertion crosses the
//! full parse → admit → batch → compute → reply path.
//!
//! The acceptance contract:
//! * served estimates are **bit-identical** to direct `estimate_cached`,
//! * overload produces `overloaded` replies, never hangs or drops,
//! * a drain answers everything already admitted and then closes every
//!   connection, idle ones included,
//! * the in-process loadgen run is clean and its artefact validates,
//! * split/batched frames are reassembled over real sockets,
//! * per-connection idle timeouts, the `--max-conns` accept cap
//!   (structured `overloaded` + close) and bounded write buffering for
//!   slow readers (`--max-outbox-kb`) hold.
//!
//! Bit-identity of the full op mix against the in-process model is
//! proven separately by `serve_differential.rs`.

use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, MachineId};
use rvhpc_perfmodel::{estimate_cached, Precision, RunConfig};
use rvhpc_serve::bench::{serve_artefact, validate_serve_artefact};
use rvhpc_serve::{run_loadgen, LoadgenConfig, ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server binds")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
}

fn recv(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reply readable");
    assert!(n > 0, "server closed the connection instead of replying");
    Json::parse(line.trim_end()).expect("reply is valid JSON")
}

#[test]
fn served_estimates_are_bit_identical_to_the_local_model() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);

    let cases: Vec<(MachineId, KernelName, Precision, usize)> = vec![
        (MachineId::Sg2042, KernelName::STREAM_TRIAD, Precision::Fp64, 64),
        (MachineId::Sg2042, KernelName::DAXPY, Precision::Fp32, 1),
        (MachineId::VisionFiveV2, KernelName::GEMM, Precision::Fp64, 4),
        (MachineId::AmdRome, KernelName::STREAM_ADD, Precision::Fp32, 32),
        (MachineId::IntelIcelake, KernelName::EOS, Precision::Fp64, 16),
        (MachineId::Sg2042NextGen, KernelName::MEMSET, Precision::Fp32, 64),
    ];
    for (i, &(m, kernel, precision, threads)) in cases.iter().enumerate() {
        let req = Json::obj(vec![
            ("id", Json::Num(i as f64)),
            ("op", Json::str("estimate")),
            ("machine", Json::str(m.token())),
            ("kernel", Json::str(kernel.label())),
            ("precision", Json::str(precision.label())),
            ("threads", Json::Num(threads as f64)),
        ])
        .render();
        send(&mut stream, &req);
        let reply = recv(&mut reader);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(i as f64));
        let result = reply.get("result").expect("result object");

        let cfg = if m.is_riscv() {
            RunConfig::sg2042_best(precision, threads)
        } else {
            RunConfig::x86(precision, threads)
        };
        let local = estimate_cached(&machine(m), kernel, &cfg);
        for (field, want) in [
            ("seconds", local.seconds),
            ("compute_seconds", local.compute_seconds),
            ("memory_seconds", local.memory_seconds),
            ("overhead_seconds", local.overhead_seconds),
        ] {
            let got = result.get(field).and_then(Json::as_f64).expect(field);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{m:?} {kernel:?}: served `{field}` must be bit-identical ({got} vs {want})"
            );
        }
        assert_eq!(
            result.get("vector_path"),
            Some(&Json::Bool(local.vector_path)),
            "{m:?} {kernel:?}"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn overload_rejects_with_backpressure_and_never_drops() {
    // A deliberately tiny server: one queue slot, one-item batches. The
    // batcher is paused while a burst arrives, so the first request takes
    // the slot and the rest must be rejected — but every single request
    // still gets a reply.
    let server = start(ServeConfig {
        queue_capacity: 1,
        batch_max: 1,
        batch_window: Duration::from_micros(100),
        ..ServeConfig::default()
    });
    let (mut stream, mut reader) = connect(&server);

    let pause = server.pause_batcher();
    let burst = 10;
    for i in 0..burst {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","threads":{}}}"#,
            i + 1
        );
        send(&mut stream, &req);
    }

    // The rejections are immediate; the admitted request is answered only
    // once the pause drops.
    let mut replies: Vec<Json> = (1..burst).map(|_| recv(&mut reader)).collect();
    drop(pause);
    replies.push(recv(&mut reader));

    let mut ok = 0u32;
    let mut overloaded = 0u32;
    let mut saw_retry_hint = false;
    for reply in &replies {
        match reply.get("ok") {
            Some(Json::Bool(true)) => ok += 1,
            Some(Json::Bool(false)) => {
                let error = reply.get("error").expect("error object");
                assert_eq!(
                    error.get("kind").and_then(Json::as_str),
                    Some("overloaded"),
                    "only overload errors expected: {reply:?}"
                );
                let hint = error.get("retry_after_ms").and_then(Json::as_f64).expect("hint");
                assert!((1.0..=1000.0).contains(&hint), "retry hint in range: {hint}");
                saw_retry_hint = true;
                overloaded += 1;
            }
            _ => panic!("malformed reply: {reply:?}"),
        }
    }
    assert_eq!(overloaded, burst - 1, "a 1-slot queue behind a paused batcher sheds the rest");
    assert!(saw_retry_hint, "overloaded replies carry retry_after_ms");
    assert_eq!(ok, 1, "the admitted estimate completes");

    let stats = server.stats();
    assert_eq!(
        stats.rejected_overload.load(Ordering::Relaxed),
        u64::from(overloaded),
        "server counted its rejections"
    );

    server.shutdown();
    server.join();
}

#[test]
fn graceful_drain_answers_admitted_work_then_closes() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);
    // A second connection that never sends anything: the drain must close
    // it too, not wait on it.
    let (_idle_stream, mut idle_reader) = connect(&server);

    // Admit a handful of estimates, then request the drain on the same
    // connection: everything sent before `shutdown` must still be answered.
    let k = 6;
    for i in 0..k {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"intel-icelake","kernel":"Stream_TRIAD","threads":{}}}"#,
            i + 1
        );
        send(&mut stream, &req);
    }
    send(&mut stream, r#"{"id":"bye","op":"shutdown"}"#);

    let mut answered = 0;
    let mut drain_acked = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("readable until EOF");
        if n == 0 {
            break; // clean EOF after the drain
        }
        let reply = Json::parse(line.trim_end()).expect("valid JSON");
        if reply.get("id") == Some(&Json::str("bye")) {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
            drain_acked = true;
        } else {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            answered += 1;
        }
    }
    assert!(drain_acked, "shutdown request is acknowledged");
    assert_eq!(answered, k, "every admitted estimate answered before close");

    let mut idle_line = String::new();
    let n = idle_reader.read_line(&mut idle_line).expect("idle connection readable until EOF");
    assert_eq!(n, 0, "the idle connection is closed by the drain, got {idle_line:?}");

    let addr = server.local_addr();
    let join_start = Instant::now();
    server.join();
    let joined_in = join_start.elapsed();
    assert!(joined_in < Duration::from_secs(2), "join returns promptly: {joined_in:?}");

    // The listener socket is gone once join returns; a fresh connection
    // must be refused (nothing is accepting on that port any more).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener closed after drain"
    );
}

#[test]
fn deadline_zero_is_cancelled_not_computed() {
    // Hold the batcher until the deadline-0 estimate is admitted, so it
    // has expired when its batch assembles.
    let server = start(ServeConfig { queue_capacity: 8, batch_max: 1, ..ServeConfig::default() });
    let (mut stream, mut reader) = connect(&server);
    let pause = server.pause_batcher();
    send(
        &mut stream,
        r#"{"id":2,"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","deadline_ms":0}"#,
    );
    // Lines on one connection are handled in order: the pong proves the
    // estimate ahead of it was admitted.
    send(&mut stream, r#"{"id":3,"op":"ping"}"#);
    assert_eq!(recv(&mut reader).get("id"), Some(&Json::Num(3.0)), "pong first");
    drop(pause);
    let reply = recv(&mut reader);
    assert_eq!(reply.get("id"), Some(&Json::Num(2.0)));
    let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("deadline_exceeded"), "estimate cancelled: {reply:?}");
    assert_eq!(server.stats().completed.load(Ordering::Relaxed), 0, "never computed");

    server.shutdown();
    server.join();
}

#[test]
fn pausing_an_exited_batcher_returns_at_once() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);
    // A ping answered means the connection was accepted, so the drain
    // closes it rather than resetting it from the listen backlog.
    send(&mut stream, r#"{"op":"ping"}"#);
    assert_eq!(recv(&mut reader).get("ok"), Some(&Json::Bool(true)));
    server.shutdown();
    // The drain closes connections only after the batcher has exited.
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("readable until EOF");
    assert_eq!(n, 0, "the drain closes the connection, got {line:?}");

    let asked = Instant::now();
    let pause = server.pause_batcher();
    let waited = asked.elapsed();
    assert!(waited < Duration::from_secs(1), "an exited batcher counts as parked: {waited:?}");
    drop(pause);
    server.join();
}

#[test]
fn in_process_loadgen_run_is_clean_and_artefact_validates() {
    let server = start(ServeConfig::default());
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 3,
        requests_per_client: Some(40),
        seed: 1234,
        probe_bad: true,
        shutdown_after: true,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg).expect("loadgen reaches the server");
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert_eq!(report.sent, 120);
    assert_eq!(report.ok, 120);
    assert!(report.verified_bit_identical, "served replies match the local model");
    assert_eq!(report.probe_bad_ok, Some(true), "malformed line gets bad_request");
    assert_eq!(report.drained_clean, Some(true), "shutdown acked and connection closed");
    assert!(report.p50_us.is_finite() && report.p95_us.is_finite() && report.p99_us.is_finite());
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    assert!(report.throughput_rps > 0.0);
    assert!(
        report.cache_hits + report.cache_misses >= 1,
        "the run must move the perfmodel estimate-cache counters: {report:?}"
    );

    let artefact = serve_artefact(&cfg, &report).render();
    validate_serve_artefact(&artefact).expect("artefact validates");

    server.join(); // loadgen's --shutdown already initiated the drain
}

/// The reply to `{"id":7,"op":"estimate",...}` for one fixed case, checked
/// bit-for-bit against the local model.
fn assert_estimate_reply_exact(reply: &Json, threads: usize) {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    let result = reply.get("result").expect("result object");
    let cfg = RunConfig::sg2042_best(Precision::Fp64, threads);
    let local = estimate_cached(&machine(MachineId::Sg2042), KernelName::STREAM_TRIAD, &cfg);
    let got = result.get("seconds").and_then(Json::as_f64).expect("seconds");
    assert_eq!(got.to_bits(), local.seconds.to_bits(), "served bits match the local model");
}

fn estimate_line(id: u64, threads: usize) -> String {
    format!(
        r#"{{"id":{id},"op":"estimate","machine":"sg2042","kernel":"Stream_TRIAD","precision":"fp64","threads":{threads}}}"#
    )
}

#[test]
fn split_frames_and_batched_writes_are_reassembled() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);

    // Byte-at-a-time: the cruellest split the framer can see.
    let line = estimate_line(0, 4);
    for b in line.as_bytes() {
        stream.write_all(std::slice::from_ref(b)).expect("write byte");
        stream.flush().expect("flush");
    }
    stream.write_all(b"\n").expect("newline");
    assert_estimate_reply_exact(&recv(&mut reader), 4);

    // CRLF termination must behave exactly like LF (trimmed, not part of
    // the payload).
    let crlf = format!("{}\r\n", estimate_line(1, 8));
    stream.write_all(crlf.as_bytes()).expect("write crlf");
    assert_estimate_reply_exact(&recv(&mut reader), 8);

    // Several complete frames in one TCP write: each gets its own reply,
    // in order. Blank lines between frames are skipped, not errors.
    let batch =
        format!("{}\n\n{}\n{}\n", estimate_line(2, 1), estimate_line(3, 2), estimate_line(4, 16));
    stream.write_all(batch.as_bytes()).expect("write batch");
    for (id, threads) in [(2u64, 1usize), (3, 2), (4, 16)] {
        let reply = recv(&mut reader);
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(id as f64));
        assert_estimate_reply_exact(&reply, threads);
    }

    // An unterminated final line is still answered before the connection
    // closes (EOF frames a pending partial line).
    let (mut tail_stream, mut tail_reader) = connect(&server);
    tail_stream.write_all(estimate_line(5, 32).as_bytes()).expect("write unterminated");
    tail_stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert_estimate_reply_exact(&recv(&mut tail_reader), 32);

    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_are_disconnected_after_the_timeout() {
    let server =
        start(ServeConfig { idle_timeout: Duration::from_millis(200), ..ServeConfig::default() });
    let (mut stream, mut reader) = connect(&server);

    // An active connection is not idle: request/reply works.
    stream.write_all(estimate_line(0, 2).as_bytes()).expect("write");
    stream.write_all(b"\n").expect("newline");
    assert_estimate_reply_exact(&recv(&mut reader), 2);

    // Then go quiet. Within a couple of timeout periods the server must
    // close the connection from its side: read returns EOF.
    let mut byte = [0u8; 1];
    let mut probe = reader.into_inner();
    probe.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    match probe.read(&mut byte) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from an idle connection"),
        Err(e) => panic!("expected EOF from the idle disconnect, got {e}"),
    }
    assert!(
        server.stats().idle_disconnects.load(Ordering::Relaxed) >= 1,
        "the idle sweep counted its disconnect"
    );

    // The server itself is still healthy: a fresh connection works.
    let (mut s2, mut r2) = connect(&server);
    s2.write_all(estimate_line(1, 4).as_bytes()).expect("write");
    s2.write_all(b"\n").expect("newline");
    assert_estimate_reply_exact(&recv(&mut r2), 4);

    server.shutdown();
    server.join();
}

#[test]
fn max_conns_cap_rejects_with_structured_overloaded_then_closes() {
    let server = start(ServeConfig { max_conns: 2, ..ServeConfig::default() });

    let (mut s1, mut r1) = connect(&server);
    let (mut s2, mut r2) = connect(&server);
    // Both in-cap connections are live before the third arrives.
    for (id, (s, r)) in [(&mut s1, &mut r1), (&mut s2, &mut r2)].into_iter().enumerate() {
        s.write_all(estimate_line(id as u64, 1).as_bytes()).expect("write");
        s.write_all(b"\n").expect("newline");
        assert_estimate_reply_exact(&recv(r), 1);
    }

    // The over-cap connection gets one structured `overloaded` line with a
    // retry hint, then EOF — the 429 pattern at the accept stage.
    let (_s3, mut r3) = connect(&server);
    let reply = recv(&mut r3);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let error = reply.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"), "{reply:?}");
    let hint = error.get("retry_after_ms").and_then(Json::as_f64).expect("retry hint");
    assert!((1.0..=1000.0).contains(&hint), "retry hint in range: {hint}");
    let mut rest = String::new();
    let n = r3.read_line(&mut rest).expect("EOF readable");
    assert_eq!(n, 0, "rejected connection is closed after the error line");
    assert!(server.stats().rejected_conn_cap.load(Ordering::Relaxed) >= 1);

    // Capacity is released when a connection goes away: after closing one
    // in-cap connection, a new client is (eventually) admitted.
    drop(s1);
    drop(r1);
    let deadline = Instant::now() + Duration::from_secs(10);
    let admitted = loop {
        let (mut s4, mut r4) = connect(&server);
        s4.write_all(estimate_line(9, 2).as_bytes()).expect("write");
        s4.write_all(b"\n").expect("newline");
        let reply = recv(&mut r4);
        if reply.get("ok") == Some(&Json::Bool(true)) {
            assert_estimate_reply_exact(&reply, 2);
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(admitted, "slot freed by a closed connection is reusable");

    server.shutdown();
    server.join();
}

#[test]
fn slow_readers_are_bounded_and_dropped_not_buffered_unboundedly() {
    // A small reply budget: once the kernel socket buffers are full, at
    // most ~32KiB may sit in the server's per-connection outbox before the
    // connection is dropped.
    let server = start(ServeConfig { max_outbox_bytes: 32 * 1024, ..ServeConfig::default() });
    let (mut stream, _reader) = connect(&server);

    // `suite` replies are ~6KiB each. Send far more than the kernel's
    // send+receive buffering (~4–5MiB worst case) can absorb while never
    // reading a byte back: the server must cut us off, not balloon.
    for id in 0..1200u64 {
        let req = format!(r#"{{"id":{id},"op":"suite","machine":"sg2042","threads":4}}"#);
        stream.write_all(req.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().dropped_slow.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "server never dropped the slow reader (dropped_slow still 0)"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Our socket is dead from the server's side: draining what is buffered
    // ends in EOF or a reset, never a hang.
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut sink = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("unexpected error draining a dropped connection: {e}"),
        }
    }

    // And the server survived: a well-behaved client still gets answers.
    let (mut s2, mut r2) = connect(&server);
    s2.write_all(estimate_line(0, 4).as_bytes()).expect("write");
    s2.write_all(b"\n").expect("newline");
    assert_estimate_reply_exact(&recv(&mut r2), 4);

    server.shutdown();
    server.join();
}
