//! SIGTERM drain for the server, in its own integration-test
//! binary: the SIGTERM flag is process-wide, so this test must not share a
//! process with other serving tests (cargo gives every file under `tests/`
//! its own process, which is exactly the isolation needed).
//!
//! Contract under test: on SIGTERM the server stops accepting, every
//! *admitted* request is still answered, late arrivals get
//! `shutting_down`, and the process-facing `Server::join` returns.

#![cfg(target_os = "linux")]

use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("newline");
}

#[test]
fn sigterm_drains_the_server_answering_all_admitted_work() {
    rvhpc_serve::signal::install_sigterm_hook();

    // One-request batches behind a queue big enough for the whole backlog,
    // and a paused batcher, so admitted-but-unexecuted work exists at the
    // moment the signal lands.
    let server = Server::start(ServeConfig {
        queue_capacity: 32,
        batch_max: 1,
        batch_window: Duration::from_micros(100),
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    let pause = server.pause_batcher();
    let backlog = 5u64;
    for i in 0..backlog {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","threads":2}}"#
        );
        send(&mut stream, &req);
    }
    // Lines on one connection are handled in order, so each `stats` reply
    // follows the backlog's admission. Deliver SIGTERM to ourselves exactly
    // like a supervisor would, and poll until the server reports the drain.
    let mut stats = |stream: &mut TcpStream| {
        send(stream, r#"{"id":"stats","op":"stats"}"#);
        let mut line = String::new();
        reader.read_line(&mut line).expect("stats reply");
        let reply = Json::parse(line.trim_end()).expect("valid JSON");
        reply.get("result").and_then(|r| r.get("server")).cloned().expect("server stats")
    };
    let admitted = stats(&mut stream).get("admitted").and_then(Json::as_f64);
    assert_eq!(admitted, Some(backlog as f64), "the whole backlog is queued");
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM delivered");
    let signalled = Instant::now();
    while stats(&mut stream).get("draining") != Some(&Json::Bool(true)) {
        assert!(signalled.elapsed() < Duration::from_secs(10), "SIGTERM never began the drain");
    }
    // A late arrival is shed; the queued backlog is answered once the
    // batcher resumes.
    send(&mut stream, r#"{"id":"late","op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY"}"#);
    drop(pause);

    // Everything admitted before the signal must still be answered `ok`,
    // then the connection closes cleanly.
    let mut answered = 0u64;
    let mut shed = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("readable until EOF");
        if n == 0 {
            break;
        }
        let reply = Json::parse(line.trim_end()).expect("valid JSON");
        if reply.get("id") == Some(&Json::str("late")) {
            let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
            assert_eq!(kind, Some("shutting_down"), "late arrival shed: {reply:?}");
            shed = true;
        } else {
            assert_eq!(
                reply.get("ok"),
                Some(&Json::Bool(true)),
                "admitted work answered: {reply:?}"
            );
            answered += 1;
        }
    }
    assert!(shed, "the late arrival was answered");
    assert_eq!(answered, backlog, "every admitted estimate answered before close");

    // join() returning is the drain completing; afterwards nothing is
    // accepting on the port any more.
    server.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener closed after the SIGTERM drain"
    );
}
