//! The batcher's batch goes to the estimate cache as it arrived, and the
//! cache decides which queries are the same: exact repeats of one cold
//! query and its canonical repeats (threads past the SG2042's 64 cores, the
//! vector mode of a scalar config) are answered from one estimate. A test
//! binary of its own, because the cache counters are process-wide.

#![cfg(target_os = "linux")]

use rvhpc_compiler::VectorMode;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, MachineId};
use rvhpc_perfmodel::{estimate_averaged, estimate_cached, Precision, RunConfig};
use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

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

/// `(hits, misses)` of the `stats` op's since-start cache block.
fn cache_delta(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> (f64, f64) {
    send(stream, r#"{"op":"stats"}"#);
    let reply = recv(reader);
    let delta = reply.get("result").and_then(|r| r.get("estimate_cache_delta")).expect("delta");
    let count = |field| delta.get(field).and_then(Json::as_f64).expect(field);
    (count("hits"), count("misses"))
}

#[test]
fn repeats_in_one_batch_are_estimated_once() {
    let server = Server::start(ServeConfig::default()).expect("server binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // One cold scalar query, repeated exactly and canonically.
    let queries: [(usize, &str); 5] =
        [(64, "vls"), (64, "vls"), (128, "vls"), (64, "vla"), (128, "vla")];
    let pause = server.pause_batcher();
    let before = cache_delta(&mut stream, &mut reader);
    for (id, (threads, mode)) in queries.iter().enumerate() {
        send(
            &mut stream,
            &format!(
                r#"{{"id":{id},"op":"estimate","machine":"sg2042","kernel":"Stream_TRIAD",
                "precision":"fp64","threads":{threads},"vectorize":false,"mode":"{mode}"}}"#
            )
            .replace('\n', ""),
        );
    }
    // Lines on one connection are handled in order: the pong proves every
    // estimate ahead of it was admitted to the held queue.
    send(&mut stream, r#"{"id":"p","op":"ping"}"#);
    assert_eq!(recv(&mut reader).get("id"), Some(&Json::str("p")), "pong first");
    drop(pause);

    let replies: Vec<Json> = queries.iter().map(|_| recv(&mut reader)).collect();
    assert_eq!(server.stats().batches.load(Ordering::Relaxed), 1, "one batch");
    let after = cache_delta(&mut stream, &mut reader);
    assert_eq!((after.0 - before.0, after.1 - before.1), (4.0, 1.0), "(hits, misses)");

    // Only now touch the cache from the test: its counters are shared.
    let sg = machine(MachineId::Sg2042);
    for (id, (reply, &(threads, mode))) in replies.iter().zip(&queries).enumerate() {
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(id as f64), "{reply:?}");
        let result = reply.get("result").expect("result object");
        let mut cfg = RunConfig::sg2042_best(Precision::Fp64, threads);
        cfg.vectorize = false;
        cfg.mode = if mode == "vla" { VectorMode::Vla } else { VectorMode::Vls };
        let local = estimate_cached(&sg, KernelName::STREAM_TRIAD, &cfg);
        let uncached = estimate_averaged(&sg, KernelName::STREAM_TRIAD, &cfg);
        for (field, want, model) in [
            ("seconds", local.seconds, uncached.seconds),
            ("compute_seconds", local.compute_seconds, uncached.compute_seconds),
            ("memory_seconds", local.memory_seconds, uncached.memory_seconds),
            ("overhead_seconds", local.overhead_seconds, uncached.overhead_seconds),
        ] {
            let got = result.get(field).and_then(Json::as_f64).expect(field);
            assert_eq!(got.to_bits(), want.to_bits(), "query {id} `{field}` vs estimate_cached");
            assert_eq!(got.to_bits(), model.to_bits(), "query {id} `{field}` vs the model");
        }
        assert_eq!(result.get("vector_path"), Some(&Json::Bool(local.vector_path)));
    }

    server.shutdown();
    server.join();
}
