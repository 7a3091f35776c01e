//! The persistent estimate store, enabled through `RVHPC_CACHE_DIR` alone.
//! The store resolves the variable lazily on first use. A first
//! `repro --trace all` must write the store file on exit, and a second run
//! must replay it from disk: a near-total hit rate, disk hits, byte-identical
//! output and less time in the experiments. A server drained by `shutdown`
//! must persist every estimate it computed, not only the auto-flushed ones.
//! A store directory that cannot be created must cost a warning and a few
//! write attempts, never an answer or the exit status.

use rvhpc_perfmodel::persist;
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvhpc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// What one traced `repro all` run reports about itself.
struct Run {
    stdout: Vec<u8>,
    hits: f64,
    misses: f64,
    disk_hits: f64,
    /// Summed duration of the `core.experiment` spans, in microseconds.
    experiment_us: f64,
}

/// Run `repro --trace all` in `work` with the store directory taken from
/// the environment, and read its counters and spans from `trace-all.json`.
fn traced_all(store: &Path, work: &Path) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--trace", "all"])
        .current_dir(work)
        .env("RVHPC_CACHE_DIR", store)
        .output()
        .expect("repro --trace all runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(work.join("trace-all.json")).expect("trace written");
    let doc = Json::parse(&text).expect("trace is JSON");
    let counter = |name: &str| {
        doc.get("metadata")
            .and_then(|m| m.get("counters")?.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let experiment_us = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("core.experiment"))
        .map(|e| e.get("dur").and_then(Json::as_f64).expect("span duration"))
        .sum();
    Run {
        stdout: out.stdout,
        hits: counter("perfmodel.estimate_cache.hit"),
        misses: counter("perfmodel.estimate_cache.miss"),
        disk_hits: counter("perfmodel.estimate_cache.disk_hit"),
        experiment_us,
    }
}

#[test]
fn env_cache_dir_warm_starts_a_second_run() {
    let tmp = scratch_dir("env-cache-dir");
    let store = tmp.join("store");

    let cold = traced_all(&store, &tmp);
    assert!(cold.misses > 0.0, "the first run computes estimates");
    assert!(store.join(persist::FILE_NAME).is_file(), "the first run wrote the store on exit");

    let warm = traced_all(&store, &tmp);
    let hit_rate = warm.hits / (warm.hits + warm.misses);
    assert!(hit_rate >= 0.99, "second run replays the store: hit rate {hit_rate}");
    assert!(warm.disk_hits > 0.0, "second run is served from disk");
    assert!(
        warm.experiment_us < cold.experiment_us,
        "warm experiments take {} us, cold {} us",
        warm.experiment_us,
        cold.experiment_us
    );
    assert!(warm.stdout == cold.stdout, "warm output is byte-identical to cold");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn an_unwritable_store_warns_once_and_changes_no_output() {
    let tmp = scratch_dir("unwritable-store");
    // A directory below a regular file cannot be created, even by root.
    let file = tmp.join("a-file");
    std::fs::write(&file, "a regular file").expect("regular file");
    let all = |store: Option<&Path>| {
        let mut repro = Command::new(env!("CARGO_BIN_EXE_repro"));
        repro.args(["--trace", "all"]).current_dir(&tmp).env_remove("RVHPC_CACHE_DIR");
        if let Some(store) = store {
            repro.env("RVHPC_CACHE_DIR", store);
        }
        let out = repro.output().expect("repro --trace all runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let store_off = all(None);
    let unwritable = all(Some(&file.join("store")));
    assert!(unwritable.stdout == store_off.stdout, "an unwritable store changed the output");
    let stderr = String::from_utf8_lossy(&unwritable.stderr);
    assert_eq!(stderr.matches("cannot write the estimate store").count(), 1, "{stderr}");

    let text = std::fs::read_to_string(tmp.join("trace-all.json")).expect("trace written");
    let doc = Json::parse(&text).expect("trace is JSON");
    let counter = |name: &str| {
        doc.get("metadata")
            .and_then(|m| m.get("counters")?.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (writes, failed) =
        (counter("perfmodel.persist.write"), counter("perfmodel.persist.write_failed"));
    assert!((1.0..=3.0).contains(&writes), "{writes} write attempts");
    assert_eq!(failed, writes, "every attempt fails");

    let _ = std::fs::remove_dir_all(&tmp);
}

/// Distinct estimate keys the drain test sends: fewer than the store's
/// 1024-insert auto-flush, so only the drain's flush can write them.
const DRAIN_KEYS: usize = 128;

#[test]
fn serve_drain_flushes_the_store() {
    let tmp = scratch_dir("serve-drain-flush");
    let store = tmp.join("store");
    let port_file = tmp.join("port");
    let mut server = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .env("RVHPC_CACHE_DIR", &store)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro serve starts");

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
            _ if Instant::now() > deadline => {
                let _ = server.kill();
                panic!("server never wrote its port file");
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for id in 0..DRAIN_KEYS {
        let precision = if id % 2 == 0 { "fp32" } else { "fp64" };
        let line = format!(
            r#"{{"id":{id},"op":"estimate","machine":"sg2042","kernel":"Stream_TRIAD","precision":"{precision}","threads":{}}}"#,
            id / 2 + 1
        );
        writeln!(stream, "{line}").expect("write");
    }
    let mut line = String::new();
    for _ in 0..DRAIN_KEYS {
        line.clear();
        reader.read_line(&mut line).expect("reply");
        let reply = Json::parse(line.trim_end()).expect("reply is JSON");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    }
    writeln!(stream, r#"{{"id":"bye","op":"shutdown"}}"#).expect("write shutdown");
    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {}
    let status = server.wait().expect("server exits");
    assert!(status.success(), "clean drain: {status}");

    let text = std::fs::read_to_string(store.join(persist::FILE_NAME))
        .expect("the drain flushed the store");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(persist::SCHEMA));
    let records = lines.count();
    assert!(records >= DRAIN_KEYS, "{records} record(s) for {DRAIN_KEYS} distinct keys");

    let _ = std::fs::remove_dir_all(&tmp);
}
