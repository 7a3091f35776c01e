//! What the persistent store costs a pass of the paper batch: how often it
//! hashes a machine descriptor for its content keys (once per batch with a
//! miss while the store is on, never while it is off), how often it takes
//! its lock and writes its file, and what a store it cannot write does;
//! and that the server's `suite` op is one such batch. A test binary of
//! its own, because the registry counters, the estimate cache and the
//! store are process-wide; its tests take [`serial`] in turn.

use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};
use rvhpc::perfmodel::{cache, persist};
use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};

/// Held by each test for its whole run: they share the process's store.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn counter(name: &'static str) -> u64 {
    rvhpc_obs::counter(name).load(Ordering::Relaxed)
}

fn derivations() -> u64 {
    counter("perfmodel.persist.descriptor_hash")
}

fn disk_hits() -> u64 {
    counter("perfmodel.estimate_cache.disk_hit")
}

/// `(write attempts, failed writes, store lock acquisitions)` so far.
fn store_io() -> (u64, u64, u64) {
    (
        counter("perfmodel.persist.write"),
        counter("perfmodel.persist.write_failed"),
        counter("perfmodel.persist.lock"),
    )
}

fn store_io_since(before: (u64, u64, u64)) -> (u64, u64, u64) {
    let now = store_io();
    (now.0 - before.0, now.1 - before.1, now.2 - before.2)
}

/// Every batch of a pass that misses in memory: 48 suite rows of 64
/// kernels and Figure 3's two Clang rows of 12.
const MISSES: u64 = 48 * 64 + 2 * 12;

/// One pass of the paper batch: its descriptor derivations, its cache
/// misses and every artefact's JSON.
fn pass() -> (u64, u64, Vec<String>) {
    let (before, misses) = (derivations(), cache::stats().misses);
    let artefacts = EXPERIMENTS
        .iter()
        .map(|e| match e.run() {
            Artefact::Figure(f) => f.to_json(),
            Artefact::Table(t) => t.to_json(),
        })
        .collect();
    (derivations() - before, cache::stats().misses - misses, artefacts)
}

#[test]
fn a_pass_hashes_each_batch_descriptor_once() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("rvhpc-key-derivations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold into the store: every batch with a miss is one suite row of
    // one descriptor — 48 suite rows and Figure 3's two Clang rows, the
    // rows that resolve a placement in `row_placement_resolves`.
    persist::set_cache_dir(Some(dir.clone()));
    cache::clear();
    let (cold, cold_misses, reference) = pass();
    assert_eq!(cold_misses, 48 * 64 + 2 * 12);
    assert_eq!(cold, 48 + 2, "one descriptor hash per batch with a miss");

    // Served from disk into an empty cache: the same batches miss in
    // memory, so the same derivations, and nothing is estimated.
    persist::flush();
    cache::clear();
    persist::set_cache_dir(Some(dir.clone()));
    let hits_before = disk_hits();
    let (served, served_misses, from_disk) = pass();
    assert_eq!(served_misses, 0, "every miss in memory is a disk hit");
    assert_eq!(disk_hits() - hits_before, 48 * 64 + 2 * 12);
    assert_eq!(served, 48 + 2, "one descriptor hash per batch with a disk hit");
    assert!(from_disk == reference, "the pass served from disk changed an artefact");

    // Store off: a cold pass derives no key at all.
    persist::set_cache_dir(None);
    cache::clear();
    let (off, off_misses, recomputed) = pass();
    eprintln!("descriptor hashes: cold {cold}, from disk {served}, store off {off}");
    assert_eq!(off_misses, 48 * 64 + 2 * 12);
    assert_eq!(off, 0, "a store-off miss never hashes the descriptor");
    assert!(recomputed == reference, "the store-off pass changed an artefact");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_pass_writes_the_store_twice_and_a_pass_from_disk_never() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("rvhpc-store-writes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold into an empty store: the auto-flush fires at 1 024 and 2 048
    // records (the threshold doubles with the file), and the explicit
    // flush writes the rest. Each batch takes the store lock once to look
    // its misses up and once to record their estimates.
    persist::set_cache_dir(Some(dir.clone()));
    cache::clear();
    let io = store_io();
    let (_, cold_misses, reference) = pass();
    assert_eq!(cold_misses, MISSES);
    assert_eq!(store_io_since(io), (2, 0, 2 * (48 + 2)), "(writes, failed, locks) of a cold pass");
    persist::flush();
    assert_eq!(store_io_since(io), (3, 0, 2 * (48 + 2) + 1), "the explicit flush writes once");

    // Served from disk into an empty cache: one store lock per batch,
    // nothing estimated and nothing written.
    cache::clear();
    persist::set_cache_dir(Some(dir.clone()));
    let (io, hits) = (store_io(), disk_hits());
    let (_, served_misses, from_disk) = pass();
    persist::flush();
    assert_eq!((served_misses, disk_hits() - hits), (0, MISSES));
    assert_eq!(store_io_since(io), (0, 0, 48 + 2 + 1), "(writes, failed, locks) from disk");
    assert!(from_disk == reference, "the pass served from disk changed an artefact");

    persist::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_store_changes_no_answer_and_retries_only_at_thresholds() {
    let _serial = serial();
    let tmp = std::env::temp_dir().join(format!("rvhpc-store-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");
    // A directory below a regular file cannot be created, even by root.
    let file = tmp.join("a-file");
    std::fs::write(&file, "not a directory").expect("regular file");

    persist::set_cache_dir(None);
    cache::clear();
    let (_, _, store_off) = pass();

    persist::set_cache_dir(Some(file.join("store")));
    cache::clear();
    let io = store_io();
    let (_, misses, unwritable) = pass();
    persist::flush();
    let (writes, failed, _) = store_io_since(io);
    eprintln!("unwritable store: {writes} write attempts, {failed} failed");
    assert_eq!(misses, MISSES);
    assert!(unwritable == store_off, "an unwritable store changed an artefact");
    assert!(writes <= 3, "{writes} write attempts for one cold pass and a flush");
    assert_eq!(failed, writes, "every attempt fails");

    persist::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&tmp);
}

#[cfg(target_os = "linux")] // the server's transport is epoll
#[test]
fn a_suite_op_hashes_its_descriptor_once() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("rvhpc-suite-op-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    persist::set_cache_dir(Some(dir.clone()));
    cache::clear();

    // A row no pass asks for, cold in memory and in the new store: one
    // batch of 64 misses, so one descriptor hash.
    let server = Server::start(ServeConfig::default()).expect("server binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (before, misses) = (derivations(), cache::stats().misses);
    stream
        .write_all(
            b"{\"op\":\"suite\",\"machine\":\"sg2042\",\"precision\":\"fp32\",\"threads\":7}\n",
        )
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    let reply = Json::parse(line.trim_end()).expect("JSON reply");
    let n = reply.get("result").and_then(|r| r.get("n")).and_then(Json::as_f64);
    assert_eq!(n, Some(64.0), "{reply:?}");
    assert_eq!(cache::stats().misses - misses, 64);
    assert_eq!(derivations() - before, 1, "one descriptor hash for the suite row");

    server.shutdown();
    server.join();
    persist::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
}
