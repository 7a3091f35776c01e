//! End-to-end tests for the observability layer: a real server, real
//! sockets, and the full record → aggregate → expose → retrieve path.
//!
//! The acceptance contract:
//! * a request slower than the SLO threshold is tail-sampled and comes
//!   back through `slow_requests` with its full per-stage breakdown,
//! * the `metrics` op returns a schema-valid `rvhpc-metrics-v1` document
//!   (and Prometheus text on request) whose stage counters move,
//! * `stats` reports per-server cache deltas alongside the absolute
//!   counters,
//! * sharded histogram merges are bit-deterministic under the global
//!   thread pool's fan-in.
//!
//! The obs registry is process-global, so tests here assert on their own
//! uniquely-tagged contributions (request ids, stage names) rather than
//! on absolute totals another test may have moved.

use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

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
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("reply readable");
    assert!(n > 0, "server closed the connection instead of replying");
    Json::parse(reply.trim_end()).expect("reply is valid JSON")
}

fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    send(stream, line);
    recv(reader)
}

fn ok_result(reply: &Json) -> &Json {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    reply.get("result").expect("result object")
}

/// The e2e tail-sampling contract: an estimate held in the queue far
/// above any threshold a concurrent test could have armed must surface in
/// `slow_requests` with all five pipeline stages and a total consistent
/// with the hold.
#[test]
fn slow_request_is_tail_sampled_with_full_stage_breakdown() {
    let server = start(ServeConfig { slo_ms: 50.0, ..ServeConfig::default() });
    let (mut stream, mut reader) = connect(&server);

    // Unique id so this test finds its own exemplar even though the SLO
    // ring is process-global.
    let id = format!("obs-e2e-{}", std::process::id());
    let pause = server.pause_batcher();
    send(
        &mut stream,
        &format!(r#"{{"id":"{id}","op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY"}}"#),
    );
    // The server handles a connection's lines in order, so the ping's
    // reply proves the estimate was admitted; it then waits out the hold.
    ok_result(&exchange(&mut stream, &mut reader, r#"{"op":"ping"}"#));
    std::thread::sleep(Duration::from_millis(400));
    drop(pause);
    ok_result(&recv(&mut reader));

    let reply = exchange(&mut stream, &mut reader, r#"{"op":"slow_requests","limit":64}"#);
    let result = ok_result(&reply);
    let threshold = result.get("threshold_ms").and_then(Json::as_f64).expect("threshold");
    assert!(threshold > 0.0, "tail sampling armed");
    assert!(result.get("breaches").and_then(Json::as_f64).expect("breaches") >= 1.0);
    let Some(Json::Arr(requests)) = result.get("requests") else {
        panic!("missing requests array: {result:?}");
    };
    let mine = requests
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id.as_str()))
        .unwrap_or_else(|| panic!("400ms hold {id} not captured in {requests:?}"));

    assert_eq!(mine.get("op").and_then(Json::as_str), Some("estimate"));
    let total_us = mine.get("total_us").and_then(Json::as_f64).expect("total_us");
    assert!(total_us >= 400_000.0, "total covers the hold: {total_us}");
    let stages = mine.get("stages").expect("stage breakdown");
    let mut sum_us = 0.0;
    for stage in ["admission", "queue_wait", "batch_window", "compute", "write_back"] {
        let v = stages.get(stage).and_then(Json::as_f64);
        let v = v.unwrap_or_else(|| panic!("stage `{stage}` missing in {stages:?}"));
        assert!(v >= 0.0, "{stage} is non-negative, got {v}");
        sum_us += v;
    }
    assert!(
        sum_us <= total_us * 1.05,
        "stage components must not exceed the wall total: {sum_us} vs {total_us}"
    );
    let queue_wait = stages.get("queue_wait").and_then(Json::as_f64).expect("queue_wait");
    assert!(queue_wait >= 400_000.0, "the hold dominates queue_wait: {queue_wait}");

    server.shutdown();
    server.join();
}

#[test]
fn metrics_op_is_schema_valid_in_both_formats_and_counts_traffic() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);

    let baseline = exchange(&mut stream, &mut reader, r#"{"op":"metrics"}"#);
    let baseline_count = ok_result(&baseline)
        .get("stages")
        .and_then(|s| s.get("serve.compute"))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);

    let k = 5;
    for i in 0..k {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","threads":{}}}"#,
            i + 1
        );
        let reply = exchange(&mut stream, &mut reader, &req);
        ok_result(&reply);
    }

    let reply = exchange(&mut stream, &mut reader, r#"{"op":"metrics"}"#);
    let result = ok_result(&reply);
    rvhpc_obs::validate_metrics(&result.render()).expect("served JSON document validates");
    for stage in [
        "serve.admission",
        "serve.queue_wait",
        "serve.batch_window",
        "serve.compute",
        "serve.write_back",
    ] {
        let count = result
            .get("stages")
            .and_then(|s| s.get(stage))
            .and_then(|s| s.get("count"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stage `{stage}` missing: {result:?}"));
        assert!(count >= 1.0, "stage `{stage}` saw traffic");
    }
    let compute_count = result
        .get("stages")
        .and_then(|s| s.get("serve.compute"))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_f64)
        .expect("compute count");
    assert!(
        compute_count >= baseline_count + k as f64,
        "compute stage counted this test's {k} estimates: {baseline_count} -> {compute_count}"
    );
    for gauge in ["serve.queue_depth", "serve.inflight_batches", "perfmodel.estimate_cache.entries"]
    {
        assert!(
            result.get("gauges").and_then(|g| g.get(gauge)).is_some(),
            "gauge `{gauge}` registered: {result:?}"
        );
    }

    // The Prometheus rendering of the same registry.
    let reply = exchange(&mut stream, &mut reader, r#"{"op":"metrics","format":"prometheus"}"#);
    let result = ok_result(&reply);
    assert_eq!(
        result.get("content_type").and_then(Json::as_str),
        Some("text/plain; version=0.0.4")
    );
    let text = result.get("text").and_then(Json::as_str).expect("prometheus text");
    for family in
        ["rvhpc_stage_us_bucket", "rvhpc_stage_us_count", "rvhpc_gauge", "rvhpc_slo_requests_total"]
    {
        assert!(text.contains(family), "family `{family}` present in:\n{text}");
    }
    assert!(text.contains("stage=\"serve.compute\""), "per-stage labels present");

    server.shutdown();
    server.join();
}

/// `stats` must report both the absolute process-wide cache counters and
/// the delta accumulated since *this* server started.
#[test]
fn stats_reports_cache_deltas_since_serve_start() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);

    let k = 4;
    for i in 0..k {
        // Distinct thread counts force at least some cache misses.
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"amd-rome","kernel":"Stream_COPY","threads":{}}}"#,
            i + 11
        );
        let reply = exchange(&mut stream, &mut reader, &req);
        ok_result(&reply);
    }

    let reply = exchange(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    let result = ok_result(&reply);
    let absolute = result.get("estimate_cache").expect("absolute cache counters");
    let delta = result.get("estimate_cache_delta").expect("delta cache counters");
    for field in ["hits", "misses", "evictions", "hit_rate"] {
        assert!(absolute.get(field).and_then(Json::as_f64).is_some(), "absolute `{field}`");
        assert!(delta.get(field).and_then(Json::as_f64).is_some(), "delta `{field}`");
    }
    let abs_total = absolute.get("hits").and_then(Json::as_f64).unwrap()
        + absolute.get("misses").and_then(Json::as_f64).unwrap();
    let delta_hits = delta.get("hits").and_then(Json::as_f64).unwrap();
    let delta_misses = delta.get("misses").and_then(Json::as_f64).unwrap();
    assert!(
        delta_hits + delta_misses >= k as f64,
        "the delta covers this server's {k} estimates: {result:?}"
    );
    assert!(
        abs_total >= delta_hits + delta_misses,
        "absolute counters bound the delta: {result:?}"
    );

    server.shutdown();
    server.join();
}

/// Bit-determinism under real pool fan-in: recording the same samples
/// through `parallel_for_worksteal` on the shared global team must merge
/// to exactly the snapshot a serial loop produces, including the
/// quantile bit patterns.
#[test]
fn sharded_histogram_merge_is_bit_deterministic_under_global_team() {
    use rvhpc_obs::ShardedHist;

    let n = 10_000usize;
    let sample = |i: usize| ((i * 37) % 5000) as f64 + 0.25;

    let serial = ShardedHist::new();
    for i in 0..n {
        serial.record_us(sample(i));
    }
    let want = serial.snapshot();

    for round in 0..3 {
        let pooled = ShardedHist::new();
        rvhpc_threads::global_team().parallel_for_worksteal(0..n, |i| {
            pooled.record_us(sample(i));
        });
        let got = pooled.snapshot();
        assert_eq!(got.count, want.count, "round {round}: counts agree");
        assert_eq!(got.sum_ns, want.sum_ns, "round {round}: integer-ns sums agree exactly");
        assert_eq!(got.counts, want.counts, "round {round}: bucket vectors identical");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(
                got.quantile_us(q).to_bits(),
                want.quantile_us(q).to_bits(),
                "round {round}: q{q} bit-identical regardless of thread assignment"
            );
        }
        assert_eq!(got.max_us().to_bits(), want.max_us().to_bits(), "round {round}");
    }
}
