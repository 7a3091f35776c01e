//! Router correctness against real in-process servers: every estimate
//! key routes to exactly one live shard, fleet-served estimates are
//! bit-identical to the local model, repeated sends of the same key are
//! stable, the fleet-wide `stats`/`metrics` aggregation produces
//! documents that validate against the single-server schemas, and the
//! router frames edge-case lines exactly as a shard does.
//!
//! (Per-shard cache *disjointness* needs real child processes — the
//! estimate cache is process-global — and is exercised by the
//! `fleet-bench` artefact and the ci.sh smoke stage; everything here is
//! about routing, bit-identity and aggregation.)

use rvhpc_fleet::{ConsistentRing, Router, RouterConfig};
use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, MachineId};
use rvhpc_perfmodel::{estimate_cached, Precision};
use rvhpc_serve::loadgen::{query_pool, reply_bits};
use rvhpc_serve::{ServeConfig, Server, MAX_LINE_BYTES};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

fn start_fleet(shards: usize) -> (Vec<Server>, Router) {
    let servers: Vec<Server> =
        (0..shards).map(|_| Server::start(ServeConfig::default()).expect("server binds")).collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::start(RouterConfig::default(), addrs).expect("router binds");
    (servers, router)
}

fn connect(router: &Router) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(router.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("newline");
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("reply readable");
    assert!(n > 0, "router closed the connection instead of replying");
    Json::parse(reply.trim_end()).expect("reply is valid JSON")
}

fn teardown(servers: Vec<Server>, router: Router) {
    router.shutdown();
    router.join();
    for s in &servers {
        s.shutdown();
    }
    for s in servers {
        s.join();
    }
}

/// Property: for any shard count and any up/down pattern with at least
/// one live shard, every estimate key in the pool routes to exactly one
/// live shard, and the choice is deterministic.
#[test]
fn every_pool_key_routes_to_exactly_one_live_shard() {
    let mut g = rvhpc_quickprop::Gen::new(rvhpc_quickprop::base_seed());
    for _ in 0..200 {
        let shards = g.usize_in(1..=16);
        let ring = ConsistentRing::new(shards);
        let mut up: Vec<bool> = (0..shards).map(|_| g.bool_with(0.7)).collect();
        if !up.iter().any(|&b| b) {
            up[g.usize_in(0..=shards - 1)] = true;
        }
        for t in query_pool() {
            let key = format!(
                "{}/{}/{:?}",
                t.machine.token(),
                t.kernel.label(),
                (t.precision, t.threads)
            );
            let owner = ring.route(&key, &up).expect("some shard is up");
            assert!(up[owner], "routed to a down shard");
            assert_eq!(ring.route(&key, &up), Some(owner), "routing must be deterministic");
        }
    }
}

/// Differential: estimates served through the fleet are bit-identical to
/// a direct `estimate_cached` call, for every query in the loadgen pool,
/// and a second send of the same line returns the same bits.
#[test]
fn fleet_served_estimates_are_bit_identical_to_the_local_model() {
    let (servers, router) = start_fleet(3);
    let (mut stream, mut reader) = connect(&router);

    for (i, t) in query_pool().into_iter().enumerate() {
        let line = t.request_line(i as u64);
        let reply = exchange(&mut stream, &mut reader, &line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(i as f64));
        let served = reply_bits(reply.get("result").expect("result")).expect("estimate fields");

        let local = estimate_cached(&machine(t.machine), t.kernel, &t.run_config());
        let expected = [
            local.seconds.to_bits(),
            local.compute_seconds.to_bits(),
            local.memory_seconds.to_bits(),
            local.overhead_seconds.to_bits(),
        ];
        assert_eq!(served, expected, "bit divergence for {line}");

        let again = exchange(&mut stream, &mut reader, &line);
        let again_bits = reply_bits(again.get("result").expect("result")).expect("fields");
        assert_eq!(again_bits, expected, "re-send diverged for {line}");
    }
    teardown(servers, router);
}

/// The router's merged `stats` reply carries the fleet block and summed
/// counters; its merged `metrics` reply validates against the
/// single-server `rvhpc-metrics-v1` schema.
#[test]
fn aggregated_stats_and_metrics_validate() {
    let (servers, router) = start_fleet(3);
    let (mut stream, mut reader) = connect(&router);

    // Drive a little traffic so the counters are non-trivial.
    let req = Json::obj(vec![
        ("id", Json::Num(1.0)),
        ("op", Json::str("estimate")),
        ("machine", Json::str(MachineId::Sg2042.token())),
        ("kernel", Json::str(KernelName::STREAM_TRIAD.label())),
        ("precision", Json::str(Precision::Fp64.label())),
        ("threads", Json::Num(16.0)),
    ])
    .render();
    for _ in 0..5 {
        let reply = exchange(&mut stream, &mut reader, &req);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    }

    let stats = exchange(&mut stream, &mut reader, r#"{"id":2,"op":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");
    let result = stats.get("result").expect("stats result");
    let fleet = result.get("fleet").expect("fleet block in aggregated stats");
    assert_eq!(fleet.get("shards").and_then(Json::as_f64), Some(3.0));
    assert_eq!(fleet.get("up").and_then(Json::as_f64), Some(3.0));
    let Some(Json::Arr(per_shard)) = fleet.get("per_shard") else {
        panic!("fleet.per_shard missing: {fleet:?}");
    };
    assert_eq!(per_shard.len(), 3);
    let requests =
        result.get("server").and_then(|s| s.get("requests")).and_then(Json::as_f64).unwrap();
    assert!(requests >= 5.0, "summed request counter too small: {requests}");
    // The merged hit rate must be consistent with the merged counters.
    let cache = result.get("estimate_cache").expect("cache block");
    let hits = cache.get("hits").and_then(Json::as_f64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_f64).unwrap();
    let rate = cache.get("hit_rate").and_then(Json::as_f64).unwrap();
    let expected = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    assert!((rate - expected).abs() < 1e-9, "merged hit_rate inconsistent");

    let metrics = exchange(&mut stream, &mut reader, r#"{"id":3,"op":"metrics"}"#);
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)), "{metrics:?}");
    let doc = metrics.get("result").expect("metrics result").render();
    rvhpc_obs::validate_metrics(&doc).expect("merged metrics document validates");

    // The prometheus rendering is a documented non-goal through the
    // router: it must be refused as a structured bad_request, not
    // silently served from one arbitrary shard.
    let prom =
        exchange(&mut stream, &mut reader, r#"{"id":4,"op":"metrics","format":"prometheus"}"#);
    assert_eq!(prom.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        prom.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("bad_request")
    );

    teardown(servers, router);
}

/// Requests the shards would reject stay rejected through the router
/// with the same error kind (the router reuses the server's parser, so
/// rejections never even reach a shard).
#[test]
fn malformed_requests_get_structured_rejections_through_the_router() {
    let (servers, router) = start_fleet(2);
    let (mut stream, mut reader) = connect(&router);
    for (line, fragment) in [
        (r#"{"id":1,"op":"estimate","machine":"sg9999","kernel":"Stream_TRIAD"}"#, "machine"),
        (r#"{"id":2,"op":"no_such_op"}"#, "unknown op"),
        (
            r#"{"id":3,"op":"cluster","machine":"sg2042","kernel":"Stream_TRIAD","network":"token-ring","mode":"weak"}"#,
            "network",
        ),
    ] {
        let reply = exchange(&mut stream, &mut reader, line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
        let error = reply.get("error").expect("error object");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("bad_request"));
        let msg = error.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(msg.contains(fragment), "`{msg}` should mention `{fragment}`");
    }
    teardown(servers, router);
}

/// Send `bytes` on a fresh connection, then either half-close or send a
/// ping with id `"after"`, and collect every reply line: up to EOF after a
/// half-close, up to the ping's answer otherwise.
fn replies_to(addr: SocketAddr, bytes: &[u8], half_close: bool) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(bytes).expect("send input");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    } else {
        stream.write_all(b"{\"id\":\"after\",\"op\":\"ping\"}\n").expect("send ping");
    }
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("reply readable") == 0 {
            assert!(half_close, "closed before the ping after {} input bytes", bytes.len());
            return lines;
        }
        let answered_ping = !half_close && line.contains(r#""id":"after""#);
        lines.push(line);
        if answered_ping {
            return lines;
        }
    }
}

/// The router frames every line the way a shard's reactor does: each
/// edge-case input draws byte-identical replies through the router and
/// from a shard directly, and the connection still answers a ping sent
/// after it (or, after a half-close, answers the unterminated request).
#[test]
fn the_router_answers_every_line_the_way_a_shard_does() {
    let (servers, router) = start_fleet(1);
    let shard = servers[0].local_addr();
    let wrapper = r#"{"id":"","op":"ping"}"#;
    let exact = format!(r#"{{"id":"{}","op":"ping"}}"#, "x".repeat(MAX_LINE_BYTES - wrapper.len()));
    assert_eq!(exact.len(), MAX_LINE_BYTES);
    let mut mib = vec![b'y'; 1 << 20];
    *mib.last_mut().expect("non-empty") = b'\n';
    let cases: [(&str, Vec<u8>, bool); 6] = [
        ("whitespace-only line", b" \t \n".to_vec(), false),
        ("ping of exactly MAX_LINE_BYTES", format!("{exact}\n").into_bytes(), false),
        ("CRLF-terminated ping", b"{\"id\":1,\"op\":\"ping\"}\r\n".to_vec(), false),
        (
            "MAX_LINE_BYTES + 1 line",
            format!("{}\n", "z".repeat(MAX_LINE_BYTES + 1)).into_bytes(),
            false,
        ),
        ("1 MiB line", mib, false),
        ("unterminated ping, then half-close", b"{\"id\":2,\"op\":\"ping\"}".to_vec(), true),
    ];
    let mut differing = Vec::new();
    for (name, bytes, half_close) in &cases {
        let direct = replies_to(shard, bytes, *half_close);
        assert!(!direct.is_empty(), "{name}: the shard did not answer");
        if replies_to(router.local_addr(), bytes, *half_close) != direct {
            differing.push(*name);
        }
    }
    assert!(differing.is_empty(), "the router answered unlike a shard on: {differing:?}");
    teardown(servers, router);
}
