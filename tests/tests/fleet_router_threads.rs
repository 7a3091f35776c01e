//! The router's thread count does not grow with its clients: one reactor
//! serves every connection and a fixed worker set does the forwarding.
//! A test binary of its own, so no other test's threads are counted.
#![cfg(target_os = "linux")]

use rvhpc_fleet::{Router, RouterConfig};
use rvhpc_serve::loadgen::query_pool;
use rvhpc_serve::{LineConn, ServeConfig, Server};
use std::time::Duration;

/// Threads of this process, from `/proc/self/task`.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is readable").count()
}

/// A client connection that has had one forwarded estimate and one ping
/// answered, and stays open.
fn open_client(router: &Router, estimate: &str) -> LineConn {
    let mut conn =
        LineConn::connect(router.local_addr(), Duration::from_secs(30)).expect("connect");
    let reply = conn.exchange(estimate).expect("estimate answered");
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    let pong = conn.exchange(r#"{"op":"ping"}"#).expect("ping answered");
    assert!(pong.contains(r#""pong""#), "{pong}");
    conn
}

#[test]
fn open_client_connections_add_no_router_thread() {
    let servers: Vec<Server> =
        (0..2).map(|_| Server::start(ServeConfig::default()).expect("server binds")).collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::start(RouterConfig::default(), addrs).expect("router binds");
    // One key throughout: after the first (warming) miss every estimate is
    // a cache hit, so no estimator pool thread starts between the counts.
    let estimate = query_pool()[0].request_line(1);

    let mut clients = vec![open_client(&router, &estimate)];
    let with_one = threads();
    while clients.len() < 64 {
        clients.push(open_client(&router, &estimate));
    }
    let with_64 = threads();
    assert_eq!(with_64, with_one, "threads with 1 open client: {with_one}, with 64: {with_64}");

    drop(clients);
    router.shutdown();
    router.join();
    for s in &servers {
        s.shutdown();
    }
    for s in servers {
        s.join();
    }
}
