//! The consistent-hash L7 router fronting a fleet of `rvhpc-serve` shards.
//!
//! The router speaks the exact serve protocol on both faces. Each client
//! connection gets its own thread, which frames request lines through the
//! same [`LineConn`] framing a shard's reactor uses (trailing `\r`
//! trimmed, blank lines skipped, the size limit applied to the trimmed
//! body, an unterminated last line answered at EOF) and handles them one
//! at a time; the lines are parsed with the *same*
//! [`rvhpc_serve::protocol::parse_request`] the shards use, so a request
//! the fleet rejects is exactly the request a shard would reject, with
//! the same reply (`tests/tests/fleet_router.rs` sends edge-case lines to
//! both and compares). Routed requests are forwarded **verbatim** — the
//! framed line, byte for byte — and replies are passed back verbatim,
//! which is what makes fleet-served estimates trivially bit-identical to
//! shard-served ones.
//!
//! Per-op behaviour:
//!
//! * `estimate` / `explain` / `suite` / `cluster` / `lint_machine` —
//!   routed by the consistent-hash ring over the request's model fields
//!   ([`routing_key`]), with bounded jittered retries on `overloaded` and
//!   rerouting to the ring successor on connect failure.
//! * `submit_kernel` / `submit_machine` — broadcast to every live shard
//!   (admission is deterministic, so every shard derives the same
//!   artifact id and later `k:`/`m:` references can be ring-routed).
//! * `stats` / `metrics` / `slow_requests` — fanned out and merged into
//!   one fleet view ([`crate::merge`]); `metrics` also merges in the
//!   router's own registry, which holds the `fleet.*` counters.
//! * `ping` — answered by the router itself (it is the fleet's face).
//! * `shutdown` — broadcast to all shards, acknowledged, then the router
//!   drains.

use crate::health::FleetState;
use crate::merge::{merge_metrics, merge_slow, merge_stats};
use crate::ring::ConsistentRing;
use rvhpc_serve::protocol::{error_response, ok_response, oversized_line, parse_request};
use rvhpc_serve::{ErrorKind, Frame, LineConn, Request};
use rvhpc_trace::json::{read_members, Json, JsonRef};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::ErrorKind as IoErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the prober pings every shard. A constant, not a tunable: the
/// prober sleeps a whole interval before `Router::join` can return, so a
/// long one would stall shutdown.
const PROBE_EVERY: Duration = Duration::from_millis(200);

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Minimum down time before a shard may be marked up again.
    pub cooldown: Duration,
    /// Jittered retries on an `overloaded` reply before rerouting.
    pub max_retries: u32,
    /// Cap on one retry backoff, bounding worst-case added latency.
    pub retry_cap_ms: u64,
    /// Seed for the deterministic retry jitter.
    pub seed: u64,
    /// Per-forward I/O timeout; a shard silent for this long is failed.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            cooldown: Duration::from_millis(400),
            max_retries: 3,
            retry_cap_ms: 250,
            seed: 42,
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// The routing key of a request: the raw machine / kernel / config fields
/// for model queries (not the estimate cache's canonical key, so two
/// requests the cache treats as one may land on different shards), the
/// artifact id for artifact references. `None` means the op is not
/// ring-routed (aggregated, broadcast, or answered locally).
pub fn routing_key(req: &Request) -> Option<String> {
    fn cfg_key(cfg: &rvhpc_perfmodel::RunConfig) -> String {
        format!(
            "{:?}/{}/{:?}/{:?}/{:?}/{}",
            cfg.precision, cfg.vectorize, cfg.toolchain, cfg.mode, cfg.placement, cfg.threads
        )
    }
    match req {
        Request::Estimate { machine, kernel, cfg, .. }
        | Request::Explain { machine, kernel, cfg } => {
            Some(format!("{}/{}/{}", machine.token(), kernel.label(), cfg_key(cfg)))
        }
        Request::Suite { machine, cfg, class } => {
            Some(format!("suite/{}/{}/{:?}", machine.token(), cfg_key(cfg), class))
        }
        Request::EstimateKernel { id } | Request::ExplainKernel { id } => {
            Some(format!("artifact/{id}"))
        }
        Request::EstimateSubmitted { machine_ref, kernel, cfg }
        | Request::ExplainSubmitted { machine_ref, kernel, cfg } => {
            Some(format!("artifact/{machine_ref}/{}/{}", kernel.label(), cfg_key(cfg)))
        }
        Request::Cluster { machine, kernel, network, mode, precision, nodes } => Some(format!(
            "cluster/{}/{}/{}/{}/{precision:?}/{nodes:?}",
            machine.token(),
            kernel.label(),
            network.label(),
            mode.token()
        )),
        Request::LintMachine { machine, .. } => Some(format!("lint/{}", machine.token())),
        Request::SubmitKernel { .. }
        | Request::SubmitMachine { .. }
        | Request::Stats
        | Request::Metrics { .. }
        | Request::SlowRequests { .. }
        | Request::Ping
        | Request::Shutdown => None,
    }
}

struct RouterShared {
    ring: ConsistentRing,
    state: Arc<FleetState>,
    config: RouterConfig,
    draining: AtomicBool,
    jitter: AtomicU64,
}

impl RouterShared {
    /// Next jitter value in `0..=bound` from the deterministic LCG.
    fn jitter_ms(&self, bound: u64) -> u64 {
        let next = self
            .jitter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407))
            })
            .unwrap_or(0);
        if bound == 0 {
            0
        } else {
            (next >> 33) % (bound + 1)
        }
    }
}

/// One pooled connection to a shard, keyed by the address it was opened
/// to so a respawned shard (same identity, new port) gets a fresh socket.
struct ShardConn {
    addr: String,
    conn: LineConn,
}

/// Per-client-connection pool of shard connections.
type ConnPool = HashMap<usize, ShardConn>;

/// Send `line` to `shard` over the pooled connection (opening or
/// reopening it as needed) and read one reply line. Any I/O failure
/// closes the pooled connection and is returned to the caller, which
/// marks the shard down.
fn exchange_with_shard(
    shared: &RouterShared,
    pool: &mut ConnPool,
    shard: usize,
    line: &str,
) -> std::io::Result<String> {
    let addr = shared.state.addr(shard);
    if pool.get(&shard).is_some_and(|c| c.addr != addr) {
        pool.remove(&shard);
    }
    let pooled = match pool.entry(shard) {
        Entry::Occupied(pooled) => pooled.into_mut(),
        Entry::Vacant(slot) => {
            let conn = LineConn::connect(&addr, shared.config.io_timeout)?;
            slot.insert(ShardConn { addr, conn })
        }
    };
    let result = pooled.conn.exchange(line);
    if result.is_err() {
        pool.remove(&shard);
    }
    result
}

/// The `error.kind` of a shard's `ok:false` reply with its retry hint
/// (10 ms when absent); `None` for any other reply. The reply is read in
/// place, first occurrence of each key winning, and no tree is built.
fn shard_error(reply: &str) -> Option<(String, u64)> {
    let [ok, error] = first_members(reply, ["ok", "error"])?;
    if ok != Some(JsonRef::Bool(false)) {
        return None;
    }
    let Some(JsonRef::Obj(error)) = error else { return None };
    let [kind, retry_after_ms] = first_members(error, ["kind", "retry_after_ms"])?;
    let kind = kind.as_ref().and_then(JsonRef::as_str)?.to_string();
    Some((kind, retry_after_ms.and_then(|v| v.as_f64()).unwrap_or(10.0) as u64))
}

/// The first member of each given key in the JSON object `text`; `None`
/// when `text` is not a valid object.
fn first_members<'a, const N: usize>(
    text: &'a str,
    keys: [&str; N],
) -> Option<[Option<JsonRef<'a>>; N]> {
    let mut found = [const { None }; N];
    let object = read_members(text, |key, value| {
        if let Some(i) = keys.iter().position(|k| *k == key) {
            found[i].get_or_insert(value);
        }
    });
    object.ok()?.then_some(found)
}

/// Route one request line: try the key's successor chain, with bounded
/// jittered retries on `overloaded` and mark-down + reroute on I/O
/// failure. Returns the reply line for the client.
fn route_line(
    shared: &RouterShared,
    pool: &mut ConnPool,
    key: &str,
    line: &str,
    id: &Json,
) -> String {
    let order = shared.ring.successors(key);
    let mut last_overloaded: Option<String> = None;
    for (hop, &shard) in order.iter().enumerate() {
        if !shared.state.is_up(shard) {
            continue;
        }
        if hop > 0 {
            rvhpc_obs::counter!("fleet.reroutes", 1);
        }
        let mut attempt = 0;
        loop {
            match exchange_with_shard(shared, pool, shard, line) {
                Ok(reply) => match shard_error(&reply) {
                    Some((kind, retry_after_ms))
                        if kind == "overloaded" && attempt < shared.config.max_retries =>
                    {
                        attempt += 1;
                        let base = retry_after_ms.min(shared.config.retry_cap_ms);
                        let sleep_ms = base / 2 + shared.jitter_ms(base.max(1) / 2);
                        rvhpc_obs::counter!("fleet.retries", 1);
                        std::thread::sleep(Duration::from_millis(sleep_ms.max(1)));
                    }
                    Some((kind, _)) if kind == "overloaded" => {
                        // Retries exhausted here; the ring successor may
                        // have headroom. Remember the reply in case every
                        // shard is saturated.
                        last_overloaded = Some(reply);
                        break;
                    }
                    // The shard is draining out of the fleet: fail over
                    // exactly as if the connection had dropped.
                    Some((kind, _)) if kind == "shutting_down" => {
                        shared.state.mark_down(shard);
                        break;
                    }
                    _ => {
                        shared.state.count_routed(shard);
                        return reply;
                    }
                },
                Err(_) => {
                    shared.state.mark_down(shard);
                    break;
                }
            }
        }
    }
    match last_overloaded {
        Some(reply) => reply,
        None => no_shard(shared, id, "no live shard for this key (all shards down or unreachable)"),
    }
}

/// The `overloaded` reply when no shard could serve a request, with the
/// cooldown as the retry hint.
fn no_shard(shared: &RouterShared, id: &Json, message: &str) -> String {
    let retry_after_ms = shared.config.cooldown.as_millis() as u64;
    error_response(id, ErrorKind::Overloaded, message, Some(retry_after_ms))
}

/// Send `line` to every live shard; returns `(shard, reply)` pairs for
/// the shards that answered. Failures mark the shard down and are
/// skipped.
fn fan_out(shared: &RouterShared, pool: &mut ConnPool, line: &str) -> Vec<(usize, String)> {
    let mut replies = Vec::new();
    for shard in 0..shared.state.len() {
        if !shared.state.is_up(shard) {
            continue;
        }
        match exchange_with_shard(shared, pool, shard, line) {
            Ok(reply) => replies.push((shard, reply)),
            Err(_) => shared.state.mark_down(shard),
        }
    }
    replies
}

fn fleet_block(shared: &RouterShared) -> Json {
    let state = &shared.state;
    let per_shard: Vec<Json> = (0..state.len())
        .map(|i| {
            Json::obj(vec![
                ("index", Json::Num(i as f64)),
                ("addr", Json::str(state.addr(i))),
                ("up", Json::Bool(state.is_up(i))),
                ("routed", Json::Num(state.routed(i) as f64)),
                ("mark_downs", Json::Num(state.mark_downs(i) as f64)),
                ("mark_ups", Json::Num(state.mark_ups(i) as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("shards", Json::Num(state.len() as f64)),
        ("up", Json::Num(state.up_count() as f64)),
        ("per_shard", Json::Arr(per_shard)),
    ])
}

/// Extract the `result` object from N ok-replies; shards that returned an
/// error are dropped from the aggregate.
fn results_of(replies: &[(usize, String)]) -> Vec<Json> {
    replies
        .iter()
        .filter_map(|(_, r)| {
            let doc = Json::parse(r).ok()?;
            if doc.get("ok") == Some(&Json::Bool(true)) {
                doc.get("result").cloned()
            } else {
                None
            }
        })
        .collect()
}

/// Handle one client connection until EOF, shutdown ack or drain.
///
/// The read polls with a short timeout rather than blocking indefinitely:
/// [`Router::join`] waits for every connection thread, so a client that
/// parks an idle connection must not be able to wedge the drain. On a
/// timeout tick the thread re-checks `draining` and exits if the fleet is
/// going down; a partially read line survives the tick in the
/// connection's frame buffer.
fn serve_client(shared: &RouterShared, stream: TcpStream) {
    let Ok(mut conn) = LineConn::accepted(stream, Duration::from_millis(100)) else {
        return;
    };
    let mut pool: ConnPool = HashMap::new();
    loop {
        let (reply, last) = match conn.recv() {
            Ok(Some(Frame::Line(bytes))) => match std::str::from_utf8(bytes) {
                Ok(line) => answer(shared, &mut pool, line),
                // Not UTF-8: framing sync is lost, so close as a shard does.
                Err(_) => return,
            },
            Ok(Some(Frame::Oversized)) => answer(shared, &mut pool, oversized_line()),
            Ok(None) => return,
            Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if conn.send(&reply).is_err() || last {
            return;
        }
    }
}

/// The reply to one framed request line, and whether it is the last the
/// connection sends (a `shutdown` ack).
fn answer(shared: &RouterShared, pool: &mut ConnPool, line: &str) -> (String, bool) {
    let (id, parsed) = parse_request(line);
    let req = match parsed {
        Err(msg) => return (error_response(&id, ErrorKind::BadRequest, &msg, None), false),
        Ok(req) => req,
    };
    if shared.draining.load(Ordering::Relaxed) && !matches!(req, Request::Shutdown) {
        return (error_response(&id, ErrorKind::ShuttingDown, "fleet is draining", None), false);
    }
    let op = req.op();
    let reply = match &req {
        Request::Ping => ok_response(&id, op, Json::obj(vec![("pong", Json::Bool(true))])),
        Request::Stats => {
            let replies = fan_out(shared, pool, r#"{"op":"stats"}"#);
            if replies.is_empty() {
                no_shard(shared, &id, "no shard reachable for stats")
            } else {
                ok_response(&id, op, merge_stats(&results_of(&replies), fleet_block(shared)))
            }
        }
        Request::Metrics { prometheus: true } => error_response(
            &id,
            ErrorKind::BadRequest,
            "the fleet router aggregates JSON metrics only; \
             scrape shards directly for prometheus text",
            None,
        ),
        Request::Metrics { prometheus: false } => {
            let mut results = results_of(&fan_out(shared, pool, r#"{"op":"metrics"}"#));
            if results.is_empty() {
                no_shard(shared, &id, "no shard reachable for metrics")
            } else {
                // The router's own registry: `fleet.*` counters.
                results.push(rvhpc_obs::metrics_json());
                ok_response(&id, op, merge_metrics(&results))
            }
        }
        Request::SlowRequests { limit } => {
            let results = results_of(&fan_out(shared, pool, line));
            if results.is_empty() {
                no_shard(shared, &id, "no shard reachable for slow_requests")
            } else {
                ok_response(&id, op, merge_slow(&results, *limit))
            }
        }
        Request::SubmitKernel { .. } | Request::SubmitMachine { .. } => {
            // Broadcast: admission is deterministic, so all shards derive
            // the same artifact id; reply with the first shard's answer.
            match fan_out(shared, pool, line).into_iter().next() {
                Some((shard, reply)) => {
                    shared.state.count_routed(shard);
                    reply
                }
                None => no_shard(shared, &id, "no live shard to accept the submission"),
            }
        }
        Request::Shutdown => {
            let _ = fan_out(shared, pool, line);
            shared.draining.store(true, Ordering::Relaxed);
            rvhpc_obs::counter!("fleet.shutdowns", 1);
            let ack = ok_response(&id, op, Json::obj(vec![("draining", Json::Bool(true))]));
            return (ack, true);
        }
        // Every op left here has a routing key; one without is a router
        // bug, answered rather than panicking.
        _ => match routing_key(&req) {
            Some(key) => route_line(shared, pool, &key, line, &id),
            None => error_response(
                &id,
                ErrorKind::Internal,
                &format!("op {op} has no routing key"),
                None,
            ),
        },
    };
    (reply, false)
}

/// Probe every shard once: down+cooled-off shards are pinged back up,
/// up shards that fail a ping are marked down.
fn probe_once(shared: &RouterShared) {
    for shard in 0..shared.state.len() {
        let addr = shared.state.addr(shard);
        let ping = || {
            LineConn::connect(&addr, Duration::from_millis(500))
                .and_then(|mut conn| conn.exchange(r#"{"op":"ping"}"#))
                .is_ok_and(|reply| reply.contains("\"pong\""))
        };
        if shared.state.is_up(shard) {
            if !ping() {
                shared.state.mark_down(shard);
            }
        } else if shared.state.revivable(shard) && ping() {
            shared.state.mark_up(shard);
        }
    }
}

/// A running fleet router.
pub struct Router {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    listener_handle: Option<JoinHandle<()>>,
    prober_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Bind the router and start its listener and health prober.
    pub fn start(config: RouterConfig, shard_addrs: Vec<String>) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(FleetState::new(shard_addrs, config.cooldown));
        let shared = Arc::new(RouterShared {
            ring: ConsistentRing::new(state.len()),
            state,
            jitter: AtomicU64::new(config.seed | 1),
            config,
            draining: AtomicBool::new(false),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let listener_handle = {
            let shared = Arc::clone(&shared);
            let conn_handles = Arc::clone(&conn_handles);
            std::thread::spawn(move || loop {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let mut handles = conn_handles.lock().unwrap_or_else(|p| p.into_inner());
                        // A finished connection thread keeps its stack
                        // mapped until it is joined.
                        let (done, live): (Vec<_>, Vec<_>) =
                            handles.drain(..).partition(|h| h.is_finished());
                        *handles = live;
                        for h in done {
                            let _ = h.join();
                        }
                        let shared = Arc::clone(&shared);
                        handles.push(std::thread::spawn(move || serve_client(&shared, stream)));
                    }
                    Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return,
                }
            })
        };
        let prober_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.draining.load(Ordering::Relaxed) {
                    probe_once(&shared);
                    std::thread::sleep(PROBE_EVERY);
                }
            })
        };
        Ok(Router {
            shared,
            local_addr,
            listener_handle: Some(listener_handle),
            prober_handle: Some(prober_handle),
            conn_handles,
        })
    }

    /// The router's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared fleet state (health, routing counters) for supervisors.
    pub fn state(&self) -> Arc<FleetState> {
        Arc::clone(&self.shared.state)
    }

    /// Is the router draining (a `shutdown` was processed)?
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Begin a drain without a client `shutdown` (the SIGTERM path).
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    /// Wait for the listener, prober and all connection threads to exit.
    pub fn join(mut self) {
        if let Some(h) = self.listener_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conn_handles.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::Shutdown;

    /// Each accept joins the connection threads that have finished, so
    /// sequential connections keep no pile of handles (a finished thread
    /// keeps its stack mapped until joined).
    #[test]
    fn finished_connection_threads_are_joined_on_accept() {
        // A shard that never answers; the router answers `ping` itself.
        let shard = TcpListener::bind("127.0.0.1:0").expect("shard binds");
        let shard_addr = shard.local_addr().expect("shard addr").to_string();
        let router =
            Router::start(RouterConfig::default(), vec![shard_addr]).expect("router binds");
        for _ in 0..40 {
            let mut stream = TcpStream::connect(router.local_addr()).expect("connect");
            stream.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
            stream.shutdown(Shutdown::Write).expect("half-close");
            // EOF arrives once the connection thread has dropped its socket.
            let mut reply = String::new();
            stream.read_to_string(&mut reply).expect("read to EOF");
            assert!(reply.contains("\"pong\""), "{reply}");
        }
        let kept = router.conn_handles.lock().unwrap_or_else(|p| p.into_inner()).len();
        assert!(kept <= 2, "{kept} connection handles kept after 40 sequential connections");
        router.shutdown();
        router.join();
    }
}
