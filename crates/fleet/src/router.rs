//! The consistent-hash L7 router fronting a fleet of `rvhpc-serve` shards.
//!
//! The router speaks the exact serve protocol on both faces. Its clients
//! are served by the shard's own reactor ([`rvhpc_serve::spawn_reactor`]):
//! the same framing (trailing `\r` trimmed, blank lines skipped, the size
//! limit applied to the trimmed body, an unterminated last line answered
//! at EOF) and the same [`ConnPolicy`] — connection cap, idle timeout,
//! outbox bound — from one thread, whatever the number of clients. The
//! reactor hands each line to the router's [`LineHandler`], which parses
//! it with the *same* [`rvhpc_serve::protocol::parse_request`] the shards
//! use, so a request the fleet rejects is exactly the request a shard
//! would reject, with the same reply (`tests/tests/fleet_router.rs` sends
//! edge-case lines to both and compares). The handler itself answers
//! `ping`, malformed lines and, once draining, every line but `shutdown`;
//! every other line goes to a fixed [`Workers`] set, each worker with its
//! own pool of shard connections. The reactor hands the router a
//! connection's lines [one at a time](LineHandler::one_line_at_a_time),
//! in arrival order, and reads nothing more from a connection whose line
//! is in flight, so a client pipelining requests is held back by TCP flow
//! control rather than buffered. A routed request takes one of its
//! shard's forward slots, half the workers: a shard that is slow or hung
//! (its batcher stalled, say) holds at most that half while the other
//! half serves the rest of the fleet, and a request whose shard has no
//! slot free moves on to the ring successor. Fan-outs take no slot; the
//! prober marks a shard that stops answering pings down within a
//! second, and fan-outs skip down shards. Routed requests are forwarded **verbatim** — the framed line, byte for
//! byte — and replies are passed back verbatim, which is what makes
//! fleet-served estimates trivially bit-identical to shard-served ones.
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
//!   drains: its reactor stops accepting, and closes every connection once
//!   the lines in flight are answered.

use crate::health::FleetState;
use crate::merge::{merge_metrics, merge_slow, merge_stats};
use crate::ring::ConsistentRing;
use rvhpc_serve::protocol::{error_response, ok_response, parse_request};
use rvhpc_serve::{
    spawn_reactor, ConnEvent, ConnPolicy, ConnWriter, ErrorKind, LineConn, LineHandler, Request,
    Workers,
};
use rvhpc_trace::json::{read_members, Json, JsonRef};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Forwarding workers per CPU. A forward mostly waits for the shard's
/// reply, most of it the shard's batch window, so the workers cap the
/// forwards in flight: with `loadgen` running 4 closed-loop clients
/// through `repro fleet --shards 3` on 2 CPUs, 1 per CPU served ~3.0k
/// req/s and 8 per CPU ~5.2k, and 16 clients at 8 per CPU ~17k.
const FORWARDS_PER_CPU: usize = 8;

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
    /// The client-facing connection policies, the same a shard enforces.
    pub conn: ConnPolicy,
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
            conn: ConnPolicy::default(),
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
    /// Lines handed to the workers and not yet answered.
    in_flight: AtomicUsize,
    /// Routed forwards outstanding on each shard, at most `shard_slots`.
    forwarding: Vec<AtomicUsize>,
    shard_slots: usize,
}

/// A routed forward's claim on one of its shard's slots, released on drop.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl RouterShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Claim a forward slot on `shard`; `None` while all of them are taken.
    fn claim(&self, shard: usize) -> Option<Slot<'_>> {
        let forwarding = &self.forwarding[shard];
        let claimed = forwarding.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < self.shard_slots).then_some(n + 1)
        });
        claimed.ok().map(|_| Slot(forwarding))
    }

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

/// One worker's pool of shard connections.
type ShardPool = HashMap<usize, ShardConn>;

/// Send `line` to `shard` over the pooled connection (opening or
/// reopening it as needed) and read one reply line. Any I/O failure
/// closes the pooled connection and is returned to the caller, which
/// marks the shard down.
fn exchange_with_shard(
    shared: &RouterShared,
    pool: &mut ShardPool,
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
/// jittered retries on `overloaded`, mark-down + reroute on I/O failure,
/// and reroute past a shard with no forward slot free. Returns the reply
/// line for the client.
fn route_line(
    shared: &RouterShared,
    pool: &mut ShardPool,
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
        let Some(_slot) = shared.claim(shard) else {
            rvhpc_obs::counter!("fleet.slots_full", 1);
            continue;
        };
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
        None => no_shard(
            shared,
            id,
            "no live shard for this key (all shards down, unreachable or without a free slot)",
        ),
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
fn fan_out(shared: &RouterShared, pool: &mut ShardPool, line: &str) -> Vec<(usize, String)> {
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

/// The reply to a request the router answers itself: a `ping`, or
/// anything but `shutdown` while draining.
fn local_reply(shared: &RouterShared, id: &Json, req: &Request) -> Option<String> {
    match req {
        Request::Ping => {
            Some(ok_response(id, req.op(), Json::obj(vec![("pong", Json::Bool(true))])))
        }
        Request::Shutdown => None,
        _ if shared.draining() => {
            Some(error_response(id, ErrorKind::ShuttingDown, "fleet is draining", None))
        }
        _ => None,
    }
}

/// A framed line the router answers itself (`Err`): a line that does not
/// parse or has a [`local_reply`]. `Ok` is the parsed request to take to
/// the shards.
fn triage(shared: &RouterShared, line: &str) -> Result<(Json, Request), String> {
    let (id, parsed) = parse_request(line);
    let req = parsed.map_err(|msg| error_response(&id, ErrorKind::BadRequest, &msg, None))?;
    match local_reply(shared, &id, &req) {
        Some(reply) => Err(reply),
        None => Ok((id, req)),
    }
}

/// One line for a worker to take to the shards: the connection to answer
/// and the line, parsed and verbatim.
struct Forward {
    conn: Arc<ConnWriter>,
    id: Json,
    req: Request,
    line: String,
}

/// The reply to one request that needs the shards.
fn forward(
    shared: &RouterShared,
    pool: &mut ShardPool,
    id: &Json,
    req: &Request,
    line: &str,
) -> String {
    let op = req.op();
    match req {
        Request::Stats => {
            let replies = fan_out(shared, pool, r#"{"op":"stats"}"#);
            if replies.is_empty() {
                no_shard(shared, id, "no shard reachable for stats")
            } else {
                ok_response(id, op, merge_stats(&results_of(&replies), fleet_block(shared)))
            }
        }
        Request::Metrics { prometheus: true } => error_response(
            id,
            ErrorKind::BadRequest,
            "the fleet router aggregates JSON metrics only; \
             scrape shards directly for prometheus text",
            None,
        ),
        Request::Metrics { prometheus: false } => {
            let mut results = results_of(&fan_out(shared, pool, r#"{"op":"metrics"}"#));
            if results.is_empty() {
                no_shard(shared, id, "no shard reachable for metrics")
            } else {
                // The router's own registry: `fleet.*` counters.
                results.push(rvhpc_obs::metrics_json());
                ok_response(id, op, merge_metrics(&results))
            }
        }
        Request::SlowRequests { limit } => {
            let results = results_of(&fan_out(shared, pool, line));
            if results.is_empty() {
                no_shard(shared, id, "no shard reachable for slow_requests")
            } else {
                ok_response(id, op, merge_slow(&results, *limit))
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
                None => no_shard(shared, id, "no live shard to accept the submission"),
            }
        }
        Request::Shutdown => {
            let _ = fan_out(shared, pool, line);
            shared.draining.store(true, Ordering::Relaxed);
            rvhpc_obs::counter!("fleet.shutdowns", 1);
            ok_response(id, op, Json::obj(vec![("draining", Json::Bool(true))]))
        }
        // Every op left here has a routing key; one without is a router
        // bug, answered rather than panicking.
        _ => match routing_key(req) {
            Some(key) => route_line(shared, pool, &key, line, id),
            None => error_response(
                id,
                ErrorKind::Internal,
                &format!("op {op} has no routing key"),
                None,
            ),
        },
    }
}

/// The router's face: its reactor hands every framed line here.
struct RouterFace {
    shared: Arc<RouterShared>,
    workers: Workers<Forward>,
}

impl LineHandler for RouterFace {
    fn handle_line(&self, reply: &Arc<ConnWriter>, line: &str) {
        match triage(&self.shared, line) {
            Err(answer) => reply.send_line(&answer),
            Ok((id, req)) => {
                self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
                let conn = Arc::clone(reply);
                self.workers.submit(Forward { conn, id, req, line: line.to_string() });
            }
        }
    }

    fn count(&self, event: ConnEvent) {
        match event {
            ConnEvent::Accepted => rvhpc_obs::counter!("fleet.connections", 1),
            ConnEvent::RefusedAtCap => rvhpc_obs::counter!("fleet.rejected_conn_cap", 1),
            ConnEvent::IdleClosed => rvhpc_obs::counter!("fleet.idle_disconnects", 1),
            ConnEvent::DroppedSlow => rvhpc_obs::counter!("fleet.dropped_slow", 1),
        }
    }

    /// The cooldown, as on the router's other `overloaded` replies.
    fn retry_after_ms(&self) -> u64 {
        self.shared.config.cooldown.as_millis() as u64
    }

    fn draining(&self) -> bool {
        self.shared.draining()
    }

    fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    fn drained(&self) -> bool {
        self.shared.in_flight.load(Ordering::SeqCst) == 0
    }

    /// A connection's lines are answered in arrival order, and the
    /// router buffers none of them.
    fn one_line_at_a_time(&self) -> bool {
        true
    }
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
    face: Arc<RouterFace>,
    local_addr: SocketAddr,
    reactor: JoinHandle<()>,
    prober: JoinHandle<()>,
}

impl Router {
    /// Bind the router and start its reactor, forwarding workers and
    /// health prober.
    pub fn start(config: RouterConfig, shard_addrs: Vec<String>) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(FleetState::new(shard_addrs, config.cooldown));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let workers = (cpus * FORWARDS_PER_CPU).max(2);
        let shared = Arc::new(RouterShared {
            ring: ConsistentRing::new(state.len()),
            forwarding: (0..state.len()).map(|_| AtomicUsize::new(0)).collect(),
            shard_slots: workers / 2,
            state,
            jitter: AtomicU64::new(config.seed | 1),
            config,
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
        });
        let workers = {
            let shared = Arc::clone(&shared);
            Workers::start("rvhpc-fleet-worker", workers, move |pool, job: Forward| {
                // A drain may have begun while the job was queued.
                let reply = local_reply(&shared, &job.id, &job.req)
                    .unwrap_or_else(|| forward(&shared, pool, &job.id, &job.req, &job.line));
                job.conn.finish(&reply);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            })?
        };
        let face = Arc::new(RouterFace { shared: Arc::clone(&shared), workers });
        let policy = shared.config.conn;
        let reactor =
            match spawn_reactor("rvhpc-fleet-reactor", Arc::clone(&face), listener, policy) {
                Ok(reactor) => reactor,
                Err(e) => {
                    join_workers(face);
                    return Err(e);
                }
            };
        let prober = std::thread::spawn(move || {
            while !shared.draining() {
                probe_once(&shared);
                std::thread::sleep(PROBE_EVERY);
            }
        });
        Ok(Router { face, local_addr, reactor, prober })
    }

    /// The router's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared fleet state (health, routing counters) for supervisors.
    pub fn state(&self) -> Arc<FleetState> {
        Arc::clone(&self.face.shared.state)
    }

    /// Is the router draining (a `shutdown` was processed)?
    pub fn draining(&self) -> bool {
        self.face.shared.draining()
    }

    /// Begin a drain without a client `shutdown` (the SIGTERM path).
    pub fn shutdown(&self) {
        self.face.begin_drain();
    }

    /// Wait for the drain to finish: the reactor answers the lines in
    /// flight and closes every connection, then the prober and the
    /// workers exit.
    pub fn join(self) {
        let _ = self.reactor.join();
        let _ = self.prober.join();
        join_workers(self.face);
    }
}

/// Join the forwarding workers once the reactor thread, the face's only
/// other holder, is gone.
fn join_workers(face: Arc<RouterFace>) {
    if let Ok(face) = Arc::try_unwrap(face) {
        face.workers.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_serve::{ServeConfig, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    /// An estimate line whose key the router sends to `shard` first.
    fn estimate_routed_to(router: &Router, shard: usize) -> String {
        rvhpc_serve::loadgen::query_pool()
            .iter()
            .map(|query| query.request_line(1))
            .find(|line| {
                let req = parse_request(line).1.expect("a valid estimate");
                let key = routing_key(&req).expect("estimates are routed");
                router.face.shared.ring.owner(&key) == shard
            })
            .expect("some query routes to every shard")
    }

    /// Open `cap` connections to `addr`, each answered once so it is
    /// accepted, then return the reply line the next connection gets.
    fn refusal_past(cap: usize, addr: SocketAddr) -> Json {
        let held: Vec<LineConn> = (0..cap)
            .map(|_| {
                let mut conn = LineConn::connect(addr, Duration::from_secs(30)).expect("connect");
                let pong = conn.exchange(r#"{"op":"ping"}"#).expect("ping answered");
                assert!(pong.contains("\"pong\""), "{pong}");
                conn
            })
            .collect();
        let stream = TcpStream::connect(addr).expect("the listener still accepts");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("a refusal line");
        // The refused connection is closed after its one line.
        let (mut probe, mut rest) = (&stream, String::new());
        let _ = probe.write_all(b"{\"op\":\"ping\"}\n");
        assert_eq!(BufReader::new(&stream).read_line(&mut rest).unwrap_or(0), 0, "{rest}");
        drop(held);
        Json::parse(reply.trim_end()).expect("the refusal is JSON")
    }

    /// A router at its connection cap refuses the next client with the
    /// structured `overloaded` reply a shard sends at the same cap, and
    /// counts the refusal.
    #[test]
    fn a_router_at_its_cap_refuses_like_a_shard() {
        const CAP: usize = 4;
        let shard = Server::start(ServeConfig { max_conns: CAP, ..ServeConfig::default() })
            .expect("shard binds");
        // The router fronts a default shard, so its prober's pings never
        // take a slot of the capped one.
        let backend = Server::start(ServeConfig::default()).expect("backend binds");
        let conn = ConnPolicy { max_conns: CAP, ..ConnPolicy::default() };
        let router = Router::start(
            RouterConfig { conn, ..RouterConfig::default() },
            vec![backend.local_addr().to_string()],
        )
        .expect("router binds");
        let refused_before = rvhpc_obs::counter("fleet.rejected_conn_cap").load(Ordering::Relaxed);

        let from_shard = refusal_past(CAP, shard.local_addr());
        let from_router = refusal_past(CAP, router.local_addr());
        for reply in [&from_shard, &from_router] {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
            let error = reply.get("error").expect("an error object");
            assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"));
            assert!(error.get("retry_after_ms").and_then(Json::as_f64).is_some(), "{reply:?}");
        }
        let without_hint = |reply: &Json| {
            let error = reply.get("error").expect("an error object");
            (reply.get("id").cloned(), error.get("kind").cloned(), error.get("message").cloned())
        };
        assert_eq!(without_hint(&from_router), without_hint(&from_shard));
        let refused = rvhpc_obs::counter("fleet.rejected_conn_cap").load(Ordering::Relaxed);
        assert_eq!(refused - refused_before, 1, "the router counts its refusal");

        router.shutdown();
        router.join();
        for server in [shard, backend] {
            server.shutdown();
            server.join();
        }
    }

    /// A client pipelining requests to a stalled shard is held back by
    /// TCP flow control, not buffered by the router: the router reads
    /// nothing more from a connection while its line is in flight, and
    /// once the client is gone forwards none of the lines it left unread.
    #[test]
    fn a_pipelining_client_is_held_back_while_its_line_is_in_flight() {
        // Far more than the two sockets' buffers take before the router
        // reads again.
        const OFFERED: usize = 16 << 20;
        let shard = Server::start(ServeConfig::default()).expect("shard binds");
        let router = Router::start(RouterConfig::default(), vec![shard.local_addr().to_string()])
            .expect("router binds");
        let pause = shard.pause_batcher();
        let lines_before = shard.stats().requests.load(Ordering::Relaxed);

        let mut client = TcpStream::connect(router.local_addr()).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let line = format!("{}\n", estimate_routed_to(&router, 0));
        let chunk = line.repeat(64 * 1024 / line.len());
        let (mut sent, mut last_progress) = (0, Instant::now());
        while sent < OFFERED && last_progress.elapsed() < Duration::from_millis(500) {
            match client.write(&chunk.as_bytes()[sent % chunk.len()..]) {
                Ok(n) => (sent, last_progress) = (sent + n, Instant::now()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("write: {e}"),
            }
        }
        assert!(sent < OFFERED / 2, "the router took {sent} bytes from one connection");

        drop(client);
        drop(pause);
        router.shutdown();
        router.join();
        let forwarded = shard.stats().requests.load(Ordering::Relaxed) - lines_before;
        // The line in flight, a line or two read before the reset arrived,
        // and the prober's pings.
        assert!(forwarded < 100, "{forwarded} lines reached the shard after the client left");
        shard.shutdown();
        shard.join();
    }

    /// A shard whose batcher stalls holds at most half the forwarding
    /// workers: a request for another shard is still answered at once,
    /// and so are those for the stalled shard past its slots, by its ring
    /// successor.
    #[test]
    fn a_stalled_shard_leaves_the_other_shards_served() {
        let shards: Vec<Server> =
            (0..2).map(|_| Server::start(ServeConfig::default()).expect("shard binds")).collect();
        let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let config =
            RouterConfig { io_timeout: Duration::from_secs(60), ..RouterConfig::default() };
        let router = Router::start(config, addrs).expect("router binds");
        let (to_stalled, to_live) =
            (estimate_routed_to(&router, 0), estimate_routed_to(&router, 1));
        let slots = router.face.shared.shard_slots;
        let pause = shards[0].pause_batcher();

        // More requests for the stalled shard than there are workers, each
        // on a connection of its own.
        let mut stalled: Vec<LineConn> = (0..2 * slots + 2)
            .map(|_| {
                let mut conn = LineConn::connect(router.local_addr(), Duration::from_secs(30))
                    .expect("connect");
                conn.send(&to_stalled).expect("send");
                conn
            })
            .collect();
        let started = Instant::now();
        let mut live =
            LineConn::connect(router.local_addr(), Duration::from_secs(10)).expect("connect");
        let reply = live.exchange(&to_live).expect("the live shard's request is answered");
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "answered after {:?}",
            started.elapsed()
        );

        drop(pause);
        for conn in &mut stalled {
            let frame = conn.recv().expect("a reply").expect("not EOF");
            assert!(
                matches!(frame, rvhpc_serve::Frame::Line(l) if l.starts_with(b"{")),
                "{frame:?}"
            );
        }
        router.shutdown();
        router.join();
        for s in shards {
            s.shutdown();
            s.join();
        }
    }
}
