//! The server: the epoll reactor, admission queue, batcher.
//!
//! Thread shape (all plain `std::thread`, no async runtime):
//!
//! ```text
//! reactor (one thread, every connection; see `reactor`)
//!   │  accept, read, frame lines, hand each to `handle_line`:
//!   │  direct ops (explain/suite/lint/stats/ping)
//!   │  answered inline on the event loop
//!   └─ estimate ──try_send──▶ bounded queue
//!                                │
//!          batcher ◀─────────────┘
//!          coalesce ≤ batch_max within window,
//!          one cache::estimate_batch call: hits
//!          under one cache lock, each distinct
//!          canonical miss computed once, here,
//!          post each reply to the reactor's mailbox
//! ```
//!
//! Backpressure is explicit: `try_send` on the bounded queue either admits
//! a request or produces an immediate `overloaded` reply with a
//! `retry_after_ms` hint — the server never buffers unboundedly and never
//! silently drops an accepted request. A drain (a `shutdown` request or
//! SIGTERM) stops the listener, finishes everything already admitted,
//! answers late batched requests with `shutting_down`, and joins cleanly.

use crate::conn::{spawn_reactor, ConnEvent, ConnPolicy, ConnWriter, LineHandler};
use crate::protocol::{
    error_response, estimate_json, ok_response, parse_request, ErrorKind, Request,
};
use rvhpc_analyze::lint_machine;
use rvhpc_kernels::{KernelClass, KernelName};
use rvhpc_machines::{catalog, machine, MachineId};
use rvhpc_obs::snapshot::{SnapshotRing, DEFAULT_SNAPSHOT_CAP};
use rvhpc_perfmodel::{cache, estimate_batch, explain, Model, RowEnv, RunConfig};
use rvhpc_trace::json::Json;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (read the
    /// real one back from [`Server::local_addr`]).
    pub addr: String,
    /// Admission-queue bound: estimate requests beyond this many
    /// in flight are answered `overloaded` instead of queued.
    pub queue_capacity: usize,
    /// Largest batch the coalescer assembles.
    pub batch_max: usize,
    /// How long the batcher waits for companions after the first request
    /// of a batch arrives.
    pub batch_window: Duration,
    /// End-to-end latency SLO in milliseconds: requests slower than this
    /// are tail-sampled into the `slow_requests` ring with a per-stage
    /// breakdown. `0.0` disables capture (requests are still counted).
    pub slo_ms: f64,
    /// When set, a scraper thread appends a `rvhpc-metrics-v1` snapshot
    /// to this bounded on-disk ring every [`ServeConfig::scrape_every`].
    pub metrics_file: Option<String>,
    /// Self-scrape period for [`ServeConfig::metrics_file`].
    pub scrape_every: Duration,
    /// [`ConnPolicy::max_conns`].
    pub max_conns: usize,
    /// [`ConnPolicy::idle_timeout`].
    pub idle_timeout: Duration,
    /// [`ConnPolicy::max_outbox_bytes`].
    pub max_outbox_bytes: usize,
    /// Interpreter fuel ceiling for submitted kernels: a submission whose
    /// inferred step bound needs more fuel than this is rejected at
    /// admission (`over_fuel`) instead of admitted and truncated.
    pub max_fuel: u64,
}

/// Most recently admitted artifacts kept addressable, per kind. Beyond
/// this many, the oldest is evicted FIFO (and counted): the registry must
/// not become an unbounded memory for hostile submitters.
pub const REGISTRY_CAP: usize = 256;

impl ServeConfig {
    /// The connection policies the server's reactor enforces.
    pub(crate) fn conn_policy(&self) -> ConnPolicy {
        let ServeConfig { max_conns, idle_timeout, max_outbox_bytes, .. } = *self;
        ConnPolicy { max_conns, idle_timeout, max_outbox_bytes }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        let ConnPolicy { max_conns, idle_timeout, max_outbox_bytes } = ConnPolicy::default();
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 256,
            batch_max: 64,
            batch_window: Duration::from_micros(500),
            slo_ms: 100.0,
            metrics_file: None,
            scrape_every: Duration::from_secs(1),
            max_conns,
            idle_timeout,
            max_outbox_bytes,
            max_fuel: crate::submit::DEFAULT_MAX_FUEL,
        }
    }
}

/// Always-on serving counters, the `stats` op's source. Each event is
/// counted here only; the `rvhpc-obs` registry holds the serving stages
/// and gauges.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request lines received (including rejected ones).
    pub requests: AtomicU64,
    /// Estimate requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Batched requests answered with a result.
    pub completed: AtomicU64,
    /// Requests refused with `overloaded` (queue full).
    pub rejected_overload: AtomicU64,
    /// Lines refused with `bad_request`.
    pub bad_requests: AtomicU64,
    /// Admitted requests whose deadline expired before execution.
    pub deadline_exceeded: AtomicU64,
    /// Requests refused with `shutting_down` during a drain.
    pub shed_shutting_down: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Total requests across all batches.
    pub batch_items: AtomicU64,
    /// Largest batch observed.
    pub max_batch: AtomicU64,
    /// Current admission-queue depth.
    pub queue_depth: AtomicUsize,
    /// Connections refused at accept because `max_conns` was reached.
    pub rejected_conn_cap: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_disconnects: AtomicU64,
    /// Connections dropped because buffered replies exceeded
    /// `max_outbox_bytes`.
    pub dropped_slow: AtomicU64,
    /// Kernel submissions admitted through the lint gate.
    pub submitted_kernels: AtomicU64,
    /// Machine descriptors admitted through the descriptor lint.
    pub submitted_machines: AtomicU64,
    /// Submissions rejected by the admission pipeline (either kind).
    pub rejected_submissions: AtomicU64,
    /// Artifacts evicted from the bounded registry (either kind).
    pub artifact_evictions: AtomicU64,
    /// Admitted kernel artifacts executed via `estimate`.
    pub kernel_runs: AtomicU64,
}

impl ServerStats {
    fn json(&self, draining: bool, cache_at_start: &cache::CacheStats) -> Json {
        let c = cache::stats();
        // The absolute counters are process-wide and include any cache
        // activity from before the server started (a pre-warmed process);
        // the delta block is unambiguous "since serve start" attribution.
        let d = c.since(cache_at_start);
        Json::obj(vec![
            (
                "server",
                Json::obj(vec![
                    ("connections", num(self.connections.load(Ordering::Relaxed))),
                    ("requests", num(self.requests.load(Ordering::Relaxed))),
                    ("admitted", num(self.admitted.load(Ordering::Relaxed))),
                    ("completed", num(self.completed.load(Ordering::Relaxed))),
                    ("rejected_overload", num(self.rejected_overload.load(Ordering::Relaxed))),
                    ("bad_requests", num(self.bad_requests.load(Ordering::Relaxed))),
                    ("deadline_exceeded", num(self.deadline_exceeded.load(Ordering::Relaxed))),
                    ("shed_shutting_down", num(self.shed_shutting_down.load(Ordering::Relaxed))),
                    ("batches", num(self.batches.load(Ordering::Relaxed))),
                    ("batch_items", num(self.batch_items.load(Ordering::Relaxed))),
                    ("max_batch", num(self.max_batch.load(Ordering::Relaxed))),
                    ("queue_depth", num(self.queue_depth.load(Ordering::Relaxed) as u64)),
                    ("rejected_conn_cap", num(self.rejected_conn_cap.load(Ordering::Relaxed))),
                    ("idle_disconnects", num(self.idle_disconnects.load(Ordering::Relaxed))),
                    ("dropped_slow", num(self.dropped_slow.load(Ordering::Relaxed))),
                    ("submitted_kernels", num(self.submitted_kernels.load(Ordering::Relaxed))),
                    ("submitted_machines", num(self.submitted_machines.load(Ordering::Relaxed))),
                    (
                        "rejected_submissions",
                        num(self.rejected_submissions.load(Ordering::Relaxed)),
                    ),
                    ("artifact_evictions", num(self.artifact_evictions.load(Ordering::Relaxed))),
                    ("kernel_runs", num(self.kernel_runs.load(Ordering::Relaxed))),
                    ("draining", Json::Bool(draining)),
                ]),
            ),
            (
                "estimate_cache",
                Json::obj(vec![
                    ("hits", num(c.hits)),
                    ("misses", num(c.misses)),
                    ("evictions", num(c.evictions)),
                    ("entries", num(c.entries as u64)),
                    ("capacity", num(c.capacity as u64)),
                    ("hit_rate", Json::Num(c.hit_rate())),
                ]),
            ),
            (
                "estimate_cache_delta",
                Json::obj(vec![
                    ("hits", num(d.hits)),
                    ("misses", num(d.misses)),
                    ("evictions", num(d.evictions)),
                    ("hit_rate", Json::Num(d.hit_rate())),
                ]),
            ),
        ])
    }
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// A queued estimate request. The three instants split the request's
/// life into the observability stages: `received → admitted` is
/// admission, `admitted → popped` is queue wait, `popped → batch
/// execution` is the batch window.
struct WorkItem {
    id: Json,
    writer: Arc<ConnWriter>,
    received: Instant,
    admission_us: f64,
    admitted: Instant,
    popped: Instant,
    deadline: Option<Instant>,
    machine: MachineId,
    kernel: KernelName,
    cfg: RunConfig,
}

/// The five `serve.*` observability stages, resolved once at startup so
/// hot paths never touch the registry lock.
struct Stages {
    admission: &'static rvhpc_obs::Stage,
    queue_wait: &'static rvhpc_obs::Stage,
    batch_window: &'static rvhpc_obs::Stage,
    compute: &'static rvhpc_obs::Stage,
    write_back: &'static rvhpc_obs::Stage,
}

impl Stages {
    fn new() -> Stages {
        Stages {
            admission: rvhpc_obs::stage("serve.admission"),
            queue_wait: rvhpc_obs::stage("serve.queue_wait"),
            batch_window: rvhpc_obs::stage("serve.batch_window"),
            compute: rvhpc_obs::stage("serve.compute"),
            write_back: rvhpc_obs::stage("serve.write_back"),
        }
    }
}

/// Duration → microseconds, the unit every obs histogram records.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Count one completed request against the SLO; on a breach, capture a
/// full exemplar. `detail` is only rendered when the request actually
/// breached, so the fast path never allocates for it.
fn observe_request(
    op: &str,
    id: &Json,
    total_us: f64,
    stage_split: &[(&'static str, f64)],
    detail: impl FnOnce() -> String,
) {
    if !rvhpc_obs::enabled() {
        return;
    }
    rvhpc_obs::slo().observe_at(rvhpc_obs::now_s(), total_us, || rvhpc_obs::SlowRequest {
        // String ids read better unquoted in the dashboard.
        id: match id {
            Json::Str(s) => s.clone(),
            other => other.render(),
        },
        op: op.to_string(),
        detail: detail(),
        total_us,
        stages: stage_split.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        at_s: rvhpc_obs::uptime_s(),
    });
}

/// The bounded FIFO store of admitted artifacts. Insertion under the same
/// id replaces in place (content-addressed ids make that a no-op
/// semantically); otherwise the oldest entry is evicted once the kind's
/// list reaches [`REGISTRY_CAP`].
struct Registry<T> {
    entries: Mutex<Vec<(String, Arc<T>)>>,
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry { entries: Mutex::new(Vec::new()) }
    }
}

impl<T> Registry<T> {
    /// Insert, returning how many old artifacts were evicted to make room.
    fn insert(&self, id: &str, value: T) -> u64 {
        let mut entries = match self.entries.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some(slot) = entries.iter_mut().find(|(eid, _)| eid == id) {
            slot.1 = Arc::new(value);
            return 0;
        }
        entries.push((id.to_string(), Arc::new(value)));
        let mut evicted = 0;
        while entries.len() > REGISTRY_CAP {
            entries.remove(0);
            evicted += 1;
        }
        evicted
    }

    fn get(&self, id: &str) -> Option<Arc<T>> {
        let entries = match self.entries.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        entries.iter().find(|(eid, _)| eid == id).map(|(_, v)| Arc::clone(v))
    }
}

struct Shared {
    config: ServeConfig,
    stats: ServerStats,
    stages: Stages,
    cache_at_start: cache::CacheStats,
    draining: AtomicBool,
    batcher_done: AtomicBool,
    kernels: Registry<crate::submit::KernelArtifact>,
    machines: Registry<rvhpc_machines::Machine>,
    queue_tx: SyncSender<WorkItem>,
    pause: Mutex<PauseState>,
    pause_changed: Condvar,
}

/// The [`Server::pause_batcher`] handshake, guarded by `Shared::pause`.
#[derive(Default)]
struct PauseState {
    /// Live [`BatcherPause`] guards.
    holds: usize,
    /// The batcher is parked before its next pop, or has exited.
    parked: bool,
}

impl Shared {
    fn pause_state(&self) -> MutexGuard<'_, PauseState> {
        self.pause.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The batcher's check before each pop: park while a pause is held.
    fn park_while_paused(&self) {
        let mut state = self.pause_state();
        if state.holds == 0 {
            return;
        }
        state.parked = true;
        self.pause_changed.notify_all();
        let mut state = self
            .pause_changed
            .wait_while(state, |s| s.holds > 0)
            .unwrap_or_else(PoisonError::into_inner);
        state.parked = false;
    }
}

/// A running server; see the module docs for the thread shape.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    batcher: JoinHandle<()>,
    scraper: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is accepting.
    /// The transport is the epoll reactor, so on other targets this
    /// returns [`std::io::ErrorKind::Unsupported`].
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        assert!(config.queue_capacity >= 1, "queue capacity must be >= 1");
        assert!(config.batch_max >= 1, "batch_max must be >= 1");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (queue_tx, queue_rx) = std::sync::mpsc::sync_channel(config.queue_capacity);
        // Arm the SLO tracker and pre-register every gauge so the very
        // first `metrics` reply already carries the full gauge set.
        rvhpc_obs::slo().set_threshold_ms(config.slo_ms);
        for name in
            ["serve.queue_depth", "serve.inflight_batches", "perfmodel.estimate_cache.entries"]
        {
            rvhpc_obs::gauge(name);
        }
        rvhpc_obs::gauge!("perfmodel.estimate_cache.entries", cache::len() as i64);
        let shared = Arc::new(Shared {
            config,
            stats: ServerStats::default(),
            stages: Stages::new(),
            cache_at_start: cache::stats(),
            draining: AtomicBool::new(false),
            batcher_done: AtomicBool::new(false),
            kernels: Registry::default(),
            machines: Registry::default(),
            queue_tx,
            pause: Mutex::default(),
            pause_changed: Condvar::new(),
        });

        let reactor = spawn_reactor(
            "rvhpc-serve-reactor",
            Arc::clone(&shared),
            listener,
            shared.config.conn_policy(),
        )?;
        let scraper = shared.config.metrics_file.clone().map(|path| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rvhpc-serve-scraper".to_string())
                .spawn(move || scraper_loop(&shared, &path))
        });
        let scraper = match scraper.transpose() {
            Ok(scraper) => scraper,
            Err(e) => return Err(stop_started(&shared, [reactor], e)),
        };
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rvhpc-serve-batcher".to_string())
                .spawn(move || batcher_loop(&shared, &queue_rx))
        };
        let batcher = match batcher {
            Ok(batcher) => batcher,
            Err(e) => return Err(stop_started(&shared, [reactor].into_iter().chain(scraper), e)),
        };
        Ok(Server { local_addr, shared, reactor, batcher, scraper })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Programmatic equivalent of a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// The always-on serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Hold the batcher: returns once it is parked before its next pop,
    /// and until the guard drops nothing leaves the admission queue. Tests
    /// use it to fill the queue or age a deadline deterministically. A
    /// batcher that has already exited counts as parked.
    pub fn pause_batcher(&self) -> BatcherPause<'_> {
        let shared = &self.shared;
        let mut state = shared.pause_state();
        state.holds += 1;
        drop(shared.pause_changed.wait_while(state, |s| !s.parked));
        BatcherPause { shared }
    }

    /// Wait for the drain to complete: listener stopped, queue empty,
    /// batcher exited, every connection closed. Blocks until a drain is
    /// initiated (by a `shutdown` request, [`Server::shutdown`] or
    /// SIGTERM) and then finishes it. The reactor thread owns every
    /// socket and closes them all before it exits, so joining it is
    /// joining every connection.
    pub fn join(self) {
        let _ = self.reactor.join();
        let _ = self.batcher.join();
        if let Some(h) = self.scraper {
            let _ = h.join();
        }
    }
}

/// A hold on the batcher from [`Server::pause_batcher`]; dropping it lets
/// the batcher resume once no other pause is held.
pub struct BatcherPause<'a> {
    shared: &'a Shared,
}

impl Drop for BatcherPause<'_> {
    fn drop(&mut self) {
        self.shared.pause_state().holds -= 1;
        self.shared.pause_changed.notify_all();
    }
}

/// A thread failed to spawn during [`Server::start`]: drain and join the
/// threads already running, then hand back the spawn error. No batcher
/// runs, so the drain is marked complete for the reactor and scraper to
/// exit on.
fn stop_started(
    shared: &Shared,
    started: impl IntoIterator<Item = JoinHandle<()>>,
    error: std::io::Error,
) -> std::io::Error {
    shared.begin_drain();
    shared.batcher_done.store(true, Ordering::SeqCst);
    for thread in started {
        let _ = thread.join();
    }
    error
}

/// Refresh the point-in-time gauges a metrics render should not see
/// stale: queue depth (otherwise only touched on admit/pop) and cache
/// occupancy (otherwise only touched on inserts).
fn refresh_gauges(shared: &Shared) {
    rvhpc_obs::gauge!("serve.queue_depth", shared.stats.queue_depth.load(Ordering::SeqCst) as i64);
    rvhpc_obs::gauge!("perfmodel.estimate_cache.entries", cache::len() as i64);
}

/// Periodic self-scrape: append one `rvhpc-metrics-v1` snapshot per
/// period to the bounded on-disk ring, plus a final one at drain so even
/// a short-lived server leaves a post-mortem trail.
fn scraper_loop(shared: &Arc<Shared>, path: &str) {
    let mut ring = SnapshotRing::new(path, DEFAULT_SNAPSHOT_CAP);
    loop {
        let period_end = Instant::now() + shared.config.scrape_every;
        while Instant::now() < period_end {
            if shared.draining() && shared.batcher_done.load(Ordering::SeqCst) {
                refresh_gauges(shared);
                let _ = ring.append(&rvhpc_obs::metrics_json().render());
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        refresh_gauges(shared);
        let _ = ring.append(&rvhpc_obs::metrics_json().render());
    }
}

/// The shard's face: its reactor hands every framed line to
/// [`handle_line`] and counts connection events in [`ServerStats`].
impl LineHandler for Shared {
    fn handle_line(&self, reply: &Arc<ConnWriter>, line: &str) {
        handle_line(self, reply, line);
    }

    fn count(&self, event: ConnEvent) {
        let counter = match event {
            ConnEvent::Accepted => &self.stats.connections,
            ConnEvent::RefusedAtCap => &self.stats.rejected_conn_cap,
            ConnEvent::IdleClosed => &self.stats.idle_disconnects,
            ConnEvent::DroppedSlow => &self.stats.dropped_slow,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The `Retry-After` hint attached to `overloaded` replies: roughly
    /// how long it takes the batcher to work through a full queue.
    fn retry_after_ms(&self) -> u64 {
        let window_ms = self.config.batch_window.as_millis() as u64;
        let batches_queued = self.config.queue_capacity.div_ceil(self.config.batch_max) as u64;
        (window_ms.max(1) * batches_queued).clamp(1, 1_000)
    }

    /// A drain begun, by a `shutdown` request, [`Server::shutdown`] or
    /// SIGTERM (which the first check after it turns into a drain).
    fn draining(&self) -> bool {
        if crate::signal::sigterm_received() {
            self.begin_drain();
        }
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn drained(&self) -> bool {
        self.batcher_done.load(Ordering::SeqCst)
    }
}

fn handle_line(shared: &Shared, writer: &Arc<ConnWriter>, line: &str) {
    let received = Instant::now();
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let (id, parsed) = parse_request(line);
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            writer.send_line(&error_response(&id, ErrorKind::BadRequest, &msg, None));
            return;
        }
    };
    let op = request.op();
    let _span = rvhpc_trace::span!("serve.request", op = op);
    // ---- batched path: admission control, then the queue ----
    if let Request::Estimate { machine, kernel, cfg, deadline_ms } = request {
        let admitted = Instant::now();
        admit(
            shared,
            WorkItem {
                id,
                writer: Arc::clone(writer),
                received,
                admission_us: us(admitted - received),
                admitted,
                popped: admitted,
                deadline: deadline_ms.map(|ms| admitted + Duration::from_millis(ms)),
                machine,
                kernel,
                cfg,
            },
        );
        return;
    }

    // ---- direct path: computed and answered on the event loop. The
    // arms produce the reply line; the common tail below records the
    // admission (parse) / compute / write-back split and the SLO count.
    let parsed_at = Instant::now();
    let mut drain_after = false;
    let reply = match request {
        Request::Explain { machine: m, kernel, cfg } => {
            let ex = explain(catalog(m), kernel, &cfg);
            ok_response(&id, op, ex.to_json())
        }
        Request::Suite { machine: m, cfg, class } => {
            ok_response(&id, op, run_suite_slice(m, &cfg, class))
        }
        Request::SubmitKernel { asm, env } => {
            match crate::submit::admit_kernel(&asm, env.as_deref(), shared.config.max_fuel) {
                Ok(artifact) => {
                    let result = crate::submit::accepted_json(&artifact);
                    let aid = artifact.id.clone();
                    let evicted = shared.kernels.insert(&aid, artifact);
                    shared.stats.artifact_evictions.fetch_add(evicted, Ordering::Relaxed);
                    shared.stats.submitted_kernels.fetch_add(1, Ordering::Relaxed);
                    ok_response(&id, op, result)
                }
                Err(rejection) => {
                    shared.stats.rejected_submissions.fetch_add(1, Ordering::Relaxed);
                    ok_response(&id, op, rejection.to_json())
                }
            }
        }
        Request::SubmitMachine { descriptor } => {
            let (parsed, findings) = rvhpc_analyze::lint_descriptor(&descriptor);
            match (parsed, findings.is_empty()) {
                (Some(m), true) => {
                    let mid = format!("m:{:016x}", crate::submit::fnv64(descriptor.as_bytes()));
                    let name = m.name.clone();
                    let evicted = shared.machines.insert(&mid, m);
                    shared.stats.artifact_evictions.fetch_add(evicted, Ordering::Relaxed);
                    shared.stats.submitted_machines.fetch_add(1, Ordering::Relaxed);
                    let result = Json::obj(vec![
                        ("accepted", Json::Bool(true)),
                        ("id", Json::str(&mid)),
                        ("name", Json::str(&name)),
                    ]);
                    ok_response(&id, op, result)
                }
                (_, _) => {
                    shared.stats.rejected_submissions.fetch_add(1, Ordering::Relaxed);
                    let result = Json::obj(vec![
                        ("accepted", Json::Bool(false)),
                        ("reason", Json::str("descriptor_findings")),
                        ("findings", Json::Arr(findings.iter().map(|d| d.to_json()).collect())),
                    ]);
                    ok_response(&id, op, result)
                }
            }
        }
        Request::EstimateKernel { id: aid } => match shared.kernels.get(&aid) {
            Some(artifact) => match crate::submit::execute_kernel(&artifact) {
                Ok(result) => {
                    shared.stats.kernel_runs.fetch_add(1, Ordering::Relaxed);
                    ok_response(&id, op, result)
                }
                Err(msg) => error_response(&id, ErrorKind::BadRequest, &msg, None),
            },
            None => error_response(
                &id,
                ErrorKind::BadRequest,
                &format!(
                    "unknown kernel artifact `{aid}` (submit_kernel first; the \
                          registry keeps the most recent {REGISTRY_CAP})"
                ),
                None,
            ),
        },
        Request::ExplainKernel { id: aid } => match shared.kernels.get(&aid) {
            Some(artifact) => {
                let result = Json::obj(vec![
                    ("id", Json::str(&artifact.id)),
                    ("fuel", Json::Num(artifact.fuel as f64)),
                    ("report", artifact.report.to_json()),
                ]);
                ok_response(&id, op, result)
            }
            None => error_response(
                &id,
                ErrorKind::BadRequest,
                &format!(
                    "unknown kernel artifact `{aid}` (submit_kernel first; the \
                          registry keeps the most recent {REGISTRY_CAP})"
                ),
                None,
            ),
        },
        Request::EstimateSubmitted { machine_ref, kernel, cfg } => {
            match shared.machines.get(&machine_ref) {
                // The five-run average a catalog `estimate` answers, but
                // uncached: the estimate cache keys on catalog identity,
                // which submitted descriptors do not have.
                Some(m) => {
                    let est = rvhpc_perfmodel::estimate_averaged(&m, kernel, &cfg);
                    ok_response(&id, op, estimate_json(&est))
                }
                None => error_response(
                    &id,
                    ErrorKind::BadRequest,
                    &format!("unknown machine artifact `{machine_ref}` (submit_machine first)"),
                    None,
                ),
            }
        }
        Request::ExplainSubmitted { machine_ref, kernel, cfg } => {
            match shared.machines.get(&machine_ref) {
                Some(m) => ok_response(&id, op, explain(&m, kernel, &cfg).to_json()),
                None => error_response(
                    &id,
                    ErrorKind::BadRequest,
                    &format!("unknown machine artifact `{machine_ref}` (submit_machine first)"),
                    None,
                ),
            }
        }
        Request::LintMachine {
            machine: m,
            clock_ghz,
            memory_controllers,
            bw_per_controller_gbs,
        } => {
            let mut descriptor = machine(m);
            descriptor.clock_ghz = clock_ghz.unwrap_or(descriptor.clock_ghz);
            let memory = &mut descriptor.memory;
            memory.controllers = memory_controllers.unwrap_or(memory.controllers);
            memory.bw_per_controller_gbs =
                bw_per_controller_gbs.unwrap_or(memory.bw_per_controller_gbs);
            let findings = lint_machine(&descriptor);
            let result = Json::obj(vec![
                ("machine", Json::str(m.token())),
                ("findings", Json::Arr(findings.iter().map(|d| d.to_json()).collect())),
                ("count", num(findings.len() as u64)),
            ]);
            ok_response(&id, op, result)
        }
        Request::Cluster { machine: m, kernel, network, mode, precision, nodes } => {
            let net = network.network();
            let points = rvhpc_cluster::scaling_curve(m, &net, kernel, mode, precision, &nodes);
            rvhpc_obs::counter!("serve.cluster_curves", 1);
            ok_response(
                &id,
                op,
                crate::protocol::cluster_json(m, kernel, network, mode, precision, &points),
            )
        }
        Request::Stats => {
            ok_response(&id, op, shared.stats.json(shared.draining(), &shared.cache_at_start))
        }
        Request::Metrics { prometheus } => {
            refresh_gauges(shared);
            let result = if prometheus {
                Json::obj(vec![
                    ("content_type", Json::str("text/plain; version=0.0.4")),
                    ("text", Json::str(rvhpc_obs::metrics_prometheus())),
                ])
            } else {
                rvhpc_obs::metrics_json()
            };
            ok_response(&id, op, result)
        }
        Request::SlowRequests { limit } => {
            let slo = rvhpc_obs::slo();
            let (total, breaches, dropped) = slo.counters();
            let burn = if total == 0 { 0.0 } else { breaches as f64 / total as f64 };
            let requests: Vec<Json> =
                slo.captured(limit).iter().map(rvhpc_obs::SlowRequest::to_json).collect();
            let result = Json::obj(vec![
                ("threshold_ms", Json::Num(slo.threshold_ms())),
                ("total", num(total)),
                ("breaches", num(breaches)),
                ("burn_fraction", Json::Num(burn)),
                ("captured", num(slo.captured_count() as u64)),
                ("dropped", num(dropped)),
                ("requests", Json::Arr(requests)),
            ]);
            ok_response(&id, op, result)
        }
        Request::Ping => ok_response(&id, op, Json::obj(vec![("pong", Json::Bool(true))])),
        Request::Shutdown => {
            drain_after = true;
            ok_response(&id, op, Json::obj(vec![("draining", Json::Bool(true))]))
        }
        Request::Estimate { .. } => unreachable!("batched ops returned"),
    };
    let computed_at = Instant::now();
    writer.send_line(&reply);
    if drain_after {
        shared.begin_drain();
    }
    let written_at = Instant::now();
    let admission_us = us(parsed_at - received);
    let compute_us = us(computed_at - parsed_at);
    let write_back_us = us(written_at - computed_at);
    shared.stages.admission.record_us(admission_us);
    shared.stages.compute.record_us(compute_us);
    shared.stages.write_back.record_us(write_back_us);
    observe_request(
        op,
        &id,
        us(written_at - received),
        &[("admission", admission_us), ("compute", compute_us), ("write_back", write_back_us)],
        || format!("direct op `{op}`"),
    );
}

/// Try to enqueue a batched work item; answers `overloaded` or
/// `shutting_down` immediately when it cannot.
fn admit(shared: &Shared, item: WorkItem) {
    if shared.draining() {
        shared.stats.shed_shutting_down.fetch_add(1, Ordering::Relaxed);
        let reply = error_response(&item.id, ErrorKind::ShuttingDown, "server is draining", None);
        item.writer.send_line(&reply);
        return;
    }
    let admission_us = item.admission_us;
    // Count the slot before publishing the item: the batcher decrements on
    // pop, and it can pop the instant try_send returns, so incrementing
    // afterwards would race the gauge below zero.
    let depth = shared.stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
    match shared.queue_tx.try_send(item) {
        Ok(()) => {
            shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
            shared.stages.admission.record_us(admission_us);
            rvhpc_obs::gauge!("serve.queue_depth", depth as i64);
        }
        Err(TrySendError::Full(item)) => {
            shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
            shared.stats.rejected_overload.fetch_add(1, Ordering::Relaxed);
            item.writer.send_line(&error_response(
                &item.id,
                ErrorKind::Overloaded,
                "admission queue full",
                Some(shared.retry_after_ms()),
            ));
        }
        Err(TrySendError::Disconnected(item)) => {
            shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
            shared.stats.shed_shutting_down.fetch_add(1, Ordering::Relaxed);
            item.writer.send_line(&error_response(
                &item.id,
                ErrorKind::ShuttingDown,
                "server is draining",
                None,
            ));
        }
    }
}

/// One suite row, class-filtered, answered as one [`estimate_batch`].
fn run_suite_slice(m: MachineId, cfg: &RunConfig, class: Option<KernelClass>) -> Json {
    let row = RowEnv::new(Model::paper(), catalog(m), cfg);
    let queries: Vec<(&RowEnv, KernelName)> = KernelName::ALL
        .into_iter()
        .filter(|k| class.is_none_or(|c| k.class() == c))
        .map(|k| (&row, k))
        .collect();
    let rows: Vec<Json> = queries
        .iter()
        .zip(estimate_batch(&queries))
        .map(|(&(_, k), est)| {
            Json::obj(vec![
                ("kernel", Json::str(k.label())),
                ("class", Json::str(k.class().label())),
                ("seconds", Json::Num(est.seconds)),
                ("vector_path", Json::Bool(est.vector_path)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("machine", Json::str(m.token())),
        ("n", num(rows.len() as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

fn batcher_loop(shared: &Arc<Shared>, queue_rx: &Receiver<WorkItem>) {
    loop {
        shared.park_while_paused();
        let mut first = match queue_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => {
                // A timeout with the drain flag set means the queue is
                // empty and no reader will admit more: drain complete.
                if shared.draining() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        first.popped = Instant::now();
        let depth = shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
        rvhpc_obs::gauge!("serve.queue_depth", depth as i64);
        let mut batch = vec![first];
        let window_end = Instant::now() + shared.config.batch_window;
        while batch.len() < shared.config.batch_max {
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            match queue_rx.recv_timeout(window_end - now) {
                Ok(mut item) => {
                    item.popped = Instant::now();
                    let depth = shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
                    rvhpc_obs::gauge!("serve.queue_depth", depth as i64);
                    batch.push(item);
                }
                Err(_) => break,
            }
        }
        rvhpc_obs::gauge!("serve.inflight_batches", 1);
        process_batch(shared, batch);
        rvhpc_obs::gauge!("serve.inflight_batches", 0);
    }
    // Parked for good: a pause taken from now on returns at once.
    shared.pause_state().parked = true;
    shared.pause_changed.notify_all();
    shared.batcher_done.store(true, Ordering::SeqCst);
}

fn process_batch(shared: &Arc<Shared>, batch: Vec<WorkItem>) {
    let size = batch.len() as u64;
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared.stats.batch_items.fetch_add(size, Ordering::Relaxed);
    shared.stats.max_batch.fetch_max(size, Ordering::Relaxed);
    let _span = rvhpc_trace::span!("serve.batch", size = size);

    // Expired deadlines are cancelled unexecuted; item i of the rest is
    // query i of one cache batch and gets result i. `exec_start` closes
    // the batch-window stage for every item.
    let mut live: Vec<WorkItem> = Vec::with_capacity(batch.len());
    let exec_start = Instant::now();
    for item in batch {
        shared.stages.queue_wait.record_us(us(item.popped - item.admitted));
        if item.deadline.is_some_and(|d| d < exec_start) {
            shared.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            item.writer.send_line(&error_response(
                &item.id,
                ErrorKind::DeadlineExceeded,
                "deadline expired before execution",
                None,
            ));
            continue;
        }
        live.push(item);
    }
    if live.is_empty() {
        return;
    }

    let compute_start = Instant::now();
    let rows: Vec<RowEnv> = live
        .iter()
        .map(|item| RowEnv::new(Model::paper(), catalog(item.machine), &item.cfg))
        .collect();
    let queries: Vec<(&RowEnv, KernelName)> =
        rows.iter().zip(&live).map(|(row, item)| (row, item.kernel)).collect();
    let results = estimate_batch(&queries);
    // The batch computes as one step, so every member shares the same
    // compute-stage duration (that *is* the latency the batch added).
    let compute_us = us(compute_start.elapsed());
    for (item, est) in live.iter().zip(&results) {
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        let send_start = Instant::now();
        item.writer.send_line(&ok_response(&item.id, "estimate", estimate_json(est)));
        let written = Instant::now();
        record_batched(shared, item, exec_start, compute_us, us(written - send_start), written);
    }
}

/// Record the stage histograms and SLO outcome for one answered estimate.
/// `compute_us`/`write_back_us` are the item's own stage durations;
/// `written` is the instant its reply hit the socket.
fn record_batched(
    shared: &Arc<Shared>,
    item: &WorkItem,
    exec_start: Instant,
    compute_us: f64,
    write_back_us: f64,
    written: Instant,
) {
    let batch_window_us = us(exec_start - item.popped);
    shared.stages.batch_window.record_us(batch_window_us);
    shared.stages.compute.record_us(compute_us);
    shared.stages.write_back.record_us(write_back_us);
    observe_request(
        "estimate",
        &item.id,
        us(written - item.received),
        &[
            ("admission", item.admission_us),
            ("queue_wait", us(item.popped - item.admitted)),
            ("batch_window", batch_window_us),
            ("compute", compute_us),
            ("write_back", write_back_us),
        ],
        || {
            format!(
                "{}/{} {} t={}",
                item.machine.token(),
                item.kernel.label(),
                item.cfg.precision.label(),
                item.cfg.threads
            )
        },
    );
}
