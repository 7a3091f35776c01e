//! The load generator: N closed-loop clients over real sockets.
//!
//! Each client owns one TCP connection and runs a closed loop — send one
//! request, block for its reply, record the latency, repeat — optionally
//! paced to an aggregate request rate. Every connection here (clients,
//! the control connection, the metrics poller, per-shard snapshots) is a
//! [`LineConn`], so replies are framed as the server frames requests,
//! under [`crate::MAX_REPLY_BYTES`]. The query mix is drawn from a fixed
//! pool of `(machine, kernel, precision, threads)` triples by a seeded
//! LCG, so runs are reproducible and the pool is small enough for the
//! estimate cache to warm up (which is exactly the serving scenario the
//! cache exists for).
//!
//! After the run every distinct query's reply is re-verified **bit
//! identically** against a local [`estimate_cached`] call: the server must
//! be a transparent network wrapper around the model, not a lossy one.

use crate::frame::LineConn;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{estimate_cached, Precision, RunConfig};
use rvhpc_trace::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Load-generator settings; see field docs for defaults.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4242`.
    pub addr: String,
    /// Number of concurrent closed-loop clients (default 4).
    pub clients: usize,
    /// Requests each client sends (default 100); `None` means "until
    /// `duration` elapses".
    pub requests_per_client: Option<usize>,
    /// Wall-clock cap for the run; `None` means "until the per-client
    /// request budget is spent".
    pub duration: Option<Duration>,
    /// Aggregate target request rate across all clients; `0` means
    /// unpaced (each client sends as fast as its replies return).
    pub rps: f64,
    /// LCG seed for the query mix (default 42).
    pub seed: u64,
    /// Also send one deliberately malformed line on the control
    /// connection and require a structured `bad_request` reply.
    pub probe_bad: bool,
    /// After the run, request a graceful drain and require the server to
    /// answer and then close the connection cleanly.
    pub shutdown_after: bool,
    /// Client-side SLO target in milliseconds; when set the report gains
    /// an SLO verdict (breach count, burn fraction, pass/fail on p99).
    pub slo_ms: Option<f64>,
    /// Poll the server's `metrics` op on a dedicated connection every
    /// this-many milliseconds during the run, schema-validating each
    /// reply; `None` disables polling.
    pub poll_metrics_ms: Option<u64>,
    /// Open-loop mode (Linux only): instead of N blocking request/reply
    /// clients, one epoll engine paces sends at the aggregate `rps`
    /// across [`LoadgenConfig::connections`] sockets regardless of reply
    /// arrival — the arrival process does not slow down when the server
    /// does, which is what exposes tail latency under real concurrency.
    /// Requires `rps > 0`.
    pub open_loop: bool,
    /// Concurrent connections for open-loop mode; established staggered
    /// (see `openloop::stagger_offsets`) so ramp-up does not SYN-flood
    /// the listener. Ignored in closed-loop mode.
    pub connections: usize,
    /// Expected shard count when driving a fleet router. Cross-checked
    /// against the router's `stats` fleet block (mismatch is a protocol
    /// error) and recorded in the report.
    pub shards: Option<usize>,
    /// Individual shard addresses. When non-empty, per-shard `stats`
    /// snapshots are taken before and after the run and the report gains
    /// per-shard request/cache attribution.
    pub targets: Vec<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            clients: 4,
            requests_per_client: Some(100),
            duration: None,
            rps: 0.0,
            seed: 42,
            probe_bad: false,
            shutdown_after: false,
            slo_ms: None,
            poll_metrics_ms: None,
            open_loop: false,
            connections: 0,
            shards: None,
            targets: Vec::new(),
        }
    }
}

/// Per-shard attribution from direct `stats` deltas around a fleet run.
#[derive(Debug, Clone)]
pub struct ShardAttribution {
    /// The shard's address.
    pub addr: String,
    /// Whether both stats snapshots succeeded; all counters are zero when
    /// they did not (a shard may legitimately be down mid-failover).
    pub reachable: bool,
    /// `server.requests` delta over the run (includes the router's own
    /// control traffic to that shard).
    pub requests: u64,
    /// Estimate-cache hits gained on this shard during the run.
    pub cache_hits: u64,
    /// Estimate-cache misses gained on this shard during the run.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` over this shard's delta (0 when idle).
    pub cache_hit_rate: f64,
}

/// Everything a run measured; the `rvhpc-serve-bench-v1` artefact is a
/// straight rendering of this struct (see [`crate::bench`]).
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Clients that ran (closed loop) or connections driven (open loop).
    pub clients: usize,
    /// Whether the run was open-loop.
    pub open_loop: bool,
    /// Concurrent connections sustained: equals `clients` in closed-loop
    /// mode, the `--connections` count in open-loop mode.
    pub connections: usize,
    /// LCG seed used.
    pub seed: u64,
    /// Wall-clock time of the measurement phase in seconds.
    pub wall_seconds: f64,
    /// Requests sent (estimate requests only; probes are separate).
    pub sent: u64,
    /// Replies with `ok:true`.
    pub ok: u64,
    /// `overloaded` rejections.
    pub overloaded: u64,
    /// `deadline_exceeded` replies.
    pub deadline_exceeded: u64,
    /// `shutting_down` replies.
    pub shutting_down: u64,
    /// Protocol violations: unparseable replies, id mismatches,
    /// unexpected error kinds, failed probes, or bit-identity mismatches.
    pub protocol_errors: u64,
    /// Latency percentiles over successful replies, microseconds.
    pub p50_us: f64,
    /// 95th percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worst observed latency, microseconds.
    pub max_us: f64,
    /// Successful replies per second of wall time.
    pub throughput_rps: f64,
    /// `overloaded / sent` (0 when nothing was sent).
    pub reject_rate: f64,
    /// Estimate-cache hits gained server-side during the run.
    pub cache_hits: u64,
    /// Estimate-cache misses gained server-side during the run.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` over the run's delta (0 when idle).
    pub cache_hit_rate: f64,
    /// Every distinct query's reply matched a local `estimate_cached`
    /// call bit for bit.
    pub verified_bit_identical: bool,
    /// Outcome of the malformed-line probe, when requested.
    pub probe_bad_ok: Option<bool>,
    /// Whether the post-run drain completed cleanly, when requested.
    pub drained_clean: Option<bool>,
    /// The SLO target this run was gated against, when one was set.
    pub slo_target_ms: Option<f64>,
    /// Successful replies slower than the SLO target.
    pub slo_breaches: u64,
    /// `slo_breaches / ok` (0 when nothing succeeded).
    pub slo_burn: f64,
    /// `p99 <= target`, when a target was set.
    pub slo_passed: Option<bool>,
    /// Metrics-op polls issued during the run, when polling was on.
    pub metrics_polls: u64,
    /// Polls whose reply was missing, unparseable, or schema-invalid.
    pub metrics_poll_failures: u64,
    /// Fleet shard count, when the run addressed a fleet (from
    /// [`LoadgenConfig::shards`] / `--target-list`).
    pub shards: Option<usize>,
    /// Per-shard attribution, one entry per `--target-list` address.
    pub per_shard: Vec<ShardAttribution>,
}

/// One query from the fixed pool. Public so fleet tooling can replay the
/// exact pool (e.g. to warm every shard's cache deterministically).
#[derive(Debug, Clone, Copy)]
pub struct Triple {
    /// Catalog machine.
    pub machine: MachineId,
    /// Kernel to estimate.
    pub kernel: KernelName,
    /// Element precision.
    pub precision: Precision,
    /// Thread count.
    pub threads: usize,
}

impl Triple {
    /// Render this query as an `estimate` request line with the given id.
    pub fn request_line(&self, id: u64) -> String {
        Json::obj(vec![
            ("id", Json::Num(id as f64)),
            ("op", Json::str("estimate")),
            ("machine", Json::str(self.machine.token())),
            ("kernel", Json::str(self.kernel.label())),
            ("precision", Json::str(self.precision.label())),
            ("threads", Json::Num(self.threads as f64)),
        ])
        .render()
    }

    /// The exact config the server derives for this request (machine-best
    /// defaults) — the local half of the bit-identity check.
    pub fn run_config(&self) -> RunConfig {
        if self.machine.is_riscv() {
            RunConfig::sg2042_best(self.precision, self.threads)
        } else {
            RunConfig::x86(self.precision, self.threads)
        }
    }
}

/// The reproducible query pool: a slice of the catalog × kernel × config
/// space, small enough to warm the cache, wide enough to exercise it.
pub fn query_pool() -> Vec<Triple> {
    let machines = [MachineId::Sg2042, MachineId::AmdRome, MachineId::IntelIcelake];
    let kernels: Vec<KernelName> = KernelName::ALL.into_iter().step_by(7).collect();
    let mut pool = Vec::new();
    for &machine in &machines {
        for &kernel in &kernels {
            for precision in [Precision::Fp64, Precision::Fp32] {
                for threads in [1usize, 4, 16] {
                    pool.push(Triple { machine, kernel, precision, threads });
                }
            }
        }
    }
    pool
}

pub(crate) fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The four time fields of an estimate reply, as exact bit patterns.
pub type EstimateBits = [u64; 4];

#[derive(Default)]
pub(crate) struct ClientOutcome {
    pub(crate) sent: u64,
    pub(crate) ok: u64,
    pub(crate) overloaded: u64,
    pub(crate) deadline_exceeded: u64,
    pub(crate) shutting_down: u64,
    pub(crate) protocol_errors: u64,
    pub(crate) latencies_us: Vec<f64>,
    /// First observed reply bits per pool index, plus a flag if a later
    /// reply for the same query disagreed.
    pub(crate) replies: HashMap<usize, EstimateBits>,
    pub(crate) divergent_replies: bool,
}

/// Extract the four time fields of an estimate `result` as bit patterns
/// (the wire half of the bit-identity check).
pub fn reply_bits(result: &Json) -> Option<EstimateBits> {
    let mut bits = [0u64; 4];
    for (slot, field) in
        ["seconds", "compute_seconds", "memory_seconds", "overhead_seconds"].iter().enumerate()
    {
        bits[slot] = result.get(field).and_then(Json::as_f64)?.to_bits();
    }
    Some(bits)
}

fn client_loop(
    cfg: &LoadgenConfig,
    pool: &[Triple],
    client_idx: usize,
    pace: Option<Duration>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let Ok(mut conn) = LineConn::connect(&cfg.addr, READ_TIMEOUT) else {
        out.protocol_errors += 1;
        return out;
    };
    let mut rng = cfg.seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let start = Instant::now();
    for seq in 0u64.. {
        if cfg.requests_per_client.is_some_and(|limit| seq as usize >= limit) {
            break;
        }
        if cfg.duration.is_some_and(|d| start.elapsed() >= d) {
            break;
        }
        let pool_idx = (lcg_next(&mut rng) as usize) % pool.len();
        let id = (client_idx as u64) * 1_000_000 + seq;
        let line = pool[pool_idx].request_line(id);
        let sent_at = Instant::now();
        out.sent += 1;
        // A dropped connection mid-conversation is exactly the failure
        // mode backpressure exists to prevent; an oversized reply is a
        // violation too.
        let Ok(reply) = conn.exchange(&line) else {
            out.protocol_errors += 1;
            break;
        };
        let latency_us = sent_at.elapsed().as_secs_f64() * 1e6;
        let Ok(doc) = Json::parse(&reply) else {
            out.protocol_errors += 1;
            continue;
        };
        if doc.get("id").and_then(Json::as_f64) != Some(id as f64) {
            out.protocol_errors += 1;
            continue;
        }
        match doc.get("ok") {
            Some(Json::Bool(true)) => match doc.get("result").and_then(reply_bits) {
                Some(bits) => {
                    let prior = out.replies.entry(pool_idx).or_insert(bits);
                    if *prior != bits {
                        out.divergent_replies = true;
                    }
                    out.ok += 1;
                    out.latencies_us.push(latency_us);
                }
                None => out.protocol_errors += 1,
            },
            Some(Json::Bool(false)) => {
                let kind = doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
                match kind {
                    Some("overloaded") => out.overloaded += 1,
                    Some("deadline_exceeded") => out.deadline_exceeded += 1,
                    Some("shutting_down") => {
                        out.shutting_down += 1;
                        return out; // server is draining; stop generating
                    }
                    _ => out.protocol_errors += 1,
                }
            }
            _ => out.protocol_errors += 1,
        }
        if let Some(interval) = pace {
            let elapsed = sent_at.elapsed();
            if elapsed < interval {
                std::thread::sleep(interval - elapsed);
            }
        }
    }
    out
}

/// How long any loadgen connection waits for a reply.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn cache_counters(stats_reply: &Json) -> Option<(u64, u64)> {
    let cache = stats_reply.get("result")?.get("estimate_cache")?;
    let hits = cache.get("hits").and_then(Json::as_f64)? as u64;
    let misses = cache.get("misses").and_then(Json::as_f64)? as u64;
    Some((hits, misses))
}

/// One shard's `(server.requests, cache hits, cache misses)` over a fresh
/// direct connection, for per-shard attribution around a fleet run.
fn shard_snapshot(addr: &str) -> Option<(u64, u64, u64)> {
    let reply = LineConn::connect(addr, READ_TIMEOUT).ok()?.request(r#"{"op":"stats"}"#).ok()?;
    let requests =
        reply.get("result")?.get("server")?.get("requests").and_then(Json::as_f64)? as u64;
    let (hits, misses) = cache_counters(&reply)?;
    Some((requests, hits, misses))
}

/// Poll the server's `metrics` op on a dedicated connection until `stop`
/// flips, schema-validating every reply with [`rvhpc_obs::validate_metrics`].
/// Returns `(polls, failures)`.
fn metrics_poller(addr: &str, every: Duration, stop: &AtomicBool) -> (u64, u64) {
    let Ok(mut conn) = LineConn::connect(addr, READ_TIMEOUT) else {
        return (1, 1);
    };
    let mut polls = 0u64;
    let mut failures = 0u64;
    while !stop.load(Ordering::Relaxed) {
        polls += 1;
        let reply = conn.request(r#"{"op":"metrics"}"#).ok();
        let valid = reply
            .as_ref()
            .and_then(|doc| doc.get("result"))
            .is_some_and(|m| rvhpc_obs::validate_metrics(&m.render()).is_ok());
        if !valid {
            failures += 1;
        }
        // Sleep in short ticks so a finished run is not held open for a
        // full polling interval.
        let deadline = Instant::now() + every;
        while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    (polls, failures)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Run the load generator against a live server and measure it.
///
/// Errors only on total connection failure; per-request trouble is
/// reported through [`LoadgenReport::protocol_errors`] instead, so a
/// misbehaving server produces a report, not a panic.
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    if cfg.open_loop {
        #[cfg(not(target_os = "linux"))]
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "--open-loop requires Linux (epoll)",
        ));
        assert!(cfg.connections >= 1, "open-loop mode needs at least one connection");
        assert!(cfg.rps > 0.0, "open-loop mode needs an --rps pacing target");
    } else {
        assert!(cfg.clients >= 1, "need at least one client");
    }
    // The gap between one sender's requests: the aggregate rate is split
    // evenly over the closed-loop clients; the open loop paces one stream.
    let senders = if cfg.open_loop { 1.0 } else { cfg.clients as f64 };
    let pace = if cfg.rps > 0.0 {
        let gap = Duration::try_from_secs_f64(senders / cfg.rps).map_err(|e| {
            let msg = format!("rps {:e} gives no usable pacing interval: {e}", cfg.rps);
            std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
        })?;
        Some(gap)
    } else {
        None
    };
    let pool = query_pool();
    let mut control = LineConn::connect(&cfg.addr, READ_TIMEOUT)?;

    let stats_before_reply = control.request(r#"{"op":"stats"}"#).ok();
    let stats_before = stats_before_reply.as_ref().and_then(cache_counters);
    let shard_before: Vec<Option<(u64, u64, u64)>> =
        cfg.targets.iter().map(|addr| shard_snapshot(addr)).collect();

    let started = Instant::now();
    let pool_ref = &pool;
    let stop_polling = AtomicBool::new(false);
    let (outcomes, poll_outcome): (Vec<ClientOutcome>, Option<(u64, u64)>) =
        std::thread::scope(|scope| {
            let poller = cfg.poll_metrics_ms.map(|ms| {
                let every = Duration::from_millis(ms.max(1));
                let (addr, stop) = (cfg.addr.clone(), &stop_polling);
                scope.spawn(move || metrics_poller(&addr, every, stop))
            });
            let outcomes = if cfg.open_loop {
                #[cfg(target_os = "linux")]
                {
                    crate::openloop::run_clients(cfg, pool_ref, pace.unwrap_or_default())
                }
                #[cfg(not(target_os = "linux"))]
                {
                    unreachable!("open_loop rejected above on non-Linux")
                }
            } else {
                let handles: Vec<_> = (0..cfg.clients)
                    .map(|i| scope.spawn(move || client_loop(cfg, pool_ref, i, pace)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
            };
            stop_polling.store(true, Ordering::Relaxed);
            (outcomes, poller.map(|h| h.join().expect("poller panicked")))
        });
    let wall_seconds = started.elapsed().as_secs_f64();

    let stats_after = control.request(r#"{"op":"stats"}"#).ok().as_ref().and_then(cache_counters);
    let shard_after: Vec<Option<(u64, u64, u64)>> =
        cfg.targets.iter().map(|addr| shard_snapshot(addr)).collect();

    // Fold the per-client outcomes.
    let effective_conns = if cfg.open_loop { cfg.connections } else { cfg.clients };
    let mut report = LoadgenReport {
        clients: effective_conns,
        open_loop: cfg.open_loop,
        connections: effective_conns,
        seed: cfg.seed,
        wall_seconds,
        sent: 0,
        ok: 0,
        overloaded: 0,
        deadline_exceeded: 0,
        shutting_down: 0,
        protocol_errors: 0,
        p50_us: f64::NAN,
        p95_us: f64::NAN,
        p99_us: f64::NAN,
        mean_us: f64::NAN,
        max_us: f64::NAN,
        throughput_rps: 0.0,
        reject_rate: 0.0,
        cache_hits: 0,
        cache_misses: 0,
        cache_hit_rate: 0.0,
        verified_bit_identical: true,
        probe_bad_ok: None,
        drained_clean: None,
        slo_target_ms: None,
        slo_breaches: 0,
        slo_burn: 0.0,
        slo_passed: None,
        metrics_polls: 0,
        metrics_poll_failures: 0,
        shards: None,
        per_shard: Vec::new(),
    };
    let mut latencies: Vec<f64> = Vec::new();
    let mut replies: HashMap<usize, EstimateBits> = HashMap::new();
    for out in outcomes {
        report.sent += out.sent;
        report.ok += out.ok;
        report.overloaded += out.overloaded;
        report.deadline_exceeded += out.deadline_exceeded;
        report.shutting_down += out.shutting_down;
        report.protocol_errors += out.protocol_errors;
        if out.divergent_replies {
            report.verified_bit_identical = false;
        }
        latencies.extend(out.latencies_us);
        for (pool_idx, bits) in out.replies {
            let prior = replies.entry(pool_idx).or_insert(bits);
            if *prior != bits {
                report.verified_bit_identical = false;
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    report.p50_us = percentile(&latencies, 0.50);
    report.p95_us = percentile(&latencies, 0.95);
    report.p99_us = percentile(&latencies, 0.99);
    report.max_us = latencies.last().copied().unwrap_or(f64::NAN);
    report.mean_us = if latencies.is_empty() {
        f64::NAN
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    if wall_seconds > 0.0 {
        report.throughput_rps = report.ok as f64 / wall_seconds;
    }
    if report.sent > 0 {
        report.reject_rate = report.overloaded as f64 / report.sent as f64;
    }
    if let Some(target_ms) = cfg.slo_ms {
        let target_us = target_ms * 1000.0;
        report.slo_target_ms = Some(target_ms);
        report.slo_breaches = latencies.iter().filter(|&&l| l > target_us).count() as u64;
        if report.ok > 0 {
            report.slo_burn = report.slo_breaches as f64 / report.ok as f64;
            report.slo_passed = Some(report.p99_us <= target_us);
        } else {
            // No successes means no latency evidence at all: fail closed.
            report.slo_passed = Some(false);
        }
    }
    if let Some((polls, failures)) = poll_outcome {
        report.metrics_polls = polls;
        report.metrics_poll_failures = failures;
        // A metrics endpoint that goes missing or emits a schema-invalid
        // document under load is a protocol failure like any other.
        report.protocol_errors += failures;
    }
    if let (Some((h0, m0)), Some((h1, m1))) = (stats_before, stats_after) {
        report.cache_hits = h1.saturating_sub(h0);
        report.cache_misses = m1.saturating_sub(m0);
        let total = report.cache_hits + report.cache_misses;
        if total > 0 {
            report.cache_hit_rate = report.cache_hits as f64 / total as f64;
        }
    } else {
        report.protocol_errors += 1; // stats op must work
    }

    // Fleet attribution: per-shard stats deltas and the shard-count
    // cross-check against the router's fleet block.
    let observed_shards = stats_before_reply
        .as_ref()
        .and_then(|d| d.get("result")?.get("fleet")?.get("shards")?.as_f64())
        .map(|n| n as usize);
    report.shards = cfg.shards.or(observed_shards).or(if cfg.targets.is_empty() {
        None
    } else {
        Some(cfg.targets.len())
    });
    if let Some(expected) = cfg.shards {
        if observed_shards.is_some_and(|n| n != expected)
            || (!cfg.targets.is_empty() && cfg.targets.len() != expected)
        {
            // A router reporting a different fleet size than the driver
            // was pointed at means someone is aiming at the wrong fleet.
            report.protocol_errors += 1;
        }
    }
    for (i, addr) in cfg.targets.iter().enumerate() {
        let attribution = match (shard_before[i], shard_after[i]) {
            (Some((r0, h0, m0)), Some((r1, h1, m1))) => {
                let hits = h1.saturating_sub(h0);
                let misses = m1.saturating_sub(m0);
                let total = hits + misses;
                ShardAttribution {
                    addr: addr.clone(),
                    reachable: true,
                    requests: r1.saturating_sub(r0),
                    cache_hits: hits,
                    cache_misses: misses,
                    cache_hit_rate: if total > 0 { hits as f64 / total as f64 } else { 0.0 },
                }
            }
            _ => ShardAttribution {
                addr: addr.clone(),
                reachable: false,
                requests: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_hit_rate: 0.0,
            },
        };
        report.per_shard.push(attribution);
    }

    // Bit-identity: every distinct query's server answer must equal a
    // local estimate_cached call exactly.
    for (pool_idx, bits) in &replies {
        let t = pool[*pool_idx];
        let est = estimate_cached(catalog(t.machine), t.kernel, &t.run_config());
        let local: EstimateBits = [
            est.seconds.to_bits(),
            est.compute_seconds.to_bits(),
            est.memory_seconds.to_bits(),
            est.overhead_seconds.to_bits(),
        ];
        if local != *bits {
            report.verified_bit_identical = false;
            report.protocol_errors += 1;
        }
    }

    if cfg.probe_bad {
        let reply = control.request("this is not json {").ok();
        let ok = reply.as_ref().is_some_and(|doc| {
            doc.get("ok") == Some(&Json::Bool(false))
                && doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str)
                    == Some("bad_request")
        });
        report.probe_bad_ok = Some(ok);
        if !ok {
            report.protocol_errors += 1;
        }
    }

    if cfg.shutdown_after {
        let reply = control.request(r#"{"op":"shutdown"}"#).ok();
        let acked = reply.as_ref().is_some_and(|doc| doc.get("ok") == Some(&Json::Bool(true)));
        // After the ack the server drains and closes: require EOF.
        let eof = loop {
            match control.recv() {
                Ok(None) => break true,
                Ok(Some(_)) => continue, // late replies are fine during drain
                Err(_) => break false,
            }
        };
        let clean = acked && eof;
        report.drained_clean = Some(clean);
        if !clean {
            report.protocol_errors += 1;
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A positive rate too small for its pacing interval to fit a
    /// `Duration` is an input error, reported before any connection.
    #[test]
    fn unrepresentable_pacing_is_an_error_not_a_panic() {
        for open_loop in [false, true] {
            let cfg = LoadgenConfig {
                addr: "127.0.0.1:1".to_string(),
                rps: 1e-300,
                open_loop,
                connections: usize::from(open_loop),
                ..LoadgenConfig::default()
            };
            let err = run_loadgen(&cfg).expect_err("no pacing interval fits");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn query_pool_is_stable_and_nonempty() {
        let pool = query_pool();
        assert!(pool.len() >= 100, "pool has {} entries", pool.len());
        // Deterministic: same seed, same draw sequence.
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..64 {
            assert_eq!(lcg_next(&mut a), lcg_next(&mut b));
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        v.sort_by(f64::total_cmp);
        let (p50, p95, p99) = (percentile(&v, 0.5), percentile(&v, 0.95), percentile(&v, 0.99));
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(percentile(&v, 1.0), 999.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn request_lines_are_valid_protocol() {
        for (i, t) in query_pool().iter().enumerate().take(25) {
            let line = t.request_line(i as u64);
            let (_, parsed) = crate::protocol::parse_request(&line);
            parsed.unwrap_or_else(|e| panic!("pool entry {i} invalid: {e}"));
        }
    }
}
