//! The `rvhpc-fleet-bench-v1` artefact: the cluster-scaling repro
//! experiment driven through a real sharded fleet.
//!
//! [`run_fleet_bench`] spawns N shard processes, fronts them with the
//! consistent-hash [`Router`], and runs four phases:
//!
//! 1. **warm** — replay the entire loadgen query pool once through the
//!    router, so every shard's disjoint cache partition is hot;
//! 2. **measured** — a seeded closed-loop loadgen run through the router
//!    with per-shard attribution (`--target-list` semantics). Because the
//!    pool was warmed and routing is deterministic, every shard should
//!    serve its partition entirely from cache;
//! 3. **failover** — SIGKILL one shard mid-run, require zero failed
//!    requests and zero bit divergence (retries land on the ring
//!    successor), then respawn it and wait for the prober to mark it up;
//! 4. **cluster** — weak- and strong-scaling curves requested via the
//!    `cluster` serve op through the router, checked bit-for-bit against
//!    a direct [`rvhpc_cluster::scaling_curve`] call.
//!
//! The artefact shape is documented in EXPERIMENTS.md; the validator
//! below is the machine-checkable spec.

use crate::proc::{spawn_shard, ShardProc};
use crate::ring::VNODES_PER_SHARD;
use crate::router::{Router, RouterConfig};
use rvhpc_cluster::{curve_from_json, curve_to_json, scaling_curve, ClusterPoint};
use rvhpc_cluster::{NetworkKind, ScalingMode};
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::Precision;
use rvhpc_serve::bench::{req_bool, req_count, req_f64};
use rvhpc_serve::loadgen::{query_pool, reply_bits, LoadgenReport};
use rvhpc_serve::{run_loadgen, LineConn, LoadgenConfig};
use rvhpc_trace::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Schema tag embedded in (and required of) every fleet-bench artefact.
pub const FLEET_SCHEMA: &str = "rvhpc-fleet-bench-v1";

/// Fleet benchmark settings.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Path to the `repro` binary used to spawn shard processes.
    pub exe: PathBuf,
    /// Number of shards to spawn (default 3).
    pub shards: usize,
    /// Closed-loop clients for the measured phase (default 4).
    pub clients: usize,
    /// Requests each client sends in the measured phase (default 150).
    pub requests_per_client: usize,
    /// LCG seed for the query mix and router jitter (default 42).
    pub seed: u64,
    /// Which shard the failover phase SIGKILLs (default 1).
    pub kill_shard: usize,
    /// Interconnect for the cluster-scaling phase (default 25GbE).
    pub network: NetworkKind,
    /// Node counts for the cluster-scaling curves.
    pub nodes: Vec<u32>,
}

impl FleetBenchConfig {
    /// Defaults for the checked-in artefact: 3 shards, 4×150 requests,
    /// seed 42, shard 1 killed, 25GbE scaling out to 64 nodes.
    pub fn new(exe: PathBuf) -> FleetBenchConfig {
        FleetBenchConfig {
            exe,
            shards: 3,
            clients: 4,
            requests_per_client: 150,
            seed: 42,
            kill_shard: 1,
            network: NetworkKind::FastEthernet25G,
            nodes: vec![1, 2, 4, 16, 64],
        }
    }
}

/// What the failover phase measured.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The shard that was SIGKILLed.
    pub killed_shard: usize,
    /// The loadgen run that rode through the kill.
    pub report: LoadgenReport,
    /// Mark-down events the aggregator recorded during the phase.
    pub mark_downs: u64,
    /// Mark-up events (the respawned shard being revived).
    pub mark_ups: u64,
    /// The killed shard was respawned and probed back up.
    pub recovered: bool,
}

/// The cluster-scaling curves served through the fleet.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Machine modelled as the cluster node.
    pub machine: MachineId,
    /// Kernel scaled.
    pub kernel: KernelName,
    /// Interconnect modelled.
    pub network: NetworkKind,
    /// Node counts evaluated.
    pub nodes: Vec<u32>,
    /// Weak-scaling curve (as served).
    pub weak: Vec<ClusterPoint>,
    /// Strong-scaling curve (as served).
    pub strong: Vec<ClusterPoint>,
    /// Served curves matched a direct library call bit for bit.
    pub served_matches_library: bool,
}

/// Everything a fleet-bench run measured.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// Shards that ran.
    pub shards: usize,
    /// Warm-phase requests (the whole query pool, once).
    pub warm_requests: u64,
    /// Warm-phase `ok` replies.
    pub warm_ok: u64,
    /// Warm-phase wall time, seconds.
    pub warm_seconds: f64,
    /// Requests the router ring-routed to each shard in the measured
    /// phase (the routing distribution).
    pub routed_measured: Vec<u64>,
    /// The measured-phase loadgen run (with per-shard attribution).
    pub measured: LoadgenReport,
    /// The failover phase.
    pub failover: FailoverReport,
    /// The cluster-scaling phase.
    pub cluster: ClusterReport,
    /// Whole-benchmark wall time, seconds.
    pub wall_seconds: f64,
}

/// How long a fleet-bench connection to the router waits for a reply.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Render a loadgen report as the phase summary block shared by the
/// measured and failover phases.
fn phase_json(report: &LoadgenReport) -> Json {
    Json::obj(vec![
        ("sent", num(report.sent as f64)),
        ("ok", num(report.ok as f64)),
        ("overloaded", num(report.overloaded as f64)),
        ("protocol_errors", num(report.protocol_errors as f64)),
        ("p50_us", num(report.p50_us)),
        ("p99_us", num(report.p99_us)),
        ("throughput_rps", num(report.throughput_rps)),
        (
            "cache",
            Json::obj(vec![
                ("hits", num(report.cache_hits as f64)),
                ("misses", num(report.cache_misses as f64)),
                ("hit_rate", num(report.cache_hit_rate)),
            ]),
        ),
        ("verified_bit_identical", Json::Bool(report.verified_bit_identical)),
        (
            "per_shard",
            Json::Arr(
                report
                    .per_shard
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("addr", Json::str(&s.addr)),
                            ("reachable", Json::Bool(s.reachable)),
                            ("requests", num(s.requests as f64)),
                            (
                                "cache",
                                Json::obj(vec![
                                    ("hits", num(s.cache_hits as f64)),
                                    ("misses", num(s.cache_misses as f64)),
                                    ("hit_rate", num(s.cache_hit_rate)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render a fleet-bench run as the versioned artefact.
pub fn fleet_artefact(cfg: &FleetBenchConfig, report: &FleetBenchReport) -> Json {
    Json::obj(vec![
        ("schema", Json::str(FLEET_SCHEMA)),
        (
            "config",
            Json::obj(vec![
                ("shards", num(report.shards as f64)),
                ("clients", num(cfg.clients as f64)),
                ("requests_per_client", num(cfg.requests_per_client as f64)),
                ("seed", num(cfg.seed as f64)),
                ("vnodes_per_shard", num(VNODES_PER_SHARD as f64)),
            ]),
        ),
        (
            "warm",
            Json::obj(vec![
                ("requests", num(report.warm_requests as f64)),
                ("ok", num(report.warm_ok as f64)),
                ("wall_seconds", num(report.warm_seconds)),
            ]),
        ),
        (
            "routing",
            Json::obj(vec![
                (
                    "distribution",
                    Json::Arr(report.routed_measured.iter().map(|&n| num(n as f64)).collect()),
                ),
                ("total_routed", num(report.routed_measured.iter().sum::<u64>() as f64)),
            ]),
        ),
        ("measured", phase_json(&report.measured)),
        (
            "failover",
            Json::obj(vec![
                ("killed_shard", num(report.failover.killed_shard as f64)),
                ("failed", num((report.failover.report.sent - report.failover.report.ok) as f64)),
                ("run", phase_json(&report.failover.report)),
                ("mark_downs", num(report.failover.mark_downs as f64)),
                ("mark_ups", num(report.failover.mark_ups as f64)),
                ("recovered", Json::Bool(report.failover.recovered)),
            ]),
        ),
        (
            "cluster",
            Json::obj(vec![
                ("machine", Json::str(report.cluster.machine.token())),
                ("kernel", Json::str(report.cluster.kernel.label())),
                ("network", Json::str(report.cluster.network.label())),
                ("nodes", Json::Arr(report.cluster.nodes.iter().map(|&n| num(n as f64)).collect())),
                ("weak", curve_to_json(&report.cluster.weak)),
                ("strong", curve_to_json(&report.cluster.strong)),
                ("served_matches_library", Json::Bool(report.cluster.served_matches_library)),
            ]),
        ),
        ("wall_seconds", num(report.wall_seconds)),
    ])
}

/// Validate one phase block: counters, ordered percentiles, a hit rate
/// consistent with its own counts, and per-shard attribution of the
/// right arity.
fn validate_phase(block: &Json, label: &str, shards: usize) -> Result<(u64, u64), String> {
    let sent = req_count(block, &["sent"])?;
    let ok = req_count(block, &["ok"])?;
    if ok > sent {
        return Err(format!("{label}.ok ({ok}) exceeds {label}.sent ({sent})"));
    }
    req_count(block, &["overloaded"])?;
    req_count(block, &["protocol_errors"])?;
    let p50 = req_f64(block, &["p50_us"])?;
    let p99 = req_f64(block, &["p99_us"])?;
    if !(p50.is_finite() && p99.is_finite() && 0.0 <= p50 && p50 <= p99) {
        return Err(format!("{label} latency percentiles out of order: p50={p50} p99={p99}"));
    }
    let hits = req_count(block, &["cache", "hits"])?;
    let misses = req_count(block, &["cache", "misses"])?;
    let hit_rate = req_f64(block, &["cache", "hit_rate"])?;
    let total = hits + misses;
    let expected = if total > 0 { hits as f64 / total as f64 } else { 0.0 };
    if (hit_rate - expected).abs() > 1e-9 {
        return Err(format!(
            "{label}.cache.hit_rate {hit_rate} inconsistent with hits={hits} misses={misses}"
        ));
    }
    req_bool(block, &["verified_bit_identical"])?;
    let Some(Json::Arr(entries)) = block.get("per_shard") else {
        return Err(format!("missing array field `{label}.per_shard`"));
    };
    if entries.len() != shards {
        return Err(format!("{label}.per_shard has {} entries for {shards} shards", entries.len()));
    }
    for (i, entry) in entries.iter().enumerate() {
        if entry.get("addr").and_then(Json::as_str).is_none() {
            return Err(format!("{label}.per_shard[{i}].addr must be a string"));
        }
        let reachable = req_bool(entry, &["reachable"])?;
        let requests = req_count(entry, &["requests"])?;
        let hits = req_count(entry, &["cache", "hits"])?;
        let misses = req_count(entry, &["cache", "misses"])?;
        let hit_rate = req_f64(entry, &["cache", "hit_rate"])?;
        let total = hits + misses;
        let expected = if total > 0 { hits as f64 / total as f64 } else { 0.0 };
        if (hit_rate - expected).abs() > 1e-9 {
            return Err(format!(
                "{label}.per_shard[{i}].cache.hit_rate {hit_rate} inconsistent with \
                 hits={hits} misses={misses}"
            ));
        }
        if !reachable && (requests > 0 || total > 0) {
            return Err(format!("{label}.per_shard[{i}] is unreachable but has non-zero counters"));
        }
    }
    Ok((sent, ok))
}

fn validate_curve(cluster: &Json, key: &str, nodes: &[u64]) -> Result<(), String> {
    let curve = cluster
        .get(key)
        .ok_or_else(|| format!("missing field `cluster.{key}`"))
        .and_then(|doc| curve_from_json(doc).map_err(|e| format!("cluster.{key}: {e}")))?;
    if curve.len() != nodes.len() {
        return Err(format!(
            "cluster.{key} has {} points for {} node counts",
            curve.len(),
            nodes.len()
        ));
    }
    for (i, (point, &n)) in curve.iter().zip(nodes).enumerate() {
        if u64::from(point.nodes) != n {
            return Err(format!(
                "cluster.{key} point at {} nodes disagrees with cluster.nodes entry {n}",
                point.nodes
            ));
        }
        // Superlinear strong scaling is physical here (the per-node
        // working set shrinks into cache), so efficiency is only required
        // to be finite and positive — except the baseline point, which is
        // measured against itself and must be exactly 1.
        if !(point.efficiency.is_finite() && point.efficiency > 0.0) {
            return Err(format!(
                "cluster.{key} efficiency at {n} nodes is not finite and positive: {}",
                point.efficiency
            ));
        }
        if i == 0 && (point.efficiency - 1.0).abs() > 1e-9 {
            return Err(format!(
                "cluster.{key} baseline efficiency must be 1, got {}",
                point.efficiency
            ));
        }
    }
    Ok(())
}

/// Validate a fleet-bench artefact: schema tag, routing distribution of
/// the right arity summing to its own total, internally consistent phase
/// blocks, a failover block whose `failed` count matches its run, and
/// cluster curves that parse and stay within physical efficiency bounds.
pub fn validate_fleet_artefact(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("artefact is not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `schema`".to_string())?;
    if schema != FLEET_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{FLEET_SCHEMA}`"));
    }
    let shards = req_count(&doc, &["config", "shards"])? as usize;
    if shards == 0 {
        return Err("config.shards must be positive".to_string());
    }
    req_count(&doc, &["config", "seed"])?;
    let vnodes = req_count(&doc, &["config", "vnodes_per_shard"])?;
    if vnodes == 0 {
        return Err("config.vnodes_per_shard must be positive".to_string());
    }
    let warm_requests = req_count(&doc, &["warm", "requests"])?;
    let warm_ok = req_count(&doc, &["warm", "ok"])?;
    if warm_ok > warm_requests {
        return Err(format!("warm.ok ({warm_ok}) exceeds warm.requests ({warm_requests})"));
    }
    let Some(Json::Arr(distribution)) = doc.get("routing").and_then(|r| r.get("distribution"))
    else {
        return Err("missing array field `routing.distribution`".to_string());
    };
    if distribution.len() != shards {
        return Err(format!(
            "routing.distribution has {} entries for {shards} shards",
            distribution.len()
        ));
    }
    let mut total = 0u64;
    for (i, entry) in distribution.iter().enumerate() {
        match entry.as_f64() {
            Some(v) if v.is_finite() && v >= 0.0 && v.fract() == 0.0 => total += v as u64,
            _ => return Err(format!("routing.distribution[{i}] is not a count")),
        }
    }
    if total != req_count(&doc, &["routing", "total_routed"])? {
        return Err("routing.total_routed disagrees with the sum of the distribution".to_string());
    }
    let measured = doc.get("measured").ok_or_else(|| "missing field `measured`".to_string())?;
    validate_phase(measured, "measured", shards)?;
    let failover = doc.get("failover").ok_or_else(|| "missing field `failover`".to_string())?;
    let killed = req_count(failover, &["killed_shard"])? as usize;
    if killed >= shards {
        return Err(format!("failover.killed_shard ({killed}) out of range for {shards} shards"));
    }
    let run = failover.get("run").ok_or_else(|| "missing field `failover.run`".to_string())?;
    let (sent, ok) = validate_phase(run, "failover.run", shards)?;
    let failed = req_count(failover, &["failed"])?;
    if failed != sent - ok {
        return Err(format!(
            "failover.failed ({failed}) disagrees with its own run: sent={sent} ok={ok}"
        ));
    }
    if req_count(failover, &["mark_downs"])? == 0 {
        return Err("failover.mark_downs must record the kill".to_string());
    }
    req_count(failover, &["mark_ups"])?;
    req_bool(failover, &["recovered"])?;
    let cluster = doc.get("cluster").ok_or_else(|| "missing field `cluster`".to_string())?;
    for field in ["machine", "kernel", "network"] {
        if cluster.get(field).and_then(Json::as_str).is_none() {
            return Err(format!("cluster.{field} must be a string"));
        }
    }
    let Some(Json::Arr(nodes_json)) = cluster.get("nodes") else {
        return Err("missing array field `cluster.nodes`".to_string());
    };
    let mut nodes = Vec::new();
    for (i, entry) in nodes_json.iter().enumerate() {
        match entry.as_f64() {
            Some(v) if v.is_finite() && v >= 1.0 && v.fract() == 0.0 => nodes.push(v as u64),
            _ => return Err(format!("cluster.nodes[{i}] is not a positive integer")),
        }
    }
    validate_curve(cluster, "weak", &nodes)?;
    validate_curve(cluster, "strong", &nodes)?;
    req_bool(cluster, &["served_matches_library"])?;
    let wall = req_f64(&doc, &["wall_seconds"])?;
    if !wall.is_finite() || wall < 0.0 {
        return Err(format!("wall_seconds must be finite and non-negative, got {wall}"));
    }
    Ok(())
}

/// Request one scaling curve through the router and compare it bit for
/// bit against the direct library call. Returns `(served, matched)`.
fn served_curve(
    conn: &mut LineConn,
    id: u64,
    cfg: &FleetBenchConfig,
    mode: ScalingMode,
) -> std::io::Result<(Vec<ClusterPoint>, bool)> {
    let line = Json::obj(vec![
        ("id", num(id as f64)),
        ("op", Json::str("cluster")),
        ("machine", Json::str(MachineId::Sg2042.token())),
        ("kernel", Json::str(KernelName::STREAM_TRIAD.label())),
        ("network", Json::str(cfg.network.label())),
        ("mode", Json::str(mode.token())),
        ("nodes", Json::Arr(cfg.nodes.iter().map(|&n| num(n as f64)).collect())),
    ])
    .render();
    let reply = conn.request(&line)?;
    let points = reply
        .get("result")
        .and_then(|r| r.get("points"))
        .ok_or_else(|| std::io::Error::other("cluster reply has no result.points"))
        .and_then(|p| curve_from_json(p).map_err(std::io::Error::other))?;
    let net = cfg.network.network();
    let local = scaling_curve(
        MachineId::Sg2042,
        &net,
        KernelName::STREAM_TRIAD,
        mode,
        Precision::Fp64,
        &cfg.nodes,
    );
    let matched = points.len() == local.len()
        && points.iter().zip(&local).all(|(a, b)| {
            a.nodes == b.nodes
                && a.seconds.to_bits() == b.seconds.to_bits()
                && a.compute_seconds.to_bits() == b.compute_seconds.to_bits()
                && a.comm_seconds.to_bits() == b.comm_seconds.to_bits()
                && a.efficiency.to_bits() == b.efficiency.to_bits()
        });
    Ok((points, matched))
}

/// Spawn the fleet, run all four phases, tear everything down, and
/// return the report. Shard processes are killed on every exit path.
pub fn run_fleet_bench(cfg: &FleetBenchConfig) -> std::io::Result<FleetBenchReport> {
    assert!(cfg.shards >= 2, "a fleet of one shard proves nothing");
    assert!(cfg.kill_shard < cfg.shards, "kill_shard out of range");
    let started = Instant::now();
    let mut shards: Vec<Option<ShardProc>> = Vec::new();
    for index in 0..cfg.shards {
        match spawn_shard(&cfg.exe, index, &[]) {
            Ok(proc) => shards.push(Some(proc)),
            Err(e) => {
                for p in shards.iter_mut().flatten() {
                    p.kill();
                }
                return Err(e);
            }
        }
    }
    let addrs: Vec<String> =
        shards.iter().map(|p| p.as_ref().expect("just spawned").addr.clone()).collect();
    let router = match Router::start(
        RouterConfig { seed: cfg.seed, ..RouterConfig::default() },
        addrs.clone(),
    ) {
        Ok(r) => r,
        Err(e) => {
            for p in shards.iter_mut().flatten() {
                p.kill();
            }
            return Err(e);
        }
    };
    let result = run_phases(cfg, &router, &mut shards, &addrs, started);
    // Tear-down runs on every path: drain the router, then reap shards.
    router.shutdown();
    router.join();
    for p in shards.iter_mut().flatten() {
        p.kill();
    }
    result
}

fn run_phases(
    cfg: &FleetBenchConfig,
    router: &Router,
    shards: &mut [Option<ShardProc>],
    addrs: &[String],
    started: Instant,
) -> std::io::Result<FleetBenchReport> {
    let router_addr = router.local_addr().to_string();
    let state = router.state();

    // Phase 1: warm every shard's partition by replaying the whole pool.
    let warm_started = Instant::now();
    let mut conn = LineConn::connect(&router_addr, READ_TIMEOUT)?;
    let pool = query_pool();
    let mut warm_ok = 0u64;
    for (i, triple) in pool.iter().enumerate() {
        let id = 10_000_000 + i as u64;
        let reply = conn.request(&triple.request_line(id))?;
        let ok = reply.get("ok").and_then(|v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        });
        if ok == Some(true) && reply.get("result").and_then(reply_bits).is_some() {
            warm_ok += 1;
        }
    }
    let warm_seconds = warm_started.elapsed().as_secs_f64();

    // Phase 2: the measured run, with routing distribution deltas.
    let routed_before: Vec<u64> = (0..cfg.shards).map(|i| state.routed(i)).collect();
    let measured = run_loadgen(&LoadgenConfig {
        addr: router_addr.clone(),
        clients: cfg.clients,
        requests_per_client: Some(cfg.requests_per_client),
        seed: cfg.seed,
        shards: Some(cfg.shards),
        targets: addrs.to_vec(),
        ..LoadgenConfig::default()
    })?;
    let routed_measured: Vec<u64> =
        (0..cfg.shards).map(|i| state.routed(i) - routed_before[i]).collect();

    // Phase 3: SIGKILL one shard ~100ms into a second run; every request
    // must still succeed (rerouted to the ring successor, bit-identical).
    let downs_before: Vec<u64> = (0..cfg.shards).map(|i| state.mark_downs(i)).collect();
    let ups_before: Vec<u64> = (0..cfg.shards).map(|i| state.mark_ups(i)).collect();
    let mut victim = shards[cfg.kill_shard].take().expect("victim shard present");
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        victim.kill();
        victim
    });
    // Pace the run to ~500ms of wall time so the 100ms kill lands while
    // requests are still in flight — the whole point of the phase.
    let total_requests = (cfg.clients * cfg.requests_per_client) as f64;
    let failover_run = run_loadgen(&LoadgenConfig {
        addr: router_addr.clone(),
        clients: cfg.clients,
        requests_per_client: Some(cfg.requests_per_client),
        rps: total_requests * 2.0,
        seed: cfg.seed.wrapping_add(1),
        shards: Some(cfg.shards),
        targets: addrs.to_vec(),
        ..LoadgenConfig::default()
    });
    let victim = killer.join().expect("killer thread");
    let failover_run = failover_run?;
    let index = victim.index;
    drop(victim);
    // The kill must be *observed* before the respawn, either by a failed
    // forward or by the prober's next ping — otherwise the artefact could
    // not distinguish failover from a lucky quiet period.
    let down_deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < down_deadline {
        let downs: u64 = (0..cfg.shards).map(|i| state.mark_downs(i) - downs_before[i]).sum();
        if downs >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Respawn the shard under the same ring identity on a fresh port and
    // wait for the prober to mark it back up.
    let respawned = spawn_shard(&cfg.exe, index, &[])?;
    state.set_addr(index, respawned.addr.clone());
    shards[index] = Some(respawned);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = false;
    while Instant::now() < deadline {
        if state.is_up(index) {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mark_downs: u64 = (0..cfg.shards).map(|i| state.mark_downs(i) - downs_before[i]).sum();
    let mark_ups: u64 = (0..cfg.shards).map(|i| state.mark_ups(i) - ups_before[i]).sum();
    let failover = FailoverReport {
        killed_shard: cfg.kill_shard,
        report: failover_run,
        mark_downs,
        mark_ups,
        recovered,
    };

    // Phase 4: cluster-scaling curves through the fleet, checked against
    // the library.
    let mut conn = LineConn::connect(&router_addr, READ_TIMEOUT)?;
    let (weak, weak_ok) = served_curve(&mut conn, 20_000_001, cfg, ScalingMode::Weak)?;
    let (strong, strong_ok) = served_curve(&mut conn, 20_000_002, cfg, ScalingMode::Strong)?;
    // Belt and braces: re-derive one weak point against the raw model so
    // a broken scaling_curve cannot silently agree with itself.
    let sanity = !weak.is_empty() && {
        let m = catalog(MachineId::Sg2042);
        weak[0].nodes == cfg.nodes[0] && weak[0].seconds.is_finite() && m.n_cores() > 0
    };
    let cluster = ClusterReport {
        machine: MachineId::Sg2042,
        kernel: KernelName::STREAM_TRIAD,
        network: cfg.network,
        nodes: cfg.nodes.clone(),
        weak,
        strong,
        served_matches_library: weak_ok && strong_ok && sanity,
    };

    Ok(FleetBenchReport {
        shards: cfg.shards,
        warm_requests: pool.len() as u64,
        warm_ok,
        warm_seconds,
        routed_measured,
        measured,
        failover,
        cluster,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_serve::loadgen::ShardAttribution;

    fn sample_loadgen(per_shard: Vec<ShardAttribution>) -> LoadgenReport {
        LoadgenReport {
            clients: 4,
            open_loop: false,
            connections: 4,
            seed: 42,
            wall_seconds: 1.2,
            sent: 600,
            ok: 600,
            overloaded: 0,
            deadline_exceeded: 0,
            shutting_down: 0,
            protocol_errors: 0,
            p50_us: 150.0,
            p95_us: 600.0,
            p99_us: 900.0,
            mean_us: 200.0,
            max_us: 2000.0,
            throughput_rps: 500.0,
            reject_rate: 0.0,
            cache_hits: 600,
            cache_misses: 0,
            cache_hit_rate: 1.0,
            verified_bit_identical: true,
            probe_bad_ok: None,
            drained_clean: None,
            slo_target_ms: None,
            slo_breaches: 0,
            slo_burn: 0.0,
            slo_passed: None,
            metrics_polls: 0,
            metrics_poll_failures: 0,
            shards: Some(3),
            per_shard,
        }
    }

    fn shard(
        addr: &str,
        reachable: bool,
        requests: u64,
        hits: u64,
        misses: u64,
    ) -> ShardAttribution {
        let total = hits + misses;
        ShardAttribution {
            addr: addr.into(),
            reachable,
            requests,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if total > 0 { hits as f64 / total as f64 } else { 0.0 },
        }
    }

    fn sample_report(cfg: &FleetBenchConfig) -> FleetBenchReport {
        let attribution = vec![
            shard("127.0.0.1:7001", true, 220, 200, 0),
            shard("127.0.0.1:7002", true, 210, 190, 0),
            shard("127.0.0.1:7003", true, 215, 210, 0),
        ];
        let mut failover_attr = attribution.clone();
        failover_attr[1] = shard("127.0.0.1:7002", false, 0, 0, 0);
        let net = cfg.network.network();
        let weak = scaling_curve(
            MachineId::Sg2042,
            &net,
            KernelName::STREAM_TRIAD,
            ScalingMode::Weak,
            Precision::Fp64,
            &cfg.nodes,
        );
        let strong = scaling_curve(
            MachineId::Sg2042,
            &net,
            KernelName::STREAM_TRIAD,
            ScalingMode::Strong,
            Precision::Fp64,
            &cfg.nodes,
        );
        FleetBenchReport {
            shards: 3,
            warm_requests: 180,
            warm_ok: 180,
            warm_seconds: 0.4,
            routed_measured: vec![210, 195, 195],
            measured: sample_loadgen(attribution),
            failover: FailoverReport {
                killed_shard: 1,
                report: sample_loadgen(failover_attr),
                mark_downs: 1,
                mark_ups: 1,
                recovered: true,
            },
            cluster: ClusterReport {
                machine: MachineId::Sg2042,
                kernel: KernelName::STREAM_TRIAD,
                network: cfg.network,
                nodes: cfg.nodes.clone(),
                weak,
                strong,
                served_matches_library: true,
            },
            wall_seconds: 3.5,
        }
    }

    #[test]
    fn artefact_round_trips_through_the_validator() {
        let cfg = FleetBenchConfig::new(PathBuf::from("repro"));
        let text = fleet_artefact(&cfg, &sample_report(&cfg)).render();
        validate_fleet_artefact(&text).expect("valid artefact");
    }

    #[test]
    fn schema_and_arity_violations_are_rejected() {
        let cfg = FleetBenchConfig::new(PathBuf::from("repro"));
        let report = sample_report(&cfg);
        let text =
            fleet_artefact(&cfg, &report).render().replace(FLEET_SCHEMA, "rvhpc-fleet-bench-v0");
        let err = validate_fleet_artefact(&text).expect_err("schema mismatch");
        assert!(err.contains("schema is"), "{err}");

        // A distribution of the wrong arity cannot claim to cover the fleet.
        let mut bad = report.clone();
        bad.routed_measured.pop();
        let err = validate_fleet_artefact(&fleet_artefact(&cfg, &bad).render())
            .expect_err("short distribution");
        assert!(err.contains("distribution"), "{err}");

        // A failover block that never recorded the kill is rejected.
        let mut bad = report.clone();
        bad.failover.mark_downs = 0;
        let err = validate_fleet_artefact(&fleet_artefact(&cfg, &bad).render())
            .expect_err("no mark-down");
        assert!(err.contains("mark_downs"), "{err}");

        // An unreachable shard with traffic is a contradiction.
        let mut bad = report.clone();
        bad.failover.report.per_shard[1].requests = 7;
        let err = validate_fleet_artefact(&fleet_artefact(&cfg, &bad).render())
            .expect_err("unreachable with traffic");
        assert!(err.contains("unreachable"), "{err}");

        assert!(validate_fleet_artefact("{not json").is_err());
        assert!(validate_fleet_artefact(r#"{"schema":"rvhpc-fleet-bench-v1"}"#).is_err());
    }

    #[test]
    fn cluster_curves_are_structurally_enforced() {
        let cfg = FleetBenchConfig::new(PathBuf::from("repro"));
        let report = sample_report(&cfg);

        // A curve whose node counts disagree with cluster.nodes is caught.
        let mut bad = report.clone();
        bad.cluster.weak[0].nodes = 3;
        let err = validate_fleet_artefact(&fleet_artefact(&cfg, &bad).render())
            .expect_err("node mismatch");
        assert!(err.contains("disagrees"), "{err}");

        // A negative efficiency is unphysical for these models.
        let mut bad = report.clone();
        bad.cluster.strong[1].efficiency = -0.5;
        let err = validate_fleet_artefact(&fleet_artefact(&cfg, &bad).render())
            .expect_err("efficiency bound");
        assert!(err.contains("efficiency"), "{err}");

        // The baseline point is measured against itself: efficiency 1.
        let mut bad = report;
        bad.cluster.weak[0].efficiency = 0.9;
        let err = validate_fleet_artefact(&fleet_artefact(&cfg, &bad).render())
            .expect_err("baseline efficiency");
        assert!(err.contains("baseline"), "{err}");
    }
}
