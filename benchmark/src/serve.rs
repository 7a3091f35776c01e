//! The serve workloads: an in-process `Server` with the default
//! configuration, driven over real TCP connections.
//!
//! Load comes from [`CONNECTIONS`] client threads, one connection each;
//! the `stats` and `metrics` snapshots around the measured phase travel
//! on the first connection while no load runs. Every reply is checked
//! after the run, once per distinct key, against the uncached model.

use crate::json::Json;
use crate::keys::{self, Bits, Key};
use crate::poll;
use crate::rng::Rng;
use crate::stats::{self, Timed};
use crate::trace::{Open, Tracer};
use crate::{Ctx, Outcome};
use rvhpc::perfmodel::{cache, estimate_cached, persist};
use rvhpc_serve::{ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client connections, each driven by its own thread: one per core of
/// the 2-core machine the benchmark was calibrated on.
pub const CONNECTIONS: usize = 2;

/// The open-loop ladder: total offered rates, split evenly over the
/// connections, each held for a quarter of the run.
pub const LADDER_RPS: [f64; 4] = [3000.0, 12000.0, 24000.0, 32000.0];

/// How long the open loop waits for replies after the last send.
const GRACE: Duration = Duration::from_secs(2);

/// A closed-loop request waits at most this long for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What an estimate reply said.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// A result, as exact bits.
    Ok(Bits),
    /// `overloaded`: refused at admission.
    Refused,
    /// Any other error reply.
    Error,
    /// Not a well-formed estimate reply.
    Malformed,
    /// A result whose bits differ from the model's.
    Wrong,
    /// No reply arrived.
    Missing,
}

/// Parse one reply line into its id and what it says.
pub fn parse_reply(line: &str) -> (Option<u64>, Reply) {
    let Ok(doc) = Json::parse(line) else { return (None, Reply::Malformed) };
    let id = doc.get("id").and_then(Json::as_f64).map(|f| f as u64);
    let reply = match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let field = |k: &str| doc.at(&["result", k]).and_then(Json::as_f64).map(f64::to_bits);
            let vector = doc.at(&["result", "vector_path"]).and_then(Json::as_bool);
            let is_estimate = doc.get("op").and_then(Json::as_str) == Some("estimate");
            match (
                field("seconds"),
                field("compute_seconds"),
                field("memory_seconds"),
                field("overhead_seconds"),
                vector,
            ) {
                (Some(a), Some(b), Some(c), Some(d), Some(v)) if is_estimate => {
                    Reply::Ok(([a, b, c, d], v))
                }
                _ => Reply::Malformed,
            }
        }
        Some(false) => match doc.at(&["error", "kind"]).and_then(Json::as_str) {
            Some("overloaded") => Reply::Refused,
            _ => Reply::Error,
        },
        None => Reply::Malformed,
    };
    (id, reply)
}

/// Check every `Ok` reply against the model, once per distinct key;
/// a reply that differs becomes [`Reply::Wrong`]. Returns messages for
/// the keys that disagreed.
fn verify<'a>(pool: &[Key], replies: impl Iterator<Item = (u32, &'a mut Reply)>) -> Vec<String> {
    let mut expected: HashMap<u32, Result<Bits, String>> = HashMap::new();
    let mut problems = Vec::new();
    for (key, reply) in replies {
        let Reply::Ok(got) = *reply else { continue };
        let want = expected
            .entry(key)
            .or_insert_with(|| pool[key as usize].expected().map(|e| keys::bits(&e)));
        if want.as_ref().ok() != Some(&got) {
            *reply = Reply::Wrong;
            if problems.len() < 10 {
                problems.push(format!(
                    "reply differs from the model for {}",
                    pool[key as usize].line(0)
                ));
            }
        }
    }
    problems
}

/// One line per kind of failed reply among `failed`, for the report.
fn failure_kinds<'a>(failed: impl Iterator<Item = &'a Reply>) -> Vec<String> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in failed {
        let kind = match r {
            Reply::Ok(_) => "correct",
            Reply::Refused => "refused",
            Reply::Error => "error",
            Reply::Malformed => "malformed",
            Reply::Wrong => "wrong",
            Reply::Missing => "missing",
        };
        *counts.entry(kind).or_default() += 1;
    }
    counts.into_iter().map(|(kind, n)| format!("{n} failed requests: {kind} reply")).collect()
}

/// A client connection with a line buffer; `buf[start..]` is unread.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), start: 0 })
    }

    /// One complete line from the buffer, if there is one.
    fn take_line(&mut self) -> Option<String> {
        let end = self.start + self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
        self.start = end + 1;
        Some(line)
    }

    /// Read what the socket has (blocking until something arrives).
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Send one request line and wait for its reply.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        self.read_line()
    }

    /// A control op's `result` object.
    fn control(&mut self, op: &str) -> Result<Json, String> {
        let reply =
            self.call(&format!(r#"{{"id":"{op}","op":"{op}"}}"#)).map_err(|e| e.to_string())?;
        let doc = Json::parse(&reply)?;
        doc.get("result").cloned().ok_or_else(|| format!("`{op}` failed: {reply}"))
    }
}

/// The server plus the client connections.
struct Running {
    server: Server,
    conns: Vec<Conn>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() };
        let server = Server::start(config).map_err(|e| format!("server did not start: {e}"))?;
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Running { server, conns })
    }

    fn snapshot(&mut self) -> Result<Snapshot, String> {
        let stats = self.conns[0].control("stats")?;
        let metrics = self.conns[0].control("metrics")?;
        Ok(Snapshot { stats, metrics })
    }

    /// Drain the server and wait for all its threads.
    fn stop(self) {
        self.server.shutdown();
        drop(self.conns);
        self.server.join();
    }
}

/// `stats` and `metrics` results taken together.
struct Snapshot {
    stats: Json,
    metrics: Json,
}

/// The server's five stages, in request order.
const STAGES: [&str; 5] = ["admission", "queue_wait", "batch_window", "compute", "write_back"];

impl Snapshot {
    fn num(&self, path: &[&str]) -> f64 {
        self.stats.at(path).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    /// Summed time of one stage since process start, in microseconds.
    fn stage_sum_us(&self, stage: &str) -> f64 {
        let s = self.metrics.at(&["stages", &format!("serve.{stage}")]);
        let f = |k| s.and_then(|s| s.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
        f("count") * f("mean_us")
    }
}

/// Per-layer values from the server's counters and stage histograms over
/// the measured phase: `requests` answered, with the client's mean
/// send→reply latency `client_mean_us`, over `seconds`.
fn server_layers(
    out: &mut Outcome,
    a: &Snapshot,
    b: &Snapshot,
    requests: usize,
    client_mean_us: f64,
    seconds: f64,
) {
    let d = |path: &[&str]| b.num(path) - a.num(path);
    let batches = d(&["server", "batches"]);
    out.layer("serve.batch_size_mean", d(&["server", "batch_items"]) / batches);
    out.layer("serve.batches_per_s", batches / seconds);
    let (hits, misses) = (d(&["estimate_cache", "hits"]), d(&["estimate_cache", "misses"]));
    let per_op = |n: f64| n / requests.max(1) as f64;
    out.layer("perfmodel.cache.hit_rate", hits / (hits + misses));
    out.layer("perfmodel.cache.misses_per_op", per_op(misses));
    out.layer("perfmodel.cache.evictions_per_op", per_op(d(&["estimate_cache", "evictions"])));
    let sums: Vec<(&'static str, f64)> =
        STAGES.iter().map(|&s| (s, b.stage_sum_us(s) - a.stage_sum_us(s))).collect();
    for (stage, us) in stats::stage_split(&sums, requests, client_mean_us) {
        out.layer(format!("serve.{stage}_us"), us);
    }
    out.layer("serve.client_us", client_mean_us);
}

/// One closed-loop request.
struct Sample {
    key: u32,
    lat_us: f64,
    reply: Reply,
    traced: bool,
}

/// Send, wait for the reply, repeat, until `deadline`.
fn closed_loop(
    conn: &mut Conn,
    pool: &[Key],
    mut rng: Rng,
    deadline: Instant,
    tracer: &Tracer,
    conn_no: u64,
) -> Vec<Sample> {
    conn.stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("a non-zero timeout is valid");
    let span = tracer.open("serve.connection", Instant::now(), Open::ROOT, None);
    let mut samples = Vec::new();
    let mut line = String::new();
    let mut id = 0u64;
    while Instant::now() < deadline {
        let key = rng.below(pool.len());
        line.clear();
        pool[key].write_line(id, &mut line);
        line.push('\n');
        // Traced runs trace every other request, so the two halves give
        // the tracing overhead.
        let traced = tracer.enabled() && id.is_multiple_of(2);
        let t = Instant::now();
        let got = conn.stream.write_all(line.as_bytes()).and_then(|()| conn.read_line());
        let end = Instant::now();
        let reply = match &got {
            Ok(text) => match parse_reply(text) {
                (Some(rid), reply) if rid == id => reply,
                _ => Reply::Malformed,
            },
            Err(_) => Reply::Missing,
        };
        if traced {
            tracer.span("serve.request", t, end, span, Some(conn_no << 40 | id));
        }
        let lat_us = (end - t).as_secs_f64() * 1e6;
        samples.push(Sample { key: key as u32, lat_us, reply, traced });
        id += 1;
        if got.is_err() {
            break;
        }
    }
    tracer.close(span, Instant::now());
    samples
}

fn ok(r: &Reply) -> bool {
    matches!(r, Reply::Ok(_))
}

/// The closed loops: serve_hot over the 180-key pool, all cache hits, and
/// serve_miss over ~212k canonical keys on a full estimate cache.
pub struct Closed {
    run: Running,
    pool: Vec<Key>,
}

impl Closed {
    /// serve_hot: start the server and warm the whole pool through it, so
    /// every measured request is a cache hit.
    pub fn hot() -> Result<Closed, String> {
        persist::set_cache_dir(None);
        let pool = keys::hot_pool();
        let mut run = Running::start()?;
        for (i, key) in pool.iter().enumerate() {
            let reply = run.conns[0].call(&key.line(i as u64)).map_err(|e| e.to_string())?;
            if !ok(&parse_reply(&reply).1) {
                return Err(format!("warm-up request failed: {reply}"));
            }
        }
        Ok(Closed { run, pool })
    }

    /// serve_miss: fill the estimate cache (see [`full_cache_pool`]) and
    /// start the server.
    pub fn miss(seed: u64) -> Result<Closed, String> {
        let pool = full_cache_pool(seed)?;
        Ok(Closed { run: Running::start()?, pool })
    }

    pub fn stop(self) {
        self.run.stop();
    }

    /// Every connection's closed loop, each on its own thread, for
    /// `seconds`; returns all samples and the elapsed time.
    fn drive(&mut self, rng: &Rng, seconds: f64, tracer: &Tracer) -> (Vec<Sample>, f64) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let pool = &self.pool;
        let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let handles: Vec<_> = (self.run.conns.iter_mut().enumerate())
                .map(|(c, conn)| {
                    let rng = rng.fork(c as u64);
                    s.spawn(move || closed_loop(conn, pool, rng, deadline, tracer, c as u64))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        (per_conn.into_iter().flatten().collect(), start.elapsed().as_secs_f64())
    }

    pub fn measure(mut self, ctx: &Ctx) -> Outcome {
        let mut out = Outcome::new(ctx);
        let before = self.run.snapshot();
        let (mut samples, elapsed) =
            self.drive(&Rng::new(ctx.seed).fork(0x4077), ctx.seconds, ctx.tracer);
        out.measured_s = elapsed;
        let after = self.run.snapshot();
        self.run.stop();
        out.problems = verify(&self.pool, samples.iter_mut().map(|s| (s.key, &mut s.reply)));
        out.attempted = samples.len() as u64;
        out.ok_ops = samples.iter().filter(|s| ok(&s.reply)).count() as u64;
        out.failed = out.attempted - out.ok_ops;
        out.problems.extend(failure_kinds(samples.iter().map(|s| &s.reply).filter(|r| !ok(r))));
        out.op_us =
            samples.iter().map(|s| if ok(&s.reply) { s.lat_us } else { f64::INFINITY }).collect();
        let ok_lat: Vec<f64> = samples.iter().filter(|s| ok(&s.reply)).map(|s| s.lat_us).collect();
        match (before, after) {
            (Ok(a), Ok(b)) => {
                let seconds = out.measured_s;
                server_layers(&mut out, &a, &b, ok_lat.len(), stats::mean(&ok_lat), seconds)
            }
            (Err(e), _) | (_, Err(e)) => out.problems.push(e),
        }
        if ctx.tracer.enabled() {
            let half = |traced: bool| -> Vec<f64> {
                samples
                    .iter()
                    .filter(|s| s.traced == traced && ok(&s.reply))
                    .map(|s| s.lat_us)
                    .collect()
            };
            out.overhead(&half(true), &half(false));
        }
        out
    }
}

/// The server stage split under `seconds` of closed-loop hits, for runs
/// whose workload sends no requests.
pub fn stage_probe(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut hot = Closed::hot()?;
    let before = hot.run.snapshot()?;
    let (samples, elapsed) = hot.drive(&Rng::new(seed).fork(0x960be), seconds, &Tracer::new(false));
    let after = hot.run.snapshot()?;
    hot.run.stop();
    let lat: Vec<f64> = samples.iter().filter(|s| ok(&s.reply)).map(|s| s.lat_us).collect();
    server_layers(out, &before, &after, lat.len(), stats::mean(&lat), elapsed);
    Ok(())
}

/// One open-loop request.
struct OpenRec {
    t: Timed,
    key: u32,
    step: u8,
    reply: Reply,
    traced: bool,
}

/// The ladder's steps as `(rate, start_ns, end_ns)` from the ladder start.
fn ladder(seconds: f64) -> Vec<(f64, u64, u64)> {
    let step_ns = (seconds / LADDER_RPS.len() as f64 * 1e9) as u64;
    LADDER_RPS
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i as u64 * step_ns, (i as u64 + 1) * step_ns))
        .collect()
}

/// One connection's share of the schedule: Poisson arrivals at
/// `rate / CONNECTIONS` per second in each step. Arrivals are independent
/// of each other, as from many users; a fixed comb of send times would
/// instead lock into the batch window and split latencies into two
/// modes whose boundary the median flips across.
fn schedule(steps: &[(f64, u64, u64)], pool: usize, rng: &mut Rng) -> Vec<OpenRec> {
    let mut recs = Vec::new();
    for (step, &(rate, start, end)) in steps.iter().enumerate() {
        let mean_gap_ns = 1e9 * CONNECTIONS as f64 / rate;
        let mut due = start as f64;
        loop {
            due += rng.exp(mean_gap_ns);
            let due_ns = due as u64;
            if due_ns >= end {
                break;
            }
            recs.push(OpenRec {
                t: Timed { due_ns, sent_ns: 0, recv_ns: None, ok: false },
                key: rng.below(pool) as u32,
                step: step as u8,
                reply: Reply::Missing,
                traced: false,
            });
        }
    }
    recs
}

/// Send each request at its due time and time each reply as it arrives,
/// sleeping in `ppoll` in between.
fn open_loop(
    conn: &mut Conn,
    recs: &mut [OpenRec],
    pool: &[Key],
    t0: Instant,
    tracer: &Tracer,
    conn_no: u64,
) {
    poll::tighten_timer_slack();
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    let ns = || t0.elapsed().as_nanos() as u64;
    let hard_end = recs.last().map_or(0, |r| r.t.due_ns) + GRACE.as_nanos() as u64;
    let span = tracer.open("serve.connection", Instant::now(), Open::ROOT, None);
    let (mut next, mut outstanding) = (0usize, 0usize);
    let mut out = String::new();
    loop {
        let now = ns();
        if next < recs.len() && recs[next].t.due_ns <= now {
            out.clear();
            while next < recs.len() && recs[next].t.due_ns <= now {
                pool[recs[next].key as usize].write_line(next as u64, &mut out);
                out.push('\n');
                recs[next].t.sent_ns = now;
                // Traced runs trace every other request, so the two
                // halves give the tracing overhead.
                recs[next].traced = tracer.enabled() && next.is_multiple_of(2);
                next += 1;
                outstanding += 1;
            }
            if conn.stream.write_all(out.as_bytes()).is_err() {
                break;
            }
            continue;
        }
        if (next == recs.len() && outstanding == 0) || now >= hard_end {
            break;
        }
        let wake = if next < recs.len() { recs[next].t.due_ns } else { hard_end };
        if !poll::wait_readable(&conn.stream, Duration::from_nanos(wake - now)) {
            continue;
        }
        if conn.fill().is_err() {
            break;
        }
        let recv_ns = ns();
        while let Some(line) = conn.take_line() {
            let (id, reply) = parse_reply(&line);
            let Some(i) = id.filter(|&i| (i as usize) < next) else { continue };
            let rec = &mut recs[i as usize];
            if rec.t.recv_ns.is_some() {
                continue;
            }
            rec.t.recv_ns = Some(recv_ns);
            rec.reply = reply;
            outstanding -= 1;
            if rec.traced {
                let sent = t0 + Duration::from_nanos(rec.t.sent_ns);
                let end = t0 + Duration::from_nanos(recv_ns);
                tracer.span("serve.request", sent, end, span, Some(conn_no << 40 | i));
            }
        }
    }
    tracer.close(span, Instant::now());
}

/// The ~212k-key pool of serve_miss and serve_open, with the estimate
/// cache filled to capacity from it with seeded keys, so the
/// hit/miss/eviction mix is steady from the first request.
fn full_cache_pool(seed: u64) -> Result<Vec<Key>, String> {
    persist::set_cache_dir(None);
    cache::clear();
    let pool = keys::open_pool();
    let mut order: Vec<u32> = (0..pool.len() as u32).collect();
    Rng::new(seed).fork(0xf111).shuffle(&mut order);
    for &i in order.iter().take(cache::capacity()) {
        let (m, kernel, cfg) = pool[i as usize].resolve()?;
        estimate_cached(&m, kernel, &cfg);
    }
    Ok(pool)
}

/// serve_open: the open-loop ladder over ~212k canonical keys on a full
/// estimate cache.
pub struct OpenLoop {
    run: Running,
    pool: Vec<Key>,
}

impl OpenLoop {
    /// Fill the estimate cache (see [`full_cache_pool`]) and start the
    /// server.
    pub fn setup(seed: u64) -> Result<OpenLoop, String> {
        let pool = full_cache_pool(seed)?;
        Ok(OpenLoop { run: Running::start()?, pool })
    }

    pub fn stop(self) {
        self.run.stop();
    }

    pub fn measure(mut self, ctx: &Ctx) -> Outcome {
        let mut out = Outcome::new(ctx);
        let steps = ladder(ctx.seconds);
        let rng = Rng::new(ctx.seed).fork(0x09e7);
        let mut per_conn: Vec<Vec<OpenRec>> = (0..CONNECTIONS)
            .map(|c| schedule(&steps, self.pool.len(), &mut rng.fork(c as u64)))
            .collect();
        let before = self.run.snapshot();
        // Start the ladder just after the threads are up.
        let t0 = Instant::now() + Duration::from_millis(20);
        let pool = &self.pool;
        std::thread::scope(|s| {
            for (c, (conn, recs)) in self.run.conns.iter_mut().zip(per_conn.iter_mut()).enumerate()
            {
                s.spawn(move || open_loop(conn, recs, pool, t0, ctx.tracer, c as u64));
            }
        });
        let after = self.run.snapshot();
        self.run.stop();

        let mut recs: Vec<OpenRec> = per_conn.into_iter().flatten().collect();
        out.problems = verify(&self.pool, recs.iter_mut().map(|r| (r.key, &mut r.reply)));
        for r in &mut recs {
            r.t.ok = ok(&r.reply);
        }
        // Refusals above the reference step are the ladder's verdict, not
        // failures; anything else that is not a correct result is.
        let failed: Vec<&Reply> = recs
            .iter()
            .filter(|r| !(r.t.ok || r.step > 0 && r.reply == Reply::Refused))
            .map(|r| &r.reply)
            .collect();
        out.attempted = recs.len() as u64;
        out.failed = failed.len() as u64;
        out.problems.extend(failure_kinds(failed.into_iter()));
        out.ok_ops = recs.iter().filter(|r| r.t.ok).count() as u64;
        // Goodput over the time the ladder actually took: until its last
        // reply, or its schedule's end if that came later.
        let last_ns =
            recs.iter().filter_map(|r| r.t.recv_ns).chain(steps.last().map(|s| s.2)).max();
        out.measured_s = last_ns.unwrap_or(0) as f64 / 1e9;

        let mut summaries = Vec::new();
        for (i, &(rate, _, end)) in steps.iter().enumerate() {
            let timed: Vec<Timed> =
                recs.iter().filter(|r| r.step as usize == i).map(|r| r.t).collect();
            summaries.push(stats::step_summary(rate, &timed, end));
        }
        out.op_us = recs.iter().filter(|r| r.step == 0).map(|r| r.t.due_latency_us()).collect();
        let late = recs.iter().filter(|r| r.t.lateness_us() > stats::LATE_US).count();
        out.layer("gen.late_frac", late as f64 / recs.len().max(1) as f64);
        out.layer("serve.max_ok_rps", stats::max_ok_rps(&summaries));
        let sent_lat =
            |r: &OpenRec| r.t.recv_ns.map_or(f64::NAN, |t| (t - r.t.sent_ns) as f64 / 1e3);
        let ok_lat: Vec<f64> = recs.iter().filter(|r| r.t.ok).map(sent_lat).collect();
        let seconds = out.measured_s;
        match (before, after) {
            (Ok(a), Ok(b)) => {
                server_layers(&mut out, &a, &b, ok_lat.len(), stats::mean(&ok_lat), seconds)
            }
            (Err(e), _) | (_, Err(e)) => out.problems.push(e),
        }
        if ctx.tracer.enabled() {
            let half = |traced: bool| -> Vec<f64> {
                recs.iter().filter(|r| r.traced == traced && r.t.ok).map(sent_lat).collect()
            };
            out.overhead(&half(true), &half(false));
        }
        out.detail("ladder", Json::Arr(summaries.iter().map(step_json).collect()));
        out
    }
}

fn step_json(s: &stats::Step) -> Json {
    let n = Json::Num;
    Json::obj([
        ("rate_rps", n(s.rate_rps)),
        ("sent", n(s.sent as f64)),
        ("ok", n(s.ok as f64)),
        ("p50_us", n(s.p50_us)),
        ("p99_us", n(s.p99_us)),
        ("p99_supported", Json::Bool(s.p99_supported)),
        ("late_p99_us", n(s.late_p99_us)),
        ("late_frac", n(s.late_frac)),
        ("drain_s", n(s.drain_s)),
        ("meets_limit", Json::Bool(stats::step_meets_limit(s))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_into_bits_refusals_and_errors() {
        let ok = r#"{"id":3,"ok":true,"op":"estimate","result":{"seconds":0.5,"compute_seconds":0.25,"memory_seconds":0.125,"overhead_seconds":0,"vector_path":true}}"#;
        let bits = ([0.5f64.to_bits(), 0.25f64.to_bits(), 0.125f64.to_bits(), 0], true);
        assert_eq!(parse_reply(ok), (Some(3), Reply::Ok(bits)));
        let refused = r#"{"id":4,"ok":false,"error":{"kind":"overloaded","message":"full","retry_after_ms":2}}"#;
        assert_eq!(parse_reply(refused), (Some(4), Reply::Refused));
        let bad = r#"{"id":5,"ok":false,"error":{"kind":"bad_request","message":"x"}}"#;
        assert_eq!(parse_reply(bad), (Some(5), Reply::Error));
        assert_eq!(
            parse_reply(r#"{"id":6,"ok":true,"op":"estimate","result":{}}"#).1,
            Reply::Malformed
        );
        assert_eq!(parse_reply("garbage").1, Reply::Malformed);
    }

    #[test]
    fn schedule_offers_each_steps_rate_in_order() {
        let steps = ladder(8.0);
        assert_eq!(steps[3], (32000.0, 6_000_000_000, 8_000_000_000));
        let recs = schedule(&steps, 10, &mut Rng::new(1));
        for (i, &(rate, start, end)) in steps.iter().enumerate() {
            let dues: Vec<u64> =
                recs.iter().filter(|r| r.step as usize == i).map(|r| r.t.due_ns).collect();
            // One connection's share over 2 s: rate / CONNECTIONS × 2.
            let want = rate / CONNECTIONS as f64 * 2.0;
            assert!((dues.len() as f64 - want).abs() < 0.05 * want, "step {i}: {}", dues.len());
            assert!(dues.iter().all(|&d| (start..end).contains(&d)));
        }
        assert!(recs.windows(2).all(|w| w[0].t.due_ns <= w[1].t.due_ns));
        assert!(recs.iter().all(|r| (r.key as usize) < 10));
        let again = schedule(&steps, 10, &mut Rng::new(1));
        assert!(recs.iter().zip(&again).all(|(a, b)| a.t == b.t && a.key == b.key));
    }
}
