//! The rvhpc benchmark: one workload per run, end-to-end metrics when
//! untraced and a per-layer breakdown when traced, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sweep_cold|sweep_warm|serve_hot|serve_miss|serve_open> \
//!     --seed <n> [--seconds <s>] [--trace <0|1>] [--json <results.jsonl>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output is the result object; the exit
//! status is 0 when every output was correct, 1 when one was not, and 2
//! on a usage or set-up error. See `benchmark/README.md`.

mod calib;
mod clock;
mod compare;
mod json;
mod keys;
mod poll;
mod probes;
mod record;
mod rng;
mod serve;
mod stats;
mod sweep;
mod trace;

use json::Json;
use record::{Metric, Record};
use rvhpc::experiments::driver::EXPERIMENTS;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: rvhpc-benchmark --workload <sweep_cold|sweep_warm|serve_hot|serve_miss|serve_open> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--json <results.jsonl>]
       rvhpc-benchmark --compare <A.jsonl> <B.jsonl>";

/// Measured seconds when `--seconds` is not given (the run length
/// `BENCHMARK.json` sets).
const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups timed per untraced run: this process's own, plus fresh
/// child processes that set up and exit, half of them before the
/// measured phase and half after, so the samples span the run.
/// `setup_s` is their median, each scaled where
/// [`Workload::setup_scaled`] says so.
const SETUP_SAMPLES: usize = 9;

/// Where runs leave trace files and scratch state, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepCold,
    SweepWarm,
    ServeHot,
    ServeMiss,
    /// Not listed in `BENCHMARK.json`, and run by hand: its open-loop
    /// latency repeats only while the host's other tenants leave it alone
    /// (see the README).
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::ServeHot,
        Workload::ServeMiss,
        Workload::ServeOpen,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::ServeHot => "serve_hot",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeOpen => "serve_open",
        }
    }

    /// The percentile `run.lat_tail_us` reports: p99 where a 20 s run
    /// gives well over 1000 samples, p95 for the ~40 ms cold passes (~500
    /// per run), so at least 10 samples lie beyond it either way.
    fn tail_q(self) -> f64 {
        match self {
            Workload::SweepCold => 0.95,
            _ => 0.99,
        }
    }

    /// `op_time_us`: for the sweeps, the median over passes of each
    /// pass's CPU time scaled by the reference work timed before it (see
    /// `calib`); for the serve workloads, the median request latency.
    ///
    /// On a shared host the CPU's speed drifts by 20–60% over tens of
    /// seconds, so no statistic of raw pass times repeats from run to run.
    /// Request latency is mostly the batch window, a timer, and is
    /// reported as measured.
    fn op_time(self, out: &Outcome) -> f64 {
        match self {
            Workload::SweepCold | Workload::SweepWarm => {
                calib::scaled_median(&out.pass_cpu_us, &out.reference_cpu_us)
            }
            Workload::ServeHot | Workload::ServeMiss | Workload::ServeOpen => {
                stats::median(&out.op_us)
            }
        }
    }

    /// Whether `setup_s` is scaled by the reference work timed just after
    /// set-up (see `calib`): yes where set-up is CPU work, whose time
    /// drifts with the host's speed as pass times do. `serve_hot`'s set-up
    /// is mostly 180 requests waiting out the batch window one after
    /// another, a timer; scaling it would add the drift, not remove it.
    fn setup_scaled(self) -> bool {
        self != Workload::ServeHot
    }
}

/// What every workload needs to know about the run.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    /// A private directory for files the run writes; removed at exit.
    pub scratch: &'a Path,
}

/// What one workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Operations (passes or requests) that completed correctly.
    pub ok_ops: u64,
    pub measured_s: f64,
    /// Per-operation latency samples in microseconds; `+inf` for one
    /// that failed or was refused.
    pub op_us: Vec<f64>,
    /// Sweeps only: each pass's CPU time, and that of the reference work
    /// timed just before it, in microseconds.
    pub pass_cpu_us: Vec<f64>,
    pub reference_cpu_us: Vec<f64>,
    pub tail_q: f64,
    pub layers: BTreeMap<String, f64>,
    pub detail: Vec<(String, Json)>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new(ctx: &Ctx) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            ok_ops: 0,
            measured_s: 0.0,
            op_us: Vec::new(),
            pass_cpu_us: Vec::new(),
            reference_cpu_us: Vec::new(),
            tail_q: ctx.workload.tail_q(),
            layers: BTreeMap::new(),
            detail: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Record a per-layer value. The first value recorded under a name
    /// wins, so probes run after the workload only fill in what the
    /// workload did not measure.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.entry(name.into()).or_insert(value);
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    pub fn detail_num(&mut self, key: &str, value: f64) {
        self.detail(key, Json::Num(value));
    }

    /// `trace.overhead_frac`: how much longer the traced half of the
    /// operations took than the untraced half, on average.
    pub fn overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        self.layer("trace.overhead_frac", stats::mean(traced) / stats::mean(untraced) - 1.0);
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("op_time_us", "us")];

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut m = fixed(&[
        ("run.ops_per_s", "1/s"),
        ("run.lat_p50_us", "us"),
        ("run.lat_tail_us", "us"),
        ("perfmodel.cache.hit_rate", "ratio"),
        ("perfmodel.cache.misses_per_op", "count"),
        ("perfmodel.cache.evictions_per_op", "count"),
        ("serve.batch_size_mean", "count"),
        ("serve.batches_per_s", "1/s"),
        ("serve.client_us", "us"),
        ("serve.admission_us", "us"),
        ("serve.queue_wait_us", "us"),
        ("serve.batch_window_us", "us"),
        ("serve.compute_us", "us"),
        ("serve.write_back_us", "us"),
        ("serve.transport_us", "us"),
    ]);
    m.extend(EXPERIMENTS.iter().map(|e| (format!("core.{}_ms", e.name), "ms")));
    m.extend(fixed(&[
        ("core.pass_ms", "ms"),
        ("perfmodel.estimate_ns", "ns"),
        ("perfmodel.cache.miss_ns", "ns"),
        ("perfmodel.cache.miss_overhead_ns", "ns"),
        ("perfmodel.cache.hit_ns", "ns"),
        ("perfmodel.persist.flush_ms", "ms"),
        ("perfmodel.persist.load_ms", "ms"),
        ("perfmodel.persist.disk_hit_ns", "ns"),
        ("rvv.run_us", "us"),
        ("rvv.minst_per_s", "Minst/s"),
        ("threads.fanout_us", "us"),
        ("machines.machine_ns", "ns"),
        ("serve.parse_ns", "ns"),
        ("serve.render_ns", "ns"),
        ("trace.overhead_frac", "ratio"),
    ]));
    m
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    setup_only: bool,
}

enum Command {
    Run(Opts),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("--compare takes two result files".into()),
        };
    }
    let (mut workload, mut seed, mut seconds) = (None, 1u64, DEFAULT_SECONDS);
    let (mut trace, mut json, mut setup_only) = (false, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Opts { workload, seed, seconds, trace, json, setup_only }))
}

/// A workload after set-up, ready to measure.
enum Prepared {
    Sweep(sweep::Sweep),
    Closed(serve::Closed),
    Open(serve::OpenLoop),
}

impl Prepared {
    fn setup(ctx: &Ctx) -> Result<Prepared, String> {
        Ok(match ctx.workload {
            Workload::SweepCold => Prepared::Sweep(sweep::Sweep::setup(ctx, false)?),
            Workload::SweepWarm => Prepared::Sweep(sweep::Sweep::setup(ctx, true)?),
            Workload::ServeHot => Prepared::Closed(serve::Closed::hot()?),
            Workload::ServeMiss => Prepared::Closed(serve::Closed::miss(ctx.seed)?),
            Workload::ServeOpen => Prepared::Open(serve::OpenLoop::setup(ctx.seed)?),
        })
    }

    fn measure(self, ctx: &Ctx) -> Outcome {
        match self {
            Prepared::Sweep(s) => s.measure(ctx),
            Prepared::Closed(c) => c.measure(ctx),
            Prepared::Open(o) => o.measure(ctx),
        }
    }

    fn discard(self) {
        match self {
            Prepared::Sweep(_) => {}
            Prepared::Closed(c) => c.stop(),
            Prepared::Open(o) => o.stop(),
        }
    }
}

/// A directory under [`OUT_DIR`] for this process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up times of fresh processes, as `(setup_s, unscaled seconds)`: this
/// binary re-run with `--setup-only`, one after another, each waited for.
fn child_setups(o: &Opts, n: usize) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    o.workload.name(),
                    "--seed",
                    &o.seed.to_string(),
                    "--setup-only",
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run a set-up process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| {
                    let (scaled, raw) = v.split_once(' ')?;
                    Some((scaled.parse().ok()?, raw.parse().ok()?))
                })
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("set-up process failed: {}", out.status))
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare(a, b)) => {
            ExitCode::from(compare::run(Path::new("BENCHMARK.json"), &a, &b))
        }
        Ok(Command::Run(o)) => match run(&o, start) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("benchmark error: {e}");
                ExitCode::from(2)
            }
        },
    }
}

fn run(o: &Opts, start: Instant) -> Result<u8, String> {
    let scratch = Scratch::new().map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let tracer = Tracer::new(o.trace);
    let ctx = Ctx {
        workload: o.workload,
        seed: o.seed,
        seconds: o.seconds,
        tracer: &tracer,
        scratch: &scratch.0,
    };
    let prepared = Prepared::setup(&ctx)?;
    let raw_setup_s = start.elapsed().as_secs_f64();
    let setup_s = if o.workload.setup_scaled() {
        calib::scaled(raw_setup_s, calib::reference_wall_us())
    } else {
        raw_setup_s
    };
    if o.setup_only {
        prepared.discard();
        println!("setup_s {setup_s} {raw_setup_s}");
        return Ok(0);
    }
    let mut setups = vec![(setup_s, raw_setup_s)];
    let children = if o.trace { 0 } else { SETUP_SAMPLES - 1 };
    setups.extend(child_setups(o, children / 2)?);
    let mut out = prepared.measure(&ctx);
    setups.extend(child_setups(o, children - children / 2)?);
    let lat = stats::sorted(out.op_us.clone());
    out.layer("run.ops_per_s", out.ok_ops as f64 / out.measured_s);
    out.layer("run.lat_p50_us", stats::percentile(&lat, 0.5));
    out.layer("run.lat_tail_us", stats::percentile(&lat, out.tail_q));
    out.detail_num("latency_samples", lat.len() as f64);
    out.detail_num("tail_percentile", out.tail_q * 100.0);
    out.detail("tail_supported", Json::Bool(stats::tail_supported(lat.len(), out.tail_q)));
    if o.trace {
        probes::run(&ctx, &mut out)?;
    }

    let metrics: Vec<Metric> = if o.trace {
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = out.layers.get(&name).copied().unwrap_or(f64::NAN);
                Metric { name, value, unit: unit.into() }
            })
            .collect()
    } else {
        let (scaled, raw): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
        out.detail("setup_samples_s", Json::Arr(scaled.iter().map(|&s| Json::Num(s)).collect()));
        out.detail("setup_raw_samples_s", Json::Arr(raw.into_iter().map(Json::Num).collect()));
        let values = [stats::median(&scaled), peak_rss_mb(), o.workload.op_time(&out)];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit: unit.into() })
            .collect()
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric `{}` was not measured (value {})", m.name, m.value));
    }

    out.detail_num("measured_s", out.measured_s);
    out.detail_num("ok_ops", out.ok_ops as f64);
    out.detail("layers", Json::obj(out.layers.iter().map(|(k, &v)| (k.clone(), Json::Num(v)))));
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    let record = Record {
        workload: o.workload.name().into(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        correct: out.failed == 0 && out.problems.is_empty(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
        detail: Json::obj(out.detail.clone()),
    };

    println!(
        "# {} seed={} seconds={} trace={}",
        record.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    for m in &record.metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if !o.trace {
        for (name, value) in &out.layers {
            println!("  counter {name:<32} {value:>14.6}");
        }
    }
    println!(
        "# checks: {} attempted, {} failed, correct={}",
        record.attempted, record.failed, record.correct
    );
    if o.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", o.workload.name(), o.seed));
        std::fs::write(&path, tracer.chrome_json().render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# chrome trace: {}", path.display());
    }
    if let Some(path) = &o.json {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.to_json().render()))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{}", record.result_line());
    Ok(u8::from(!record.correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this program prints are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_the_benchmark_description() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("readable")).expect("JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("no `{key}`") };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        assert_eq!(listed("end_to_end"), ours(e2e));
        assert_eq!(listed("per_layer"), ours(per_layer_metrics()));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("no workloads") };
        let names: Vec<&str> = workloads.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL
            .into_iter()
            .filter(|&w| w != Workload::ServeOpen)
            .map(Workload::name)
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Command::Run(o)) = parse_args(&args(
            "--workload serve_open --seed 7 --seconds 10 --trace 1 --json r.jsonl",
        )) else {
            panic!("should parse");
        };
        assert_eq!((o.workload, o.seed, o.seconds, o.trace), (Workload::ServeOpen, 7, 10.0, true));
        assert!(matches!(parse_args(&args("--compare a b")), Ok(Command::Compare(..))));
        for bad in
            ["", "--workload nope", "--workload serve_hot --trace 2", "--seed 1", "--compare a"]
        {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
