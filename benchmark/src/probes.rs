//! Traced-run probes: each times calls into one layer's public functions
//! on a seeded grid of distinct keys, after the workload has finished.
//! A probe only fills in a per-layer value the workload did not measure
//! itself (see `Outcome::layer`).

use crate::keys::{self, Key};
use crate::rng::Rng;
use crate::trace::Open;
use crate::{serve, sweep, Ctx, Outcome};
use rvhpc::compiler::codegen::{self, VectorMode};
use rvhpc::kernels::KernelName;
use rvhpc::machines::{machine, Machine, MachineId};
use rvhpc::perfmodel::{cache, estimate_averaged, estimate_cached, persist, RunConfig};
use rvhpc::rvv::{Dialect, Sew};
use rvhpc::threads::global_team;
use rvhpc_serve::protocol::{estimate_json, ok_response, parse_request};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Distinct keys in the probe grid.
pub const GRID: usize = 4096;

/// Each timed loop repeats until it has run at least this long.
const MIN_PROBE: Duration = Duration::from_millis(150);

/// Passes timed for the per-experiment split on serve workloads.
const PROBE_PASSES: usize = 50;

/// Seconds of closed-loop load for the stage split on sweep workloads.
const STAGE_PROBE_S: f64 = 1.0;

/// Persistent-store operations timed, each on its own new entry.
const STORE_REPS: usize = 20;

/// Time one call of `body` under a span named `span`.
fn timed(ctx: &Ctx, span: &'static str, body: impl FnOnce()) -> Duration {
    let t = Instant::now();
    body();
    let end = Instant::now();
    ctx.tracer.span(span, t, end, Open::ROOT, None);
    end - t
}

/// Repeat `body` (one run over `items` items) until [`MIN_PROBE`] has
/// passed; returns nanoseconds per item.
fn per_item_ns(ctx: &Ctx, span: &'static str, items: usize, mut body: impl FnMut()) -> f64 {
    let (mut total, mut reps) = (Duration::ZERO, 0u32);
    while total < MIN_PROBE || reps < 3 {
        total += timed(ctx, span, &mut body);
        reps += 1;
    }
    total.as_nanos() as f64 / f64::from(reps) / items as f64
}

type Resolved = (Machine, KernelName, RunConfig);

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    if !out.layers.contains_key("core.pass_ms") {
        sweep::pass_probe(ctx, PROBE_PASSES, out);
    }
    if !out.layers.contains_key("serve.client_us") {
        serve::stage_probe(ctx.seed, STAGE_PROBE_S, out)?;
    }

    // GRID distinct seeded keys, plus spares for the store probe.
    let pool = keys::open_pool();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    Rng::new(ctx.seed).fork(0x9e1d).shuffle(&mut order);
    let chosen: Vec<Key> = order.iter().take(GRID + STORE_REPS).map(|&i| pool[i]).collect();
    let resolved = chosen.iter().map(Key::resolve).collect::<Result<Vec<Resolved>, _>>()?;
    let (grid, spare) = resolved.split_at(GRID);

    persist::set_cache_dir(None);
    let estimate_ns = per_item_ns(ctx, "probe.estimate", GRID, || {
        for (m, k, c) in grid {
            black_box(estimate_averaged(m, *k, c));
        }
    });
    out.layer("perfmodel.estimate_ns", estimate_ns);
    let lookups = |grid: &[Resolved]| {
        for (m, k, c) in grid {
            black_box(estimate_cached(m, *k, c));
        }
    };
    let miss_ns = per_item_ns(ctx, "probe.cache_miss", GRID, || {
        cache::clear();
        lookups(grid);
    });
    out.layer("perfmodel.cache.miss_ns", miss_ns);
    out.layer("perfmodel.cache.miss_overhead_ns", miss_ns - estimate_ns);
    lookups(grid);
    out.layer(
        "perfmodel.cache.hit_ns",
        per_item_ns(ctx, "probe.cache_hit", GRID, || lookups(grid)),
    );

    // The persistent store, holding the grid: a flush of one new entry
    // rewrites the whole file; a reload reads it back; disk hits serve an
    // emptied memory cache from it.
    let dir = ctx.scratch.join("probe-store");
    persist::set_cache_dir(Some(dir.clone()));
    cache::clear();
    lookups(grid);
    let mut flush = Duration::ZERO;
    for (m, k, c) in spare {
        black_box(estimate_cached(m, *k, c));
        flush += timed(ctx, "probe.persist_flush", persist::flush);
    }
    out.layer("perfmodel.persist.flush_ms", flush.as_secs_f64() * 1e3 / STORE_REPS as f64);
    let load: Duration = (0..STORE_REPS)
        .map(|_| timed(ctx, "probe.persist_load", || persist::set_cache_dir(Some(dir.clone()))))
        .sum();
    out.layer("perfmodel.persist.load_ms", load.as_secs_f64() * 1e3 / STORE_REPS as f64);
    let disk_ns = per_item_ns(ctx, "probe.persist_disk_hit", GRID, || {
        cache::clear();
        lookups(grid);
    });
    out.layer("perfmodel.persist.disk_hit_ns", disk_ns);
    persist::set_cache_dir(None);

    rvv_probe(ctx, out);

    let fanout_ns = per_item_ns(ctx, "probe.fanout", 1, || {
        global_team().parallel_for_worksteal(0..64, |i| {
            black_box(i);
        });
    });
    out.layer("threads.fanout_us", fanout_ns / 1e3);
    let machine_ns = per_item_ns(ctx, "probe.machine", MachineId::ALL.len(), || {
        for id in MachineId::ALL {
            black_box(machine(id));
        }
    });
    out.layer("machines.machine_ns", machine_ns);

    let lines: Vec<String> =
        chosen[..GRID].iter().enumerate().map(|(i, k)| k.line(i as u64)).collect();
    let parse_ns = per_item_ns(ctx, "probe.parse", GRID, || {
        for l in &lines {
            let _ = black_box(parse_request(l));
        }
    });
    out.layer("serve.parse_ns", parse_ns);
    let replies: Vec<_> = lines
        .iter()
        .zip(grid)
        .map(|(l, (m, k, c))| (parse_request(l).0, estimate_averaged(m, *k, c)))
        .collect();
    let render_ns = per_item_ns(ctx, "probe.render", GRID, || {
        for (id, est) in &replies {
            black_box(ok_response(id, "estimate", estimate_json(est)));
        }
    });
    out.layer("serve.render_ns", render_ns);
    Ok(())
}

/// Generate and interpret every codegen kernel in both vector modes and
/// both element widths, on the `compiler::codegen::measure` problem size;
/// the time covers `codegen::generate` and `rvv::Machine::run`.
fn rvv_probe(ctx: &Ctx, out: &mut Outcome) {
    const N: usize = 4096;
    let cases: Vec<(KernelName, VectorMode, Sew)> = codegen::SUPPORTED
        .iter()
        .flat_map(|&k| {
            [VectorMode::Vla, VectorMode::Vls]
                .into_iter()
                .flat_map(move |m| [Sew::E32, Sew::E64].into_iter().map(move |s| (k, m, s)))
        })
        .collect();
    let (mut executed, mut runs, mut busy) = (0u64, 0u32, Duration::ZERO);
    per_item_ns(ctx, "probe.rvv", cases.len(), || {
        for &(kernel, mode, sew) in &cases {
            let mut m = rvhpc::rvv::Machine::new(Dialect::V10, 16 * 1024 + N * sew.bytes() * 6);
            codegen::setup_machine(&mut m, kernel, sew, N);
            let t = Instant::now();
            let Some(program) = codegen::generate(kernel, mode, sew) else { continue };
            if m.run(&program, 10_000_000).is_ok() {
                executed += m.executed;
            }
            busy += t.elapsed();
            runs += 1;
        }
    });
    out.layer("rvv.run_us", busy.as_secs_f64() * 1e6 / f64::from(runs));
    out.layer("rvv.minst_per_s", executed as f64 / busy.as_secs_f64() / 1e6);
}
