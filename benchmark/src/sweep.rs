//! The sweep workloads: full passes of the paper batch
//! (`driver::EXPERIMENTS`), each artefact rendered with `to_json()` and
//! digested so every pass is checked against the first.
//!
//! The process is bound to one CPU before the pool starts, so the pool
//! has one worker and every pass does the same work the same way; before
//! each pass the reference work is timed on that CPU (see `calib`).

use crate::rng::Rng;
use crate::trace::Open;
use crate::{calib, clock, keys, stats, Ctx, Outcome};
use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};
use rvhpc::perfmodel::{cache, persist};
use std::time::{Duration, Instant};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Run the batch once in `order`; returns each experiment's artefact
/// digest, indexed like `EXPERIMENTS`.
fn pass(ctx: &Ctx, order: &[usize], traced: bool, pass_no: u64) -> Vec<u64> {
    let mut digests = vec![0; EXPERIMENTS.len()];
    let tracer = ctx.tracer;
    let span = if traced {
        tracer.open("pass", Instant::now(), Open::ROOT, Some(pass_no))
    } else {
        Open::ROOT
    };
    for &i in order {
        let e = &EXPERIMENTS[i];
        let start = Instant::now();
        let json = match e.run() {
            Artefact::Figure(f) => f.to_json(),
            Artefact::Table(t) => t.to_json(),
        };
        digests[i] = fnv1a(json.as_bytes());
        if traced {
            tracer.span(e.name, start, Instant::now(), span, None);
        }
    }
    if traced {
        tracer.close(span, Instant::now());
    }
    digests
}

pub struct Sweep {
    warm: bool,
    /// Digests of the first pass in the process; every later pass must
    /// reproduce them.
    reference: Vec<u64>,
    /// Passes during set-up that did not reproduce the reference.
    setup_failures: u64,
}

impl Sweep {
    /// Cold: the first pass in the process, with the persistent store
    /// off. Warm: a cold pass into a fresh persistent store, a flush, a
    /// reload from disk into an empty cache, and a pass served from disk;
    /// the store is then switched off and the measured passes hit memory.
    pub fn setup(ctx: &Ctx, warm: bool) -> Result<Sweep, String> {
        clock::bind_to_one_cpu()?;
        persist::set_cache_dir(None);
        cache::clear();
        let identity: Vec<usize> = (0..EXPERIMENTS.len()).collect();
        if !warm {
            let reference = pass(ctx, &identity, false, 0);
            return Ok(Sweep { warm, reference, setup_failures: 0 });
        }
        let dir = ctx.scratch.join("estimates");
        persist::set_cache_dir(Some(dir.clone()));
        let reference = pass(ctx, &identity, false, 0);
        persist::flush();
        cache::clear();
        persist::set_cache_dir(Some(dir));
        let from_disk = pass(ctx, &identity, false, 0);
        persist::set_cache_dir(None);
        let setup_failures = u64::from(from_disk != reference);
        Ok(Sweep { warm, reference, setup_failures })
    }

    pub fn measure(self, ctx: &Ctx) -> Outcome {
        let mut rng = Rng::new(ctx.seed).fork(0x5eed);
        let mut order: Vec<usize> = (0..EXPERIMENTS.len()).collect();
        let mut out = Outcome::new(ctx);
        out.attempted = self.setup_failures;
        out.failed = self.setup_failures;
        if self.setup_failures > 0 {
            out.problems.push("the pass served from the persistent store differs".into());
        }
        let before = cache::stats();
        let (mut on_us, mut off_us) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(ctx.seconds);
        let (mut passes, mut bad_passes) = (0u64, 0u64);
        while passes == 0 || Instant::now() < deadline {
            rng.shuffle(&mut order);
            if !self.warm {
                cache::clear();
            }
            // Traced runs alternate tracing on and off pass by pass, so
            // the two halves give the tracing overhead.
            let traced = ctx.tracer.enabled() && passes.is_multiple_of(2);
            let ref_start = clock::process_cpu_us();
            std::hint::black_box(calib::reference_work());
            let (t, cpu) = (Instant::now(), clock::process_cpu_us());
            let digests = pass(ctx, &order, traced, passes);
            let us = t.elapsed().as_secs_f64() * 1e6;
            out.pass_cpu_us.push(clock::process_cpu_us() - cpu);
            out.reference_cpu_us.push(cpu - ref_start);
            bad_passes += u64::from(digests != self.reference);
            if traced { &mut on_us } else { &mut off_us }.push(us);
            out.op_us.push(us);
            passes += 1;
        }
        out.measured_s = start.elapsed().as_secs_f64();
        let d = cache::stats().since(&before);
        out.attempted += passes;
        out.failed += bad_passes;
        if bad_passes > 0 {
            out.problems.push(format!("{bad_passes} of {passes} passes changed an artefact"));
        }
        out.ok_ops = passes - bad_passes;
        let per_pass = |n: u64| n as f64 / passes as f64;
        out.layer("perfmodel.cache.hit_rate", d.hit_rate());
        out.layer("perfmodel.cache.misses_per_op", per_pass(d.misses));
        out.layer("perfmodel.cache.evictions_per_op", per_pass(d.evictions));
        out.detail_num("passes", passes as f64);
        out.detail_num("pass_cpu_us_p50", stats::median(&out.pass_cpu_us));
        out.detail_num("reference_cpu_us_p50", stats::median(&out.reference_cpu_us));
        if ctx.tracer.enabled() {
            experiment_layers(ctx, &mut out);
            out.overhead(&on_us, &off_us);
        }
        let (bad, problems) = keys::cache_gate(ctx.seed);
        out.attempted += keys::GATE_KEYS as u64;
        out.failed += bad;
        out.problems.extend(problems);
        out
    }
}

/// Each experiment's mean time in the traced passes, and the mean pass.
fn experiment_layers(ctx: &Ctx, out: &mut Outcome) {
    for e in &EXPERIMENTS {
        let ms = ctx.tracer.mean_us(e.name).unwrap_or(f64::NAN) / 1e3;
        out.layer(format!("core.{}_ms", e.name), ms);
    }
    out.layer("core.pass_ms", ctx.tracer.mean_us("pass").unwrap_or(f64::NAN) / 1e3);
}

/// The per-experiment split over `passes` traced warm passes, for
/// workloads that run no passes of their own.
pub fn pass_probe(ctx: &Ctx, passes: usize, out: &mut Outcome) {
    let identity: Vec<usize> = (0..EXPERIMENTS.len()).collect();
    pass(ctx, &identity, false, 0);
    for i in 0..passes {
        pass(ctx, &identity, true, i as u64);
    }
    experiment_layers(ctx, out);
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
