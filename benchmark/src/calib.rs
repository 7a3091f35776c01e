//! A fixed reference workload that tracks the host's current speed.
//!
//! On a shared host the CPU's speed drifts by 20–60% over tens of seconds
//! as other tenants come and go: they share its caches, memory bandwidth
//! and hardware threads. The sweeps time this harness-owned work before
//! every pass, on the same CPU, and scale each pass's time by it, so the
//! drift cancels while a change in the program's own work does not.
//! Set-ups that are CPU work are scaled the same way.

use crate::rng::Rng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// The CPU time the reference work is scaled to, in microseconds: a
/// scaled time reads as the time on a host where [`reference_work`]
/// takes this long. Its median over a set of runs took 1.8–2.8 ms on the
/// 2-core x86-64 VM of the README's numbers.
pub const REFERENCE_US: f64 = 2000.0;

/// One round of the reference work, in the mix of operations a cold
/// pass does: a hash table, sorting and floating-point maths over a few
/// hundred KiB, then `Debug`-formatting nested descriptions full of
/// floats and hashing the text (a cache miss formats its machine the
/// same way to key the persistent store). Always the same work; the
/// result depends on all of it, so none of it can be optimised away.
pub fn reference_work() -> u64 {
    const N: usize = 8192;
    let mut rng = Rng::new(0x5eed_ca1b);
    let mut keys: Vec<u64> = (0..N).map(|_| rng.next_u64()).collect();
    // A fixed hasher key, so the table's layout is the same in every
    // process too.
    let mut map: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(N, BuildHasherDefault::default());
    for (i, &k) in keys.iter().enumerate() {
        let x = (i as f64 + 1.0).ln() * (k % 1000) as f64;
        map.insert(k, x.sqrt().exp2().min(1e12));
    }
    keys.sort_unstable();
    let (mut acc, mut text) = (0u64, String::new());
    for k in keys.iter().step_by(8) {
        let v = map[k];
        text.clear();
        let _ = write!(text, "{v:.6e}/{k:x}");
        acc = acc.wrapping_mul(31).wrapping_add(text.len() as u64 ^ v.to_bits());
    }
    let descriptions = descriptions(&mut rng);
    for _ in 0..40 {
        for d in &descriptions {
            acc = format!("{d:?}")
                .bytes()
                .fold(acc, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        }
    }
    acc
}

#[derive(Debug)]
#[allow(dead_code)] // read only through `Debug`
struct Level {
    name: String,
    size_bytes: u64,
    ways: u32,
    latency_ns: f64,
    bandwidth_gbs: f64,
    shared: bool,
}

#[derive(Debug)]
#[allow(dead_code)] // read only through `Debug`
struct Description {
    id: u32,
    label: String,
    cores: u32,
    ghz: f64,
    vlen: Option<u32>,
    levels: Vec<Level>,
    numa: Vec<(u32, f64)>,
    flags: [bool; 6],
}

/// Eight machine-like descriptions with four memory levels each.
fn descriptions(rng: &mut Rng) -> Vec<Description> {
    (0..8)
        .map(|i| Description {
            id: i,
            label: format!("machine-{i}"),
            cores: 4 + rng.below(60) as u32,
            ghz: 1.0 + rng.unit() * 2.5,
            vlen: (i % 2 == 0).then_some(128 << (i % 3)),
            levels: (0..4)
                .map(|l| Level {
                    name: format!("L{l}"),
                    size_bytes: 32768 << (3 * l),
                    ways: 4 + l,
                    latency_ns: 1.0 + rng.unit() * 80.0,
                    bandwidth_gbs: 10.0 + rng.unit() * 200.0,
                    shared: l > 1,
                })
                .collect(),
            numa: (0..4).map(|n| (n, rng.unit() * 3.0)).collect(),
            flags: [i % 2 == 0, i % 3 == 0, true, false, i > 3, i < 6],
        })
        .collect()
}

/// Wall time of the reference work here and now, in microseconds: the
/// median of five rounds, so one preempted round does not count.
pub fn reference_wall_us() -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(reference_work());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&rounds)
}

/// `sample` as it would read on a host where the reference work takes
/// [`REFERENCE_US`], given that it took `reference_us` next to the sample.
pub fn scaled(sample: f64, reference_us: f64) -> f64 {
    sample / reference_us * REFERENCE_US
}

/// The median of the samples, each [`scaled`] by the reference timed
/// next to it, so drift within a run cancels too.
pub fn scaled_median(samples: &[f64], reference: &[f64]) -> f64 {
    let ratios: Vec<f64> = samples.iter().zip(reference).map(|(&s, &r)| scaled(s, r)).collect();
    crate::stats::median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn scaling_cancels_drift() {
        // The host slows down through the run; every pass does the same
        // work.
        let (pass, reference) = ([10.0, 20.0, 30.0], [1.0, 2.0, 3.0]);
        assert_eq!(scaled_median(&pass, &reference), 10.0 * REFERENCE_US);
        // Work that grows by a half shows in full.
        let more = pass.map(|p| p * 1.5);
        assert_eq!(scaled_median(&more, &reference), 15.0 * REFERENCE_US);
        assert!(scaled_median(&[], &[]).is_nan());
    }
}
