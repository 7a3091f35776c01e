//! Estimate keys: the request pools the serve workloads draw from, and the
//! reference every reply and cached estimate is checked against.

use crate::rng::Rng;
use rvhpc::compiler::VectorMode;
use rvhpc::kernels::KernelName;
use rvhpc::machines::{machine, Machine, MachineId, PlacementPolicy};
use rvhpc::perfmodel::{
    cache, estimate_averaged, estimate_cached, Precision, RunConfig, TimeEstimate,
};
use rvhpc_serve::protocol::{parse_request, Request};
use std::fmt::Write as _;

/// Optional run-configuration overrides of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    pub placement: PlacementPolicy,
    pub vectorize: bool,
    pub mode: VectorMode,
}

/// One `estimate` request's operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    pub machine: MachineId,
    pub kernel: KernelName,
    pub precision: Precision,
    pub threads: u16,
    pub knobs: Option<Knobs>,
}

/// An estimate as exact bits: the four times and the vector-path flag.
pub type Bits = ([u64; 4], bool);

pub fn bits(e: &TimeEstimate) -> Bits {
    (
        [
            e.seconds.to_bits(),
            e.compute_seconds.to_bits(),
            e.memory_seconds.to_bits(),
            e.overhead_seconds.to_bits(),
        ],
        e.vector_path,
    )
}

impl Key {
    /// Append this key's request line (no newline) with request id `id`.
    pub fn write_line(&self, id: u64, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"id":{id},"op":"estimate","machine":"{}","kernel":"{}","precision":"{}","threads":{}"#,
            self.machine.token(),
            self.kernel.label(),
            self.precision.label(),
            self.threads
        );
        if let Some(k) = self.knobs {
            let _ = write!(
                out,
                r#","placement":"{}","vectorize":{}"#,
                k.placement.label(),
                k.vectorize
            );
            if k.vectorize {
                let _ = write!(out, r#","mode":"{}""#, k.mode.label());
            }
        }
        out.push('}');
    }

    pub fn line(&self, id: u64) -> String {
        let mut s = String::new();
        self.write_line(id, &mut s);
        s
    }

    /// The machine, kernel and run configuration the server derives from
    /// this key's request line (`protocol::parse_request`).
    pub fn resolve(&self) -> Result<(Machine, KernelName, RunConfig), String> {
        match parse_request(&self.line(0)).1? {
            Request::Estimate { machine: m, kernel, cfg, .. } => Ok((machine(m), kernel, cfg)),
            other => Err(format!("request parsed as `{}`, not an estimate", other.op())),
        }
    }

    /// The estimate the server must return for this key: the uncached
    /// model on the resolved configuration.
    pub fn expected(&self) -> Result<TimeEstimate, String> {
        let (m, kernel, cfg) = self.resolve()?;
        Ok(estimate_averaged(&m, kernel, &cfg))
    }
}

/// The serve_hot pool: 3 machines × 10 kernels × fp32/fp64 × {1, 4, 16}
/// threads at each machine's default configuration (180 keys).
pub fn hot_pool() -> Vec<Key> {
    let machines = [MachineId::Sg2042, MachineId::AmdRome, MachineId::IntelIcelake];
    let mut pool = Vec::new();
    for machine in machines {
        for kernel in KernelName::ALL.into_iter().step_by(7) {
            for precision in [Precision::Fp64, Precision::Fp32] {
                for threads in [1, 4, 16] {
                    pool.push(Key { machine, kernel, precision, threads, knobs: None });
                }
            }
        }
    }
    pool
}

const PRECISIONS: [Precision; 2] = [Precision::Fp32, Precision::Fp64];

/// The vector settings that are distinct cache keys: the cache folds the
/// mode of scalar configurations together.
const VECTOR: [(bool, VectorMode); 3] =
    [(true, VectorMode::Vls), (true, VectorMode::Vla), (false, VectorMode::Vls)];

/// Threads a key may ask for on machine `m`: 1..=cores, at most 64.
fn max_threads(m: MachineId) -> u16 {
    machine(m).n_cores().min(64) as u16
}

/// The serve_open pool: every distinct estimate-cache key over the 7
/// catalog machines × 64 kernels × precision × threads 1..=cores (at
/// most 64) × placement × {vector VLS, vector VLA, scalar}. Thread counts
/// stop at the core count and scalar keys carry no mode because the cache
/// folds those together; what is left is one key per cache entry.
pub fn open_pool() -> Vec<Key> {
    let mut pool = Vec::new();
    for m in MachineId::ALL {
        for kernel in KernelName::ALL {
            for precision in PRECISIONS {
                for threads in 1..=max_threads(m) {
                    for placement in PlacementPolicy::ALL {
                        for (vectorize, mode) in VECTOR {
                            let knobs = Some(Knobs { placement, vectorize, mode });
                            pool.push(Key { machine: m, kernel, precision, threads, knobs });
                        }
                    }
                }
            }
        }
    }
    pool
}

/// A key from the serve_open key space with every dimension drawn
/// uniformly, without building the pool.
pub fn random_key(rng: &mut Rng) -> Key {
    let m = MachineId::ALL[rng.below(MachineId::ALL.len())];
    let (vectorize, mode) = VECTOR[rng.below(VECTOR.len())];
    let placement = PlacementPolicy::ALL[rng.below(PlacementPolicy::ALL.len())];
    Key {
        machine: m,
        kernel: KernelName::ALL[rng.below(KernelName::ALL.len())],
        precision: PRECISIONS[rng.below(PRECISIONS.len())],
        threads: 1 + rng.below(usize::from(max_threads(m))) as u16,
        knobs: Some(Knobs { placement, vectorize, mode }),
    }
}

/// Keys checked by [`cache_gate`].
pub const GATE_KEYS: usize = 256;

/// The estimate-cache correctness gate: for [`GATE_KEYS`] seeded keys,
/// a cache miss and then a hit must both equal the uncached model bit
/// for bit. Returns the number of keys that disagreed, with messages.
pub fn cache_gate(seed: u64) -> (u64, Vec<String>) {
    let mut rng = Rng::new(seed).fork(0x6a7e);
    cache::clear();
    let mut problems = Vec::new();
    for _ in 0..GATE_KEYS {
        let key = random_key(&mut rng);
        let checked = key.resolve().and_then(|(m, kernel, cfg)| {
            let want = bits(&estimate_averaged(&m, kernel, &cfg));
            let miss = bits(&estimate_cached(&m, kernel, &cfg));
            let hit = bits(&estimate_cached(&m, kernel, &cfg));
            if miss == want && hit == want {
                Ok(())
            } else {
                Err(format!("cached estimate differs from the model for {}", key.line(0)))
            }
        });
        if let Err(e) = checked {
            problems.push(e);
        }
    }
    (problems.len() as u64, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_have_the_documented_shape() {
        assert_eq!(hot_pool().len(), 180);
        let open = open_pool();
        // 184 (machine, threads) pairs × 64 kernels × 2 precisions × 9.
        assert_eq!(open.len(), 184 * 64 * 2 * 9);
        let mut rng = Rng::new(3);
        assert!((0..1000).all(|_| open.contains(&random_key(&mut rng))));
    }

    #[test]
    fn every_request_line_parses_as_the_key_it_came_from() {
        let open = open_pool();
        for key in hot_pool().iter().chain(open.iter().step_by(997)) {
            let line = key.line(42);
            let (id, parsed) = parse_request(&line);
            assert_eq!(id.as_f64(), Some(42.0), "{line}");
            let Ok(Request::Estimate { machine, kernel, cfg, .. }) = parsed else {
                panic!("{line} is not an estimate request");
            };
            assert_eq!(
                (machine, kernel, cfg.threads),
                (key.machine, key.kernel, key.threads as usize)
            );
            assert_eq!(cfg.precision, key.precision);
            if let Some(k) = key.knobs {
                assert_eq!((cfg.placement, cfg.vectorize), (k.placement, k.vectorize));
            }
        }
    }
}
