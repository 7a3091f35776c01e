//! Address-stream generators for the access shapes RAJAPerf kernels produce.

use crate::cache::AccessKind;

/// A synthetic access pattern over one array.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Sequential walk: `base + i*stride` for `i in 0..count`.
    Sequential {
        /// First byte address.
        base: u64,
        /// Byte stride between consecutive accesses.
        stride: u64,
        /// Number of accesses.
        count: u64,
        /// Loads or stores.
        kind: AccessKind,
    },
    /// The sequential walk repeated `passes` times (temporal reuse).
    Repeated {
        /// One pass of the walk.
        inner: Box<Pattern>,
        /// Number of repetitions.
        passes: u32,
    },
    /// Pseudo-random uniform accesses over a footprint (gather/scatter,
    /// sort-like kernels). Deterministic: a splitmix64 sequence.
    Random {
        /// First byte address of the region.
        base: u64,
        /// Region size in bytes.
        footprint: u64,
        /// Bytes per element (alignment granule).
        elem: u64,
        /// Number of accesses.
        count: u64,
        /// RNG seed.
        seed: u64,
        /// Loads or stores.
        kind: AccessKind,
    },
}

impl Pattern {
    /// Number of accesses this pattern generates.
    pub fn len(&self) -> u64 {
        match self {
            Pattern::Sequential { count, .. } => *count,
            Pattern::Repeated { inner, passes } => inner.len() * *passes as u64,
            Pattern::Random { count, .. } => *count,
        }
    }

    /// Whether the pattern generates no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the pattern's `(address, kind)` stream.
    pub fn stream(&self) -> AddressStream<'_> {
        AddressStream { pattern: self, idx: 0, rng: splitmix_seed(self), inner: None }
    }
}

fn splitmix_seed(p: &Pattern) -> u64 {
    match p {
        Pattern::Random { seed, .. } => *seed,
        _ => 0,
    }
}

/// Iterator over a [`Pattern`]'s accesses.
#[derive(Debug)]
pub struct AddressStream<'a> {
    pattern: &'a Pattern,
    idx: u64,
    rng: u64,
    /// A `Repeated` pattern's current pass of its inner stream.
    inner: Option<Box<AddressStream<'a>>>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Iterator for AddressStream<'_> {
    type Item = (u64, AccessKind);

    fn next(&mut self) -> Option<(u64, AccessKind)> {
        if self.idx >= self.pattern.len() {
            return None;
        }
        let i = self.idx;
        self.idx += 1;
        Some(match self.pattern {
            Pattern::Sequential { base, stride, kind, .. } => (base + i * stride, *kind),
            Pattern::Repeated { inner, .. } => {
                // Every pass restarts the inner stream, its RNG included.
                if i % inner.len() == 0 {
                    self.inner = Some(Box::new(inner.stream()));
                }
                self.inner.as_mut().and_then(|s| s.next()).expect("i < inner.len() * passes")
            }
            Pattern::Random { base, footprint, elem, seed, kind, .. } => {
                let _ = seed;
                let r = splitmix64(&mut self.rng);
                let slots = (footprint / elem).max(1);
                (base + (r % slots) * elem, *kind)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.pattern.len() - self.idx) as usize;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses() {
        let p = Pattern::Sequential { base: 100, stride: 8, count: 4, kind: AccessKind::Load };
        let addrs: Vec<u64> = p.stream().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![100, 108, 116, 124]);
    }

    #[test]
    fn repeated_wraps_inner() {
        let inner = Pattern::Sequential { base: 0, stride: 4, count: 3, kind: AccessKind::Store };
        let p = Pattern::Repeated { inner: Box::new(inner), passes: 2 };
        let addrs: Vec<u64> = p.stream().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0, 4, 8, 0, 4, 8]);
        assert!(p.stream().all(|(_, k)| k == AccessKind::Store));
    }

    #[test]
    fn every_pass_of_a_repeated_random_stream_replays_the_inner_sequence() {
        let inner = Pattern::Random {
            base: 0,
            footprint: 4096,
            elem: 8,
            count: 5,
            seed: 42,
            kind: AccessKind::Load,
        };
        let once: Vec<(u64, AccessKind)> = inner.stream().collect();
        assert!(once.windows(2).any(|w| w[0] != w[1]), "the inner stream moves: {once:?}");
        let p = Pattern::Repeated { inner: Box::new(inner), passes: 3 };
        let all: Vec<(u64, AccessKind)> = p.stream().collect();
        assert_eq!(all.len(), 15);
        for pass in all.chunks(5) {
            assert_eq!(pass, once.as_slice());
        }
    }

    #[test]
    fn random_is_deterministic_and_in_bounds() {
        let p = Pattern::Random {
            base: 4096,
            footprint: 1024,
            elem: 8,
            count: 1000,
            seed: 42,
            kind: AccessKind::Load,
        };
        let a: Vec<u64> = p.stream().map(|(a, _)| a).collect();
        let b: Vec<u64> = p.stream().map(|(a, _)| a).collect();
        assert_eq!(a, b, "same seed, same stream");
        assert!(a.iter().all(|&x| (4096..4096 + 1024).contains(&x)));
        assert!(a.iter().all(|&x| x % 8 == 0), "element aligned");
    }

    #[test]
    fn size_hints_exact() {
        let p = Pattern::Sequential { base: 0, stride: 8, count: 10, kind: AccessKind::Load };
        let mut s = p.stream();
        assert_eq!(s.size_hint(), (10, Some(10)));
        s.next();
        assert_eq!(s.size_hint(), (9, Some(9)));
    }
}
