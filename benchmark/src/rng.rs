//! SplitMix64: every input the benchmark generates comes from `--seed`
//! through this generator, so one seed always gives the same inputs.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one consumer (a client thread, a pool).
    pub fn fork(&self, stream: u64) -> Rng {
        Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no bias.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean: the gap between
    /// arrivals of a Poisson process.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let mut b = Rng::new(42);
        assert_eq!(a, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(42).fork(1).next_u64(), Rng::new(42).fork(2).next_u64());
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| r.below(3) < 3));
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "{mean}");
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }
}
