//! The benchmark's own seeded generator. Workload inputs must depend on
//! `--seed` and nothing else, so the benchmark does not use the workspace's
//! `rand` stand-in: editing that crate later cannot change a workload.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, label)`, so adding a generator does
    /// not shift the values another one draws.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// small `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random order of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
        items
    }
}

/// Zipf with exponent 1 over ranks `0..n`: rank `r` has weight `1/(r+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_label_repeat_and_labels_differ() {
        let draw = |seed, label| {
            let mut r = Rng::stream(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "chain"), draw(7, "chain"));
        assert_ne!(draw(7, "chain"), draw(8, "chain"));
        assert_ne!(draw(7, "chain"), draw(7, "dag"));
    }

    #[test]
    fn below_stays_in_range_and_zipf_prefers_low_ranks() {
        let mut r = Rng::stream(1, "t");
        assert!((0..1000).all(|_| r.below(10) < 10));
        let mut p = r.permutation(50);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        let z = Zipf::new(64);
        let mut hits = [0usize; 64];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[63]);
    }
}
