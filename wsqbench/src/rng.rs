//! Seeded generators: the benchmark's inputs are a pure function of
//! `--seed`, so both sides of a comparison see the identical sequence.

/// splitmix64: small, fast, and good enough to shuffle and draw ops.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// session / purpose so adding a draw in one never shifts another).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias is < n / 2^64, irrelevant at these sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `k` has mass ∝ 1/(k+1).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k as f64 + 1.0);
            cdf.push(acc);
        }
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

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn mass_of_top(&self, k: usize) -> f64 {
        self.cdf[k - 1]
    }
}

/// An op mix with exact proportions: each block of `counts.sum()` ops
/// holds kind `i` exactly `counts[i]` times, shuffled by the seed. Exact
/// shares keep mixture percentiles (p50, p95) from moving with the
/// multinomial noise a per-op draw would add.
pub fn shuffled_block(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut block: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(kind, &n)| vec![kind; n])
        .collect();
    rng.shuffle(&mut block);
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let draw = |mut r: Rng| -> Vec<u64> { (0..8).map(|_| r.next_u64()).collect() };
        assert_eq!(draw(Rng::new(7, 1)), draw(Rng::new(7, 1)));
        assert_ne!(draw(Rng::new(7, 1)), draw(Rng::new(7, 2)));
        assert_ne!(draw(Rng::new(7, 1)), draw(Rng::new(8, 1)));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..10_000).all(|_| r.below(17) < 17));
    }

    #[test]
    fn zipf_top_ten_mass_matches_harmonic_numbers() {
        // H(10)/H(1740) = 2.9290/8.0390.
        let z = Zipf::new(1740);
        assert!(
            (z.mass_of_top(10) - 0.3643).abs() < 1e-3,
            "{}",
            z.mass_of_top(10)
        );
        let mut r = Rng::new(42, 0);
        let n = 200_000;
        let top = (0..n).filter(|_| z.sample(&mut r) < 10).count() as f64 / n as f64;
        assert!((top - z.mass_of_top(10)).abs() < 0.01, "{top}");
    }

    #[test]
    fn blocks_hold_exact_shares() {
        let mut r = Rng::new(3, 0);
        let block = shuffled_block(&[60, 10, 5, 15, 7, 3], &mut r);
        assert_eq!(block.len(), 100);
        for (kind, want) in [60, 10, 5, 15, 7, 3].into_iter().enumerate() {
            assert_eq!(block.iter().filter(|&&k| k == kind).count(), want);
        }
        assert_ne!(block, shuffled_block(&[60, 10, 5, 15, 7, 3], &mut r));
    }
}
