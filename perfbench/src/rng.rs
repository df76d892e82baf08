//! The benchmark's own seeded generator (SplitMix64).
//!
//! Workload inputs must stay byte-identical for a seed across commits, so
//! the generator lives here rather than in the repository's `rand`
//! stand-in, whose algorithm a later change may replace.

/// SplitMix64: tiny, fast, and fully determined by its 64-bit state.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `id` derived from `seed`: each workload part
    /// draws from its own stream, so adding draws to one part never shifts
    /// another part's inputs.
    pub fn stream(seed: u64, id: u64) -> Rng {
        let mut r = Rng(seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::stream(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::stream(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        let mut r = Rng::stream(3, 0);
        assert!((0..1000).all(|_| r.below(5) < 5 && (0.0..1.0).contains(&r.unit())));
    }
}
