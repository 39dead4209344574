//! Self-contained pseudo-random number generation.
//!
//! The simulator needs many *independent, reproducible* random streams (one
//! per client, per resource, per replica) so that runs are deterministic
//! and comparable across configurations (common random numbers). We
//! implement xoshiro256++ seeded via SplitMix64 — small, fast, and entirely
//! dependency-free, which keeps the DES kernel a leaf crate.

/// xoshiro256++ PRNG with convenience samplers for the distributions the
/// simulator uses.
///
/// # Examples
///
/// ```
/// use replipred_sim::Rng;
///
/// let mut rng = Rng::seed_from_u64(42);
/// let x = rng.exp(1.0); // exponential variate with mean 1 s
/// assert!(x >= 0.0);
/// // Same seed, same stream:
/// assert_eq!(Rng::seed_from_u64(42).exp(1.0), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a deterministic, well-mixed seed for an independent stream
/// (e.g. replication `k` of a multi-seed experiment). Distinct `stream`
/// values give uncorrelated SplitMix64-mixed seeds; the result depends
/// only on `(base, stream)`, never on global state.
pub fn derive_stream_seed(base: u64, stream: u64) -> u64 {
    let mut state = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child stream; `label` distinguishes children
    /// of the same parent (e.g. one stream per client index).
    pub fn fork(&mut self, label: u64) -> Rng {
        let mixed = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from_u64(mixed) // replilint:allow(D3) -- fork derives its seed from the parent stream, not entropy
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire-style rejection to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform choice of an index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Exponential variate with the given mean (inverse transform).
    ///
    /// Returns `0.0` for a zero or negative mean so degenerate
    /// configurations (no think time) behave sensibly.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // 1 - f64() is in (0, 1]; ln of it is finite and <= 0.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index requires a non-empty, positive-sum weight vector"
        );
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 200_000;
        let mean = 0.9;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.01,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn exp_zero_mean_is_zero() {
        let mut rng = Rng::seed_from_u64(5);
        assert_eq!(rng.exp(0.0), 0.0);
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::seed_from_u64(13);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::seed_from_u64(19);
        let mut hits = [0u32; 3];
        for _ in 0..30_000 {
            hits[rng.weighted_index(&[0.5, 0.3, 0.2])] += 1;
        }
        assert!((hits[0] as f64 / 30_000.0 - 0.5).abs() < 0.02);
        assert!((hits[1] as f64 / 30_000.0 - 0.3).abs() < 0.02);
        assert!((hits[2] as f64 / 30_000.0 - 0.2).abs() < 0.02);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(23);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::seed_from_u64(1).below(0);
    }
}
