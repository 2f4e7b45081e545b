//! The workspace's one deterministic PRNG: SplitMix64.
//!
//! Four subsystems used to carry private copies of the same three-line
//! mixer — the failure injector's drop coins (`fault`), the workload
//! matrix hash (`tsqr-core::workload`), the seeded delivery-order
//! permuter (`tsqr-gridmpi`), and the topology shuffler
//! ([`crate::topology::GridTopology::shuffled`]). This module is the
//! single implementation they all share, and the one the serving layer
//! (`tsqr-serve`) draws its Poisson-like arrival process from. `rand`
//! is an inert offline stub in this workspace, so owning the generator
//! is not an optimization but the only option.
//!
//! Everything here is a pure function of its arguments: no wall clock,
//! no global state, no thread-locals — `archlint`'s determinism rules
//! apply to this module like any other. Two forms are exposed:
//!
//! * `mix64` / [`hash64`] — stateless finalizer and one-shot hash,
//!   for coin flips keyed by coordinates (seed ^ src ^ dst ^ nth …);
//! * [`SplitMix64`] — the sequential stream (state += golden gamma,
//!   output = finalizer(state)), for generators that draw many values.
//!
//! The constants are Sebastiano Vigna's reference SplitMix64; the
//! `[0, 1)` mapping keeps the historical 53-bit convention used by the
//! failure injector, so extracting this module changed no blessed
//! baseline bit.

/// The golden-gamma increment of the SplitMix64 stream.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a fixed-point-free bijection on `u64` with
/// good avalanche behavior. This is the mixing step alone — callers
/// hashing a key usually want [`hash64`], which first offsets the key by
/// [`GOLDEN_GAMMA`] exactly like one step of the stream.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-shot hash of a key: `mix64(key + GOLDEN_GAMMA)` — the value a
/// [`SplitMix64`] seeded with `key` would emit first. Use this for
/// stateless per-coordinate coins (drop decisions, matrix entries).
#[inline]
pub fn hash64(key: u64) -> u64 {
    mix64(key.wrapping_add(GOLDEN_GAMMA))
}

/// Maps 64 hash bits to `[0, 1)` with the full 53 bits of an `f64`
/// mantissa — the convention every seeded coin in the workspace uses.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0) // 2^-53
}

/// The sequential SplitMix64 generator: `state += GOLDEN_GAMMA`, output
/// `mix64(state)`. Deterministic, `Copy`-cheap, and splittable by
/// construction (seed a child with any output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded at `seed`; the first output is [`hash64`]`(seed)`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform draw from `[0, 1)` (53-bit precision).
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform draw from `0..n`. The modulo bias is below 2⁻⁵³ for every
    /// `n` this workspace uses (menus, tenant counts — tiny versus 2⁶⁴).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Exponentially distributed draw with the given mean — the
    /// inter-arrival time of a Poisson process. Uses the inverse CDF on
    /// a `[0, 1)` uniform, so it is exactly reproducible from the seed.
    ///
    /// # Panics
    /// Panics unless `mean` is finite and positive.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive");
        // 1 - u ∈ (0, 1], so ln never sees zero.
        -mean * (1.0 - self.next_unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_matches_one_stream_step() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut s = SplitMix64::new(seed);
            assert_eq!(s.next_u64(), hash64(seed));
        }
    }

    #[test]
    fn streams_are_reproducible_and_seed_sensitive() {
        let a: Vec<u64> = (0..8).scan(SplitMix64::new(7), |s, _| Some(s.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(SplitMix64::new(7), |s, _| Some(s.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(SplitMix64::new(8), |s, _| Some(s.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn unit_draws_stay_in_range_and_spread() {
        let mut s = SplitMix64::new(3);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..4096 {
            let u = s.next_unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "uniform draws should cover [0, 1): {lo}..{hi}");
    }

    #[test]
    fn exponential_has_the_requested_mean() {
        let mut s = SplitMix64::new(11);
        let n = 1 << 14;
        let sum: f64 = (0..n).map(|_| s.next_exp(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "sample mean {mean} should be near 2.5");
    }

    #[test]
    fn next_below_is_bounded() {
        let mut s = SplitMix64::new(5);
        for _ in 0..256 {
            assert!(s.next_below(7) < 7);
        }
    }

    #[test]
    fn reference_vector() {
        // SplitMix64 reference sequence for seed 1234567 (Vigna's
        // constants); guards against silent drift in the shared mixer.
        let mut s = SplitMix64::new(1234567);
        assert_eq!(s.next_u64(), 0x599e_d017_fb08_fc85);
        assert_eq!(s.next_u64(), 0x2c73_f084_5854_0fa5);
        assert_eq!(s.next_u64(), 0x883e_bce5_a3f2_7c77);
    }
}
