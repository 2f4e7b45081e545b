//! Deterministic distributed workload generation.
//!
//! The experiments factor dense random tall-and-skinny matrices (up to
//! 33,554,432 × 64 in the paper). In a distributed run every domain must
//! materialize *its own rows* of the same global matrix without any
//! communication, so the matrix is defined as a pure function of
//! `(seed, global row, column)`: a SplitMix64 hash of the coordinates
//! mapped to `[-1, 1]`. Any process can generate any block, and a
//! single-process verification run can rebuild the full matrix exactly.

use tsqr_linalg::Matrix;
use tsqr_netsim::rng::{hash64, unit_f64, GOLDEN_GAMMA};

/// Entry `(i, j)` of the global test matrix with the given seed, uniform
/// in `[-1, 1]`.
pub(crate) fn entry(seed: u64, i: u64, j: u64) -> f64 {
    // Shared SplitMix64 hash over a mixed coordinate key; 53 uniform bits
    // → [0, 1) → [-1, 1].
    let key = seed ^ i.wrapping_mul(GOLDEN_GAMMA) ^ j.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    2.0 * unit_f64(hash64(key)) - 1.0
}

/// The `rows × n` block starting at global row `row0`.
pub fn block(seed: u64, row0: u64, rows: usize, n: usize) -> Matrix {
    Matrix::from_fn(rows, n, |i, j| entry(seed, row0 + i as u64, j as u64))
}

/// The full `m × n` matrix (only sensible at test scale).
pub fn full_matrix(seed: u64, m: usize, n: usize) -> Matrix {
    block(seed, 0, m, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_full_matrix() {
        let m = 20;
        let n = 3;
        let full = full_matrix(42, m, n);
        let top = block(42, 0, 12, n);
        let bottom = block(42, 12, 8, n);
        assert!(top.vstack(&bottom).approx_eq(&full, 0.0));
    }

    #[test]
    fn entries_are_in_range_and_spread() {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let count = 10_000;
        for i in 0..count {
            let v = entry(7, i, i % 17);
            assert!((-1.0..=1.0).contains(&v));
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        assert!(min < -0.9 && max > 0.9, "values should cover the range");
        assert!((sum / count as f64).abs() < 0.05, "mean should be near zero");
    }

    #[test]
    fn different_seeds_differ() {
        let a = block(1, 0, 8, 4);
        let b = block(2, 0, 8, 4);
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(entry(9, 123, 45), entry(9, 123, 45));
    }
}
