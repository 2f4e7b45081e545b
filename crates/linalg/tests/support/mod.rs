//! Test matrices with a prescribed spectrum, built with plain loops only —
//! no kernel of the crate under test takes part in making its own input.
//! Shared by `conditioning.rs` and, through `#[path]`, by the workspace's
//! `tests/end_to_end.rs`.
#![allow(dead_code)]

use tsqr_linalg::Matrix;

/// Unit roundoff of `f64` as the stability bounds use it.
pub const EPS: f64 = f64::EPSILON;

/// The `c·n·ε` both `‖QᵀQ − I‖_max` and the column-wise `‖A − QR‖/‖A‖` of
/// a Householder or TSQR factorization are held to, whatever `κ(A)`:
/// `c = 4` (measured: ≤ 0.63 over the whole ladder).
pub fn bound(n: usize) -> f64 {
    4.0 * n as f64 * EPS
}

/// `A := (I − 2uuᵀ/uᵀu)·A` for a random `u`.
fn reflect_rows(a: &mut Matrix, seed: u64) {
    let (m, n) = a.shape();
    let u = Matrix::random_uniform(m, 1, seed).into_vec();
    let uu: f64 = u.iter().map(|x| x * x).sum();
    for j in 0..n {
        let s: f64 = (0..m).map(|i| u[i] * a[(i, j)]).sum();
        for i in 0..m {
            a[(i, j)] -= 2.0 * s / uu * u[i];
        }
    }
}

/// `A := A·(I − 2uuᵀ/uᵀu)` for a random `u`.
fn reflect_cols(a: &mut Matrix, seed: u64) {
    let (m, n) = a.shape();
    let u = Matrix::random_uniform(n, 1, seed).into_vec();
    let uu: f64 = u.iter().map(|x| x * x).sum();
    for i in 0..m {
        let s: f64 = (0..n).map(|j| a[(i, j)] * u[j]).sum();
        for j in 0..n {
            a[(i, j)] -= 2.0 * s / uu * u[j];
        }
    }
}

/// `A = U·diag(σ)·Vᵀ` (`m × n`, `m ≥ n`) with `U`, `V` products of `n`
/// random reflectors each, so `σ` is the singular spectrum of `A` up to
/// roundoff.
pub fn with_spectrum(m: usize, sigma: &[f64], seed: u64) -> Matrix {
    let n = sigma.len();
    assert!(m >= n);
    let mut a = Matrix::from_fn(m, n, |i, j| if i == j { sigma[j] } else { 0.0 });
    for k in 0..n as u64 {
        reflect_rows(&mut a, 1000 * seed + 2 * k);
        reflect_cols(&mut a, 1000 * seed + 2 * k + 1);
    }
    a
}

/// [`with_spectrum`] with `σᵢ` geometric from 1 down to `1/κ`.
pub fn with_condition(m: usize, n: usize, kappa: f64, seed: u64) -> Matrix {
    let sigma: Vec<f64> = (0..n)
        .map(|i| if n == 1 { 1.0 } else { kappa.powf(-(i as f64) / (n - 1) as f64) })
        .collect();
    with_spectrum(m, &sigma, seed)
}

/// `‖QᵀQ − I‖_max`, accumulated with plain loops.
pub fn orth_max(q: &Matrix) -> f64 {
    let (m, n) = q.shape();
    let mut worst = 0.0_f64;
    for i in 0..n {
        for j in 0..n {
            let g: f64 = (0..m).map(|l| q[(l, i)] * q[(l, j)]).sum();
            worst = worst.max((g - if i == j { 1.0 } else { 0.0 }).abs());
        }
    }
    worst
}

/// The largest column-wise `‖A_j − (QR)_j‖₂ / ‖A_j‖₂` (zero columns
/// compare absolutely). Column-wise and scaled by the column's largest
/// entry, so columns of wildly different magnitude are each held to the
/// bound and nothing overflows.
pub fn resid_cols(a: &Matrix, q: &Matrix, r: &Matrix) -> f64 {
    let (m, n) = a.shape();
    let k = q.cols();
    let mut worst = 0.0_f64;
    for j in 0..n {
        let scale = a.col(j).iter().fold(0.0_f64, |s, x| s.max(x.abs()));
        let scale = if scale == 0.0 { 1.0 } else { scale };
        let (mut num, mut den) = (0.0_f64, 0.0_f64);
        for i in 0..m {
            let qr: f64 = (0..k.min(j + 1)).map(|l| q[(i, l)] * (r[(l, j)] / scale)).sum();
            num += (a[(i, j)] / scale - qr).powi(2);
            den += (a[(i, j)] / scale).powi(2);
        }
        worst = worst.max(if den == 0.0 { num.sqrt() } else { (num / den).sqrt() });
    }
    worst
}
