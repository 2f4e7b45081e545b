//! Elementary Householder reflectors (LAPACK `larfg`/`larf` analogues).
//!
//! A reflector is `H = I − τ·v·vᵀ` with `v[0] = 1` held implicitly; applied
//! to its generating vector it produces `(β, 0, …, 0)ᵀ`. Following LAPACK we
//! choose `β = −sign(α)·‖x‖` so the subtraction `α − β` never cancels.

use crate::blas::{axpy, dot, nrm2, scal};
use crate::view::ViewMut;

/// Result of generating a reflector for a vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reflector {
    /// The value the vector's first entry is mapped to (`±‖x‖`).
    pub beta: f64,
    /// The scaling factor τ of `H = I − τ·v·vᵀ` (0 when `x` is already
    /// collapsed, in which case `H = I`).
    pub tau: f64,
}

/// Generates a Householder reflector for the vector `x` in place.
///
/// On entry `x = (α, x₁, …)ᵀ`; on exit `x[0]` is unspecified and `x[1..]`
/// holds the tail of `v` (the leading `1` of `v` is implicit). Returns
/// `(β, τ)` such that `H·x = β·e₁`.
pub fn larfg(x: &mut [f64]) -> Reflector {
    let (alpha, tail) = x.split_first_mut().expect("larfg needs a non-empty vector");
    larfg_tail(*alpha, tail)
}

/// [`larfg`] of `(α, tail)ᵀ` for callers whose `α` is stored apart from
/// the tail (the stacked-triangles kernels): `tail` becomes `v[1..]`.
pub(crate) fn larfg_tail(alpha: f64, tail: &mut [f64]) -> Reflector {
    let xnorm = nrm2(tail);
    if xnorm == 0.0 {
        // Already collapsed; H = I. (We do not flip signs for negative α —
        // same convention as LAPACK dlarfg, which returns tau = 0.)
        return Reflector { beta: alpha, tau: 0.0 };
    }
    let norm = alpha.hypot(xnorm);
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    // v = (x - beta e1) / (alpha - beta); v[0] = 1 implicit.
    scal(1.0 / (alpha - beta), tail);
    Reflector { beta, tau }
}

/// Applies `H = I − τ·v·vᵀ` from the left to the matrix window `c`.
///
/// `v_tail` is `v[1..]` (length `c.rows() − 1`); the leading 1 is implicit.
/// `work` must have length at least `c.cols()`.
pub fn larf_left(tau: f64, v_tail: &[f64], c: &mut ViewMut<'_>, work: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    let m = c.rows();
    let n = c.cols();
    assert_eq!(v_tail.len(), m - 1, "larf_left: v length mismatch");
    assert!(work.len() >= n, "larf_left: workspace too small");
    // w = Cᵀ v  (with v = [1; v_tail])
    for j in 0..n {
        let cj = c.col(j);
        work[j] = cj[0] + dot(&cj[1..m], v_tail);
    }
    // C -= τ v wᵀ
    for j in 0..n {
        let twj = tau * work[j];
        let cj = c.col_mut(j);
        cj[0] -= twj;
        axpy(-twj, v_tail, &mut cj[1..m]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// Reconstruct the dense H from (tau, v_tail).
    fn dense_h(n: usize, tau: f64, v_tail: &[f64]) -> Matrix {
        let mut v = vec![1.0];
        v.extend_from_slice(v_tail);
        Matrix::from_fn(n, n, |i, j| {
            let e = if i == j { 1.0 } else { 0.0 };
            e - tau * v[i] * v[j]
        })
    }

    #[test]
    fn reflector_collapses_vector() {
        let x0 = vec![3.0, 4.0, 12.0];
        let mut x = x0.clone();
        let r = larfg(&mut x);
        assert!((r.beta.abs() - 13.0).abs() < 1e-12);
        let h = dense_h(3, r.tau, &x[1..]);
        let hx = h.matmul(&Matrix::from_col_major(3, 1, x0).unwrap());
        assert!((hx[(0, 0)] - r.beta).abs() < 1e-12);
        assert!(hx[(1, 0)].abs() < 1e-12);
        assert!(hx[(2, 0)].abs() < 1e-12);
    }

    #[test]
    fn reflector_is_orthogonal_and_symmetric() {
        let mut x = vec![-1.0, 2.0, -0.5, 0.25];
        let r = larfg(&mut x);
        let h = dense_h(4, r.tau, &x[1..]);
        let hth = h.t_matmul(&h);
        assert!(hth.approx_eq(&Matrix::identity(4), 1e-12));
        assert!(h.approx_eq(&h.transpose(), 1e-12));
    }

    #[test]
    fn already_collapsed_vector_gives_identity() {
        let mut x = vec![5.0, 0.0, 0.0];
        let r = larfg(&mut x);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.beta, 5.0);
    }

    #[test]
    fn beta_sign_is_opposite_alpha() {
        let mut x = vec![2.0, 1.0];
        assert!(larfg(&mut x).beta < 0.0);
        let mut y = vec![-2.0, 1.0];
        assert!(larfg(&mut y).beta > 0.0);
    }

    #[test]
    fn larf_left_matches_dense_multiply() {
        let a0 = Matrix::random_uniform(4, 3, 5);
        let mut v = vec![0.7, -0.3, 0.9, 0.1];
        let r = larfg(&mut v);
        let h = dense_h(4, r.tau, &v[1..]);
        let want = h.matmul(&a0);
        let mut a = a0.clone();
        let mut work = vec![0.0; 3];
        larf_left(r.tau, &v[1..], &mut a.view_mut(), &mut work);
        assert!(a.approx_eq(&want, 1e-12));
    }

    #[test]
    fn larf_with_zero_tau_is_noop() {
        let a0 = Matrix::random_uniform(3, 2, 6);
        let mut a = a0.clone();
        let mut work = vec![0.0; 2];
        larf_left(0.0, &[0.0, 0.0], &mut a.view_mut(), &mut work);
        assert!(a.approx_eq(&a0, 0.0));
    }

    #[test]
    fn tiny_and_huge_vectors_stay_finite() {
        let mut x = vec![1e-160, 3e-161, 4e-161];
        let r = larfg(&mut x);
        assert!(r.beta.is_finite() && r.tau.is_finite());
        assert!(x[1..].iter().all(|v| v.is_finite()));
        let mut y = vec![1e155, 3e154, 4e154];
        let r = larfg(&mut y);
        assert!(r.beta.is_finite() && r.tau.is_finite());
    }
}
