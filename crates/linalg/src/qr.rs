//! Householder QR factorization: unblocked (`geqr2`), blocked compact-WY
//! (`geqrf` via `larft`/`larfb`), explicit-Q (`org2r`, and `q_times_upper`
//! for a TSQR leaf) and implicit-Q application (`orm2r`).
//!
//! These mirror the LAPACK routines of the same names: the factored matrix
//! holds `R` in its upper triangle and the Householder vectors `V` (unit
//! lower trapezoidal, leading 1s implicit) below the diagonal, with the
//! scaling factors in `tau`. The blocked path is what a ScaLAPACK `PDGEQRF`
//! domain call runs locally; the unblocked path is the `PDGEQR2` panel
//! kernel the paper analyses.
//!
//! Where the flops go: `geqr2` is the level-2 sweep (one `dot` and one
//! `axpy` per reflector and trailing column) and only ever sees panels of
//! at most `BASE` = 8 columns. Everything wider is matrix products on the
//! two micro-kernels of [`crate::blas`]: `larfb_left` is `gemm_tn`, a small
//! triangular multiply and `gemm_nn`; `geqrf` factors each panel
//! recursively (`geqrt`: left half, block update of the right half, right
//! half) and gets the panel's `T` out of the recursion — `T₁₂ =
//! −T₁₁·(V₁ᵀV₂)·T₂₂`, one more `gemm_tn` — instead of a `larft` pass;
//! `larft` itself is the same split; `orm2r` (left), `q_times_upper` and
//! `org2r` apply `APPLY_NB` = 16 reflectors at a time as `larft` +
//! `larfb_left`. The last two form `Q·[E; 0]` with `E` upper triangular
//! (`E = I` for `org2r`), so each block updates only the columns from its
//! own first reflector rightwards: the ones left of it are zero in every
//! row it reads.
//! Workspaces (`W`, `T`, the dense copy of a panel's triangular top) are
//! allocated once per block call, never per column.

use crate::blas::{axpy, dot, gemm_nn, gemm_tn, trmm_upper_left};
use crate::householder::{larf_left, larfg};
use crate::matrix::Matrix;
use crate::verify::is_upper_triangular;
use crate::view::{View, ViewMut};

/// Transpose flag for BLAS-like kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Which side an implicit Q is applied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `C := op(Q)·C`
    Left,
    /// `C := C·op(Q)`
    Right,
}

/// Default panel width for the blocked factorization — matches the
/// ScaLAPACK default `NB = 64` the paper uses (§V-B).
pub const DEFAULT_NB: usize = 64;

/// Unblocked Householder QR of the window `a` (LAPACK `dgeqr2`).
///
/// On exit the upper triangle holds `R`, the strict lower part holds the
/// reflector tails, and `tau[j]` the scaling factors. `tau` must have length
/// `min(rows, cols)`.
pub fn geqr2(a: &mut ViewMut<'_>, tau: &mut [f64]) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    assert!(tau.len() >= k, "geqr2: tau too short ({} < {k})", tau.len());
    let mut work = vec![0.0; n];
    for j in 0..k {
        // Column j is the reflector, the columns right of it the trailing
        // matrix: disjoint, so the tail of v is read where it lies.
        let (mut left, mut right) = a.split_cols_at_mut(j + 1);
        let refl = larfg(&mut left.col_mut(j)[j..m]);
        tau[j] = refl.tau;
        left.set(j, j, refl.beta);
        if j + 1 < n {
            let mut trail = right.sub_mut(j, 0, m - j, n - j - 1);
            larf_left(refl.tau, &left.col(j)[j + 1..m], &mut trail, &mut work);
        }
    }
}

/// Panels at most this wide are factored by the level-2 sweep and get
/// their `T` from one dot product per pair of reflectors; wider ones split
/// in half and recurse.
const BASE: usize = 8;

/// Reflectors [`orm2r`] and [`org2r`] apply at a time.
const APPLY_NB: usize = 16;

/// Forms the upper-triangular block reflector factor `T` (LAPACK `dlarft`,
/// forward/columnwise) such that `H₁·H₂⋯H_k = I − V·T·Vᵀ`.
///
/// `v` is the factored panel (only its unit-lower-trapezoidal part is read).
pub fn larft(v: &View<'_>, tau: &[f64]) -> Matrix {
    let k = v.cols();
    assert!(tau.len() >= k, "larft: tau too short");
    let mut t = Matrix::zeros(k, k);
    larft_into(v, tau, &mut t.view_mut());
    t
}

/// [`larft`] into the upper triangle of the `k × k` window `t` (the strict
/// lower triangle is left alone): `T` of each half, then their coupling.
fn larft_into(v: &View<'_>, tau: &[f64], t: &mut ViewMut<'_>) {
    let m = v.rows();
    let k = v.cols();
    if k > BASE {
        let k1 = k / 2;
        larft_into(&v.sub(0, 0, m, k1), &tau[..k1], &mut t.sub_mut(0, 0, k1, k1));
        let right = v.sub(k1, k1, m - k1, k - k1);
        larft_into(&right, &tau[k1..], &mut t.sub_mut(k1, k1, k - k1, k - k1));
        return couple_t(v, k1, t);
    }
    let mut w = [0.0; BASE];
    for j in 0..k {
        let tj = tau[j];
        t.set(j, j, tj);
        // w[i] = V(:,i)ᵀ v_j for i < j, with v_j = [0…0, 1, V(j+1..m, j)].
        let vj = v.col(j);
        for (i, wi) in w.iter_mut().enumerate().take(j) {
            let vi = v.col(i);
            *wi = vi[j] + dot(&vi[j + 1..m], &vj[j + 1..m]);
        }
        // T(0..j, j) = −τ_j · T(0..j,0..j) · w
        for i in 0..j {
            let mut s = 0.0;
            for l in i..j {
                s += t.get(i, l) * w[l];
            }
            t.set(i, j, -tj * s);
        }
    }
}

/// Given `T₁₁` and `T₂₂` of the reflector blocks left and right of column
/// `k1` of the factored panel `v`, fills `T₁₂ = −T₁₁·(V₁ᵀ·V₂)·T₂₂` — which
/// makes `t` the `T` of the whole panel.
fn couple_t(v: &View<'_>, k1: usize, t: &mut ViewMut<'_>) {
    let (m, k) = (v.rows(), v.cols());
    let k2 = k - k1;
    // X = V₁ᵀ·Ṽ₂; V₂ starts at row k1, below it V₁ is dense.
    let v2 = v.sub(k1, k1, m - k1, k2);
    let mut x = Matrix::zeros(k1, k2);
    gemm_tn(1.0, &v.sub(k1, 0, k2, k1), &unit_lower(&v2).view(), &mut x.view_mut());
    gemm_tn(1.0, &v.sub(k, 0, m - k, k1), &v2.sub(k2, 0, m - k, k2), &mut x.view_mut());
    trmm_upper_left(Trans::No, &t.sub(0, 0, k1, k1), &mut x.view_mut());
    // T₁₂(:, j) = −Σ_{l ≤ j} X(:, l)·T₂₂(l, j); T₂₂(·, j) is the lower part
    // of the very column of `t` being written.
    for j in 0..k2 {
        let (t12, t22) = t.col_mut(k1 + j).split_at_mut(k1);
        t12.fill(0.0);
        for l in 0..=j {
            axpy(-t22[l], x.col(l), t12);
        }
    }
}

/// The top `k × k` block of the factored panel `v` as the dense matrix it
/// stands for: ones on the diagonal, zeros above it.
fn unit_lower(v: &View<'_>) -> Matrix {
    let k = v.cols();
    Matrix::from_fn(k, k, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Greater => v.get(i, j),
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Less => 0.0,
    })
}

/// Applies the block reflector `Q = I − V·T·Vᵀ` (or `Qᵀ`) from the left to
/// `c` (LAPACK `dlarfb`, side = left, forward/columnwise).
///
/// `v` is `m × k` unit lower trapezoidal (upper part ignored), `t` the `k × k`
/// triangular factor from [`larft`]. `trans = Yes` applies `Qᵀ`.
///
/// Three matrix products on the register-tiled kernels of [`crate::blas`]:
/// `W = Ṽᵀ·C`, `W := op(T)·W`, `C −= Ṽ·W`, the triangular top of `Ṽ`
/// multiplied as the dense block `unit_lower` makes of it.
pub fn larfb_left(trans: Trans, v: &View<'_>, t: &View<'_>, c: &mut ViewMut<'_>) {
    let m = c.rows();
    let n = c.cols();
    let k = v.cols();
    assert_eq!(v.rows(), m, "larfb: V/C row mismatch");
    assert!(k <= m, "larfb: more reflectors ({k}) than rows ({m})");
    assert_eq!((t.rows(), t.cols()), (k, k), "larfb: T shape mismatch");
    if k == 0 || n == 0 {
        return;
    }
    let v1 = unit_lower(v);
    let v2 = v.sub(k, 0, m - k, k);
    let mut w = Matrix::zeros(k, n);
    gemm_tn(1.0, &v1.view(), &c.sub(0, 0, k, n), &mut w.view_mut());
    gemm_tn(1.0, &v2, &c.sub(k, 0, m - k, n), &mut w.view_mut());
    trmm_upper_left(trans, t, &mut w.view_mut());
    gemm_nn(-1.0, &v1.view(), &w.view(), &mut c.sub_mut(0, 0, k, n));
    gemm_nn(-1.0, &v2, &w.view(), &mut c.sub_mut(k, 0, m - k, n));
}

/// Blocked Householder QR (LAPACK `dgeqrf`) with panel width `nb`.
///
/// Each panel is factored recursively (`geqrt`), so a matrix narrower
/// than one panel is level-3 work too; the panel's `T` comes out of the
/// recursion and updates the trailing matrix through [`larfb_left`].
pub fn geqrf(a: &mut ViewMut<'_>, tau: &mut [f64], nb: usize) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    assert!(tau.len() >= k, "geqrf: tau too short");
    let nb = nb.max(1);
    let mut j = 0;
    while j < k {
        let ib = nb.min(k - j);
        // Panel = A[j.., j..j+ib]; trailing = A[j.., j+ib..].
        let mut below = a.sub_mut(j, j, m - j, n - j);
        let (mut panel, mut trail) = below.split_cols_at_mut(ib);
        let mut t = Matrix::zeros(ib, ib);
        geqrt(&mut panel, &mut tau[j..j + ib], &mut t.view_mut(), trail.cols() > 0);
        larfb_left(Trans::Yes, &panel.as_view(), &t.view(), &mut trail);
        j += ib;
    }
}

/// Recursive QR of a tall panel (Elmroth–Gustavson; LAPACK `dgeqrt3`):
/// factor the left half, apply its block reflector to the right half,
/// factor what is left of the right half. The left half's `T` is needed
/// for that update; the whole panel's `T` is completed in `t` only when
/// the caller has a use for it (`want_t`).
fn geqrt(a: &mut ViewMut<'_>, tau: &mut [f64], t: &mut ViewMut<'_>, want_t: bool) {
    let (m, n) = (a.rows(), a.cols());
    if n <= BASE {
        geqr2(a, tau);
        if want_t {
            larft_into(&a.as_view(), tau, t);
        }
        return;
    }
    let n1 = n / 2;
    let (mut left, mut right) = a.split_cols_at_mut(n1);
    geqrt(&mut left, &mut tau[..n1], &mut t.sub_mut(0, 0, n1, n1), true);
    larfb_left(Trans::Yes, &left.as_view(), &t.sub(0, 0, n1, n1), &mut right);
    let mut rest = right.sub_mut(n1, 0, m - n1, n - n1);
    geqrt(&mut rest, &mut tau[n1..], &mut t.sub_mut(n1, n1, n - n1, n - n1), want_t);
    if want_t {
        couple_t(&a.as_view(), n1, t);
    }
}

/// `C := op(Q)·C` for the `Q` of `factors`, [`APPLY_NB`] reflectors at a
/// time (`larft` + `larfb`, as LAPACK `dormqr` does). With `upper` set,
/// `op(Q)` is `Q` and `C` is `[E; 0]` on entry with `E` upper triangular:
/// the block at column `j0` reads rows `j0..`, which are zero in every
/// column left of `j0` until it is applied (last block first), so it only
/// touches the window from `(j0, j0)` down and right.
fn apply_q_left(trans: Trans, factors: &View<'_>, tau: &[f64], c: &mut ViewMut<'_>, upper: bool) {
    let (mv, n, k) = (factors.rows(), c.cols(), tau.len());
    let blocks = k.div_ceil(APPLY_NB);
    for b in 0..blocks {
        // Qᵀ = H_k ⋯ H_1 applies the first block first, Q the last.
        let j0 = APPLY_NB * if trans == Trans::Yes { b } else { blocks - 1 - b };
        let ib = APPLY_NB.min(k - j0);
        let v = factors.sub(j0, j0, mv - j0, ib);
        let t = larft(&v, &tau[j0..j0 + ib]);
        let c0 = if upper { j0 } else { 0 };
        larfb_left(trans, &v, &t.view(), &mut c.sub_mut(j0, c0, mv - j0, n - c0));
    }
}

/// `Q·[E; 0]` (`m × k`) for the `Q` of the first `k` reflectors of a
/// factored `m`-row matrix and an upper-triangular `k × k` `E` — a TSQR
/// leaf's rows of the explicit Q, `E` being the coupling block the
/// down-sweep hands it.
///
/// Each block of reflectors skips the columns left of it, so this costs
/// what [`org2r`] (its `E = I` case) costs and gives the bits
/// [`orm2r`]`(Left, No)` gives on the dense `[E; 0]`.
pub fn q_times_upper(factors: &View<'_>, tau: &[f64], e: &Matrix) -> Matrix {
    let m = factors.rows();
    let k = factors.cols().min(m).min(tau.len());
    assert_eq!(e.shape(), (k, k), "q_times_upper: E must be k × k");
    debug_assert!(is_upper_triangular(e), "q_times_upper: E must be upper triangular");
    let mut q = Matrix::zeros(m, k);
    q.set_sub(0, 0, e);
    apply_q_left(Trans::No, factors, &tau[..k], &mut q.view_mut(), true);
    q
}

/// Forms the thin explicit `Q` (`m × k`) from a factored matrix
/// (LAPACK `dorgqr` applied to the first `k` reflectors).
pub fn org2r(factors: &View<'_>, tau: &[f64]) -> Matrix {
    let k = factors.cols().min(factors.rows()).min(tau.len());
    q_times_upper(factors, tau, &Matrix::identity(k))
}

/// Applies the implicit `Q` of a factored matrix to `c`:
/// `C := op(Q)·C` (left; blocked, LAPACK `dormqr`) or `C := C·op(Q)`
/// (right; one reflector at a time, LAPACK `dorm2r`).
pub fn orm2r(side: Side, trans: Trans, factors: &View<'_>, tau: &[f64], c: &mut ViewMut<'_>) {
    let mv = factors.rows();
    let k = factors.cols().min(mv).min(tau.len());
    match side {
        Side::Left => {
            assert_eq!(c.rows(), mv, "orm2r(Left): C row count must match V");
            apply_q_left(trans, factors, &tau[..k], c, false);
        }
        Side::Right => {
            assert_eq!(c.cols(), mv, "orm2r(Right): C column count must match V rows");
            let m = c.rows();
            let order: Vec<usize> = match trans {
                Trans::No => (0..k).collect(), // C·H_1·H_2⋯
                Trans::Yes => (0..k).rev().collect(),
            };
            let mut w = vec![0.0; m];
            for j in order {
                let tj = tau[j];
                if tj == 0.0 {
                    continue;
                }
                let vj = &factors.col(j)[j + 1..mv];
                // w = C[:, j..] · v  (v = [1; vj])
                for (i, wi) in w.iter_mut().enumerate().take(m) {
                    let mut s = c.get(i, j);
                    for (l, &vl) in vj.iter().enumerate() {
                        s += c.get(i, j + 1 + l) * vl;
                    }
                    *wi = s;
                }
                // C[:, j..] -= τ w vᵀ
                for (i, &wi) in w.iter().enumerate().take(m) {
                    let tw = tj * wi;
                    c.col_mut(j)[i] -= tw;
                    for (l, &vl) in vj.iter().enumerate() {
                        c.col_mut(j + 1 + l)[i] -= tw * vl;
                    }
                }
            }
        }
    }
}

/// An owned QR factorization: `R` in the upper triangle of `factors`,
/// Householder vectors below it, scaling factors in `tau`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// The `m × n` factored matrix (R above the diagonal, V below).
    pub factors: Matrix,
    /// Reflector scaling factors, length `min(m, n)`.
    pub tau: Vec<f64>,
}

impl QrFactors {
    /// Factors a copy of `a` using the blocked algorithm.
    pub fn compute(a: &Matrix, nb: usize) -> Self {
        let mut f = a.clone();
        let k = a.rows().min(a.cols());
        let mut tau = vec![0.0; k];
        geqrf(&mut f.view_mut(), &mut tau, nb);
        QrFactors { factors: f, tau }
    }

    /// Factors a copy of `a` with the unblocked algorithm (`geqr2`).
    pub fn compute_unblocked(a: &Matrix) -> Self {
        let mut f = a.clone();
        let k = a.rows().min(a.cols());
        let mut tau = vec![0.0; k];
        geqr2(&mut f.view_mut(), &mut tau);
        QrFactors { factors: f, tau }
    }

    /// The `min(m,n) × n` upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        self.factors.upper_triangular()
    }

    /// The thin explicit orthogonal factor `Q` (`m × min(m,n)`).
    pub fn q_thin(&self) -> Matrix {
        let k = self.factors.rows().min(self.factors.cols());
        org2r(&self.factors.sub(0, 0, self.factors.rows(), k), &self.tau)
    }

    /// `C := Qᵀ·C` in place.
    pub fn apply_qt_left(&self, c: &mut Matrix) {
        orm2r(Side::Left, Trans::Yes, &self.factors.view(), &self.tau, &mut c.view_mut());
    }

    /// `C := Q·C` in place.
    pub fn apply_q_left(&self, c: &mut Matrix) {
        orm2r(Side::Left, Trans::No, &self.factors.view(), &self.tau, &mut c.view_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{orthogonality, relative_residual};

    const TOL: f64 = 1e-12;

    fn check_qr(a: &Matrix, f: &QrFactors) {
        let q = f.q_thin();
        let r = f.r();
        assert!(relative_residual(a, &q, &r) < TOL, "residual too large");
        assert!(orthogonality(&q) < TOL, "Q not orthogonal");
        // R upper triangular by construction of `r()`; also check the
        // factored storage agrees above the diagonal.
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                if i > j {
                    assert_eq!(r[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn geqr2_tall_matrix() {
        let a = Matrix::random_uniform(20, 5, 1);
        let f = QrFactors::compute_unblocked(&a);
        check_qr(&a, &f);
    }

    #[test]
    fn geqr2_square_matrix() {
        let a = Matrix::random_uniform(6, 6, 2);
        let f = QrFactors::compute_unblocked(&a);
        check_qr(&a, &f);
    }

    #[test]
    fn geqr2_single_column() {
        let a = Matrix::random_uniform(9, 1, 3);
        let f = QrFactors::compute_unblocked(&a);
        check_qr(&a, &f);
        assert!((f.r()[(0, 0)].abs() - a.norm_fro()).abs() < 1e-12);
    }

    #[test]
    fn geqrf_matches_geqr2() {
        let a = Matrix::random_uniform(40, 12, 4);
        let blocked = QrFactors::compute(&a, 5);
        let unblocked = QrFactors::compute_unblocked(&a);
        assert!(blocked.factors.approx_eq(&unblocked.factors, 1e-11));
        for (x, y) in blocked.tau.iter().zip(&unblocked.tau) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn geqrf_various_panel_widths() {
        let a = Matrix::random_uniform(33, 17, 5);
        for nb in [1, 2, 3, 8, 16, 17, 64] {
            let f = QrFactors::compute(&a, nb);
            check_qr(&a, &f);
        }
    }

    #[test]
    fn geqrf_wide_matrix() {
        let a = Matrix::random_uniform(5, 12, 6);
        let f = QrFactors::compute(&a, 3);
        // For wide matrices R is 5x12 upper trapezoidal; check A = Q R.
        let q = f.q_thin();
        let r = f.r();
        assert!(relative_residual(&a, &q, &r) < TOL);
        assert!(orthogonality(&q) < TOL);
    }

    #[test]
    fn larft_reproduces_block_reflector() {
        let a = Matrix::random_uniform(10, 4, 7);
        let f = QrFactors::compute_unblocked(&a);
        let t = larft(&f.factors.view(), &f.tau);
        // Build Q densely from I − V·T·Vᵀ and compare with org2r.
        let m = 10;
        let k = 4;
        let mut v = Matrix::zeros(m, k);
        for j in 0..k {
            v[(j, j)] = 1.0;
            for i in j + 1..m {
                v[(i, j)] = f.factors[(i, j)];
            }
        }
        let vt = v.matmul(&t.upper_triangular()).matmul(&v.transpose());
        let q_dense = Matrix::from_fn(m, m, |i, j| (if i == j { 1.0 } else { 0.0 }) - vt[(i, j)]);
        let q_thin = f.q_thin();
        let q_dense_thin = q_dense.sub_matrix(0, 0, m, k);
        assert!(q_thin.approx_eq(&q_dense_thin, 1e-12));
    }

    #[test]
    fn larfb_equals_sequential_reflectors() {
        let a = Matrix::random_uniform(12, 4, 8);
        let f = QrFactors::compute_unblocked(&a);
        let c0 = Matrix::random_uniform(12, 6, 9);
        // Sequential Qᵀ C via orm2r.
        let mut c_seq = c0.clone();
        f.apply_qt_left(&mut c_seq);
        // Blocked Qᵀ C via larfb.
        let t = larft(&f.factors.view(), &f.tau);
        let mut c_blk = c0.clone();
        larfb_left(Trans::Yes, &f.factors.view(), &t.view(), &mut c_blk.view_mut());
        assert!(c_blk.approx_eq(&c_seq, 1e-12));
        // And Q C.
        let mut c_seq = c0.clone();
        f.apply_q_left(&mut c_seq);
        let mut c_blk = c0.clone();
        larfb_left(Trans::No, &f.factors.view(), &t.view(), &mut c_blk.view_mut());
        assert!(c_blk.approx_eq(&c_seq, 1e-12));
    }

    #[test]
    fn apply_q_then_qt_is_identity() {
        let a = Matrix::random_uniform(15, 6, 10);
        let f = QrFactors::compute(&a, 3);
        let c0 = Matrix::random_uniform(15, 4, 11);
        let mut c = c0.clone();
        f.apply_qt_left(&mut c);
        f.apply_q_left(&mut c);
        assert!(c.approx_eq(&c0, 1e-12));
    }

    #[test]
    fn qt_times_a_is_r() {
        let a = Matrix::random_uniform(18, 5, 12);
        let f = QrFactors::compute(&a, 4);
        let mut c = a.clone();
        f.apply_qt_left(&mut c);
        let r = f.r();
        for i in 0..5 {
            for j in 0..5 {
                assert!((c[(i, j)] - r[(i, j)]).abs() < 1e-11);
            }
        }
        // Rows below N must be annihilated.
        for i in 5..18 {
            for j in 0..5 {
                assert!(c[(i, j)].abs() < 1e-11);
            }
        }
    }

    #[test]
    fn orm2r_right_matches_dense() {
        let a = Matrix::random_uniform(7, 3, 13);
        let f = QrFactors::compute_unblocked(&a);
        let q = {
            // Dense square Q via applying to the identity.
            let mut id = Matrix::identity(7);
            f.apply_q_left(&mut id);
            id
        };
        let c0 = Matrix::random_uniform(4, 7, 14);
        // C·Q
        let mut c = c0.clone();
        orm2r(Side::Right, Trans::No, &f.factors.view(), &f.tau, &mut c.view_mut());
        assert!(c.approx_eq(&c0.matmul(&q), 1e-12));
        // C·Qᵀ
        let mut c = c0.clone();
        orm2r(Side::Right, Trans::Yes, &f.factors.view(), &f.tau, &mut c.view_mut());
        assert!(c.approx_eq(&c0.matmul(&q.transpose()), 1e-12));
    }

    #[test]
    fn rank_deficient_matrix_still_factors() {
        // Two identical columns.
        let base = Matrix::random_uniform(10, 1, 15);
        let a = Matrix::from_fn(10, 3, |i, j| if j < 2 { base[(i, 0)] } else { (i as f64).sin() });
        let f = QrFactors::compute(&a, 2);
        let q = f.q_thin();
        let r = f.r();
        assert!(relative_residual(&a, &q, &r) < TOL);
        // R(1,1) must be ~0 (second column dependent on first).
        assert!(r[(1, 1)].abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_factors_to_zero_r() {
        let a = Matrix::zeros(8, 3);
        let f = QrFactors::compute(&a, 2);
        assert_eq!(f.r().norm_fro(), 0.0);
        let q = f.q_thin();
        assert!(orthogonality(&q) < TOL);
    }
}
