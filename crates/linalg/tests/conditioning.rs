//! The conditioning ladder: Householder QR and TSQR are backward stable
//! whatever the condition number of the input.
//!
//! Demmel et al. (arXiv:0806.2159 §10, arXiv:0809.2407) state for both
//! Householder QR and TSQR that `‖QᵀQ − I‖` and `‖A − QR‖/‖A‖` are bounded
//! by a modest multiple of `n·ε` *independent of κ(A)*. Every factorization
//! route of this crate is held to that bound on inputs with a prescribed
//! spectrum, on exactly rank-deficient input and on columns scaled to the
//! edges of the exponent range; CholeskyQR, which loses orthogonality like
//! `κ²·ε`, is the contrast that shows the ladder can tell the difference.
//! Non-finite input must come back as a non-finite R, not as a panic.
//!
//! The bound is on the algorithm, not on one implementation of it: this
//! file must pass unedited across any rewrite of the kernels.

mod support;

use support::{bound, orth_max, resid_cols, with_condition, EPS};
use tsqr_linalg::cholesky::{potrf_upper, NotPositiveDefinite};
use tsqr_linalg::prelude::*;
use tsqr_linalg::stacked::explicit_q_blocks;
use tsqr_linalg::Matrix;

const KAPPAS: [f64; 5] = [1.0, 1e4, 1e8, 1e12, 1e15];
/// Tall shapes: one below every blocking size a kernel might use, one
/// above (several panels, several row strips, ragged edges).
const SHAPES: [(usize, usize); 2] = [(96, 12), (650, 41)];
const PANEL_WIDTHS: [usize; 5] = [1, 5, 16, 32, 64];

/// `‖QᵀQ − I‖_max ≤ c·n·ε` and, column by column, `‖A − QR‖ ≤ c·n·ε·‖A‖`.
fn assert_backward_stable(what: &str, a: &Matrix, q: &Matrix, r: &Matrix) {
    let n = a.cols();
    let (orth, resid) = (orth_max(q), resid_cols(a, q, r));
    assert!(orth <= bound(n), "{what}: |QtQ - I|_max = {orth:e} > {:e}", bound(n));
    assert!(resid <= bound(n), "{what}: |A - QR|/|A| = {resid:e} > {:e}", bound(n));
}

/// `[R1; R2]` from the QR of the top and bottom halves of `a`, factored by
/// `tpqrt`: returns the stack, its explicit `Q` and the combined `R`.
fn stacked_triangles(a: &Matrix) -> (Matrix, Matrix, Matrix) {
    let (m, n) = a.shape();
    let halves = a.split_rows(&[m / 2, m - m / 2]);
    let mut r1 = QrFactors::compute_unblocked(&halves[0]).r();
    let mut r2 = QrFactors::compute_unblocked(&halves[1]).r();
    let stack = r1.vstack(&r2);
    let f = tpqrt(&mut r1, &mut r2);
    let (e1, e2) = explicit_q_blocks(&f);
    assert_eq!(r1.shape(), (n, n));
    (stack, e1.vstack(&e2), r1)
}

/// A leaf's rows of Q: its implicit Q applied to `[E; 0]`.
fn expand_leaf(leaf: &QrFactors, e: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(leaf.factors.rows(), e.cols());
    c.set_sub(0, 0, e);
    leaf.apply_q_left(&mut c);
    c
}

/// Sequential flat-tree TSQR over `blocks` row blocks: `(Q, R)`, with the
/// explicit Q rebuilt by the down-sweep (`tpmqrt`, then each leaf's Q).
fn flat_tsqr(a: &Matrix, blocks: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let mut heights = vec![m / blocks; blocks];
    heights[blocks - 1] += m % blocks;
    let leaves: Vec<QrFactors> =
        a.split_rows(&heights).iter().map(|b| QrFactors::compute(b, 16)).collect();
    let mut r = leaves[0].r();
    let combines: Vec<StackedFactors> =
        leaves[1..].iter().map(|leaf| tpqrt(&mut r, &mut leaf.r())).collect();
    let mut e = Matrix::identity(n);
    let mut q_blocks = Vec::new();
    for (f, leaf) in combines.iter().zip(&leaves[1..]).rev() {
        let mut e_child = Matrix::zeros(n, n);
        tpmqrt(Trans::No, f, &mut e, &mut e_child);
        q_blocks.push(expand_leaf(leaf, &e_child));
    }
    q_blocks.push(expand_leaf(&leaves[0], &e));
    q_blocks.reverse();
    (Matrix::vstack_all(&q_blocks.iter().collect::<Vec<_>>()), r)
}

/// Every Householder route of the crate, held to the bound on `a`.
fn assert_all_routes_stable(label: &str, a: &Matrix) {
    let f = QrFactors::compute_unblocked(a);
    assert_backward_stable(&format!("geqr2 {label}"), a, &f.q_thin(), &f.r());
    for nb in PANEL_WIDTHS {
        let f = QrFactors::compute(a, nb);
        assert_backward_stable(&format!("geqrf nb={nb} {label}"), a, &f.q_thin(), &f.r());
    }
    let (stack, e, r) = stacked_triangles(a);
    assert_backward_stable(&format!("tpqrt {label}"), &stack, &e, &r);
    for blocks in [2, 5] {
        let (q, r) = flat_tsqr(a, blocks);
        assert_backward_stable(&format!("flat TSQR x{blocks} {label}"), a, &q, &r);
    }
}

#[test]
fn householder_and_tsqr_are_stable_at_every_condition_number() {
    for (m, n) in SHAPES {
        for (i, kappa) in KAPPAS.into_iter().enumerate() {
            let a = with_condition(m, n, kappa, 10 + i as u64);
            assert_all_routes_stable(&format!("{m}x{n} kappa={kappa:e}"), &a);
        }
    }
}

#[test]
fn exactly_rank_deficient_input_is_stable_too() {
    for (m, n) in SHAPES {
        let mut a = with_condition(m, n, 1e2, 3);
        let dup = a.col(1).to_vec();
        a.col_mut(n - 2).copy_from_slice(&dup);
        a.col_mut(3).fill(0.0);
        assert_all_routes_stable(&format!("{m}x{n} rank-deficient"), &a);
        // A zero column stays exactly zero under every reflector, and the
        // duplicate's diagonal entry is pure roundoff.
        let r = QrFactors::compute(&a, 16).r();
        assert!(r.col(3).iter().all(|&x| x == 0.0));
        assert!(r[(n - 2, n - 2)].abs() <= bound(n) * a.norm_fro());
    }
}

#[test]
fn columns_at_the_edges_of_the_exponent_range() {
    // 1e±150 squared leaves the range in which a plain sum of squares is
    // accurate, so every norm in these columns needs the scaled form.
    for (m, n) in SHAPES {
        let mut a = with_condition(m, n, 1e2, 4);
        for j in 0..n {
            let scale = [1e150, 1e-150, 1.0][j % 3];
            a.col_mut(j).iter_mut().for_each(|x| *x *= scale);
        }
        assert_all_routes_stable(&format!("{m}x{n} scaled columns"), &a);
    }
}

/// CholeskyQR: `R = chol(AᵀA)`, `Q = A·R⁻¹`.
fn cholesky_qr(a: &Matrix) -> Result<(Matrix, Matrix), NotPositiveDefinite> {
    let r = potrf_upper(&a.t_matmul(a))?;
    let mut q = a.clone();
    trsm_right_upper(&r.view(), &mut q.view_mut());
    Ok((q, r))
}

#[test]
fn cholesky_qr_is_the_contrast_that_degrades_with_kappa() {
    let (m, n) = SHAPES[0];
    // Well conditioned: as good as Householder.
    let (q, _) = cholesky_qr(&with_condition(m, n, 1.0, 10)).expect("kappa = 1 is SPD");
    assert!(orth_max(&q) <= bound(n));
    // κ = 1e4: orthogonality is lost like κ²·ε — far outside the
    // Householder bound, though the factorization still exists.
    let (q, _) = cholesky_qr(&with_condition(m, n, 1e4, 11)).expect("kappa = 1e4 is SPD");
    let orth = orth_max(&q);
    assert!(orth > 100.0 * bound(n), "CholeskyQR at 1e4 kept orthogonality: {orth:e}");
    assert!(orth < 1e8 * EPS * n as f64, "worse than kappa^2 eps: {orth:e}");
    // κ ≥ 1e8: κ² ≥ 1/ε, the Gram matrix is numerically singular. Either
    // the typed failure or a Q that is orthogonal in name only.
    for (i, kappa) in KAPPAS.into_iter().enumerate().skip(2) {
        match cholesky_qr(&with_condition(m, n, kappa, 10 + i as u64)) {
            Err(NotPositiveDefinite { pivot }) => assert!(pivot < n),
            Ok((q, _)) => assert!(orth_max(&q) > 1e-3, "kappa={kappa:e}"),
        }
    }
}

#[test]
fn non_finite_input_gives_non_finite_r_without_panic() {
    // What happens today, pinned: the poison spreads to its own column and
    // everything right of it; the columns left of it never see it.
    let (m, n, col) = (40, 8, 3);
    let poisoned = |r: &Matrix, what: &str| {
        assert_eq!(r.shape(), (n, n));
        for j in 0..col {
            assert!(r.col(j).iter().all(|x| x.is_finite()), "{what}: column {j} poisoned");
        }
        assert!(!r[(col, col)].is_finite(), "{what}: R({col},{col}) = {}", r[(col, col)]);
    };
    for poison in [f64::NAN, f64::INFINITY] {
        let mut a = with_condition(m, n, 1e2, 5);
        a[(17, col)] = poison;
        poisoned(&QrFactors::compute_unblocked(&a).r(), "geqr2");
        for nb in [2, 4, 64] {
            poisoned(&QrFactors::compute(&a, nb).r(), "geqrf");
        }
        poisoned(&flat_tsqr(&a, 3).1, "flat TSQR");

        let clean = with_condition(m, n, 1e2, 5);
        let halves = clean.split_rows(&[m / 2, m - m / 2]);
        let mut r1 = QrFactors::compute_unblocked(&halves[0]).r();
        let mut r2 = QrFactors::compute_unblocked(&halves[1]).r();
        r2[(1, col)] = poison;
        tpqrt(&mut r1, &mut r2);
        poisoned(&r1, "tpqrt");
    }
}
