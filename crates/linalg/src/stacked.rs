//! The TSQR reduction operator: QR factorization of two stacked
//! upper-triangular matrices `[R1; R2]`.
//!
//! This is the binary, associative (and, with a sign convention,
//! commutative) operation the paper reduces over its tuned tree (§II-C).
//! Exploiting the triangular structure of both blocks brings the cost down
//! to `≈ 2/3·n³` flops — the `2/3·log₂(P)·N³` critical-path surcharge of
//! Table I — instead of the `≈ 10/3·n³` a dense QR of the `2n × n` stack
//! would pay. The kernels correspond to LAPACK's `dtpqrt2`/`dtpmqrt` with a
//! triangular (not pentagonal) second block.
//!
//! Reflector layout: the reflector for column `j` acts on the row `j` of the
//! `R1` block (implicit leading 1) and rows `0..=j` of the `R2` block; its
//! nonzero tail is stored in column `j`, rows `0..=j` of the returned `V`
//! matrix, which is therefore upper triangular.
//!
//! Every kernel here works one reflector at a time, on column slices
//! borrowed disjointly with `split_at_mut` (no copies, no per-element
//! indexing): the two factorizations generate a reflector in place in its
//! column (`larfg_tail`), and every kernel sweeps it over the columns it
//! changes with one `dot` and one `axpy` each (`reflect_trailing`).
//! `tpqrt` sweeps the columns right of the reflector and `expand_upper` —
//! the TSQR down-sweep, whose coupling block is upper triangular — the
//! columns from it rightwards, `≈ 2/3·n³` each; `tpmqrt` and
//! `tpmqrt_dense` take a dense `C` and sweep all of its columns. None is
//! blocked: the triangular structure leaves vectors of average length
//! `n/2`.

use crate::blas::{axpy, dot};
use crate::householder::larfg_tail;
use crate::matrix::Matrix;
use crate::qr::Trans;
use crate::verify::is_upper_triangular;

/// Implicit orthogonal factor of a stacked-triangles factorization.
#[derive(Debug, Clone)]
pub struct StackedFactors {
    /// Upper-triangular matrix of reflector tails (`n × n`).
    pub v: Matrix,
    /// Reflector scaling factors (length `n`).
    pub tau: Vec<f64>,
}

impl StackedFactors {
    /// Block size `n` of the combine.
    pub(crate) fn n(&self) -> usize {
        self.v.rows()
    }
}

/// Factors `[R1; R2]` in place, with both blocks `n × n` upper triangular.
///
/// On exit `r1` holds the combined `R` factor and `r2` holds the reflector
/// tails `V`; the returned [`StackedFactors`] shares `V`/`τ` for later
/// [`tpmqrt`] applications. Entries strictly below the diagonal of the
/// inputs are ignored (treated as zero).
pub fn tpqrt(r1: &mut Matrix, r2: &mut Matrix) -> StackedFactors {
    let n = r1.rows();
    assert_eq!(r1.shape(), (n, n), "tpqrt: R1 must be square");
    assert_eq!(r2.shape(), (n, n), "tpqrt: R2 must be square");
    let mut tau = vec![0.0; n];
    for j in 0..n {
        // Column j of R2 becomes the reflector tail; the columns right of
        // it are the trailing part of the R2 block.
        let (head, trailing) = r2.as_mut_slice().split_at_mut((j + 1) * n);
        let vj = &mut head[j * n..=j * n + j];
        let refl = larfg_tail(r1[(j, j)], vj);
        tau[j] = refl.tau;
        r1[(j, j)] = refl.beta;
        reflect_trailing(refl.tau, vj, r1, j, j + 1, trailing.chunks_exact_mut(n));
    }
    // Zero the strict lower triangle of V for a clean representation.
    for j in 0..n {
        r2.col_mut(j)[j + 1..].fill(0.0);
    }
    StackedFactors { v: r2.clone(), tau }
}

/// Applies `H = I − τ·[1; v]·[1; v]ᵀ` to the stacked columns
/// `[C1(j, k0 + i); c2ᵢ[..v.len()]]`, one `c2ᵢ` per item of `c2_cols`.
fn reflect_trailing<'a>(
    tau: f64,
    v: &[f64],
    c1: &mut Matrix,
    j: usize,
    k0: usize,
    c2_cols: impl Iterator<Item = &'a mut [f64]>,
) {
    if tau == 0.0 {
        return;
    }
    for (i, c2) in c2_cols.enumerate() {
        let c2 = &mut c2[..v.len()];
        let tw = tau * (c1[(j, k0 + i)] + dot(v, c2));
        c1[(j, k0 + i)] -= tw;
        axpy(-tw, v, c2);
    }
}

/// Applies the implicit `Q` of a [`tpqrt`] factorization (or its transpose)
/// to the stacked pair `[C1; C2]` in place.
///
/// `C1` and `C2` both have `n` rows (any column count `k`); `C1` sits on the
/// `R1` side of the stack, `C2` on the `R2` side.
pub fn tpmqrt(trans: Trans, f: &StackedFactors, c1: &mut Matrix, c2: &mut Matrix) {
    let n = f.n();
    assert_eq!(c1.rows(), n, "tpmqrt: C1 row mismatch");
    assert_eq!(c2.rows(), n, "tpmqrt: C2 row mismatch");
    assert_eq!(c1.cols(), c2.cols(), "tpmqrt: C1/C2 column mismatch");
    for step in 0..n {
        // Qᵀ applies H_0 first, Q applies H_{n−1} first.
        let j = if trans == Trans::Yes { step } else { n - 1 - step };
        let cols = c2.as_mut_slice().chunks_exact_mut(n);
        reflect_trailing(f.tau[j], &f.v.col(j)[..=j], c1, j, 0, cols);
    }
}

/// `[E; C2] := Q·[E; 0]` for the `Q` of a [`tpqrt`] factorization and an
/// upper-triangular `n × n` coupling block `E`: `e` is overwritten with the
/// `R1`-side block and the `R2`-side block `C2` is returned, both upper
/// triangular again — one step of the TSQR down-sweep.
///
/// Reflector `j` reads row `j` of `E` and rows `0..=j` of `C2`, which are
/// still zero in every column left of `j` when it is applied (last to
/// first), so it sweeps only columns `j..n`: `≈ 2/3·n³` flops, where
/// [`tpmqrt`] on the dense pair `[E; 0]` does `2n³` for the same bits.
pub fn expand_upper(f: &StackedFactors, e: &mut Matrix) -> Matrix {
    let n = f.n();
    assert_eq!(e.shape(), (n, n), "expand_upper: E must be n × n");
    debug_assert!(is_upper_triangular(e), "expand_upper: E must be upper triangular");
    let mut c2 = Matrix::zeros(n, n);
    for j in (0..n).rev() {
        let cols = c2.as_mut_slice().chunks_exact_mut(n).skip(j);
        reflect_trailing(f.tau[j], &f.v.col(j)[..=j], e, j, j, cols);
    }
    c2
}

/// The pair `(E1, E2)` with `[E1; E2] = Q·[I; 0]` — the first `n` columns of
/// the combine's orthogonal factor, split into its `R1`-side and `R2`-side
/// row blocks: [`expand_upper`] at the root, where `E = I`.
///
/// This is the building block for reconstructing the global TSQR `Q` down
/// the reduction tree: each child's `Q` gets multiplied by its side's block.
pub fn explicit_q_blocks(f: &StackedFactors) -> (Matrix, Matrix) {
    let mut e1 = Matrix::identity(f.n());
    let e2 = expand_upper(f, &mut e1);
    (e1, e2)
}

/// Factors `[R1; B]` in place where `R1` is `n × n` upper triangular and
/// `B` is a dense `q × n` block — LAPACK `dtpqrt` with a square pentagon.
///
/// This is the tile kernel of CAQR's flat-tree panel factorization
/// (PLASMA's `tsqrt`): on exit `r1` holds the combined R, `b` the dense
/// reflector block `V`. Costs `≈ 2qn²` flops.
pub fn tpqrt_dense(r1: &mut Matrix, b: &mut Matrix) -> DenseStackedFactors {
    let n = r1.rows();
    assert_eq!(r1.shape(), (n, n), "tpqrt_dense: R1 must be square");
    assert_eq!(b.cols(), n, "tpqrt_dense: B column mismatch");
    let q = b.rows();
    let mut tau = vec![0.0; n];
    for j in 0..n {
        let (head, trailing) = b.as_mut_slice().split_at_mut((j + 1) * q);
        let vj = &mut head[j * q..];
        let refl = larfg_tail(r1[(j, j)], vj);
        tau[j] = refl.tau;
        r1[(j, j)] = refl.beta;
        // `max(1)`: a block of no rows has no columns to walk either.
        reflect_trailing(refl.tau, vj, r1, j, j + 1, trailing.chunks_exact_mut(q.max(1)));
    }
    DenseStackedFactors { v: b.clone(), tau }
}

/// Implicit orthogonal factor of a [`tpqrt_dense`] factorization.
#[derive(Debug, Clone)]
pub struct DenseStackedFactors {
    /// Dense `q × n` reflector block.
    pub v: Matrix,
    /// Reflector scaling factors (length `n`).
    pub tau: Vec<f64>,
}

impl DenseStackedFactors {
    /// Block size `n` of the combine.
    pub(crate) fn n(&self) -> usize {
        self.v.cols()
    }

    /// Height `q` of the dense block.
    pub(crate) fn q(&self) -> usize {
        self.v.rows()
    }
}

/// Applies the implicit `Q` of a [`tpqrt_dense`] factorization (or its
/// transpose) to the stacked pair `[C1; C2]` in place, where `C1` has `n`
/// rows and `C2` has `q` rows (PLASMA's `tsmqr`).
pub fn tpmqrt_dense(trans: Trans, f: &DenseStackedFactors, c1: &mut Matrix, c2: &mut Matrix) {
    let n = f.n();
    let q = f.q();
    assert_eq!(c1.rows(), n, "tpmqrt_dense: C1 row mismatch");
    assert_eq!(c2.rows(), q, "tpmqrt_dense: C2 row mismatch");
    assert_eq!(c1.cols(), c2.cols(), "tpmqrt_dense: column mismatch");
    for step in 0..n {
        let j = if trans == Trans::Yes { step } else { n - 1 - step };
        let cols = c2.as_mut_slice().chunks_exact_mut(q.max(1));
        reflect_trailing(f.tau[j], f.v.col(j), c1, j, 0, cols);
    }
}

/// Reference implementation: dense QR of the `2n × n` stack. Used by tests
/// to validate [`tpqrt`] and by the flop model as the "unstructured" cost.
pub fn stack_qr_dense(r1: &Matrix, r2: &Matrix) -> crate::qr::QrFactors {
    let stacked = r1.upper_triangular_padded().vstack(&r2.upper_triangular_padded());
    crate::qr::QrFactors::compute_unblocked(&stacked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{orthogonality, relative_residual, sign_normalize_r};

    const TOL: f64 = 1e-12;

    fn random_upper(n: usize, seed: u64) -> Matrix {
        Matrix::random_uniform(n, n, seed).upper_triangular_padded()
    }

    #[test]
    fn tpqrt_matches_dense_stack_qr() {
        for n in [1, 2, 3, 5, 8, 16] {
            let r1 = random_upper(n, 100 + n as u64);
            let r2 = random_upper(n, 200 + n as u64);
            let mut a = r1.clone();
            let mut b = r2.clone();
            let _f = tpqrt(&mut a, &mut b);
            let dense = stack_qr_dense(&r1, &r2);
            let r_struct = sign_normalize_r(&a.upper_triangular_padded());
            let r_dense = sign_normalize_r(&dense.r());
            assert!(r_struct.approx_eq(&r_dense, 1e-11), "R mismatch for n={n}");
        }
    }

    #[test]
    fn tpqrt_r_is_upper_triangular() {
        let mut r1 = random_upper(6, 1);
        let mut r2 = random_upper(6, 2);
        tpqrt(&mut r1, &mut r2);
        // R1 now holds R; its strict lower part was never touched, and the
        // upper_triangular extraction must reproduce the stacked R factor.
        let r = r1.upper_triangular_padded();
        for i in 0..6 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn explicit_q_reconstructs_stack() {
        for n in [1, 2, 4, 7] {
            let r1 = random_upper(n, 300 + n as u64);
            let r2 = random_upper(n, 400 + n as u64);
            let mut a = r1.clone();
            let mut b = r2.clone();
            let f = tpqrt(&mut a, &mut b);
            let r = a.upper_triangular_padded();
            let (e1, e2) = explicit_q_blocks(&f);
            // [R1; R2] = [E1; E2] · R
            let rec1 = e1.matmul(&r);
            let rec2 = e2.matmul(&r);
            assert!(rec1.approx_eq(&r1, TOL), "top block mismatch (n={n})");
            assert!(rec2.approx_eq(&r2, TOL), "bottom block mismatch (n={n})");
            // The stacked E must have orthonormal columns.
            let e = e1.vstack(&e2);
            assert!(orthogonality(&e) < TOL);
        }
    }

    #[test]
    fn tpmqrt_qt_then_q_is_identity() {
        let n = 5;
        let mut r1 = random_upper(n, 11);
        let mut r2 = random_upper(n, 12);
        let f = tpqrt(&mut r1, &mut r2);
        let c1_0 = Matrix::random_uniform(n, 3, 13);
        let c2_0 = Matrix::random_uniform(n, 3, 14);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tpmqrt(Trans::Yes, &f, &mut c1, &mut c2);
        tpmqrt(Trans::No, &f, &mut c1, &mut c2);
        assert!(c1.approx_eq(&c1_0, TOL));
        assert!(c2.approx_eq(&c2_0, TOL));
    }

    #[test]
    fn tpmqrt_qt_annihilates_bottom_of_stack() {
        // Qᵀ·[R1; R2] = [R; 0].
        let n = 4;
        let r1 = random_upper(n, 21);
        let r2 = random_upper(n, 22);
        let mut a = r1.clone();
        let mut b = r2.clone();
        let f = tpqrt(&mut a, &mut b);
        let mut c1 = r1.clone();
        let mut c2 = r2.clone();
        tpmqrt(Trans::Yes, &f, &mut c1, &mut c2);
        assert!(c1.approx_eq(&a.upper_triangular_padded(), 1e-11));
        assert!(c2.norm_max() < 1e-11, "bottom block must be annihilated");
    }

    #[test]
    fn combine_is_associative_up_to_signs() {
        // ((R1 ⊕ R2) ⊕ R3) and (R1 ⊕ (R2 ⊕ R3)) give the same R up to
        // column signs — the property that makes TSQR a reduction (§II-C).
        let n = 6;
        let r1 = random_upper(n, 31);
        let r2 = random_upper(n, 32);
        let r3 = random_upper(n, 33);
        let combine = |a: &Matrix, b: &Matrix| {
            let mut x = a.clone();
            let mut y = b.clone();
            tpqrt(&mut x, &mut y);
            x.upper_triangular_padded()
        };
        let left = combine(&combine(&r1, &r2), &r3);
        let right = combine(&r1, &combine(&r2, &r3));
        assert!(sign_normalize_r(&left).approx_eq(&sign_normalize_r(&right), 1e-11));
    }

    #[test]
    fn combine_is_commutative_up_to_signs() {
        let n = 5;
        let r1 = random_upper(n, 41);
        let r2 = random_upper(n, 42);
        let combine = |a: &Matrix, b: &Matrix| {
            let mut x = a.clone();
            let mut y = b.clone();
            tpqrt(&mut x, &mut y);
            x.upper_triangular_padded()
        };
        let ab = combine(&r1, &r2);
        let ba = combine(&r2, &r1);
        assert!(sign_normalize_r(&ab).approx_eq(&sign_normalize_r(&ba), 1e-11));
    }

    #[test]
    fn combining_with_zero_is_identity_up_to_signs() {
        let n = 4;
        let r = random_upper(n, 51);
        let z = Matrix::zeros(n, n);
        let mut a = r.clone();
        let mut b = z.clone();
        tpqrt(&mut a, &mut b);
        assert!(
            sign_normalize_r(&a.upper_triangular_padded()).approx_eq(&sign_normalize_r(&r), 1e-12)
        );
    }

    #[test]
    fn tpqrt_dense_matches_dense_stack_qr() {
        for (n, q) in [(1, 1), (3, 5), (6, 2), (4, 4), (8, 16)] {
            let r1 = random_upper(n as usize, 70 + n);
            let b = Matrix::random_uniform(q, n as usize, 80 + n);
            let mut a = r1.clone();
            let mut bb = b.clone();
            let _f = tpqrt_dense(&mut a, &mut bb);
            let stacked = r1.vstack(&b);
            let dense = crate::qr::QrFactors::compute_unblocked(&stacked);
            let got = sign_normalize_r(&a.upper_triangular_padded());
            let want = sign_normalize_r(&dense.r().sub_matrix(0, 0, n as usize, n as usize));
            assert!(got.approx_eq(&want, 1e-11), "n={n} q={q}");
        }
    }

    #[test]
    fn tpmqrt_dense_qt_annihilates_dense_block() {
        let (n, q) = (5, 7);
        let r1 = random_upper(n, 91);
        let b = Matrix::random_uniform(q, n, 92);
        let mut a = r1.clone();
        let mut bb = b.clone();
        let f = tpqrt_dense(&mut a, &mut bb);
        let mut c1 = r1.clone();
        let mut c2 = b.clone();
        tpmqrt_dense(Trans::Yes, &f, &mut c1, &mut c2);
        assert!(c1.approx_eq(&a.upper_triangular_padded(), 1e-11));
        assert!(c2.norm_max() < 1e-11);
    }

    #[test]
    fn tpmqrt_dense_round_trip() {
        let (n, q) = (4, 6);
        let mut r1 = random_upper(n, 93);
        let mut b = Matrix::random_uniform(q, n, 94);
        let f = tpqrt_dense(&mut r1, &mut b);
        let c1_0 = Matrix::random_uniform(n, 3, 95);
        let c2_0 = Matrix::random_uniform(q, 3, 96);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tpmqrt_dense(Trans::Yes, &f, &mut c1, &mut c2);
        tpmqrt_dense(Trans::No, &f, &mut c1, &mut c2);
        assert!(c1.approx_eq(&c1_0, 1e-12));
        assert!(c2.approx_eq(&c2_0, 1e-12));
    }

    #[test]
    fn residual_of_full_reconstruction() {
        // Round-trip through relative_residual: [R1;R2] ≈ E·R.
        let n = 8;
        let r1 = random_upper(n, 61);
        let r2 = random_upper(n, 62);
        let mut a = r1.clone();
        let mut b = r2.clone();
        let f = tpqrt(&mut a, &mut b);
        let (e1, e2) = explicit_q_blocks(&f);
        let stack = r1.vstack(&r2);
        let e = e1.vstack(&e2);
        assert!(relative_residual(&stack, &e, &a.upper_triangular_padded()) < TOL);
    }
}
