//! BLAS-like kernels on column-major views.
//!
//! **Levels 1 and 2** are loops over contiguous column slices, shaped so
//! that each vectorizes: [`dot`] keeps eight independent partial sums (a
//! single `sum()` is one serial add chain the compiler may not reorder),
//! [`nrm2`] is `sqrt(dot(x, x))` with LAPACK's scaled form as the fallback
//! outside `[2⁻⁹⁷⁰, 2⁹⁷⁰]`, [`gemv`], [`ger`] and [`trmm_upper_left`] are
//! sweeps of `dot`/[`axpy`].
//!
//! **Level 3** is two register-tiled micro-kernels and nothing else:
//!
//! * `tile_nn` under `gemm_nn` (`C += α·A·B`): a 4 × 4 tile of `C` in
//!   registers; `A` packed in chunks of 4 rows (one contiguous stream per
//!   chunk, a 256 × 256 block at a time), the 4 columns of `B` the tile
//!   needs packed with every entry stored twice, so two rows are
//!   multiplied at a time without a broadcast.
//! * `dot_tile` under `gemm_tn` (`C += α·Aᵀ·B`): 4 × 2 dot products at
//!   once over a strip of 512 rows, both operands read where they lie —
//!   columns are contiguous, nothing is packed.
//!
//! [`gemm`] scales `C` and calls one of the two; `larft`, `larfb_left`,
//! `geqrf` and the blocked apply-Q of [`crate::qr`] call them directly.
//! Tile, block and strip sizes are private constants.
//!
//! **Determinism.** Every kernel's result is a function of its operands'
//! values and shapes only: each output entry adds its products in an order
//! fixed by the length of the sum (lane, chunk, strip and block
//! boundaries count from the start of the view), never by a thread count,
//! an address or the position of the entry within a tile. There are no
//! threads here: a rank program is one of hundreds of threads already.

use crate::matrix::Matrix;
use crate::qr::Trans;
use crate::view::{View, ViewMut};

/// Dot product of two equal-length slices.
///
/// Eight partial sums `s₀…s₇` over the whole chunks of eight (element `i`
/// goes to `s[i mod 8]`), combined as
/// `((s₀+s₂)+(s₄+s₆)) + ((s₁+s₃)+(s₅+s₇))` — the order in which two-lane
/// registers fold without a shuffle — plus the up to seven trailing
/// products summed serially: a pure function of the values and the length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let (xc, yc) = (x.chunks_exact(8), y.chunks_exact(8));
    let mut tail = 0.0;
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a * b;
    }
    let mut s = [0.0_f64; 8];
    for (a, b) in xc.zip(yc) {
        for l in 0..8 {
            s[l] += a[l] * b[l];
        }
    }
    ((s[0] + s[2]) + (s[4] + s[6])) + ((s[1] + s[3]) + (s[5] + s[7])) + tail
}

/// Sums of squares in `[NRM2_MIN, NRM2_MAX]` came out of [`dot`] accurate:
/// nothing overflowed, and whatever underflowed is below `ε` times the sum.
const NRM2_MIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;
/// See [`NRM2_MIN`].
const NRM2_MAX: f64 = 1.0 / NRM2_MIN;

/// Euclidean norm: one pass `sqrt(dot(x, x))` when the sum of squares is
/// safely inside the exponent range (`[2⁻⁹⁷⁰, 2⁹⁷⁰]`), else — all-zero,
/// tiny, huge or non-finite input — LAPACK `dnrm2`'s scaled two-pass form.
pub fn nrm2(x: &[f64]) -> f64 {
    let s = dot(x, x);
    if (NRM2_MIN..=NRM2_MAX).contains(&s) {
        s.sqrt()
    } else {
        nrm2_scaled(x)
    }
}

/// `amax·‖x/amax‖`: no overflow or underflow, two passes and a division
/// per element.
fn nrm2_scaled(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut s = 0.0;
    for &v in x {
        let t = v / amax;
        s += t * t;
    }
    amax * s.sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// `y := alpha * op(A) * x + beta * y`.
pub fn gemv(trans: Trans, alpha: f64, a: &View<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    match trans {
        Trans::No => {
            assert_eq!(x.len(), a.cols(), "gemv: x length mismatch");
            assert_eq!(y.len(), a.rows(), "gemv: y length mismatch");
            scal(beta, y);
            for j in 0..a.cols() {
                axpy(alpha * x[j], a.col(j), y);
            }
        }
        Trans::Yes => {
            assert_eq!(x.len(), a.rows(), "gemv^T: x length mismatch");
            assert_eq!(y.len(), a.cols(), "gemv^T: y length mismatch");
            for j in 0..a.cols() {
                y[j] = beta * y[j] + alpha * dot(a.col(j), x);
            }
        }
    }
}

/// Rank-one update `A += alpha * x * yᵀ`.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: &mut ViewMut<'_>) {
    assert_eq!(x.len(), a.rows(), "ger: x length mismatch");
    assert_eq!(y.len(), a.cols(), "ger: y length mismatch");
    for j in 0..a.cols() {
        axpy(alpha * y[j], x, a.col_mut(j));
    }
}

/// Dimensions of `op(A)` for a given transpose flag.
fn op_shape(t: Trans, a: &View<'_>) -> (usize, usize) {
    match t {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    }
}

/// General matrix multiply: `C := alpha * op(A) * op(B) + beta * C`.
///
/// One path: `C` is scaled by `beta`, then `gemm_nn` or `gemm_tn`
/// accumulates the product (a transposed `B` is copied out first — no
/// kernel of this workspace asks for one). Every entry of `C` sums its
/// products in an order fixed by the inner dimension alone, so the bits do
/// not depend on how `C` is tiled, split or offset.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    beta: f64,
    c: &mut ViewMut<'_>,
) {
    let (m, ka) = op_shape(ta, a);
    let (kb, n) = op_shape(tb, b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch ({ka} vs {kb})");
    assert_eq!(
        (c.rows(), c.cols()),
        (m, n),
        "gemm output shape mismatch: got {}x{}, want {m}x{n}",
        c.rows(),
        c.cols()
    );
    if beta != 1.0 {
        for j in 0..n {
            scal(beta, c.col_mut(j));
        }
    }
    let bt;
    let b = match tb {
        Trans::No => *b,
        Trans::Yes => {
            bt = Matrix::from_fn(kb, n, |l, j| b.get(j, l));
            bt.view()
        }
    };
    match ta {
        Trans::No => gemm_nn(alpha, a, &b, c),
        Trans::Yes => gemm_tn(alpha, a, &b, c),
    }
}

/// Rows of `A` packed together for [`gemm_nn`] and height of its register
/// tile.
const MR: usize = 4;
/// Width of the register tile of [`gemm_nn`].
const NR: usize = 4;
/// Rows of `A` per packed block of [`gemm_nn`]: `MC × KC` doubles (512 KiB)
/// stay in L2 while every column tile of `C` streams past them.
const MC: usize = 256;
/// Inner-dimension block of [`gemm_nn`].
const KC: usize = 256;

/// `C += alpha·A·B`, register-tiled.
///
/// `A` is packed block by block into chunks of [`MR`] rows (`[f64; MR]` per
/// inner index, zero-padded at the bottom edge) and the [`NR`] columns of
/// `B` under the current tile into `[[b; 2]; NR]` per inner index, so
/// [`tile_nn`] walks two contiguous streams and keeps an `MR × NR` tile of
/// `C` in registers. Each entry of `C` receives its products in ascending
/// inner index, one [`KC`] block after the other.
pub(crate) fn gemm_nn(alpha: f64, a: &View<'_>, b: &View<'_>, c: &mut ViewMut<'_>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut pack = vec![[0.0_f64; MR]; MC.min(m).div_ceil(MR) * KC.min(k)];
    let mut bpack = vec![[[0.0_f64; 2]; NR]; KC.min(k)];
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            for (rc, chunk) in pack.chunks_exact_mut(kc).take(mc.div_ceil(MR)).enumerate() {
                let rows = MR.min(mc - rc * MR);
                for (p, ap) in chunk.iter_mut().enumerate() {
                    *ap = [0.0; MR];
                    ap[..rows].copy_from_slice(&a.col(pc + p)[ic + rc * MR..][..rows]);
                }
            }
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                // A ragged last tile computes its last column again in the
                // spare slots and drops the copies.
                for (p, bp) in bpack[..kc].iter_mut().enumerate() {
                    *bp = std::array::from_fn(|j| [b.get(pc + p, j0 + j.min(nr - 1)); 2]);
                }
                for (rc, ap) in pack.chunks_exact(kc).take(mc.div_ceil(MR)).enumerate() {
                    let acc = tile_nn(ap, &bpack[..kc]);
                    let r0 = ic + rc * MR;
                    let rows = MR.min(m - r0);
                    for j in 0..nr {
                        for (cij, t) in c.col_mut(j0 + j)[r0..r0 + rows].iter_mut().zip(acc[j]) {
                            *cij += alpha * t;
                        }
                    }
                }
            }
        }
    }
}

/// `acc[j][l] = Σₚ ap[p][l]·bp[p][j][·]`, the register tile of [`gemm_nn`]:
/// `bp[p][j]` holds `B(p, j)` twice, one copy per lane of a row pair.
///
/// Never inlined: on its own the loop compiles to eight two-lane
/// accumulators; merged into its caller the vectorizer regroups them
/// around the write-back and pays in shuffles.
#[inline(never)]
fn tile_nn(ap: &[[f64; MR]], bp: &[[[f64; 2]; NR]]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0_f64; MR]; NR];
    for (ap, bp) in ap.iter().zip(bp) {
        for (acc, bp) in acc.iter_mut().zip(bp) {
            for l in 0..MR {
                acc[l] += ap[l] * bp[l % 2];
            }
        }
    }
    acc
}

/// Columns of `A` per register tile of [`gemm_tn`].
const TI: usize = 4;
/// Columns of `B` per register tile of [`gemm_tn`].
const TJ: usize = 2;
/// Rows per strip of [`gemm_tn`]: [`TI`] columns of `A` stay in L1 while
/// the strip of `B` streams past them.
const STRIP: usize = 512;

/// `C += alpha·Aᵀ·B`, register-tiled, columns read where they lie.
///
/// Row strips outermost. Within a strip each entry of `C` is the dot
/// product of a column of `A` with a column of `B`, [`TI`]`×`[`TJ`] of them
/// at once, each in two partial sums (even rows, odd rows) added at the
/// end of the strip; the strips add up in order.
pub(crate) fn gemm_tn(alpha: f64, a: &View<'_>, b: &View<'_>, c: &mut ViewMut<'_>) {
    let (rows, m, n) = (a.rows(), a.cols(), b.cols());
    for r0 in (0..rows).step_by(STRIP) {
        let r1 = rows.min(r0 + STRIP);
        for i0 in (0..m).step_by(TI) {
            let ni = TI.min(m - i0);
            // Ragged tiles repeat their last column and drop the copies.
            let at: [&[f64]; TI] = std::array::from_fn(|i| &a.col(i0 + i.min(ni - 1))[r0..r1]);
            for j0 in (0..n).step_by(TJ) {
                let nj = TJ.min(n - j0);
                let bt: [&[f64]; TJ] =
                    std::array::from_fn(|j| &b.col(j0 + j.min(nj - 1))[r0..r1]);
                let part = dot_tile(at, bt);
                for j in 0..nj {
                    for i in 0..ni {
                        let mut acc = part[i][j][0] + part[i][j][1];
                        if (r1 - r0) % 2 == 1 {
                            acc += at[i][r1 - r0 - 1] * bt[j][r1 - r0 - 1];
                        }
                        c.col_mut(j0 + j)[i0 + i] += alpha * acc;
                    }
                }
            }
        }
    }
}

/// `part[i][j] = [Σ even positions, Σ odd positions]` of `a[i]·b[j]` over
/// the whole pairs of the (equal-length) slices: the register tile of
/// [`gemm_tn`]. Never inlined, for the reason given at [`tile_nn`].
#[inline(never)]
fn dot_tile(a: [&[f64]; TI], b: [&[f64]; TJ]) -> [[[f64; 2]; TJ]; TI] {
    let [a0, a1, a2, a3] = a.map(|x| x.as_chunks::<2>().0);
    let [b0, b1] = b.map(|x| x.as_chunks::<2>().0);
    let mut part = [[[0.0_f64; 2]; TJ]; TI];
    for (((((a0, a1), a2), a3), b0), b1) in a0.iter().zip(a1).zip(a2).zip(a3).zip(b0).zip(b1) {
        for (part, ap) in part.iter_mut().zip([a0, a1, a2, a3]) {
            for (part, bp) in part.iter_mut().zip([b0, b1]) {
                for l in 0..2 {
                    part[l] += ap[l] * bp[l];
                }
            }
        }
    }
    part
}

/// In-place triangular multiply `B := op(T) * B` with `T` upper triangular.
///
/// `T` is `k × k`, `B` is `k × n`. Used by the compact-WY update where `T`
/// is the small per-panel triangular factor, so no blocking is needed:
/// each column of `B` is swept once with [`axpy`] (`T`) or [`dot`] (`Tᵀ`)
/// against the columns of `T`.
pub fn trmm_upper_left(trans: Trans, t: &View<'_>, b: &mut ViewMut<'_>) {
    let k = t.rows();
    assert_eq!(t.cols(), k, "trmm: T must be square");
    assert_eq!(b.rows(), k, "trmm: B row count must match T");
    for j in 0..b.cols() {
        let bj = b.col_mut(j);
        match trans {
            Trans::No => {
                // Ascending l: b[..l] has its terms below l, b[l] is intact.
                for l in 0..k {
                    let (head, rest) = bj.split_at_mut(l);
                    axpy(rest[0], &t.col(l)[..l], head);
                    rest[0] *= t.get(l, l);
                }
            }
            Trans::Yes => {
                // Descending i: b[..=i] is still the input.
                for i in (0..k).rev() {
                    bj[i] = dot(&t.col(i)[..=i], &bj[..=i]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
        let ao = match ta {
            Trans::No => a.clone(),
            Trans::Yes => a.transpose(),
        };
        let bo = match tb {
            Trans::No => b.clone(),
            Trans::Yes => b.transpose(),
        };
        let (m, k) = ao.shape();
        let n = bo.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|l| ao[(i, l)] * bo[(l, j)]).sum())
    }

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn nrm2_is_robust_to_scale() {
        let big = [3.0e150, 4.0e150];
        assert!((nrm2(&big) - 5.0e150).abs() / 5.0e150 < 1e-14);
        let small = [3.0e-200, 4.0e-200];
        assert!((nrm2(&small) - 5.0e-200).abs() / 5.0e-200 < 1e-14);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nrm2_fast_path_agrees_with_the_scaled_path() {
        // Within 2 ulp of each other up to the tile sizes; at length 1000
        // the scaled form's serial sum is several ulp off by itself, so
        // there the fast path is held to a compensated sum instead.
        for len in [1, 2, 7, 8, 9, 15, 16, 17, 64, 65, 1000] {
            for seed in 0..20 {
                let x = Matrix::random_uniform(len, 1, 100 * len as u64 + seed).into_vec();
                assert!((NRM2_MIN..=NRM2_MAX).contains(&dot(&x, &x)), "ordinary data is in the window");
                let reference = if len <= 65 {
                    nrm2_scaled(&x)
                } else {
                    let (mut sum, mut comp) = (0.0_f64, 0.0_f64);
                    for v in &x {
                        let t = sum + v * v;
                        comp += (sum - t) + v * v;
                        sum = t;
                    }
                    (sum + comp).sqrt()
                };
                let fast = nrm2(&x);
                assert!((fast - reference).abs() <= 2.0 * f64::EPSILON * reference, "len {len}: {fast:e} vs {reference:e}");
            }
        }
    }

    #[test]
    fn nrm2_outside_the_window_takes_the_scaled_path() {
        // Squares that overflow, underflow to subnormals or vanish: the
        // answer is still 5·scale to the last bit or two.
        for scale in [1e150, 1e-150, 1e300, 1e-300, f64::MIN_POSITIVE, f64::MIN_POSITIVE / 1024.0] {
            let x = [3.0 * scale, 0.0, -4.0 * scale];
            assert!(!(NRM2_MIN..=NRM2_MAX).contains(&dot(&x, &x)), "scale {scale:e} is outside");
            assert!((nrm2(&x) - 5.0 * scale).abs() <= 2.0 * f64::EPSILON * 5.0 * scale, "scale {scale:e}");
        }
        // The edges of the window itself are exact powers of two.
        assert_eq!(nrm2(&[NRM2_MIN.sqrt()]), NRM2_MIN.sqrt());
        assert_eq!(nrm2(&[NRM2_MAX.sqrt()]), NRM2_MAX.sqrt());
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0; 9]), 0.0);
        assert!(nrm2(&[1.0, f64::NAN, 2.0]).is_nan());
        assert_eq!(nrm2(&[1.0, f64::NEG_INFINITY, 2.0]), f64::INFINITY);
    }

    #[test]
    fn gemv_both_transposes() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let x = [1.0, -1.0];
        let mut y = [1.0, 1.0, 1.0];
        gemv(Trans::No, 1.0, &a.view(), &x, 0.0, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
        let x3 = [1.0, 0.0, -1.0];
        let mut y2 = [0.0, 0.0];
        gemv(Trans::Yes, 2.0, &a.view(), &x3, 0.0, &mut y2);
        assert_eq!(y2, [-8.0, -8.0]);
    }

    #[test]
    fn ger_rank_one() {
        let mut a = Matrix::zeros(2, 3);
        ger(
            2.0,
            &[1.0, 2.0],
            &[1.0, 0.0, -1.0],
            &mut a.view_mut(),
        );
        let want =
            Matrix::from_rows(&[vec![2.0, 0.0, -2.0], vec![4.0, 0.0, -4.0]]).unwrap();
        assert!(a.approx_eq(&want, 0.0));
    }

    #[test]
    fn gemm_matches_naive_all_transposes() {
        let a = Matrix::random_uniform(7, 5, 1);
        let b57 = Matrix::random_uniform(5, 6, 2);
        let b75 = Matrix::random_uniform(6, 5, 3);
        let a57 = Matrix::random_uniform(5, 7, 4);
        for (ta, tb, aa, bb) in [
            (Trans::No, Trans::No, &a, &b57),
            (Trans::No, Trans::Yes, &a, &b75),
            (Trans::Yes, Trans::No, &a57, &b57),
            (Trans::Yes, Trans::Yes, &a57, &b75),
        ] {
            let (m, _) = op_shape(ta, &aa.view());
            let (_, n) = op_shape(tb, &bb.view());
            let mut c = Matrix::zeros(m, n);
            gemm(ta, tb, 1.0, &aa.view(), &bb.view(), 0.0, &mut c.view_mut());
            let want = naive_gemm(ta, tb, aa, bb);
            assert!(c.approx_eq(&want, 1e-12), "mismatch for ({ta:?},{tb:?})");
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::random_uniform(4, 3, 5);
        let b = Matrix::random_uniform(3, 4, 6);
        let c0 = Matrix::random_uniform(4, 4, 7);
        let mut c = c0.clone();
        gemm(Trans::No, Trans::No, 2.0, &a.view(), &b.view(), 0.5, &mut c.view_mut());
        let want = Matrix::from_fn(4, 4, |i, j| {
            0.5 * c0[(i, j)] + 2.0 * (0..3).map(|l| a[(i, l)] * b[(l, j)]).sum::<f64>()
        });
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn packed_path_handles_ragged_blocks() {
        // Dimensions straddling the MC/KC boundaries.
        for (m, k) in [(257, 511), (512, 257), (300, 300)] {
            let a = Matrix::random_uniform(m, k, 41);
            let b = Matrix::random_uniform(k, 3, 42);
            let mut c = Matrix::zeros(m, 3);
            gemm(Trans::No, Trans::No, 1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut());
            let want = naive_gemm(Trans::No, Trans::No, &a, &b);
            assert!(c.approx_eq(&want, 1e-10), "m={m} k={k}");
        }
    }

    #[test]
    fn gemm_on_subviews() {
        let big = Matrix::random_uniform(10, 10, 13);
        let a = big.sub(1, 1, 4, 3);
        let b = big.sub(2, 4, 3, 5);
        let mut c = Matrix::zeros(4, 5);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c.view_mut());
        let want = naive_gemm(Trans::No, Trans::No, &a.to_matrix(), &b.to_matrix());
        assert!(c.approx_eq(&want, 1e-13));
    }

    #[test]
    fn trmm_upper_both_transposes() {
        let t = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 4.0, 5.0], vec![0.0, 0.0, 6.0]])
            .unwrap();
        let b0 = Matrix::random_uniform(3, 4, 21);
        // T * B
        let mut b = b0.clone();
        trmm_upper_left(Trans::No, &t.view(), &mut b.view_mut());
        let want = t.upper_triangular().matmul(&b0);
        assert!(b.approx_eq(&want, 1e-13));
        // T^T * B
        let mut b = b0.clone();
        trmm_upper_left(Trans::Yes, &t.view(), &mut b.view_mut());
        let want = t.upper_triangular().transpose().matmul(&b0);
        assert!(b.approx_eq(&want, 1e-13));
    }

    #[test]
    #[should_panic(expected = "gemm inner dimension mismatch")]
    fn gemm_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(Trans::No, Trans::No, 1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut());
    }
}
