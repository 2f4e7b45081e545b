//! The dense kernels at the sizes their code branches on: every chunk,
//! tile, strip and block boundary of `blas`/`qr`/`stacked` from both
//! sides, on sub-views with `ld > rows` and a non-zero offset, against
//! plain-loop or one-reflector-at-a-time references. (The properties of
//! `proptest_kernels.rs` stop below m = 60, n = 12.)

use tsqr_linalg::blas::{dot, gemm};
use tsqr_linalg::householder::larf_left;
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{larfb_left, larft, q_times_upper};
use tsqr_linalg::stacked::{expand_upper, stack_qr_dense};
use tsqr_linalg::verify::is_upper_triangular;
use tsqr_linalg::Matrix;

const MS: [usize; 10] = [1, 3, 4, 5, 8, 9, 31, 33, 257, 513];
const KNS: [usize; 10] = [1, 2, 3, 4, 5, 15, 16, 17, 64, 65];
const TOL: f64 = 1e-12;

/// `x` set into a larger matrix of `fill`, at an offset that is a multiple
/// of no tile size: the window is `host.sub(3, 2, rows, cols)`, `ld > rows`.
fn hosted(x: &Matrix, fill: f64) -> Matrix {
    let mut host = Matrix::from_fn(x.rows() + 8, x.cols() + 3, |_, _| fill);
    host.set_sub(3, 2, x);
    host
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn dot_stays_within_the_bound_of_an_eight_way_sum() {
    for len in (0..=70).chain([1000]) {
        let x = Matrix::random_uniform(len, 1, 2 * len as u64).into_vec();
        let y = Matrix::random_uniform(len, 1, 2 * len as u64 + 1).into_vec();
        // Neumaier's compensated sum of the rounded products.
        let (mut sum, mut comp, mut abs) = (0.0_f64, 0.0_f64, 0.0_f64);
        for (a, b) in x.iter().zip(&y) {
            let p = a * b;
            let t = sum + p;
            comp += if sum.abs() >= p.abs() { (sum - t) + p } else { (p - t) + sum };
            sum = t;
            abs += p.abs();
        }
        let err = (dot(&x, &y) - (sum + comp)).abs();
        let bound = (len as f64 / 8.0 + 8.0) * f64::EPSILON * abs;
        assert!(err <= bound, "len {len}: |err| = {err:e} > {bound:e}");
        assert_eq!(dot(&x, &y).to_bits(), dot(&x, &y).to_bits());
    }
}

fn naive_product(ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
    let at = |i: usize, l: usize| if ta == Trans::No { a[(i, l)] } else { a[(l, i)] };
    let bt = |l: usize, j: usize| if tb == Trans::No { b[(l, j)] } else { b[(j, l)] };
    let (m, k) = if ta == Trans::No { a.shape() } else { (a.cols(), a.rows()) };
    let n = if tb == Trans::No { b.cols() } else { b.rows() };
    Matrix::from_fn(m, n, |i, j| (0..k).map(|l| at(i, l) * bt(l, j)).sum())
}

#[test]
fn gemm_matches_the_triple_loop_across_every_tile_and_block_edge() {
    for ta in [Trans::No, Trans::Yes] {
        for tb in [Trans::No, Trans::Yes] {
            for m in MS {
                for k in KNS {
                    // The full m × k × n grid for the two products with
                    // callers; the transposed-B copies share their code.
                    let ns: &[usize] = if tb == Trans::No { &KNS } else { &[1, 5, 65] };
                    for &n in ns {
                        let seed = (m * 10_000 + k * 100 + n) as u64;
                        let shape = |t, r, c| if t == Trans::No { (r, c) } else { (c, r) };
                        let (ar, ac) = shape(ta, m, k);
                        let (br, bc) = shape(tb, k, n);
                        let a = Matrix::random_uniform(ar, ac, seed);
                        let b = Matrix::random_uniform(br, bc, seed + 1);
                        let c0 = Matrix::random_uniform(m, n, seed + 2);
                        let ab = naive_product(ta, tb, &a, &b);
                        let want =
                            Matrix::from_fn(m, n, |i, j| 0.5 * c0[(i, j)] - 1.5 * ab[(i, j)]);
                        let (ha, hb) = (hosted(&a, f64::NAN), hosted(&b, f64::NAN));
                        let mut hc = hosted(&c0, 7.0);
                        gemm(
                            ta,
                            tb,
                            -1.5,
                            &ha.sub(3, 2, ar, ac),
                            &hb.sub(3, 2, br, bc),
                            0.5,
                            &mut hc.view_mut().sub_mut(3, 2, m, n),
                        );
                        let got = hc.sub_matrix(3, 2, m, n);
                        assert!(got.approx_eq(&want, TOL), "{ta:?}{tb:?} {m}x{k}x{n}");
                        // Nothing outside the window was written.
                        hc.set_sub(3, 2, &Matrix::from_fn(m, n, |_, _| 7.0));
                        assert!(hc.as_slice().iter().all(|&x| x == 7.0), "{m}x{k}x{n}");
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_bits_do_not_depend_on_how_c_is_split_or_where_it_sits() {
    // What is left to pin now that `gemm` has one path: a column of C gets
    // the same bits whichever tile it falls in and whatever the offset of
    // the window in its allocation.
    for ta in [Trans::No, Trans::Yes] {
        for (m, k, n, cut) in [(37, 300, 23, 9), (513, 65, 10, 3), (260, 513, 7, 2)] {
            let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
            let a = Matrix::random_uniform(ar, ac, 31);
            let b = Matrix::random_uniform(k, n, 32);
            let c0 = Matrix::random_uniform(m, n, 33);
            let mut whole = c0.clone();
            gemm(ta, Trans::No, 1.5, &a.view(), &b.view(), 0.5, &mut whole.view_mut());
            let mut halves = c0.clone();
            {
                let mut view = halves.view_mut();
                let (mut left, mut right) = view.split_cols_at_mut(cut);
                gemm(ta, Trans::No, 1.5, &a.view(), &b.sub(0, 0, k, cut), 0.5, &mut left);
                gemm(ta, Trans::No, 1.5, &a.view(), &b.sub(0, cut, k, n - cut), 0.5, &mut right);
            }
            assert!(same_bits(&whole, &halves), "{ta:?} {m}x{k}x{n}: whole vs halves");
            let (ha, hb, mut hc) = (hosted(&a, 0.0), hosted(&b, 0.0), hosted(&c0, 0.0));
            gemm(
                ta,
                Trans::No,
                1.5,
                &ha.sub(3, 2, ar, ac),
                &hb.sub(3, 2, k, n),
                0.5,
                &mut hc.view_mut().sub_mut(3, 2, m, n),
            );
            assert!(same_bits(&whole, &hc.sub_matrix(3, 2, m, n)), "{ta:?} {m}x{k}x{n}: offset");
        }
    }
}

/// `C := op(Q)·C` one reflector at a time.
fn apply_reflectors(trans: Trans, f: &QrFactors, k: usize, c: &mut Matrix) {
    let (m, n) = c.shape();
    let mut work = vec![0.0; n];
    for step in 0..k {
        let j = if trans == Trans::Yes { step } else { k - 1 - step };
        let v_tail = &f.factors.col(j)[j + 1..];
        larf_left(f.tau[j], v_tail, &mut c.view_mut().sub_mut(j, 0, m - j, n), &mut work);
    }
}

#[test]
fn larft_and_larfb_match_one_reflector_at_a_time() {
    for m in MS {
        for k in KNS.into_iter().filter(|&k| k <= m) {
            let seed = (m * 100 + k) as u64;
            let f = QrFactors::compute_unblocked(&Matrix::random_uniform(m, k, seed));
            let hv = hosted(&f.factors, f64::NAN);
            let t = larft(&hv.sub(3, 2, m, k), &f.tau);
            assert!(same_bits(&t, &larft(&f.factors.view(), &f.tau)), "larft {m}x{k}: offset");
            assert!(t.approx_eq(&t.upper_triangular(), 0.0), "larft {m}x{k}: lower part");
            for n in KNS {
                let c0 = Matrix::random_uniform(m, n, seed + n as u64);
                for trans in [Trans::Yes, Trans::No] {
                    let mut want = c0.clone();
                    apply_reflectors(trans, &f, k, &mut want);
                    let mut hc = hosted(&c0, 7.0);
                    let mut window = hc.view_mut();
                    larfb_left(
                        trans,
                        &hv.sub(3, 2, m, k),
                        &t.view(),
                        &mut window.sub_mut(3, 2, m, n),
                    );
                    let got = hc.sub_matrix(3, 2, m, n);
                    assert!(got.approx_eq(&want, TOL), "{trans:?} {m}x{k}x{n}");
                    // Same values at another offset: same bits.
                    let mut again = c0.clone();
                    larfb_left(trans, &f.factors.view(), &t.view(), &mut again.view_mut());
                    assert!(same_bits(&got, &again), "{trans:?} {m}x{k}x{n}: offset");
                    hc.set_sub(3, 2, &Matrix::from_fn(m, n, |_, _| 7.0));
                    assert!(hc.as_slice().iter().all(|&x| x == 7.0), "{m}x{k}x{n}: outside");
                }
            }
        }
    }
}

#[test]
fn blocked_apply_q_matches_one_reflector_at_a_time() {
    for m in MS {
        for k in KNS.into_iter().filter(|&k| k <= m) {
            let seed = (m * 100 + k) as u64;
            // Factored with `geqrf`, so the recursive panel code is what
            // produced the reflectors being applied.
            let f = QrFactors::compute(&Matrix::random_uniform(m, k, seed), 64);
            for n in [1, 5, 17, 65] {
                let c0 = Matrix::random_uniform(m, n, seed + n as u64);
                for trans in [Trans::Yes, Trans::No] {
                    let mut want = c0.clone();
                    apply_reflectors(trans, &f, k, &mut want);
                    let mut hc = hosted(&c0, 7.0);
                    let mut window = hc.view_mut();
                    let mut c = window.sub_mut(3, 2, m, n);
                    orm2r(Side::Left, trans, &f.factors.view(), &f.tau, &mut c);
                    assert!(
                        hc.sub_matrix(3, 2, m, n).approx_eq(&want, TOL),
                        "{trans:?} {m}x{k}x{n}"
                    );
                }
            }
            // The thin Q is Q·[I; 0], and a second call gives the same bits.
            let mut want = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
            apply_reflectors(Trans::No, &f, k, &mut want);
            let q = f.q_thin();
            assert!(q.approx_eq(&want, TOL), "org2r {m}x{k}");
            assert!(same_bits(&q, &f.q_thin()));
            let again = QrFactors::compute(&Matrix::random_uniform(m, k, seed), 64);
            assert!(same_bits(&f.factors, &again.factors) && f.tau == again.tau, "geqrf {m}x{k}");
        }
    }
}

#[test]
fn geqrf_agrees_with_geqr2_across_the_recursion_and_panel_edges() {
    for (m, n) in [(9, 9), (40, 17), (70, 33), (300, 64), (300, 65), (520, 130)] {
        let a = Matrix::random_uniform(m, n, (m + n) as u64);
        let reference = QrFactors::compute_unblocked(&a);
        for nb in [8, 9, 16, 17, 64, 200] {
            let ha = hosted(&a, 7.0);
            let mut factored = ha.clone();
            let mut tau = vec![0.0; n];
            geqrf(&mut factored.view_mut().sub_mut(3, 2, m, n), &mut tau, nb);
            let f = factored.sub_matrix(3, 2, m, n);
            assert!(f.approx_eq(&reference.factors, 1e-11), "{m}x{n} nb={nb}");
            factored.set_sub(3, 2, &a);
            assert!(same_bits(&factored, &ha), "{m}x{n} nb={nb}: wrote outside the window");
        }
    }
}

#[test]
fn stacked_triangles_match_the_dense_stack_at_every_chunk_edge() {
    for n in [1, 2, 7, 8, 9, 64, 65] {
        // R factors of tall random blocks: triangles as TSQR meets them
        // (a random triangle is ill-conditioned beyond comparison at n = 64).
        let r_of =
            |seed| QrFactors::compute_unblocked(&Matrix::random_uniform(3 * n + 5, n, seed)).r();
        let (r1, r2) = (r_of(100 + n as u64), r_of(200 + n as u64));
        let (mut a, mut b) = (r1.clone(), r2.clone());
        let f = tpqrt(&mut a, &mut b);
        let dense = stack_qr_dense(&r1, &r2);
        let dist = tsqr_linalg::verify::r_distance(&a.upper_triangular_padded(), &dense.r());
        assert!(dist <= 1e-11, "tpqrt n={n}: {dist:e}");
        // Qᵀ·[C1; C2] by `tpmqrt` against the dense stack's Qᵀ·C, row by
        // row up to the sign of each reflector pair.
        let c1 = Matrix::random_uniform(n, 5, 300 + n as u64);
        let c2 = Matrix::random_uniform(n, 5, 400 + n as u64);
        let (mut t1, mut t2) = (c1.clone(), c2.clone());
        tpmqrt(Trans::Yes, &f, &mut t1, &mut t2);
        let mut stacked = c1.vstack(&c2);
        dense.apply_qt_left(&mut stacked);
        for i in 0..n {
            let sign = (a[(i, i)] * dense.factors[(i, i)]).signum();
            for j in 0..5 {
                assert!(
                    (t1[(i, j)] - sign * stacked[(i, j)]).abs() <= 1e-11,
                    "tpmqrt n={n} ({i},{j})"
                );
            }
        }
        let (mut u1, mut u2) = (c1.clone(), c2.clone());
        tpmqrt(Trans::Yes, &f, &mut u1, &mut u2);
        assert!(same_bits(&t1, &u1) && same_bits(&t2, &u2), "tpmqrt n={n}: second call");
        // And back: Q·Qᵀ is the identity.
        tpmqrt(Trans::No, &f, &mut t1, &mut t2);
        assert!(t1.approx_eq(&c1, TOL) && t2.approx_eq(&c2, TOL), "tpmqrt round trip n={n}");
        // Same input, same bits.
        let (mut a2, mut b2) = (r1.clone(), r2.clone());
        let f2 = tpqrt(&mut a2, &mut b2);
        assert!(same_bits(&a, &a2) && same_bits(&f.v, &f2.v) && f.tau == f2.tau, "n={n}");
    }
}

/// The widths the down-sweep expansions are checked at: every `n` up to
/// past two `APPLY_NB` = 16 blocks, then `real-n256-q`'s.
fn expansion_widths() -> impl Iterator<Item = usize> {
    (1..=40).chain([64, 256])
}

/// The coupling blocks a down-sweep meets: a seeded upper triangle and the
/// root's identity.
fn coupling_blocks(n: usize, seed: u64) -> [Matrix; 2] {
    [Matrix::random_uniform(n, n, seed).upper_triangular(), Matrix::identity(n)]
}

#[test]
fn expand_upper_is_tpmqrt_on_the_dense_pair_bit_for_bit() {
    for n in expansion_widths() {
        let seed = 500 + n as u64;
        let r1 = Matrix::random_uniform(n, n, seed).upper_triangular();
        // A zero first column of R2: reflector 0 has τ = 0.
        let mut r2 = Matrix::random_uniform(n, n, seed + 1).upper_triangular();
        r2.col_mut(0).fill(0.0);
        let f = tpqrt(&mut r1.clone(), &mut r2);
        assert_eq!(f.tau[0], 0.0, "n={n}");
        for e in coupling_blocks(n, seed + 2) {
            let (mut want1, mut want2) = (e.clone(), Matrix::zeros(n, n));
            tpmqrt(Trans::No, &f, &mut want1, &mut want2);
            let mut got1 = e;
            let got2 = expand_upper(&f, &mut got1);
            assert!(same_bits(&got1, &want1) && same_bits(&got2, &want2), "n={n}");
            assert!(is_upper_triangular(&got1) && is_upper_triangular(&got2), "n={n}");
        }
    }
}

#[test]
fn q_times_upper_is_orm2r_on_the_dense_stack_bit_for_bit() {
    for n in expansion_widths() {
        for m in [n, n + 1, 2 * n + 3, 512].into_iter().filter(|&m| m >= n) {
            let seed = (m * 1000 + n) as u64;
            // A zero column: its reflector has τ = 0.
            let mut a = Matrix::random_uniform(m, n, seed);
            a.col_mut(n / 2).fill(0.0);
            let f = QrFactors::compute(&a, 64);
            assert_eq!(f.tau[n / 2], 0.0, "{m}x{n}");
            for e in coupling_blocks(n, seed + 1) {
                let mut want = Matrix::zeros(m, n);
                want.set_sub(0, 0, &e);
                orm2r(Side::Left, Trans::No, &f.factors.view(), &f.tau, &mut want.view_mut());
                let got = q_times_upper(&f.factors.view(), &f.tau, &e);
                assert!(same_bits(&got, &want), "{m}x{n}");
            }
        }
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the check is a debug_assert")]
#[should_panic(expected = "expand_upper: E must be upper triangular")]
fn expand_upper_refuses_a_dense_e() {
    let n = 5;
    let f = tpqrt(&mut Matrix::identity(n), &mut Matrix::identity(n));
    expand_upper(&f, &mut Matrix::random_uniform(n, n, 1));
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the check is a debug_assert")]
#[should_panic(expected = "q_times_upper: E must be upper triangular")]
fn q_times_upper_refuses_a_dense_e() {
    let f = QrFactors::compute(&Matrix::random_uniform(9, 5, 2), 64);
    q_times_upper(&f.factors.view(), &f.tau, &Matrix::random_uniform(5, 5, 3));
}
