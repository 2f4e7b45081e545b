//! Out-of-core TSQR: the flat-tree variant the paper cites from Gunter &
//! van de Geijn \[26\] ("CAQR with a flat tree has been implemented in the
//! context of out-of-core QR factorization", §II-C).
//!
//! A tall matrix that does not fit in memory is streamed through a
//! bounded-memory window one row-block at a time: the first block is
//! QR-factored, and every further block is folded into the running R with
//! one structured [`tsqr_linalg::stacked::tpqrt_dense`] elimination. Peak
//! resident memory is one block plus the `n × n` R — independent of M.
//!
//! A right-hand side can stream along: `Qᵀ·b` is then accumulated in the
//! same single pass — enough for streaming least squares.

use tsqr_linalg::flops;
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{orm2r, Side, Trans};
use tsqr_linalg::stacked::{tpmqrt_dense, tpqrt_dense};
use tsqr_linalg::tri::{trsv, Triangle};
use tsqr_linalg::Matrix;

/// A bounded-memory streaming QR accumulator.
///
/// Feed row blocks top-to-bottom with [`StreamingQr::push_block`]; read the
/// R factor (and, if enabled, solve least-squares problems) when done.
pub struct StreamingQr {
    n: usize,
    r: Option<Matrix>,
    /// Rows ingested so far.
    rows_seen: u64,
    /// Flops spent (closed forms) — what an out-of-core cost model charges.
    pub flops: u64,
    /// Running c = leading rows of Qᵀ·b, when a right-hand side streams
    /// along.
    c: Option<Vec<f64>>,
}

impl StreamingQr {
    /// A new accumulator for matrices with `n` columns (R-factor only).
    pub fn new(n: usize) -> Self {
        StreamingQr { n, r: None, rows_seen: 0, flops: 0, c: None }
    }

    /// Ingests the next row block (top-to-bottom order). When `rhs` is
    /// given it must hold one value per block row; the accumulator then
    /// maintains `c = (Qᵀ·b)[..n]` for [`StreamingQr::solve`].
    pub fn push_block(&mut self, block: &Matrix, rhs: Option<&[f64]>) {
        assert_eq!(block.cols(), self.n, "block has wrong column count");
        let rows = block.rows();
        assert!(rows > 0, "empty block");
        if let Some(b) = rhs {
            assert_eq!(b.len(), rows, "rhs length mismatch");
            assert!(
                self.c.is_some() || self.rows_seen == 0,
                "rhs must stream along from the first block"
            );
        }
        self.rows_seen += rows as u64;
        match self.r.take() {
            None => {
                assert!(rows >= self.n, "first block must have at least n rows");
                let f = QrFactors::compute(block, 32);
                self.flops += flops::geqrf(rows as u64, self.n as u64);
                self.r = Some(f.r().upper_triangular_padded());
                if let Some(b) = rhs {
                    let mut c = Matrix::from_col_major(rows, 1, b.to_vec()).expect("rhs");
                    orm2r(Side::Left, Trans::Yes, &f.factors.view(), &f.tau, &mut c.view_mut());
                    self.flops += 4 * rows as u64 * self.n as u64;
                    self.c = Some((0..self.n).map(|i| c[(i, 0)]).collect());
                }
            }
            Some(mut r) => {
                let mut b = block.clone();
                let f = tpqrt_dense(&mut r, &mut b);
                self.flops += flops::tpqrt_dense(self.n as u64, rows as u64);
                self.r = Some(r);
                if let Some(bvec) = rhs {
                    let c = self.c.as_mut().expect("rhs streamed from the start");
                    let mut c1 = Matrix::from_col_major(self.n, 1, c.clone()).expect("c");
                    let mut c2 =
                        Matrix::from_col_major(rows, 1, bvec.to_vec()).expect("rhs column");
                    tpmqrt_dense(Trans::Yes, &f, &mut c1, &mut c2);
                    self.flops += flops::tpmqrt_dense(self.n as u64, rows as u64, 1);
                    *c = (0..self.n).map(|i| c1[(i, 0)]).collect();
                }
            }
        }
    }

    /// The current `n × n` R factor (of everything pushed so far).
    pub fn r(&self) -> &Matrix {
        self.r.as_ref().expect("no blocks pushed yet")
    }

    /// Solves `min ‖A·x − b‖` for the streamed `A` and `b` (requires a
    /// right-hand side to have streamed along with every block).
    pub fn solve(&self) -> Vec<f64> {
        let r = self.r();
        let mut x = self.c.clone().expect("no right-hand side was streamed");
        trsv(Triangle::Upper, &r.view(), &mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use tsqr_linalg::verify::r_distance;

    /// One-call out-of-core QR of the seeded workload matrix, streaming in
    /// blocks of `block_rows`: returns the R factor while never holding more
    /// than one block in memory.
    fn oocqr_workload(seed: u64, m: u64, n: usize, block_rows: usize) -> Matrix {
        let mut acc = StreamingQr::new(n);
        let mut row0 = 0u64;
        while row0 < m {
            let rows = (block_rows as u64).min(m - row0).max(if row0 == 0 { n as u64 } else { 1 });
            let block = workload::block(seed, row0, rows as usize, n);
            acc.push_block(&block, None);
            row0 += rows;
        }
        acc.r().clone()
    }

    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        QrFactors::compute(&workload::full_matrix(seed, m, n), 16).r().upper_triangular_padded()
    }

    #[test]
    fn streaming_r_matches_reference_for_various_block_sizes() {
        let (m, n, seed) = (500u64, 7usize, 121u64);
        for block_rows in [7usize, 16, 100, 500, 333] {
            let r = oocqr_workload(seed, m, n, block_rows);
            assert!(
                r_distance(&r, &reference_r(seed, m as usize, n)) < 1e-10,
                "block_rows = {block_rows}"
            );
        }
    }

    #[test]
    fn streaming_least_squares() {
        let (m, n, seed) = (300usize, 6usize, 125u64);
        let a = workload::full_matrix(seed, m, n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let b: Vec<f64> = (0..m).map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum()).collect();
        let mut acc = StreamingQr::new(n);
        let mut r0 = 0;
        for rows in [50usize, 120, 80, 50] {
            let block = a.sub_matrix(r0, 0, rows, n);
            acc.push_block(&block, Some(&b[r0..r0 + rows]));
            r0 += rows;
        }
        let x = acc.solve();
        for (g, w) in x.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn flop_count_tracks_closed_forms() {
        let (m, n) = (4000u64, 16usize);
        let mut acc = StreamingQr::new(n);
        let block_rows = 250usize;
        let mut row0 = 0u64;
        while row0 < m {
            let block = workload::block(1, row0, block_rows, n);
            acc.push_block(&block, None);
            row0 += block_rows as u64;
        }
        // Leading order: first block geqrf + (blocks−1) dense eliminations
        // at 2·rows·n² each ≈ 2·m·n² total.
        let expect = 2.0 * m as f64 * (n * n) as f64;
        let got = acc.flops as f64;
        assert!((got / expect - 1.0).abs() < 0.1, "flops {got} vs ~{expect}");
    }

    #[test]
    fn rows_seen_and_single_block_degenerates_to_qr() {
        let a = workload::full_matrix(9, 50, 4);
        let mut acc = StreamingQr::new(4);
        acc.push_block(&a, None);
        assert_eq!(acc.rows_seen, 50);
        let want = QrFactors::compute(&a, 8).r().upper_triangular_padded();
        assert!(r_distance(acc.r(), &want) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "first block must have at least n rows")]
    fn short_first_block_panics() {
        let mut acc = StreamingQr::new(8);
        acc.push_block(&Matrix::zeros(4, 8), None);
    }
}
