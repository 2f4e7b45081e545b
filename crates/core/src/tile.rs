//! What a rank holds while it runs a distributed schedule.
//!
//! Every rank program of this crate is written **once**, generic over a
//! [`Tile`]: a dense block that is either a [`Matrix`] (numbers — tests,
//! examples, `--real`) or a [`Dims`] (the block's shape only — every
//! paper-scale figure, the bench gate, the tuner's replay). The generic
//! code *is* the schedule: phases, sends, receives, all-reduces and the
//! closed-form [`tsqr_linalg::flops`] charges; a `Tile` supplies the data
//! operations in between. Dispatch is static, so the `Matrix` instance is
//! the numeric program and the `Dims` instance moves no numbers — which is
//! also what decides how a run is driven ([`Tile::NUMERIC`]): `Matrix`
//! ranks on one OS thread each, `Dims` ranks as futures on one thread.
//!
//! Both charge the same traffic because a payload's price depends on its
//! shape alone: `gridmpi` prices a `Matrix` or `Vec<f64>` by its length,
//! [`Dims`] prices itself and [`packed_bytes`] an R factor from the shape.
//! `tests/proptest_distributed.rs` pins that the two meet on every send of
//! every algorithm; the BENCH/COMMCHECK goldens pin the `Dims` instance.

use tsqr_gridmpi::message::{Phantom, WirePayload};
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{larfb_left, larft};

use crate::tsqr::{pack_upper, unpack_upper};

/// Wire size of an `n × n` R factor, which travels packed: the upper
/// triangle only, `n(n+1)/2` words — the `log₂(P)·N²/2` volume of Table I.
pub fn packed_bytes(n: usize) -> u64 {
    8 * (n * (n + 1) / 2) as u64
}

/// A dense block as the rank programs see it. The provided bodies are the
/// *shape* of each operation — all a payload's price depends on — so
/// [`Dims`] takes every one of them; [`Matrix`] overrides each with the
/// kernel that also computes the numbers. (The column sweep of
/// [`crate::scalapack`] adds its kernels in `scalapack::PanelTile`.)
pub trait Tile: WirePayload + Clone {
    /// An R factor on the wire (see [`packed_bytes`]).
    type Packed: WirePayload;
    /// The implicit Q of a stacked-triangles combine.
    type Combine;
    /// Whether the block holds numbers. Ranks on a numeric tile run real
    /// kernels side by side, so a run gives each an OS thread; ranks on
    /// dimensions alone compute nothing, so they share the caller's thread
    /// (what [`crate::experiment::run_experiment`] does with it).
    const NUMERIC: bool = false;

    /// `(rows, cols)`.
    fn shape(&self) -> (usize, usize);
    /// A `rows × cols` block of zeros.
    fn zeros(rows: usize, cols: usize) -> Self;
    /// The wire format of an upper-triangular `n × n` block.
    fn pack_upper(&self) -> Self::Packed;
    /// QR of `[self; R2]` for a received R2: `self` becomes the combined R.
    fn tpqrt(&mut self, r2: Self::Packed) -> Self::Combine;

    /// The `n × n` identity.
    fn identity(n: usize) -> Self {
        Self::zeros(n, n)
    }
    /// A copy of the `nr × nc` window at `(r0, c0)`.
    fn sub_matrix(&self, _r0: usize, _c0: usize, nr: usize, nc: usize) -> Self {
        Self::zeros(nr, nc)
    }
    /// Writes `src` into the window at `(r0, c0)`.
    fn set_sub(&mut self, _r0: usize, _c0: usize, _src: &Self) {}
    /// The upper triangle of the leading square block.
    fn upper_triangular(&self) -> Self {
        let (rows, cols) = self.shape();
        Self::zeros(rows.min(cols), cols)
    }
    /// Elementwise `self + other` (the all-reduce operator).
    fn add(self, _other: Self) -> Self {
        self
    }
    /// `[c1; c2] := op(Q)·[c1; c2]` for a combine's implicit Q.
    fn tpmqrt(_trans: Trans, _f: &Self::Combine, _c1: &mut Self, _c2: &mut Self) {}
    /// Blocked QR (inner panel width `nb`), in place, of the `rows × b`
    /// window at `(off, col0)`, with Qᵀ applied to the columns right of
    /// it: a TSQR leaf (the whole block) or CAQR's step 1 (the active
    /// suffix of one panel). Returns the reflector scales τ and the
    /// `b × b` R.
    fn factor_panel(&mut self, _off: usize, _col0: usize, rows: usize, b: usize, _nb: usize) -> (Vec<f64>, Self) {
        (Vec::new(), Self::zeros(rows.min(b), b))
    }
    /// `c := Q·c` for the Q of a whole block factored by
    /// [`Tile::factor_panel`] (`self`, with its τ).
    fn apply_q(&self, _tau: &[f64], _c: &mut Self) {}
}

impl Tile for Matrix {
    type Packed = Vec<f64>;
    type Combine = StackedFactors;
    const NUMERIC: bool = true;

    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }
    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::zeros(rows, cols)
    }
    fn pack_upper(&self) -> Vec<f64> {
        pack_upper(self)
    }
    fn tpqrt(&mut self, r2: Vec<f64>) -> StackedFactors {
        let mut r2 = unpack_upper(self.rows(), &r2);
        tpqrt(self, &mut r2)
    }
    fn identity(n: usize) -> Self {
        Matrix::identity(n)
    }
    fn sub_matrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Self {
        Matrix::sub_matrix(self, r0, c0, nr, nc)
    }
    fn set_sub(&mut self, r0: usize, c0: usize, src: &Self) {
        Matrix::set_sub(self, r0, c0, src)
    }
    fn upper_triangular(&self) -> Self {
        Matrix::upper_triangular(self)
    }
    fn add(mut self, other: Self) -> Self {
        for (x, y) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *x += y;
        }
        self
    }
    fn tpmqrt(trans: Trans, f: &StackedFactors, c1: &mut Self, c2: &mut Self) {
        tpmqrt(trans, f, c1, c2)
    }
    fn factor_panel(&mut self, off: usize, col0: usize, rows: usize, b: usize, nb: usize) -> (Vec<f64>, Self) {
        let mut tau = vec![0.0; b.min(rows)];
        let mut view = self.view_mut();
        let (mut panel, mut right) = view.split_cols_at_mut(col0 + b);
        geqrf(&mut panel.sub_mut(off, col0, rows, b), &mut tau, nb);
        if right.cols() > 0 {
            let v = panel.sub(off, col0, rows, b);
            let t = larft(&v, &tau);
            let trail = right.cols();
            larfb_left(Trans::Yes, &v, &t.view(), &mut right.sub_mut(off, 0, rows, trail));
        }
        (tau, self.sub_matrix(off, col0, rows.min(b), b).upper_triangular())
    }
    fn apply_q(&self, tau: &[f64], c: &mut Self) {
        orm2r(Side::Left, Trans::No, &self.view(), tau, &mut c.view_mut())
    }
}

/// A tile that holds only its dimensions: every operation is the shape
/// arithmetic [`Tile`] provides, it is priced as the dense block of `f64`
/// it stands for, and nothing is allocated — which is what lets
/// paper-scale (16 GB) runs finish in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
}

impl WirePayload for Dims {
    fn wire_bytes(&self) -> u64 {
        8 * (self.rows * self.cols) as u64
    }
}

impl Tile for Dims {
    type Packed = Phantom;
    type Combine = ();

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    fn zeros(rows: usize, cols: usize) -> Self {
        Dims { rows, cols }
    }
    fn pack_upper(&self) -> Phantom {
        Phantom { bytes: packed_bytes(self.rows) }
    }
    fn tpqrt(&mut self, _r2: Phantom) {}
}
