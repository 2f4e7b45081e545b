//! Borrowed column-major matrix windows with an explicit leading dimension.
//!
//! Blocked factorizations operate in place on sub-matrices of a larger
//! allocation. A [`ViewMut`] carries `(rows, cols, ld)` over a mutable slice;
//! splitting at a column boundary yields two disjoint views (columns are
//! contiguous in column-major storage), which is exactly the panel /
//! trailing-matrix split `geqrf` needs.

use crate::matrix::Matrix;

/// An immutable window into column-major storage.
#[derive(Clone, Copy)]
pub struct View<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

/// A mutable window into column-major storage.
pub struct ViewMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

fn check_dims(len: usize, rows: usize, cols: usize, ld: usize) {
    // A zero-row matrix legitimately has ld = 0 (all its columns are empty).
    assert!(ld >= rows, "leading dimension {ld} < rows {rows}");
    let needed = if cols == 0 { 0 } else { (cols - 1) * ld + rows };
    assert!(len >= needed, "buffer too small: len {len} < required {needed}");
}

impl<'a> View<'a> {
    /// Wraps raw column-major storage (`data[i + j*ld]`).
    pub(crate) fn from_raw(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        check_dims(data.len(), rows, cols, ld);
        View { data, rows, cols, ld }
    }

    /// Row count of the viewed block.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the viewed block.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (column stride) of the underlying storage.
    #[cfg(test)]
    #[inline]
    pub(crate) fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(i, j)`.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    /// Column `j` as a slice of length `rows`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// The `nr × nc` sub-window starting at `(r0, c0)`.
    pub(crate) fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> View<'a> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub-view out of bounds");
        // An empty window at the right edge may start past the buffer end
        // (the buffer stops `ld − rows` short of `cols·ld`); clamp it.
        let off = (r0 + c0 * self.ld).min(self.data.len());
        View::from_raw(&self.data[off..], nr, nc, self.ld)
    }

    /// Copies the window into an owned [`Matrix`].
    pub(crate) fn to_matrix(self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }

    /// Frobenius norm of the window.
    #[cfg(test)]
    pub(crate) fn norm_fro(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.cols {
            for &x in self.col(j) {
                s += x * x;
            }
        }
        s.sqrt()
    }
}

impl<'a> ViewMut<'a> {
    /// Wraps raw column-major storage (`data[i + j*ld]`).
    pub(crate) fn from_raw(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        check_dims(data.len(), rows, cols, ld);
        ViewMut { data, rows, cols, ld }
    }

    /// Row count of the viewed block.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the viewed block.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(i, j)`.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    /// Overwrites element `(i, j)` with `v`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld] = v;
    }

    /// Column `j` as a slice of length `rows`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Column `j` as a mutable slice of length `rows`.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// An immutable view of the same window (reborrow).
    pub(crate) fn as_view(&self) -> View<'_> {
        View::from_raw(self.data, self.rows, self.cols, self.ld)
    }

    /// Reborrows the `nr × nc` sub-window starting at `(r0, c0)` mutably.
    pub fn sub_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> ViewMut<'_> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub-view out of bounds");
        // See `View::sub`: clamp empty right-edge windows.
        let off = (r0 + c0 * self.ld).min(self.data.len());
        ViewMut::from_raw(&mut self.data[off..], nr, nc, self.ld)
    }

    /// An immutable sub-window.
    pub fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> View<'_> {
        self.as_view().sub(r0, c0, nr, nc)
    }

    /// Splits into disjoint column ranges `[0, j)` and `[j, cols)`.
    ///
    /// Both halves keep the same leading dimension; this is sound because
    /// column `j` starts at offset `j*ld`, so the two halves occupy disjoint
    /// parts of the underlying slice.
    pub fn split_cols_at_mut(&mut self, j: usize) -> (ViewMut<'_>, ViewMut<'_>) {
        assert!(j <= self.cols, "column split {j} out of bounds ({} cols)", self.cols);
        // The buffer may end `ld - rows` short of `cols*ld` (a window into a
        // larger matrix); clamp so an empty right half is representable.
        let mid = (j * self.ld).min(self.data.len());
        let (left, right) = self.data.split_at_mut(mid);
        (
            ViewMut::from_raw(left, self.rows, j, self.ld),
            ViewMut::from_raw(right, self.rows, self.cols - j, self.ld),
        )
    }

    /// Copies `src` into this window (shapes must agree).
    pub(crate) fn copy_from(&mut self, src: &View<'_>) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()), "copy_from shape mismatch");
        for j in 0..self.cols {
            let rows = self.rows;
            self.col_mut(j)[..rows].copy_from_slice(&src.col(j)[..rows]);
        }
    }

    /// Fills the window with a constant.
    #[cfg(test)]
    pub(crate) fn fill(&mut self, v: f64) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Scales every entry of the window by `alpha`.
    #[cfg(test)]
    pub(crate) fn scale(&mut self, alpha: f64) {
        for j in 0..self.cols {
            for x in self.col_mut(j) {
                *x *= alpha;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_fn(4, 5, |i, j| (i * 10 + j) as f64)
    }

    #[test]
    fn view_indexing_matches_matrix() {
        let m = sample();
        let v = m.view();
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(v.get(i, j), m[(i, j)]);
            }
        }
    }

    #[test]
    fn sub_view_offsets() {
        let m = sample();
        let v = m.sub(1, 2, 2, 3);
        assert_eq!(v.get(0, 0), m[(1, 2)]);
        assert_eq!(v.get(1, 2), m[(2, 4)]);
        assert_eq!(v.ld(), 4);
    }

    #[test]
    fn nested_sub_views_compose() {
        let m = sample();
        let v = m.sub(1, 1, 3, 4).sub(1, 2, 2, 2);
        assert_eq!(v.get(0, 0), m[(2, 3)]);
        assert_eq!(v.get(1, 1), m[(3, 4)]);
    }

    #[test]
    fn split_cols_gives_disjoint_windows() {
        let mut m = sample();
        let mut v = m.view_mut();
        let (mut l, mut r) = v.split_cols_at_mut(2);
        assert_eq!((l.rows(), l.cols()), (4, 2));
        assert_eq!((r.rows(), r.cols()), (4, 3));
        l.set(0, 0, -1.0);
        r.set(0, 0, -2.0);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(0, 2)], -2.0);
    }

    #[test]
    fn split_cols_respects_row_window() {
        // Split a sub-window that does not span the whole leading dimension.
        let mut m = sample();
        let mut v = m.view_mut();
        let mut w = v.sub_mut(1, 1, 2, 3);
        let (mut l, mut r) = w.split_cols_at_mut(1);
        l.set(1, 0, 99.0);
        r.set(0, 1, 98.0);
        assert_eq!(m[(2, 1)], 99.0);
        assert_eq!(m[(1, 3)], 98.0);
    }

    #[test]
    fn copy_from_and_to_matrix_round_trip() {
        let m = sample();
        let mut dst = Matrix::zeros(2, 3);
        dst.view_mut().copy_from(&m.sub(1, 1, 2, 3));
        assert!(dst.approx_eq(&m.sub_matrix(1, 1, 2, 3), 0.0));
        assert!(dst.view().to_matrix().approx_eq(&dst, 0.0));
    }

    #[test]
    fn fill_and_scale() {
        let mut m = sample();
        m.view_mut().sub_mut(0, 0, 2, 2).fill(1.0);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 0)], 20.0);
        m.view_mut().scale(2.0);
        assert_eq!(m[(2, 0)], 40.0);
    }

    #[test]
    fn view_norm_fro_ignores_outside() {
        let m = sample();
        let v = m.sub(0, 0, 2, 1);
        assert!((v.norm_fro() - (0.0f64 + 100.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_right_edge_windows_are_representable() {
        // A window into a larger matrix whose buffer stops `ld - rows`
        // short of `cols*ld`: empty sub-views at the right edge must not
        // slice past the end.
        let mut m = sample(); // 4 x 5, ld = 4
        let v = m.sub(1, 0, 2, 5); // rows < ld
        let empty = v.sub(0, 5, 2, 0);
        assert_eq!(empty.cols(), 0);
        let mut w = m.view_mut();
        let mut win = w.sub_mut(1, 0, 2, 5);
        let empty_mut = win.sub_mut(0, 5, 2, 0);
        assert_eq!(empty_mut.cols(), 0);
        let (left, right) = win.split_cols_at_mut(5);
        assert_eq!(left.cols(), 5);
        assert_eq!(right.cols(), 0);
    }

    #[test]
    fn zero_row_views_are_fine() {
        let m = Matrix::zeros(0, 3);
        let v = m.view();
        assert_eq!(v.rows(), 0);
        assert_eq!(v.norm_fro(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sub-view out of bounds")]
    fn sub_out_of_bounds_panics() {
        let m = sample();
        let _ = m.sub(3, 0, 2, 1);
    }
}
