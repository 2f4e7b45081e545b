//! Symmetric eigenvalue decomposition by the classical Jacobi rotation
//! method — the small dense eigensolver the Rayleigh–Ritz step of a block
//! eigensolver needs (the paper's §II-E application: BLOPEX/SLEPc/PRIMME
//! orthogonalize a tall block, then solve a `k × k` projected problem).
//!
//! Jacobi is quadratically convergent, unconditionally stable, and
//! perfectly adequate for the `k ≲ 100` projected problems that arise
//! here; it is not intended for large dense eigenproblems.

use crate::matrix::Matrix;

/// An eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, column `i` pairing with `values[i]`.
    pub vectors: Matrix,
}

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.
///
/// Only the upper triangle is read; the iteration stops when the
/// off-diagonal Frobenius mass falls below `ε·‖A‖` or after 50 sweeps
/// (never reached in practice for the sizes this library uses).
pub fn sym_eig(a: &Matrix) -> SymEig {
    let n = a.rows();
    assert_eq!(a.cols(), n, "sym_eig: matrix must be square");
    // Work on a symmetrized copy.
    let mut m = Matrix::from_fn(n, n, |i, j| if i <= j { a[(i, j)] } else { a[(j, i)] });
    let mut v = Matrix::identity(n);
    let norm = m.norm_fro().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * norm;

    for _sweep in 0..50 {
        let mut off = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                // Jacobi rotation annihilating (p, q).
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Update rows/columns p and q of M (symmetric two-sided).
                for i in 0..n {
                    let mip = m[(i, p)];
                    let miq = m[(i, q)];
                    m[(i, p)] = c * mip - s * miq;
                    m[(i, q)] = s * mip + c * miq;
                }
                for i in 0..n {
                    let mpi = m[(p, i)];
                    let mqi = m[(q, i)];
                    m[(p, i)] = c * mpi - s * mqi;
                    m[(q, i)] = s * mpi + c * mqi;
                }
                // Accumulate the rotation into V.
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }

    // Sort descending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].total_cmp(&m[(i, i)]));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    SymEig { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::orthogonality;

    fn spectral_reconstruction(e: &SymEig) -> Matrix {
        let n = e.values.len();
        let lam = Matrix::from_fn(n, n, |i, j| if i == j { e.values[i] } else { 0.0 });
        e.vectors.matmul(&lam).matmul(&e.vectors.transpose())
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let s = Matrix::random_uniform(n, n, seed);
        Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]))
    }

    #[test]
    fn reconstructs_random_symmetric_matrices() {
        for n in [1, 2, 3, 5, 10, 24] {
            let a = random_symmetric(n, 7 + n as u64);
            let e = sym_eig(&a);
            assert!(
                spectral_reconstruction(&e).approx_eq(&a, 1e-11),
                "reconstruction failed for n={n}"
            );
            assert!(orthogonality(&e.vectors) < 1e-12);
            // Descending order.
            assert!(e.values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        }
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { (4 - i) as f64 } else { 0.0 });
        let e = sym_eig(&a);
        for (i, &v) in e.values.iter().enumerate() {
            assert!((v - (4 - i) as f64).abs() < 1e-13);
        }
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = sym_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-13);
        assert!((e.values[1] - 1.0).abs() < 1e-13);
    }

    #[test]
    fn eigenvalues_match_trace_and_gram_spectrum() {
        let a = random_symmetric(12, 99);
        let e = sym_eig(&a);
        let trace: f64 = (0..12).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-11);
        // A² has eigenvalues λ².
        let e2 = sym_eig(&a.matmul(&a));
        let mut sq: Vec<f64> = e.values.iter().map(|v| v * v).collect();
        sq.sort_by(|x, y| y.total_cmp(x));
        for (x, y) in e2.values.iter().zip(&sq) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // 2·I plus a rank-1 bump.
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            let bump = if i == 0 && j == 0 { 3.0 } else { 0.0 };
            (if i == j { 2.0 } else { 0.0 }) + bump
        });
        let e = sym_eig(&a);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        for &v in &e.values[1..] {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }
}
