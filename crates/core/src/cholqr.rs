//! CholeskyQR: the communication-matched but numerically *unstable*
//! alternative to TSQR.
//!
//! §II-E motivates TSQR by noting that block eigensolver packages
//! "currently rely on unstable orthogonalization schemes to avoid too many
//! communications. TSQR is a stable algorithm that enables the same total
//! number of messages." CholeskyQR is that scheme: form the Gram matrix
//! `G = AᵀA` with a single all-reduce (the same `log₂(P)` message bill as
//! TSQR's reduction), Cholesky-factor `G = RᵀR`, and recover
//! `Q = A·R⁻¹`.
//!
//! The catch is stability: the Gram matrix squares the condition number,
//! so orthogonality degrades like `ε·κ(A)²` and the factorization fails
//! outright (non-positive-definite Gram) once `κ(A) ≳ 1/√ε` — while
//! Householder-based TSQR stays at `ε` for any κ. The comparison bench
//! (`grid-tsqr figure --id ablation_cholqr`) and the tests below measure
//! exactly that cliff.

use tsqr_gridmpi::{CommError, Communicator, Process};
use tsqr_linalg::cholesky::potrf_upper;
use tsqr_linalg::flops;
use tsqr_linalg::tri::trsm_right_upper;
use tsqr_linalg::Matrix;

/// Result of a distributed CholeskyQR.
#[derive(Debug, Clone)]
pub struct CholQrOutput {
    /// The upper-triangular factor (every rank has a copy — the Gram
    /// all-reduce leaves it everywhere).
    pub r: Matrix,
    /// This rank's rows of the explicit `Q` (`= A_loc·R⁻¹`), when the
    /// factorization succeeded.
    pub q_local: Matrix,
}

/// Why a distributed CholeskyQR failed.
#[derive(Debug)]
pub enum CholQrError {
    /// Communication failure.
    Comm(CommError),
    /// The Gram matrix was not numerically positive definite —
    /// `κ(A)² overflowed the working precision` (the stability cliff).
    GramNotPd {
        /// The failing pivot index.
        pivot: usize,
    },
}

impl From<CommError> for CholQrError {
    fn from(e: CommError) -> Self {
        CholQrError::Comm(e)
    }
}

impl std::fmt::Display for CholQrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholQrError::Comm(e) => write!(f, "communication failure: {e}"),
            CholQrError::GramNotPd { pivot } => {
                write!(f, "Gram matrix not positive definite at pivot {pivot} (κ(A)² too large)")
            }
        }
    }
}

impl std::error::Error for CholQrError {}

/// Distributed CholeskyQR of a TS matrix row-distributed over `group`.
///
/// One all-reduce of the `n×n` Gram matrix (`log₂(P)` messages — same
/// count as a TSQR reduce, about double the volume since the full square
/// travels), then local Cholesky + triangular solve.
pub fn cholqr(
    p: &mut Process,
    group: &Communicator,
    local: Matrix,
    rate_flops: Option<f64>,
) -> Result<CholQrOutput, CholQrError> {
    let n = local.cols();
    let m_loc = local.rows() as u64;
    // Local Gram contribution: G_loc = A_locᵀ·A_loc  (n² m_loc flops —
    // symmetric, but we charge the dense gemm cost like the BLAS call
    // ScaLAPACK would make).
    let g_loc = local.t_matmul(&local);
    p.compute(flops::gemm(n as u64, n as u64, m_loc), rate_flops);
    // One all-reduce of n² values.
    let g = group.allreduce(p, g_loc.into_vec(), |a, b| {
        a.iter().zip(&b).map(|(x, y)| x + y).collect()
    })?;
    let g = Matrix::from_col_major(n, n, g).expect("gram matrix shape");
    // Cholesky (n³/3) and the solve Q = A·R⁻¹ (m_loc·n²).
    let r = potrf_upper(&g).map_err(|e| CholQrError::GramNotPd { pivot: e.pivot })?;
    let mut q_local = local;
    trsm_right_upper(&r.view(), &mut q_local.view_mut());
    p.compute(n as u64 * n as u64 * n as u64 / 3 + m_loc * (n as u64) * (n as u64), rate_flops);
    Ok(CholQrOutput { r, q_local })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::even_chunks;
    use crate::workload;
    use tsqr_linalg::prelude::QrFactors;
    use tsqr_linalg::verify::{orthogonality, r_distance, relative_residual};
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};
    use tsqr_gridmpi::Runtime;

    fn runtime(procs: usize) -> Runtime {
        let topo = GridTopology::block_placement(
            vec![ClusterSpec {
                name: "c".into(),
                nodes: procs,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            }],
            procs,
            1,
        );
        Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 890.0), 1e9, 1))
    }

    /// Runs distributed CholeskyQR on the seeded workload; returns
    /// (R, assembled Q, per-rank msgs).
    fn run(procs: usize, a: &Matrix) -> Result<(Matrix, Matrix, u64), String> {
        let rt = runtime(procs);
        let (m, n) = a.shape();
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run(|p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = a.sub_matrix(row0 as usize, 0, chunks[me] as usize, n);
            match cholqr(p, world, local, None) {
                Ok(out) => Ok(Some((out, p.counters().total_msgs()))),
                Err(CholQrError::GramNotPd { .. }) => Ok(None),
                Err(CholQrError::Comm(e)) => Err(e),
            }
        });
        let mut qs = Vec::new();
        let mut r = None;
        let mut msgs = 0;
        for rr in report.ranks {
            match rr.result.unwrap() {
                Some((out, m)) => {
                    qs.push(out.q_local);
                    r = Some(out.r);
                    msgs = msgs.max(m);
                }
                None => return Err("gram not pd".into()),
            }
        }
        let refs: Vec<&Matrix> = qs.iter().collect();
        Ok((r.unwrap(), Matrix::vstack_all(&refs), msgs))
    }

    #[test]
    fn well_conditioned_matrix_works_everywhere() {
        let a = workload::full_matrix(3, 240, 6);
        for procs in [1, 2, 4, 8] {
            let (r, q, _) = run(procs, &a).unwrap();
            assert!(relative_residual(&a, &q, &r) < 1e-12);
            assert!(orthogonality(&q) < 1e-10);
            // Same R (up to signs — Cholesky's diagonal is positive, so
            // actually identical to the sign-normalized QR factor).
            let want = QrFactors::compute(&a, 16).r().upper_triangular_padded();
            assert!(r_distance(&r, &want) < 1e-10);
        }
    }

    #[test]
    fn message_count_matches_tsqr_reduction() {
        // One all-reduce = log₂(P) per-rank messages — ScaLAPACK QR2 needs
        // 2N× that.
        let a = workload::full_matrix(5, 128, 4);
        let (_, _, msgs) = run(8, &a).unwrap();
        assert_eq!(msgs, 3); // log2(8)
    }

    /// A matrix with condition number ≈ 10^k and *mixed* singular
    /// directions: `A = U·diag(σ)·Vᵀ` with random orthogonal `U` (m×n) and
    /// `V` (n×n). (A merely column-scaled matrix would have a diagonal
    /// Gram matrix, which CholeskyQR handles exactly — the instability
    /// needs genuine mixing.)
    fn graded(m: usize, n: usize, k: i32) -> Matrix {
        let u = QrFactors::compute(&workload::full_matrix(31, m, n), 16).q_thin();
        let v = QrFactors::compute(&workload::full_matrix(33, n, n), 16).q_thin();
        let scaled = Matrix::from_fn(m, n, |i, j| {
            let sigma = 10f64.powf(-k as f64 * j as f64 / (n as f64 - 1.0));
            u[(i, j)] * sigma
        });
        scaled.matmul(&v.transpose())
    }

    #[test]
    fn orthogonality_degrades_with_condition_number() {
        // ε·κ² growth: at κ = 10⁶ CholeskyQR's Q is visibly non-orthogonal
        // while TSQR (Householder) stays at machine precision.
        let a = graded(200, 6, 6);
        let (_, q_chol, _) = run(4, &a).unwrap();
        let chol_orth = orthogonality(&q_chol);
        let q_tsqr = QrFactors::compute(&a, 8).q_thin();
        let tsqr_orth = orthogonality(&q_tsqr);
        assert!(
            chol_orth > 100.0 * tsqr_orth,
            "CholeskyQR {chol_orth:.2e} should be far worse than Householder {tsqr_orth:.2e}"
        );
    }

    #[test]
    fn breaks_down_past_the_kappa_cliff() {
        // κ ≈ 10¹⁰ → κ² ≈ 10²⁰ ≫ 1/ε: the Gram matrix is numerically
        // singular. Depending on how the roundoff lands, Cholesky either
        // fails outright (non-positive pivot) or returns a Q that has
        // entirely lost orthogonality. Both are the cliff; Householder
        // TSQR on the same matrix stays at machine precision.
        let a = graded(200, 6, 10);
        match run(4, &a) {
            Err(_) => {} // non-positive pivot: clean failure
            Ok((_, q, _)) => {
                assert!(
                    orthogonality(&q) > 1e-3,
                    "κ²≈1e20 must destroy orthogonality, got {:.2e}",
                    orthogonality(&q)
                );
            }
        }
        let q_tsqr = QrFactors::compute(&a, 8).q_thin();
        assert!(orthogonality(&q_tsqr) < 1e-12, "Householder must survive");
    }
}
