//! Golden-free correctness checks, one per kind of workload output.
//!
//! Each returns `Err(reason)` for an output a user must not trust. None
//! compares against a stored value of a simulated quantity, so a
//! deliberate re-bless of the simulator cannot strand the benchmark.

use tsqr_core::model;
use tsqr_linalg::blas::gemm;
use tsqr_linalg::qr::Trans;
use tsqr_linalg::verify::{is_upper_triangular, r_distance};
use tsqr_linalg::Matrix;
use tsqr_serve::{Disposition, ServeOutcome};

/// `r_distance` to the sequential replica's R.
pub const R_DIST_TOL: f64 = 1e-9;
/// Gram residual, orthogonality and factorization residual.
pub const RESID_TOL: f64 = 1e-10;

/// `x ≤ tol`, false for NaN: a check that cannot be computed has failed.
fn within(x: f64, tol: f64) -> bool {
    x <= tol
}

/// `C += Aᵀ·B` through `gemm` alone, so the Gram checks stay independent
/// of every QR kernel.
pub fn add_at_b(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    gemm(
        Trans::Yes,
        Trans::No,
        1.0,
        &a.view(),
        &b.view(),
        1.0,
        &mut c.view_mut(),
    );
}

/// Achieved accuracy of an R factor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RAccuracy {
    pub r_dist: f64,
    pub gram_resid: f64,
}

/// R must be upper triangular, agree with the sequential flat-tree
/// replica's `r_ref`, and reproduce the Gram matrix `gram = AᵀA`.
pub fn check_r(r: &Matrix, r_ref: &Matrix, gram: &Matrix) -> Result<RAccuracy, String> {
    if r.shape() != r_ref.shape() {
        return Err(format!(
            "R is {:?}, expected {:?}",
            r.shape(),
            r_ref.shape()
        ));
    }
    if !is_upper_triangular(r) {
        return Err("R is not upper triangular".into());
    }
    let r_dist = r_distance(r, r_ref);
    if !within(r_dist, R_DIST_TOL) {
        return Err(format!(
            "r_distance to the sequential replica is {r_dist:e} > {R_DIST_TOL:e}"
        ));
    }
    let mut diff = gram.clone();
    gemm(
        Trans::Yes,
        Trans::No,
        1.0,
        &r.view(),
        &r.view(),
        -1.0,
        &mut diff.view_mut(),
    );
    let gram_resid = diff.norm_fro() / gram.norm_fro();
    if !within(gram_resid, RESID_TOL) {
        return Err(format!(
            "Gram residual |RtR - AtA|/|AtA| is {gram_resid:e} > {RESID_TOL:e}"
        ));
    }
    Ok(RAccuracy { r_dist, gram_resid })
}

/// Achieved accuracy of an explicit Q.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QAccuracy {
    pub orth: f64,
    pub resid: f64,
}

/// The returned `q_blocks` must tile an orthonormal Q (`‖QᵀQ − I‖_max`)
/// with `A = QR` (`‖A − QR‖_F / ‖A‖_F`), `a_blocks` being the same row
/// blocks of A.
pub fn check_q(a_blocks: &[Matrix], q_blocks: &[Matrix], r: &Matrix) -> Result<QAccuracy, String> {
    if a_blocks.len() != q_blocks.len() {
        return Err(format!(
            "{} Q blocks for {} row blocks",
            q_blocks.len(),
            a_blocks.len()
        ));
    }
    let n = r.cols();
    let mut qtq = Matrix::zeros(n, n);
    let (mut resid2, mut a2) = (0.0f64, 0.0f64);
    for (a, q) in a_blocks.iter().zip(q_blocks) {
        if q.shape() != a.shape() {
            return Err(format!(
                "Q block is {:?}, its rows of A are {:?}",
                q.shape(),
                a.shape()
            ));
        }
        add_at_b(q, q, &mut qtq);
        let mut diff = a.clone();
        gemm(
            Trans::No,
            Trans::No,
            -1.0,
            &q.view(),
            &r.view(),
            1.0,
            &mut diff.view_mut(),
        );
        resid2 += diff.norm_fro().powi(2);
        a2 += a.norm_fro().powi(2);
    }
    let orth = qtq.sub_elem(&Matrix::identity(n)).norm_max();
    let resid = (resid2 / a2).sqrt();
    if !within(orth, RESID_TOL) {
        return Err(format!("|QtQ - I|_max is {orth:e} > {RESID_TOL:e}"));
    }
    if !within(resid, RESID_TOL) {
        return Err(format!("|A - QR|/|A| is {resid:e} > {RESID_TOL:e}"));
    }
    Ok(QAccuracy { orth, resid })
}

/// Message counts of a symbolic `PDGEQR2` over `p` ranks (a power of two)
/// against Table I: `2N·log₂P` messages per rank, less the `log₂P` of the
/// last column's trailing update, which has no columns left to reduce.
pub fn check_qr2_messages(
    total_msgs: u64,
    max_msgs_per_rank: u64,
    m: u64,
    n: u64,
    p: u64,
) -> Result<(), String> {
    let table1 = model::scalapack_r_only(m, n, p).msgs;
    let per_rank = table1 - (p as f64).log2();
    if max_msgs_per_rank as f64 != per_rank {
        return Err(format!(
            "{max_msgs_per_rank} messages per rank, Table I gives {per_rank}"
        ));
    }
    if total_msgs as f64 != per_rank * p as f64 {
        return Err(format!(
            "{total_msgs} messages in total, Table I gives {}",
            per_rank * p as f64
        ));
    }
    Ok(())
}

/// Every request has exactly one disposition: one record per request id,
/// in id order, and at least one of them completed.
pub fn check_dispositions(out: &ServeOutcome) -> Result<(), String> {
    let want = out.config.requests;
    if out.records.len() != want {
        return Err(format!(
            "{} dispositions for {want} requests",
            out.records.len()
        ));
    }
    if let Some((i, rec)) = out
        .records
        .iter()
        .enumerate()
        .find(|(i, r)| r.request.id != *i)
    {
        return Err(format!("record {i} carries request id {}", rec.request.id));
    }
    if !out
        .records
        .iter()
        .any(|r| matches!(r.disposition, Disposition::Completed { .. }))
    {
        return Err("no request completed".into());
    }
    Ok(())
}

/// Relative agreement of two simulated quantities.
pub fn check_close(what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
    if rel <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: {got} differs from {want} by {rel:e} > {tol:e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_core::workload;
    use tsqr_linalg::prelude::QrFactors;
    use tsqr_qcg::ResourceCatalog;
    use tsqr_serve::{serve, ServeConfig};

    fn factored(m: usize, n: usize) -> (Matrix, Matrix, Matrix, Matrix) {
        let a = workload::full_matrix(11, m, n);
        let f = QrFactors::compute(&a, 8);
        let r = f.r().upper_triangular_padded();
        let mut gram = Matrix::zeros(n, n);
        add_at_b(&a, &a, &mut gram);
        (a, f.q_thin(), r, gram)
    }

    #[test]
    fn r_check_accepts_the_true_factor_and_rejects_one_flipped_entry() {
        let (_, _, r, gram) = factored(96, 8);
        let acc = check_r(&r, &r, &gram).expect("true R passes");
        assert!(acc.gram_resid < 1e-13);

        let mut flipped = r.clone();
        flipped[(2, 5)] = -flipped[(2, 5)];
        assert!(check_r(&flipped, &r, &gram).is_err());

        let mut lower = r.clone();
        lower[(5, 2)] = 1e-30;
        assert!(check_r(&lower, &r, &gram)
            .unwrap_err()
            .contains("upper triangular"));

        // A wrong reference is caught by the Gram residual alone.
        assert!(check_r(&flipped, &flipped, &gram)
            .unwrap_err()
            .contains("Gram"));
    }

    #[test]
    fn q_check_accepts_the_true_factor_and_rejects_a_corrupted_block() {
        let (a, q, r, _) = factored(96, 8);
        let heights = [40, 56];
        let (a_blocks, mut q_blocks) = (a.split_rows(&heights), q.split_rows(&heights));
        check_q(&a_blocks, &q_blocks, &r).expect("true Q passes");
        q_blocks[1][(3, 4)] += 1e-6;
        assert!(check_q(&a_blocks, &q_blocks, &r).is_err());
        q_blocks.pop();
        assert!(check_q(&a_blocks, &q_blocks, &r).is_err());
    }

    #[test]
    fn message_check_rejects_an_off_by_one_count() {
        // 256 ranks, N = 64: 127 allreduces of 8 rounds each per rank.
        let (per_rank, total) = (127 * 8, 127 * 8 * 256);
        check_qr2_messages(total, per_rank, 1 << 20, 64, 256).expect("closed form");
        assert!(check_qr2_messages(total + 1, per_rank, 1 << 20, 64, 256).is_err());
        assert!(check_qr2_messages(total, per_rank - 1, 1 << 20, 64, 256).is_err());
    }

    #[test]
    fn disposition_check_rejects_a_dropped_and_a_duplicated_request() {
        let cfg = ServeConfig {
            requests: 60,
            load: 1.5,
            queue_capacity: 4,
            ..Default::default()
        };
        let out = serve(&ResourceCatalog::grid5000(), &cfg);
        check_dispositions(&out).expect("a real outcome passes");

        let mut dropped = out.clone();
        dropped.records.remove(17);
        assert!(check_dispositions(&dropped).is_err());

        let mut duplicated = out.clone();
        duplicated.records[18] = duplicated.records[17].clone();
        assert!(check_dispositions(&duplicated).is_err());
    }

    #[test]
    fn close_check_is_relative() {
        check_close("makespan", 2.0 + 1e-12, 2.0, 1e-9).expect("within tolerance");
        assert!(check_close("makespan", 2.001, 2.0, 1e-9).is_err());
    }
}
