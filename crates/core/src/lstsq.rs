//! Distributed least squares via TSQR — the canonical consumer of a TS
//! factorization: `min ‖A·x − b‖₂` for a tall-and-skinny `A`.
//!
//! The solver never forms Q and has no reduction of its own: it runs the
//! one TSQR rank program ([`tsqr_rank_program_with_async`]) on the augmented
//! block `[A | b]`, with the layout widened to `n + 1` columns. The root's
//! factor is `R̃ = [R c; 0 ρ]` with `c = (Qᵀb)[..n]` and `|ρ|` the residual
//! norm, so the root back-solves `R·x = c` and broadcasts `x`. Every tree
//! shape and grouped (multi-process) domains come with the program; the
//! extra column adds `n + 1` words per message and no messages.
//!
//! The charges are TSQR's at `n + 1` columns: a leaf costs
//! `geqrf(rows, n + 1)` — the separate `(R, c)` walk this replaced charged
//! `geqrf(rows, n) + 4·rows·n` — and a combine `tpqrt(n + 1)`. No golden
//! pins least-squares clocks.

use tsqr_gridmpi::{CommError, Communicator, Process};
use tsqr_linalg::tri::{smallest_diag, trsv, Triangle};
use tsqr_linalg::Matrix;

use crate::domains::DomainLayout;
use crate::experiment::run_ranks;
use crate::tree::{ReductionTree, TreeShape};
use crate::tsqr::{tsqr_rank_program_with_async, TsqrConfig};

/// Result of a distributed least-squares solve.
#[derive(Debug, Clone)]
pub struct LstsqOutput {
    /// The minimizer `x` (identical on every rank after the broadcast).
    pub x: Vec<f64>,
    /// The triangular factor's smallest |diagonal| — a rank/conditioning
    /// probe (0 means the system was singular).
    pub r_min_diag: f64,
}

/// The rank program: solves `min ‖A·x − b‖` where this rank supplies its
/// row slice of `A` and `b` through the two closures. Every domain must
/// hold more than `n` rows (its `[A | b]` block has `n + 1` columns).
async fn lstsq_rank_program_with_async(
    p: &mut Process,
    world: &Communicator,
    layout: &DomainLayout,
    tree: &ReductionTree,
    rate_flops: Option<f64>,
    local_block: impl FnOnce(u64, usize) -> Matrix,
    local_rhs: impl FnOnce(u64, usize) -> Vec<f64>,
) -> Result<LstsqOutput, CommError> {
    let n = layout.n;
    assert!(
        layout.domains.iter().all(|d| d.rows > n as u64),
        "least squares needs more than n = {n} rows per domain"
    );
    let wide = DomainLayout { n: n + 1, ..layout.clone() };
    // `tree` is the caller's; the shape is only read for the trace label.
    let cfg = TsqrConfig { shape: TreeShape::Custom(Vec::new()), ..Default::default() };
    let out = tsqr_rank_program_with_async(p, &wide, tree, &cfg, rate_flops, |row0, rows| {
        let a_loc = local_block(row0, rows);
        let b_loc = local_rhs(row0, rows);
        assert_eq!(a_loc.shape(), (rows, n), "local_block shape mismatch");
        assert_eq!(b_loc.len(), rows, "local_rhs length mismatch");
        let mut aug = a_loc.into_vec();
        aug.extend(b_loc);
        Matrix::from_col_major(rows, n + 1, aug).expect("[A | b] is rows x (n + 1)")
    })
    .await?;

    // --- Root solves R·x = c out of R̃ = [R c; 0 ρ] and broadcasts. ---
    let payload: Option<(Vec<f64>, f64)> = out.r.map(|rt| {
        let r = rt.sub_matrix(0, 0, n, n);
        let mut x = rt.col(n)[..n].to_vec();
        trsv(Triangle::Upper, &r.view(), &mut x);
        (x, smallest_diag(&r))
    });
    let (x, r_min_diag) = world.bcast_async(p, 0, payload).await?;
    Ok(LstsqOutput { x, r_min_diag })
}

/// Convenience wrapper over a centrally-held `(A, b)` (test/example scale).
pub fn lstsq_distributed(
    rt: &tsqr_gridmpi::Runtime,
    a: &Matrix,
    b: &[f64],
    domains_per_cluster: usize,
    shape: crate::tree::TreeShape,
) -> LstsqOutput {
    let (m, n) = a.shape();
    assert_eq!(b.len(), m, "rhs length mismatch");
    let layout = DomainLayout::build(rt.topology(), m as u64, n, domains_per_cluster);
    let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
    let report = run_ranks::<Matrix, _, _>(rt, async |p, world| {
        lstsq_rank_program_with_async(
            p,
            world,
            &layout,
            &tree,
            None,
            |row0, rows| a.sub_matrix(row0 as usize, 0, rows, n),
            |row0, rows| (0..rows).map(|i| b[row0 as usize + i]).collect(),
        )
        .await
    });
    report.ranks.into_iter().next().expect("rank 0").result.expect("solve succeeded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini_grid;
    use crate::tree::TreeShape;
    use crate::workload;

    /// Reference solve via the normal equations (fine for these
    /// well-conditioned test problems).
    fn reference(a: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = a.cols();
        let g = a.t_matmul(a);
        let atb = {
            let bm = Matrix::from_col_major(b.len(), 1, b.to_vec()).unwrap();
            a.t_matmul(&bm)
        };
        let r = tsqr_linalg::cholesky::potrf_upper(&g).unwrap();
        // Solve RᵀR x = Aᵀb.
        let mut y = atb.col(0).to_vec();
        trsv(Triangle::Lower, &r.transpose().view(), &mut y);
        trsv(Triangle::Upper, &r.view(), &mut y);
        (0..n).map(|i| y[i]).collect()
    }

    #[test]
    fn exact_system_is_solved_exactly() {
        // b in the range of A: residual must vanish and x must be exact.
        let (m, n) = (160usize, 5usize);
        let a = workload::full_matrix(81, m, n);
        let x_true: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let b: Vec<f64> = (0..m).map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum()).collect();
        for (clusters, procs) in [(1, 1), (1, 4), (2, 4)] {
            let rt = mini_grid(clusters, procs);
            let out = lstsq_distributed(&rt, &a, &b, procs, TreeShape::GridHierarchical);
            for (got, want) in out.x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-10, "{got} vs {want}");
            }
            assert!(out.r_min_diag > 0.0);
        }
    }

    #[test]
    fn overdetermined_system_matches_normal_equations() {
        let (m, n) = (240usize, 6usize);
        let a = workload::full_matrix(83, m, n);
        let b: Vec<f64> = (0..m).map(|i| workload::entry(84, i as u64, 0)).collect();
        let rt = mini_grid(2, 4);
        let out = lstsq_distributed(&rt, &a, &b, 4, TreeShape::GridHierarchical);
        let want = reference(&a, &b);
        for (got, want) in out.x.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn residual_is_orthogonal_to_the_range() {
        // The optimality condition: Aᵀ(Ax − b) = 0.
        let (m, n) = (200usize, 4usize);
        let a = workload::full_matrix(85, m, n);
        let b: Vec<f64> = (0..m).map(|i| workload::entry(86, i as u64, 3)).collect();
        let rt = mini_grid(1, 4);
        let out = lstsq_distributed(&rt, &a, &b, 4, TreeShape::Binary);
        let x = Matrix::from_col_major(n, 1, out.x).unwrap();
        let bm = Matrix::from_col_major(m, 1, b).unwrap();
        let resid = a.matmul(&x).sub_elem(&bm);
        let grad = a.t_matmul(&resid);
        assert!(grad.norm_max() < 1e-10 * bm.norm_fro(), "AᵀAx != Aᵀb");
    }

    #[test]
    fn all_tree_shapes_agree() {
        let (m, n) = (192usize, 4usize);
        let a = workload::full_matrix(87, m, n);
        let b: Vec<f64> = (0..m).map(|i| workload::entry(88, i as u64, 7)).collect();
        let rt = mini_grid(2, 4);
        let results: Vec<Vec<f64>> =
            [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical]
                .iter()
                .map(|s| lstsq_distributed(&rt, &a, &b, 4, s.clone()).x)
                .collect();
        for r in &results[1..] {
            for (x, y) in r.iter().zip(&results[0]) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn singularity_is_reported_through_min_diag() {
        // Two identical columns → R has a ~0 diagonal entry. Check the
        // probe rather than the (noise-determined) solution.
        let (m, n) = (96usize, 3usize);
        let a = Matrix::from_fn(m, n, |i, j| {
            let col = if j == 1 { 0 } else { j };
            workload::entry(89, i as u64, col as u64)
        });
        let rt = mini_grid(1, 2);
        let (layout, tree) = {
            let layout = DomainLayout::build(rt.topology(), m as u64, n, 2);
            let tree =
                ReductionTree::build(&TreeShape::Binary, layout.num_domains(), &layout.clusters());
            (layout, tree)
        };
        let report = run_ranks::<Matrix, _, _>(&rt, async |p, world| {
            // The solve may produce huge/naff values; what matters is that
            // the conditioning probe fires.
            lstsq_rank_program_with_async(
                p,
                world,
                &layout,
                &tree,
                None,
                |row0, rows| a.sub_matrix(row0 as usize, 0, rows, n),
                |_row0, rows| vec![1.0; rows],
            )
            .await
            .map(|out| out.r_min_diag)
        });
        let min_diag = report.ranks[0].result.clone().unwrap();
        assert!(min_diag < 1e-10, "rank deficiency must show in the probe");
    }
}
