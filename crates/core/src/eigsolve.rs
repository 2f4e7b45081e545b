//! A distributed block eigensolver built on TSQR orthonormalization —
//! the paper's §II-E application, as a library.
//!
//! "Block-iterative methods need to regularly perform this operation in
//! order to obtain an orthogonal basis for a set of vectors; this step is
//! of particular importance for block eigensolvers (BLOPEX, SLEPc,
//! PRIMME)." This module implements block subspace iteration with
//! Rayleigh–Ritz extraction: every sweep applies the user's operator to
//! the current basis and re-orthonormalizes it with a **distributed TSQR
//! (explicit Q)** over the grid-tuned tree — `2·(#sites − 1)` WAN messages
//! per sweep, independent of the block width.
//!
//! The operator is supplied row-block-wise ([`RowBlockOperator`]): each
//! rank computes its rows of `A·X` from the gathered basis. The projected
//! `k × k` eigenproblem is solved everywhere with the Jacobi eigensolver
//! ([`tsqr_linalg::eig::sym_eig`]) after a single all-reduce.

use tsqr_gridmpi::{CommError, Communicator, Process};
use tsqr_linalg::eig::sym_eig;
use tsqr_linalg::Matrix;

use crate::domains::DomainLayout;
use crate::scalapack::all_sum_async;
use crate::tree::{ReductionTree, TreeShape};
use crate::tsqr::{tsqr_rank_program_with_async, TsqrConfig};

/// A (symmetric) linear operator presented row-block-wise: given the full
/// current block `X` (`m × k`), produce the rows `row0..row0+rows` of
/// `A·X`.
pub trait RowBlockOperator: Sync {
    /// The operator's dimension `m`.
    fn dim(&self) -> u64;
    /// This row slice of `A·X`.
    fn apply_rows(&self, row0: u64, rows: usize, x: &Matrix) -> Matrix;
}

/// A dense symmetric operator held in memory (test/example scale).
pub struct DenseOperator {
    /// The full matrix.
    pub a: Matrix,
}

impl RowBlockOperator for DenseOperator {
    fn dim(&self) -> u64 {
        self.a.rows() as u64
    }
    fn apply_rows(&self, row0: u64, rows: usize, x: &Matrix) -> Matrix {
        self.a.sub_matrix(row0 as usize, 0, rows, self.a.cols()).matmul(x)
    }
}

/// Configuration of a distributed subspace iteration.
#[derive(Debug, Clone)]
pub struct EigsolveConfig {
    /// Block width (number of eigenpairs sought).
    pub k: usize,
    /// Subspace-iteration sweeps.
    pub sweeps: usize,
    /// Domains per cluster (must equal the per-cluster process count —
    /// the solver needs single-process domains for explicit Q).
    pub domains_per_cluster: usize,
    /// Reduction-tree shape.
    pub shape: TreeShape,
    /// Workload seed for the random initial basis.
    pub seed: u64,
}

/// One rank's share of the solver output.
#[derive(Debug, Clone)]
pub struct EigsolveRankOutput {
    /// Ritz values, descending (identical on every rank).
    pub ritz_values: Vec<f64>,
    /// This rank's rows of the Ritz vectors (`rows × k`, orthonormal
    /// columns globally).
    pub x_block: Matrix,
    /// First global row of the block.
    pub row0: u64,
}

/// Gathers the per-rank basis blocks into the full `m × k` matrix (every
/// rank gets a copy), ordered by the layout's row ranges.
async fn allgather_basis_async(
    p: &mut Process,
    world: &Communicator,
    layout: &DomainLayout,
    x_loc: &Matrix,
    row0: u64,
) -> Result<Matrix, CommError> {
    let gathered = world.allgather_async(p, (row0, x_loc.clone())).await?;
    let mut blocks: Vec<(u64, Matrix)> = gathered;
    blocks.sort_by_key(|(r0, _)| *r0);
    let refs: Vec<&Matrix> = blocks.iter().map(|(_, b)| b).collect();
    let full = Matrix::vstack_all(&refs);
    debug_assert_eq!(full.rows() as u64, layout.m);
    Ok(full)
}

/// The rank program of a distributed block subspace iteration.
pub async fn eigsolve_rank_program_async(
    p: &mut Process,
    world: &Communicator,
    layout: &DomainLayout,
    tree: &ReductionTree,
    op: &dyn RowBlockOperator,
    cfg: &EigsolveConfig,
) -> Result<EigsolveRankOutput, CommError> {
    assert_eq!(layout.n, cfg.k, "layout width must equal the block width");
    assert_eq!(layout.m, op.dim(), "layout height must equal the operator dimension");
    let tsqr_cfg = TsqrConfig {
        shape: cfg.shape.clone(),
        domains_per_cluster: cfg.domains_per_cluster,
        compute_q: true,
        ..Default::default()
    };
    let d = layout.domain_of_rank(p.rank()).expect("rank in layout");
    assert_eq!(layout.domains[d].ranks.len(), 1, "eigsolve needs single-process domains");
    let (row0, rows) = (layout.domains[d].row0, layout.domains[d].rows);

    // Random initial basis, orthonormalized once.
    let mut out = tsqr_rank_program_with_async(p, layout, tree, &tsqr_cfg, None, |r0, r| {
        crate::workload::block(cfg.seed, r0, r, cfg.k)
    })
    .await?;
    let mut x_loc = out.q_block.take().expect("explicit Q requested");

    // Subspace sweeps: X ← orth(A·X).
    for _ in 0..cfg.sweeps {
        let x_full = allgather_basis_async(p, world, layout, &x_loc, row0).await?;
        let y_loc = op.apply_rows(row0, rows as usize, &x_full);
        let mut out =
            tsqr_rank_program_with_async(p, layout, tree, &tsqr_cfg, None, |_r0, _r| y_loc).await?;
        x_loc = out.q_block.take().expect("explicit Q requested");
    }

    // Rayleigh–Ritz: H = Xᵀ(A·X) via one all-reduce; rotate the basis.
    let x_full = allgather_basis_async(p, world, layout, &x_loc, row0).await?;
    let y_loc = op.apply_rows(row0, rows as usize, &x_full);
    let h = all_sum_async(p, world, x_loc.t_matmul(&y_loc)).await?;
    let eig = sym_eig(&h);
    let x_block = x_loc.matmul(&eig.vectors);
    Ok(EigsolveRankOutput { ritz_values: eig.values, x_block, row0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_ranks;
    use crate::mini_grid;
    use tsqr_gridmpi::Runtime;
    use tsqr_linalg::verify::orthogonality;

    /// A symmetric operator with spectrum {2m, 1.5m, 1.2m, m, small…}.
    fn test_operator(m: usize) -> DenseOperator {
        let s = Matrix::random_uniform(m, m, 7);
        let a = Matrix::from_fn(m, m, |i, j| {
            let sym = 0.02 * (s[(i, j)] + s[(j, i)]);
            let diag = match i {
                0 => 2.0 * m as f64,
                1 => 1.5 * m as f64,
                2 => 1.2 * m as f64,
                3 => m as f64,
                _ => 0.2 * m as f64 * (m - i) as f64 / m as f64,
            };
            (if i == j { diag } else { 0.0 }) + sym
        });
        DenseOperator { a }
    }

    fn run(rt: &Runtime, op: &DenseOperator, k: usize, sweeps: usize) -> (Vec<f64>, Matrix, u64) {
        let m = op.dim();
        let procs = rt.topology().num_procs() / rt.topology().num_clusters();
        let layout = DomainLayout::build(rt.topology(), m, k, procs);
        let tree = ReductionTree::build(
            &TreeShape::GridHierarchical,
            layout.num_domains(),
            &layout.clusters(),
        );
        let cfg = EigsolveConfig {
            k,
            sweeps,
            domains_per_cluster: procs,
            shape: TreeShape::GridHierarchical,
            seed: 17,
        };
        let report = run_ranks::<Matrix, _, _>(rt, async |p, world| {
            eigsolve_rank_program_async(p, world, &layout, &tree, op, &cfg).await
        });
        let wan = report.totals.inter_cluster_msgs();
        let outs: Vec<EigsolveRankOutput> =
            report.ranks.into_iter().map(|r| r.result.unwrap()).collect();
        // Consistent Ritz values everywhere.
        for o in &outs[1..] {
            assert_eq!(o.ritz_values, outs[0].ritz_values);
        }
        let mut blocks: Vec<(u64, Matrix)> =
            outs.iter().map(|o| (o.row0, o.x_block.clone())).collect();
        blocks.sort_by_key(|(r0, _)| *r0);
        let refs: Vec<&Matrix> = blocks.iter().map(|(_, b)| b).collect();
        (outs[0].ritz_values.clone(), Matrix::vstack_all(&refs), wan)
    }

    #[test]
    fn converges_to_the_dominant_eigenpairs() {
        let m = 256;
        let op = test_operator(m);
        let rt = mini_grid(2, 4);
        let (ritz, x, _) = run(&rt, &op, 4, 25);
        // Reference spectrum from the dense Jacobi solver.
        let full = sym_eig(&op.a);
        for (got, want) in ritz.iter().zip(&full.values[..4]) {
            assert!((got - want).abs() / want < 1e-6, "ritz {got} vs dense {want}");
        }
        assert!(orthogonality(&x) < 1e-12, "Ritz basis must stay orthonormal");
        // Residuals ‖A·v − λ·v‖ / λ small for each pair.
        let av = op.a.matmul(&x);
        for j in 0..4 {
            let mut norm2 = 0.0;
            for i in 0..m {
                let r = av[(i, j)] - ritz[j] * x[(i, j)];
                norm2 += r * r;
            }
            assert!(
                norm2.sqrt() / ritz[j] < 1e-4,
                "residual of pair {j}: {}",
                norm2.sqrt() / ritz[j]
            );
        }
    }

    #[test]
    fn wan_cost_per_sweep_is_constant() {
        let op = test_operator(128);
        let rt = mini_grid(2, 2);
        let (_, _, wan_5) = run(&rt, &op, 4, 5);
        let (_, _, wan_10) = run(&rt, &op, 4, 10);
        // Each sweep: allgather (crosses WAN a few times) + TSQR up/down
        // (2 messages). The increment per sweep must be constant.
        let per_sweep = (wan_10 - wan_5) as f64 / 5.0;
        let base = wan_5 as f64 - 5.0 * per_sweep;
        assert!(per_sweep > 0.0 && base >= 0.0, "wan5={wan_5} wan10={wan_10}");
        assert!(per_sweep <= 10.0, "per-sweep WAN bill stays O(sites): {per_sweep}");
    }

    #[test]
    fn single_process_matches_dense_solver() {
        let op = test_operator(96);
        let rt = mini_grid(1, 1);
        let (ritz, x, wan) = run(&rt, &op, 3, 60);
        assert_eq!(wan, 0);
        let full = sym_eig(&op.a);
        for (got, want) in ritz.iter().zip(&full.values[..3]) {
            // k = 3 leaves the λ₃/λ₄ gap at ~0.83, so convergence is
            // slower than the k = 4 test; 60 sweeps give ~0.83^120.
            assert!((got - want).abs() / want < 1e-5, "{got} vs {want}");
        }
        assert!(orthogonality(&x) < 1e-12);
    }
}
