//! TSLU: tall-and-skinny LU with tournament pivoting over the same
//! reduction trees as TSQR — the paper's §VI: "the work and conclusion we
//! have reached here for TSQR/CAQR can be (trivially) extended to
//! TSLU/CALU \[25\]".
//!
//! Partial pivoting needs one reduction **per column** to find each pivot
//! (the same communication bill as ScaLAPACK's QR2). Tournament pivoting
//! replaces it with a single reduction: every leaf nominates its `n` local
//! pivot rows (via a local partially-pivoted LU), and each tree node plays
//! off two candidate sets by LU-factoring their `2n × n` stack and keeping
//! the `n` winning rows. The root's winners become the panel's pivot rows;
//! their `U` factor is broadcast back down and every rank computes its
//! local `L` rows with one triangular solve.
//!
//! The output is a genuine `P·A = L·U` factorization of the panel: the
//! winner rows carry a unit-lower-triangular `L` block, every other row's
//! multipliers are bounded by a modest growth factor (against the
//! exponential blow-up of unpivoted LU).

use tsqr_gridmpi::{CommError, Communicator, Process};
use tsqr_linalg::flops;
use tsqr_linalg::lu::getrf;
use tsqr_linalg::tri::trsm_right_upper;
use tsqr_linalg::Matrix;

use crate::domains::DomainLayout;
use crate::tree::{ReductionTree, Step};

/// Tag for candidate sets travelling up the tournament tree.
const TAG_CAND: u32 = 1101;

/// What one rank gets back from a TSLU run.
#[derive(Debug, Clone)]
pub struct TsluRankOutput {
    /// The `n × n` upper-triangular factor (identical on every rank after
    /// the broadcast).
    pub u: Matrix,
    /// Global row indices of the tournament winners, in pivot order
    /// (meaningful on every rank; chosen at the root).
    pub winners: Vec<u64>,
    /// This rank's rows of `L` (`m_loc × n`): `L_loc = A_loc · U⁻¹`.
    pub l_local: Matrix,
    /// First global row this rank held.
    pub row0: u64,
}

/// A candidate set in the tournament: `n` rows plus their global indices.
type Candidates = (Matrix, Vec<u64>);

/// Plays off two candidate sets: LU-factor the stacked `2n × n` block with
/// partial pivoting and keep the `n` winning rows (and their indices).
fn playoff(mine: Candidates, theirs: Candidates) -> Candidates {
    let (a, ai) = mine;
    let (b, bi) = theirs;
    let n = a.cols();
    let stacked = a.vstack(&b);
    let idx: Vec<u64> = ai.iter().chain(bi.iter()).copied().collect();
    let f = getrf(&stacked);
    let winners = f.pivot_rows_of(&stacked);
    // Track which original rows won: replay the swaps on the index list.
    let mut perm: Vec<usize> = (0..stacked.rows()).collect();
    for (j, &p) in f.ipiv.iter().enumerate() {
        perm.swap(j, p);
    }
    let win_idx: Vec<u64> = perm[..n].iter().map(|&i| idx[i]).collect();
    (winners, win_idx)
}

/// The rank program of a numerically real TSLU run over caller-supplied
/// data. Requires single-process domains (the tournament leaves).
pub fn tslu_rank_program_with(
    p: &mut Process,
    world: &Communicator,
    layout: &DomainLayout,
    tree: &ReductionTree,
    rate_flops: Option<f64>,
    local_block: impl FnOnce(u64, usize) -> Matrix,
) -> Result<TsluRankOutput, CommError> {
    let n = layout.n;
    let d = layout
        .domain_of_rank(p.rank())
        .unwrap_or_else(|| panic!("rank {} is in no domain", p.rank()));
    let dom = &layout.domains[d];
    assert_eq!(dom.ranks.len(), 1, "TSLU requires single-process domains");
    let (row0, rows) = (dom.row0, dom.rows);
    let local = local_block(row0, rows as usize);
    assert_eq!(local.shape(), (rows as usize, n), "local_block returned the wrong shape");
    let roots = layout.roots();

    // --- Leaf: local partially-pivoted LU nominates n candidate rows. ---
    let f = getrf(&local);
    p.compute(flops::geqrf(rows, n as u64) / 2, rate_flops); // LU ≈ half of QR
    let cand_rows = f.pivot_rows_of(&local);
    let mut perm: Vec<usize> = (0..local.rows()).collect();
    for (j, &piv) in f.ipiv.iter().enumerate() {
        perm.swap(j, piv);
    }
    let cand_idx: Vec<u64> = perm[..n].iter().map(|&i| row0 + i as u64).collect();
    let mut cand: Candidates = (cand_rows, cand_idx);

    // --- Tournament up the reduction tree. ---
    for step in &tree.steps[d] {
        match *step {
            Step::Recv(from_d) => {
                let theirs: Candidates = p.recv(roots[from_d], TAG_CAND)?;
                cand = playoff(cand, theirs);
                // A 2n × n LU: ≈ 2·(2n)·n²/2 − … ≈ n³ flops; charge the
                // same structured-combine convention as TSQR.
                p.compute(flops::tpqrt(n as u64), rate_flops);
            }
            Step::Send(to_d) => {
                p.send(roots[to_d], TAG_CAND, cand.clone())?;
            }
        }
    }

    // --- Root factors the winners; broadcast U and the pivot list. ---
    let payload: Option<(Matrix, Vec<u64>)> = (p.rank() == 0).then(|| {
        let (w, idx) = &cand;
        let fw = getrf(w);
        // Fold the winners' own partial pivoting into the pivot order.
        let mut wperm: Vec<usize> = (0..n).collect();
        for (j, &piv) in fw.ipiv.iter().enumerate() {
            wperm.swap(j, piv);
        }
        let ordered_idx: Vec<u64> = wperm.iter().map(|&i| idx[i]).collect();
        (fw.u(), ordered_idx)
    });
    let (u, winners) = world.bcast(p, 0, payload)?;

    // --- Every rank computes its L rows: L_loc = A_loc · U⁻¹. ---
    let mut l_local = local;
    trsm_right_upper(&u.view(), &mut l_local.view_mut());
    p.compute(rows * (n as u64) * (n as u64), rate_flops);

    Ok(TsluRankOutput { u, winners, l_local, row0 })
}

/// Convenience wrapper over the seeded random workload.
pub fn tslu_rank_program(
    p: &mut Process,
    world: &Communicator,
    layout: &DomainLayout,
    tree: &ReductionTree,
    seed: u64,
    rate_flops: Option<f64>,
) -> Result<TsluRankOutput, CommError> {
    let n = layout.n;
    tslu_rank_program_with(p, world, layout, tree, rate_flops, |row0, rows| {
        crate::workload::block(seed, row0, rows, n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeShape;
    use crate::workload;
    use crate::mini_grid;
    use tsqr_gridmpi::Runtime;

    fn run_tslu(
        rt: &Runtime,
        a: &Matrix,
        shape: TreeShape,
        dpc: usize,
    ) -> (Vec<TsluRankOutput>, u64) {
        let (m, n) = a.shape();
        let layout = DomainLayout::build(rt.topology(), m as u64, n, dpc);
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let report = rt.run(|p, world| {
            tslu_rank_program_with(p, world, &layout, &tree, None, |row0, rows| {
                a.sub_matrix(row0 as usize, 0, rows, n)
            })
        });
        let wan = report.totals.inter_cluster_msgs();
        (report.ranks.into_iter().map(|r| r.result.unwrap()).collect(), wan)
    }

    /// Checks the global `P·A = L·U` identity: every local row must equal
    /// its L row times U, the winner rows must carry unit-lower L, and the
    /// growth must be bounded.
    fn verify(a: &Matrix, outs: &[TsluRankOutput], growth_bound: f64) {
        let n = a.cols();
        let u = &outs[0].u;
        let winners = &outs[0].winners;
        assert_eq!(winners.len(), n);
        // Consistent broadcast.
        for o in outs {
            assert!(o.u.approx_eq(u, 0.0));
            assert_eq!(&o.winners, winners);
        }
        // Assemble L by global row.
        let mut l = Matrix::zeros(a.rows(), n);
        for o in outs {
            l.set_sub(o.row0 as usize, 0, &o.l_local);
        }
        // Reconstruction: A = L·U row by row.
        let rec = l.matmul(u);
        assert!(
            rec.sub_elem(a).norm_max() < 1e-10 * a.norm_max().max(1.0),
            "A != L·U"
        );
        // Winner rows form a unit lower triangle in pivot order.
        for (i, &w) in winners.iter().enumerate() {
            for (j, &_w2) in winners.iter().enumerate().skip(i + 1) {
                assert!(
                    l[(w as usize, j)].abs() < 1e-10,
                    "winner L must be lower triangular (row {i}, col {j})"
                );
            }
            assert!(
                (l[(w as usize, i)] - 1.0).abs() < 1e-10,
                "winner diagonal must be 1"
            );
        }
        // Bounded growth.
        assert!(
            l.norm_max() <= growth_bound,
            "growth {} exceeds bound {growth_bound}",
            l.norm_max()
        );
    }

    #[test]
    fn tournament_lu_factors_random_panels() {
        let a = workload::full_matrix(71, 256, 6);
        for (clusters, procs, dpc) in [(1, 4, 4), (2, 4, 4), (2, 2, 2), (1, 8, 8)] {
            let rt = mini_grid(clusters, procs);
            for shape in [TreeShape::Binary, TreeShape::GridHierarchical, TreeShape::Flat] {
                let (outs, _) = run_tslu(&rt, &a, shape, dpc);
                verify(&a, &outs, 50.0);
            }
        }
    }

    #[test]
    fn hierarchical_tournament_is_wan_frugal() {
        let a = workload::full_matrix(73, 240, 5);
        let rt = mini_grid(3, 4);
        let (outs, wan) = run_tslu(&rt, &a, TreeShape::GridHierarchical, 4);
        verify(&a, &outs, 50.0);
        // Tournament up: clusters−1 = 2; broadcast down crosses each site
        // boundary once more: ≤ 2 more.
        assert!(wan <= 4, "got {wan} WAN messages");
    }

    #[test]
    fn tournament_bounds_growth_where_unpivoted_lu_explodes() {
        // A panel whose natural row order has tiny leading entries: no
        // pivoting would produce multipliers ~1e8; the tournament must
        // keep them modest.
        let n = 4;
        let m = 64;
        let a = Matrix::from_fn(m, n, |i, j| {
            let v = workload::entry(77, i as u64, j as u64);
            if i < n {
                v * 1e-8 // poisonous top rows
            } else {
                v
            }
        });
        let rt = mini_grid(1, 4);
        let (outs, _) = run_tslu(&rt, &a, TreeShape::Binary, 4);
        verify(&a, &outs, 50.0);
        // And no winner comes from the poisoned rows.
        for &w in &outs[0].winners {
            assert!(w >= n as u64, "tournament picked a tiny row {w}");
        }
    }

    #[test]
    fn single_process_degenerates_to_partial_pivoting() {
        let a = workload::full_matrix(79, 40, 5);
        let rt = mini_grid(1, 1);
        let (outs, _) = run_tslu(&rt, &a, TreeShape::Binary, 1);
        verify(&a, &outs, 50.0);
        // With one leaf the winners are exactly the partial-pivoting
        // pivots of the whole panel.
        let f = getrf(&a);
        let mut perm: Vec<usize> = (0..40).collect();
        for (j, &p) in f.ipiv.iter().enumerate() {
            perm.swap(j, p);
        }
        let want: Vec<u64> = perm[..5].iter().map(|&i| i as u64).collect();
        assert_eq!(outs[0].winners, want);
    }
}
