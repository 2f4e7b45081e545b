//! Ablation: TSQR vs CholeskyQR — the "same messages, different
//! stability" trade of §II-E.
//!
//! CholeskyQR reduces one Gram matrix instead of one R factor, so its
//! communication bill matches TSQR's (a single `log₂(P)`-deep reduction);
//! what TSQR buys with its extra `2/3·log₂(P)·N³` flops is unconditional
//! stability. This artifact measures both sides: virtual-time performance
//! on the Grid'5000 model, and orthogonality loss on matrices of growing
//! condition number (real numerics).

use crate::{ShapeCheck, Sweep};
use tsqr_core::cholqr::{cholqr, CholQrError};
use tsqr_core::domains::{even_chunks, DomainLayout};
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{tsqr_rank_program_with, TsqrConfig};
use tsqr_core::workload;
use tsqr_gridmpi::Runtime;
use tsqr_linalg::prelude::*;
use tsqr_linalg::verify::orthogonality;
use tsqr_linalg::Matrix;
use tsqr_netsim::{two_tier_grid, LinkParams};

fn mini_grid(clusters: usize, procs: usize) -> Runtime {
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let wan = LinkParams::from_ms_mbps(8.0, 80.0);
    let (topo, model) = two_tier_grid(clusters, procs, lan, wan, 3.67e9);
    Runtime::new(topo, model)
}

/// `A = U·diag(10^(−k·j/(n−1)))·Vᵀ`: condition number ≈ 10^k with mixed
/// singular directions.
fn graded(m: usize, n: usize, k: f64) -> Matrix {
    let u = QrFactors::compute(&workload::full_matrix(41, m, n), 16).q_thin();
    let v = QrFactors::compute(&workload::full_matrix(43, n, n), 16).q_thin();
    let scaled = Matrix::from_fn(m, n, |i, j| {
        u[(i, j)] * 10f64.powf(-k * j as f64 / (n as f64 - 1.0))
    });
    scaled.matmul(&v.transpose())
}

/// Distributed TSQR with explicit Q; returns (Q, makespan_s, wan_msgs).
fn run_tsqr(rt: &Runtime, a: &Matrix) -> (Matrix, f64, u64) {
    let (m, n) = a.shape();
    let procs = rt.topology().num_procs() / rt.topology().num_clusters();
    let layout = DomainLayout::build(rt.topology(), m as u64, n, procs);
    let tree =
        ReductionTree::build(&TreeShape::GridHierarchical, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: procs,
        compute_q: true,
        ..Default::default()
    };
    let report = rt.run(|p, _| {
        tsqr_rank_program_with(p, &layout, &tree, &cfg, None, |row0, rows| {
            a.sub_matrix(row0 as usize, 0, rows, n)
        })
    });
    let makespan = report.makespan.secs();
    let wan = report.totals.inter_cluster_msgs();
    let mut blocks: Vec<(u64, Matrix)> = report
        .ranks
        .into_iter()
        .map(|r| {
            let o = r.result.unwrap();
            (o.row0, o.q_block.unwrap())
        })
        .collect();
    blocks.sort_by_key(|(r0, _)| *r0);
    let refs: Vec<&Matrix> = blocks.iter().map(|(_, b)| b).collect();
    (Matrix::vstack_all(&refs), makespan, wan)
}

/// Distributed CholeskyQR; returns Ok(Q, makespan, wan) or Err on the
/// positive-definiteness cliff.
fn run_cholqr(rt: &Runtime, a: &Matrix) -> Result<(Matrix, f64, u64), String> {
    let (m, n) = a.shape();
    let procs = rt.topology().num_procs();
    let chunks = even_chunks(m as u64, procs);
    let report = rt.run(|p, world| {
        let me = world.my_index(p);
        let row0: u64 = chunks[..me].iter().sum();
        let local = a.sub_matrix(row0 as usize, 0, chunks[me] as usize, n);
        match cholqr(p, world, local, None) {
            Ok(out) => Ok(Some(out.q_local)),
            Err(CholQrError::GramNotPd { .. }) => Ok(None),
            Err(CholQrError::Comm(e)) => Err(e),
        }
    });
    let makespan = report.makespan.secs();
    let wan = report.totals.inter_cluster_msgs();
    let mut qs = Vec::new();
    for r in report.ranks {
        match r.result.unwrap() {
            Some(q) => qs.push(q),
            None => return Err("Gram not positive definite".into()),
        }
    }
    let refs: Vec<&Matrix> = qs.iter().collect();
    Ok((Matrix::vstack_all(&refs), makespan, wan))
}

pub(super) fn run(_: &mut Sweep, checks: &mut ShapeCheck) {
    let rt = mini_grid(2, 4);
    let (m, n) = (2048usize, 16usize);

    println!("# TSQR vs CholeskyQR — {m} x {n} on 2 sites x 4 procs");
    println!(
        "# {:>8} {:>26} {:>26}",
        "kappa", "TSQR ||QtQ-I|| / time", "CholQR ||QtQ-I|| / time"
    );

    let mut first_comparison: Option<(f64, f64)> = None;
    for k in [0.0f64, 3.0, 6.0, 9.0, 12.0] {
        let a = graded(m, n, k);
        let (q_t, t_t, wan_t) = run_tsqr(&rt, &a);
        let tsqr_orth = orthogonality(&q_t);
        let chol = run_cholqr(&rt, &a);
        match chol {
            Ok((q_c, t_c, wan_c)) => {
                let chol_orth = orthogonality(&q_c);
                println!(
                    "  {:>8.0e} {:>14.2e} / {:>7.4}s {:>14.2e} / {:>7.4}s",
                    10f64.powf(k),
                    tsqr_orth,
                    t_t,
                    chol_orth,
                    t_c
                );
                if first_comparison.is_none() {
                    first_comparison = Some((wan_t as f64, wan_c as f64));
                }
                if k >= 6.0 {
                    checks.check(
                        &format!("kappa=1e{k:.0}: CholeskyQR loses orthogonality, TSQR does not"),
                        chol_orth > 1e3 * tsqr_orth.max(1e-16),
                        format!("cholqr {chol_orth:.2e} vs tsqr {tsqr_orth:.2e}"),
                    );
                }
            }
            Err(e) => {
                println!(
                    "  {:>8.0e} {:>14.2e} / {:>7.4}s {:>26}",
                    10f64.powf(k),
                    tsqr_orth,
                    t_t,
                    format!("FAILED ({e})")
                );
                checks.check(
                    &format!("kappa=1e{k:.0}: TSQR survives where CholeskyQR fails"),
                    tsqr_orth < 1e-12,
                    format!("tsqr {tsqr_orth:.2e}"),
                );
            }
        }
        checks.check(
            &format!("kappa=1e{k:.0}: TSQR at machine precision"),
            tsqr_orth < 1e-12,
            format!("{tsqr_orth:.2e}"),
        );
    }

    if let Some((wan_t, wan_c)) = first_comparison {
        // TSQR with Q: up + down sweep = 2·(sites−1) total; CholeskyQR's
        // butterfly all-reduce exchanges across the site boundary once per
        // rank (its critical path is still a single WAN round-trip).
        let procs = rt.topology().num_procs() as f64;
        println!(
            "# WAN messages: TSQR(Q) {wan_t} total, CholeskyQR {wan_c} total ({} per rank)",
            wan_c / procs
        );
        checks.check(
            "both are O(1) WAN rounds per rank — the same communication class",
            wan_t <= 4.0 && wan_c / procs <= 2.0,
            format!("{wan_t} total vs {} per rank", wan_c / procs),
        );
    }
}
