//! Ablation: load-balanced domains on a heterogeneous grid — the paper's
//! §III "natural extension" (rows attributed to each domain in proportion
//! to its processing power), which it leaves as future work.
//!
//! Setup: a two-cluster grid where one cluster's processors run 2× faster
//! than the other's. We compare TSQR with (a) even row attribution and the
//! whole grid throttled to the slow cluster (the paper's synchronous
//! convention), and (b) rate-proportional rows with every cluster running
//! at its own speed.

use crate::{ShapeCheck, Sweep};
use tsqr_core::domains::DomainLayout;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tile::Dims;
use tsqr_core::tsqr::{tsqr_rank_program_with, TsqrConfig};
use tsqr_gridmpi::Runtime;
use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

fn hetero_grid() -> (GridTopology, CostModel) {
    let specs = vec![
        ClusterSpec { name: "slow".into(), nodes: 16, procs_per_node: 1, peak_gflops_per_proc: 1.0 },
        ClusterSpec { name: "fast".into(), nodes: 16, procs_per_node: 1, peak_gflops_per_proc: 2.0 },
    ];
    let topo = GridTopology::block_placement(specs, 16, 1);
    let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1.0e9, 2);
    model.inter_cluster[0][1] = LinkParams::from_ms_mbps(8.0, 80.0);
    model.inter_cluster[1][0] = LinkParams::from_ms_mbps(8.0, 80.0);
    (topo, model)
}

fn makespan(layout: &DomainLayout, rt: &Runtime, rates: &[f64]) -> f64 {
    let cfg = TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: 16,
        ..Default::default()
    };
    let tree = ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
    let report = rt.run(|p, _| {
        let rate = rates[p.cluster()];
        let dims = |_, rows| Dims { rows, cols: layout.n };
        tsqr_rank_program_with(p, layout, &tree, &cfg, Some(rate), dims).map(|_| ())
    });
    report.makespan.secs()
}

pub(super) fn run(_: &mut Sweep, checks: &mut ShapeCheck) {
    let (topo, model) = hetero_grid();
    let rt = Runtime::new(topo, model);
    let (m, n) = (1u64 << 22, 64usize);

    // (a) Paper convention: even rows, everyone throttled to the slow rate.
    let even = DomainLayout::build(rt.topology(), m, n, 16);
    let t_throttled = makespan(&even, &rt, &[1.0e9, 1.0e9]);

    // (b) Even rows but native rates: the fast cluster waits at the reduce.
    let t_unbalanced = makespan(&even, &rt, &[1.0e9, 2.0e9]);

    // (c) Extension: rows proportional to cluster rate, native rates.
    let weighted = DomainLayout::build_weighted(rt.topology(), m, n, 16, &[1.0, 2.0]);
    let t_balanced = makespan(&weighted, &rt, &[1.0e9, 2.0e9]);

    println!("# Load-balance ablation — M = {m}, N = {n}, 2 clusters (1x vs 2x speed)");
    println!("  throttled-to-slowest (paper convention): {t_throttled:.3} s");
    println!("  even rows, native rates                : {t_unbalanced:.3} s");
    println!("  rate-proportional rows, native rates   : {t_balanced:.3} s");
    println!(
        "  speedup of balancing vs throttling     : {:.2}x",
        t_throttled / t_balanced
    );

    checks.check(
        "even rows at native rates are bottlenecked by the slow cluster",
        (t_unbalanced / t_throttled - 1.0).abs() < 0.05,
        format!("{t_unbalanced:.3} vs {t_throttled:.3} s"),
    );
    checks.check(
        "rate-proportional rows beat both",
        t_balanced < t_unbalanced && t_balanced < t_throttled,
        format!("{t_balanced:.3} s"),
    );
    checks.check(
        "balancing approaches the ideal 1.5x aggregate-rate speedup",
        t_throttled / t_balanced > 1.3,
        format!("{:.2}x of ideal 1.50x", t_throttled / t_balanced),
    );
}
