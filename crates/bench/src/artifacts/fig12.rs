//! Figures 1 and 2: inter-cluster message counts of the ScaLAPACK panel
//! factorization (one reduction tree per column, topology-oblivious)
//! versus the single topology-tuned TSQR reduction.
//!
//! The paper's example: an M × 3 panel over three clusters. ScaLAPACK
//! performs 5 reductions (2 per column for the first two columns, 1 for
//! the last) whose binary trees cross clusters repeatedly — 25
//! inter-cluster messages in the paper's layout; the tuned TSQR tree pays
//! exactly 2, independent of the column count.

use crate::harness::{symbolic, Artifact, Sweep, Table};
use tsqr_core::experiment::{run_experiment, Algorithm};
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_gridmpi::Runtime;
use tsqr_netsim::{two_tier_grid, LinkParams};

/// Inter-cluster messages of one symbolic `600 × n` run.
fn wan_msgs(rt: &Runtime, n: usize, algorithm: Algorithm) -> u64 {
    run_experiment(rt, &symbolic(600, n, algorithm)).totals.inter_cluster_msgs()
}

pub(super) fn run(_: &Sweep) -> Artifact {
    let n = 3;
    let tuned = Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 2 };
    let mut table = Table::new(
        format!("Figs. 1-2 — inter-cluster messages, M x {n} panel on 3 clusters of 2 procs"),
        &["reduction", "inter-cluster msgs"],
    );
    let mut row =
        |reduction: &str, msgs: u64| table.rows.push(vec![reduction.into(), msgs.to_string()]);

    // Three clusters of two single-socket nodes — six processes, the shape
    // of the paper's illustration.
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let wan = LinkParams::from_ms_mbps(8.0, 80.0);
    let (three_clusters, model) = two_tier_grid(3, 2, lan, wan, 3.67e9);

    // Fig. 1: ScaLAPACK panel factorization, ranks block-placed.
    let rt = Runtime::new(three_clusters.clone(), model.clone());
    let scal = wan_msgs(&rt, n, Algorithm::ScalapackQr2);
    row("scalapack block-placed ranks", scal);

    // Fig. 1 (caption): with randomly distributed ranks "the figure can be
    // worse".
    let rt_shuffled = Runtime::new(three_clusters.shuffled(5), model);
    let scal_shuffled = wan_msgs(&rt_shuffled, n, Algorithm::ScalapackQr2);
    row("scalapack shuffled ranks", scal_shuffled);

    // Fig. 2: TSQR with the grid-tuned tree.
    let tsqr = wan_msgs(&rt, n, tuned.clone());
    row("tsqr grid-tuned tree", tsqr);

    // And an untuned binary tree over shuffled ranks for contrast.
    let tree_oblivious = ReductionTree::build(&TreeShape::Binary, 6, &[0; 6]);
    let shuffled_clusters: Vec<usize> =
        (0..6).map(|r| rt_shuffled.topology().cluster_of(r)).collect();
    row(
        "tsqr untuned binary (shuffled)",
        tree_oblivious.inter_cluster_messages(&shuffled_clusters) as u64,
    );

    let mut artifact = Artifact { tables: vec![table], checks: Vec::new() };
    artifact.check(
        "tuned tree sends exactly #clusters - 1 = 2 WAN messages (Fig. 2)",
        tsqr == 2,
        format!("{tsqr}"),
    );
    artifact.check(
        "ScaLAPACK sends an order of magnitude more WAN messages (Fig. 1)",
        scal >= 10,
        format!("{scal} (paper illustration: 25)"),
    );
    artifact.check(
        "random rank placement makes ScaLAPACK worse (Fig. 1 caption)",
        scal_shuffled >= scal,
        format!("{scal_shuffled} vs {scal}"),
    );
    artifact.check(
        "WAN messages of the tuned tree are independent of N",
        wan_msgs(&rt, 12, tuned) == 2,
        "N = 3 and N = 12 both cost 2".to_string(),
    );
    artifact
}
