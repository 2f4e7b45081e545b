//! Property-based test of the virtual-time profiler: for *any* reduction
//! tree shape — fixed, generated, or a random custom parent vector — the
//! folded-stack profile must tile every rank's timeline exactly (leaf
//! self-times sum to that rank's makespan within 1e-9 relative).
//!
//! This is the provable invariant behind `grid-tsqr trace --folded-out`
//! and the bench gate's per-point profile assertion: a flame graph whose
//! widths don't add up to the makespan is lying about where the time
//! went.

use proptest::prelude::*;

use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::{FoldedProfile, Runtime};
use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

/// Deterministic splittable generator for structural randomness (custom
/// tree shapes derived from a proptest-supplied seed).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random heap-ordered parent vector (`parents[i] ∈ 0..i`) — the class
/// every built-in generator produces.
fn random_heap_parents(n: usize, seed: u64) -> Vec<Option<usize>> {
    (0..n).map(|i| if i == 0 { None } else { Some((mix(seed, i as u64) as usize) % i) }).collect()
}

/// A little grid with a deliberately slow WAN so the traces exercise all
/// three link classes (and therefore sends, waits, and idle gaps).
fn small_grid(clusters: usize, procs_per_cluster: usize) -> Runtime {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: procs_per_cluster,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, procs_per_cluster, 1);
    let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 800.0), 1e9, clusters);
    for a in 0..clusters {
        for b in 0..clusters {
            if a != b {
                model.inter_cluster[a][b] = LinkParams::from_ms_mbps(10.0, 100.0);
            }
        }
    }
    Runtime::new(topo, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Leaf self-times tile every rank's makespan for random tree shapes,
    /// problem sizes, and domain counts.
    #[test]
    fn folded_profile_tiles_random_tree_shapes(
        clusters in 1usize..3,
        shape_idx in 0usize..7,
        k in 1usize..5,
        m_exp in 12u32..16,
        dpc_exp in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let dpc = 1usize << dpc_exp; // 1, 2 or 4 domains per cluster
        let shape = match shape_idx {
            0 => TreeShape::Flat,
            1 => TreeShape::Binary,
            2 => TreeShape::GridHierarchical,
            3 => TreeShape::Binomial,
            4 => TreeShape::Greedy,
            5 => TreeShape::Kary(k),
            _ => TreeShape::Custom(random_heap_parents(clusters * dpc, seed)),
        };
        let mut rt = small_grid(clusters, 4);
        rt.enable_tracing();
        let res = run_experiment(
            &rt,
            &Experiment {
                m: 1u64 << m_exp,
                n: 16,
                algorithm: Algorithm::Tsqr { shape: shape.clone(), domains_per_cluster: dpc },
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(1e9),
                combine_rate_flops: None,
            },
        );
        let trace = res.trace.as_ref().expect("tracing was enabled");
        let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
        let err = profile.max_tiling_error_rel();
        prop_assert!(
            err <= 1e-9,
            "profile does not tile the timelines for {shape:?} (rel err {err:.3e})"
        );
        // Rank-level restatement of the same invariant, plus: no rank can
        // be busy-or-idle past the run's makespan.
        for r in 0..profile.num_ranks() {
            let span = profile.rank_makespan(r);
            let total = profile.rank_total(r);
            prop_assert!(
                (total - span).abs() <= 1e-9 * span.max(f64::MIN_POSITIVE),
                "rank {r}: leaves sum to {total}, makespan {span}"
            );
            prop_assert!(span <= res.makespan.secs() * (1.0 + 1e-12));
        }
    }
}
