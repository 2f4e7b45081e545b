//! The Grid'5000 preset: the exact environment of the paper's §V-A,
//! with the measured communication constants of Fig. 3(a).
//!
//! Four clusters — Orsay, Toulouse, Bordeaux, Sophia-Antipolis — of
//! dual-processor nodes; the experiments reserve 32 nodes (64 processors,
//! two processes per node with serial BLAS, §V-B) per site. Intra-cluster
//! links are Gigabit Ethernet (890 Mb/s measured); sites are connected by
//! 10 Gb/s dark fiber but measured end-to-end at 61–102 Mb/s with 6–9 ms
//! latency; processes on the same node communicate through shared memory at
//! 5 Gb/s with 17 µs latency.

use crate::cost::{CostModel, LinkParams};
use crate::topology::{ClusterSpec, GridTopology};

/// Site indices of the preset, in the order of the paper's Fig. 3(a).
pub const ORSAY: usize = 0;
/// Toulouse site index.
pub const TOULOUSE: usize = 1;
/// Bordeaux site index.
pub const BORDEAUX: usize = 2;
/// Sophia-Antipolis site index.
pub const SOPHIA: usize = 3;

/// Nodes reserved per site in the paper's experiments.
pub const NODES_PER_SITE: usize = 32;
/// Processes per node (two single-threaded processes, §V-B).
pub const PROCS_PER_NODE: usize = 2;

/// The paper's practical per-process flop rate: serial GotoBLAS DGEMM,
/// ≈ 3.67 Gflop/s (256 processes × 3.67 ≈ 940 Gflop/s practical bound).
pub const DGEMM_GFLOPS: f64 = 3.67;

/// Per-site cluster descriptions (§V-A: full cluster sizes; peaks
/// 8.0–10.4 Gflop/s per processor).
pub fn clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec {
            name: "orsay".into(),
            nodes: 312,
            procs_per_node: 2,
            peak_gflops_per_proc: 8.0,
        },
        ClusterSpec {
            name: "toulouse".into(),
            nodes: 80,
            procs_per_node: 2,
            peak_gflops_per_proc: 8.6,
        },
        ClusterSpec {
            name: "bordeaux".into(),
            nodes: 93,
            procs_per_node: 2,
            peak_gflops_per_proc: 10.4,
        },
        ClusterSpec {
            name: "sophia".into(),
            nodes: 56,
            procs_per_node: 2,
            peak_gflops_per_proc: 8.8,
        },
    ]
}

/// Measured inter-site latency in milliseconds (Fig. 3(a), upper triangle;
/// the table is symmetric).
pub const INTER_LATENCY_MS: [[f64; 4]; 4] = [
    // to:   orsay  toulouse bordeaux sophia
    /* orsay    */ [0.07, 7.97, 6.98, 6.12],
    /* toulouse */ [7.97, 0.03, 9.03, 8.18],
    /* bordeaux */ [6.98, 9.03, 0.05, 7.18],
    /* sophia   */ [6.12, 8.18, 7.18, 0.06],
];

/// Measured inter-site throughput in Mb/s (Fig. 3(a)).
pub const INTER_THROUGHPUT_MBPS: [[f64; 4]; 4] = [
    /* orsay    */ [890.0, 78.0, 90.0, 102.0],
    /* toulouse */ [78.0, 890.0, 77.0, 90.0],
    /* bordeaux */ [90.0, 77.0, 890.0, 83.0],
    /* sophia   */ [102.0, 90.0, 83.0, 890.0],
];

/// The measured cost model of Fig. 3(a) and §V-A:
/// intra-node 17 µs / 5 Gb/s, intra-cluster 70 µs / 890 Mb/s,
/// inter-cluster per the measured site-pair matrix.
pub fn cost_model() -> CostModel {
    let inter: Vec<Vec<LinkParams>> = (0..4)
        .map(|a| {
            (0..4)
                .map(|b| {
                    LinkParams::from_ms_mbps(INTER_LATENCY_MS[a][b], INTER_THROUGHPUT_MBPS[a][b])
                })
                .collect()
        })
        .collect();
    CostModel {
        intra_node: LinkParams::from_ms_mbps(0.017, 5000.0),
        intra_cluster: LinkParams::from_ms_mbps(0.07, 890.0),
        inter_cluster: inter,
        flops_per_proc: DGEMM_GFLOPS * 1e9,
        wan_overhead_s: 0.0,
    }
}

/// The experimental platform of §V: `sites` clusters (taken in the paper's
/// order), 32 nodes each, 2 processes per node.
///
/// `sites = 1` gives the 64-process single-site runs, `2` the 128-process
/// and `4` the 256-process grid runs of Figs. 4–8.
pub fn topology(sites: usize) -> GridTopology {
    assert!((1..=4).contains(&sites), "Grid'5000 preset has 4 sites, {sites} requested");
    let clusters = clusters().into_iter().take(sites).collect();
    GridTopology::block_placement(clusters, NODES_PER_SITE, PROCS_PER_NODE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinkClass;
    use crate::topology::ProcLocation;

    #[test]
    fn preset_sizes_match_the_paper() {
        assert_eq!(topology(1).num_procs(), 64);
        assert_eq!(topology(2).num_procs(), 128);
        assert_eq!(topology(4).num_procs(), 256);
    }

    #[test]
    fn latency_matrix_is_symmetric_and_hierarchical() {
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(INTER_LATENCY_MS[a][b], INTER_LATENCY_MS[b][a]);
                assert_eq!(INTER_THROUGHPUT_MBPS[a][b], INTER_THROUGHPUT_MBPS[b][a]);
                if a != b {
                    // Two orders of magnitude between intra and inter (§II-D).
                    assert!(INTER_LATENCY_MS[a][b] > 50.0 * 0.07);
                    assert!(INTER_THROUGHPUT_MBPS[a][b] < 890.0);
                }
            }
        }
    }

    #[test]
    fn cost_model_orders_link_classes() {
        let m = cost_model();
        let n0 = ProcLocation { cluster: 0, node: 0, slot: 0 };
        let n1 = ProcLocation { cluster: 0, node: 0, slot: 1 };
        let n2 = ProcLocation { cluster: 0, node: 7, slot: 0 };
        let n3 = ProcLocation { cluster: 3, node: 0, slot: 0 };
        let bytes = 64 * 1024;
        let t_node = m.message_time(n0, n1, bytes);
        let t_clus = m.message_time(n0, n2, bytes);
        let t_wan = m.message_time(n0, n3, bytes);
        assert!(t_node < t_clus && t_clus < t_wan);
        // Inter-cluster latency dominated, ≥ 6 ms.
        assert!(t_wan.secs() > 6e-3);
    }

    #[test]
    fn inter_cluster_pairs_use_their_measured_link() {
        let m = cost_model();
        let orsay = ProcLocation { cluster: ORSAY, node: 0, slot: 0 };
        let toulouse = ProcLocation { cluster: TOULOUSE, node: 0, slot: 0 };
        let sophia = ProcLocation { cluster: SOPHIA, node: 0, slot: 0 };
        // Orsay–Toulouse: 7.97 ms; Orsay–Sophia: 6.12 ms.
        assert!((m.link(orsay, toulouse).latency_s - 7.97e-3).abs() < 1e-12);
        assert!((m.link(orsay, sophia).latency_s - 6.12e-3).abs() < 1e-12);
        assert_eq!(LinkClass::between(orsay, toulouse), LinkClass::InterCluster(ORSAY, TOULOUSE));
    }

    #[test]
    fn practical_peak_is_940_gflops() {
        let total = topology(4).num_procs() as f64 * DGEMM_GFLOPS;
        assert!((total - 939.5).abs() < 1.0, "got {total}");
    }

    #[test]
    #[should_panic(expected = "4 sites")]
    fn too_many_sites_panics() {
        let _ = topology(5);
    }
}
