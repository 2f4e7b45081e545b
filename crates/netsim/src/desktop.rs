//! An internet-scale desktop-grid preset — the environment the paper's
//! §II-E leaves as future work ("porting the work to a general desktop
//! grid") and §II-D sizes ("the difference can reach three or four orders
//! of magnitude on an international, shared network such as the
//! Internet").
//!
//! The model: volunteer hosts grouped into geographic regions (the
//! "cluster-like setups" of Superlink@Technion / the Lattice project /
//! EdGES / the Condor pool that §II-E says contribute most of the power).
//! Consumer-broadband links inside a region, intercontinental shared
//! internet between regions:
//!
//! | link | latency | throughput |
//! |---|---|---|
//! | same host (procs) | 20 µs | 5 Gb/s |
//! | intra-region | 25 ms | 50 Mb/s |
//! | inter-region | 150 ms | 8 Mb/s |
//!
//! Inter-region latency is ~2,000× the Grid'5000 intra-cluster latency —
//! the "three or four orders of magnitude" regime, where ScaLAPACK's
//! per-column reductions are hopeless and the tuned-tree argument is at
//! its strongest (see `grid-tsqr figure --id desktop_grid`).

use crate::cost::{CostModel, LinkParams};
use crate::topology::{ClusterSpec, GridTopology};

/// Hosts booked per region in the preset experiments.
pub const HOSTS_PER_REGION: usize = 32;

/// Sustained per-host rate: a volunteer desktop core, ≈ 1 Gflop/s.
pub const HOST_GFLOPS: f64 = 1.0;

/// Region descriptions (names are illustrative).
pub fn regions(count: usize) -> Vec<ClusterSpec> {
    let names = ["europe", "north-america", "asia", "south-america", "oceania"];
    assert!(count >= 1 && count <= names.len(), "1..=5 regions supported");
    names
        .iter()
        .take(count)
        .map(|&name| ClusterSpec {
            name: name.to_string(),
            nodes: 1024, // plenty of volunteers
            procs_per_node: 1,
            peak_gflops_per_proc: HOST_GFLOPS,
        })
        .collect()
}

/// The desktop-grid cost model (see module docs for the constants).
pub fn cost_model(region_count: usize) -> CostModel {
    let inter = LinkParams::from_ms_mbps(150.0, 8.0);
    CostModel {
        intra_node: LinkParams::from_ms_mbps(0.02, 5000.0),
        intra_cluster: LinkParams::from_ms_mbps(25.0, 50.0),
        inter_cluster: vec![vec![inter; region_count]; region_count],
        flops_per_proc: HOST_GFLOPS * 1e9,
        wan_overhead_s: 0.0,
    }
}

/// A placed desktop grid: `region_count` regions × [`HOSTS_PER_REGION`]
/// single-core volunteer hosts.
pub fn topology(region_count: usize) -> GridTopology {
    GridTopology::block_placement(regions(region_count), HOSTS_PER_REGION, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcLocation;

    #[test]
    fn preset_sizes() {
        assert_eq!(topology(1).num_procs(), 32);
        assert_eq!(topology(4).num_procs(), 128);
        assert_eq!(regions(5).len(), 5);
    }

    #[test]
    fn latency_regime_is_three_orders_beyond_grid5000() {
        // §II-D: inter-region latency vs Grid'5000's 0.07 ms intra-cluster.
        let m = cost_model(2);
        let a = ProcLocation { cluster: 0, node: 0, slot: 0 };
        let b = ProcLocation { cluster: 1, node: 0, slot: 0 };
        let wan = m.message_time(a, b, 0).secs();
        assert!(wan / 0.07e-3 > 1000.0, "ratio {}", wan / 0.07e-3);
    }

    #[test]
    fn hierarchy_holds() {
        let m = cost_model(3);
        let host = ProcLocation { cluster: 0, node: 0, slot: 0 };
        let neighbor = ProcLocation { cluster: 0, node: 5, slot: 0 };
        let far = ProcLocation { cluster: 2, node: 5, slot: 0 };
        let bytes = 1 << 20;
        assert!(m.message_time(host, neighbor, bytes) < m.message_time(host, far, bytes));
    }

    #[test]
    #[should_panic(expected = "regions supported")]
    fn too_many_regions_panics() {
        let _ = regions(9);
    }
}
