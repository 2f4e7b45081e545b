//! Resource catalogs: what the grid offers to the meta-scheduler.

use tsqr_netsim::{grid5000, ClusterSpec, CostModel};

/// The scheduler's view of a grid: cluster inventory plus measured network
/// performance (the information QosCosGrid keeps about its resources).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceCatalog {
    /// Available clusters.
    pub clusters: Vec<ClusterSpec>,
    /// Measured link performance between and within the clusters.
    pub network: CostModel,
}

impl ResourceCatalog {
    /// The Grid'5000 catalog of the paper's §V-A: Orsay, Toulouse,
    /// Bordeaux, Sophia with the Fig. 3(a) network measurements.
    pub fn grid5000() -> Self {
        ResourceCatalog { clusters: grid5000::clusters(), network: grid5000::cost_model() }
    }

    /// Total processor count across all clusters.
    pub fn total_procs(&self) -> usize {
        self.clusters.iter().map(|c| c.nodes * c.procs_per_node).sum()
    }

    /// The slowest per-processor peak across the given cluster indices —
    /// the rate a synchronous algorithm effectively runs at (§V-A).
    pub(crate) fn min_peak_gflops(&self, cluster_indices: &[usize]) -> f64 {
        cluster_indices
            .iter()
            .map(|&c| self.clusters[c].peak_gflops_per_proc)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid5000_inventory() {
        let cat = ResourceCatalog::grid5000();
        assert_eq!(cat.clusters.len(), 4);
        assert_eq!(cat.total_procs(), 2 * (312 + 80 + 93 + 56));
    }

    #[test]
    fn min_peak_over_selection() {
        let cat = ResourceCatalog::grid5000();
        // Orsay (8.0) is the slowest of all four.
        assert_eq!(cat.min_peak_gflops(&[0, 1, 2, 3]), 8.0);
        // Bordeaux alone: 10.4.
        assert_eq!(cat.min_peak_gflops(&[2]), 10.4);
    }
}
