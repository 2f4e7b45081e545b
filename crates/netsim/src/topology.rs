//! Grid topology: clusters of multi-socket nodes and process placement.

/// Static description of one cluster (geographical site).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable site name (e.g. `"orsay"`).
    pub name: String,
    /// Number of nodes available at the site.
    pub nodes: usize,
    /// Processor sockets per node (the paper's clusters are dual-processor).
    pub procs_per_node: usize,
    /// Per-processor theoretical peak in Gflop/s (8.0–10.4 on Grid'5000).
    pub peak_gflops_per_proc: f64,
}

/// Where a process (MPI rank) lives in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcLocation {
    /// Cluster (site) index.
    pub cluster: usize,
    /// Node index within the cluster.
    pub node: usize,
    /// Processor slot within the node.
    pub slot: usize,
}

/// A concrete grid: clusters plus the placement of every process rank.
///
/// `placement[rank]` gives the rank's physical coordinate; the runtime uses
/// it (through [`crate::cost::CostModel`]) to price every message.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTopology {
    /// Per-site descriptions.
    pub clusters: Vec<ClusterSpec>,
    /// Physical coordinates of each rank.
    pub placement: Vec<ProcLocation>,
}

impl GridTopology {
    /// Builds a topology placing `procs_per_node × nodes_per_cluster` ranks
    /// on each of the first `n_clusters` clusters, filling node slots first
    /// (ranks are dense within a cluster, clusters are contiguous rank
    /// ranges — the layout QCG-OMPI's group allocation produces).
    pub fn block_placement(
        clusters: Vec<ClusterSpec>,
        nodes_per_cluster: usize,
        procs_per_node: usize,
    ) -> Self {
        let mut placement = Vec::new();
        for (c, spec) in clusters.iter().enumerate() {
            assert!(
                nodes_per_cluster <= spec.nodes,
                "cluster {} has only {} nodes, {} requested",
                spec.name,
                spec.nodes,
                nodes_per_cluster
            );
            assert!(
                procs_per_node <= spec.procs_per_node,
                "cluster {} has only {} procs/node, {} requested",
                spec.name,
                spec.procs_per_node,
                procs_per_node
            );
            for node in 0..nodes_per_cluster {
                for slot in 0..procs_per_node {
                    placement.push(ProcLocation { cluster: c, node, slot });
                }
            }
        }
        GridTopology { clusters, placement }
    }

    /// Total number of placed processes.
    pub fn num_procs(&self) -> usize {
        self.placement.len()
    }

    /// Number of sites.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Location of a rank.
    pub fn location(&self, rank: usize) -> ProcLocation {
        self.placement[rank]
    }

    /// The cluster index of a rank.
    pub fn cluster_of(&self, rank: usize) -> usize {
        self.placement[rank].cluster
    }

    /// Ranks belonging to cluster `c`, in rank order.
    pub fn ranks_in_cluster(&self, c: usize) -> Vec<usize> {
        (0..self.num_procs()).filter(|&r| self.placement[r].cluster == c).collect()
    }

    /// A random (shuffled) placement of the same coordinates — models an
    /// MPI runtime that is *not* topology-aware, where consecutive ranks
    /// land on arbitrary sites (the pathological case of Fig. 1's caption:
    /// "if process ranks are randomly distributed, the figure can be
    /// worse").
    pub fn shuffled(&self, seed: u64) -> Self {
        // Fisher–Yates on the shared SplitMix64 stream; the seed is
        // offset by one gamma to preserve the historical sequence from
        // before the generator moved to `crate::rng`.
        let mut rng = crate::rng::SplitMix64::new(seed.wrapping_add(crate::rng::GOLDEN_GAMMA));
        let mut next = move || rng.next_u64();
        let mut placement = self.placement.clone();
        for i in (1..placement.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            placement.swap(i, j);
        }
        GridTopology { clusters: self.clusters.clone(), placement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sites() -> Vec<ClusterSpec> {
        vec![
            ClusterSpec {
                name: "a".into(),
                nodes: 4,
                procs_per_node: 2,
                peak_gflops_per_proc: 8.0,
            },
            ClusterSpec {
                name: "b".into(),
                nodes: 4,
                procs_per_node: 2,
                peak_gflops_per_proc: 10.0,
            },
        ]
    }

    #[test]
    fn block_placement_is_contiguous_per_cluster() {
        let topo = GridTopology::block_placement(two_sites(), 2, 2);
        assert_eq!(topo.num_procs(), 8);
        assert_eq!(topo.cluster_of(0), 0);
        assert_eq!(topo.cluster_of(3), 0);
        assert_eq!(topo.cluster_of(4), 1);
        assert_eq!(topo.ranks_in_cluster(1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn slots_fill_within_nodes_first() {
        let topo = GridTopology::block_placement(two_sites(), 2, 2);
        assert_eq!(topo.location(0), ProcLocation { cluster: 0, node: 0, slot: 0 });
        assert_eq!(topo.location(1), ProcLocation { cluster: 0, node: 0, slot: 1 });
        assert_eq!(topo.location(2), ProcLocation { cluster: 0, node: 1, slot: 0 });
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn over_allocation_panics() {
        let _ = GridTopology::block_placement(two_sites(), 5, 2);
    }

    #[test]
    fn shuffled_is_permutation_and_deterministic() {
        let topo = GridTopology::block_placement(two_sites(), 4, 2);
        let s1 = topo.shuffled(7);
        let s2 = topo.shuffled(7);
        assert_eq!(s1, s2, "same seed must give the same shuffle");
        let mut a = topo.placement.clone();
        let mut b = s1.placement.clone();
        let key = |p: &ProcLocation| (p.cluster, p.node, p.slot);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "shuffle must be a permutation");
        assert_ne!(topo.placement, s1.placement, "16 elements should actually move");
    }
}
