//! The α/β/γ cost model of the paper's Eq. (1).
//!
//! `time = β·(#msg) + α·(volume) + γ·(#flops)` — β is the latency of a link,
//! α the inverse bandwidth, γ the inverse flop rate of a domain. A message
//! between two ranks is priced by the class of the link between them:
//! intra-node, intra-cluster, or the specific inter-cluster site pair.

use crate::time::VirtualTime;
use crate::topology::{ClusterSpec, GridTopology, ProcLocation};

/// The class of the link between two process locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same node (shared-memory transport).
    IntraNode,
    /// Same cluster, different nodes (cluster interconnect).
    IntraCluster,
    /// Different clusters (wide-area link between sites `a < b`).
    InterCluster(usize, usize),
}

impl LinkClass {
    /// Classifies the link between two locations.
    pub fn between(a: ProcLocation, b: ProcLocation) -> LinkClass {
        if a.cluster != b.cluster {
            let (lo, hi) =
                if a.cluster < b.cluster { (a.cluster, b.cluster) } else { (b.cluster, a.cluster) };
            LinkClass::InterCluster(lo, hi)
        } else if a.node != b.node {
            LinkClass::IntraCluster
        } else {
            LinkClass::IntraNode
        }
    }

    /// True for wide-area (between-site) links.
    pub fn is_inter_cluster(self) -> bool {
        matches!(self, LinkClass::InterCluster(_, _))
    }

    /// A coarse three-way bucket (used by the traffic counters).
    pub fn bucket(self) -> usize {
        match self {
            LinkClass::IntraNode => 0,
            LinkClass::IntraCluster => 1,
            LinkClass::InterCluster(_, _) => 2,
        }
    }

    /// Number of coarse buckets ([`LinkClass::bucket`] values `0..N_BUCKETS`).
    pub const N_BUCKETS: usize = 3;

    /// Short human-readable label for this link class: `"node"`,
    /// `"cluster"` or `"wan"`. Stable — used verbatim in trace exports
    /// and metrics tables (see `docs/observability.md`).
    pub fn label(self) -> &'static str {
        Self::bucket_label(self.bucket())
    }

    /// The label of a coarse bucket index (see [`LinkClass::bucket`]).
    ///
    /// # Panics
    /// Panics when `bucket >= N_BUCKETS`.
    pub(crate) fn bucket_label(bucket: usize) -> &'static str {
        match bucket {
            0 => "node",
            1 => "cluster",
            2 => "wan",
            _ => panic!("link-class bucket out of range: {bucket}"),
        }
    }
}

/// Latency/bandwidth of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way latency β, in seconds.
    pub latency_s: f64,
    /// Bandwidth, in bits per second.
    pub bandwidth_bps: f64,
}

impl LinkParams {
    /// Builds from a latency in milliseconds and a throughput in Mb/s —
    /// the units of the paper's Fig. 3(a).
    pub fn from_ms_mbps(latency_ms: f64, throughput_mbps: f64) -> Self {
        LinkParams { latency_s: latency_ms * 1e-3, bandwidth_bps: throughput_mbps * 1e6 }
    }

    /// Time to move `bytes` over this link: `β + 8·bytes / bandwidth`.
    pub fn transfer_time(&self, bytes: u64) -> VirtualTime {
        VirtualTime::from_secs(self.latency_s + (bytes as f64) * 8.0 / self.bandwidth_bps)
    }
}

/// Complete pricing of a grid: per-class link parameters plus per-process
/// sustained flop rates.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Shared-memory transport inside a node.
    pub intra_node: LinkParams,
    /// Cluster interconnect (assumed uniform across sites, as on Grid'5000
    /// where every site measured 890 Mb/s).
    pub intra_cluster: LinkParams,
    /// `inter[a][b]` (and `[b][a]`) for sites `a ≠ b`.
    pub inter_cluster: Vec<Vec<LinkParams>>,
    /// Sustained per-process flop rate in flop/s used for `γ` (the paper's
    /// practical bound: serial GotoBLAS DGEMM, 3.67 Gflop/s).
    pub flops_per_proc: f64,
    /// Congestion surcharge added to every **inter-cluster** message, in
    /// seconds (default 0).
    ///
    /// Long shared wide-area paths punish chatty protocols beyond the
    /// clean `β + α·v` price: TCP slow-start, cross-traffic and software
    /// overheads land on every message. Algorithms that send `O(log P)`
    /// WAN messages barely notice; ScaLAPACK's `O(N·log P)` per-column
    /// reductions feel every millisecond — which is the paper's Fig. 4
    /// multi-site collapse. See
    /// `grid-tsqr figure --id ablation_wan_congestion`.
    pub wan_overhead_s: f64,
}

impl CostModel {
    /// Link parameters between two locations.
    pub fn link(&self, a: ProcLocation, b: ProcLocation) -> LinkParams {
        match LinkClass::between(a, b) {
            LinkClass::IntraNode => self.intra_node,
            LinkClass::IntraCluster => self.intra_cluster,
            LinkClass::InterCluster(x, y) => self.inter_cluster[x][y],
        }
    }

    /// Time for a `bytes`-sized message from `a` to `b` (Eq. (1)'s
    /// `β + α·vol` for a single message, plus the WAN congestion
    /// surcharge on inter-cluster links).
    pub fn message_time(&self, a: ProcLocation, b: ProcLocation, bytes: u64) -> VirtualTime {
        let base = self.link(a, b).transfer_time(bytes);
        if LinkClass::between(a, b).is_inter_cluster() {
            base + VirtualTime::from_secs(self.wan_overhead_s)
        } else {
            base
        }
    }

    /// Receiver-side NIC serialization: when a `bytes`-sized message from
    /// `from` whose last byte would reach an idle NIC at `arrival` has been
    /// clocked in by a receiver at `to` whose NIC is busy until `nic_free`.
    /// The payload's wire time queues behind whatever the NIC was already
    /// receiving — `arrival` exactly for an idle NIC; for a hot one (the
    /// root of a flat tree with P−1 concurrent senders) messages queue.
    ///
    /// The payload's wire time is [`CostModel::wire_time`].
    #[inline]
    pub fn receive_done(
        &self,
        from: ProcLocation,
        to: ProcLocation,
        bytes: u64,
        arrival: VirtualTime,
        nic_free: VirtualTime,
    ) -> VirtualTime {
        arrival.max(nic_free + self.wire_time(from, to, bytes))
    }

    /// How long a receive NIC at `to` is busy clocking in a `bytes`-sized
    /// message from `from`: the payload's bandwidth term, without latency.
    ///
    /// The `gridmpi` runtime (through [`CostModel::receive_done`], or, in
    /// a folded all-reduce, once per link class of a communicator's plan
    /// and wire size, the price kept across folds while the wire size
    /// holds) and the `tune` makespan predictor both price every receive
    /// through this one function, which is what makes the prediction
    /// bit-identical to the simulation.
    #[inline]
    pub fn wire_time(&self, from: ProcLocation, to: ProcLocation, bytes: u64) -> VirtualTime {
        VirtualTime::from_secs(bytes as f64 * 8.0 / self.link(from, to).bandwidth_bps)
    }

    /// Returns a copy with the given WAN congestion surcharge.
    pub fn with_wan_overhead(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "overhead must be non-negative");
        self.wan_overhead_s = seconds;
        self
    }

    /// Time for `flops` floating-point operations at rate `rate_flops`
    /// (flop/s), or at the model's default rate when `rate_flops` is `None`.
    pub fn compute_time(&self, flops: u64, rate_flops: Option<f64>) -> VirtualTime {
        let rate = rate_flops.unwrap_or(self.flops_per_proc);
        assert!(rate > 0.0, "flop rate must be positive");
        VirtualTime::from_secs(flops as f64 / rate)
    }

    /// A uniform model (every link identical) — useful for unit tests and
    /// for reproducing the homogeneous-network assumption of §IV.
    pub fn homogeneous(link: LinkParams, flops_per_proc: f64, n_clusters: usize) -> Self {
        CostModel {
            intra_node: link,
            intra_cluster: link,
            inter_cluster: vec![vec![link; n_clusters]; n_clusters],
            flops_per_proc,
            wan_overhead_s: 0.0,
        }
    }

    /// Checks the model covers every site of `topo` (panics otherwise);
    /// returns `self` for chaining.
    pub fn validated_for(self, topo: &GridTopology) -> Self {
        let n = topo.num_clusters();
        assert!(
            self.inter_cluster.len() >= n
                && self.inter_cluster.iter().take(n).all(|row| row.len() >= n),
            "cost model covers {} sites, topology has {n}",
            self.inter_cluster.len()
        );
        self
    }
}

/// A uniform two-tier grid and its pricing: `clusters` sites of `nodes`
/// single-processor nodes, every link inside a site `lan`, every site pair
/// `wan`, every process sustaining `flops_per_proc` — the miniature grid
/// the test suites and small benches run on.
pub fn two_tier_grid(
    clusters: usize,
    nodes: usize,
    lan: LinkParams,
    wan: LinkParams,
    flops_per_proc: f64,
) -> (GridTopology, CostModel) {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let mut model = CostModel::homogeneous(lan, flops_per_proc, clusters);
    model.inter_cluster = vec![vec![wan; clusters]; clusters];
    (GridTopology::block_placement(specs, nodes, 1), model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(cluster: usize, node: usize, slot: usize) -> ProcLocation {
        ProcLocation { cluster, node, slot }
    }

    #[test]
    fn link_classification() {
        assert_eq!(LinkClass::between(loc(0, 0, 0), loc(0, 0, 1)), LinkClass::IntraNode);
        assert_eq!(LinkClass::between(loc(0, 0, 0), loc(0, 1, 0)), LinkClass::IntraCluster);
        assert_eq!(LinkClass::between(loc(2, 0, 0), loc(1, 3, 1)), LinkClass::InterCluster(1, 2));
        assert!(LinkClass::between(loc(0, 0, 0), loc(1, 0, 0)).is_inter_cluster());
    }

    #[test]
    fn labels_match_buckets() {
        assert_eq!(LinkClass::IntraNode.label(), "node");
        assert_eq!(LinkClass::IntraCluster.label(), "cluster");
        assert_eq!(LinkClass::InterCluster(0, 3).label(), "wan");
        for b in 0..LinkClass::N_BUCKETS {
            assert!(!LinkClass::bucket_label(b).is_empty());
        }
    }

    #[test]
    fn link_class_is_symmetric() {
        let a = loc(3, 1, 0);
        let b = loc(1, 2, 1);
        assert_eq!(LinkClass::between(a, b), LinkClass::between(b, a));
    }

    #[test]
    fn transfer_time_units() {
        // 1 ms latency, 8 Mb/s → 1 byte costs 1 µs of bandwidth time.
        let p = LinkParams::from_ms_mbps(1.0, 8.0);
        let t = p.transfer_time(1000);
        assert!((t.secs() - (1e-3 + 1e-3)).abs() < 1e-12);
        // Zero-byte message costs exactly the latency.
        assert!((p.transfer_time(0).secs() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn message_time_picks_the_right_class() {
        let fast = LinkParams::from_ms_mbps(0.017, 5000.0);
        let med = LinkParams::from_ms_mbps(0.07, 890.0);
        let slow = LinkParams::from_ms_mbps(8.0, 80.0);
        let model = CostModel {
            intra_node: fast,
            intra_cluster: med,
            inter_cluster: vec![vec![slow; 2]; 2],
            flops_per_proc: 3.67e9,
            wan_overhead_s: 0.0,
        };
        let t_node = model.message_time(loc(0, 0, 0), loc(0, 0, 1), 1024);
        let t_clus = model.message_time(loc(0, 0, 0), loc(0, 5, 0), 1024);
        let t_wan = model.message_time(loc(0, 0, 0), loc(1, 0, 0), 1024);
        assert!(t_node < t_clus && t_clus < t_wan);
    }

    #[test]
    fn compute_time_uses_rate() {
        let model = CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 100.0), 1e9, 1);
        assert!((model.compute_time(2_000_000_000, None).secs() - 2.0).abs() < 1e-12);
        assert!((model.compute_time(1_000_000_000, Some(0.5e9)).secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wan_overhead_applies_to_inter_cluster_only() {
        let p = LinkParams::from_ms_mbps(1.0, 100.0);
        let m = CostModel::homogeneous(p, 1e9, 2).with_wan_overhead(5e-3);
        let local = m.message_time(loc(0, 0, 0), loc(0, 1, 0), 0);
        let wan = m.message_time(loc(0, 0, 0), loc(1, 0, 0), 0);
        assert!((local.secs() - 1e-3).abs() < 1e-12);
        assert!((wan.secs() - 6e-3).abs() < 1e-12);
    }

    #[test]
    fn homogeneous_model_is_uniform() {
        let p = LinkParams::from_ms_mbps(1.0, 10.0);
        let m = CostModel::homogeneous(p, 1e9, 3);
        assert_eq!(m.link(loc(0, 0, 0), loc(0, 0, 1)), p);
        assert_eq!(m.link(loc(0, 0, 0), loc(2, 1, 1)), p);
    }
}
