//! The meta-scheduler: matches a [`JobProfile`] against a
//! [`ResourceCatalog`] and produces a concrete allocation.

use std::fmt;

use tsqr_netsim::{ClusterSpec, CostModel, GridTopology};

use crate::catalog::ResourceCatalog;
use crate::profile::JobProfile;

/// Why an allocation request could not be satisfied.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Fewer clusters satisfy the intra-group requirement than groups
    /// requested.
    NotEnoughClusters {
        /// Groups the profile asked for.
        requested: usize,
        /// Clusters that qualified.
        available: usize,
    },
    /// A qualifying cluster cannot host `procs_per_group` processes.
    NotEnoughProcs {
        /// The cluster that fell short.
        cluster: String,
        /// Processes it can host.
        capacity: usize,
        /// Processes the profile needs per group.
        needed: usize,
    },
    /// The network between two chosen clusters violates the inter-group
    /// requirement.
    InterGroupNetworkTooWeak {
        /// First cluster name.
        a: String,
        /// Second cluster name.
        b: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotEnoughClusters { requested, available } => write!(
                f,
                "profile requests {requested} groups but only {available} clusters qualify"
            ),
            ScheduleError::NotEnoughProcs { cluster, capacity, needed } => write!(
                f,
                "cluster {cluster} can host {capacity} processes, {needed} needed per group"
            ),
            ScheduleError::InterGroupNetworkTooWeak { a, b } => {
                write!(f, "link {a} <-> {b} violates the inter-group requirement")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A concrete allocation: placement, per-rank group identifiers, and the
/// effective synchronous compute rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The placed topology (ranks dense within each group's cluster).
    pub topology: GridTopology,
    /// The network pricing the allocation runs under.
    pub network: CostModel,
    /// `group_of[rank]` — the group identifier QCG-OMPI exposes through its
    /// MPI attribute (§III); feed it to `Communicator::split_by`.
    pub group_of: Vec<usize>,
    /// Catalog indices of the clusters hosting each group.
    pub cluster_of_group: Vec<usize>,
    /// Processes booked per node (may be less than the node's sockets when
    /// power balancing demands it, §III).
    pub procs_per_node_used: usize,
    /// The per-process flop rate every group is throttled to — the slowest
    /// member's peak (§V-A's "efficiency of the slowest component").
    pub effective_gflops_per_proc: f64,
}

impl Allocation {
    /// Ranks belonging to group `g`, in rank order.
    pub fn group_members(&self, g: usize) -> Vec<usize> {
        (0..self.group_of.len()).filter(|&r| self.group_of[r] == g).collect()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.cluster_of_group.len()
    }

    /// Nodes booked on each group's host cluster (every group books the
    /// same count: `procs_per_group / procs_per_node_used`).
    pub fn nodes_per_group(&self) -> usize {
        (self.group_of.len() / self.num_groups()) / self.procs_per_node_used
    }

    /// Returns this allocation's nodes to `pool`. Convenience alias for
    /// [`SlotPool::release`], reading as "the lease releases itself".
    pub fn release(&self, pool: &mut SlotPool) {
        pool.release(self);
    }

    /// Returns only the nodes this allocation booked on catalog cluster
    /// `site` — the failure path's partial release: when one of a job's
    /// sites crashes mid-run, the engine writes the dead site off via
    /// [`SlotPool::fail_site`] and hands back each *surviving* site with
    /// this call, so the pool's leak panic still guards the whole path.
    ///
    /// # Panics
    /// Panics when `site` is not part of this allocation, has already
    /// been released, or is marked down in the pool (dead slots are
    /// written off, never returned).
    pub fn release_site(&self, pool: &mut SlotPool, site: usize) {
        pool.release_site(self, site);
    }
}

/// Node-level slot accounting over a [`ResourceCatalog`]: the mutable
/// inventory a long-lived scheduler (e.g. the `tsqr-serve` engine) leases
/// capacity from and returns it to.
///
/// [`allocate`] itself is stateless — it answers "could this profile run
/// on this catalog?" and the paper's single-job experiments never needed
/// more. A serving layer does: concurrent jobs must not double-book
/// nodes, and finished jobs must hand their nodes back. `SlotPool` keeps
/// a free-node counter per cluster, hands [`allocate`]'s selection half
/// those counters in place of the catalog's node counts (the catalog is
/// read by reference, never copied, so `cluster_of_group` indexes the real
/// catalog by construction), and books/returns whole nodes per
/// allocate/release. Every release asserts the counter never exceeds the
/// physical cluster size, which makes slot leaks loud instead of silent.
#[derive(Debug, Clone)]
pub struct SlotPool {
    catalog: ResourceCatalog,
    free_nodes: Vec<usize>,
    /// Nodes currently leased out per cluster (free + leased = physical,
    /// except on downed clusters where leases are written off).
    leased_nodes: Vec<usize>,
    /// Clusters that have crashed ([`SlotPool::fail_site`]): zero free
    /// capacity forever, and releases to them panic.
    down: Vec<bool>,
}

impl SlotPool {
    /// A pool with every node of `catalog` free.
    pub fn new(catalog: ResourceCatalog) -> Self {
        let free_nodes: Vec<usize> = catalog.clusters.iter().map(|c| c.nodes).collect();
        let n = free_nodes.len();
        SlotPool { catalog, free_nodes, leased_nodes: vec![0; n], down: vec![false; n] }
    }

    /// The underlying (full-capacity) catalog.
    pub fn catalog(&self) -> &ResourceCatalog {
        &self.catalog
    }

    /// Free nodes currently available on catalog cluster `c`.
    pub fn free_nodes(&self, c: usize) -> usize {
        self.free_nodes[c]
    }

    /// Total free nodes across all clusters.
    pub fn total_free_nodes(&self) -> usize {
        self.free_nodes.iter().sum()
    }

    /// True when catalog cluster `c` has crashed.
    pub fn site_down(&self, c: usize) -> bool {
        self.down[c]
    }

    /// Clusters still alive.
    pub fn up_sites(&self) -> usize {
        self.down.iter().filter(|&&d| !d).count()
    }

    /// Marks catalog cluster `c` as crashed: its free capacity drops to
    /// zero permanently and its outstanding leased nodes are written off
    /// (the engine kills the affected jobs in the same event step and
    /// releases only their *surviving* sites via
    /// [`Allocation::release_site`]). Returns the written-off node count.
    ///
    /// # Panics
    /// Panics on a double crash of the same cluster.
    pub fn fail_site(&mut self, c: usize) -> usize {
        assert!(!self.down[c], "cluster {} already failed", self.catalog.clusters[c].name);
        self.down[c] = true;
        self.free_nodes[c] = 0;
        std::mem::take(&mut self.leased_nodes[c])
    }

    /// True when no lease is outstanding and every surviving cluster is
    /// fully free (the leak-free invariant after a full drain; downed
    /// clusters count as vacuously drained once their write-off is done).
    pub fn is_idle(&self) -> bool {
        self.leased_nodes.iter().all(|&l| l == 0)
            && self
                .free_nodes
                .iter()
                .zip(&self.catalog.clusters)
                .zip(&self.down)
                .all(|((&f, c), &down)| if down { f == 0 } else { f == c.nodes })
    }

    /// True when `profile` would fit the *surviving* clusters at full
    /// capacity — i.e. an allocation failure right now means "wait for a
    /// release", not "this shape can never run again". The elastic
    /// re-planner walks this predicate down from the requested site count
    /// after a crash. A yes/no needs the selection only: no topology is
    /// built.
    pub fn feasible_on_survivors(&self, profile: &JobProfile) -> bool {
        let survivors: Vec<usize> = (self.catalog.clusters.iter().zip(&self.down))
            .map(|(spec, &down)| if down { 0 } else { spec.nodes })
            .collect();
        select(&self.catalog, &survivors, profile).is_ok()
    }

    /// Leases an allocation for `profile` out of the *free* capacity.
    ///
    /// The strategy is [`allocate`] with the current free-node counts
    /// standing in for the cluster sizes, so placement naturally prefers
    /// the emptiest clusters (contention-aware ranking for free) and the
    /// placed topology's `ClusterSpec::nodes` are the free counts it was
    /// cut from. A `NotEnoughProcs`/`NotEnoughClusters` error under a
    /// partially-booked pool means "wait for a release", not "impossible
    /// on this grid" — callers distinguish the two with
    /// [`SlotPool::feasible_on_survivors`]. A refused lease changes
    /// nothing: only a granted one builds a topology and books nodes.
    pub fn allocate(&mut self, profile: &JobProfile) -> Result<Allocation, ScheduleError> {
        let selection = select(&self.catalog, &self.free_nodes, profile)?;
        let alloc = materialise(&self.catalog, &self.free_nodes, selection);
        let booked = alloc.nodes_per_group();
        for &c in &alloc.cluster_of_group {
            debug_assert!(self.free_nodes[c] >= booked, "allocation exceeded free capacity");
            self.free_nodes[c] -= booked;
            self.leased_nodes[c] += booked;
        }
        Ok(alloc)
    }

    /// Returns the nodes of `alloc` to the pool.
    ///
    /// # Panics
    /// Panics when the return would push a cluster past its physical node
    /// count — i.e. on a double release or a release of a foreign
    /// allocation, the two ways slot accounting can leak — or when any
    /// of the allocation's clusters has crashed (the failure path must
    /// release survivors one by one via [`Allocation::release_site`]).
    pub fn release(&mut self, alloc: &Allocation) {
        for &c in &alloc.cluster_of_group {
            self.release_site(alloc, c);
        }
    }

    /// Returns only the nodes `alloc` booked on catalog cluster `site`.
    /// See [`Allocation::release_site`] for the failure-path contract.
    ///
    /// # Panics
    /// Panics when `site` is not part of `alloc`, is down, or when the
    /// return would leak slots (double release).
    pub fn release_site(&mut self, alloc: &Allocation, site: usize) {
        assert!(
            alloc.cluster_of_group.contains(&site),
            "release_site: cluster {site} is not part of this allocation"
        );
        assert!(
            !self.down[site],
            "slot-accounting leak: releasing nodes to crashed cluster {}",
            self.catalog.clusters[site].name,
        );
        let booked = alloc.nodes_per_group();
        assert!(
            self.leased_nodes[site] >= booked,
            "slot-accounting leak: cluster {} has {} leased nodes, release of {} attempted",
            self.catalog.clusters[site].name,
            self.leased_nodes[site],
            booked,
        );
        self.leased_nodes[site] -= booked;
        self.free_nodes[site] += booked;
        assert!(
            self.free_nodes[site] <= self.catalog.clusters[site].nodes,
            "slot-accounting leak: cluster {} freed past its {} physical nodes",
            self.catalog.clusters[site].name,
            self.catalog.clusters[site].nodes,
        );
    }
}

/// Allocates resources for `profile` from `catalog`.
///
/// Strategy (mirrors §III), in two halves. **Selection** reads the catalog
/// by reference and decides everything a yes/no answer needs:
/// 1. which clusters qualify (the intra-group network requirement),
/// 2. rank them by capacity and take the `groups` largest,
/// 3. check each chosen cluster can host `procs_per_group` processes,
/// 4. verify the pairwise inter-group links,
/// 5. book `procs_per_group` processes on as few nodes as possible (and
///    re-check the node count under partial-node booking),
/// 6. throttle every process to the slowest selected cluster's peak.
///
/// **Materialisation** is what only a granted request pays:
/// 7. the placed topology, `group_of` and the [`Allocation`] itself.
pub fn allocate(catalog: &ResourceCatalog, profile: &JobProfile) -> Result<Allocation, ScheduleError> {
    let nodes: Vec<usize> = catalog.clusters.iter().map(|c| c.nodes).collect();
    Ok(materialise(catalog, &nodes, select(catalog, &nodes, profile)?))
}

/// What steps 1–6 of [`allocate`] decide.
struct Selection {
    /// Catalog indices of the chosen clusters, one per group.
    chosen: Vec<usize>,
    procs_per_node_used: usize,
    nodes_per_group: usize,
    effective_gflops_per_proc: f64,
}

/// Steps 1–6 of [`allocate`], with `nodes[c]` standing in for
/// `catalog.clusters[c].nodes`: the catalog's own counts, a pool's free
/// counts, or the physical counts with crashed clusters at zero.
fn select(
    catalog: &ResourceCatalog,
    nodes: &[usize],
    profile: &JobProfile,
) -> Result<Selection, ScheduleError> {
    assert!(profile.groups > 0 && profile.procs_per_group > 0, "empty profile");
    // 1. Which clusters qualify for hosting a group? The intra-group
    //    network requirement must hold on the cluster interconnect, which
    //    the catalog prices once for every cluster: all qualify or none.
    let intra = catalog.network.intra_cluster;
    let available = if profile.intra_group.satisfied_by(intra.latency_s, intra.bandwidth_bps) {
        catalog.clusters.len()
    } else {
        0
    };
    if available < profile.groups {
        return Err(ScheduleError::NotEnoughClusters { requested: profile.groups, available });
    }
    // 2. Prefer clusters with the most processors (stable order on ties).
    let mut ranked: Vec<usize> = (0..catalog.clusters.len()).collect();
    ranked.sort_by_key(|&c| (std::cmp::Reverse(nodes[c] * catalog.clusters[c].procs_per_node), c));
    let chosen: Vec<usize> = ranked.into_iter().take(profile.groups).collect();

    // 3. Capacity check per chosen cluster.
    for &c in &chosen {
        let spec = &catalog.clusters[c];
        let capacity = nodes[c] * spec.procs_per_node;
        if capacity < profile.procs_per_group {
            return Err(ScheduleError::NotEnoughProcs {
                cluster: spec.name.clone(),
                capacity,
                needed: profile.procs_per_group,
            });
        }
    }

    // 4. Pairwise inter-group network check.
    for (i, &a) in chosen.iter().enumerate() {
        for &b in &chosen[i + 1..] {
            let link = catalog.network.inter_cluster[a][b];
            if !profile.inter_group.satisfied_by(link.latency_s, link.bandwidth_bps) {
                return Err(ScheduleError::InterGroupNetworkTooWeak {
                    a: catalog.clusters[a].name.clone(),
                    b: catalog.clusters[b].name.clone(),
                });
            }
        }
    }

    // 5. Book processes: use every socket of a node unless the group does
    //    not divide evenly, in which case book fewer processes per node
    //    (the paper booked half the cores of some machines, §III).
    let sockets = chosen
        .iter()
        .map(|&c| catalog.clusters[c].procs_per_node)
        .min()
        .expect("at least one cluster chosen");
    let procs_per_node_used = (1..=sockets)
        .rev()
        .find(|&ppn| profile.procs_per_group.is_multiple_of(ppn))
        .expect("ppn = 1 always divides");
    let nodes_per_group = profile.procs_per_group / procs_per_node_used;
    // Partial-node booking reduces the usable capacity: an odd group size
    // books one process per node, so the node count itself can run out
    // even when raw socket capacity sufficed.
    for &c in &chosen {
        if nodes_per_group > nodes[c] {
            return Err(ScheduleError::NotEnoughProcs {
                cluster: catalog.clusters[c].name.clone(),
                capacity: nodes[c] * procs_per_node_used,
                needed: profile.procs_per_group,
            });
        }
    }

    // 6. Effective synchronous rate: throttle to the slowest cluster when
    //    the peak spread exceeds the tolerance (§V-A).
    let peaks: Vec<f64> =
        chosen.iter().map(|&c| catalog.clusters[c].peak_gflops_per_proc).collect();
    // Synchronous algorithms run at the slowest member's rate regardless
    // of the tolerance; the tolerance only gates whether the allocation is
    // *accepted* as "equivalent computing power" in spirit. Grid'5000's
    // 8.0–10.4 spread sits inside the default 35% tolerance.
    let min_peak = peaks.iter().copied().fold(f64::INFINITY, f64::min);
    let max_peak = peaks.iter().copied().fold(0.0, f64::max);
    debug_assert!(max_peak.is_finite());
    let effective_gflops_per_proc = min_peak;
    Ok(Selection { chosen, procs_per_node_used, nodes_per_group, effective_gflops_per_proc })
}

/// Step 7 of [`allocate`]: the placed topology, one contiguous rank range
/// per group. Each placed `ClusterSpec::nodes` is the count the selection
/// saw (`nodes[c]`), not the catalog's.
fn materialise(catalog: &ResourceCatalog, nodes: &[usize], s: Selection) -> Allocation {
    let specs = (s.chosen.iter())
        .map(|&c| ClusterSpec { nodes: nodes[c], ..catalog.clusters[c].clone() })
        .collect();
    let topology = GridTopology::block_placement(specs, s.nodes_per_group, s.procs_per_node_used);
    let group_of: Vec<usize> = (0..topology.num_procs())
        .map(|r| topology.cluster_of(r))
        .collect();
    Allocation {
        topology,
        network: catalog.network.clone(),
        group_of,
        cluster_of_group: s.chosen,
        procs_per_node_used: s.procs_per_node_used,
        effective_gflops_per_proc: s.effective_gflops_per_proc,
    }
}

#[cfg(test)]
mod tests {
    use tsqr_netsim::{LinkParams, SplitMix64};

    use super::*;
    use crate::profile::NetworkRequirement;

    fn g5k() -> ResourceCatalog {
        ResourceCatalog::grid5000()
    }

    #[test]
    fn paper_experiment_allocation_four_sites() {
        let alloc = allocate(&g5k(), &JobProfile::cluster_of_clusters(4, 64)).unwrap();
        assert_eq!(alloc.num_groups(), 4);
        assert_eq!(alloc.topology.num_procs(), 256);
        assert_eq!(alloc.procs_per_node_used, 2);
        // Synchronous rate = slowest site (Orsay, 8.0 Gflop/s peak).
        assert_eq!(alloc.effective_gflops_per_proc, 8.0);
        // Groups are contiguous rank ranges of 64.
        for g in 0..4 {
            let members = alloc.group_members(g);
            assert_eq!(members.len(), 64);
            assert_eq!(members[0], g * 64);
        }
    }

    #[test]
    fn one_and_two_site_allocations() {
        for sites in [1, 2] {
            let alloc = allocate(&g5k(), &JobProfile::cluster_of_clusters(sites, 64)).unwrap();
            assert_eq!(alloc.topology.num_procs(), sites * 64);
            assert_eq!(alloc.num_groups(), sites);
        }
    }

    #[test]
    fn odd_group_size_books_partial_nodes() {
        // 31 processes per group cannot use both sockets evenly → 1 proc
        // per node on 31 nodes (the "half the cores" situation of §III).
        let alloc = allocate(&g5k(), &JobProfile::cluster_of_clusters(2, 31)).unwrap();
        assert_eq!(alloc.procs_per_node_used, 1);
        assert_eq!(alloc.topology.num_procs(), 62);
    }

    #[test]
    fn too_many_groups_is_rejected() {
        let err = allocate(&g5k(), &JobProfile::cluster_of_clusters(5, 8)).unwrap_err();
        assert_eq!(err, ScheduleError::NotEnoughClusters { requested: 5, available: 4 });
    }

    #[test]
    fn oversubscription_is_rejected() {
        // Sophia has 56 nodes = 112 procs; ask for 4 groups of 200.
        let err = allocate(&g5k(), &JobProfile::cluster_of_clusters(4, 200)).unwrap_err();
        match err {
            ScheduleError::NotEnoughProcs { needed: 200, .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn inter_group_requirement_can_reject_wan() {
        let mut profile = JobProfile::cluster_of_clusters(2, 8);
        // Demand cluster-quality links *between* groups: impossible on the
        // WAN.
        profile.inter_group = NetworkRequirement::from_ms_mbps(1.0, 500.0);
        let err = allocate(&g5k(), &profile).unwrap_err();
        match err {
            ScheduleError::InterGroupNetworkTooWeak { .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn group_ids_match_clusters() {
        let alloc = allocate(&g5k(), &JobProfile::cluster_of_clusters(3, 16)).unwrap();
        for r in 0..alloc.topology.num_procs() {
            assert_eq!(alloc.group_of[r], alloc.topology.cluster_of(r));
        }
    }

    #[test]
    fn prefers_biggest_clusters() {
        // For a single group the scheduler should pick Orsay (312 nodes).
        let alloc = allocate(&g5k(), &JobProfile::cluster_of_clusters(1, 64)).unwrap();
        assert_eq!(alloc.cluster_of_group, vec![0]);
    }

    #[test]
    fn slot_pool_exhausts_and_fully_recovers_grid5000() {
        // Lease single-site 64-proc jobs (32 dual-socket nodes each) until
        // the catalog runs dry, then release everything and check the pool
        // is exactly as full as it started — allocate→release is leak-free.
        let mut pool = SlotPool::new(g5k());
        let profile = JobProfile::cluster_of_clusters(1, 64);
        let mut leases = Vec::new();
        loop {
            match pool.allocate(&profile) {
                Ok(a) => {
                    assert_eq!(a.nodes_per_group(), 32);
                    leases.push(a);
                }
                Err(ScheduleError::NotEnoughProcs { .. }) => break,
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        // 312/32 + 93/32 + 80/32 + 56/32 = 9 + 2 + 2 + 1 whole leases.
        assert_eq!(leases.len(), 14);
        assert_eq!(pool.total_free_nodes(), (312 - 288) + (93 - 64) + (80 - 64) + (56 - 32));
        assert!(!pool.is_idle());
        for a in &leases {
            a.release(&mut pool);
        }
        assert!(pool.is_idle());
        assert_eq!(pool.total_free_nodes(), 312 + 93 + 80 + 56);
        // And the recovered pool serves the paper's four-site job again.
        let again = pool.allocate(&JobProfile::cluster_of_clusters(4, 64)).unwrap();
        assert_eq!(again.topology.num_procs(), 256);
        pool.release(&again);
        assert!(pool.is_idle());
    }

    #[test]
    fn slot_pool_prefers_emptiest_cluster() {
        // After Orsay is half-booked below Bordeaux's free capacity, a new
        // single-group job should land on Bordeaux (most free sockets).
        let mut pool = SlotPool::new(g5k());
        let profile = JobProfile::cluster_of_clusters(1, 64);
        let mut held = Vec::new();
        while pool.free_nodes(0) * 2 >= 186 {
            held.push(pool.allocate(&profile).unwrap());
            assert_eq!(held.last().unwrap().cluster_of_group, vec![0]);
        }
        let elsewhere = pool.allocate(&profile).unwrap();
        assert_eq!(elsewhere.cluster_of_group, vec![2], "expected Bordeaux");
    }

    #[test]
    #[should_panic(expected = "slot-accounting leak")]
    fn double_release_panics() {
        let mut pool = SlotPool::new(g5k());
        let a = pool.allocate(&JobProfile::cluster_of_clusters(2, 16)).unwrap();
        a.release(&mut pool);
        a.release(&mut pool);
    }

    #[test]
    fn mid_drain_site_crash_releases_survivors_and_pool_ends_empty() {
        // The failure-path contract the serving engine relies on: a
        // four-site job is mid-drain when one of its sites crashes. The
        // dead site's slots are written off, each surviving site is
        // handed back with release_site, and the pool ends the run
        // "empty" (idle) with no leak panic anywhere.
        let mut pool = SlotPool::new(g5k());
        let a = pool.allocate(&JobProfile::cluster_of_clusters(4, 64)).unwrap();
        let dead = a.cluster_of_group[1];
        let written_off = pool.fail_site(dead);
        assert_eq!(written_off, a.nodes_per_group(), "the lease's share is written off");
        assert!(pool.site_down(dead));
        assert_eq!(pool.up_sites(), 3);
        assert_eq!(pool.free_nodes(dead), 0, "a dead site has no capacity");
        for &c in &a.cluster_of_group {
            if c != dead {
                a.release_site(&mut pool, c);
            }
        }
        assert!(pool.is_idle(), "survivors released + dead site written off = empty pool");
        // The dead site never hosts again: a four-site profile is now
        // infeasible even at full capacity, three sites still fit.
        assert!(!pool.feasible_on_survivors(&JobProfile::cluster_of_clusters(4, 64)));
        assert!(pool.feasible_on_survivors(&JobProfile::cluster_of_clusters(3, 64)));
        let b = pool.allocate(&JobProfile::cluster_of_clusters(3, 64)).unwrap();
        assert!(!b.cluster_of_group.contains(&dead));
        b.release(&mut pool);
        assert!(pool.is_idle());
    }

    #[test]
    #[should_panic(expected = "releasing nodes to crashed cluster")]
    fn release_to_dead_site_panics() {
        let mut pool = SlotPool::new(g5k());
        let a = pool.allocate(&JobProfile::cluster_of_clusters(2, 64)).unwrap();
        let dead = a.cluster_of_group[0];
        pool.fail_site(dead);
        a.release_site(&mut pool, dead);
    }

    #[test]
    #[should_panic(expected = "already failed")]
    fn double_site_failure_panics() {
        let mut pool = SlotPool::new(g5k());
        pool.fail_site(1);
        pool.fail_site(1);
    }

    /// Unequal sockets per node, unequal peaks, and one cluster ("empty")
    /// too small to host a group of any size.
    fn lopsided() -> ResourceCatalog {
        let spec = |name: &str, nodes, procs_per_node, peak_gflops_per_proc| ClusterSpec {
            name: name.into(),
            nodes,
            procs_per_node,
            peak_gflops_per_proc,
        };
        ResourceCatalog {
            clusters: vec![
                spec("quad", 40, 4, 9.0),
                spec("single", 130, 1, 12.0),
                spec("empty", 0, 2, 8.0),
                spec("triple", 44, 3, 7.5),
            ],
            network: CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 900.0), 8e9, 4),
        }
    }

    /// The pre-split placement path, verbatim: clone the catalog, overwrite
    /// every `nodes` with the view's count, run the public [`allocate`] on
    /// the copy. Kept only as the reference the clone-free selection is
    /// checked against.
    fn allocate_on_view(
        catalog: &ResourceCatalog,
        nodes: &[usize],
        profile: &JobProfile,
    ) -> Result<Allocation, ScheduleError> {
        let mut view = catalog.clone();
        for (spec, &n) in view.clusters.iter_mut().zip(nodes) {
            spec.nodes = n;
        }
        allocate(&view, profile)
    }

    const GROUP_SIZES: [usize; 5] = [1, 31, 32, 64, 65];

    /// Every width (one past the cluster count, so `NotEnoughClusters` is
    /// compared too) × every group size: the pool's answers are the
    /// oracle's, field for field, `Ok` and `Err` alike.
    fn assert_pool_matches_the_oracle(pool: &SlotPool) {
        let survivors: Vec<usize> = (0..pool.down.len())
            .map(|c| if pool.down[c] { 0 } else { pool.catalog.clusters[c].nodes })
            .collect();
        for width in 1..=pool.down.len() + 1 {
            for procs_per_group in GROUP_SIZES {
                let profile = JobProfile::cluster_of_clusters(width, procs_per_group);
                assert_eq!(
                    pool.clone().allocate(&profile),
                    allocate_on_view(&pool.catalog, &pool.free_nodes, &profile),
                    "{width} x {procs_per_group} on free nodes {:?}",
                    pool.free_nodes
                );
                assert_eq!(
                    pool.feasible_on_survivors(&profile),
                    allocate_on_view(&pool.catalog, &survivors, &profile).is_ok(),
                    "{width} x {procs_per_group} on survivors {survivors:?}"
                );
            }
        }
    }

    #[test]
    fn slot_pool_answers_equal_allocate_on_a_cloned_view_along_a_seeded_walk() {
        for (catalog, seed) in [(g5k(), 20), (lopsided(), 21)] {
            let mut rng = SplitMix64::new(seed);
            let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
            let mut pool = SlotPool::new(catalog.clone());
            // Each lease with the sites it still holds nodes on.
            let mut leases: Vec<(Allocation, Vec<usize>)> = Vec::new();
            let (mut granted, mut refused, mut crashes) = (0, 0, 0);
            for _ in 0..2400 {
                match rng.next_below(8) {
                    0..=3 => {
                        let width = 1 + pick(&mut rng, 4);
                        let procs_per_group = GROUP_SIZES[pick(&mut rng, GROUP_SIZES.len())];
                        match pool.allocate(&JobProfile::cluster_of_clusters(width, procs_per_group)) {
                            Ok(a) => {
                                granted += 1;
                                leases.push((a.clone(), a.cluster_of_group));
                            }
                            Err(_) => refused += 1,
                        }
                    }
                    4..=5 if !leases.is_empty() => {
                        let (a, held) = leases.swap_remove(pick(&mut rng, leases.len()));
                        if held == a.cluster_of_group {
                            pool.release(&a);
                        } else {
                            held.iter().for_each(|&c| a.release_site(&mut pool, c));
                        }
                    }
                    6 if !leases.is_empty() => {
                        let l = pick(&mut rng, leases.len());
                        let (a, held) = &mut leases[l];
                        pool.release_site(a, held.swap_remove(pick(&mut rng, held.len())));
                    }
                    // A crash every ~400 steps; once every site is down the
                    // walk starts over on a fresh pool.
                    7 if rng.next_below(50) == 0 => {
                        if pool.up_sites() == 0 {
                            pool = SlotPool::new(catalog.clone());
                            leases.clear();
                        }
                        let up: Vec<usize> =
                            (0..pool.down.len()).filter(|&c| !pool.site_down(c)).collect();
                        let dead = up[pick(&mut rng, up.len())];
                        pool.fail_site(dead);
                        crashes += 1;
                        leases.iter_mut().for_each(|(_, held)| held.retain(|&c| c != dead));
                    }
                    _ => {}
                }
                leases.retain(|(_, held)| !held.is_empty());
                assert_pool_matches_the_oracle(&pool);
            }
            assert!(granted > 100 && refused > 100 && crashes > 2, "{granted}/{refused}/{crashes}");
        }
    }

    #[test]
    fn a_refused_lease_leaves_the_pool_untouched() {
        let mut pool = SlotPool::new(g5k());
        let held = pool.allocate(&JobProfile::cluster_of_clusters(2, 64)).unwrap();
        let before = (pool.free_nodes.clone(), pool.leased_nodes.clone());
        // Capacity, node-count (65 = 65 x 1 proc per node) and cluster-count refusals.
        for (width, procs_per_group) in [(4, 200), (4, 65), (5, 8)] {
            pool.allocate(&JobProfile::cluster_of_clusters(width, procs_per_group)).unwrap_err();
            assert_eq!((pool.free_nodes.clone(), pool.leased_nodes.clone()), before);
        }
        pool.release(&held);
        assert!(pool.is_idle());
    }
}
