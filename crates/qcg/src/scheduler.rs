//! The meta-scheduler: matches a [`JobProfile`] against a
//! [`ResourceCatalog`] and produces a concrete allocation.

use std::fmt;

use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

use crate::catalog::ResourceCatalog;
use crate::profile::JobProfile;

/// Why an allocation request could not be satisfied, each cluster named
/// by a `C`: its name in what [`allocate`] returns, its catalog index in a
/// [`Refusal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError<C = String> {
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
        cluster: C,
        /// Processes it can host.
        capacity: usize,
        /// Processes the profile needs per group.
        needed: usize,
    },
    /// The network between two chosen clusters violates the inter-group
    /// requirement.
    InterGroupNetworkTooWeak {
        /// First cluster.
        a: C,
        /// Second cluster.
        b: C,
    },
}

impl<C: fmt::Display> fmt::Display for ScheduleError<C> {
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

impl<C: fmt::Debug + fmt::Display> std::error::Error for ScheduleError<C> {}

/// Why [`SlotPool::allocate`] refused: a [`ScheduleError`] naming its
/// clusters by catalog index, so a refusal is a `Copy` value and refusing
/// allocates nothing. Only [`allocate`] names the clusters.
pub type Refusal = ScheduleError<usize>;

impl Refusal {
    /// This refusal with its clusters named as in `catalog`.
    fn into_error(self, catalog: &ResourceCatalog) -> ScheduleError {
        let name = |c: usize| catalog.clusters[c].name.clone();
        match self {
            Refusal::NotEnoughClusters { requested, available } => {
                ScheduleError::NotEnoughClusters { requested, available }
            }
            Refusal::NotEnoughProcs { cluster, capacity, needed } => {
                ScheduleError::NotEnoughProcs { cluster: name(cluster), capacity, needed }
            }
            Refusal::InterGroupNetworkTooWeak { a, b } => {
                ScheduleError::InterGroupNetworkTooWeak { a: name(a), b: name(b) }
            }
        }
    }
}

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
}

/// Nodes leased out of a [`SlotPool`]: what the selection decided, and
/// no topology. [`Lease::allocation`] builds the placed [`Allocation`]
/// for a caller that needs one.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// The chosen catalog clusters in group order, then the free node
    /// count each had when the lease was cut: `2 × groups` entries, the
    /// lease's one heap allocation.
    sites: Box<[usize]>,
    procs_per_node_used: usize,
    nodes_per_group: usize,
    effective_gflops_per_proc: f64,
}

impl Lease {
    /// Catalog indices of the clusters hosting each group.
    pub fn cluster_of_group(&self) -> &[usize] {
        &self.sites[..self.num_groups()]
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.sites.len() / 2
    }

    /// Processes booked per node.
    pub fn procs_per_node_used(&self) -> usize {
        self.procs_per_node_used
    }

    /// Nodes booked on each group's host cluster.
    pub fn nodes_per_group(&self) -> usize {
        self.nodes_per_group
    }

    /// The per-process flop rate every group is throttled to.
    pub fn effective_gflops_per_proc(&self) -> f64 {
        self.effective_gflops_per_proc
    }

    /// The placed allocation on `catalog`, the pool's: one contiguous rank
    /// range per group, each placed `ClusterSpec::nodes` the free count
    /// its cluster had when the lease was cut.
    pub fn allocation(&self, catalog: &ResourceCatalog) -> Allocation {
        let (clusters, nodes) = self.sites.split_at(self.num_groups());
        let specs = (clusters.iter().zip(nodes))
            .map(|(&c, &nodes)| ClusterSpec { nodes, ..catalog.clusters[c].clone() })
            .collect();
        let topology =
            GridTopology::block_placement(specs, self.nodes_per_group, self.procs_per_node_used);
        let group_of: Vec<usize> =
            (0..topology.num_procs()).map(|r| topology.cluster_of(r)).collect();
        Allocation {
            topology,
            network: catalog.network.clone(),
            group_of,
            cluster_of_group: clusters.to_vec(),
            procs_per_node_used: self.procs_per_node_used,
            effective_gflops_per_proc: self.effective_gflops_per_proc,
        }
    }

    /// Returns this lease's nodes to `pool`: [`SlotPool::release`],
    /// read as "the lease releases itself".
    pub fn release(&self, pool: &mut SlotPool) {
        pool.release(self);
    }

    /// Returns only the nodes this lease booked on catalog cluster
    /// `site` — the failure path's partial release: when one of a job's
    /// sites crashes mid-run, the engine writes the dead site off via
    /// [`SlotPool::fail_site`] and hands back each *surviving* site with
    /// this call, so the pool's leak panic still guards the whole path.
    ///
    /// # Panics
    /// Panics when `site` is not part of this lease, has already been
    /// released, or is marked down in the pool (dead slots are written
    /// off, never returned).
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
/// a free-node counter per cluster, runs [`allocate`]'s selection on
/// those counters in place of the catalog's node counts (the catalog is
/// read by reference, never copied, so a lease's clusters index the real
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
    /// Changes made to the pool so far ([`SlotPool::generation`]).
    generation: u64,
}

impl SlotPool {
    /// A pool with every node of `catalog` free.
    pub fn new(catalog: ResourceCatalog) -> Self {
        let free_nodes: Vec<usize> = catalog.clusters.iter().map(|c| c.nodes).collect();
        let n = free_nodes.len();
        SlotPool {
            catalog,
            free_nodes,
            leased_nodes: vec![0; n],
            down: vec![false; n],
            generation: 0,
        }
    }

    /// How many times the pool has changed: a granted
    /// [`SlotPool::allocate`], each [`SlotPool::release_site`] (so each
    /// site of a [`SlotPool::release`]) and each [`SlotPool::fail_site`]
    /// move it on. A refused `allocate` and
    /// [`SlotPool::feasible_on_survivors`] change nothing and leave it be,
    /// so two reads that agree bracket a pool every selection answers the
    /// same way.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying (full-capacity) catalog.
    pub fn catalog(&self) -> &ResourceCatalog {
        &self.catalog
    }

    /// Free nodes currently available on catalog cluster `c`.
    pub fn free_nodes(&self, c: usize) -> usize {
        self.free_nodes[c]
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
    /// [`Lease::release_site`]). Returns the written-off node count.
    ///
    /// # Panics
    /// Panics on a double crash of the same cluster.
    pub fn fail_site(&mut self, c: usize) -> usize {
        assert!(!self.down[c], "cluster {} already failed", self.catalog.clusters[c].name);
        self.down[c] = true;
        self.free_nodes[c] = 0;
        self.generation += 1;
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
    /// after a crash. It runs the selection only, and allocates nothing.
    pub fn feasible_on_survivors(&self, profile: &JobProfile) -> bool {
        let survivors = |c: usize| if self.down[c] { 0 } else { self.catalog.clusters[c].nodes };
        select(&self.catalog, survivors, profile).is_ok()
    }

    /// Leases nodes for `profile` out of the *free* capacity.
    ///
    /// The strategy is [`allocate`]'s selection with the current free-node
    /// counts standing in for the cluster sizes, so placement naturally
    /// prefers the emptiest clusters (contention-aware ranking for free).
    /// A refusal under a partially-booked pool means "wait for a
    /// release", not "impossible on this grid" — callers distinguish the
    /// two with [`SlotPool::feasible_on_survivors`]. A refused try
    /// allocates nothing and changes nothing; a granted one books the
    /// nodes and returns a [`Lease`], whose one allocation is its cluster
    /// list. No topology is built: [`Lease::allocation`] places the ranks,
    /// each placed `ClusterSpec::nodes` the free count it was cut from.
    pub fn allocate(&mut self, profile: &JobProfile) -> Result<Lease, Refusal> {
        let free = &self.free_nodes;
        let lease = select(&self.catalog, |c| free[c], profile)?.lease();
        let booked = lease.nodes_per_group;
        for &c in lease.cluster_of_group() {
            debug_assert!(self.free_nodes[c] >= booked, "allocation exceeded free capacity");
            self.free_nodes[c] -= booked;
            self.leased_nodes[c] += booked;
        }
        self.generation += 1;
        Ok(lease)
    }

    /// Returns the nodes of `lease` to the pool.
    ///
    /// # Panics
    /// Panics when the return would push a cluster past its physical node
    /// count — i.e. on a double release or a release of a foreign
    /// lease, the two ways slot accounting can leak — or when any of the
    /// lease's clusters has crashed (the failure path must release
    /// survivors one by one via [`Lease::release_site`]).
    pub fn release(&mut self, lease: &Lease) {
        for &c in lease.cluster_of_group() {
            self.release_site(lease, c);
        }
    }

    /// Returns only the nodes `lease` booked on catalog cluster `site`.
    /// See [`Lease::release_site`] for the failure-path contract.
    ///
    /// # Panics
    /// Panics when `site` is not part of `lease`, is down, or when the
    /// return would leak slots (double release).
    pub fn release_site(&mut self, lease: &Lease, site: usize) {
        assert!(
            lease.cluster_of_group().contains(&site),
            "release_site: cluster {site} is not part of this lease"
        );
        assert!(
            !self.down[site],
            "slot-accounting leak: releasing nodes to crashed cluster {}",
            self.catalog.clusters[site].name,
        );
        let booked = lease.nodes_per_group;
        assert!(
            self.leased_nodes[site] >= booked,
            "slot-accounting leak: cluster {} has {} leased nodes, release of {} attempted",
            self.catalog.clusters[site].name,
            self.leased_nodes[site],
            booked,
        );
        self.leased_nodes[site] -= booked;
        self.free_nodes[site] += booked;
        self.generation += 1;
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
/// Strategy (mirrors §III), in three parts. **Selection** reads the
/// catalog by reference, allocates nothing and decides everything a
/// yes/no answer needs:
/// 1. which clusters qualify (the intra-group network requirement),
/// 2. rank them by capacity and take the `groups` largest,
/// 3. check each chosen cluster can host `procs_per_group` processes,
/// 4. verify the pairwise inter-group links,
/// 5. book `procs_per_group` processes on as few nodes as possible (and
///    re-check the node count under partial-node booking).
///
/// **The lease** is what a granted request pays (what
/// [`SlotPool::allocate`] returns): the chosen clusters in one small
/// allocation, and
/// 6. the throttle of every process to the slowest chosen cluster's peak.
///
/// **Materialisation** is what only a caller that places ranks pays:
/// 7. the placed topology, `group_of` and the [`Allocation`] itself
///    ([`Lease::allocation`]).
pub fn allocate(
    catalog: &ResourceCatalog,
    profile: &JobProfile,
) -> Result<Allocation, ScheduleError> {
    match select(catalog, |c| catalog.clusters[c].nodes, profile) {
        Ok(selection) => Ok(selection.lease().allocation(catalog)),
        Err(refusal) => Err(refusal.into_error(catalog)),
    }
}

/// Step 2 of [`allocate`] without a sorted `Vec`: the clusters in
/// decreasing capacity `nodes(c) × procs_per_node`, ties to the lower
/// index (the order a stable sort by `Reverse(capacity)` gives), one scan
/// of the catalog per pick. A copy taken mid-walk yields the picks after
/// the current one.
#[derive(Clone, Copy)]
struct Picks<'a, F> {
    catalog: &'a ResourceCatalog,
    nodes: F,
    /// The previous pick's capacity, and the index after it: the next
    /// pick has a smaller capacity, or the same one at index `from` or
    /// above.
    cap: usize,
    from: usize,
    left: usize,
}

impl<F: Fn(usize) -> usize> Iterator for Picks<'_, F> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut best: Option<(usize, usize)> = None;
        for (c, spec) in self.catalog.clusters.iter().enumerate() {
            let cap = (self.nodes)(c) * spec.procs_per_node;
            let below = cap < self.cap || (cap == self.cap && c >= self.from);
            if below && best.is_none_or(|(most, _)| cap > most) {
                best = Some((cap, c));
            }
        }
        let (cap, c) = best?;
        (self.cap, self.from) = (cap, c + 1);
        Some(c)
    }
}

/// What steps 1–5 of [`allocate`] decide. The chosen clusters are not
/// stored: `picks` yields them again.
struct Selection<'a, F> {
    picks: Picks<'a, F>,
    procs_per_node_used: usize,
    nodes_per_group: usize,
}

impl<F: Fn(usize) -> usize + Copy> Selection<'_, F> {
    /// The lease this selection cuts: the chosen clusters, then the node
    /// count each had, in one allocation; and step 6, the rate.
    fn lease(self) -> Lease {
        let (groups, nodes) = (self.picks.left, self.picks.nodes);
        let mut sites = Vec::with_capacity(2 * groups);
        sites.extend(self.picks);
        for g in 0..groups {
            sites.push(nodes(sites[g]));
        }
        // 6. Effective synchronous rate: throttle to the slowest cluster
        //    when the peak spread exceeds the tolerance (§V-A).
        // Synchronous algorithms run at the slowest member's rate
        // regardless of the tolerance; the tolerance only gates whether the
        // allocation is *accepted* as "equivalent computing power" in
        // spirit. Grid'5000's 8.0–10.4 spread sits inside the default 35%
        // tolerance.
        let effective_gflops_per_proc = self.picks.catalog.min_peak_gflops(&sites[..groups]);
        Lease {
            sites: sites.into_boxed_slice(),
            procs_per_node_used: self.procs_per_node_used,
            nodes_per_group: self.nodes_per_group,
            effective_gflops_per_proc,
        }
    }
}

/// Steps 1–5 of [`allocate`], with `nodes(c)` standing in for
/// `catalog.clusters[c].nodes`: the catalog's own counts, a pool's free
/// counts, or the physical counts with crashed clusters at zero. The one
/// selection every caller runs; it allocates nothing, and a yes needs one
/// walk of the picks. Step 6 only matters to a lease ([`Selection::lease`]).
fn select<'a, F: Fn(usize) -> usize + Copy>(
    catalog: &'a ResourceCatalog,
    nodes: F,
    profile: &JobProfile,
) -> Result<Selection<'a, F>, Refusal> {
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
        return Err(Refusal::NotEnoughClusters { requested: profile.groups, available });
    }
    // 2. Prefer clusters with the most processors (stable order on ties).
    //    Before the first pick every cluster ranks below.
    let picks = Picks { catalog, nodes, cap: usize::MAX, from: 0, left: profile.groups };

    // 3. Capacity check per chosen cluster, in the walk that also finds
    //    what step 5 needs: the fewest sockets and the fewest nodes.
    let needed = profile.procs_per_group;
    let (mut sockets, mut fewest_nodes) = (usize::MAX, usize::MAX);
    for c in picks {
        let spec = &catalog.clusters[c];
        let capacity = nodes(c) * spec.procs_per_node;
        if capacity < needed {
            return Err(Refusal::NotEnoughProcs { cluster: c, capacity, needed });
        }
        sockets = sockets.min(spec.procs_per_node);
        fewest_nodes = fewest_nodes.min(nodes(c));
    }

    // 4. Pairwise inter-group network check. One group has no pair, and
    //    a requirement every link between two clusters meets
    //    (`NetworkRequirement::any`) cannot fail on a chosen pair: only
    //    otherwise are the pairs walked.
    let req = &profile.inter_group;
    let meets = |link: &LinkParams| req.satisfied_by(link.latency_s, link.bandwidth_bps);
    let links = &catalog.network.inter_cluster;
    let every_link_meets = || {
        (links.iter().enumerate())
            .all(|(a, row)| row.iter().enumerate().all(|(b, link)| a == b || meets(link)))
    };
    if profile.groups > 1 && !every_link_meets() {
        let mut rest = picks;
        while let Some(a) = rest.next() {
            let mut later = rest;
            if let Some(b) = later.find(|&b| !meets(&links[a][b])) {
                return Err(Refusal::InterGroupNetworkTooWeak { a, b });
            }
        }
    }

    // 5. Book processes: use every socket of a node unless the group does
    //    not divide evenly, in which case book fewer processes per node
    //    (the paper booked half the cores of some machines, §III).
    let procs_per_node_used = (1..=sockets)
        .rev()
        .find(|&ppn| needed.is_multiple_of(ppn))
        .expect("ppn = 1 always divides");
    let nodes_per_group = needed / procs_per_node_used;
    // Partial-node booking reduces the usable capacity: an odd group size
    // books one process per node, so the node count itself can run out
    // even when raw socket capacity sufficed.
    if nodes_per_group > fewest_nodes {
        let mut walk = picks;
        let c = walk.find(|&c| nodes_per_group > nodes(c)).expect("the fewest nodes fall short");
        let capacity = nodes(c) * procs_per_node_used;
        return Err(Refusal::NotEnoughProcs { cluster: c, capacity, needed });
    }
    Ok(Selection { picks, procs_per_node_used, nodes_per_group })
}

#[cfg(test)]
mod tests {
    use tsqr_netsim::SplitMix64;

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
                Err(Refusal::NotEnoughProcs { .. }) => break,
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        // 312/32 + 93/32 + 80/32 + 56/32 = 9 + 2 + 2 + 1 whole leases.
        assert_eq!(leases.len(), 14);
        let free = |pool: &SlotPool| (0..4).map(|c| pool.free_nodes(c)).sum::<usize>();
        assert_eq!(free(&pool), (312 - 288) + (93 - 64) + (80 - 64) + (56 - 32));
        assert!(!pool.is_idle());
        for a in &leases {
            a.release(&mut pool);
        }
        assert!(pool.is_idle());
        assert_eq!(free(&pool), 312 + 93 + 80 + 56);
        // And the recovered pool serves the paper's four-site job again.
        let again = pool.allocate(&JobProfile::cluster_of_clusters(4, 64)).unwrap();
        assert_eq!(again.allocation(pool.catalog()).topology.num_procs(), 256);
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
            assert_eq!(held.last().unwrap().cluster_of_group(), [0]);
        }
        let elsewhere = pool.allocate(&profile).unwrap();
        assert_eq!(elsewhere.cluster_of_group(), [2], "expected Bordeaux");
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
        let dead = a.cluster_of_group()[1];
        let written_off = pool.fail_site(dead);
        assert_eq!(written_off, a.nodes_per_group(), "the lease's share is written off");
        assert!(pool.site_down(dead));
        assert_eq!(pool.up_sites(), 3);
        assert_eq!(pool.free_nodes(dead), 0, "a dead site has no capacity");
        for &c in a.cluster_of_group() {
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
        assert!(!b.cluster_of_group().contains(&dead));
        b.release(&mut pool);
        assert!(pool.is_idle());
    }

    #[test]
    #[should_panic(expected = "releasing nodes to crashed cluster")]
    fn release_to_dead_site_panics() {
        let mut pool = SlotPool::new(g5k());
        let a = pool.allocate(&JobProfile::cluster_of_clusters(2, 64)).unwrap();
        let dead = a.cluster_of_group()[0];
        pool.fail_site(dead);
        a.release_site(&mut pool, dead);
    }

    #[test]
    #[should_panic(expected = "is not part of this lease")]
    fn releasing_a_site_the_lease_does_not_hold_panics() {
        let mut pool = SlotPool::new(g5k());
        let a = pool.allocate(&JobProfile::cluster_of_clusters(2, 64)).unwrap();
        // Another lease holds nodes there, so only the membership check can refuse.
        let b = pool.allocate(&JobProfile::cluster_of_clusters(4, 64)).unwrap();
        let foreign = (0..4).find(|c| !a.cluster_of_group().contains(c)).unwrap();
        assert!(b.cluster_of_group().contains(&foreign));
        a.release_site(&mut pool, foreign);
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
    /// every `nodes` with the view's count, and run what the public
    /// [`allocate`] ran before the selection stopped allocating — rank by a
    /// stable sort, check the chosen clusters in order, place them. Kept
    /// only as the reference the clone-free, allocation-free selection, its
    /// refusals and [`Lease::allocation`] are checked against.
    fn allocate_on_view(
        catalog: &ResourceCatalog,
        nodes: &[usize],
        profile: &JobProfile,
    ) -> Result<Allocation, ScheduleError> {
        let mut view = catalog.clone();
        for (spec, &n) in view.clusters.iter_mut().zip(nodes) {
            spec.nodes = n;
        }
        let (clusters, network) = (&view.clusters, &view.network);
        let intra = network.intra_cluster;
        let qualify = profile.intra_group.satisfied_by(intra.latency_s, intra.bandwidth_bps);
        let available = if qualify { clusters.len() } else { 0 };
        if available < profile.groups {
            return Err(ScheduleError::NotEnoughClusters { requested: profile.groups, available });
        }
        let mut ranked: Vec<usize> = (0..clusters.len()).collect();
        let capacity = |c: usize| clusters[c].nodes * clusters[c].procs_per_node;
        ranked.sort_by_key(|&c| (std::cmp::Reverse(capacity(c)), c));
        let chosen: Vec<usize> = ranked.into_iter().take(profile.groups).collect();
        let needed = profile.procs_per_group;
        let short = |c: usize, capacity| ScheduleError::NotEnoughProcs {
            cluster: clusters[c].name.clone(),
            capacity,
            needed,
        };
        for &c in &chosen {
            if capacity(c) < needed {
                return Err(short(c, capacity(c)));
            }
        }
        for (i, &a) in chosen.iter().enumerate() {
            for &b in &chosen[i + 1..] {
                let link = network.inter_cluster[a][b];
                if !profile.inter_group.satisfied_by(link.latency_s, link.bandwidth_bps) {
                    let (a, b) = (clusters[a].name.clone(), clusters[b].name.clone());
                    return Err(ScheduleError::InterGroupNetworkTooWeak { a, b });
                }
            }
        }
        let sockets = chosen.iter().map(|&c| clusters[c].procs_per_node).min().unwrap();
        let procs_per_node_used =
            (1..=sockets).rev().find(|&ppn| needed.is_multiple_of(ppn)).unwrap();
        let nodes_per_group = needed / procs_per_node_used;
        for &c in &chosen {
            if nodes_per_group > clusters[c].nodes {
                return Err(short(c, clusters[c].nodes * procs_per_node_used));
            }
        }
        let specs = chosen.iter().map(|&c| clusters[c].clone()).collect();
        let topology = GridTopology::block_placement(specs, nodes_per_group, procs_per_node_used);
        Ok(Allocation {
            group_of: (0..topology.num_procs()).map(|r| topology.cluster_of(r)).collect(),
            topology,
            network: network.clone(),
            effective_gflops_per_proc: view.min_peak_gflops(&chosen),
            cluster_of_group: chosen,
            procs_per_node_used,
        })
    }

    const GROUP_SIZES: [usize; 5] = [1, 31, 32, 64, 65];

    /// Every width (one past the cluster count, so `NotEnoughClusters` is
    /// compared too) × every group size: the pool's answers are the
    /// oracle's — a lease's allocation field for field (placed
    /// `ClusterSpec::nodes` included) and agreeing with the lease itself,
    /// a refusal once named as a `ScheduleError`.
    fn assert_pool_matches_the_oracle(pool: &SlotPool) {
        let catalog = &pool.catalog;
        let survivors: Vec<usize> = (0..pool.down.len())
            .map(|c| if pool.down[c] { 0 } else { catalog.clusters[c].nodes })
            .collect();
        // Grid'5000's Toulouse links are slower than 8 ms, its others not:
        // the picky profiles make step 4 refuse some chosen pairs.
        let picky = NetworkRequirement::from_ms_mbps(8.0, 0.0);
        for width in 1..=pool.down.len() + 1 {
            for procs_per_group in GROUP_SIZES {
                let profile = JobProfile::cluster_of_clusters(width, procs_per_group);
                for profile in [JobProfile { inter_group: picky, ..profile.clone() }, profile] {
                    let got = pool.clone().allocate(&profile).map(|lease| {
                        let alloc = lease.allocation(catalog);
                        assert_eq!(lease.cluster_of_group(), alloc.cluster_of_group);
                        assert_eq!(lease.num_groups(), alloc.num_groups());
                        assert_eq!(lease.nodes_per_group(), alloc.nodes_per_group());
                        assert_eq!(lease.procs_per_node_used(), alloc.procs_per_node_used);
                        assert_eq!(
                            lease.effective_gflops_per_proc().to_bits(),
                            alloc.effective_gflops_per_proc.to_bits()
                        );
                        alloc
                    });
                    assert_eq!(
                        got.map_err(|refusal| refusal.into_error(catalog)),
                        allocate_on_view(catalog, &pool.free_nodes, &profile),
                        "{profile:?} on free nodes {:?}",
                        pool.free_nodes
                    );
                    assert_eq!(
                        pool.feasible_on_survivors(&profile),
                        allocate_on_view(catalog, &survivors, &profile).is_ok(),
                        "{profile:?} on survivors {survivors:?}"
                    );
                }
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
            let mut leases: Vec<(Lease, Vec<usize>)> = Vec::new();
            let (mut granted, mut refused, mut crashes) = (0, 0, 0);
            for _ in 0..2400 {
                match rng.next_below(8) {
                    0..=3 => {
                        let width = 1 + pick(&mut rng, 4);
                        let procs_per_group = GROUP_SIZES[pick(&mut rng, GROUP_SIZES.len())];
                        match pool
                            .allocate(&JobProfile::cluster_of_clusters(width, procs_per_group))
                        {
                            Ok(a) => {
                                granted += 1;
                                let held = a.cluster_of_group().to_vec();
                                leases.push((a, held));
                            }
                            Err(_) => refused += 1,
                        }
                    }
                    4..=5 if !leases.is_empty() => {
                        let (a, held) = leases.swap_remove(pick(&mut rng, leases.len()));
                        if held == a.cluster_of_group() {
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

    #[test]
    fn the_generation_moves_on_every_change_and_only_then() {
        // The engine skips a blocked head while the generation stands
        // still, so a change that leaves it be would starve the head.
        let mut pool = SlotPool::new(g5k());
        let mut last = pool.generation();
        let mut moved = |pool: &SlotPool, expected: bool, what: &str| {
            assert_eq!(pool.generation() != last, expected, "{what}");
            last = pool.generation();
        };
        let a = pool.allocate(&JobProfile::cluster_of_clusters(2, 64)).unwrap();
        moved(&pool, true, "a granted allocate");
        for (width, procs_per_group) in [(4, 200), (4, 65), (5, 8)] {
            let profile = JobProfile::cluster_of_clusters(width, procs_per_group);
            pool.allocate(&profile).unwrap_err();
            moved(&pool, false, "a refused allocate");
            pool.feasible_on_survivors(&profile);
            moved(&pool, false, "feasible_on_survivors");
        }
        a.release(&mut pool);
        moved(&pool, true, "release");
        let b = pool.allocate(&JobProfile::cluster_of_clusters(3, 64)).unwrap();
        moved(&pool, true, "a granted allocate");
        for &c in &b.cluster_of_group()[1..] {
            b.release_site(&mut pool, c);
            moved(&pool, true, "release_site");
        }
        pool.fail_site(b.cluster_of_group()[0]);
        moved(&pool, true, "fail_site");
        // A crashed site with nothing leased on it changes the pool too.
        pool.fail_site((0..4).find(|&c| !pool.site_down(c)).unwrap());
        moved(&pool, true, "fail_site on an idle cluster");
        assert!(pool.is_idle());
    }
}
