//! The contention-aware virtual-time executor.
//!
//! One event loop multiplexes every admitted job over a single
//! [`ResourceCatalog`]: cluster slots are leased through
//! [`tsqr_qcg::SlotPool`] (allocate at dispatch, release at completion,
//! leak-free by construction), and each job's service time comes from
//! the same analytic `predict_makespan` the autotuner trusts — split
//! into two fluid phases so **concurrent jobs genuinely slow each other
//! down**:
//!
//! 1. **Local phase** — leaf QR plus intra-cluster reduction. Clusters
//!    are private to the lease (the slot pool never double-books a
//!    node), so this phase runs at full speed for a fixed duration
//!    `max(T_base − W, 0)`, where `T_base` is the solo makespan and `W`
//!    the job's serial WAN residual.
//! 2. **WAN drain** — the cluster-root → global-root transfers. A job's
//!    WAN sends serialize at the receiving root NIC, so they form one
//!    fluid queue of `W` wire-seconds draining against *shared*
//!    physical site-pair links, priced by
//!    [`tsqr_netsim::occupancy::SharedLinks`]: a link carrying `k`
//!    concurrent drains gives each `1/k` of its capacity, and a job
//!    drains at its most-contended link's share. A solo job reproduces
//!    `T_base` exactly (bit-for-bit: phase 1 + W = T_base), which anchors
//!    the whole serving model to the single-job bench baselines.
//!
//! The loop advances in piecewise-constant-rate segments: the next event
//! is the earliest of (arrival, phase-1 completion, projected drain
//! completion, retry backoff expiring, failure-schedule boundary);
//! remainders advance by `dt × rate` over the segment; all state changes
//! happen at event instants, in one fixed order — site crash → phase-1
//! end → drain done → retry ready → arrival → dispatch, one `Engine`
//! method each — with request-id tiebreaks, so the same seed and policy
//! replay byte-identically. A job finishing at a crash instant still
//! dies; a ready retry is queued ahead of a same-instant arrival.
//!
//! Batching (`--batch`): at dispatch, every queued request with the same
//! `(cols, sites)` key coalesces into one stacked TSQR (row counts add;
//! placement and reduction tree are shared). The batch pays the WAN
//! message count of **one** job — `C − 1` cluster-root messages instead
//! of `k(C − 1)` — which is the communication-optimal serving policy the
//! CAQR line of work motivates. The shared finish time is attributed
//! back to each member, whose sojourn still runs from its own arrival.
//!
//! # Failures
//!
//! The engine consults a seeded [`FailureSchedule`] — the same type the
//! `gridmpi` fault machinery scripts — deterministically in virtual
//! time:
//!
//! * **Site crashes** ([`FailureSchedule::crash_site`]): at the crash
//!   instant the pool writes the dead cluster's slots off
//!   ([`tsqr_qcg::SlotPool::fail_site`]), every running job leasing it
//!   is killed (surviving sites released explicitly through
//!   [`Allocation::release_site`] — the pool's leak panic polices the
//!   whole path), and each member routes through the recovery layer
//!   ([`crate::recovery`]): bounded retries with exponential virtual
//!   backoff, a [`Checkpoint`] of the residual drain when the job was
//!   already past its local phase, a typed [`JobFault`] either way.
//! * **Elastic re-allocation**: when a crash leaves fewer surviving
//!   clusters than a request's site count, dispatch shrinks the
//!   profile to the widest feasible width and re-plants the reduction
//!   tree over the survivors via `tsqr_core::tune::plan_tree` — the
//!   request completes on a smaller grid instead of failing.
//! * **WAN degradation windows** scale the fluid drain rates: a flow's
//!   per-link share is divided by [`FailureSchedule::wan_divisor`], and
//!   window edges join the candidate event set so rates stay piecewise
//!   constant. **Per-flow drop rules** fire when a drain completes: the
//!   in-flight R messages are lost, and the job retries (residual = the
//!   full drain under checkpointing, everything under full restart).
//! * **Brownout** ([`crate::recovery::Brownout`]): when retry pressure
//!   crosses the enter watermark, arrivals with the loosest deadlines
//!   are shed with an explicit [`Disposition::Shed`] until pressure
//!   falls to the exit watermark (hysteresis).
//!
//! An **empty** schedule leaves every code path and every `f64` of the
//! failure-free engine untouched — the serve records in
//! `BENCH_baseline.json` pin that bit-compatibility. Faults never touch
//! *correctness*: a completed request's R is a pure function of its
//! payload (rows, cols, seed), and the self-healing TSQR recovers R
//! bitwise (see `core/ft_tsqr.rs`), so retried/re-planted completions
//! produce byte-identical factors — only latency and dispositions move.

use std::collections::BTreeMap;
use std::iter::Peekable;
use std::vec::IntoIter;

use tsqr_core::domains::DomainLayout;
use tsqr_core::model::useful_flops;
use tsqr_core::tile::packed_bytes;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tune::{plan_tree, predict_makespan};
use tsqr_netsim::cost::LinkClass;
use tsqr_netsim::occupancy::SharedLinks;
use tsqr_netsim::{FailureSchedule, VirtualTime};
use tsqr_qcg::{Allocation, JobProfile, ResourceCatalog, SlotPool};

use crate::policy::{BoundedQueue, Policy, QueuedJob};
use crate::recovery::{
    Brownout, BrownoutConfig, Checkpoint, FaultKind, JobFault, RecoveryAction, RetryPolicy,
};
use crate::workload::{self, Request, ShapeClass, WorkloadSpec};

/// Drain remainders at or below this many wire-seconds count as zero —
/// guards the event loop against `f64` residue stalling virtual time.
const DRAIN_EPS_S: f64 = 1e-12;

/// Serving-run parameters (the `grid-tsqr serve` flag set).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Queue discipline.
    pub policy: Policy,
    /// Offered load (fraction of grid node capacity; see
    /// [`crate::workload`]).
    pub load: f64,
    /// Requests in the trace.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Coalesce same-shape queued requests into stacked TSQRs.
    pub batch: bool,
    /// Bounded-queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Tenant count (fair-share granularity).
    pub tenants: usize,
    /// Processes per site-group (the paper's 64 ranks/site).
    pub procs_per_site: usize,
    /// Pin every request to one menu shape (same-shape burst mode).
    pub single_shape: Option<usize>,
    /// Scripted failures (site crashes, WAN degradation, drop rules).
    /// Empty = the failure-free engine, bit for bit.
    pub faults: FailureSchedule,
    /// Retry/backoff/recovery-mode policy for faulted jobs.
    pub retry: RetryPolicy,
    /// Brownout watermarks for graceful degradation.
    pub brownout: BrownoutConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: Policy::Fifo,
            load: 0.8,
            requests: 200,
            seed: 42,
            batch: false,
            queue_capacity: 64,
            tenants: 4,
            procs_per_site: 64,
            single_shape: None,
            faults: FailureSchedule::default(),
            retry: RetryPolicy::default(),
            brownout: BrownoutConfig::default(),
        }
    }
}

/// How one request left the system. Every request gets exactly one
/// disposition — the conservation invariant the proptests pin.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Ran to completion (possibly inside a batch of `batch_size`).
    Completed {
        /// Dispatch instant of the *successful* try (allocation leased).
        start: VirtualTime,
        /// Completion instant.
        finish: VirtualTime,
        /// Requests sharing the stacked TSQR (1 = unbatched).
        batch_size: usize,
        /// Tries consumed (1 = completed on the first dispatch; more =
        /// the request was `Retried` through the recovery layer, see
        /// [`ServeOutcome::faults`] for the per-try audit trail).
        attempts: usize,
    },
    /// Bounced off the full admission queue.
    RejectedQueueFull,
    /// Shape cannot be allocated even on an idle grid.
    RejectedInfeasible,
    /// Shed by brownout: admission was degrading gracefully under
    /// sustained failure and this arrival's deadline was loose enough to
    /// sacrifice (an explicit verdict, never a silent drop).
    Shed,
    /// Faulted on every allowed try, or no surviving site can host the
    /// shape; the retry budget is spent.
    FailedPermanent {
        /// Tries consumed.
        attempts: usize,
    },
}

/// A request paired with its disposition.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The request as generated.
    pub request: Request,
    /// What happened to it.
    pub disposition: Disposition,
}

/// Everything a serving run produced; [`crate::report`] renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// The configuration that produced this outcome.
    pub config: ServeConfig,
    /// Per-request dispositions, in request-id order.
    pub records: Vec<RequestRecord>,
    /// Virtual instant the last event fired (the run's horizon).
    pub horizon: VirtualTime,
    /// Jobs dispatched (a batch counts once).
    pub dispatches: usize,
    /// Total messages across all dispatched jobs.
    pub msgs: u64,
    /// Messages that crossed a wide-area link.
    pub wan_msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Useful flops of all dispatched work (for aggregate Gflop/s).
    pub flops: f64,
    /// Summed queue-wait seconds over admitted requests.
    pub total_wait_s: f64,
    /// Busy seconds per physical WAN site pair, canonical key order.
    pub wan_busy: Vec<((usize, usize), f64)>,
    /// Busy intervals `(link-class bucket, start_s, end_s)` for
    /// timeline rendering (cluster bucket = local phases, WAN bucket =
    /// drain segments).
    pub busy_intervals: Vec<(usize, f64, f64)>,
    /// Typed fault audit trail, one entry per affected request per fault,
    /// in event order. Empty on a failure-free run.
    pub faults: Vec<JobFault>,
    /// Brownout episodes as `(start_s, end_s)` virtual intervals.
    pub brownout_windows: Vec<(f64, f64)>,
}

/// Per-shape solo statistics: the SJF/calibration oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeOracle {
    /// Uncontended service seconds per menu shape.
    pub solo_s: Vec<f64>,
    /// Nodes each shape's allocation books.
    pub nodes: Vec<usize>,
}

/// What `predict_makespan` plus the reduction tree say about one
/// dispatched job (or batch).
#[derive(Clone)]
struct JobModel {
    t_base_s: f64,
    wan_s: f64,
    links: Vec<(usize, usize)>,
    msgs: u64,
    wan_msgs: u64,
    bytes: u64,
    flops: f64,
}

/// One running job (possibly a batch) in the event loop.
struct RunJob {
    members: Vec<QueuedJob>,
    alloc: Allocation,
    links: Vec<(usize, usize)>,
    start: VirtualTime,
    phase1_end: VirtualTime,
    wan_rem_s: f64,
    /// The full drain the job owes (what a dropped drain must resend).
    wan_full_s: f64,
    in_phase2: bool,
}

/// Builds the analytic model of one job on its allocation: solo
/// makespan, WAN residual and per-class message counts. The failure-free
/// path always passes [`TreeShape::GridHierarchical`] — the same
/// reduction the single-job pipeline uses — while elastic re-planning
/// passes whatever `tsqr_core::tune::plan_tree` picked over the
/// surviving sites.
fn job_model(
    alloc: &Allocation,
    m: u64,
    n: usize,
    procs_per_site: usize,
    shape: &TreeShape,
) -> JobModel {
    let layout = DomainLayout::build(&alloc.topology, m, n, procs_per_site);
    let cluster_of = layout.clusters();
    let tree = ReductionTree::build(shape, layout.num_domains(), &cluster_of);
    let rate = Some(alloc.effective_gflops_per_proc * 1e9);
    let t_base = predict_makespan(&alloc.topology, &alloc.network, &layout, &tree, rate, rate);

    let r_bytes = packed_bytes(n);
    let msgs = tree.total_messages() as u64;
    let roots = layout.roots();
    let mut wan_s = 0.0;
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut wan_msgs = 0u64;
    for (d, to) in tree.edges() {
        let a = alloc.topology.location(roots[d]);
        let b = alloc.topology.location(roots[to]);
        if LinkClass::between(a, b).is_inter_cluster() {
            wan_msgs += 1;
            wan_s += alloc.network.message_time(a, b, r_bytes).secs();
            let key = SharedLinks::key(
                alloc.cluster_of_group[cluster_of[d]],
                alloc.cluster_of_group[cluster_of[to]],
            );
            if !links.contains(&key) {
                links.push(key);
            }
        }
    }
    links.sort_unstable();
    JobModel {
        t_base_s: t_base.secs(),
        wan_s,
        links,
        msgs,
        wan_msgs,
        bytes: msgs * r_bytes,
        flops: useful_flops(m, n as u64, false),
    }
}

/// Everything [`job_model`] reads of a grid-hierarchical job once the
/// catalog and `procs_per_site` are fixed: the ordered placement, the
/// booking density, the throttled rate (as bits) and the stacked shape.
type ModelKey = (Vec<usize>, usize, u64, u64, usize);

/// [`job_model`], built once per distinct job of one `serve()` call: only
/// a few shapes × placements ever occur, while a rebuild lays out every
/// rank and replays the whole tree. Elastic re-plans (any other `shape`)
/// are rare and bypass the memo.
fn memo_model(
    memo: &mut BTreeMap<ModelKey, JobModel>,
    alloc: &Allocation,
    m: u64,
    n: usize,
    procs_per_site: usize,
    shape: &TreeShape,
) -> JobModel {
    if *shape != TreeShape::GridHierarchical {
        return job_model(alloc, m, n, procs_per_site, shape);
    }
    let key = (
        alloc.cluster_of_group.clone(),
        alloc.procs_per_node_used,
        alloc.effective_gflops_per_proc.to_bits(),
        m,
        n,
    );
    memo.entry(key).or_insert_with(|| job_model(alloc, m, n, procs_per_site, shape)).clone()
}

/// Computes the solo oracle for every menu shape against an idle grid.
///
/// # Panics
/// Panics when a menu shape cannot be allocated on the idle catalog —
/// the admission layer relies on every menu shape being feasible.
pub fn shape_oracle(catalog: &ResourceCatalog, procs_per_site: usize) -> ShapeOracle {
    let mut solo_s = Vec::new();
    let mut nodes = Vec::new();
    for shape in workload::menu() {
        let (s, nd) = solo_shape(catalog, shape, procs_per_site);
        solo_s.push(s);
        nodes.push(nd);
    }
    ShapeOracle { solo_s, nodes }
}

fn solo_shape(catalog: &ResourceCatalog, shape: ShapeClass, procs_per_site: usize) -> (f64, usize) {
    let profile = JobProfile::cluster_of_clusters(shape.sites, procs_per_site);
    let alloc = tsqr_qcg::allocate(catalog, &profile)
        .expect("every menu shape must fit an idle grid");
    let model =
        job_model(&alloc, shape.rows, shape.cols, procs_per_site, &TreeShape::GridHierarchical);
    (model.t_base_s, alloc.nodes_per_group() * alloc.num_groups())
}

/// What the elastic width walk found for the queue's selected head.
enum Placement {
    /// Leased at the widest width the surviving sites can host.
    Go(Allocation),
    /// That width fits the survivors but not the free slots: pure
    /// capacity contention, wait for a release.
    Wait,
    /// No surviving width can host this shape — ever.
    Never,
}

/// The fluid drain rate of a flow occupying `links` at instant `t`: its
/// most contended link's share, divided by any active WAN degradation.
/// With no degradation windows this is exactly [`SharedLinks::rate`]
/// (bit for bit — the failure-free path never takes the divided branch).
fn drain_rate(
    shared: &SharedLinks,
    links: &[(usize, usize)],
    faults: &FailureSchedule,
    t: VirtualTime,
) -> f64 {
    if faults.degradations().is_empty() {
        return shared.rate(links);
    }
    let mut r = 1.0f64;
    for &l in links {
        let share = 1.0 / shared.flows_on(l).max(1) as f64;
        r = r.min(share / faults.wan_divisor(l.0, l.1, t));
    }
    r
}

/// The event loop's state. [`serve`] calls one method per event class,
/// in the module doc's per-instant order.
struct Engine<'a> {
    cfg: &'a ServeConfig,
    /// Solo service seconds per menu shape (SJF key, brownout slack unit).
    solo_s: Vec<f64>,
    requests: Vec<Request>,
    next_arr: usize,
    dispositions: Vec<Option<Disposition>>,
    t: VirtualTime,
    pool: SlotPool,
    shared: SharedLinks,
    queue: BoundedQueue,
    tenant_served: Vec<f64>,
    running: Vec<RunJob>,
    /// Faulted jobs waiting out a backoff, keyed `(ready, id)` — the
    /// order they re-enter the queue in.
    retry_wait: BTreeMap<(VirtualTime, usize), QueuedJob>,
    models: BTreeMap<ModelKey, JobModel>,
    /// The outcome under construction: totals, busy intervals, the fault
    /// trail and brownout windows accumulate here; `records`, `horizon`
    /// and `wan_busy` are filled in by [`Engine::into_outcome`].
    out: ServeOutcome,
    wan_busy: BTreeMap<(usize, usize), f64>,
    // Failure machinery. All of it is inert (and allocation-free on the
    // hot path) when the schedule is empty.
    /// Site crashes still to fire, by `(instant, site)`.
    crashes: Peekable<IntoIter<(usize, VirtualTime)>>,
    /// Instants the failure schedule changes state at, ascending.
    boundaries: Peekable<IntoIter<VirtualTime>>,
    /// Drains completed so far per link (what drop rules count).
    drop_seq: BTreeMap<(usize, usize), u64>,
    brownout: Brownout,
    brownout_open: Option<VirtualTime>,
}

/// What [`workload::generate`] is called with for `cfg` on `catalog`.
fn workload_inputs(catalog: &ResourceCatalog, cfg: &ServeConfig) -> (WorkloadSpec, ShapeOracle, usize) {
    let spec = WorkloadSpec {
        requests: cfg.requests,
        load: cfg.load,
        seed: cfg.seed,
        tenants: cfg.tenants,
        single_shape: cfg.single_shape,
    };
    let total_nodes = catalog.clusters.iter().map(|c| c.nodes).sum();
    (spec, shape_oracle(catalog, cfg.procs_per_site), total_nodes)
}

/// Whether [`serve`] can generate `cfg`'s request stream on `catalog`: the
/// mean inter-arrival gap its load works out to must be positive and
/// finite. The `--load` / `--sweep` flags ask before they call [`serve`],
/// whose generator asserts it.
pub fn load_is_offerable(catalog: &ResourceCatalog, cfg: &ServeConfig) -> bool {
    let (spec, oracle, total_nodes) = workload_inputs(catalog, cfg);
    let gap_s = workload::mean_gap_s(&spec, &oracle.solo_s, &oracle.nodes, total_nodes);
    gap_s > 0.0 && gap_s.is_finite()
}

impl<'a> Engine<'a> {
    fn new(catalog: &ResourceCatalog, cfg: &'a ServeConfig) -> Self {
        assert!(cfg.retry.max_attempts >= 1, "retry budget must allow at least the first try");
        let (spec, oracle, total_nodes) = workload_inputs(catalog, cfg);
        let requests = workload::generate(&spec, &oracle.solo_s, &oracle.nodes, total_nodes);
        let mut crashes = cfg.faults.site_crashes().to_vec();
        crashes.sort_by_key(|&(site, at)| (at, site));
        Engine {
            cfg,
            solo_s: oracle.solo_s,
            next_arr: 0,
            dispositions: vec![None; requests.len()],
            requests,
            t: VirtualTime::ZERO,
            pool: SlotPool::new(catalog.clone()),
            shared: SharedLinks::default(),
            queue: BoundedQueue::new(cfg.queue_capacity),
            tenant_served: vec![0.0; cfg.tenants],
            running: Vec::new(),
            retry_wait: BTreeMap::new(),
            models: BTreeMap::new(),
            out: ServeOutcome {
                config: cfg.clone(),
                records: Vec::new(),
                horizon: VirtualTime::ZERO,
                dispatches: 0,
                msgs: 0,
                wan_msgs: 0,
                bytes: 0,
                flops: 0.0,
                total_wait_s: 0.0,
                wan_busy: Vec::new(),
                busy_intervals: Vec::new(),
                faults: Vec::new(),
                brownout_windows: Vec::new(),
            },
            wan_busy: BTreeMap::new(),
            crashes: crashes.into_iter().peekable(),
            boundaries: cfg.faults.event_times().into_iter().peekable(),
            drop_seq: BTreeMap::new(),
            brownout: Brownout::new(cfg.brownout.clone()),
            brownout_open: None,
        }
    }

    /// Dispatches as much as the policy and the free slots allow. No
    /// backfill: a contended head stops the pass.
    fn dispatch(&mut self) {
        while let Some(ticket) = self.queue.select(self.cfg.policy, &self.tenant_served) {
            match self.place(self.queue.get(ticket).sites) {
                Placement::Go(alloc) => {
                    let head = self.queue.remove(ticket);
                    self.start(head, alloc);
                }
                Placement::Wait => break,
                Placement::Never => {
                    let j = self.queue.remove(ticket);
                    self.dispositions[j.id] =
                        Some(Disposition::FailedPermanent { attempts: j.attempts });
                }
            }
        }
    }

    /// Elastic re-allocation: after a site crash the head may have to
    /// shrink to the widest width still feasible on the survivors.
    fn place(&mut self, sites_wanted: usize) -> Placement {
        for width in (1..=sites_wanted.min(self.pool.up_sites())).rev() {
            let profile = JobProfile::cluster_of_clusters(width, self.cfg.procs_per_site);
            if self.pool.feasible_on_survivors(&profile) {
                return match self.pool.allocate(&profile) {
                    Ok(alloc) => Placement::Go(alloc),
                    Err(_) => Placement::Wait,
                };
            }
        }
        Placement::Never
    }

    /// Starts `head` (plus, under `--batch`, every queued request sharing
    /// its batching key) on `alloc` at the current instant.
    fn start(&mut self, mut head: QueuedJob, alloc: Allocation) {
        let (cols, sites_wanted) = (head.cols, head.sites);
        let pps = self.cfg.procs_per_site;
        let checkpoint = head.checkpoint.take();
        let mut members = vec![head];
        if self.cfg.batch && checkpoint.is_none() {
            members.extend(self.queue.drain_matching(cols, sites_wanted));
            members.sort_by_key(|j| j.id);
        }
        let m: u64 = members.iter().map(|j| j.rows).sum();
        // A shrunk lease re-plants the reduction tree over the surviving
        // site set via the autotuner's predictor; the failure-free path
        // keeps the paper's grid-hierarchical tree.
        let shape = if alloc.num_groups() < sites_wanted {
            let layout = DomainLayout::build(&alloc.topology, m, cols, pps);
            let rate = Some(alloc.effective_gflops_per_proc * 1e9);
            plan_tree(&alloc.topology, &alloc.network, &layout, rate, rate).1
        } else {
            TreeShape::GridHierarchical
        };
        let model = memo_model(&mut self.models, &alloc, m, cols, pps, &shape);
        let out = &mut self.out;
        out.dispatches += 1;
        out.wan_msgs += model.wan_msgs;
        let (phase1_s, wan_rem_s, served_s) = if let Some(cp) = checkpoint {
            // Checkpointed WAN drain: the local phase is already
            // persisted as per-cluster partial R factors; this try only
            // re-sends the residual wire-seconds, so only the root
            // messages count and no useful flops recompute.
            out.msgs += model.wan_msgs;
            out.bytes += model.wan_msgs * packed_bytes(cols);
            (0.0, cp.residual_wan_s, cp.residual_wan_s)
        } else {
            out.msgs += model.msgs;
            out.bytes += model.bytes;
            out.flops += model.flops;
            ((model.t_base_s - model.wan_s).max(0.0), model.wan_s, model.t_base_s)
        };
        let booked = (alloc.nodes_per_group() * alloc.num_groups()) as f64;
        for j in &members {
            out.total_wait_s += (self.t - j.enqueued).secs();
            self.tenant_served[j.tenant] += served_s * booked / members.len() as f64;
        }
        self.running.push(RunJob {
            members,
            alloc,
            links: model.links,
            start: self.t,
            phase1_end: self.t + VirtualTime::from_secs(phase1_s),
            wan_rem_s,
            wan_full_s: model.wan_s,
            in_phase2: false,
        });
    }

    /// The earliest next event: an arrival, a phase-1 end, a projected
    /// drain completion at the current (piecewise-constant) rates, a
    /// retry backoff expiring, or the failure schedule changing state.
    /// `None` ends the run.
    fn next_instant(&mut self) -> Option<VirtualTime> {
        let t = self.t;
        let mut t_next: Option<VirtualTime> = None;
        let mut consider = |x: VirtualTime| t_next = Some(t_next.map_or(x, |cur| cur.min(x)));
        if let Some(r) = self.requests.get(self.next_arr) {
            consider(r.arrival);
        }
        for job in &mut self.running {
            if !job.in_phase2 {
                consider(job.phase1_end);
            } else if job.wan_rem_s <= DRAIN_EPS_S {
                consider(t);
            } else {
                let rate = drain_rate(&self.shared, &job.links, &self.cfg.faults, t);
                let done = t + VirtualTime::from_secs(job.wan_rem_s / rate);
                if done <= t {
                    // `DRAIN_EPS_S` is absolute: past a few thousand
                    // virtual seconds a residue above it is still below
                    // the clock's resolution at `t`. It can never advance
                    // the clock, so it has drained.
                    job.wan_rem_s = 0.0;
                }
                consider(done);
            }
        }
        if let Some((&(ready, _), _)) = self.retry_wait.first_key_value() {
            consider(ready);
        }
        // Schedule boundaries only matter while work remains; without
        // this guard a long degradation window would stretch the horizon
        // past the last completion for nothing.
        while self.boundaries.next_if(|&b| b <= t).is_some() {}
        let work_pending = self.next_arr < self.requests.len()
            || !self.queue.is_empty()
            || !self.running.is_empty()
            || !self.retry_wait.is_empty();
        if let (true, Some(&b)) = (work_pending, self.boundaries.peek()) {
            consider(b);
        }
        t_next
    }

    /// Advances the fluid WAN drains across the segment up to `tn` (rates
    /// are constant within it: joins/leaves happen at events and the
    /// degradation-window edges are themselves events).
    fn advance_to(&mut self, tn: VirtualTime) {
        let dt = (tn - self.t).secs();
        if dt > 0.0 {
            for job in &mut self.running {
                if job.in_phase2 {
                    let rate = drain_rate(&self.shared, &job.links, &self.cfg.faults, self.t);
                    job.wan_rem_s = (job.wan_rem_s - dt * rate).max(0.0);
                }
            }
            let wan_bucket = LinkClass::N_BUCKETS - 1;
            for l in self.shared.active_links() {
                *self.wan_busy.entry(l).or_insert(0.0) += dt;
                self.out.busy_intervals.push((wan_bucket, self.t.secs(), tn.secs()));
            }
        }
        self.t = tn;
    }

    /// Removes and returns the running jobs `hit` selects; both halves
    /// keep their order.
    fn take_running(&mut self, hit: impl Fn(&RunJob) -> bool) -> Vec<RunJob> {
        self.running.extract_if(.., |job| hit(job)).collect()
    }

    /// Routes every member of a faulted job through the recovery policy:
    /// a bounded-backoff retry when budget remains, a permanent failure
    /// otherwise, a typed [`JobFault`] either way. `residual_wan_s` is
    /// what a checkpointed retry would still owe.
    fn fault(&mut self, job: RunJob, kind: FaultKind, residual_wan_s: f64) {
        // A checkpoint only exists once the local phase finished: the
        // tiny per-cluster R factors are persisted at fault time.
        let checkpoint = (job.in_phase2 && self.cfg.retry.checkpoint_drain)
            .then_some(Checkpoint { residual_wan_s });
        let retry = &self.cfg.retry;
        for memb in job.members {
            let request = memb.id;
            let action = if memb.attempts < retry.max_attempts {
                let attempts = memb.attempts + 1;
                let ready = self.t + VirtualTime::from_secs(retry.backoff_s(memb.attempts));
                // SJF sees the true remaining work: the residual drain
                // under a checkpoint, the full solo service under a restart.
                let service_s = checkpoint.map_or(self.solo_s[memb.shape], |cp| cp.residual_wan_s);
                let again = QueuedJob { attempts, checkpoint, enqueued: ready, service_s, ..memb };
                self.retry_wait.insert((ready, request), again);
                RecoveryAction::Retried { attempts, checkpointed: checkpoint.is_some() }
            } else {
                let attempts = memb.attempts;
                self.dispositions[request] = Some(Disposition::FailedPermanent { attempts });
                RecoveryAction::FailedPermanent { attempts }
            };
            self.out.faults.push(JobFault { at: self.t, request, kind, action });
        }
    }

    /// Site crashes due at the current instant. Pessimistic: a job
    /// finishing at the crash instant still dies.
    fn fire_crashes(&mut self) {
        while let Some((site, _)) = self.crashes.next_if(|&(_, at)| at <= self.t) {
            self.pool.fail_site(site);
            for job in self.take_running(|job| job.alloc.cluster_of_group.contains(&site)) {
                // Kill the lease: leave the WAN, release each surviving
                // site explicitly (the dead one was written off above).
                if job.in_phase2 {
                    self.shared.leave(&job.links);
                }
                for &c in &job.alloc.cluster_of_group {
                    if c != site && !self.pool.site_down(c) {
                        job.alloc.release_site(&mut self.pool, c);
                    }
                }
                let p1_end = if job.in_phase2 { job.phase1_end } else { self.t };
                let local = LinkClass::IntraCluster.bucket();
                self.out.busy_intervals.push((local, job.start.secs(), p1_end.secs()));
                let residual = job.wan_rem_s;
                self.fault(job, FaultKind::SiteCrashed { site }, residual);
            }
        }
    }

    /// Local phases that finished enter the shared WAN drain.
    fn finish_local_phases(&mut self) {
        for job in &mut self.running {
            if !job.in_phase2 && job.phase1_end <= self.t {
                job.in_phase2 = true;
                let local = LinkClass::IntraCluster.bucket();
                self.out.busy_intervals.push((local, job.start.secs(), job.phase1_end.secs()));
                self.shared.join(&job.links);
            }
        }
    }

    /// Drained jobs complete — unless a drop rule eats the in-flight R
    /// messages, which faults the job instead.
    fn complete_drains(&mut self) {
        let faults = &self.cfg.faults;
        for job in self.take_running(|job| job.in_phase2 && job.wan_rem_s <= DRAIN_EPS_S) {
            self.shared.leave(&job.links);
            job.alloc.release(&mut self.pool);
            let mut dropped_on: Option<(usize, usize)> = None;
            if faults.any_drop_rules() {
                for &l in &job.links {
                    let seq = self.drop_seq.entry(l).or_insert(0);
                    if dropped_on.is_none() && faults.should_drop(l.0, l.1, *seq) {
                        dropped_on = Some(l);
                    }
                    *seq += 1;
                }
            }
            if let Some(link) = dropped_on {
                // The whole drain must be resent; the local phase stays
                // checkpointed (when the policy keeps checkpoints).
                let resend = job.wan_full_s;
                self.fault(job, FaultKind::DrainDropped { link }, resend);
            } else {
                let batch_size = job.members.len();
                for memb in &job.members {
                    self.dispositions[memb.id] = Some(Disposition::Completed {
                        start: job.start,
                        finish: self.t,
                        batch_size,
                        attempts: memb.attempts,
                    });
                }
            }
        }
    }

    /// Expired backoffs re-enter the admission queue (bypassing the
    /// bound: re-admission is not new admission), in ready-time order
    /// with id tiebreaks.
    fn readmit_retries(&mut self) {
        while let Some(next) = self.retry_wait.first_entry() {
            if next.key().0 > self.t {
                break;
            }
            self.queue.push_unbounded(next.remove());
        }
    }

    /// Arrivals at the current instant are admitted, shed (brownout), or
    /// rejected.
    fn admit_arrivals(&mut self) {
        while let Some(r) = self.requests.get(self.next_arr).filter(|r| r.arrival <= self.t) {
            let pressure = self.retry_wait.len() + self.queue.retried();
            let active = self.brownout.on_pressure(pressure);
            if active && self.brownout_open.is_none() {
                self.brownout_open = Some(self.t);
            } else if !active {
                if let Some(s) = self.brownout_open.take() {
                    self.out.brownout_windows.push((s.secs(), self.t.secs()));
                }
            }
            let solo_s = self.solo_s[r.shape];
            let slack_s = (r.deadline - r.arrival).secs();
            if active && slack_s >= self.cfg.brownout.shed_slack * solo_s {
                self.dispositions[r.id] = Some(Disposition::Shed);
            } else {
                let qj = QueuedJob {
                    id: r.id,
                    tenant: r.tenant,
                    shape: r.shape,
                    rows: r.rows,
                    cols: r.cols,
                    sites: r.sites,
                    arrival: r.arrival,
                    deadline: r.deadline,
                    service_s: solo_s,
                    attempts: 1,
                    checkpoint: None,
                    enqueued: r.arrival,
                };
                if self.queue.try_push(qj).is_err() {
                    self.dispositions[r.id] = Some(Disposition::RejectedQueueFull);
                }
            }
            self.next_arr += 1;
        }
    }

    /// Closes the books once no event remains.
    fn into_outcome(mut self) -> ServeOutcome {
        if let Some(s) = self.brownout_open.take() {
            self.out.brownout_windows.push((s.secs(), self.t.secs()));
        }
        let wedged = "serving loop wedged with unresolved requests — silent drops are forbidden";
        self.out.records = self
            .requests
            .into_iter()
            .zip(self.dispositions)
            .map(|(request, d)| RequestRecord { request, disposition: d.expect(wedged) })
            .collect();
        assert!(self.pool.is_idle(), "slot leak: pool not fully recovered after drain");
        self.out.horizon = self.t;
        self.out.wan_busy = self.wan_busy.into_iter().collect();
        self.out
    }
}

/// Runs one serving trace to completion and returns the full outcome.
///
/// # Panics
/// Panics if the loop ever wedges with admitted-but-unservable requests
/// — that would be a silent drop, which the design forbids — or when
/// the slot pool ends the run with an outstanding lease (a leak).
pub fn serve(catalog: &ResourceCatalog, cfg: &ServeConfig) -> ServeOutcome {
    let mut engine = Engine::new(catalog, cfg);
    loop {
        engine.dispatch();
        let Some(tn) = engine.next_instant() else { break };
        engine.advance_to(tn);
        engine.fire_crashes();
        engine.finish_local_phases();
        engine.complete_drains();
        engine.readmit_retries();
        engine.admit_arrivals();
    }
    engine.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g5k() -> ResourceCatalog {
        ResourceCatalog::grid5000()
    }

    #[test]
    fn oracle_covers_menu_and_orders_by_work() {
        let o = shape_oracle(&g5k(), 64);
        assert_eq!(o.solo_s.len(), workload::menu().len());
        assert!(o.solo_s.iter().all(|&s| s > 0.0));
        // The four-site flagship books the most nodes.
        assert_eq!(o.nodes.iter().max(), o.nodes.last());
    }

    #[test]
    fn a_load_that_leaves_no_gap_between_arrivals_is_not_offerable() {
        let at = |load: f64| load_is_offerable(&g5k(), &ServeConfig { load, ..Default::default() });
        assert!(at(0.8) && at(1e300));
        // load × grid nodes overflows, the gap is 0 and `generate` asserts.
        assert!(!at(1e308) && !at(f64::INFINITY));
        assert!(!at(0.0) && !at(-1.0) && !at(f64::NAN));
    }

    #[test]
    fn solo_job_reproduces_its_predicted_makespan() {
        // One request at trivial load: sojourn == solo prediction (the
        // two-phase split must be exact for an uncontended job).
        let cfg = ServeConfig { requests: 1, load: 0.1, ..Default::default() };
        let out = serve(&g5k(), &cfg);
        let o = shape_oracle(&g5k(), 64);
        let rec = &out.records[0];
        match rec.disposition {
            Disposition::Completed { start, finish, batch_size, attempts } => {
                assert_eq!(batch_size, 1);
                assert_eq!(attempts, 1, "failure-free run completes on the first try");
                assert_eq!(start, rec.request.arrival, "idle grid dispatches immediately");
                let sojourn = (finish - start).secs();
                let solo = o.solo_s[rec.request.shape];
                assert!(
                    (sojourn - solo).abs() <= 1e-9 * solo,
                    "solo sojourn {sojourn} != predicted {solo}"
                );
            }
            ref other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn every_request_gets_exactly_one_disposition() {
        for load in [0.3, 1.5] {
            let cfg = ServeConfig { requests: 60, load, ..Default::default() };
            let out = serve(&g5k(), &cfg);
            assert_eq!(out.records.len(), 60);
            let completed = out
                .records
                .iter()
                .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
                .count();
            let rejected = out.records.len() - completed;
            assert_eq!(completed + rejected, 60);
        }
    }

    #[test]
    fn contention_stretches_sojourns() {
        // Two four-site jobs arriving together must interfere on the WAN
        // drain: the later one's sojourn exceeds its solo service time.
        let cfg = ServeConfig {
            requests: 8,
            load: 3.0,
            single_shape: Some(3),
            ..Default::default()
        };
        let out = serve(&g5k(), &cfg);
        let o = shape_oracle(&g5k(), 64);
        let solo = o.solo_s[3];
        let max_sojourn = out
            .records
            .iter()
            .filter_map(|r| match r.disposition {
                Disposition::Completed { finish, .. } => {
                    Some((finish - r.request.arrival).secs())
                }
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!(
            max_sojourn > 1.01 * solo,
            "overlapping jobs should queue/contend: max sojourn {max_sojourn} vs solo {solo}"
        );
        assert!(!out.wan_busy.is_empty(), "four-site jobs must touch WAN links");
    }

    #[test]
    fn batching_coalesces_and_cuts_wan_messages() {
        let base = ServeConfig {
            requests: 24,
            load: 4.0,
            single_shape: Some(3),
            ..Default::default()
        };
        let unbatched = serve(&g5k(), &base);
        let batched = serve(&g5k(), &ServeConfig { batch: true, ..base });
        assert!(batched.dispatches < unbatched.dispatches);
        assert!(
            batched.wan_msgs < unbatched.wan_msgs,
            "batching must strictly reduce WAN messages: {} vs {}",
            batched.wan_msgs,
            unbatched.wan_msgs
        );
        // Both serve every request.
        for out in [&unbatched, &batched] {
            assert!(out
                .records
                .iter()
                .all(|r| !matches!(r.disposition, Disposition::RejectedInfeasible)));
        }
        // Some batch actually formed.
        assert!(batched.records.iter().any(
            |r| matches!(r.disposition, Disposition::Completed { batch_size, .. } if batch_size > 1)
        ));
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let cfg = ServeConfig {
            requests: 80,
            load: 8.0,
            queue_capacity: 4,
            ..Default::default()
        };
        let out = serve(&g5k(), &cfg);
        let rejected = out
            .records
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::RejectedQueueFull))
            .count();
        assert!(rejected > 0, "a 4-deep queue at 8x load must reject");
    }

    #[test]
    fn same_seed_same_policy_is_byte_identical() {
        let cfg = ServeConfig { requests: 40, load: 1.2, ..Default::default() };
        let a = serve(&g5k(), &cfg);
        let b = serve(&g5k(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_the_failure_free_engine() {
        // The failure machinery must be inert: constructing the config
        // with an explicit empty schedule changes nothing, and no fault
        // artifacts appear.
        let cfg = ServeConfig { requests: 40, load: 1.2, batch: true, ..Default::default() };
        let out = serve(&g5k(), &cfg);
        assert!(out.faults.is_empty());
        assert!(out.brownout_windows.is_empty());
        assert!(out.records.iter().all(|r| !matches!(
            r.disposition,
            Disposition::Shed | Disposition::FailedPermanent { .. }
        )));
    }

    #[test]
    fn site_crash_kills_leases_and_retries_complete() {
        // Crash a cluster mid-run: jobs leasing it fault, retry after
        // backoff, and (with budget to spare) still complete — with the
        // audit trail recording every hop. The pool-idle assert inside
        // serve() additionally proves no slot leaked across the kill.
        let cfg = ServeConfig {
            requests: 12,
            load: 1.0,
            single_shape: Some(3), // four-site jobs always lease site 2
            faults: FailureSchedule::new(7).crash_site(2, VirtualTime::from_secs(0.1)),
            ..Default::default()
        };
        let out = serve(&g5k(), &cfg);
        assert!(
            out.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::SiteCrashed { site: 2 })),
            "the crash must hit at least one running job"
        );
        let retried_completions = out
            .records
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { attempts, .. } if attempts > 1))
            .count();
        assert!(retried_completions > 0, "some faulted job must complete on a retry");
        // Elastic re-allocation: four-site requests dispatched after the
        // crash still complete on the three surviving sites.
        let post_crash_completions = out.records.iter().any(|r| {
            matches!(r.disposition, Disposition::Completed { start, .. }
                if start > VirtualTime::from_secs(0.1))
        });
        assert!(post_crash_completions, "survivor grid must keep serving after the crash");
    }

    #[test]
    fn checkpointed_drain_beats_full_restart() {
        // Same crash, two recovery modes: checkpointed retries pay only
        // the residual drain, so the horizon and the faulted requests'
        // sojourns must not exceed the full-restart run's.
        let base = ServeConfig {
            requests: 12,
            load: 1.0,
            single_shape: Some(3),
            faults: FailureSchedule::new(7).crash_site(2, VirtualTime::from_secs(0.1)),
            ..Default::default()
        };
        let ckpt = serve(&g5k(), &base);
        let restart = serve(
            &g5k(),
            &ServeConfig {
                retry: RetryPolicy { checkpoint_drain: false, ..Default::default() },
                ..base
            },
        );
        let ckpt_used = ckpt.faults.iter().any(|f| {
            matches!(f.action, RecoveryAction::Retried { checkpointed: true, .. })
        });
        assert!(ckpt_used, "a mid-drain kill must produce a checkpointed retry");
        assert!(restart.faults.iter().all(|f| {
            !matches!(f.action, RecoveryAction::Retried { checkpointed: true, .. })
        }));
        assert!(
            ckpt.horizon <= restart.horizon,
            "checkpointed drain must not extend the horizon past full restart: {} vs {}",
            ckpt.horizon.secs(),
            restart.horizon.secs()
        );
    }

    #[test]
    fn drain_drop_faults_and_recovers() {
        // Drop the first drain completion on the (0,2) site pair: the
        // affected job resends its drain and completes on the retry.
        let cfg = ServeConfig {
            requests: 6,
            load: 0.5,
            single_shape: Some(3),
            faults: FailureSchedule::new(7).drop_nth_message(0, 2, 0),
            ..Default::default()
        };
        let out = serve(&g5k(), &cfg);
        assert!(
            out.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::DrainDropped { link: (0, 2) })),
            "the scripted drop must fire"
        );
        assert!(out.records.iter().all(|r| matches!(
            r.disposition,
            Disposition::Completed { .. } | Disposition::RejectedQueueFull
        )));
    }

    #[test]
    fn exhausted_retry_budget_fails_permanently() {
        // One attempt, no retries: the crash's victims fail permanently
        // and the audit trail says so.
        let cfg = ServeConfig {
            requests: 8,
            load: 1.0,
            single_shape: Some(3),
            faults: FailureSchedule::new(7).crash_site(2, VirtualTime::from_secs(0.1)),
            retry: RetryPolicy { max_attempts: 1, ..Default::default() },
            ..Default::default()
        };
        let out = serve(&g5k(), &cfg);
        let failed = out
            .records
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::FailedPermanent { attempts: 1 }))
            .count();
        assert!(failed > 0, "budget of one must turn the crash into permanent failures");
        assert!(out
            .faults
            .iter()
            .all(|f| !matches!(f.action, RecoveryAction::Retried { .. })));
    }

    #[test]
    fn wan_degradation_slows_drains_and_brownout_sheds() {
        // A long all-WAN brownout window plus aggressive drop rules keep
        // jobs faulting; with low watermarks admission sheds the loosest
        // deadlines and recovers once pressure passes.
        let mut faults = FailureSchedule::new(7).degrade_all_wan(
            VirtualTime::from_secs(0.05),
            VirtualTime::from_secs(5.0),
            1.0,
            8.0,
        );
        for nth in 0..6 {
            faults = faults.drop_nth_message(0, 2, nth);
        }
        let cfg = ServeConfig {
            requests: 40,
            load: 0.5,
            single_shape: Some(3),
            faults,
            brownout: BrownoutConfig { enter_watermark: 1, exit_watermark: 0, shed_slack: 0.0 },
            ..Default::default()
        };
        let out = serve(&g5k(), &cfg);
        let shed = out
            .records
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Shed))
            .count();
        assert!(shed > 0, "sustained retry pressure must shed arrivals");
        assert!(!out.brownout_windows.is_empty(), "shedding implies a brownout window");
        for &(s, e) in &out.brownout_windows {
            assert!(s <= e, "brownout windows are well-formed intervals");
        }
        // Degradation stretches the run: compare against the fault-free twin.
        let clean = serve(&g5k(), &ServeConfig {
            faults: FailureSchedule::default(),
            ..cfg.clone()
        });
        assert!(out.horizon > clean.horizon, "an 8x WAN slowdown must stretch the horizon");
    }

    #[test]
    fn a_crash_at_the_completion_instant_still_kills_the_job() {
        // Event order at one instant: crashes fire before completions.
        let cfg = ServeConfig { requests: 1, load: 0.1, ..Default::default() };
        let clean = serve(&g5k(), &cfg);
        let Disposition::Completed { finish, attempts: 1, .. } = clean.records[0].disposition
        else {
            panic!("the solo request must complete first try: {:?}", clean.records[0]);
        };
        let profile = JobProfile::cluster_of_clusters(clean.records[0].request.sites, 64);
        let site = tsqr_qcg::allocate(&g5k(), &profile).unwrap().cluster_of_group[0];
        let out = serve(
            &g5k(),
            &ServeConfig { faults: FailureSchedule::new(7).crash_site(site, finish), ..cfg },
        );
        assert_eq!(out.faults.len(), 1, "the crash must catch the finishing job");
        assert_eq!(out.faults[0].at, finish);
        assert_eq!(out.faults[0].kind, FaultKind::SiteCrashed { site });
        assert!(
            matches!(out.records[0].disposition, Disposition::Completed { attempts: 2, .. }),
            "the killed job completes on its retry: {:?}",
            out.records[0].disposition
        );
    }

    #[test]
    fn a_ready_retry_is_queued_ahead_of_a_same_instant_arrival() {
        // Event order at one instant: expired backoffs re-enter the queue
        // before arrivals are admitted. One four-site job fills this grid,
        // so after the crash FIFO runs whoever was queued first and the
        // other waits for its release.
        let mut grid = g5k();
        for c in &mut grid.clusters {
            c.nodes = 32;
        }
        // A power-of-two backoff keeps `crash + backoff == arrival` exact.
        let backoff_s = 1.0 / 16384.0;
        let cfg = ServeConfig {
            requests: 2,
            load: 4.0,
            single_shape: Some(3),
            retry: RetryPolicy { backoff_base_s: backoff_s, ..Default::default() },
            ..Default::default()
        };
        let clean = serve(&grid, &cfg);
        let [first, second] = [&clean.records[0].request, &clean.records[1].request];
        let crash = second.arrival - VirtualTime::from_secs(backoff_s);
        assert_eq!(crash + VirtualTime::from_secs(backoff_s), second.arrival);
        let Disposition::Completed { finish, .. } = clean.records[0].disposition else {
            panic!("request 0 must complete on the clean grid");
        };
        assert!(first.arrival < crash && crash < finish, "request 0 must be running at the crash");

        let out = serve(
            &grid,
            &ServeConfig { faults: FailureSchedule::new(7).crash_site(2, crash), ..cfg },
        );
        let started = |id: usize| match out.records[id].disposition {
            Disposition::Completed { start, attempts, .. } => (start, attempts),
            ref other => panic!("request {id} must complete, got {other:?}"),
        };
        assert_eq!(started(0), (second.arrival, 2), "the retry dispatches the instant it is ready");
        let (start, attempts) = started(1);
        assert_eq!(attempts, 1);
        assert!(start > second.arrival, "the arrival queued behind the retry and waited");
    }

    fn assert_same_model(a: &JobModel, b: &JobModel) {
        assert_eq!(a.t_base_s.to_bits(), b.t_base_s.to_bits());
        assert_eq!(a.wan_s.to_bits(), b.wan_s.to_bits());
        assert_eq!(a.flops.to_bits(), b.flops.to_bits());
        assert_eq!(a.links, b.links);
        assert_eq!((a.msgs, a.wan_msgs, a.bytes), (b.msgs, b.wan_msgs, b.bytes));
    }

    #[test]
    fn memoised_model_equals_a_fresh_one_on_every_placement() {
        // Pool states from idle to nearly full (background leases of one,
        // two and four sites), one shared memo across all of them: the key
        // must tell apart whatever `job_model` can tell apart. Tripled
        // rows stand for a batch's summed row count.
        let profile = |sites| JobProfile::cluster_of_clusters(sites, 64);
        let mut memo = BTreeMap::new();
        let mut calls = 0usize;
        let mut placements = std::collections::BTreeSet::new();
        for code in 0..10 * 3 * 2 {
            let mut pool = SlotPool::new(g5k());
            for (sites, leases) in [(4, code / 30), (2, code / 10 % 3), (1, code % 10)] {
                for _ in 0..leases {
                    let _ = pool.allocate(&profile(sites));
                }
            }
            for shape in workload::menu() {
                let Ok(alloc) = pool.allocate(&profile(shape.sites)) else { continue };
                placements.insert(alloc.cluster_of_group.clone());
                for rows in [shape.rows, 3 * shape.rows] {
                    let grid = TreeShape::GridHierarchical;
                    let memoised = memo_model(&mut memo, &alloc, rows, shape.cols, 64, &grid);
                    assert_same_model(&memoised, &job_model(&alloc, rows, shape.cols, 64, &grid));
                    calls += 1;
                }
                pool.release(&alloc);
            }
        }
        assert!(placements.len() >= 12, "only {} placements exercised", placements.len());
        assert!(memo.len() < calls / 4, "the memo must actually be hit");
    }

    #[test]
    fn a_replanned_tree_never_reads_the_grid_entry() {
        // After a crash the survivors may carry a different tree under the
        // very key a grid-hierarchical job of the same placement filed.
        let alloc = tsqr_qcg::allocate(&g5k(), &JobProfile::cluster_of_clusters(3, 64)).unwrap();
        let (m, n) = (1 << 21, 64);
        let mut memo = BTreeMap::new();
        let grid = memo_model(&mut memo, &alloc, m, n, 64, &TreeShape::GridHierarchical);
        for shape in [TreeShape::Flat, TreeShape::Kary(3)] {
            let got = memo_model(&mut memo, &alloc, m, n, 64, &shape);
            assert_same_model(&got, &job_model(&alloc, m, n, 64, &shape));
            assert_ne!(got.t_base_s, grid.t_base_s, "{shape:?} must not be priced as the grid tree");
        }
        assert_eq!(memo.len(), 1, "re-plans bypass the memo");
    }

    #[test]
    fn deep_queue_runs_replay_and_dispose_every_request() {
        // Load 4 into a queue that holds everything: thousands wait, so
        // every dispatch goes through the ordered indexes at depth.
        for policy in [Policy::Edf, Policy::Sjf, Policy::Fair] {
            let cfg = ServeConfig {
                policy,
                load: 4.0,
                requests: 3_000,
                queue_capacity: 3_000,
                ..Default::default()
            };
            let a = serve(&g5k(), &cfg);
            assert_eq!(a, serve(&g5k(), &cfg));
            assert_eq!(a.records.len(), 3_000);
            assert!(a
                .records
                .iter()
                .all(|r| matches!(r.disposition, Disposition::Completed { attempts: 1, .. })));
        }
    }

    #[test]
    fn sparse_arrivals_at_large_virtual_times_terminate() {
        // At t ≈ 1e5 s and beyond, one ulp of the clock exceeds
        // `DRAIN_EPS_S`: a drain residue can be too small to advance
        // virtual time yet too large to count as zero, and the loop used
        // to spin on it forever. Run off-thread so a regression fails
        // instead of hanging the suite.
        for load in [1e-8, 1e-10] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let cfg = ServeConfig { requests: 3, load, ..Default::default() };
                let _ = tx.send(serve(&g5k(), &cfg));
            });
            let out = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("serve() at load {load} did not return"));
            assert!(out.horizon.secs().is_finite());
            assert!(out
                .records
                .iter()
                .all(|r| matches!(r.disposition, Disposition::Completed { .. })));
        }
    }

    #[test]
    fn faulty_runs_replay_byte_identically() {
        let cfg = ServeConfig {
            requests: 30,
            load: 1.5,
            single_shape: Some(3),
            batch: true,
            faults: FailureSchedule::new(11)
                .crash_site(1, VirtualTime::from_secs(0.06))
                .drop_nth_message(0, 2, 1)
                .degrade_all_wan(
                    VirtualTime::from_secs(0.05),
                    VirtualTime::from_secs(0.2),
                    2.0,
                    4.0,
                ),
            ..Default::default()
        };
        let a = serve(&g5k(), &cfg);
        let b = serve(&g5k(), &cfg);
        assert_eq!(a, b, "same seed + same schedule must replay byte-identically");
        assert!(!a.faults.is_empty(), "the scripted schedule must actually bite");
    }
}
