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
//! completion); remainders advance by `dt × rate` over the segment; all
//! state changes happen at event instants, in a fixed order (phase
//! transitions, completions, arrivals, then dispatch), with request-id
//! tiebreaks — so the same seed and policy replay byte-identically.
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

use tsqr_core::domains::DomainLayout;
use tsqr_core::model::useful_flops;
use tsqr_core::tree::{ReductionTree, Step, TreeShape};
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

    let r_bytes = 8 * (n * (n + 1) / 2) as u64;
    let roots = layout.roots();
    let mut wan_s = 0.0;
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut msgs = 0u64;
    let mut wan_msgs = 0u64;
    let mut bytes = 0u64;
    for (d, steps) in tree.steps.iter().enumerate() {
        for step in steps {
            if let Step::Send(to) = *step {
                let a = alloc.topology.location(roots[d]);
                let b = alloc.topology.location(roots[to]);
                msgs += 1;
                bytes += r_bytes;
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
        }
    }
    links.sort_unstable();
    JobModel {
        t_base_s: t_base.secs(),
        wan_s,
        links,
        msgs,
        wan_msgs,
        bytes,
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

/// Routes one faulted batch member through the recovery policy: a
/// bounded-backoff retry when budget remains, a permanent failure
/// otherwise. Emits the typed [`JobFault`] either way.
#[allow(clippy::too_many_arguments)]
fn route_fault(
    memb: QueuedJob,
    kind: FaultKind,
    checkpoint: Option<Checkpoint>,
    t: VirtualTime,
    retry: &RetryPolicy,
    solo_s: &[f64],
    dispositions: &mut [Option<Disposition>],
    faults: &mut Vec<JobFault>,
    retry_wait: &mut Vec<(VirtualTime, QueuedJob)>,
) {
    if memb.attempts < retry.max_attempts {
        let attempts = memb.attempts + 1;
        let ready = t + VirtualTime::from_secs(retry.backoff_s(memb.attempts));
        faults.push(JobFault {
            at: t,
            request: memb.id,
            kind,
            action: RecoveryAction::Retried { attempts, checkpointed: checkpoint.is_some() },
        });
        // SJF sees the true remaining work: the residual drain under a
        // checkpoint, the full solo service under a restart.
        let service_s = match checkpoint {
            Some(cp) => cp.residual_wan_s,
            None => solo_s[memb.shape],
        };
        retry_wait
            .push((ready, QueuedJob { attempts, checkpoint, enqueued: ready, service_s, ..memb }));
    } else {
        faults.push(JobFault {
            at: t,
            request: memb.id,
            kind,
            action: RecoveryAction::FailedPermanent { attempts: memb.attempts },
        });
        dispositions[memb.id] = Some(Disposition::FailedPermanent { attempts: memb.attempts });
    }
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

/// Runs one serving trace to completion and returns the full outcome.
///
/// # Panics
/// Panics if the loop ever wedges with admitted-but-unservable requests
/// — that would be a silent drop, which the design forbids — or when
/// the slot pool ends the run with an outstanding lease (a leak).
pub fn serve(catalog: &ResourceCatalog, cfg: &ServeConfig) -> ServeOutcome {
    assert!(cfg.retry.max_attempts >= 1, "retry budget must allow at least the first try");
    let oracle = shape_oracle(catalog, cfg.procs_per_site);
    let total_nodes: usize = catalog.clusters.iter().map(|c| c.nodes).sum();
    let spec = WorkloadSpec {
        requests: cfg.requests,
        load: cfg.load,
        seed: cfg.seed,
        tenants: cfg.tenants,
        single_shape: cfg.single_shape,
    };
    let requests = workload::generate(&spec, &oracle.solo_s, &oracle.nodes, total_nodes);

    let mut dispositions: Vec<Option<Disposition>> = vec![None; requests.len()];
    let mut pool = SlotPool::new(catalog.clone());
    let mut shared = SharedLinks::default();
    let mut queue = BoundedQueue::new(cfg.queue_capacity);
    let mut tenant_served = vec![0.0f64; cfg.tenants];
    let mut running: Vec<RunJob> = Vec::new();
    let mut models: BTreeMap<ModelKey, JobModel> = BTreeMap::new();
    let mut next_arr = 0usize;
    let mut t = VirtualTime::ZERO;

    let mut dispatches = 0usize;
    let mut msgs = 0u64;
    let mut wan_msgs = 0u64;
    let mut bytes = 0u64;
    let mut flops = 0.0f64;
    let mut total_wait_s = 0.0f64;
    let mut wan_busy: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut busy_intervals: Vec<(usize, f64, f64)> = Vec::new();

    // Failure machinery. All of it is inert (and allocation-free on the
    // hot path) when the schedule is empty.
    let mut site_crashes: Vec<(usize, VirtualTime)> = cfg.faults.site_crashes().to_vec();
    site_crashes.sort_by(|a, b| a.1.secs().total_cmp(&b.1.secs()).then(a.0.cmp(&b.0)));
    let mut next_crash = 0usize;
    let boundaries = cfg.faults.event_times();
    let mut next_boundary = 0usize;
    let drops_armed = cfg.faults.any_drop_rules();
    let mut drop_seq: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut retry_wait: Vec<(VirtualTime, QueuedJob)> = Vec::new();
    let mut faults: Vec<JobFault> = Vec::new();
    let mut brownout = Brownout::new(cfg.brownout.clone());
    let mut brownout_open: Option<VirtualTime> = None;
    let mut brownout_windows: Vec<(f64, f64)> = Vec::new();

    loop {
        // Dispatch as much as the policy and the free slots allow. No
        // backfill: a contended head stops the pass. After a site crash
        // the head may need *elastic re-allocation*: shrink to the
        // widest width feasible on the survivors and re-plant the tree.
        'dispatch: while let Some(ticket) = queue.select(cfg.policy, &tenant_served) {
            let (cols, sites_wanted) = {
                let head = queue.get(ticket);
                (head.cols, head.sites)
            };
            let mut planned: Option<Allocation> = None;
            let mut width = sites_wanted.min(pool.up_sites());
            while width >= 1 {
                let profile = JobProfile::cluster_of_clusters(width, cfg.procs_per_site);
                if !pool.feasible_on_survivors(&profile) {
                    width -= 1;
                    continue;
                }
                // Widest feasible width found; a failure here is pure
                // capacity contention, not infeasibility.
                planned = pool.allocate(&profile).ok();
                break;
            }
            let Some(alloc) = planned else {
                if width >= 1 {
                    break 'dispatch; // contention: wait for a release
                }
                // No surviving width can host this shape — ever.
                let j = queue.remove(ticket);
                dispositions[j.id] =
                    Some(Disposition::FailedPermanent { attempts: j.attempts });
                continue 'dispatch;
            };
            let replanned = width < sites_wanted;
            let mut head = queue.remove(ticket);
            let checkpoint = head.checkpoint.take();
            let mut members = vec![head];
            if cfg.batch && checkpoint.is_none() {
                members.extend(queue.drain_matching(cols, sites_wanted));
                members.sort_by_key(|j| j.id);
            }
            let m: u64 = members.iter().map(|j| j.rows).sum();
            // Elastic re-allocation re-plants the reduction tree over the
            // surviving site set via the autotuner's predictor; the
            // failure-free path keeps the paper's grid-hierarchical tree.
            let shape = if replanned {
                let layout = DomainLayout::build(&alloc.topology, m, cols, cfg.procs_per_site);
                let rate = Some(alloc.effective_gflops_per_proc * 1e9);
                let (_, shape, _) = plan_tree(&alloc.topology, &alloc.network, &layout, rate, rate);
                shape
            } else {
                TreeShape::GridHierarchical
            };
            let model = memo_model(&mut models, &alloc, m, cols, cfg.procs_per_site, &shape);
            dispatches += 1;
            let (phase1_s, wan_rem_s, served_s);
            if let Some(cp) = checkpoint {
                // Checkpointed WAN drain: the local phase is already
                // persisted as per-cluster partial R factors; this try
                // only re-sends the residual wire-seconds, so only the
                // root messages count and no useful flops recompute.
                let r_bytes = 8 * (cols * (cols + 1) / 2) as u64;
                msgs += model.wan_msgs;
                wan_msgs += model.wan_msgs;
                bytes += model.wan_msgs * r_bytes;
                phase1_s = 0.0;
                wan_rem_s = cp.residual_wan_s;
                served_s = cp.residual_wan_s;
            } else {
                msgs += model.msgs;
                wan_msgs += model.wan_msgs;
                bytes += model.bytes;
                flops += model.flops;
                phase1_s = (model.t_base_s - model.wan_s).max(0.0);
                wan_rem_s = model.wan_s;
                served_s = model.t_base_s;
            }
            let booked = (alloc.nodes_per_group() * alloc.num_groups()) as f64;
            for j in &members {
                total_wait_s += (t - j.enqueued).secs();
                tenant_served[j.tenant] += served_s * booked / members.len() as f64;
            }
            let phase1_end = t + VirtualTime::from_secs(phase1_s);
            running.push(RunJob {
                members,
                alloc,
                links: model.links,
                start: t,
                phase1_end,
                wan_rem_s,
                wan_full_s: model.wan_s,
                in_phase2: false,
            });
        }

        // Earliest next event: arrival, phase-1 end, projected drain
        // completion at the current (piecewise-constant) rates, a retry
        // backoff expiring, or the failure schedule changing state.
        let mut t_next: Option<VirtualTime> = None;
        let mut consider = |x: VirtualTime| {
            t_next = Some(match t_next {
                Some(cur) if cur <= x => cur,
                _ => x,
            });
        };
        if next_arr < requests.len() {
            consider(requests[next_arr].arrival);
        }
        for job in &mut running {
            if !job.in_phase2 {
                consider(job.phase1_end);
            } else if job.wan_rem_s <= DRAIN_EPS_S {
                consider(t);
            } else {
                let rate = drain_rate(&shared, &job.links, &cfg.faults, t);
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
        for &(ready, _) in &retry_wait {
            consider(ready);
        }
        // Schedule boundaries only matter while work remains; without
        // this guard a long degradation window would stretch the horizon
        // past the last completion for nothing.
        while next_boundary < boundaries.len() && boundaries[next_boundary] <= t {
            next_boundary += 1;
        }
        let work_pending = next_arr < requests.len()
            || !queue.is_empty()
            || !running.is_empty()
            || !retry_wait.is_empty();
        if work_pending && next_boundary < boundaries.len() {
            consider(boundaries[next_boundary]);
        }
        let Some(tn) = t_next else { break };

        // Advance the fluid WAN drains across the segment (rates are
        // constant within it: joins/leaves happen at events and the
        // degradation-window edges are themselves events).
        let dt = (tn - t).secs();
        if dt > 0.0 {
            for job in &mut running {
                if job.in_phase2 {
                    let rate = drain_rate(&shared, &job.links, &cfg.faults, t);
                    job.wan_rem_s = (job.wan_rem_s - dt * rate).max(0.0);
                }
            }
            for l in shared.active_links() {
                *wan_busy.entry(l).or_insert(0.0) += dt;
                busy_intervals.push((LinkClass::N_BUCKETS - 1, t.secs(), tn.secs()));
            }
        }
        t = tn;

        // Events at t, in fixed order. (a) site crashes fire first —
        // pessimistic: a job finishing at the crash instant still dies.
        while next_crash < site_crashes.len() && site_crashes[next_crash].1 <= t {
            let (site, _) = site_crashes[next_crash];
            next_crash += 1;
            pool.fail_site(site);
            let mut still = Vec::with_capacity(running.len());
            for job in running.drain(..) {
                if !job.alloc.cluster_of_group.contains(&site) {
                    still.push(job);
                    continue;
                }
                // Kill the lease: leave the WAN, release each surviving
                // site explicitly (the dead one was written off above).
                if job.in_phase2 {
                    shared.leave(&job.links);
                }
                for &c in &job.alloc.cluster_of_group {
                    if c != site && !pool.site_down(c) {
                        job.alloc.release_site(&mut pool, c);
                    }
                }
                let p1_end = if job.in_phase2 { job.phase1_end } else { t };
                busy_intervals.push((
                    LinkClass::IntraCluster.bucket(),
                    job.start.secs(),
                    p1_end.secs(),
                ));
                // Checkpoint only exists once the local phase finished:
                // the tiny per-cluster R factors are persisted at fault
                // time, so the retry owes just the residual drain.
                let checkpoint = if job.in_phase2 && cfg.retry.checkpoint_drain {
                    Some(Checkpoint { residual_wan_s: job.wan_rem_s })
                } else {
                    None
                };
                for memb in job.members {
                    route_fault(
                        memb,
                        FaultKind::SiteCrashed { site },
                        checkpoint,
                        t,
                        &cfg.retry,
                        &oracle.solo_s,
                        &mut dispositions,
                        &mut faults,
                        &mut retry_wait,
                    );
                }
            }
            running = still;
        }
        // (b) local phases that finished enter the shared WAN drain.
        for job in &mut running {
            if !job.in_phase2 && job.phase1_end <= t {
                job.in_phase2 = true;
                busy_intervals.push((
                    LinkClass::IntraCluster.bucket(),
                    job.start.secs(),
                    job.phase1_end.secs(),
                ));
                shared.join(&job.links);
            }
        }
        // (c) drained jobs complete — unless a drop rule eats the
        // in-flight R messages, which faults the job instead.
        let mut still = Vec::with_capacity(running.len());
        for job in running.drain(..) {
            if !(job.in_phase2 && job.wan_rem_s <= DRAIN_EPS_S) {
                still.push(job);
                continue;
            }
            shared.leave(&job.links);
            job.alloc.release(&mut pool);
            let mut dropped_on: Option<(usize, usize)> = None;
            if drops_armed {
                for &l in &job.links {
                    let seq = drop_seq.entry(l).or_insert(0);
                    let n = *seq;
                    *seq += 1;
                    if dropped_on.is_none() && cfg.faults.should_drop(l.0, l.1, n) {
                        dropped_on = Some(l);
                    }
                }
            }
            if let Some(link) = dropped_on {
                // The drain itself must be resent; the local phase stays
                // checkpointed (when the policy keeps checkpoints).
                let checkpoint = if cfg.retry.checkpoint_drain {
                    Some(Checkpoint { residual_wan_s: job.wan_full_s })
                } else {
                    None
                };
                for memb in job.members {
                    route_fault(
                        memb,
                        FaultKind::DrainDropped { link },
                        checkpoint,
                        t,
                        &cfg.retry,
                        &oracle.solo_s,
                        &mut dispositions,
                        &mut faults,
                        &mut retry_wait,
                    );
                }
            } else {
                let k = job.members.len();
                for memb in &job.members {
                    dispositions[memb.id] = Some(Disposition::Completed {
                        start: job.start,
                        finish: t,
                        batch_size: k,
                        attempts: memb.attempts,
                    });
                }
            }
        }
        running = still;
        // (d) expired backoffs re-enter the admission queue (bypassing
        // the bound: re-admission is not new admission), in ready-time
        // order with id tiebreaks.
        if !retry_wait.is_empty() {
            let mut ready: Vec<QueuedJob> = Vec::new();
            let mut waiting = Vec::with_capacity(retry_wait.len());
            for (at, qj) in retry_wait.drain(..) {
                if at <= t {
                    ready.push(qj);
                } else {
                    waiting.push((at, qj));
                }
            }
            retry_wait = waiting;
            ready.sort_by(|a, b| {
                a.enqueued.secs().total_cmp(&b.enqueued.secs()).then(a.id.cmp(&b.id))
            });
            for qj in ready {
                queue.push_unbounded(qj);
            }
        }
        // (e) arrivals at t are admitted, shed (brownout), or rejected.
        while next_arr < requests.len() && requests[next_arr].arrival <= t {
            let r = &requests[next_arr];
            let pressure = retry_wait.len() + queue.retried();
            let active = brownout.on_pressure(pressure);
            if active && brownout_open.is_none() {
                brownout_open = Some(t);
            } else if !active {
                if let Some(s) = brownout_open.take() {
                    brownout_windows.push((s.secs(), t.secs()));
                }
            }
            let slack_s = (r.deadline - r.arrival).secs();
            if active && slack_s >= cfg.brownout.shed_slack * oracle.solo_s[r.shape] {
                dispositions[r.id] = Some(Disposition::Shed);
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
                    service_s: oracle.solo_s[r.shape],
                    attempts: 1,
                    checkpoint: None,
                    enqueued: r.arrival,
                };
                if queue.try_push(qj).is_err() {
                    dispositions[r.id] = Some(Disposition::RejectedQueueFull);
                }
            }
            next_arr += 1;
        }
    }
    if let Some(s) = brownout_open.take() {
        brownout_windows.push((s.secs(), t.secs()));
    }

    assert!(
        dispositions.iter().all(|d| d.is_some()),
        "serving loop wedged with unresolved requests — silent drops are forbidden"
    );
    assert!(pool.is_idle(), "slot leak: pool not fully recovered after drain");

    let records = requests
        .into_iter()
        .zip(dispositions)
        .map(|(request, d)| RequestRecord { request, disposition: d.expect("checked above") })
        .collect();
    ServeOutcome {
        config: cfg.clone(),
        records,
        horizon: t,
        dispatches,
        msgs,
        wan_msgs,
        bytes,
        flops,
        total_wait_s,
        wan_busy: wan_busy.into_iter().collect(),
        busy_intervals,
        faults,
        brownout_windows,
    }
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
