//! Self-healing TSQR: fault-tolerant execution of the QCG-TSQR reduction
//! under an injected [`tsqr_netsim::FailureSchedule`].
//!
//! The paper targets grids precisely because they are shared, loosely
//! coupled and failure-prone (§II-A: QCG-OMPI exists to survive them).
//! This module closes that loop: the same reduction tree as
//! [`crate::tsqr`], but every receive is prepared for its peer to be dead
//! or its message to be lost, and the run still produces the **bitwise
//! identical** R factor of the failure-free run.
//!
//! # Why bitwise recovery is possible
//!
//! Two properties conspire:
//!
//! 1. The test workload is a *pure function* of `(seed, row, col)`
//!    ([`crate::workload::entry`]), so any rank can rematerialize any dead
//!    rank's rows without communication.
//! 2. The reduction is a fixed schedule of deterministic kernels
//!    (`geqrf` at the leaves, `tpqrt` at the combines), so re-executing a
//!    lost subtree locally reproduces, bit for bit, the packed R factor
//!    the dead subtree would have delivered.
//!
//! # The protocol
//!
//! Participants are the domain roots (single-process domains required).
//! Each walks the [`crate::tree::ReductionTree`] as usual (its children
//! ascending, then its parent); recovery paths trigger on typed
//! [`CommError`]s:
//!
//! * **Dead child** (`RankFailed` / `PeerGone` while expecting a child's
//!   R): the parent *rebuilds* the child's entire subtree locally —
//!   leaf factorizations plus combines, charged at the usual rates —
//!   and carries on. Counted in [`FtTsqrOutput::rebuilt_subtrees`].
//! * **Lost message** (`MessageDropped`, i.e. the sender's bounded
//!   retransmission budget ran out and a *ghost* arrived): the child is
//!   alive and caches the R it sent, so the parent *salvages* it with a
//!   [`FtMsg::SalvageReq`] round trip instead of recomputing. Counted in
//!   [`FtTsqrOutput::salvaged_children`]; if the salvage round trip is
//!   itself lost, the parent falls back to rebuilding.
//! * **Dead parent**: after its upward send, every non-root stands by,
//!   watching its parent. A parent tombstone re-homes the orphan: it
//!   walks candidates `0, 1, 2, …` (skipping ranks it knows dead) and
//!   blocks on the first live one. Because every participant's parent
//!   has a *lower* index, the lowest-indexed live participant always
//!   ends up walking to **itself** and becomes the *agent*: it rebuilds
//!   the full reduction locally, holds the recovered R, and broadcasts
//!   [`FtMsg::Done`] to everyone.
//!
//! Termination: whoever ends up holding R (the root, or the agent)
//! broadcasts `Done` to all participants, and every participant relays
//! `Done` to its children as it leaves, so orphans deep in live subtrees
//! wake up too. The broadcast runs in **descending** participant order;
//! this is load-bearing: a broadcaster may itself crash mid-broadcast,
//! and descending order guarantees the participants it managed to
//! release form a high-index suffix. Since a re-homing orphan only ever
//! blocks on candidates *below* itself, it can never end up waiting on a
//! peer that already returned (returned peers neither answer nor leave
//! tombstones); the next agent election always proceeds. Control
//! messages ride the same failure-prone links as data: a dropped `Done`
//! ghost is *treated as* `Done` (the ghost arrives at the deterministic
//! would-be arrival time), which keeps the shutdown live under transient
//! loss.
//!
//! All recovery decisions key off virtual-time-deterministic signals
//! (tombstones, ghosts, the schedule itself) — never the wall clock — so
//! a replay with the same `(matrix, schedule, seed)` reproduces the same
//! clocks, the same fault events, and the same R, which
//! `proptest_ft_replay` checks byte for byte.

use tsqr_gridmpi::message::WirePayload;
use tsqr_gridmpi::{CommError, Process};
use tsqr_linalg::flops;
use tsqr_linalg::prelude::*;
use tsqr_linalg::Matrix;

use crate::domains::DomainLayout;
use crate::tree::ReductionTree;
use crate::tsqr::{pack_upper, unpack_upper, TsqrConfig, PHASE_LEAF, PHASE_REDUCE};
use crate::workload;

/// Tag for R factors travelling up the tree (same wire protocol as the
/// non-fault-tolerant program).
const TAG_R: u32 = 1001;
/// Tag for fault-tolerance control traffic ([`FtMsg`]).
const TAG_FT: u32 = 1003;

/// Metrics/trace phase: recovery work — rebuilding lost subtrees and
/// salvaging cached R factors.
pub const PHASE_RECOVER: &str = "ft-recover";
/// Metrics/trace phase: standing by after the upward send — serving
/// salvage requests, watching the parent, waiting for `Done`.
pub const PHASE_STANDBY: &str = "ft-standby";

/// Program-level retry budget for control messages (each attempt is
/// itself retransmitted up to `MAX_SEND_ATTEMPTS` times by the runtime).
const CTRL_ATTEMPTS: u32 = 3;

/// Fault-tolerance control messages (tag `TAG_FT`).
#[derive(Debug, Clone, PartialEq)]
pub enum FtMsg {
    /// Parent → child: "your R factor never arrived; resend your cached
    /// copy".
    SalvageReq,
    /// Child → parent: the cached packed R factor, verbatim.
    R(Vec<f64>),
    /// Completion: the final R is held somewhere; stop standing by.
    Done,
}

impl WirePayload for FtMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            // One discriminant byte; R adds its payload.
            FtMsg::SalvageReq | FtMsg::Done => 1,
            FtMsg::R(v) => 1 + 8 * v.len() as u64,
        }
    }
}

/// What one rank gets back from a fault-tolerant TSQR run.
#[derive(Debug, Clone)]
pub struct FtTsqrOutput {
    /// The global `n × n` R factor — `Some` on exactly one survivor: the
    /// root when it lives, else the recovery agent.
    pub r: Option<Matrix>,
    /// Participant indices whose subtrees this rank rebuilt locally
    /// (dead children; `0` means the agent rebuilt the whole reduction).
    pub rebuilt_subtrees: Vec<usize>,
    /// Children whose cached R was salvaged over the network after the
    /// original message was lost.
    pub salvaged_children: Vec<usize>,
    /// First global row this rank held.
    pub row0: u64,
    /// Number of rows this rank held.
    pub rows: u64,
}

/// Shared read-only context threaded through the recovery helpers.
struct Ctx<'a> {
    layout: &'a DomainLayout,
    tree: &'a ReductionTree,
    cfg: &'a TsqrConfig,
    seed: u64,
    rate_flops: Option<f64>,
    roots: Vec<usize>,
}

/// Rebuilds participant `x`'s subtree R locally: rematerialize each leaf
/// block from the seeded workload, factor it, and replay the combines in
/// schedule order. Flops are charged at the usual rates, so recovery
/// time shows up honestly in the virtual clock. The result is bitwise
/// identical to the packed R the live subtree would have delivered
/// (packing preserves the upper triangle exactly).
fn local_subtree_r(p: &mut Process, ctx: &Ctx<'_>, x: usize) -> Matrix {
    let n = ctx.layout.n;
    let dom = &ctx.layout.domains[x];
    let local = workload::block(ctx.seed, dom.row0, dom.rows as usize, n);
    let f = QrFactors::compute(&local, ctx.cfg.nb);
    p.compute(flops::geqrf(dom.rows, n as u64), ctx.rate_flops);
    let mut r1 = f.r().upper_triangular_padded();
    for &y in ctx.tree.children(x) {
        let mut r2 = local_subtree_r(p, ctx, y);
        let _ = tpqrt(&mut r1, &mut r2);
        p.compute(flops::tpqrt(n as u64), ctx.cfg.combine_rate_flops.or(ctx.rate_flops));
    }
    r1.upper_triangular_padded()
}

/// True when `e` is this rank's *own* death (which must always
/// propagate, never be absorbed by a recovery path).
fn own_death(p: &Process, e: &CommError) -> bool {
    matches!(e, CommError::RankFailed { rank, .. } if *rank == p.rank())
}

/// Best-effort control send with a bounded program-level retry budget.
/// Peer death, downed links and exhausted retries are all absorbed — the
/// receiving side's protocol treats a ghost `Done` as `Done`, and a dead
/// peer needs no notification. Only this rank's own death propagates.
fn send_ctrl(p: &mut Process, dst: usize, msg: &FtMsg) -> Result<(), CommError> {
    for _ in 0..CTRL_ATTEMPTS {
        match p.send(dst, TAG_FT, msg.clone()) {
            Ok(()) => return Ok(()),
            Err(CommError::MessageDropped { .. }) => continue,
            Err(e) if own_death(p, &e) => return Err(e),
            Err(_) => return Ok(()),
        }
    }
    Ok(())
}

/// Broadcasts [`FtMsg::Done`] to every other participant, in
/// **descending** participant order. The order is load-bearing (module
/// docs): if the broadcaster crashes mid-broadcast, the participants it
/// already released form a high-index suffix, and a re-homing orphan —
/// which only ever blocks on candidates *below* itself — can never wait
/// on a peer that already returned. Dead peers and lost sends are
/// absorbed by [`send_ctrl`].
fn broadcast_done(p: &mut Process, ctx: &Ctx<'_>, me: usize) -> Result<(), CommError> {
    for q in (0..ctx.layout.num_domains()).rev() {
        if q != me {
            send_ctrl(p, ctx.roots[q], &FtMsg::Done)?;
        }
    }
    Ok(())
}

/// Recovers child `c`'s subtree R after its upward send arrived as a
/// ghost: the child is alive and caches what it sent, so ask it to
/// resend. Returns `(R, true)` on a successful salvage, `(R, false)`
/// when any leg of the round trip failed and the subtree was rebuilt
/// locally instead.
fn salvage_child(p: &mut Process, ctx: &Ctx<'_>, c: usize) -> Result<(Matrix, bool), CommError> {
    let peer = ctx.roots[c];
    let asked = match p.send(peer, TAG_FT, FtMsg::SalvageReq) {
        // `PeerGone` here is the wall-clock twin of `Ok` (the clock
        // advance is identical); the follow-up receive resolves the
        // child's true fate deterministically from its tombstone.
        Ok(()) | Err(CommError::PeerGone { .. }) => true,
        Err(e) if own_death(p, &e) => return Err(e),
        Err(_) => false, // request lost or link down: rebuild
    };
    if asked {
        match p.recv::<FtMsg>(peer, TAG_FT) {
            Ok(FtMsg::R(packed)) => return Ok((unpack_upper(ctx.layout.n, &packed), true)),
            Ok(_) => {} // protocol anomaly: rebuild rather than trust it
            Err(e) if own_death(p, &e) => return Err(e),
            Err(
                CommError::RankFailed { .. }
                | CommError::PeerGone { .. }
                | CommError::MessageDropped { .. },
            ) => {} // child died, or the reply was lost too: rebuild
            Err(e) => return Err(e),
        }
    }
    Ok((local_subtree_r(p, ctx, c), false))
}

/// The rank program of a **self-healing** QCG-TSQR run on the seeded
/// random workload.
///
/// Same schedule and wire protocol as [`crate::tsqr::tsqr_rank_program`]
/// while nothing fails; under a failure schedule it survives any number
/// of rank crashes and transient message losses, and some survivor
/// returns the R factor of the failure-free run, bit for bit (see the
/// module docs for the recovery protocol). Requires single-process
/// domains (`domains_per_cluster` = procs per cluster) so every
/// participant can be rebuilt from the pure workload function; the
/// explicit Q is not supported.
///
/// The completion broadcast costs `D − 1` extra control messages per run
/// whenever a failure schedule is active; with an empty schedule the
/// program is communication-identical to the plain one.
pub fn ft_tsqr_rank_program(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    seed: u64,
    rate_flops: Option<f64>,
) -> Result<FtTsqrOutput, CommError> {
    let n = layout.n;
    let d = layout
        .domain_of_rank(p.rank())
        .unwrap_or_else(|| panic!("rank {} is in no domain", p.rank()));
    let dom = &layout.domains[d];
    assert_eq!(
        dom.ranks.len(),
        1,
        "self-healing TSQR needs single-process domains (domains_per_cluster = procs per cluster)"
    );
    assert!(!cfg.compute_q, "self-healing TSQR does not reconstruct the explicit Q");
    // The agent-election walk (find_agent) assumes every parent has a
    // lower index than its children, so the lowest-indexed live
    // participant is always an ancestor-or-self of the crash site. All
    // built-in and generated shapes satisfy this; a hand-written
    // Custom tree might not.
    assert!(
        tree.is_heap_ordered(),
        "self-healing TSQR requires a heap-ordered tree (every parent index < child index)"
    );
    let (row0, rows) = (dom.row0, dom.rows);
    let ctx = Ctx { layout, tree, cfg, seed, rate_flops, roots: layout.roots() };
    // Empty schedule ⇒ nothing can fail ⇒ skip the completion protocol
    // entirely (keeps the failure-free run communication-identical to
    // the plain program). The flag is schedule-derived, hence identical
    // on every rank.
    let ft_active = !p.failure_schedule().is_empty();

    let mut out = FtTsqrOutput {
        r: None,
        rebuilt_subtrees: Vec::new(),
        salvaged_children: Vec::new(),
        row0,
        rows,
    };

    // --- Leaf factorization. ---
    p.phase_begin(PHASE_LEAF);
    let local = workload::block(seed, row0, rows as usize, n);
    let f = QrFactors::compute(&local, cfg.nb);
    p.compute(flops::geqrf(rows, n as u64), rate_flops);
    let mut r1 = f.r().upper_triangular_padded();
    p.phase_end();

    // --- Reduction, with per-child recovery. ---
    p.phase_begin(PHASE_REDUCE);
    for &c in tree.children(d) {
        let mut r2 = match p.recv::<Vec<f64>>(ctx.roots[c], TAG_R) {
            Ok(packed) => unpack_upper(n, &packed),
            Err(e) if own_death(p, &e) => return Err(e),
            Err(CommError::RankFailed { .. } | CommError::PeerGone { .. }) => {
                // Dead child: rebuild its whole subtree locally.
                p.phase_begin(PHASE_RECOVER);
                let r = local_subtree_r(p, &ctx, c);
                p.phase_end();
                out.rebuilt_subtrees.push(c);
                r
            }
            Err(CommError::MessageDropped { .. }) => {
                // Ghost: the child lives and caches its R.
                p.phase_begin(PHASE_RECOVER);
                let (r, salvaged) = salvage_child(p, &ctx, c)?;
                p.phase_end();
                if salvaged {
                    out.salvaged_children.push(c);
                } else {
                    out.rebuilt_subtrees.push(c);
                }
                r
            }
            Err(e) => return Err(e),
        };
        let _ = tpqrt(&mut r1, &mut r2);
        p.compute(flops::tpqrt(n as u64), cfg.combine_rate_flops.or(rate_flops));
    }

    // --- Root: hold R, announce completion. ---
    let Some(parent_d) = tree.parent(d) else {
        p.phase_end();
        let r = r1.upper_triangular_padded();
        if ft_active {
            p.phase_begin(PHASE_STANDBY);
            broadcast_done(p, &ctx, d)?;
            p.phase_end();
        }
        out.r = Some(r);
        return Ok(out);
    };

    // Cache the exact bytes we send so a salvage request can be answered
    // verbatim later.
    let sent_r = pack_upper(&r1);
    let r_send_ghosted = match p.send(ctx.roots[parent_d], TAG_R, sent_r.clone()) {
        Err(e) if own_death(p, &e) => return Err(e),
        Err(CommError::MessageDropped { .. }) => true,
        // Delivered, or the parent is gone (standby re-homes us) — either
        // way, proceed to standby.
        _ => false,
    };
    p.phase_end();
    if !ft_active {
        return Ok(out);
    }

    // --- Standby, phase A: watch the parent. ---
    p.phase_begin(PHASE_STANDBY);
    // Ghost disambiguation: the parent sends us a `SalvageReq` only if
    // our R send ghosted, and only one. So the *first* ghost after a
    // ghosted R send may be that lost request (the parent falls back to
    // rebuilding and stays alive, so we keep waiting); every other ghost
    // can only be a lost `Done`.
    let mut salvage_possible = r_send_ghosted;
    let orphaned = loop {
        match p.recv::<FtMsg>(ctx.roots[parent_d], TAG_FT) {
            Ok(FtMsg::SalvageReq) => {
                salvage_possible = false;
                // Resend the cached R verbatim. A lost reply is the
                // parent's problem (it rebuilds); only our own death
                // propagates.
                match p.send(ctx.roots[parent_d], TAG_FT, FtMsg::R(sent_r.clone())) {
                    Err(e) if own_death(p, &e) => return Err(e),
                    _ => {}
                }
            }
            Ok(FtMsg::Done) => break false,
            Ok(FtMsg::R(_)) => {} // stray; ignore
            Err(CommError::MessageDropped { .. }) => {
                if salvage_possible {
                    // The ghosted `SalvageReq`; the parent rebuilds.
                    salvage_possible = false;
                } else {
                    break false; // a lost `Done` still means done
                }
            }
            Err(e) if own_death(p, &e) => return Err(e),
            Err(CommError::RankFailed { .. } | CommError::PeerGone { .. }) => break true,
            Err(e) => return Err(e),
        }
    };

    // --- Standby, phase B: the parent died — re-home. ---
    //
    // Walk candidates 0, 1, 2, … skipping known-dead ranks. Parents
    // always have lower participant indices than their children, so the
    // lowest-indexed live participant can only walk to *itself*: it
    // becomes the agent, rebuilds the whole reduction locally, and
    // broadcasts `Done`. Everyone else blocks on the first live
    // candidate, which is exactly that agent (all lower candidates being
    // dead), or the still-live root.
    if orphaned {
        let mut cand = 0usize;
        loop {
            if cand == d {
                p.phase_begin(PHASE_RECOVER);
                let r = local_subtree_r(p, &ctx, 0);
                p.phase_end();
                out.rebuilt_subtrees.push(0);
                broadcast_done(p, &ctx, d)?;
                out.r = Some(r);
                break;
            }
            match p.recv::<FtMsg>(ctx.roots[cand], TAG_FT) {
                // A ghost from a live candidate can only be a lost
                // `Done` whose retries ran out: treat it as `Done`.
                Ok(FtMsg::Done) | Err(CommError::MessageDropped { .. }) => break,
                Ok(FtMsg::SalvageReq) => {
                    // Defensive: answer with our cached R.
                    match p.send(ctx.roots[cand], TAG_FT, FtMsg::R(sent_r.clone())) {
                        Err(e) if own_death(p, &e) => return Err(e),
                        _ => {}
                    }
                }
                Ok(FtMsg::R(_)) => {} // stray; ignore
                Err(e) if own_death(p, &e) => return Err(e),
                Err(CommError::RankFailed { .. } | CommError::PeerGone { .. }) => cand += 1,
                Err(e) => return Err(e),
            }
        }
    }

    // Relay `Done` to our children so orphans deep in live subtrees wake
    // up (the agent already broadcast to everyone).
    if out.r.is_none() {
        for &c in tree.children(d) {
            send_ctrl(p, ctx.roots[c], &FtMsg::Done)?;
        }
    }
    p.phase_end();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeShape;
    use crate::tsqr::tsqr_rank_program;
    use tsqr_gridmpi::Runtime;
    use tsqr_linalg::verify::{r_distance, relative_residual};
    use tsqr_netsim::{
        ClusterSpec, CostModel, FailureSchedule, GridTopology, LinkParams, VirtualTime,
    };

    /// Shorthand: seconds → [`VirtualTime`].
    fn vt(secs: f64) -> VirtualTime {
        VirtualTime::from_secs(secs)
    }

    /// The 4-site grid of the fault experiments: 4 clusters × 4
    /// single-socket nodes, LAN links inside, WAN links between.
    fn grid4() -> Runtime {
        let specs = (0..4)
            .map(|i| ClusterSpec {
                name: format!("site{i}"),
                nodes: 4,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            })
            .collect();
        let topo = GridTopology::block_placement(specs, 4, 1);
        let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1e9, 4);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    model.inter_cluster[a][b] = LinkParams::from_ms_mbps(8.0, 80.0);
                }
            }
        }
        let mut rt = Runtime::new(topo, model);
        // Fail fast: a protocol bug that deadlocks a rank should trip
        // the wall-clock safety net in seconds, not minutes.
        rt.set_recv_timeout(std::time::Duration::from_secs(5));
        rt
    }

    const M: u64 = 256;
    const N: usize = 8;
    const SEED: u64 = 71;

    fn cfg() -> TsqrConfig {
        TsqrConfig {
            shape: TreeShape::GridHierarchical,
            domains_per_cluster: 4,
            ..Default::default()
        }
    }

    /// Runs the self-healing program under `schedule`; returns the
    /// unique surviving R plus all per-rank outputs.
    fn run_ft(schedule: FailureSchedule) -> (Matrix, Vec<Option<FtTsqrOutput>>) {
        let mut rt = grid4();
        rt.set_failure_schedule(schedule);
        let layout = DomainLayout::build(rt.topology(), M, N, 4);
        let tree = ReductionTree::build(&TreeShape::GridHierarchical, 16, &layout.clusters());
        let c = cfg();
        let report = rt.run(|p, _| ft_tsqr_rank_program(p, &layout, &tree, &c, SEED, None));
        let outcome = report.outcome();
        let mut holders: Vec<Matrix> = Vec::new();
        let mut outs: Vec<Option<FtTsqrOutput>> = vec![None; 16];
        for (rank, o) in &outcome.survivors {
            if let Some(r) = &o.r {
                holders.push(r.clone());
            }
            outs[*rank] = Some(o.clone());
        }
        assert_eq!(holders.len(), 1, "exactly one survivor must hold R");
        (holders.pop().unwrap(), outs)
    }

    /// The failure-free R of the *plain* program — the recovery target.
    fn failure_free_r() -> Matrix {
        let rt = grid4();
        let layout = DomainLayout::build(rt.topology(), M, N, 4);
        let tree = ReductionTree::build(&TreeShape::GridHierarchical, 16, &layout.clusters());
        let c = cfg();
        let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &c, SEED, None));
        report.ranks[0].result.clone().unwrap().r.unwrap()
    }

    #[test]
    fn failure_free_ft_run_matches_plain_tsqr_exactly() {
        let (r, outs) = run_ft(FailureSchedule::default());
        assert!(r.approx_eq(&failure_free_r(), 0.0), "bitwise-equal R");
        for o in outs.iter().flatten() {
            assert!(o.rebuilt_subtrees.is_empty() && o.salvaged_children.is_empty());
        }
    }

    #[test]
    fn any_single_crash_at_any_tree_level_recovers_bitwise() {
        let reference = failure_free_r();
        // One representative of every tree level on the 4-site grid
        // (participant == rank): a leaf (15), an intra-cluster combiner
        // (2), a cluster root (4), the mid WAN combiner (8), and the
        // global root (0) — each at an early, a mid-reduce, and a
        // WAN-phase crash time.
        for rank in [15usize, 2, 4, 8, 0] {
            for at_ms in [0.02f64, 2.0, 12.0] {
                let schedule =
                    FailureSchedule::new(1).crash_rank(rank, vt(at_ms * 1e-3));
                let (r, outs) = run_ft(schedule);
                assert!(
                    r.approx_eq(&reference, 0.0),
                    "crash of rank {rank} at {at_ms}ms must not change R"
                );
                assert!(
                    outs[rank].is_none(),
                    "the crashed rank must not appear among survivors"
                );
                // Someone did recovery work (unless the victim had
                // already finished its part — possible for late leaves).
                let recoveries: usize = outs
                    .iter()
                    .flatten()
                    .map(|o| o.rebuilt_subtrees.len() + o.salvaged_children.len())
                    .sum();
                assert!(
                    recoveries > 0 || rank != 0,
                    "a root crash always forces an agent rebuild"
                );
            }
        }
    }

    #[test]
    fn root_crash_elects_the_lowest_live_agent() {
        let schedule = FailureSchedule::new(1).crash_rank(0, vt(1e-3));
        let (r, outs) = run_ft(schedule);
        assert!(r.approx_eq(&failure_free_r(), 0.0));
        let agent = outs
            .iter()
            .flatten()
            .find(|o| o.r.is_some())
            .expect("one survivor holds R");
        assert_eq!(agent.rebuilt_subtrees, vec![0], "the agent rebuilds the full tree");
        // Rank 1 is the lowest live participant, hence the agent.
        assert!(outs[1].as_ref().unwrap().r.is_some());
    }

    #[test]
    fn cascading_crashes_still_recover() {
        // Root and its successor both die: rank 2 must self-elect.
        let schedule = FailureSchedule::new(1)
            .crash_rank(0, vt(1e-3))
            .crash_rank(1, vt(2e-3));
        let (r, outs) = run_ft(schedule);
        assert!(r.approx_eq(&failure_free_r(), 0.0));
        assert!(outs[2].as_ref().unwrap().r.is_some(), "rank 2 becomes the agent");
    }

    #[test]
    fn ghosted_r_factor_is_salvaged_not_rebuilt() {
        // Drop every transmission attempt of rank 3's R to its parent 2:
        // the message ghosts, and 2 salvages 3's cached copy.
        let mut schedule = FailureSchedule::new(1);
        for nth in 0..4 {
            schedule = schedule.drop_nth_message(3, 2, nth);
        }
        let (r, outs) = run_ft(schedule);
        assert!(r.approx_eq(&failure_free_r(), 0.0));
        let parent = outs[2].as_ref().unwrap();
        assert_eq!(parent.salvaged_children, vec![3]);
        assert!(parent.rebuilt_subtrees.is_empty());
    }

    #[test]
    fn lost_salvage_reply_falls_back_to_rebuilding() {
        // Lose the R send *and* the salvage reply (8 straight drops on
        // 3 → 2): the parent rebuilds the subtree locally instead.
        let mut schedule = FailureSchedule::new(1);
        for nth in 0..8 {
            schedule = schedule.drop_nth_message(3, 2, nth);
        }
        let (r, outs) = run_ft(schedule);
        assert!(r.approx_eq(&failure_free_r(), 0.0));
        let parent = outs[2].as_ref().unwrap();
        assert_eq!(parent.rebuilt_subtrees, vec![3]);
        assert!(parent.salvaged_children.is_empty());
    }

    #[test]
    fn recovered_r_reconstructs_the_matrix_with_the_failure_free_q() {
        // Q from a failure-free explicit-Q run + R recovered under a
        // crash: A = Q·R still holds to machine precision, because the
        // recovered R *is* the failure-free R.
        let rt = grid4();
        let layout = DomainLayout::build(rt.topology(), M, N, 4);
        let tree = ReductionTree::build(&TreeShape::GridHierarchical, 16, &layout.clusters());
        let qcfg = TsqrConfig { compute_q: true, ..cfg() };
        let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &qcfg, SEED, None));
        let mut blocks: Vec<(u64, Matrix)> = report
            .ranks
            .iter()
            .map(|r| {
                let o = r.result.clone().unwrap();
                (o.row0, o.q_block.unwrap())
            })
            .collect();
        blocks.sort_by_key(|(row0, _)| *row0);
        let refs: Vec<&Matrix> = blocks.iter().map(|(_, b)| b).collect();
        let q = Matrix::vstack_all(&refs);

        let schedule = FailureSchedule::new(1).crash_rank(8, vt(2e-3));
        let (r, _) = run_ft(schedule);
        let a = workload::full_matrix(SEED, M as usize, N);
        assert!(relative_residual(&a, &q, &r) < 1e-12);
        assert!(r_distance(&r, &q.transpose().matmul(&a)) < 1e-10);
    }

    #[test]
    fn baseline_tsqr_reports_typed_failure_instead_of_panicking() {
        // The same crash that ft_tsqr heals makes the plain program
        // fail — but with a structured outcome, not a panic.
        let mut rt = grid4();
        rt.set_failure_schedule(FailureSchedule::new(1).crash_rank(8, vt(2e-3)));
        let layout = DomainLayout::build(rt.topology(), M, N, 4);
        let tree = ReductionTree::build(&TreeShape::GridHierarchical, 16, &layout.clusters());
        let c = cfg();
        let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &c, SEED, None));
        let outcome = report.outcome();
        assert!(!outcome.is_clean());
        assert!(outcome.failed_ranks().contains(&8));
        assert!(
            outcome.failures.iter().any(|(_, e)| matches!(
                e,
                CommError::RankFailed { rank: 8, .. }
            )),
            "peers must observe the typed crash, got {:?}",
            outcome.failures
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let schedule = || {
            FailureSchedule::new(9)
                .crash_rank(8, vt(2e-3))
                .drop_probability(3, 2, 0.5)
        };
        let (r1, _) = run_ft(schedule());
        let (r2, _) = run_ft(schedule());
        assert!(r1.approx_eq(&r2, 0.0), "replayed R must be bit-identical");
    }

    #[test]
    fn wan_degradation_slows_the_run_but_not_the_answer() {
        let run = |schedule: FailureSchedule| {
            let mut rt = grid4();
            rt.set_failure_schedule(schedule);
            let layout = DomainLayout::build(rt.topology(), M, N, 4);
            let tree =
                ReductionTree::build(&TreeShape::GridHierarchical, 16, &layout.clusters());
            let c = cfg();
            let report =
                rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &c, SEED, None));
            let r = report.ranks[0].result.clone().unwrap().r.unwrap();
            (r, report.makespan)
        };
        let (r_clean, t_clean) = run(FailureSchedule::default());
        // 10× latency, 10× less bandwidth across every WAN link for the
        // whole run.
        let (r_slow, t_slow) = run(FailureSchedule::new(0).degrade_all_wan(
            vt(0.0),
            vt(1.0),
            10.0,
            10.0,
        ));
        assert!(r_slow.approx_eq(&r_clean, 0.0), "degradation must not change R");
        assert!(
            t_slow.secs() > 1.5 * t_clean.secs(),
            "degraded WAN must slow the reduction: {} vs {}",
            t_slow.secs(),
            t_clean.secs()
        );
    }
}
