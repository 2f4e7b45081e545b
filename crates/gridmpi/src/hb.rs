//! Happens-before analysis: vector clocks, receive races, deadlock
//! cycles and virtual-clock monotonicity — `commcheck`'s dynamic half.
//!
//! The paper's claims (Properties 1–5, Figs. 4–8) assume every rank
//! program is a *deterministic* function of the Eq. (1) cost model: the
//! same (program, topology, schedule) must reproduce the same R factor,
//! makespan and metrics bit-for-bit. That only holds when no observable
//! value depends on message *delivery order* — i.e. when the trace's
//! happens-before (HB) partial order uniquely determines every match
//! between a send and the receive that opened it.
//!
//! This module checks that, post hoc, from a [`Trace`]:
//!
//! * **Receive races** — a wildcard receive ([`crate::Process::recv_any_async`])
//!   whose matched sender is not uniquely determined by the HB order:
//!   some *rival* send to the same rank with the same tag was concurrent
//!   with the receive, so a different delivery order could have matched
//!   it instead. Named receives cannot race by construction (they name
//!   their source and channels are FIFO per source), so only wildcard
//!   receives are candidates.
//! * **Deadlock cycles** — cycles in the wait-for graph built from
//!   [`FaultKind::DeadlockSuspect`] markers (a stall verdict ending a
//!   receive), plus structural cycles in the HB DAG itself
//!   (impossible in a trace of a completed run, but checkable for
//!   synthetic or corrupted traces).
//! * **Orphans** — sends never opened by a receive, and receives with no
//!   matching send.
//! * **Monotonicity violations** — virtual-clock regressions along HB
//!   edges: an event ending before it starts, a matched receive ending
//!   before its send, or a rank's later event ending before an earlier
//!   event started. All comparisons are exact (no epsilon): the runtime
//!   computes `max(clock, arrival)`, so equality is the boundary case
//!   and anything below it is a bug.
//!
//! The analysis is documented in `docs/static-analysis.md` and surfaced
//! by `grid-tsqr check`; the schedule explorer ([`mod@crate::explore`])
//! re-runs programs under permuted delivery orders and uses this report
//! to *prove* schedule independence for small configurations.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use crate::trace::{EventKind, FaultKind, Trace};

/// A Mattern/Fidge vector clock: one logical counter per rank.
///
/// The component-wise partial order is exactly happens-before:
/// `a < b` iff the event stamped `a` causally precedes the event stamped
/// `b`; incomparable clocks mean concurrent events.
#[derive(Debug, Clone, Default)]
pub struct VectorClock(Vec<u64>);

impl PartialEq for VectorClock {
    /// Width-insensitive equality (missing components read as 0), so
    /// `eq` is exactly `partial_cmp == Some(Equal)`.
    fn eq(&self, other: &VectorClock) -> bool {
        let n = self.0.len().max(other.0.len());
        (0..n).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for VectorClock {}

impl VectorClock {
    /// The zero clock over `n` ranks.
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// The counter of `rank` (0 beyond the clock's width).
    pub fn get(&self, rank: usize) -> u64 {
        self.0.get(rank).copied().unwrap_or(0)
    }

    /// Advances this rank's own counter by one (called once per local
    /// event).
    pub fn tick(&mut self, rank: usize) {
        if rank >= self.0.len() {
            self.0.resize(rank + 1, 0);
        }
        self.0[rank] += 1;
    }

    /// Component-wise maximum with `other` (called on message receipt,
    /// *before* the receive's own tick).
    pub fn merge(&mut self, other: &VectorClock) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.0[i] {
                self.0[i] = v;
            }
        }
    }

    /// True when the event stamped `self` happens-before the event
    /// stamped `other` (strictly: `self ≤ other` component-wise and
    /// `self ≠ other`).
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.partial_cmp(other) == Some(Ordering::Less)
    }

    /// True when neither clock happens-before the other: the two events
    /// are concurrent.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self != other && self.partial_cmp(other).is_none()
    }
}

impl From<Vec<u64>> for VectorClock {
    /// Wraps raw counters.
    fn from(v: Vec<u64>) -> Self {
        VectorClock(v)
    }
}

impl PartialOrd for VectorClock {
    /// Component-wise order: `Less`/`Greater` when one clock dominates,
    /// `Equal` when identical, `None` when concurrent.
    fn partial_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        let n = self.0.len().max(other.0.len());
        let (mut le, mut ge) = (true, true);
        for i in 0..n {
            let (a, b) = (self.get(i), other.get(i));
            if a < b {
                ge = false;
            }
            if a > b {
                le = false;
            }
        }
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

/// A wildcard receive whose matched sender is not forced by the HB order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiveRace {
    /// Index (into [`Trace::events`]) of the racing wildcard receive.
    pub recv_event: usize,
    /// The receiving rank.
    pub rank: usize,
    /// The protocol tag both candidates carried.
    pub tag: u32,
    /// The sender the receive actually matched in this run.
    pub matched_src: usize,
    /// A rival sender whose message could equally have matched.
    pub rival_src: usize,
    /// Index of the rival send event.
    pub rival_event: usize,
}

/// A virtual-clock regression along a happens-before edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An event whose span ends before it starts.
    NegativeSpan {
        /// Index of the offending event.
        event: usize,
    },
    /// A matched receive that completed before its send did — the
    /// receiver observed the message before it finished existing.
    RecvBeforeSend {
        /// Index of the send event.
        send: usize,
        /// Index of the receive event.
        recv: usize,
    },
    /// A rank whose later event (program order) ended before an earlier
    /// event started — the per-rank clock ran backwards further than the
    /// documented `exchange` overlap permits.
    RankRegression {
        /// The rank whose clock regressed.
        rank: usize,
        /// Index of the earlier event.
        earlier: usize,
        /// Index of the later (regressing) event.
        later: usize,
    },
}

/// The result of [`Trace::hb_analysis`].
#[derive(Debug, Clone, Default)]
pub struct HbReport {
    /// Number of ranks the trace spans.
    pub num_ranks: usize,
    /// Non-phase events analyzed (HB DAG nodes).
    pub num_events: usize,
    /// HB edges (per-rank program order + matched messages).
    pub num_edges: usize,
    /// Matched send/receive pairs.
    pub matched: usize,
    /// Wildcard receives seen (race *candidates*; 0 for every shipped
    /// rank program — `recv_any` is a test-only construct).
    pub wildcard_recvs: usize,
    /// Receive races found (each names the rival sender).
    pub races: Vec<ReceiveRace>,
    /// Wait-for cycles among deadlock-suspect markers, each a rank list
    /// `[a, b, …]` meaning `a` waited on `b` waited on … waited on `a`.
    pub deadlock_cycles: Vec<Vec<usize>>,
    /// Structural cycles in the HB DAG itself (ranks involved). Always
    /// empty for traces of completed runs.
    pub hb_cycles: Vec<Vec<usize>>,
    /// Virtual-clock monotonicity violations.
    pub violations: Vec<Violation>,
    /// Sends never opened by a receive (informational: failure schedules
    /// legitimately orphan sends to crashed ranks).
    pub orphan_sends: usize,
    /// Receives with no matching send (impossible in a real trace).
    pub orphan_recvs: usize,
    /// `(waiter, awaited)` pairs of the wait-for graph: deadlock-suspect
    /// markers plus aborts observed mid-receive.
    pub suspects: Vec<(usize, usize)>,
}

impl HbReport {
    /// True when the trace shows no races, no cycles of either kind, no
    /// orphan receives and no monotonicity violations — the property all
    /// figure and fault scenarios must satisfy.
    pub fn ok(&self) -> bool {
        self.races.is_empty()
            && self.deadlock_cycles.is_empty()
            && self.hb_cycles.is_empty()
            && self.violations.is_empty()
            && self.orphan_recvs == 0
    }

    /// Total cycle count (wait-for + structural).
    fn num_cycles(&self) -> usize {
        self.deadlock_cycles.len() + self.hb_cycles.len()
    }

    /// One stable machine-checkable line, used for the
    /// `COMMCHECK_baseline.txt` golden file:
    /// `races=0 cycles=0 violations=0 wildcards=0 events=N edges=M matched=K orphan_sends=J`.
    ///
    /// Only *structural* quantities appear (counts, never virtual times),
    /// so the line is identical across machines and numeric backends.
    pub fn summary_line(&self) -> String {
        format!(
            "races={} cycles={} violations={} wildcards={} events={} edges={} matched={} orphan_sends={}",
            self.races.len(),
            self.num_cycles(),
            self.violations.len(),
            self.wildcard_recvs,
            self.num_events,
            self.num_edges,
            self.matched,
            self.orphan_sends,
        )
    }

    /// Renders a cycle as `a → b → … → a`.
    fn cycle_string(cycle: &[usize]) -> String {
        let mut s = String::new();
        for r in cycle {
            let _ = write!(s, "{r} → ");
        }
        let _ = write!(s, "{}", cycle.first().map_or(0, |r| *r));
        s
    }

    /// Human-readable multi-line report (what `grid-tsqr check` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "happens-before: {} ranks, {} events, {} edges, {} matched messages",
            self.num_ranks, self.num_events, self.num_edges, self.matched
        );
        let _ = writeln!(
            out,
            "  wildcard receives: {}   orphan sends: {}   orphan recvs: {}",
            self.wildcard_recvs, self.orphan_sends, self.orphan_recvs
        );
        for r in &self.races {
            let _ = writeln!(
                out,
                "  RACE: rank {} wildcard recv (tag {}) matched rank {} but rank {}'s send \
                 (event {}) was concurrent — delivery order visible",
                r.rank, r.tag, r.matched_src, r.rival_src, r.rival_event
            );
        }
        for c in &self.deadlock_cycles {
            let _ = writeln!(out, "  DEADLOCK CYCLE: {}", Self::cycle_string(c));
        }
        for c in &self.hb_cycles {
            let _ = writeln!(out, "  HB CYCLE (structural): {}", Self::cycle_string(c));
        }
        for v in &self.violations {
            let _ = match v {
                Violation::NegativeSpan { event } => {
                    writeln!(out, "  CLOCK VIOLATION: event {event} ends before it starts")
                }
                Violation::RecvBeforeSend { send, recv } => writeln!(
                    out,
                    "  CLOCK VIOLATION: recv (event {recv}) completed before its send (event {send})"
                ),
                Violation::RankRegression { rank, earlier, later } => writeln!(
                    out,
                    "  CLOCK VIOLATION: rank {rank} event {later} ended before event {earlier} started"
                ),
            };
        }
        for (w, a) in &self.suspects {
            if w == a {
                let _ = writeln!(out, "  suspect: rank {w} stalled on a wildcard receive");
            } else {
                let _ = writeln!(out, "  suspect: rank {w} stalled waiting for rank {a}");
            }
        }
        let verdict = if self.ok() {
            "OK: 0 receive races, 0 deadlock cycles, 0 clock violations"
        } else {
            "FAIL: schedule-dependence or deadlock detected"
        };
        let _ = writeln!(out, "  {verdict}");
        out
    }
}

impl Trace {
    /// Runs the full happens-before analysis over this trace — see the
    /// [module docs](crate::hb) for the checks performed.
    pub fn hb_analysis(&self) -> HbReport {
        let num_ranks = self.ranks.len();
        // HB DAG nodes: every non-phase event, in per-rank program order.
        let per_rank: Vec<&[usize]> = self.ranks.iter().map(|ix| &ix.leaves[..]).collect();
        let num_events = per_rank.iter().map(|order| order.len()).sum();

        // Successor lists + in-degrees over event indices.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); self.events.len()];
        let mut indeg: Vec<usize> = vec![0; self.events.len()];
        let mut num_edges = 0usize;
        for &order in &per_rank {
            for w in order.windows(2) {
                succs[w[0]].push(w[1]);
                indeg[w[1]] += 1;
                num_edges += 1;
            }
        }
        let mut matched = 0usize;
        for m in self.messages() {
            matched += 1;
            succs[m.send].push(m.recv);
            indeg[m.recv] += 1;
            num_edges += 1;
        }

        // Monotonicity, exact comparisons (see module docs).
        let mut violations = Vec::new();
        for &order in &per_rank {
            for &i in order {
                let e = &self.events[i];
                if e.end < e.start {
                    violations.push(Violation::NegativeSpan { event: i });
                }
            }
            for w in order.windows(2) {
                let (a, b) = (&self.events[w[0]], &self.events[w[1]]);
                if b.end < a.start {
                    violations.push(Violation::RankRegression {
                        rank: a.rank,
                        earlier: w[0],
                        later: w[1],
                    });
                }
            }
        }
        for m in self.messages() {
            if self.events[m.recv].end < self.events[m.send].end {
                violations.push(Violation::RecvBeforeSend { send: m.send, recv: m.recv });
            }
        }

        // Orphans.
        let mut orphan_sends = 0usize;
        let mut orphan_recvs = 0usize;
        let mut wildcard_recvs = 0usize;
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                EventKind::Send { .. } if self.peer(i).is_none() => orphan_sends += 1,
                EventKind::Recv { wildcard, .. } => {
                    if self.peer(i).is_none() {
                        orphan_recvs += 1;
                    }
                    if wildcard {
                        wildcard_recvs += 1;
                    }
                }
                _ => {}
            }
        }

        // Kahn's algorithm: topological order, or a structural cycle.
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &order in &per_rank {
            for &i in order {
                if indeg[i] == 0 {
                    queue.push_back(i);
                }
            }
        }
        let mut topo: Vec<usize> = Vec::with_capacity(num_events);
        let mut remaining = indeg.clone();
        while let Some(i) = queue.pop_front() {
            topo.push(i);
            for &s in &succs[i] {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        let mut hb_cycles = Vec::new();
        if topo.len() < num_events {
            // Ranks stuck in the unresolvable remainder form the cycle.
            let done: BTreeSet<usize> = topo.iter().copied().collect();
            let stuck: BTreeSet<usize> = per_rank
                .iter()
                .copied()
                .flatten()
                .filter(|i| !done.contains(i))
                .map(|&i| self.events[i].rank)
                .collect();
            hb_cycles.push(stuck.into_iter().collect());
        }

        // Wait-for graph from orphaned-wait markers: stall verdicts
        // (`DeadlockSuspect`) and aborts observed *mid-receive*
        // (`PeerAborted` — the blocked rank was waiting on exactly that
        // peer when its abort tombstone arrived). A cycle still requires
        // a genuine stall: abort cascades alone are acyclic, because an
        // aborted rank is no longer waiting on anyone.
        let suspects = collect_suspects(self);
        let deadlock_cycles = wait_for_cycles(&suspects);

        // Receive races: only wildcard receives can race; skip the
        // (per-event vector clock) pass entirely when there are none.
        let races = if wildcard_recvs > 0 && hb_cycles.is_empty() {
            find_races(self, &topo, &succs, num_ranks)
        } else {
            Vec::new()
        };

        HbReport {
            num_ranks,
            num_events,
            num_edges,
            matched,
            wildcard_recvs,
            races,
            deadlock_cycles,
            hb_cycles,
            violations,
            orphan_sends,
            orphan_recvs,
            suspects,
        }
    }
}

/// The deduplicated `(waiter, awaited)` edges of the wait-for graph:
/// stall-verdict markers plus aborts observed mid-receive (see
/// [`Trace::hb_analysis`] for why both count as waits).
fn collect_suspects(trace: &Trace) -> Vec<(usize, usize)> {
    let mut suspects: Vec<(usize, usize)> = Vec::new();
    for e in &trace.events {
        if let EventKind::Fault {
            peer,
            kind: FaultKind::DeadlockSuspect | FaultKind::PeerAborted,
            ..
        } = e.kind
        {
            suspects.push((e.rank, peer));
        }
    }
    suspects.sort_unstable();
    suspects.dedup();
    suspects
}

/// Cycles in the `(waiter → awaited)` graph, self-loops excluded
/// (a stalled wildcard receive points at the waiter itself). Each cycle
/// is rotated so its smallest rank leads; duplicates are removed.
fn wait_for_cycles(suspects: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for &(w, a) in suspects {
        if w != a {
            adj.entry(w).or_default().insert(a);
        }
    }
    let mut cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
    // DFS from every node; the graphs here are tiny (≤ P nodes).
    for &start in adj.keys() {
        let mut path = Vec::new();
        dfs_cycles(start, &adj, &mut path, &mut cycles);
    }
    cycles.into_iter().collect()
}

fn dfs_cycles(
    node: usize,
    adj: &BTreeMap<usize, BTreeSet<usize>>,
    path: &mut Vec<usize>,
    cycles: &mut BTreeSet<Vec<usize>>,
) {
    path.push(node);
    if let Some(nexts) = adj.get(&node) {
        for &n in nexts {
            if let Some(pos) = path.iter().position(|&p| p == n) {
                // Found a cycle: path[pos..]. Normalize rotation.
                let cyc = &path[pos..];
                let min_at = cyc.iter().enumerate().min_by_key(|&(_, r)| r).map_or(0, |(i, _)| i);
                let mut rot: Vec<usize> = cyc[min_at..].to_vec();
                rot.extend_from_slice(&cyc[..min_at]);
                cycles.insert(rot);
            } else if path.len() <= adj.len() {
                dfs_cycles(n, adj, path, cycles);
            }
        }
    }
    path.pop();
}

/// Vector-clock pass for wildcard-receive races (see module docs). Only
/// called when the trace contains wildcard receives and the HB DAG is
/// acyclic; cost is `O(events · ranks)` words.
fn find_races(
    trace: &Trace,
    topo: &[usize],
    succs: &[Vec<usize>],
    num_ranks: usize,
) -> Vec<ReceiveRace> {
    // Per-event vector clocks by forward propagation in topological
    // order: each event merges its predecessors and ticks its own rank.
    let mut vcs: Vec<VectorClock> = vec![VectorClock::new(num_ranks); trace.events.len()];
    for &i in topo {
        let mut vc = std::mem::take(&mut vcs[i]);
        vc.tick(trace.events[i].rank);
        for &s in &succs[i] {
            vcs[s].merge(&vc);
        }
        vcs[i] = vc;
    }

    let mut races = Vec::new();
    for (ri, re) in trace.events.iter().enumerate() {
        let EventKind::Recv { from: matched_src, tag, wildcard: true, .. } = re.kind else {
            continue;
        };
        for (si, se) in trace.events.iter().enumerate() {
            let EventKind::Send { to, tag: stag, .. } = se.kind else { continue };
            if to != re.rank || stag != tag || se.rank == matched_src {
                continue;
            }
            // The rival must have been possible at receive time: the
            // receive must not causally precede the rival send.
            if vcs[ri].happens_before(&vcs[si]) {
                continue;
            }
            // And the rival must not have been provably consumed first:
            // a send whose own matched receive causally precedes this one
            // is out of the buffer in *every* schedule by the time this
            // receive matches. (If that earlier receive was itself a
            // wildcard with rivals, it is flagged on its own — race
            // responsibility is per-receive, as in ISP/MUST.)
            if let Some(rr) = trace.peer(si) {
                if vcs[rr].happens_before(&vcs[ri]) {
                    continue;
                }
            }
            races.push(ReceiveRace {
                recv_event: ri,
                rank: re.rank,
                tag,
                matched_src,
                rival_src: se.rank,
                rival_event: si,
            });
        }
    }
    // The list is deterministic: scan order is event order.
    races
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::testing::{compute, ev};
    use tsqr_netsim::LinkClass;

    fn vc(xs: &[u64]) -> VectorClock {
        VectorClock(xs.to_vec())
    }

    // ---- vector-clock laws (mirrored as proptests in tests/) ----

    #[test]
    fn merge_is_commutative_and_associative_and_idempotent() {
        let (a, b, c) = (vc(&[1, 5, 0]), vc(&[2, 1, 7]), vc(&[0, 9, 3]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a, "idempotent");
    }

    #[test]
    fn partial_order_laws() {
        let small = vc(&[1, 2, 3]);
        let big = vc(&[2, 2, 4]);
        let other = vc(&[0, 5, 0]);
        assert!(small.happens_before(&big));
        assert!(!big.happens_before(&small), "antisymmetry");
        assert!(small.concurrent_with(&other));
        assert!(other.concurrent_with(&small));
        assert_eq!(small.partial_cmp(&small), Some(Ordering::Equal));
        // Merge is the least upper bound: both inputs ≤ merge.
        let mut lub = small.clone();
        lub.merge(&other);
        assert!(matches!(small.partial_cmp(&lub), Some(Ordering::Less) | Some(Ordering::Equal)));
        assert!(matches!(other.partial_cmp(&lub), Some(Ordering::Less) | Some(Ordering::Equal)));
    }

    #[test]
    fn tick_orders_successive_events() {
        let mut a = VectorClock::new(3);
        a.tick(1);
        let before = a.clone();
        a.tick(1);
        assert!(before.happens_before(&a));
    }

    #[test]
    fn widths_mismatch_is_handled() {
        let a = vc(&[1]);
        let b = vc(&[1, 1]);
        assert!(a.happens_before(&b));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m, b);
    }

    // ---- analyzer on synthetic traces ----

    fn send(to: usize, tag: u32) -> EventKind {
        EventKind::Send { to, bytes: 8, class: LinkClass::IntraCluster, tag }
    }

    fn recv(from: usize, tag: u32, wildcard: bool) -> EventKind {
        EventKind::Recv { from, bytes: 8, class: LinkClass::IntraCluster, tag, wildcard }
    }

    #[test]
    fn clean_pipeline_is_ok() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(1, 5)),
            ev(1, 0.0, 1.0, recv(0, 5, false)),
            ev(1, 1.0, 2.0, send(2, 5)),
            ev(2, 0.0, 2.0, recv(1, 5, false)),
        ]);
        let r = t.hb_analysis();
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.matched, 2);
        // One program-order edge (rank 1's recv → send; ranks 0 and 2
        // have a single event each) + two message edges.
        assert_eq!(r.num_edges, 1 + 2);
        assert_eq!(r.wildcard_recvs, 0);
        assert!(r.summary_line().starts_with("races=0 cycles=0 violations=0"));
    }

    #[test]
    fn wildcard_recv_with_concurrent_senders_races() {
        // Ranks 1 and 2 both send tag 9 to rank 0; rank 0's wildcard
        // receive matched rank 1 — rank 2's send is a rival.
        let t = Trace::from_parts(vec![
            ev(1, 0.0, 1.0, send(0, 9)),
            ev(2, 0.0, 1.0, send(0, 9)),
            ev(0, 0.0, 1.0, recv(1, 9, true)),
            ev(0, 1.0, 1.5, recv(2, 9, true)),
        ]);
        let r = t.hb_analysis();
        assert!(!r.ok());
        assert_eq!(r.wildcard_recvs, 2);
        assert!(!r.races.is_empty());
        assert!(r.races.iter().any(|x| x.rank == 0 && x.rival_src == 2 && x.matched_src == 1));
        assert!(r.render().contains("RACE"));
    }

    #[test]
    fn named_recvs_never_race() {
        // Same shape, but the receives name their sources: no ambiguity.
        let t = Trace::from_parts(vec![
            ev(1, 0.0, 1.0, send(0, 9)),
            ev(2, 0.0, 1.0, send(0, 9)),
            ev(0, 0.0, 1.0, recv(1, 9, false)),
            ev(0, 1.0, 1.5, recv(2, 9, false)),
        ]);
        let r = t.hb_analysis();
        assert!(r.ok(), "{}", r.render());
        assert!(r.races.is_empty());
    }

    #[test]
    fn causally_ordered_wildcards_do_not_race() {
        // Rank 2 only sends after rank 0 already received rank 1's
        // message (0 → 2 ack edge): the second send is causally after
        // the first receive, so the first wildcard receive cannot race.
        let t = Trace::from_parts(vec![
            ev(1, 0.0, 1.0, send(0, 9)),
            ev(0, 0.0, 1.0, recv(1, 9, true)),
            ev(0, 1.0, 2.0, send(2, 1)),
            ev(2, 0.0, 2.0, recv(0, 1, false)),
            ev(2, 2.0, 3.0, send(0, 9)),
            ev(0, 2.0, 3.0, recv(2, 9, true)),
        ]);
        let r = t.hb_analysis();
        assert!(r.ok(), "{}", r.render());
    }

    #[test]
    fn deadlock_suspects_form_cycle() {
        let fault = |rank: usize, peer: usize| {
            ev(
                rank,
                1.0,
                1.0,
                EventKind::Fault {
                    peer,
                    class: LinkClass::IntraCluster,
                    kind: FaultKind::DeadlockSuspect,
                },
            )
        };
        let t = Trace::from_parts(vec![fault(0, 1), fault(1, 0), fault(2, 0)]);
        let r = t.hb_analysis();
        assert_eq!(r.deadlock_cycles, vec![vec![0, 1]]);
        assert!(!r.ok());
        assert!(r.render().contains("DEADLOCK CYCLE: 0 → 1 → 0"));
        assert_eq!(r.suspects, vec![(0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn monotonicity_violations_are_caught() {
        // A recv that completes before its send completes.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 2.0, send(1, 1)),
            ev(1, 0.0, 1.0, recv(0, 1, false)),
        ]);
        let r = t.hb_analysis();
        assert_eq!(r.violations, vec![Violation::RecvBeforeSend { send: 0, recv: 1 }]);
        assert!(!r.ok());

        // An event that ends before it starts.
        let t2 = Trace::from_parts(vec![ev(0, 2.0, 1.0, compute(1))]);
        assert!(matches!(t2.hb_analysis().violations[..], [Violation::NegativeSpan { event: 0 }]));
    }

    #[test]
    fn orphan_accounting() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(1, 1)),
            ev(1, 0.0, 1.0, recv(0, 1, false)),
            ev(0, 1.0, 2.0, send(1, 1)), // never received
        ]);
        let r = t.hb_analysis();
        assert_eq!(r.orphan_sends, 1);
        assert_eq!(r.orphan_recvs, 0);
        assert!(r.ok(), "orphan sends alone do not fail the check");
    }

    #[test]
    fn structural_cycle_is_reported() {
        // Synthetic impossible trace: 0 receives from 1 *before* sending
        // to 1, and vice versa, with FIFO matching tying the knot.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, recv(1, 1, false)),
            ev(0, 1.0, 2.0, send(1, 2)),
            ev(1, 0.0, 1.0, recv(0, 2, false)),
            ev(1, 1.0, 2.0, send(0, 1)),
        ]);
        let r = t.hb_analysis();
        assert_eq!(r.hb_cycles.len(), 1);
        assert_eq!(r.hb_cycles[0], vec![0, 1]);
        assert!(!r.ok());
    }
}
