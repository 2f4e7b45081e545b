//! Event tracing: a per-rank record of every send, receive, compute and
//! phase with its virtual-time span, plus a text timeline renderer.
//!
//! Tracing is how the paper's communication diagrams (Figs. 1–2) become
//! inspectable for *any* run: enable it with
//! [`crate::Runtime::enable_tracing`], run the program, and render the
//! merged timeline (or feed the raw events to your own tooling). Events
//! carry virtual timestamps, so traces are exactly reproducible.
//!
//! The full schema (field semantics, matching rules, Chrome-trace
//! mapping) is documented in `docs/observability.md` at the repository
//! root. Two derived views live in sibling modules:
//!
//! * [`crate::chrome`] exports a trace as Chrome-trace / Perfetto JSON;
//! * [`crate::critical`] extracts the critical path through the
//!   happens-before DAG.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use tsqr_netsim::{LinkClass, VirtualTime};

/// One traced action on a rank.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message was sent.
    Send {
        /// Destination rank.
        to: usize,
        /// Payload size.
        bytes: u64,
        /// Link class it travelled on.
        class: LinkClass,
        /// Program-level protocol tag.
        tag: u32,
    },
    /// A message was received (opened). The span covers the receiver's
    /// blocked wait: zero-length when the message was already there.
    Recv {
        /// Source rank.
        from: usize,
        /// Payload size.
        bytes: u64,
        /// Link class it travelled on.
        class: LinkClass,
        /// Program-level protocol tag.
        tag: u32,
        /// True when the receive was a wildcard ([`crate::Process::recv_any_async`]):
        /// the source was *not* named by the program, so which sender
        /// matched depended on delivery order. The happens-before
        /// analyzer ([`crate::hb`]) treats only these as race candidates.
        wildcard: bool,
    },
    /// Local computation was charged.
    Compute {
        /// Flops charged.
        flops: u64,
    },
    /// A completed algorithm phase (recorded when the phase is closed;
    /// the span covers everything between [`crate::Process::phase_begin`]
    /// and [`crate::Process::phase_end`]). Phase spans *overlap* the
    /// ordinary events they enclose — analyses that walk the
    /// happens-before DAG must skip them.
    Phase {
        /// The phase label.
        name: &'static str,
    },
    /// A failure-schedule observation (see `docs/fault-injection.md`):
    /// a failure-detector wait, a dropped transmission, or a degraded
    /// send. Receiver-side kinds span the failure-induced wait;
    /// [`FaultKind::LinkDegraded`] is a zero-width marker.
    Fault {
        /// The peer rank involved (the dead rank, the other end of the
        /// dropped transmission, or the destination of the degraded
        /// send).
        peer: usize,
        /// Link class between this rank and `peer`.
        class: LinkClass,
        /// What was observed.
        kind: FaultKind,
    },
}

/// What a [`EventKind::Fault`] event observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The failure detector declared `peer` crashed; the span covers the
    /// receiver's failure-induced wait (from wait start to the
    /// virtual-time detection deadline).
    RankFailed,
    /// `peer`'s rank program aborted with an error; span as above.
    PeerAborted,
    /// A transmission to `peer` was dropped in transit (sender side);
    /// the span covers the wasted transmission plus retransmission
    /// backoff.
    DropSent,
    /// A dropped transmission from `peer` was observed (receiver side);
    /// the span covers the wait up to the would-be arrival.
    DropObserved,
    /// A send to `peer` was priced through an active degradation window
    /// (zero-width marker at send start).
    LinkDegraded,
    /// A wait for `peer` that can never end: the run's stall verdict
    /// ([`crate::CommError::Deadlock`] or [`crate::CommError::PeerGone`]
    /// with nobody left to run) ended it (zero-width marker at the wait's
    /// start; virtual time never advances for it). The happens-before
    /// analyzer ([`crate::hb`]) builds its wait-for graph from these
    /// markers: a cycle among them is a deadlock cycle.
    DeadlockSuspect,
}

impl FaultKind {
    /// True for the receiver-side kinds whose span is a *wait* (these
    /// feed the `failure-induced` wait-state class of
    /// [`crate::diagnose`] and are mirrored into the metrics registry's
    /// `recv_wait_s`).
    pub(crate) fn is_wait(self) -> bool {
        matches!(self, FaultKind::RankFailed | FaultKind::PeerAborted | FaultKind::DropObserved)
    }

    /// Short stable label for renders and trace exports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::RankFailed => "rank-failed",
            FaultKind::PeerAborted => "peer-aborted",
            FaultKind::DropSent => "drop-sent",
            FaultKind::DropObserved => "drop-observed",
            FaultKind::LinkDegraded => "link-degraded",
            FaultKind::DeadlockSuspect => "deadlock-suspect",
        }
    }
}

impl EventKind {
    /// True for [`EventKind::Phase`] markers (which overlap other events
    /// and are skipped by DAG analyses).
    pub(crate) fn is_phase(&self) -> bool {
        matches!(self, EventKind::Phase { .. })
    }
}

/// A traced event: what happened, where, over which virtual span, and
/// under which algorithm phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The rank the event happened on.
    pub rank: usize,
    /// Virtual time when the action started.
    pub start: VirtualTime,
    /// Virtual time when the action completed.
    pub end: VirtualTime,
    /// The innermost open phase at record time, if any.
    pub phase: Option<&'static str>,
    /// The action.
    pub kind: EventKind,
}

/// A matched send/receive pair: indices into [`Trace::events`].
///
/// Matching is by per-`(src, dst)` FIFO order, which is exact for this
/// runtime: channels preserve per-source order and the receive buffer
/// replays pending messages in arrival order, so the `k`-th send from
/// `src` to `dst` is opened by the `k`-th receive at `dst` from `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMatch {
    /// Index of the [`EventKind::Send`] event.
    pub send: usize,
    /// Index of the [`EventKind::Recv`] event.
    pub recv: usize,
}

/// A complete trace: every rank's events, merged and time-ordered, and the
/// index every analysis reads — each rank's events in program order and each
/// message's two ends — built once, with the trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by `(start, rank)`; ties keep per-rank program
    /// order (the sort is stable and each rank's events are appended in
    /// program order). The index below is built from it.
    pub events: Vec<Event>,
    /// One entry per rank, up to the highest rank with an event.
    pub(crate) ranks: Vec<RankIndex>,
    /// `peer[i]`: the receive that opened send `i`, or the send receive `i`
    /// opened; `None` for every other event.
    peer: Vec<Option<usize>>,
}

/// One rank's events in program order — its trace order, so starts never
/// decrease — as indices into [`Trace::events`].
#[derive(Debug, Clone, Default)]
pub(crate) struct RankIndex {
    /// The non-phase events: the happens-before DAG's nodes on this rank.
    pub(crate) leaves: Vec<usize>,
    /// `starts[k]`: when `leaves[k]` started, for binary searches that stay
    /// in cache.
    starts: Vec<VirtualTime>,
    /// `reach[k]`: the latest end among `leaves[..=k]`, so a backward scan
    /// stops where nothing earlier can reach the instant it looks for.
    reach: Vec<VirtualTime>,
    /// The phase spans, which overlap the leaves they enclose.
    pub(crate) phases: Vec<usize>,
}

static NO_EVENTS: RankIndex =
    RankIndex { leaves: Vec::new(), starts: Vec::new(), reach: Vec::new(), phases: Vec::new() };

impl Trace {
    pub(crate) fn from_parts(mut events: Vec<Event>) -> Self {
        events.sort_by(|a, b| a.start.cmp(&b.start).then(a.rank.cmp(&b.rank)));
        let num_ranks = events.iter().map(|e| e.rank + 1).max().unwrap_or(0);
        let mut ranks = vec![RankIndex::default(); num_ranks];
        let mut peer = vec![None; events.len()];
        // The k-th send from src to dst is opened by the k-th receive at dst
        // from src (see [`MessageMatch`]). Per `(src, dst)` queue whichever
        // end is ahead in trace order — a receive's wait can begin before its
        // send — and pair the other end with the queue's head.
        let mut ahead: Vec<BTreeMap<usize, (bool, VecDeque<usize>)>> =
            vec![BTreeMap::new(); num_ranks];
        for (i, e) in events.iter().enumerate() {
            let rank = &mut ranks[e.rank];
            if e.kind.is_phase() {
                rank.phases.push(i);
                continue;
            }
            rank.leaves.push(i);
            rank.starts.push(e.start);
            rank.reach.push(rank.reach.last().map_or(e.end, |&reach| reach.max(e.end)));
            let (src, dst, is_send) = match e.kind {
                EventKind::Send { to, .. } => (e.rank, to, true),
                // A sender with no events never sent.
                EventKind::Recv { from, .. } if from < num_ranks => (from, e.rank, false),
                _ => continue,
            };
            let (queued_sends, queue) = ahead[src].entry(dst).or_default();
            match queue.front() {
                Some(&j) if *queued_sends != is_send => {
                    queue.pop_front();
                    (peer[i], peer[j]) = (Some(j), Some(i));
                }
                _ => {
                    *queued_sends = is_send;
                    queue.push_back(i);
                }
            }
        }
        Trace { events, ranks, peer }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one rank, in time order.
    pub fn rank_events(&self, rank: usize) -> Vec<&Event> {
        let ix = self.rank(rank);
        let mut own: Vec<usize> = ix.leaves.iter().chain(&ix.phases).copied().collect();
        own.sort_unstable();
        own.into_iter().map(|i| &self.events[i]).collect()
    }

    /// One rank's index; empty for a rank with no events.
    pub(crate) fn rank(&self, rank: usize) -> &RankIndex {
        self.ranks.get(rank).unwrap_or(&NO_EVENTS)
    }

    /// The other end of message event `i`, when it was matched.
    pub(crate) fn peer(&self, i: usize) -> Option<usize> {
        self.peer[i]
    }

    /// Rank `r`'s leaves with `start <= t <= end`, latest-starting first: a
    /// binary search, then a backward scan that stops where nothing earlier
    /// reaches `t`.
    pub(crate) fn leaves_at(&self, r: usize, t: VirtualTime) -> impl Iterator<Item = usize> + '_ {
        let ix = self.rank(r);
        let hi = ix.starts.partition_point(|&start| start <= t);
        (0..hi)
            .rev()
            .take_while(move |&k| ix.reach[k] >= t)
            .map(move |k| ix.leaves[k])
            .filter(move |&i| self.events[i].end >= t)
    }

    /// The latest end among `rank`'s leaves that start before `t`, or zero.
    pub(crate) fn end_before(&self, rank: usize, t: VirtualTime) -> VirtualTime {
        let ix = self.rank(rank);
        let lo = ix.starts.partition_point(|&start| start < t);
        lo.checked_sub(1).map_or(VirtualTime::ZERO, |k| ix.reach[k])
    }

    /// The largest event end time — equals the run's makespan when every
    /// rank's last action was traced.
    pub fn makespan(&self) -> VirtualTime {
        self.events.iter().map(|e| e.end).max().unwrap_or(VirtualTime::ZERO)
    }

    /// Fault events only (failure-detector waits, drops, degradations),
    /// in trace order — the run's failure history. Two replays of the
    /// same (program, schedule, seed) produce identical failure
    /// histories; the replay-determinism proptest diffs exactly this.
    pub(crate) fn fault_events(&self) -> Vec<&Event> {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::Fault { .. })).collect()
    }

    /// Inter-cluster send events only — the WAN bill, itemized.
    pub fn wan_sends(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { class, .. } if class.is_inter_cluster()))
            .collect()
    }

    /// Pairs every send with the receive that opened it (per-`(src, dst)`
    /// FIFO matching — see [`MessageMatch`]), ordered by send. Unmatched
    /// events (e.g. a send whose receiver errored out before opening it)
    /// are simply absent from the result.
    pub fn match_messages(&self) -> Vec<MessageMatch> {
        self.messages().collect()
    }

    /// [`Trace::match_messages`] without the allocation.
    pub(crate) fn messages(&self) -> impl Iterator<Item = MessageMatch> + '_ {
        self.events.iter().enumerate().filter_map(|(send, e)| match e.kind {
            EventKind::Send { .. } => self.peer(send).map(|recv| MessageMatch { send, recv }),
            _ => None,
        })
    }

    /// Renders a compact text timeline: one line per event,
    /// `[start..end] rank action`, microsecond precision.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let span = format!("[{:>12.6}s ..{:>12.6}s]", e.start.secs(), e.end.secs());
            let what = match &e.kind {
                EventKind::Send { to, bytes, class, .. } => {
                    format!("send -> {to:<4} {bytes:>10} B  [{}]", class.label())
                }
                EventKind::Recv { from, bytes, class, .. } => {
                    format!("recv <- {from:<4} {bytes:>10} B  [{}]", class.label())
                }
                EventKind::Compute { flops } => format!("compute {flops:>14} flops"),
                EventKind::Phase { name } => format!("phase   {name}"),
                EventKind::Fault { peer, class, kind } => {
                    format!("fault   {:<13} peer {peer:<4} [{}]", kind.label(), class.label())
                }
            };
            let phase = e.phase.map(|p| format!("  @{p}")).unwrap_or_default();
            let _ = writeln!(out, "{span} rank {:<4} {what}{phase}", e.rank);
        }
        out
    }

    /// A per-rank utilization summary: fraction of the makespan spent in
    /// traced compute.
    pub fn compute_utilization(&self, num_ranks: usize) -> Vec<f64> {
        let makespan = self.makespan().secs().max(f64::MIN_POSITIVE);
        let mut busy = vec![0.0; num_ranks];
        for e in &self.events {
            if matches!(e.kind, EventKind::Compute { .. }) && e.rank < num_ranks {
                busy[e.rank] += (e.end - e.start).secs();
            }
        }
        busy.iter().map(|b| b / makespan).collect()
    }
}

/// Per-rank event collector (crate-internal; installed by the runtime).
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub events: Vec<Event>,
}

/// Event builders shared by the trace analyses' tests.
#[cfg(test)]
pub(crate) mod testing {
    use proptest::prelude::Strategy;
    use tsqr_netsim::{LinkClass, VirtualTime};

    use super::{Event, EventKind, FaultKind, Trace};

    /// An unphased event on `rank` over `[s, e]` seconds.
    pub(crate) fn ev(rank: usize, s: f64, e: f64, kind: EventKind) -> Event {
        Event {
            rank,
            start: VirtualTime::from_secs(s),
            end: VirtualTime::from_secs(e),
            phase: None,
            kind,
        }
    }

    /// [`ev`] recorded under `phase`.
    pub(crate) fn pev(rank: usize, s: f64, e: f64, phase: &'static str, kind: EventKind) -> Event {
        Event { phase: Some(phase), ..ev(rank, s, e, kind) }
    }

    /// An intra-cluster send of `bytes` to `to`, tag 0.
    pub(crate) fn send(to: usize, bytes: u64) -> EventKind {
        EventKind::Send { to, bytes, class: LinkClass::IntraCluster, tag: 0 }
    }

    /// An intra-cluster named receive of `bytes` from `from`, tag 0.
    pub(crate) fn recv(from: usize, bytes: u64) -> EventKind {
        EventKind::Recv { from, bytes, class: LinkClass::IntraCluster, tag: 0, wildcard: false }
    }

    pub(crate) fn compute(flops: u64) -> EventKind {
        EventKind::Compute { flops }
    }

    pub(crate) fn phase(name: &'static str) -> EventKind {
        EventKind::Phase { name }
    }

    /// Arbitrary traces for the analyses' property tests: up to 48 events
    /// on four ranks, on a grid of half seconds so that starts and ends tie,
    /// zero widths included. Sends and receives name a peer among five
    /// ranks, so some never match and some overlap the way an exchange's do.
    pub(crate) fn arbitrary_trace() -> impl Strategy<Value = Trace> {
        let event = ((0usize..4, 0u32..12, 0u32..5), (0usize..9, 0usize..5));
        proptest::collection::vec(event, 0..48).prop_map(|events| {
            let events = events.into_iter().map(|((rank, start, width), (kind, peer))| {
                let class = LinkClass::IntraCluster;
                let kind = match kind {
                    0 | 1 => compute(1),
                    2 | 3 => send(peer, 8),
                    4 | 5 => recv(peer, 8),
                    6 => EventKind::Fault { peer, class, kind: FaultKind::RankFailed },
                    7 => EventKind::Fault { peer, class, kind: FaultKind::DropSent },
                    _ => phase("tree-reduce"),
                };
                ev(rank, 0.5 * f64::from(start), 0.5 * f64::from(start + width), kind)
            });
            Trace::from_parts(events.collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{arbitrary_trace, compute, ev, pev, phase, recv, send};
    use super::*;

    /// The matching as it was before the index: collect per-`(src, dst)`
    /// send and receive indices, then zip k-th with k-th. Kept as the
    /// oracle of [`the_index_agrees_with_scans_of_the_events`].
    fn match_messages_zip(trace: &Trace) -> Vec<MessageMatch> {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (i, e) in trace.events.iter().enumerate() {
            match e.kind {
                EventKind::Send { to, .. } => sends.entry((e.rank, to)).or_default().push(i),
                EventKind::Recv { from, .. } => recvs.entry((from, e.rank)).or_default().push(i),
                _ => {}
            }
        }
        let mut out: Vec<MessageMatch> = sends
            .iter()
            .flat_map(|(key, ss)| {
                let rs = recvs.get(key).map(Vec::as_slice).unwrap_or(&[]);
                ss.iter().zip(rs).map(|(&send, &recv)| MessageMatch { send, recv })
            })
            .collect();
        out.sort_by_key(|m| m.send);
        out
    }

    proptest::proptest! {
        #[test]
        fn the_index_agrees_with_scans_of_the_events(t in arbitrary_trace()) {
            let m = t.match_messages();
            assert_eq!(m, match_messages_zip(&t));
            for pair in &m {
                assert_eq!(t.peer(pair.send), Some(pair.recv));
                assert_eq!(t.peer(pair.recv), Some(pair.send));
            }
            let matched = t.events.iter().enumerate().filter(|&(i, _)| t.peer(i).is_some()).count();
            assert_eq!(matched, 2 * m.len());
            for (rank, ix) in t.ranks.iter().enumerate() {
                let own: Vec<&Event> = t.events.iter().filter(|e| e.rank == rank).collect();
                assert_eq!(t.rank_events(rank), own);
                assert_eq!(ix.leaves.len() + ix.phases.len(), own.len());
                for at in (0..36).map(|k| VirtualTime::from_secs(0.25 * f64::from(k))) {
                    let leaves = ix.leaves.iter().map(|&i| (i, &t.events[i]));
                    let covering: Vec<usize> = leaves
                        .clone()
                        .filter(|(_, e)| e.start <= at && at <= e.end)
                        .map(|(i, _)| i)
                        .collect();
                    let mut around: Vec<usize> = t.leaves_at(rank, at).collect();
                    around.sort_unstable();
                    assert_eq!(around, covering);
                    let before = leaves.filter(|(_, e)| e.start < at).map(|(_, e)| e.end);
                    assert_eq!(t.end_before(rank, at), before.max().unwrap_or(VirtualTime::ZERO));
                }
            }
        }
    }

    #[test]
    fn merge_sorts_by_time_then_rank() {
        let t = Trace::from_parts(vec![
            ev(1, 2.0, 3.0, compute(5)),
            ev(0, 1.0, 2.0, compute(1)),
            ev(2, 1.0, 1.5, compute(2)),
        ]);
        let starts: Vec<(f64, usize)> = t.events.iter().map(|e| (e.start.secs(), e.rank)).collect();
        assert_eq!(starts, vec![(1.0, 0), (1.0, 2), (2.0, 1)]);
        assert_eq!(t.makespan().secs(), 3.0);
    }

    #[test]
    fn wan_filter() {
        let t = Trace::from_parts(vec![
            ev(
                0,
                0.0,
                1.0,
                EventKind::Send { to: 1, bytes: 8, class: LinkClass::IntraNode, tag: 0 },
            ),
            ev(
                0,
                1.0,
                2.0,
                EventKind::Send { to: 5, bytes: 8, class: LinkClass::InterCluster(0, 1), tag: 0 },
            ),
        ]);
        assert_eq!(t.wan_sends().len(), 1);
    }

    #[test]
    fn render_contains_all_lines() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 0.5, compute(42)),
            pev(1, 0.5, 0.6, "tree-reduce", recv(0, 64)),
            ev(1, 0.0, 0.6, phase("tree-reduce")),
        ]);
        let text = t.render();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("compute"));
        assert!(text.contains("recv <- 0"));
        assert!(text.contains("@tree-reduce"));
        assert!(text.contains("phase   tree-reduce"));
    }

    #[test]
    fn utilization_fractions() {
        let t = Trace::from_parts(vec![ev(0, 0.0, 1.0, compute(1)), ev(1, 0.0, 2.0, compute(1))]);
        let u = t.compute_utilization(2);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn message_matching_is_fifo_per_pair() {
        // Rank 0 sends twice to rank 1; rank 2 also sends to rank 1.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(1, 8)),
            ev(2, 0.0, 1.0, send(1, 16)),
            ev(0, 1.0, 2.0, send(1, 24)),
            ev(1, 0.0, 1.0, recv(0, 8)),
            ev(1, 1.0, 1.5, recv(2, 16)),
            ev(1, 1.5, 2.0, recv(0, 24)),
        ]);
        let m = t.match_messages();
        assert_eq!(m.len(), 3);
        for pair in &m {
            let (s, r) = (&t.events[pair.send], &t.events[pair.recv]);
            match (&s.kind, &r.kind) {
                (
                    EventKind::Send { to, bytes: sb, .. },
                    EventKind::Recv { from, bytes: rb, .. },
                ) => {
                    assert_eq!(*to, r.rank);
                    assert_eq!(*from, s.rank);
                    assert_eq!(sb, rb, "FIFO matching pairs equal payloads here");
                }
                _ => panic!("matched pair must be send/recv"),
            }
        }
    }

    #[test]
    fn unmatched_sends_are_skipped() {
        let t = Trace::from_parts(vec![ev(0, 0.0, 1.0, send(1, 8))]);
        assert!(t.match_messages().is_empty());
    }
}
