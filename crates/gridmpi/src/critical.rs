//! Critical-path extraction from a [`Trace`].
//!
//! The traced events of a run form a happens-before DAG: events on one
//! rank are ordered by program order, and each matched message adds an
//! edge from its send's completion to its receive's completion. The
//! *critical path* is the longest chain through that DAG — the sequence
//! of spans that actually determined the makespan. The paper's Eq. (1)
//! is exactly a model of this chain: `β·#msg + α·vol` prices its
//! message segments and `γ·#flops` its compute segments.
//!
//! [`Trace::critical_path`] walks the DAG backward from the event that
//! finishes last. The resulting [`Segment`]s tile `[0, makespan]`
//! contiguously by construction, so
//! [`CriticalPath::total`]` == `[`Trace::makespan`] is a free invariant —
//! the runtime's unit tests (and the bench binaries, on every traced
//! figure run) assert it.
//!
//! One approximation, documented for honesty: when a receive finishes
//! later than its message's arrival because the receiver's NIC was
//! still clocking in an *earlier* message, the extra wait is attributed
//! to this message's [`SegmentKind::Deliver`] segment rather than to
//! the earlier message. Contiguity (and the makespan invariant) is
//! unaffected.

use tsqr_netsim::{LinkClass, VirtualTime};

use crate::trace::{EventKind, Trace};

/// What a critical-path segment was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local computation.
    Compute,
    /// A blocking send (the `β + α·v` wire time, paid on the sender).
    Send {
        /// Destination rank.
        to: usize,
        /// Link class of the message.
        class: LinkClass,
    },
    /// Waiting for a message to be delivered (NIC serialization and any
    /// surplus between the sender's completion and the receive's end).
    Deliver {
        /// Source rank.
        from: usize,
    },
    /// A blocked receive that could not be matched to a send (should
    /// not happen in healthy runs; kept for robustness).
    Recv {
        /// Source rank.
        from: usize,
    },
    /// Untraced time (e.g. before a rank's first event). A healthy
    /// fully-traced run has no gaps.
    Gap,
}

/// One span of the critical path, on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The rank whose timeline this span sits on.
    pub rank: usize,
    /// Span start (virtual time).
    pub start: VirtualTime,
    /// Span end (virtual time).
    pub end: VirtualTime,
    /// What the span was.
    pub kind: SegmentKind,
}

impl Segment {
    /// The span's length.
    pub(crate) fn span(&self) -> VirtualTime {
        self.end - self.start
    }
}

/// Time totals of a critical path, grouped by segment kind — the
/// empirical counterpart of Eq. (1)'s terms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathSummary {
    /// Seconds in [`SegmentKind::Compute`] — the `γ·#flops` term.
    pub compute_s: f64,
    /// Seconds in [`SegmentKind::Send`] — the `β·#msg + α·vol` term.
    pub send_s: f64,
    /// Seconds in [`SegmentKind::Deliver`] (NIC/overlap surplus).
    pub deliver_s: f64,
    /// Seconds in unmatched [`SegmentKind::Recv`] waits.
    pub recv_s: f64,
    /// Seconds of [`SegmentKind::Gap`].
    pub gap_s: f64,
    /// Messages whose wire time sits on the path (send segments).
    pub messages: usize,
    /// How many of those crossed a wide-area link.
    pub wan_messages: usize,
}

/// The critical path: contiguous segments covering `[0, makespan]`,
/// earliest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Segments in increasing time order; each starts where the
    /// previous one ends.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Sum of all segment spans. Because segments tile `[0, makespan]`,
    /// this equals the trace's makespan.
    pub fn total(&self) -> VirtualTime {
        self.segments.iter().map(|s| s.span()).sum()
    }

    /// The tiling invariant: [`Self::total`] is `makespan` within 1e-9
    /// relative (absolute below one second), or what went wrong.
    pub fn check_tiling(&self, makespan: VirtualTime) -> Result<(), String> {
        let (total, makespan) = (self.total().secs(), makespan.secs());
        let tiles = (total - makespan).abs() <= 1e-9 * makespan.max(1.0);
        tiles.then_some(()).ok_or_else(|| {
            format!("critical path ({total:.9} s) does not tile the makespan ({makespan:.9} s)")
        })
    }

    /// Per-kind time totals (see [`PathSummary`]).
    pub fn summary(&self) -> PathSummary {
        let mut out = PathSummary::default();
        for s in &self.segments {
            let dt = s.span().secs();
            match s.kind {
                SegmentKind::Compute => out.compute_s += dt,
                SegmentKind::Send { class, .. } => {
                    out.send_s += dt;
                    out.messages += 1;
                    if class.is_inter_cluster() {
                        out.wan_messages += 1;
                    }
                }
                SegmentKind::Deliver { .. } => out.deliver_s += dt,
                SegmentKind::Recv { .. } => out.recv_s += dt,
                SegmentKind::Gap => out.gap_s += dt,
            }
        }
        out
    }

    /// Renders the path, one line per segment, earliest first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.segments {
            let what = match s.kind {
                SegmentKind::Compute => "compute".to_string(),
                SegmentKind::Send { to, class } => {
                    format!("send -> {to} [{}]", class.label())
                }
                SegmentKind::Deliver { from } => format!("deliver <- {from}"),
                SegmentKind::Recv { from } => format!("recv <- {from}"),
                SegmentKind::Gap => "gap".to_string(),
            };
            let _ = writeln!(
                out,
                "[{:>12.6}s ..{:>12.6}s] rank {:<4} {what}",
                s.start.secs(),
                s.end.secs(),
                s.rank
            );
        }
        let su = self.summary();
        let _ = writeln!(
            out,
            "total {:.6}s = compute {:.6}s + send {:.6}s + deliver {:.6}s + other {:.6}s  ({} msgs, {} WAN)",
            self.total().secs(),
            su.compute_s,
            su.send_s,
            su.deliver_s,
            su.recv_s + su.gap_s,
            su.messages,
            su.wan_messages,
        );
        out
    }
}

impl Trace {
    /// Extracts the critical path (see the module docs for the
    /// algorithm and its one approximation). Returns an empty path for
    /// an empty trace.
    pub fn critical_path(&self) -> CriticalPath {
        self.walk_back(|rank, t| self.cover(rank, t))
    }

    /// The leaf of `rank` that binds `t`, or else the earlier end a gap
    /// closes back to. Among the leaves covering `t` (`start < t <= end`),
    /// the latest-ending binds; ties from `exchange()` overlap resolve
    /// toward the local send, then toward the later in program order.
    fn cover(&self, rank: usize, t: VirtualTime) -> Result<usize, VirtualTime> {
        let key = |i: usize| {
            let e = &self.events[i];
            (e.end, !matches!(e.kind, EventKind::Recv { .. }))
        };
        // Latest-starting first, so the first of equal keys is the later.
        let binding = self
            .leaves_at(rank, t)
            .filter(|&i| self.events[i].start < t)
            .reduce(|best, i| if key(i) > key(best) { i } else { best });
        match binding {
            Some(i) => Ok(i),
            // Nothing covers `t`, so every leaf starting before `t` ended
            // before it: the nearest earlier end is theirs — or `t` itself
            // when a zero-width leaf sits at `t`.
            None if self.leaves_at(rank, t).any(|i| self.events[i].end == t) => Err(t),
            None => Err(self.end_before(rank, t)),
        }
    }

    /// Walks the happens-before DAG backward from the event that finishes
    /// last, asking `cover` what binds each instant.
    fn walk_back(
        &self,
        cover: impl Fn(usize, VirtualTime) -> Result<usize, VirtualTime>,
    ) -> CriticalPath {
        // Start at the event that finishes last.
        let Some(last) = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.kind.is_phase())
            .max_by(|a, b| a.1.end.cmp(&b.1.end))
            .map(|(i, _)| i)
        else {
            return CriticalPath::default();
        };

        let mut segments = Vec::new();
        let mut rank = self.events[last].rank;
        let mut t = self.events[last].end;
        // Each iteration either lowers `t` or follows a message edge
        // backward; budget generously and fall back to a gap if the
        // walk ever fails to make progress (defensive: cannot happen
        // for traces produced by this runtime).
        let mut budget = 4 * self.events.len() + 16;
        while t > VirtualTime::ZERO {
            if budget == 0 {
                segments.push(Segment {
                    rank,
                    start: VirtualTime::ZERO,
                    end: t,
                    kind: SegmentKind::Gap,
                });
                break;
            }
            budget -= 1;

            let i = match cover(rank, t) {
                Ok(i) => i,
                Err(prev_end) => {
                    // Untraced time before the rank's first event, or
                    // (impossible here) a hole between events.
                    let gap = Segment { rank, start: prev_end, end: t, kind: SegmentKind::Gap };
                    segments.push(gap);
                    if prev_end == VirtualTime::ZERO {
                        break;
                    }
                    t = prev_end;
                    continue;
                }
            };

            let e = &self.events[i];
            match e.kind {
                EventKind::Recv { from, .. } => {
                    if let Some(si) = self.peer(i) {
                        let s = &self.events[si];
                        if s.end < t {
                            // The sender finished before this wait
                            // ended: the surplus is delivery time on
                            // the receiver, then follow the message
                            // edge backward.
                            segments.push(Segment {
                                rank,
                                start: s.end,
                                end: t,
                                kind: SegmentKind::Deliver { from },
                            });
                            t = s.end;
                        }
                        // Continue on the sender's timeline (at the
                        // same instant when s.end >= t).
                        rank = s.rank;
                    } else {
                        // Unmatched receive: attribute the wait locally.
                        segments.push(Segment {
                            rank,
                            start: e.start,
                            end: t,
                            kind: SegmentKind::Recv { from },
                        });
                        t = e.start;
                    }
                }
                EventKind::Send { to, class, .. } => {
                    segments.push(Segment {
                        rank,
                        start: e.start,
                        end: t,
                        kind: SegmentKind::Send { to, class },
                    });
                    t = e.start;
                }
                EventKind::Compute { .. } => {
                    segments.push(Segment {
                        rank,
                        start: e.start,
                        end: t,
                        kind: SegmentKind::Compute,
                    });
                    t = e.start;
                }
                EventKind::Fault { peer, class, kind } => {
                    if kind.is_wait() {
                        // A failure-induced wait (peer death / ghost
                        // arrival): a receive wait with no matching send
                        // to follow backward.
                        segments.push(Segment {
                            rank,
                            start: e.start,
                            end: t,
                            kind: SegmentKind::Recv { from: peer },
                        });
                    } else {
                        // A dropped transmission (incl. backoff): wire
                        // time paid on the sender, like a send.
                        segments.push(Segment {
                            rank,
                            start: e.start,
                            end: t,
                            kind: SegmentKind::Send { to: peer, class },
                        });
                    }
                    t = e.start;
                }
                EventKind::Phase { .. } => unreachable!("phase events were filtered out"),
            }
        }
        segments.reverse();
        CriticalPath { segments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::testing::{arbitrary_trace, compute, ev, recv, send};

    /// The covering lookup as it was before the trace index: scan all of the
    /// rank's leaves at every step of the walk. Kept as the oracle of
    /// [`indexed_cover_equals_the_rescan`].
    fn cover_rescan(trace: &Trace, rank: usize, t: VirtualTime) -> Result<usize, VirtualTime> {
        let evs: Vec<usize> = (0..trace.len())
            .filter(|&i| trace.events[i].rank == rank && !trace.events[i].kind.is_phase())
            .collect();
        let covering = evs
            .iter()
            .copied()
            .filter(|&i| trace.events[i].start < t && trace.events[i].end >= t)
            .max_by(|&a, &b| {
                let (ea, eb) = (&trace.events[a], &trace.events[b]);
                let local = |e: &crate::trace::Event| !matches!(e.kind, EventKind::Recv { .. });
                ea.end.cmp(&eb.end).then_with(|| local(ea).cmp(&local(eb)))
            });
        covering.ok_or_else(|| {
            let ends = evs.iter().map(|&i| trace.events[i].end);
            ends.filter(|&end| end <= t).max().unwrap_or(VirtualTime::ZERO)
        })
    }

    proptest::proptest! {
        #[test]
        fn indexed_cover_equals_the_rescan(t in arbitrary_trace()) {
            let rescan = t.walk_back(|rank, at| cover_rescan(&t, rank, at));
            assert_eq!(t.critical_path(), rescan);
        }
    }

    const C: LinkClass = LinkClass::IntraCluster;

    #[test]
    fn empty_trace_has_empty_path() {
        let p = Trace::default().critical_path();
        assert!(p.segments.is_empty());
        assert_eq!(p.total(), VirtualTime::ZERO);
    }

    #[test]
    fn single_rank_compute_chain() {
        let t = Trace::from_parts(vec![ev(0, 0.0, 1.0, compute(1)), ev(0, 1.0, 3.0, compute(2))]);
        let p = t.critical_path();
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.total(), t.makespan());
        assert!(p.segments.iter().all(|s| s.kind == SegmentKind::Compute));
    }

    #[test]
    fn path_follows_message_edge() {
        // Rank 0 computes then sends; rank 1's recv waits, then computes.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, compute(1)),
            ev(0, 1.0, 2.0, send(1, 8)),
            ev(1, 0.0, 2.0, recv(0, 8)),
            ev(1, 2.0, 3.0, compute(1)),
        ]);
        let p = t.critical_path();
        assert_eq!(p.total(), t.makespan());
        // Chain: rank0 compute [0,1] → rank0 send [1,2] → rank1 compute [2,3].
        let kinds: Vec<_> = p.segments.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (0, SegmentKind::Compute),
                (0, SegmentKind::Send { to: 1, class: C }),
                (1, SegmentKind::Compute),
            ]
        );
        let su = p.summary();
        assert_eq!(su.messages, 1);
        assert_eq!(su.wan_messages, 0);
        assert!((su.compute_s - 2.0).abs() < 1e-12);
        assert!((su.send_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nic_surplus_becomes_deliver_segment() {
        // Send completes at 2.0 but the recv only finishes at 2.5 (NIC
        // was busy): 0.5 s of Deliver on the receiver.
        let t = Trace::from_parts(vec![ev(0, 0.0, 2.0, send(1, 8)), ev(1, 0.0, 2.5, recv(0, 8))]);
        let p = t.critical_path();
        assert_eq!(p.total(), t.makespan());
        assert_eq!(
            p.segments.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![SegmentKind::Send { to: 1, class: C }, SegmentKind::Deliver { from: 0 },]
        );
        assert!((p.summary().deliver_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unmatched_recv_and_gap_are_covered() {
        // Rank 0's recv has no matching send in the trace; its timeline
        // also starts at 1.0, leaving a gap back to zero.
        let t = Trace::from_parts(vec![ev(0, 1.0, 3.0, recv(9, 8))]);
        let p = t.critical_path();
        assert_eq!(p.total(), t.makespan());
        assert_eq!(
            p.segments.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![SegmentKind::Gap, SegmentKind::Recv { from: 9 }]
        );
    }

    #[test]
    fn exchange_overlap_prefers_binding_constraint() {
        // An exchange-style overlap on rank 0: send [1,3] and recv
        // [1,2] overlap; the next compute starts at 3 (the send bound).
        let t = Trace::from_parts(vec![
            ev(1, 0.0, 2.0, send(0, 8)),
            ev(0, 1.0, 3.0, send(1, 8)),
            ev(0, 1.0, 2.0, recv(1, 8)),
            ev(0, 3.0, 4.0, compute(1)),
            ev(1, 2.0, 3.0, recv(0, 8)),
        ]);
        let p = t.critical_path();
        assert_eq!(p.total(), t.makespan());
        // Backward from compute [3,4]: the send [1,3] covers t=3 (the
        // recv ended at 2 and does not), then back to t=1... the recv
        // at [1,2] no longer matters; rank 1's send covers via... at
        // t=1 on rank 0 nothing covers → gap [0,1].
        let kinds: Vec<_> = p.segments.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (0, SegmentKind::Gap),
                (0, SegmentKind::Send { to: 1, class: C }),
                (0, SegmentKind::Compute),
            ]
        );
    }

    #[test]
    fn render_mentions_totals() {
        let t = Trace::from_parts(vec![ev(0, 0.0, 1.0, compute(1))]);
        let r = t.critical_path().render();
        assert!(r.contains("compute"));
        assert!(r.contains("total"));
    }
}
