//! Virtual-time profiler: collapsed folded stacks from phase-span traces.
//!
//! Converts a [`Trace`] into the *folded stack* format understood by
//! flamegraph tooling (inferno's `flamegraph.pl` input, speedscope's
//! "collapsed" importer): one line per unique stack,
//!
//! ```text
//! rank3;tree-reduce;send 123456789
//! ```
//!
//! where the trailing integer is **self time in virtual nanoseconds**.
//! Frames are the rank (per-rank view only), the open algorithm phases
//! outer-first, and a leaf naming what the rank was doing: `compute`,
//! `send`, `recv-wait`, `fault-<kind>`, or `(idle)` for spans covered by
//! no traced event.
//!
//! # The tiling invariant
//!
//! The profile is an exact *tiling* of every rank's timeline: leaf
//! self-times are clipped against each other (overlap is never counted
//! twice) and the uncovered remainder is attributed to `(idle)`, so for
//! every rank
//!
//! ```text
//! Σ leaf self-times == that rank's makespan   (within 1e-9 relative)
//! ```
//!
//! [`FoldedProfile::max_tiling_error_rel`] measures the worst-case
//! violation; the bench harness asserts it on every Fig. 4–8 scenario,
//! and a proptest asserts it on random reduction trees. This is the
//! property that makes the flamegraph trustworthy — the widths *are*
//! the timeline, nothing is dropped or double-counted.

use std::collections::BTreeMap;

use crate::trace::{Event, EventKind, Trace};

/// Divisions finer than this are noise for virtual-time spans.
const TINY: f64 = f64::MIN_POSITIVE;

/// A folded-stack profile of one traced run.
#[derive(Debug, Clone, Default)]
pub struct FoldedProfile {
    /// Per-rank map from `phase;phase;leaf` stack to self seconds.
    /// `BTreeMap` so every render is deterministic.
    stacks: Vec<BTreeMap<String, f64>>,
    /// Per-rank makespan: the end of the rank's last traced event.
    makespans: Vec<f64>,
}

/// The leaf frame of a non-phase event.
fn leaf_label(kind: &EventKind) -> String {
    match kind {
        EventKind::Send { .. } => "send".to_string(),
        EventKind::Recv { .. } => "recv-wait".to_string(),
        EventKind::Compute { .. } => "compute".to_string(),
        EventKind::Fault { kind, .. } => format!("fault-{}", kind.label()),
        EventKind::Phase { .. } => unreachable!("phase events are frames, not leaves"),
    }
}

/// One rank's phase spans, walked left to right along with its timeline.
struct PhaseSweep<'a> {
    /// Every phase span in frame order — start ascending, end descending,
    /// then name — so an enclosing phase precedes the phases it encloses.
    phases: Vec<&'a Event>,
    /// `phases[..started]` began at or before the last instant asked about.
    started: usize,
    /// Those of them that had not ended by then, still in frame order.
    open: Vec<&'a Event>,
}

fn phase_name(phase: &Event) -> &'static str {
    match phase.kind {
        EventKind::Phase { name } => name,
        _ => unreachable!("only phase events are swept"),
    }
}

impl<'a> PhaseSweep<'a> {
    fn new(mut phases: Vec<&'a Event>) -> Self {
        phases.sort_by(|a, b| {
            a.start.cmp(&b.start).then(b.end.cmp(&a.end)).then(phase_name(a).cmp(phase_name(b)))
        });
        PhaseSweep { phases, started: 0, open: Vec::new() }
    }

    /// The phase stack open at instant `t`, outer-first: the names of all
    /// spans containing `t`. Instants must be asked about in ascending
    /// order.
    fn stack_at(&mut self, t: f64) -> Vec<&'static str> {
        while let Some(next) = self.phases.get(self.started).filter(|p| p.start.secs() <= t) {
            self.open.push(next);
            self.started += 1;
        }
        self.open.retain(|p| t < p.end.secs());
        self.open.iter().map(|p| phase_name(p)).collect()
    }

    /// `from`, `to` and every phase boundary strictly between them,
    /// ascending; `from` must not precede the last instant asked about.
    fn cuts(&self, from: f64, to: f64) -> Vec<f64> {
        // A span that ended before the last instant asked about ended
        // before `from`, and one starting at or after `to` has both ends
        // outside: the open spans and the ones starting before `to` are all
        // that can cut.
        let upcoming = self.phases[self.started..].iter().take_while(|p| p.start.secs() < to);
        let mut cuts = vec![from, to];
        for p in self.open.iter().chain(upcoming) {
            cuts.extend([p.start.secs(), p.end.secs()].into_iter().filter(|&t| from < t && t < to));
        }
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("virtual times are finite"));
        cuts
    }
}

fn stack_key(frames: &[&str], leaf: &str) -> String {
    let mut key = String::new();
    for f in frames {
        key.push_str(f);
        key.push(';');
    }
    key.push_str(leaf);
    key
}

impl FoldedProfile {
    /// Profiles a trace. `num_ranks` sets the minimum number of rank
    /// rows (ranks with no events profile as empty with zero makespan);
    /// ranks appearing in the trace beyond it are included as well.
    pub fn from_trace(trace: &Trace, num_ranks: usize) -> FoldedProfile {
        let ranks = trace.ranks.len().max(num_ranks);
        let mut stacks = vec![BTreeMap::new(); ranks];
        let mut makespans = vec![0.0f64; ranks];
        for (rank, ix) in trace.ranks.iter().enumerate() {
            let event = |&i: &usize| &trace.events[i];
            let ends = ix.leaves.iter().chain(&ix.phases).map(|i| event(i).end.secs());
            let makespan = ends.fold(0.0, f64::max);
            makespans[rank] = makespan;
            let mut phases = PhaseSweep::new(ix.phases.iter().map(event).collect());
            let stacks = &mut stacks[rank];

            // Sweep the rank's timeline left to right. `cursor` is the
            // instant everything before which has been tiled already;
            // clipping each leaf event to [cursor, ∞) makes
            // double-counting impossible even if spans overlap, and the
            // gaps between leaves are filled with `(idle)`.
            let mut cursor = 0.0f64;
            for leaf in ix.leaves.iter().map(event) {
                let (s, e) = (leaf.start.secs(), leaf.end.secs());
                if s > cursor {
                    Self::tile_idle(stacks, &mut phases, cursor, s);
                }
                let clipped = s.max(cursor);
                if e > clipped {
                    let mut frames = phases.stack_at(0.5 * (clipped + e));
                    if frames.is_empty() {
                        // Defensive: a leaf recorded under a phase whose
                        // span was never closed (errored rank program).
                        frames.extend(leaf.phase);
                    }
                    *stacks.entry(stack_key(&frames, &leaf_label(&leaf.kind))).or_insert(0.0) +=
                        e - clipped;
                }
                cursor = cursor.max(e);
            }
            if makespan > cursor {
                Self::tile_idle(stacks, &mut phases, cursor, makespan);
            }
        }
        FoldedProfile { stacks, makespans }
    }

    /// Tiles `[from, to)` with `(idle)` leaves, splitting at every phase
    /// boundary inside the span so each piece lands under the phase
    /// stack actually open there.
    fn tile_idle(map: &mut BTreeMap<String, f64>, phases: &mut PhaseSweep, from: f64, to: f64) {
        for w in phases.cuts(from, to).windows(2) {
            let (s, e) = (w[0], w[1]);
            if e > s {
                *map.entry(stack_key(&phases.stack_at(0.5 * (s + e)), "(idle)")).or_insert(0.0) +=
                    e - s;
            }
        }
    }

    /// Number of rank rows.
    pub fn num_ranks(&self) -> usize {
        self.stacks.len()
    }

    /// One rank's makespan (end of its last traced event) in seconds.
    pub fn rank_makespan(&self, rank: usize) -> f64 {
        self.makespans[rank]
    }

    /// Sum of one rank's leaf self-times in seconds. Equal to
    /// [`Self::rank_makespan`] within 1e-9 relative — the tiling
    /// invariant.
    pub fn rank_total(&self, rank: usize) -> f64 {
        self.stacks[rank].values().sum()
    }

    /// Worst per-rank relative tiling error:
    /// `max over ranks of |Σ self − makespan| / makespan`.
    pub fn max_tiling_error_rel(&self) -> f64 {
        (0..self.num_ranks())
            .map(|r| {
                let m = self.rank_makespan(r);
                (self.rank_total(r) - m).abs() / m.max(TINY)
            })
            .fold(0.0, f64::max)
    }

    /// The tiling invariant: [`Self::max_tiling_error_rel`] within 1e-9,
    /// or what went wrong.
    pub fn check_tiling(&self) -> Result<f64, String> {
        let err = self.max_tiling_error_rel();
        (err <= 1e-9).then_some(err).ok_or_else(|| {
            format!(
                "folded profile does not tile the per-rank timelines \
                 (max rel err {err:.3e}, tol 1e-9)"
            )
        })
    }

    /// Renders the per-rank folded stacks, one `rank<i>;stack count`
    /// line each, counts in integer virtual nanoseconds. Deterministic:
    /// ranks ascending, stacks in lexicographic order.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (rank, stacks) in self.stacks.iter().enumerate() {
            for (key, secs) in stacks {
                out.push_str(&format!("rank{rank};{key} {}\n", nanos(*secs)));
            }
        }
        out
    }

    /// Renders the rank-aggregated folded stacks (no `rank<i>` frame;
    /// self-times summed across ranks).
    pub fn render_aggregate(&self) -> String {
        let mut merged: BTreeMap<&str, f64> = BTreeMap::new();
        for stacks in &self.stacks {
            for (key, secs) in stacks {
                *merged.entry(key.as_str()).or_insert(0.0) += *secs;
            }
        }
        let mut out = String::new();
        for (key, secs) in merged {
            out.push_str(&format!("{key} {}\n", nanos(secs)));
        }
        out
    }

    /// The `k` hottest stacks across all ranks by aggregated self time,
    /// as `(stack, self seconds, share of Σ makespans)`. Ties broken by
    /// stack name, so the order is deterministic.
    fn hot_phases(&self, k: usize) -> Vec<(String, f64, f64)> {
        let mut merged: BTreeMap<&str, f64> = BTreeMap::new();
        for stacks in &self.stacks {
            for (key, secs) in stacks {
                *merged.entry(key.as_str()).or_insert(0.0) += *secs;
            }
        }
        let total: f64 = self.makespans.iter().sum();
        let mut rows: Vec<(String, f64, f64)> = merged
            .into_iter()
            .map(|(key, secs)| (key.to_string(), secs, secs / total.max(TINY)))
            .collect();
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("self times are finite").then_with(|| a.0.cmp(&b.0))
        });
        rows.truncate(k);
        rows
    }

    /// Renders `Self::hot_phases` as an aligned text table.
    pub fn render_hot_table(&self, k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<48} {:>14} {:>8}", "stack", "self (s)", "share");
        for (stack, secs, share) in self.hot_phases(k) {
            let _ = writeln!(out, "{stack:<48} {secs:>14.6} {:>7.2}%", share * 100.0);
        }
        out
    }
}

/// Seconds → integer virtual nanoseconds (rounded).
fn nanos(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::testing::{compute, ev, pev, phase, send};
    use tsqr_netsim::LinkClass;

    /// The profiler as it was before the phase stack was carried along the
    /// sweep: for every leaf and every idle piece, filter and sort all of
    /// the rank's phases again. Kept as the oracle of
    /// [`sweep_matches_the_rescanning_oracle`].
    fn from_trace_rescan(trace: &Trace, num_ranks: usize) -> FoldedProfile {
        fn phase_stack_at(phases: &[&Event], t: f64) -> Vec<&'static str> {
            let mut open: Vec<&Event> = phases
                .iter()
                .copied()
                .filter(|p| p.start.secs() <= t && t < p.end.secs())
                .collect();
            open.sort_by(|a, b| {
                a.start.cmp(&b.start).then(b.end.cmp(&a.end)).then_with(|| {
                    match (&a.kind, &b.kind) {
                        (EventKind::Phase { name: an }, EventKind::Phase { name: bn }) => {
                            an.cmp(bn)
                        }
                        _ => std::cmp::Ordering::Equal,
                    }
                })
            });
            open.iter().map(|p| phase_name(p)).collect()
        }
        fn add(map: &mut BTreeMap<String, f64>, key: String, width: f64) {
            if width > 0.0 {
                *map.entry(key).or_insert(0.0) += width;
            }
        }
        fn tile_idle(map: &mut BTreeMap<String, f64>, phases: &[&Event], from: f64, to: f64) {
            let mut cuts: Vec<f64> = vec![from];
            for p in phases {
                for t in [p.start.secs(), p.end.secs()] {
                    if from < t && t < to {
                        cuts.push(t);
                    }
                }
            }
            cuts.push(to);
            cuts.sort_by(|a, b| a.partial_cmp(b).expect("virtual times are finite"));
            for w in cuts.windows(2) {
                let (s, e) = (w[0], w[1]);
                let frames = phase_stack_at(phases, 0.5 * (s + e));
                add(map, stack_key(&frames, "(idle)"), e - s);
            }
        }
        let ranks = trace.events.iter().map(|e| e.rank + 1).max().unwrap_or(0).max(num_ranks);
        let mut stacks = vec![BTreeMap::new(); ranks];
        let mut makespans = vec![0.0; ranks];
        for rank in 0..ranks {
            let events = trace.rank_events(rank);
            let phases: Vec<&Event> =
                events.iter().copied().filter(|e| e.kind.is_phase()).collect();
            let leaves: Vec<&Event> =
                events.iter().copied().filter(|e| !e.kind.is_phase()).collect();
            let makespan = events.iter().map(|e| e.end.secs()).fold(0.0, f64::max);
            makespans[rank] = makespan;
            let mut cursor = 0.0f64;
            for leaf in &leaves {
                let (s, e) = (leaf.start.secs(), leaf.end.secs());
                if s > cursor {
                    tile_idle(&mut stacks[rank], &phases, cursor, s);
                }
                let clipped = s.max(cursor);
                if e > clipped {
                    let mut frames = phase_stack_at(&phases, 0.5 * (clipped + e));
                    if frames.is_empty() {
                        if let Some(p) = leaf.phase {
                            frames.push(p);
                        }
                    }
                    add(
                        &mut stacks[rank],
                        stack_key(&frames, &leaf_label(&leaf.kind)),
                        e - clipped,
                    );
                }
                cursor = cursor.max(e);
            }
            if makespan > cursor {
                tile_idle(&mut stacks[rank], &phases, cursor, makespan);
            }
        }
        FoldedProfile { stacks, makespans }
    }

    /// Bit-for-bit: same stacks, and every self time the same sum of the
    /// same widths in the same order.
    fn assert_same_profile(trace: &Trace, num_ranks: usize) {
        let bits = |p: FoldedProfile| -> (Vec<Vec<(String, u64)>>, Vec<u64>) {
            let stacks = p.stacks.into_iter();
            (
                stacks.map(|m| m.into_iter().map(|(k, v)| (k, v.to_bits())).collect()).collect(),
                p.makespans.into_iter().map(f64::to_bits).collect(),
            )
        };
        assert_eq!(
            bits(FoldedProfile::from_trace(trace, num_ranks)),
            bits(from_trace_rescan(trace, num_ranks))
        );
    }

    proptest::proptest! {
        /// Arbitrary spans on a coarse time grid, so that starts and ends
        /// coincide: phases that nest, overlap partially or repeat, leaves
        /// that overlap, have zero width or lie outside every phase.
        #[test]
        fn sweep_matches_the_rescanning_oracle(
            spans in proptest::collection::vec(((0usize..3, 0u32..14, 0u32..6), (0usize..8, 0usize..4)), 0..48),
        ) {
            let names = ["panel", "leaf-qr", "tree-reduce"];
            let events = spans.into_iter().map(|((rank, start, width), (kind, name))| {
                let tag = names.get(name).copied();
                let kind = match kind {
                    0..=2 => phase(names[name % 3]),
                    3 | 4 => compute(1),
                    5 => send(0, 8),
                    6 => EventKind::Recv {
                        from: 0, bytes: 8, class: LinkClass::IntraCluster, tag: 0, wildcard: false,
                    },
                    _ => EventKind::Fault {
                        peer: 0, class: LinkClass::IntraCluster, kind: crate::FaultKind::DropObserved,
                    },
                };
                let tag = if kind.is_phase() { None } else { tag };
                let (s, e) = (0.25 * f64::from(start), 0.25 * f64::from(start + width));
                Event { phase: tag, ..ev(rank, s, e, kind) }
            });
            assert_same_profile(&Trace::from_parts(events.collect()), 3);
        }
    }

    #[test]
    fn sweep_matches_the_oracle_on_a_traced_run() {
        use tsqr_netsim::{two_tier_grid, LinkParams};
        let lan = LinkParams::from_ms_mbps(0.1, 800.0);
        let wan = LinkParams::from_ms_mbps(10.0, 100.0);
        let (topo, model) = two_tier_grid(2, 3, lan, wan, 1e9);
        let mut rt = crate::Runtime::new(topo, model);
        rt.enable_tracing();
        let report = rt.run(|p, world| {
            p.phase_begin("panel");
            for round in 0..3u64 {
                p.phase_begin("leaf-qr");
                p.compute((p.rank() as u64 + 1 + round) * 1_000_000, None);
                p.phase_end();
                p.phase_begin("tree-reduce");
                world.allreduce(p, vec![p.rank() as f64; 64], |a, _| a)?;
                p.phase_end();
            }
            p.phase_end();
            world.allreduce(p, (), |_, _| ())
        });
        let trace = report.trace.expect("tracing was enabled");
        assert!(trace.events.iter().any(|e| e.kind.is_phase()) && trace.len() > 100);
        assert_same_profile(&trace, 6);
    }

    #[test]
    fn tiles_phased_leaves_gaps_and_idle_tail() {
        // rank 0: [0,1) compute in leaf-qr, [1,1.5) idle inside
        // tree-reduce, [1.5,2) send in tree-reduce, [2,2.5) idle outside
        // any phase (trailing, bounded by rank 0's own phase span end).
        let t = Trace::from_parts(vec![
            pev(0, 0.0, 1.0, "leaf-qr", compute(10)),
            ev(0, 0.0, 1.0, phase("leaf-qr")),
            pev(0, 1.5, 2.0, "tree-reduce", send(1, 8)),
            ev(0, 1.0, 2.0, phase("tree-reduce")),
            ev(0, 2.0, 2.5, compute(1)),
        ]);
        let p = FoldedProfile::from_trace(&t, 1);
        let folded = p.render_folded();
        assert!(folded.contains("rank0;leaf-qr;compute 1000000000\n"), "{folded}");
        assert!(folded.contains("rank0;tree-reduce;(idle) 500000000\n"), "{folded}");
        assert!(folded.contains("rank0;tree-reduce;send 500000000\n"), "{folded}");
        assert!(folded.contains("rank0;compute 500000000\n"), "{folded}");
        assert!(p.max_tiling_error_rel() < 1e-9, "{}", p.max_tiling_error_rel());
        assert_eq!(p.rank_makespan(0), 2.5);
    }

    #[test]
    fn nested_phases_stack_outer_first() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 4.0, phase("panel")),
            ev(0, 1.0, 3.0, phase("panel-leaf")),
            pev(0, 1.0, 3.0, "panel-leaf", compute(5)),
        ]);
        let p = FoldedProfile::from_trace(&t, 1);
        let folded = p.render_folded();
        assert!(folded.contains("rank0;panel;panel-leaf;compute 2000000000\n"), "{folded}");
        // The [0,1) and [3,4) remainders are idle under `panel` only.
        assert!(folded.contains("rank0;panel;(idle) 2000000000\n"), "{folded}");
        assert!(p.max_tiling_error_rel() < 1e-9);
    }

    #[test]
    fn overlapping_leaves_never_double_count() {
        // Two overlapping compute spans: the second is clipped.
        let t = Trace::from_parts(vec![ev(0, 0.0, 2.0, compute(1)), ev(0, 1.0, 3.0, compute(1))]);
        let p = FoldedProfile::from_trace(&t, 1);
        assert!((p.rank_total(0) - 3.0).abs() < 1e-12);
        assert!(p.max_tiling_error_rel() < 1e-9);
    }

    #[test]
    fn idle_splits_at_phase_boundaries() {
        // A completely idle rank whose only events are two adjacent
        // phase spans: idle time must split per phase.
        let t = Trace::from_parts(vec![ev(0, 0.0, 1.0, phase("a")), ev(0, 1.0, 3.0, phase("b"))]);
        let p = FoldedProfile::from_trace(&t, 1);
        let folded = p.render_folded();
        assert!(folded.contains("rank0;a;(idle) 1000000000\n"), "{folded}");
        assert!(folded.contains("rank0;b;(idle) 2000000000\n"), "{folded}");
        assert!(p.max_tiling_error_rel() < 1e-9);
    }

    #[test]
    fn aggregate_merges_ranks_and_hot_phases_rank() {
        let t = Trace::from_parts(vec![
            pev(0, 0.0, 2.0, "leaf-qr", compute(1)),
            ev(0, 0.0, 2.0, phase("leaf-qr")),
            pev(1, 0.0, 1.0, "leaf-qr", compute(1)),
            ev(1, 0.0, 1.0, phase("leaf-qr")),
            pev(1, 1.0, 2.0, "tree-reduce", send(0, 8)),
            ev(1, 1.0, 2.0, phase("tree-reduce")),
        ]);
        let p = FoldedProfile::from_trace(&t, 2);
        assert_eq!(
            p.render_aggregate(),
            "leaf-qr;compute 3000000000\ntree-reduce;send 1000000000\n"
        );
        let hot = p.hot_phases(2);
        assert_eq!(hot[0].0, "leaf-qr;compute");
        assert!((hot[0].1 - 3.0).abs() < 1e-12);
        assert!((hot[0].2 - 0.75).abs() < 1e-12);
        assert!(p.render_hot_table(2).contains("leaf-qr;compute"));
    }

    #[test]
    fn empty_and_padded_ranks_are_benign() {
        let t = Trace::from_parts(vec![ev(2, 0.0, 1.0, compute(1))]);
        let p = FoldedProfile::from_trace(&t, 5);
        assert_eq!(p.num_ranks(), 5);
        assert_eq!(p.rank_makespan(0), 0.0);
        assert_eq!(p.rank_total(0), 0.0);
        assert!(p.max_tiling_error_rel() < 1e-9);
        let empty = FoldedProfile::from_trace(&Trace::default(), 0);
        assert_eq!(empty.num_ranks(), 0);
        assert_eq!(empty.max_tiling_error_rel(), 0.0);
        assert_eq!(empty.render_folded(), "");
    }

    #[test]
    fn unclosed_phase_falls_back_to_event_phase_field() {
        // No Phase span exists (errored program), but the leaf knows its
        // innermost phase.
        let t = Trace::from_parts(vec![pev(0, 0.0, 1.0, "leaf-qr", compute(1))]);
        let p = FoldedProfile::from_trace(&t, 1);
        assert!(p.render_folded().contains("rank0;leaf-qr;compute 1000000000\n"));
    }
}
