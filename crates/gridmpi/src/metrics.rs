//! A typed metrics registry: per-rank, per-phase Eq. (1) counters.
//!
//! Every [`crate::Process`] carries a [`MetricsRegistry`] that is updated
//! on each `send`/`recv`/`compute`, bucketed by the algorithm phase the
//! rank program declared via [`crate::Process::phase_begin`] /
//! [`crate::Process::phase_end`] (work outside any phase lands in
//! [`UNPHASED`]). Unlike tracing — which records every event and is
//! opt-in — metrics are cheap aggregates and always on. The runtime
//! returns one registry per rank in [`crate::RunReport::metrics`];
//! [`MetricsRegistry::merged`] folds them into one.
//!
//! The schema is documented in `docs/observability.md`. In short, a
//! [`PhaseCounters`] is the paper's Eq. (1) ledger for one phase —
//! messages and bytes per link class (the `β` and `α` terms), flops (the
//! `γ` term) — plus the virtual seconds actually spent sending,
//! computing, and blocked in receives.

use std::fmt::Write as _;

use tsqr_netsim::LinkClass;

/// Phase label used for work recorded outside any open phase.
pub const UNPHASED: &str = "(unphased)";

/// Number of link-class buckets (mirrors [`LinkClass::N_BUCKETS`]).
const B: usize = LinkClass::N_BUCKETS;

/// Eq. (1) ledger for one phase: message/byte/flop counts plus the
/// virtual seconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCounters {
    /// Messages sent, per link-class bucket (see [`LinkClass::bucket`]).
    pub msgs: [u64; B],
    /// Payload bytes sent, per link-class bucket.
    pub bytes: [u64; B],
    /// Flops charged.
    pub flops: u64,
    /// Virtual seconds spent in blocking sends, per link-class bucket.
    pub send_s: [f64; B],
    /// Virtual seconds spent in [`crate::Process::compute`] (and
    /// [`crate::Process::advance`]).
    pub compute_s: f64,
    /// Virtual seconds the rank's clock was blocked waiting in receives
    /// — idle time, in the sense of the paper's timeline figures.
    pub recv_wait_s: f64,
}

impl PhaseCounters {
    /// Total messages across link classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes across link classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages that crossed a wide-area link.
    pub fn wan_msgs(&self) -> u64 {
        self.msgs[B - 1]
    }

    /// Counts one send of `bytes` in link-class bucket `b` that took `secs`.
    pub(crate) fn add_send(&mut self, b: usize, bytes: u64, secs: f64) {
        self.msgs[b] += 1;
        self.bytes[b] += bytes;
        self.send_s[b] += secs;
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &PhaseCounters) {
        for i in 0..B {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
            self.send_s[i] += other.send_s[i];
        }
        self.flops += other.flops;
        self.compute_s += other.compute_s;
        self.recv_wait_s += other.recv_wait_s;
    }
}

/// Per-phase counters for one rank (or, after merging, a whole run).
///
/// Phases keep insertion order, so a merged registry lists phases in the
/// order rank programs first entered them.
///
/// ```
/// use tsqr_gridmpi::metrics::MetricsRegistry;
/// use tsqr_netsim::LinkClass;
///
/// let mut m = MetricsRegistry::default();
/// m.record_compute(Some("leaf-qr"), 1_000, 0.5);
/// m.record_send(Some("tree-reduce"), LinkClass::InterCluster(0, 1), 120, 0.02);
/// m.record_recv(None, LinkClass::IntraNode, 120, 0.01);
///
/// assert_eq!(m.phase("leaf-qr").unwrap().flops, 1_000);
/// assert_eq!(m.phase("tree-reduce").unwrap().wan_msgs(), 1);
/// let total = m.total();
/// assert_eq!(total.total_bytes(), 120);       // only sends count bytes
/// assert!((total.recv_wait_s - 0.01).abs() < 1e-12);
/// assert!(m.render().contains("tree-reduce"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// `(phase, counters)` in first-entered order. Small (a handful of
    /// phases), so lookups are linear scans.
    phases: Vec<(&'static str, PhaseCounters)>,
}

impl MetricsRegistry {
    /// Folds per-rank registries into one, in rank order: phases in the
    /// order rank 0 first entered them, then any phases only later ranks
    /// saw, and every sum adds rank 0's value first.
    pub fn merged(ranks: &[MetricsRegistry]) -> MetricsRegistry {
        let mut out = MetricsRegistry::default();
        for (p, c) in ranks.iter().flat_map(|m| &m.phases) {
            out.phase_mut(p).merge(c);
        }
        out
    }

    /// The counters of `phase`, if any work was recorded under it.
    pub fn phase(&self, phase: &str) -> Option<&PhaseCounters> {
        self.phases.iter().find(|(p, _)| *p == phase).map(|(_, c)| c)
    }

    /// Mutable counters of `phase`, created on first touch.
    pub fn phase_mut(&mut self, phase: &'static str) -> &mut PhaseCounters {
        let i = self.phases.iter().position(|(p, _)| *p == phase).unwrap_or_else(|| {
            self.phases.push((phase, PhaseCounters::default()));
            self.phases.len() - 1
        });
        &mut self.phases[i].1
    }

    /// Phases in first-entered order.
    pub fn phase_names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|(p, _)| *p).collect()
    }

    /// Sum of all phase counters.
    pub fn total(&self) -> PhaseCounters {
        let mut out = PhaseCounters::default();
        for (_, c) in &self.phases {
            out.merge(c);
        }
        out
    }

    /// Records a send of `bytes` over `class` that took `secs`.
    pub fn record_send(
        &mut self,
        phase: Option<&'static str>,
        class: LinkClass,
        bytes: u64,
        secs: f64,
    ) {
        self.phase_mut(phase.unwrap_or(UNPHASED)).add_send(class.bucket(), bytes, secs);
    }

    /// Records a receive over `class` that blocked the clock for `secs`.
    /// (`bytes` is accepted for symmetry; received volume equals sent
    /// volume, so only sends count toward byte totals.)
    pub fn record_recv(
        &mut self,
        phase: Option<&'static str>,
        class: LinkClass,
        bytes: u64,
        secs: f64,
    ) {
        let _ = (class, bytes);
        self.phase_mut(phase.unwrap_or(UNPHASED)).recv_wait_s += secs;
    }

    /// Records a computation of `flops` that took `secs`.
    pub fn record_compute(&mut self, phase: Option<&'static str>, flops: u64, secs: f64) {
        let c = self.phase_mut(phase.unwrap_or(UNPHASED));
        c.flops += flops;
        c.compute_s += secs;
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Renders a per-phase table: one row per phase, message/byte/flop
    /// counts per link class, and the time split.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>18} {:>20} {:>14} {:>10} {:>10} {:>10}",
            "phase", "msgs n/c/w", "bytes n/c/w", "flops", "send s", "comp s", "wait s"
        );
        let mut rows: Vec<(&str, PhaseCounters)> =
            self.phases.iter().map(|(p, c)| (*p, *c)).collect();
        rows.push(("TOTAL", self.total()));
        for (p, c) in rows {
            let _ = writeln!(
                out,
                "{:<16} {:>18} {:>20} {:>14} {:>10.4} {:>10.4} {:>10.4}",
                p,
                format!("{}/{}/{}", c.msgs[0], c.msgs[1], c.msgs[2]),
                format!("{}/{}/{}", c.bytes[0], c.bytes[1], c.bytes[2]),
                c.flops,
                c.send_s.iter().sum::<f64>(),
                c.compute_s,
                c.recv_wait_s,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_buckets_by_phase_and_class() {
        let mut m = MetricsRegistry::default();
        m.record_send(Some("panel"), LinkClass::IntraNode, 100, 0.001);
        m.record_send(Some("panel"), LinkClass::InterCluster(0, 2), 200, 0.010);
        m.record_compute(Some("update"), 5_000, 0.5);
        m.record_recv(None, LinkClass::IntraCluster, 100, 0.002);

        assert_eq!(m.phase_names(), vec!["panel", "update", UNPHASED]);
        let panel = m.phase("panel").unwrap();
        assert_eq!(panel.msgs, [1, 0, 1]);
        assert_eq!(panel.bytes, [100, 0, 200]);
        assert_eq!(panel.wan_msgs(), 1);
        assert_eq!(m.phase("update").unwrap().flops, 5_000);
        assert!((m.phase(UNPHASED).unwrap().recv_wait_s - 0.002).abs() < 1e-12);

        let t = m.total();
        assert_eq!(t.total_msgs(), 2);
        assert_eq!(t.total_bytes(), 300);
        assert_eq!(t.flops, 5_000);
    }

    #[test]
    fn registry_merge_is_elementwise() {
        let mut a = MetricsRegistry::default();
        a.record_send(Some("panel"), LinkClass::IntraNode, 10, 0.1);
        let mut b = MetricsRegistry::default();
        b.record_send(Some("panel"), LinkClass::IntraNode, 30, 0.2);
        b.record_compute(Some("update"), 7, 0.3);
        let m = MetricsRegistry::merged(&[a, b]);
        let p = m.phase("panel").unwrap();
        assert_eq!(p.msgs[0], 2);
        assert_eq!(p.bytes[0], 40);
        assert!((p.send_s[0] - 0.3).abs() < 1e-12);
        assert_eq!(m.phase("update").unwrap().flops, 7);
    }

    #[test]
    fn merged_keeps_first_entered_phase_order_across_ranks() {
        // Rank 0 enters "panel" only; rank 1 first enters "update", then
        // "panel"; rank 2 first enters "drain". The fold lists rank 0's
        // phases, then each phase in the order a later rank first entered it.
        let mut r0 = MetricsRegistry::default();
        r0.record_send(Some("panel"), LinkClass::IntraNode, 10, 0.1);
        let mut r1 = MetricsRegistry::default();
        r1.record_compute(Some("update"), 7, 0.3);
        r1.record_send(Some("panel"), LinkClass::IntraCluster, 20, 0.2);
        let mut r2 = MetricsRegistry::default();
        r2.record_recv(Some("drain"), LinkClass::InterCluster(0, 1), 8, 0.5);
        r2.record_compute(Some("update"), 5, 0.25);
        let ranks = [r0, r1, r2];
        let m = MetricsRegistry::merged(&ranks);
        assert_eq!(m.phase_names(), vec!["panel", "update", "drain"]);
        // The sums are the per-rank values added in rank order.
        let panel = m.phase("panel").unwrap();
        assert_eq!(panel.msgs, [1, 1, 0]);
        assert_eq!(panel.bytes, [10, 20, 0]);
        assert_eq!(panel.send_s, [0.1, 0.2, 0.0]);
        let update = m.phase("update").unwrap();
        assert_eq!(update.flops, 12);
        assert_eq!(update.compute_s, 0.0 + 0.3 + 0.25);
        assert_eq!(m.phase("drain").unwrap().recv_wait_s, 0.5);
        let total = m.total();
        assert_eq!(total.total_msgs(), 2);
        assert_eq!(total.flops, 12);
        // Folding a fold changes nothing, nor does an empty rank.
        assert_eq!(MetricsRegistry::merged(&[m.clone(), MetricsRegistry::default()]), m);
        assert!(MetricsRegistry::merged(&[]).is_empty());
    }

    #[test]
    fn render_lists_every_phase_and_total() {
        let mut m = MetricsRegistry::default();
        m.record_compute(Some("leaf-qr"), 42, 0.1);
        m.record_send(Some("tree-reduce"), LinkClass::IntraCluster, 8, 0.01);
        let s = m.render();
        assert!(s.contains("leaf-qr"));
        assert!(s.contains("tree-reduce"));
        assert!(s.contains("TOTAL"));
        assert_eq!(s.lines().count(), 1 + 2 + 1); // header + phases + total
    }
}
