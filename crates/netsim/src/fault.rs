//! Deterministic, virtual-time failure schedules.
//!
//! A grid is a volatile environment: nodes crash, wide-area links between
//! sites degrade, and individual messages are lost. The paper targets the
//! QCG-OMPI middleware precisely because plain MPI gives up on such
//! platforms; our simulator therefore needs a way to *script* failures so
//! that robustness experiments are reproducible.
//!
//! A [`FailureSchedule`] is that script. It is consulted by the simulated
//! runtime (`gridmpi`) at every send/receive and by the Eq. (1) cost model
//! when pricing messages:
//!
//! * **rank crashes** — rank `r` dies at virtual time *t*; every operation
//!   it attempts at or after *t* fails, and peers detect the death via a
//!   virtual-time deadline rather than a wall-clock guess;
//! * **permanent link failures** — the directed link `src → dst` is down
//!   for the whole run (this subsumes the former static `failed_links`
//!   set of the runtime);
//! * **transient message drops** — either "drop the `n`-th message on a
//!   directed pair" (precise, for unit tests) or a seeded per-message
//!   coin flip (reproducible: the same seed always drops the same
//!   messages);
//! * **WAN-link degradation** — for a virtual-time window, a link class
//!   has its latency multiplied and its bandwidth divided by a factor
//!   (e.g. cross-traffic on the Orsay–Toulouse path between *t*₀ and
//!   *t*₁).
//!
//! # Determinism contract
//!
//! Every query is a pure function of the schedule and its arguments —
//! no wall clock, no global RNG. Two runs with the same (matrix,
//! schedule, seed) observe byte-identical failures, which is what makes
//! the self-healing TSQR's recovered R bitwise reproducible. An **empty**
//! schedule answers "no" to everything and leaves message pricing
//! bit-identical to the schedule-free path (the perf-regression gate
//! relies on this).

use crate::cost::{CostModel, LinkClass, LinkParams};
use crate::time::VirtualTime;
use crate::topology::ProcLocation;

/// A scripted degradation of one link class during a virtual-time window.
///
/// While `from <= t < until`, any message on a link of class `class`
/// (coarse bucket match for `wan`: any inter-cluster pair unless a
/// specific site pair is given) is priced with `latency × latency_factor`
/// and `bandwidth ÷ bandwidth_divisor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Which link class is degraded. `InterCluster(a, b)` (with `a < b`)
    /// hits only that site pair; to degrade *all* WAN links use
    /// [`FailureSchedule::degrade_all_wan`].
    pub class: LinkClass,
    /// Start of the window (inclusive), in virtual time.
    pub from: VirtualTime,
    /// End of the window (exclusive), in virtual time.
    pub until: VirtualTime,
    /// Latency multiplier (`k ≥ 1` for a degradation).
    pub latency_factor: f64,
    /// Bandwidth divisor (`k ≥ 1` for a degradation).
    pub bandwidth_divisor: f64,
}

impl Degradation {
    /// True when this window is active at time `t` for a link of
    /// class `class`.
    fn applies(&self, class: LinkClass, t: VirtualTime) -> bool {
        let class_match = match self.class {
            LinkClass::InterCluster(usize::MAX, _) => class.is_inter_cluster(),
            c => c == class,
        };
        class_match && t >= self.from && t < self.until
    }

    /// The degraded parameters for `base`.
    fn apply(&self, base: LinkParams) -> LinkParams {
        LinkParams {
            latency_s: base.latency_s * self.latency_factor,
            bandwidth_bps: base.bandwidth_bps / self.bandwidth_divisor,
        }
    }
}

/// A precise transient-drop rule: lose the `nth` (0-based) message sent
/// on the directed pair `src → dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DropNth {
    src: usize,
    dst: usize,
    nth: u64,
}

/// A seeded probabilistic drop rule on a directed pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DropProb {
    src: usize,
    dst: usize,
    prob: f64,
}

/// A deterministic, virtual-time script of failures (see the module docs
/// for the failure classes and the determinism contract).
///
/// Build one with the fluent methods and hand it to the runtime:
///
/// ```
/// use tsqr_netsim::{FailureSchedule, VirtualTime};
///
/// let sched = FailureSchedule::new(42)
///     .crash_rank(3, VirtualTime::from_millis(5.0))
///     .drop_nth_message(0, 1, 0); // lose the first message 0 → 1
/// assert_eq!(sched.crash_time(3), Some(VirtualTime::from_millis(5.0)));
/// assert!(sched.should_drop(0, 1, 0));
/// assert!(!sched.should_drop(0, 1, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSchedule {
    /// Seed for the probabilistic drop coin flips.
    seed: u64,
    /// `(rank, crash time)` pairs; a rank appears at most once.
    crashes: Vec<(usize, VirtualTime)>,
    /// `(site, crash time)` pairs for whole-cluster failures; a site
    /// appears at most once. The serving layer's failure unit.
    site_crashes: Vec<(usize, VirtualTime)>,
    /// Directed links that are down for the whole run.
    downed_links: Vec<(usize, usize)>,
    /// Precise drop rules.
    drop_nth: Vec<DropNth>,
    /// Probabilistic drop rules.
    drop_prob: Vec<DropProb>,
    /// Degradation windows.
    degradations: Vec<Degradation>,
}

impl Default for FailureSchedule {
    fn default() -> Self {
        FailureSchedule::new(0)
    }
}

impl FailureSchedule {
    /// An empty schedule with the given drop-coin seed.
    pub fn new(seed: u64) -> Self {
        FailureSchedule {
            seed,
            crashes: Vec::new(),
            site_crashes: Vec::new(),
            downed_links: Vec::new(),
            drop_nth: Vec::new(),
            drop_prob: Vec::new(),
            degradations: Vec::new(),
        }
    }

    /// True when the schedule contains no failure of any kind.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.site_crashes.is_empty()
            && self.downed_links.is_empty()
            && self.drop_nth.is_empty()
            && self.drop_prob.is_empty()
            && self.degradations.is_empty()
    }

    /// The seed used by the probabilistic drop rules.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    // ---- builders ------------------------------------------------------

    /// Schedules rank `rank` to crash at virtual time `at`. A crashed
    /// rank fails every operation it attempts at or after `at`, and
    /// peers observe the crash through the failure detector.
    ///
    /// # Panics
    /// Panics if the rank already has a crash scheduled.
    pub fn crash_rank(mut self, rank: usize, at: VirtualTime) -> Self {
        assert!(
            self.crashes.iter().all(|&(r, _)| r != rank),
            "rank {rank} already has a crash scheduled"
        );
        self.crashes.push((rank, at));
        self
    }

    /// Schedules catalog cluster `site` to disappear entirely at virtual
    /// time `at` — the grid-level failure unit (a whole QCG site drops
    /// off the grid, taking every node it hosts with it). Consumed by
    /// the serving engine: leases on the dead site are killed, its slots
    /// are written off, and it never hosts another allocation. Rank-level
    /// crashes ([`FailureSchedule::crash_rank`]) are a separate,
    /// unaffected axis used by the `gridmpi` runtime.
    ///
    /// # Panics
    /// Panics if the site already has a crash scheduled.
    pub fn crash_site(mut self, site: usize, at: VirtualTime) -> Self {
        assert!(
            self.site_crashes.iter().all(|&(s, _)| s != site),
            "site {site} already has a crash scheduled"
        );
        self.site_crashes.push((site, at));
        self
    }

    /// Marks the directed link `src → dst` as permanently down.
    pub fn fail_link(mut self, src: usize, dst: usize) -> Self {
        if !self.downed_links.contains(&(src, dst)) {
            self.downed_links.push((src, dst));
        }
        self
    }

    /// Drops the `nth` (0-based) message sent on the directed pair
    /// `src → dst`.
    pub fn drop_nth_message(mut self, src: usize, dst: usize, nth: u64) -> Self {
        self.drop_nth.push(DropNth { src, dst, nth });
        self
    }

    /// Drops each message on the directed pair `src → dst` independently
    /// with probability `prob`, using a deterministic per-message coin
    /// seeded by the schedule seed.
    ///
    /// # Panics
    /// Panics unless `0 ≤ prob ≤ 1`.
    pub fn drop_probability(mut self, src: usize, dst: usize, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.drop_prob.push(DropProb { src, dst, prob });
        self
    }

    /// Degrades one link class in a virtual-time window: latency ×
    /// `latency_factor`, bandwidth ÷ `bandwidth_divisor` while
    /// `from ≤ t < until`.
    ///
    /// # Panics
    /// Panics unless both factors are ≥ 1 and the window is non-empty.
    pub fn degrade_link(
        mut self,
        class: LinkClass,
        from: VirtualTime,
        until: VirtualTime,
        latency_factor: f64,
        bandwidth_divisor: f64,
    ) -> Self {
        assert!(latency_factor >= 1.0, "latency factor must be ≥ 1");
        assert!(bandwidth_divisor >= 1.0, "bandwidth divisor must be ≥ 1");
        assert!(from < until, "degradation window must be non-empty");
        self.degradations.push(Degradation {
            class,
            from,
            until,
            latency_factor,
            bandwidth_divisor,
        });
        self
    }

    /// Degrades **every** wide-area (inter-cluster) link for the window —
    /// the "storm over the backbone" scenario.
    ///
    /// # Panics
    /// Same contract as [`FailureSchedule::degrade_link`].
    pub fn degrade_all_wan(
        self,
        from: VirtualTime,
        until: VirtualTime,
        latency_factor: f64,
        bandwidth_divisor: f64,
    ) -> Self {
        // `InterCluster(usize::MAX, _)` is the private wildcard marker
        // matched in `Degradation::applies`.
        self.degrade_link(
            LinkClass::InterCluster(usize::MAX, usize::MAX),
            from,
            until,
            latency_factor,
            bandwidth_divisor,
        )
    }

    // ---- queries -------------------------------------------------------

    /// The virtual time at which `rank` crashes, if scheduled.
    pub fn crash_time(&self, rank: usize) -> Option<VirtualTime> {
        self.crashes.iter().find(|&&(r, _)| r == rank).map(|&(_, t)| t)
    }

    /// All scheduled crashes as `(rank, time)` pairs, in insertion order.
    pub fn crashes(&self) -> &[(usize, VirtualTime)] {
        &self.crashes
    }

    /// The virtual time at which `site` (a whole cluster) crashes, if
    /// scheduled.
    pub fn site_crash_time(&self, site: usize) -> Option<VirtualTime> {
        self.site_crashes.iter().find(|&&(s, _)| s == site).map(|&(_, t)| t)
    }

    /// All scheduled site crashes as `(site, time)` pairs, in insertion
    /// order.
    pub fn site_crashes(&self) -> &[(usize, VirtualTime)] {
        &self.site_crashes
    }

    /// True when `site` has crashed at or before `t`.
    pub fn site_down(&self, site: usize, t: VirtualTime) -> bool {
        self.site_crash_time(site).is_some_and(|at| at <= t)
    }

    /// The bandwidth divisor in effect on the WAN site pair `(a, b)` at
    /// virtual time `t`: the product of every active degradation window
    /// matching the pair (wildcard windows from
    /// [`FailureSchedule::degrade_all_wan`] included), `1.0` when none.
    /// Fluid-model integrators divide a flow's drain rate by it.
    pub fn wan_divisor(&self, a: usize, b: usize, t: VirtualTime) -> f64 {
        let class = LinkClass::InterCluster(a.min(b), a.max(b));
        let mut div = 1.0;
        for d in &self.degradations {
            if d.applies(class, t) {
                div *= d.bandwidth_divisor;
            }
        }
        div
    }

    /// Every instant the schedule changes state — site-crash times and
    /// degradation-window edges — sorted ascending, deduplicated.
    /// Piecewise-constant event loops add these to their candidate event
    /// set so rates stay constant within each advanced segment.
    pub fn event_times(&self) -> Vec<VirtualTime> {
        let mut times: Vec<VirtualTime> =
            self.site_crashes.iter().map(|&(_, at)| at).collect();
        for d in &self.degradations {
            times.push(d.from);
            times.push(d.until);
        }
        times.sort_by(|x, y| x.secs().total_cmp(&y.secs()));
        times.dedup();
        times
    }

    /// True when the directed link `src → dst` is permanently down.
    pub fn link_down(&self, src: usize, dst: usize) -> bool {
        self.downed_links.contains(&(src, dst))
    }

    /// True when the `nth` (0-based) message on `src → dst` must be
    /// dropped — by a precise rule or by the seeded coin.
    pub fn should_drop(&self, src: usize, dst: usize, nth: u64) -> bool {
        if self.drop_nth.iter().any(|d| d.src == src && d.dst == dst && d.nth == nth) {
            return true;
        }
        self.drop_prob.iter().any(|d| {
            d.src == src && d.dst == dst && {
                let h = crate::rng::hash64(
                    self.seed
                        ^ crate::rng::hash64((src as u64) << 40 ^ (dst as u64) << 20 ^ nth),
                );
                crate::rng::unit_f64(h) < d.prob
            }
        })
    }

    /// True when any transient-drop rule targets the pair `src → dst`
    /// (used to decide whether retry logic is worth arming).
    pub fn has_drop_rules(&self, src: usize, dst: usize) -> bool {
        self.drop_nth.iter().any(|d| d.src == src && d.dst == dst)
            || self.drop_prob.iter().any(|d| d.src == src && d.dst == dst)
    }

    /// True when the schedule carries *any* transient-drop rule at all —
    /// consumers that pay per-message bookkeeping (e.g. the serve
    /// engine's per-link drain counters) skip it entirely otherwise.
    pub fn any_drop_rules(&self) -> bool {
        !self.drop_nth.is_empty() || !self.drop_prob.is_empty()
    }

    /// The link parameters in effect for a link of class `class` with
    /// base parameters `base` at virtual time `t`. With no active window
    /// this returns `base` unchanged (bit-identical).
    pub fn effective_params(
        &self,
        base: LinkParams,
        class: LinkClass,
        t: VirtualTime,
    ) -> LinkParams {
        let mut p = base;
        for d in &self.degradations {
            if d.applies(class, t) {
                p = d.apply(p);
            }
        }
        p
    }

    /// True when any degradation window is active for `class` at `t`.
    pub fn is_degraded(&self, class: LinkClass, t: VirtualTime) -> bool {
        self.degradations.iter().any(|d| d.applies(class, t))
    }

    /// The degradation windows of the schedule, in insertion order.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }
}

impl CostModel {
    /// Eq. (1) message time from `a` to `b` at virtual time `t` under a
    /// failure schedule: the link's base parameters are first passed
    /// through any active degradation window, then priced exactly like
    /// [`CostModel::message_time`] (including the WAN congestion
    /// surcharge on inter-cluster links).
    ///
    /// With an empty schedule this is **bit-identical** to
    /// [`CostModel::message_time`].
    pub fn message_time_under(
        &self,
        a: ProcLocation,
        b: ProcLocation,
        bytes: u64,
        t: VirtualTime,
        schedule: &FailureSchedule,
    ) -> VirtualTime {
        let class = LinkClass::between(a, b);
        let params = schedule.effective_params(self.link(a, b), class, t);
        let base = params.transfer_time(bytes);
        if class.is_inter_cluster() {
            base + VirtualTime::from_secs(self.wan_overhead_s)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcLocation;

    fn loc(cluster: usize) -> ProcLocation {
        ProcLocation { cluster, node: 0, slot: 0 }
    }

    #[test]
    fn empty_schedule_answers_no_to_everything() {
        let s = FailureSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s.crash_time(0), None);
        assert!(!s.link_down(0, 1));
        assert!(!s.should_drop(0, 1, 0));
        let base = LinkParams::from_ms_mbps(8.0, 100.0);
        let p = s.effective_params(base, LinkClass::InterCluster(0, 1), VirtualTime::ZERO);
        assert_eq!(p, base);
    }

    #[test]
    fn crash_times_are_per_rank() {
        let s = FailureSchedule::new(1)
            .crash_rank(2, VirtualTime::from_secs(1.0))
            .crash_rank(5, VirtualTime::from_secs(2.0));
        assert_eq!(s.crash_time(2), Some(VirtualTime::from_secs(1.0)));
        assert_eq!(s.crash_time(5), Some(VirtualTime::from_secs(2.0)));
        assert_eq!(s.crash_time(0), None);
        assert_eq!(s.crashes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "already has a crash")]
    fn double_crash_rejected() {
        let _ = FailureSchedule::new(0)
            .crash_rank(1, VirtualTime::ZERO)
            .crash_rank(1, VirtualTime::from_secs(1.0));
    }

    #[test]
    fn site_crashes_are_per_site_and_time_ordered_queries_work() {
        let s = FailureSchedule::new(0)
            .crash_site(1, VirtualTime::from_secs(0.5))
            .crash_site(3, VirtualTime::from_secs(0.1));
        assert_eq!(s.site_crash_time(1), Some(VirtualTime::from_secs(0.5)));
        assert_eq!(s.site_crash_time(0), None);
        assert!(!s.site_down(1, VirtualTime::from_secs(0.4)));
        assert!(s.site_down(1, VirtualTime::from_secs(0.5)), "crash instant is inclusive");
        assert!(s.site_down(3, VirtualTime::from_secs(0.2)));
        assert!(!s.is_empty());
        // Rank crashes are a separate axis.
        assert_eq!(s.crash_time(1), None);
    }

    #[test]
    #[should_panic(expected = "already has a crash")]
    fn double_site_crash_rejected() {
        let _ = FailureSchedule::new(0)
            .crash_site(2, VirtualTime::ZERO)
            .crash_site(2, VirtualTime::from_secs(1.0));
    }

    #[test]
    fn wan_divisor_stacks_windows_and_respects_pairs() {
        let s = FailureSchedule::new(0)
            .degrade_all_wan(VirtualTime::ZERO, VirtualTime::from_secs(2.0), 1.0, 4.0)
            .degrade_link(
                LinkClass::InterCluster(0, 1),
                VirtualTime::from_secs(1.0),
                VirtualTime::from_secs(2.0),
                1.0,
                2.0,
            );
        // Only the wildcard applies before 1.0 s.
        assert_eq!(s.wan_divisor(0, 1, VirtualTime::from_secs(0.5)), 4.0);
        // Both windows stack multiplicatively inside [1, 2).
        assert_eq!(s.wan_divisor(1, 0, VirtualTime::from_secs(1.5)), 8.0, "pair order canonical");
        // The specific window misses other pairs.
        assert_eq!(s.wan_divisor(2, 3, VirtualTime::from_secs(1.5)), 4.0);
        // After every window: unit divisor.
        assert_eq!(s.wan_divisor(0, 1, VirtualTime::from_secs(2.0)), 1.0);
        // Empty schedule: exactly 1.0 everywhere.
        assert_eq!(FailureSchedule::default().wan_divisor(0, 1, VirtualTime::ZERO), 1.0);
    }

    #[test]
    fn event_times_are_sorted_and_deduplicated() {
        let s = FailureSchedule::new(0)
            .crash_site(2, VirtualTime::from_secs(1.0))
            .degrade_all_wan(VirtualTime::from_secs(0.5), VirtualTime::from_secs(1.0), 2.0, 2.0);
        let times = s.event_times();
        assert_eq!(
            times,
            vec![VirtualTime::from_secs(0.5), VirtualTime::from_secs(1.0)],
            "window end and crash coincide → one boundary"
        );
        assert!(FailureSchedule::default().event_times().is_empty());
    }

    #[test]
    fn link_failures_are_directed() {
        let s = FailureSchedule::new(0).fail_link(3, 4);
        assert!(s.link_down(3, 4));
        assert!(!s.link_down(4, 3));
    }

    #[test]
    fn nth_drop_is_precise() {
        let s = FailureSchedule::new(0).drop_nth_message(1, 2, 3);
        assert!(!s.should_drop(1, 2, 2));
        assert!(s.should_drop(1, 2, 3));
        assert!(!s.should_drop(1, 2, 4));
        assert!(!s.should_drop(2, 1, 3));
        assert!(s.has_drop_rules(1, 2));
        assert!(!s.has_drop_rules(2, 1));
    }

    #[test]
    fn probabilistic_drops_are_seeded_and_reproducible() {
        let a = FailureSchedule::new(7).drop_probability(0, 1, 0.5);
        let b = FailureSchedule::new(7).drop_probability(0, 1, 0.5);
        let c = FailureSchedule::new(8).drop_probability(0, 1, 0.5);
        let seq_a: Vec<bool> = (0..64).map(|n| a.should_drop(0, 1, n)).collect();
        let seq_b: Vec<bool> = (0..64).map(|n| b.should_drop(0, 1, n)).collect();
        let seq_c: Vec<bool> = (0..64).map(|n| c.should_drop(0, 1, n)).collect();
        assert_eq!(seq_a, seq_b, "same seed → same drops");
        assert_ne!(seq_a, seq_c, "different seed → different drops");
        let hits = seq_a.iter().filter(|&&d| d).count();
        assert!(hits > 8 && hits < 56, "p=0.5 over 64 flips should be near half, got {hits}");
    }

    #[test]
    fn probability_extremes() {
        let never = FailureSchedule::new(0).drop_probability(0, 1, 0.0);
        let always = FailureSchedule::new(0).drop_probability(0, 1, 1.0);
        assert!((0..32).all(|n| !never.should_drop(0, 1, n)));
        assert!((0..32).all(|n| always.should_drop(0, 1, n)));
    }

    #[test]
    fn degradation_window_scales_latency_and_bandwidth() {
        let base = LinkParams::from_ms_mbps(8.0, 100.0);
        let s = FailureSchedule::new(0).degrade_link(
            LinkClass::InterCluster(0, 1),
            VirtualTime::from_secs(1.0),
            VirtualTime::from_secs(2.0),
            3.0,
            4.0,
        );
        let wan = LinkClass::InterCluster(0, 1);
        // Before / after the window: untouched.
        assert_eq!(s.effective_params(base, wan, VirtualTime::from_secs(0.5)), base);
        assert_eq!(s.effective_params(base, wan, VirtualTime::from_secs(2.0)), base);
        // Inside: scaled.
        let p = s.effective_params(base, wan, VirtualTime::from_secs(1.5));
        assert!((p.latency_s - base.latency_s * 3.0).abs() < 1e-15);
        assert!((p.bandwidth_bps - base.bandwidth_bps / 4.0).abs() < 1e-6);
        // Other classes and other site pairs: untouched.
        assert_eq!(
            s.effective_params(base, LinkClass::IntraCluster, VirtualTime::from_secs(1.5)),
            base
        );
        assert_eq!(
            s.effective_params(base, LinkClass::InterCluster(0, 2), VirtualTime::from_secs(1.5)),
            base
        );
        assert!(s.is_degraded(wan, VirtualTime::from_secs(1.5)));
        assert!(!s.is_degraded(wan, VirtualTime::from_secs(0.5)));
    }

    #[test]
    fn wan_wildcard_hits_every_site_pair_but_not_local_links() {
        let base = LinkParams::from_ms_mbps(8.0, 100.0);
        let s = FailureSchedule::new(0).degrade_all_wan(
            VirtualTime::ZERO,
            VirtualTime::from_secs(10.0),
            2.0,
            2.0,
        );
        for (a, b) in [(0, 1), (0, 3), (2, 3)] {
            let p = s.effective_params(base, LinkClass::InterCluster(a, b), VirtualTime::ZERO);
            assert!((p.latency_s - base.latency_s * 2.0).abs() < 1e-15);
        }
        assert_eq!(s.effective_params(base, LinkClass::IntraNode, VirtualTime::ZERO), base);
        assert_eq!(s.effective_params(base, LinkClass::IntraCluster, VirtualTime::ZERO), base);
    }

    #[test]
    fn message_time_under_matches_plain_pricing_when_idle() {
        let m = CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 100.0), 1e9, 2)
            .with_wan_overhead(5e-3);
        let s = FailureSchedule::default();
        for bytes in [0u64, 1, 1024, 1 << 20] {
            let plain = m.message_time(loc(0), loc(1), bytes);
            let under = m.message_time_under(loc(0), loc(1), bytes, VirtualTime::ZERO, &s);
            assert_eq!(plain.secs().to_bits(), under.secs().to_bits(), "bit-identical pricing");
        }
    }

    #[test]
    fn message_time_under_applies_degradation_and_keeps_wan_overhead() {
        let m = CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 100.0), 1e9, 2)
            .with_wan_overhead(5e-3);
        let s = FailureSchedule::new(0).degrade_all_wan(
            VirtualTime::ZERO,
            VirtualTime::from_secs(1.0),
            2.0,
            1.0,
        );
        let t = m.message_time_under(loc(0), loc(1), 0, VirtualTime::ZERO, &s);
        // 2 × 1 ms latency + 5 ms overhead.
        assert!((t.secs() - 7e-3).abs() < 1e-12);
        // Outside the window: plain price again.
        let t2 = m.message_time_under(loc(0), loc(1), 0, VirtualTime::from_secs(2.0), &s);
        assert!((t2.secs() - 6e-3).abs() < 1e-12);
    }
}
