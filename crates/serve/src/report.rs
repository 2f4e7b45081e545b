//! Serving metrics: sojourn percentiles, throughput, SLO accounting and
//! link utilization, rendered deterministically.
//!
//! Everything here is a pure function of a [`ServeOutcome`]; all floats
//! render with fixed precision, so the same seed and policy produce the
//! same bytes — the `grid-tsqr check` baseline and the bench gate both
//! pin these strings.

use std::fmt::Write as _;

use tsqr_netsim::occupancy::UtilizationTimeline;

use crate::engine::{Disposition, ServeOutcome};
use crate::policy::Policy;

/// The per-run scorecard of one serving trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Queue discipline the run used.
    pub policy: Policy,
    /// Offered load.
    pub load: f64,
    /// Whether batching was on.
    pub batch: bool,
    /// Workload seed.
    pub seed: u64,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests bounced off the full queue.
    pub rejected_queue: usize,
    /// Requests whose shape could not be placed at all.
    pub rejected_infeasible: usize,
    /// Requests shed by brownout (graceful degradation).
    pub shed: usize,
    /// Requests that faulted on every allowed try.
    pub failed_permanent: usize,
    /// Fault events recorded (one per affected request per fault).
    pub fault_events: usize,
    /// Completions that needed more than one try.
    pub retried_completions: usize,
    /// Summed virtual seconds admission spent browning out.
    pub brownout_s: f64,
    /// Completions that missed their deadline.
    pub slo_miss: usize,
    /// Virtual seconds from first arrival to last completion.
    pub horizon_s: f64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
    /// Mean sojourn (arrival → finish) over completions, seconds.
    pub mean_sojourn_s: f64,
    /// Sojourn percentiles over completions, seconds.
    pub p50_sojourn_s: f64,
    /// 95th percentile sojourn.
    pub p95_sojourn_s: f64,
    /// 99th percentile sojourn.
    pub p99_sojourn_s: f64,
    /// Summed queue-wait seconds over admitted requests.
    pub total_wait_s: f64,
    /// Jobs dispatched (a batch counts once).
    pub dispatches: usize,
    /// Total messages across dispatched jobs.
    pub msgs: u64,
    /// Wide-area messages.
    pub wan_msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Aggregate useful throughput over the horizon, Gflop/s.
    pub gflops: f64,
    /// Per-WAN-site-pair utilization (busy seconds / horizon), canonical
    /// key order.
    pub wan_utilization: Vec<((usize, usize), f64)>,
}

/// The empirical `q`-quantile of `sorted` (ascending, may be empty) by
/// the nearest-rank method: the smallest value with at least `⌈q·N⌉`
/// values at or below it. `0.0` on an empty slice.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

impl PolicyReport {
    /// Scores one serving outcome.
    pub fn from_outcome(out: &ServeOutcome) -> PolicyReport {
        let mut sojourns: Vec<f64> = Vec::new();
        let mut completed = 0;
        let mut rejected_queue = 0;
        let mut rejected_infeasible = 0;
        let mut shed = 0;
        let mut failed_permanent = 0;
        let mut retried_completions = 0;
        let mut slo_miss = 0;
        for r in &out.records {
            match r.disposition {
                Disposition::Completed { finish, attempts, .. } => {
                    completed += 1;
                    if attempts > 1 {
                        retried_completions += 1;
                    }
                    sojourns.push((finish - r.request.arrival).secs());
                    if finish > r.request.deadline {
                        slo_miss += 1;
                    }
                }
                Disposition::RejectedQueueFull => rejected_queue += 1,
                Disposition::RejectedInfeasible => rejected_infeasible += 1,
                Disposition::Shed => shed += 1,
                Disposition::FailedPermanent { .. } => failed_permanent += 1,
            }
        }
        sojourns.sort_by(f64::total_cmp);
        let horizon_s = out.horizon.secs();
        let mean = if sojourns.is_empty() {
            0.0
        } else {
            sojourns.iter().sum::<f64>() / sojourns.len() as f64
        };
        PolicyReport {
            policy: out.config.policy,
            load: out.config.load,
            batch: out.config.batch,
            seed: out.config.seed,
            requests: out.records.len(),
            completed,
            rejected_queue,
            rejected_infeasible,
            shed,
            failed_permanent,
            fault_events: out.faults.len(),
            retried_completions,
            // fold from +0.0: `Sum<f64>` starts at -0.0, which would
            // render an empty window list as "-0.000".
            brownout_s: out.brownout_windows.iter().fold(0.0, |acc, &(s, e)| acc + (e - s)),
            slo_miss,
            horizon_s,
            throughput_rps: if horizon_s > 0.0 { completed as f64 / horizon_s } else { 0.0 },
            mean_sojourn_s: mean,
            p50_sojourn_s: percentile(&sojourns, 0.50),
            p95_sojourn_s: percentile(&sojourns, 0.95),
            p99_sojourn_s: percentile(&sojourns, 0.99),
            total_wait_s: out.total_wait_s,
            dispatches: out.dispatches,
            msgs: out.msgs,
            wan_msgs: out.wan_msgs,
            bytes: out.bytes,
            gflops: if horizon_s > 0.0 { out.flops / horizon_s / 1e9 } else { 0.0 },
            wan_utilization: out
                .wan_busy
                .iter()
                .map(|&(l, busy)| (l, if horizon_s > 0.0 { busy / horizon_s } else { 0.0 }))
                .collect(),
        }
    }

    /// One pinnable line — the `grid-tsqr check` format.
    pub fn summary_line(&self) -> String {
        format!(
            "{}@{:.2}{} done {}/{} rej {} miss {} shed {} fail {} flt {} mean {:.3}s p99 {:.3}s thpt {:.4}/s wan {}",
            self.policy.label(),
            self.load,
            if self.batch { "+batch" } else { "" },
            self.completed,
            self.requests,
            self.rejected_queue + self.rejected_infeasible,
            self.slo_miss,
            self.shed,
            self.failed_permanent,
            self.fault_events,
            self.mean_sojourn_s,
            self.p99_sojourn_s,
            self.throughput_rps,
            self.wan_msgs,
        )
    }

    /// The full multi-line scorecard.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy {}  load {:.2}  batch {}  seed {}",
            self.policy.label(),
            self.load,
            self.batch,
            self.seed
        );
        let _ = writeln!(
            out,
            "requests {}  completed {}  rejected {} (queue {} / infeasible {})  slo-miss {}",
            self.requests,
            self.completed,
            self.rejected_queue + self.rejected_infeasible,
            self.rejected_queue,
            self.rejected_infeasible,
            self.slo_miss
        );
        if self.shed + self.failed_permanent + self.fault_events + self.retried_completions > 0
            || self.brownout_s > 0.0
        {
            let _ = writeln!(
                out,
                "faults {}  retried-completions {}  shed {}  failed-permanent {}  brownout {:.3} s",
                self.fault_events,
                self.retried_completions,
                self.shed,
                self.failed_permanent,
                self.brownout_s
            );
        }
        let _ = writeln!(
            out,
            "horizon {:.3} s  throughput {:.4} req/s  aggregate {:.2} Gflop/s",
            self.horizon_s, self.throughput_rps, self.gflops
        );
        let _ = writeln!(
            out,
            "sojourn mean {:.3} s  p50 {:.3} s  p95 {:.3} s  p99 {:.3} s  queue-wait {:.3} s total",
            self.mean_sojourn_s,
            self.p50_sojourn_s,
            self.p95_sojourn_s,
            self.p99_sojourn_s,
            self.total_wait_s
        );
        let _ = writeln!(
            out,
            "dispatches {}  msgs {}  wan {}  bytes {}",
            self.dispatches, self.msgs, self.wan_msgs, self.bytes
        );
        for &((a, b), u) in &self.wan_utilization {
            let _ = writeln!(out, "wan link {a}-{b}  utilization {u:.3}");
        }
        out
    }
}

/// Rebuilds a per-link-class busy timeline from an outcome's recorded
/// intervals (the horizon is only known once the run ends, hence the
/// post-hoc construction).
pub fn timeline(out: &ServeOutcome, bins: usize) -> UtilizationTimeline {
    let mut tl = UtilizationTimeline::new(out.horizon.secs(), bins);
    for &(bucket, s, e) in &out.busy_intervals {
        tl.record(bucket, s, e);
    }
    tl
}

/// Renders a fixed-width load-sweep table, one row per `(load, report)`
/// pair — the latency/throughput knee at a glance.
pub fn load_sweep_table(rows: &[(f64, PolicyReport)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>5} {:>5} {:>5} {:>10} {:>10} {:>10} {:>10}",
        "load", "done", "rej", "miss", "disp", "mean s", "p99 s", "req/s", "wan msgs"
    );
    for (load, r) in rows {
        let _ = writeln!(
            out,
            "{:>6.2} {:>6} {:>5} {:>5} {:>5} {:>10.3} {:>10.3} {:>10.4} {:>10}",
            load,
            r.completed,
            r.rejected_queue + r.rejected_infeasible,
            r.slo_miss,
            r.dispatches,
            r.mean_sojourn_s,
            r.p99_sojourn_s,
            r.throughput_rps,
            r.wan_msgs,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve, ServeConfig};
    use tsqr_netsim::cost::LinkClass;
    use tsqr_qcg::ResourceCatalog;

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_is_consistent_and_renders_deterministically() {
        let cat = ResourceCatalog::grid5000();
        let cfg = ServeConfig { requests: 30, load: 1.0, ..Default::default() };
        let out = serve(&cat, &cfg);
        let r = PolicyReport::from_outcome(&out);
        assert_eq!(
            r.completed + r.rejected_queue + r.rejected_infeasible + r.shed + r.failed_permanent,
            r.requests,
            "conservation: every request accounted for"
        );
        assert_eq!(r.shed + r.failed_permanent + r.fault_events, 0, "failure-free run");
        assert!(r.p50_sojourn_s <= r.p95_sojourn_s && r.p95_sojourn_s <= r.p99_sojourn_s);
        assert!(r.throughput_rps > 0.0);
        let again = PolicyReport::from_outcome(&serve(&cat, &cfg));
        assert_eq!(r.render(), again.render(), "same seed renders the same bytes");
        assert_eq!(r.summary_line(), again.summary_line());
        assert!(r.summary_line().starts_with("fifo@1.00 "));
    }

    #[test]
    fn timeline_covers_the_run() {
        let cat = ResourceCatalog::grid5000();
        let out = serve(&cat, &ServeConfig { requests: 10, load: 2.0, ..Default::default() });
        let tl = timeline(&out, 20);
        let cluster_busy: f64 =
            (0..tl.num_bins()).map(|b| tl.busy_s(LinkClass::IntraCluster.bucket(), b)).sum();
        assert!(cluster_busy > 0.0, "local phases must show up on the timeline");
    }

    #[test]
    fn sweep_table_has_one_row_per_load() {
        let cat = ResourceCatalog::grid5000();
        let rows: Vec<(f64, PolicyReport)> = [0.5, 2.0]
            .iter()
            .map(|&load| {
                let cfg = ServeConfig { requests: 15, load, ..Default::default() };
                (load, PolicyReport::from_outcome(&serve(&cat, &cfg)))
            })
            .collect();
        let table = load_sweep_table(&rows);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("p99 s"));
    }
}
