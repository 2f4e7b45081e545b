//! DPOR-lite schedule exploration: re-run a rank program under permuted
//! message delivery orders and *prove* its results are
//! schedule-independent.
//!
//! Full dynamic partial-order reduction enumerates every inequivalent
//! interleaving; for this runtime the only schedule freedom a rank
//! program can observe is the inter-source order of its pending buffer
//! (named receives pin their source; per-source FIFO is guaranteed by
//! the channels). So it suffices to permute exactly that freedom:
//! [`explore`] runs the program once per [`DeliveryOrder`] — arrival
//! order, source-ascending, source-descending, and a battery of seeded
//! pseudo-random legal permutations — and compares
//!
//! * every rank's **result digest** (caller-supplied, e.g. the bit
//!   pattern of the R factor),
//! * the **makespan** bit pattern,
//! * the per-rank **metrics registries**, and
//! * the **failure history** (fault events in trace order),
//!
//! across all runs, while the happens-before analyzer ([`crate::hb`])
//! checks each run's trace for receive races. A program that passes
//! ([`ExploreReport::proves_determinism`]) is bit-identical under every
//! explored delivery order *and* shows no race that could distinguish
//! unexplored ones — which upgrades the single-seed replay test of the
//! fault-tolerance work into an exhaustive argument for small trees
//! (the P ≤ 8 configurations `commcheck` gates in CI).

use std::fmt::Write as _;

use crate::comm::Communicator;
use crate::error::CommError;
use crate::hb::HbReport;
use crate::process::{DeliveryOrder, Process};
use crate::runtime::Runtime;

/// FNV-1a over a byte slice — the digest helper used by callers to
/// fingerprint results (stable, dependency-free).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The delivery orders explored for a `p`-rank configuration: the three
/// canonical orders plus seeded permutations — 24 seeds when `p ≤ 8`
/// (the "exhaustive proof for small trees" regime), 8 above.
pub fn schedules_for(p: usize) -> Vec<DeliveryOrder> {
    let mut v = vec![
        DeliveryOrder::Arrival,
        DeliveryOrder::SourceAscending,
        DeliveryOrder::SourceDescending,
    ];
    let seeds = if p <= 8 { 24 } else { 8 };
    v.extend((0..seeds).map(DeliveryOrder::Seeded));
    v
}

/// One explored schedule: the order used, the run's fingerprints and its
/// happens-before report.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// The delivery order this run used.
    pub order: DeliveryOrder,
    /// Per-rank result digests (`Ok(digest)`) or error strings.
    pub rank_digests: Vec<Result<u64, String>>,
    /// Bit pattern of the makespan.
    pub makespan_bits: u64,
    /// Fault events rendered in trace order (the failure history).
    pub fault_history: Vec<String>,
    /// The happens-before analysis of this run's trace.
    pub hb: HbReport,
}

/// The verdict of [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// One entry per explored delivery order.
    pub runs: Vec<ScheduleRun>,
    /// Human-readable differences against the first run (empty when all
    /// runs were bit-identical).
    pub divergences: Vec<String>,
    /// True when every run's per-rank metrics equalled the first run's.
    pub metrics_identical: bool,
}

impl ExploreReport {
    /// Number of schedules explored.
    pub fn schedules(&self) -> usize {
        self.runs.len()
    }

    /// True when every explored schedule produced bit-identical rank
    /// digests, makespan, metrics and failure history.
    pub fn all_identical(&self) -> bool {
        self.divergences.is_empty() && self.metrics_identical
    }

    /// True when every run's happens-before analysis was clean.
    pub fn hb_ok(&self) -> bool {
        self.runs.iter().all(|r| r.hb.ok())
    }

    /// The exhaustiveness claim: at least two schedules explored, all
    /// bit-identical, and no receive race in any trace (so unexplored
    /// interleavings cannot differ either — the HB order pins every
    /// match).
    pub fn proves_determinism(&self) -> bool {
        self.runs.len() >= 2 && self.all_identical() && self.hb_ok()
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            let _ = writeln!(
                out,
                "  {:<18} makespan={:016x} {}",
                format!("{:?}", r.order),
                r.makespan_bits,
                r.hb.summary_line()
            );
        }
        for d in &self.divergences {
            let _ = writeln!(out, "  DIVERGENCE: {d}");
        }
        let verdict = if self.proves_determinism() {
            format!("  PROVED: {} schedules, bit-identical results, 0 races", self.runs.len())
        } else {
            "  NOT PROVED: schedule-dependence detected".to_string()
        };
        let _ = writeln!(out, "{verdict}");
        out
    }
}

/// Runs `program` once per delivery order in `orders` on a fresh runtime
/// from `make_runtime` (tracing is forced on), digesting each rank's
/// `Ok` result with `digest`, and cross-checks every observable — see
/// the [module docs](mod@crate::explore).
///
/// `make_runtime` must return an identically-configured runtime each
/// call (same topology, cost model and failure schedule);
/// `explore` installs the delivery order and tracing itself.
pub fn explore<T, Rt, P, D>(
    make_runtime: Rt,
    program: P,
    digest: D,
    orders: &[DeliveryOrder],
) -> ExploreReport
where
    T: Send,
    Rt: Fn() -> Runtime,
    P: Fn(&mut Process, &Communicator) -> Result<T, CommError> + Sync,
    D: Fn(&T) -> u64,
{
    let mut runs: Vec<ScheduleRun> = Vec::with_capacity(orders.len());
    let mut divergences = Vec::new();
    let mut first_metrics: Option<Vec<crate::metrics::MetricsRegistry>> = None;
    let mut metrics_identical = true;

    for &order in orders {
        let mut rt = make_runtime();
        rt.enable_tracing();
        rt.set_delivery_order(order);
        let report = rt.run(|p, c| program(p, c));
        let rank_digests: Vec<Result<u64, String>> = report
            .ranks
            .iter()
            .map(|r| match &r.result {
                Ok(v) => Ok(digest(v)),
                Err(e) => Err(e.to_string()),
            })
            .collect();
        let makespan_bits = report.makespan.secs().to_bits();
        let trace = report.trace.as_ref().expect("tracing forced on");
        let fault_history: Vec<String> = trace
            .fault_events()
            .iter()
            .map(|e| format!("{}@{:.9}:{:?}", e.rank, e.start.secs(), e.kind))
            .collect();
        let hb = trace.hb_analysis();

        match &first_metrics {
            None => first_metrics = Some(report.metrics.clone()),
            Some(m0) => {
                if *m0 != report.metrics {
                    metrics_identical = false;
                    divergences.push(format!("{order:?}: per-rank metrics differ"));
                }
            }
        }
        if let Some(r0) = runs.first() {
            if r0.rank_digests != rank_digests {
                for (rank, (a, b)) in r0.rank_digests.iter().zip(&rank_digests).enumerate() {
                    if a != b {
                        divergences.push(format!(
                            "{order:?}: rank {rank} result differs ({a:?} vs {b:?})"
                        ));
                    }
                }
            }
            if r0.makespan_bits != makespan_bits {
                divergences.push(format!(
                    "{order:?}: makespan differs ({:016x} vs {makespan_bits:016x})",
                    r0.makespan_bits
                ));
            }
            if r0.fault_history != fault_history {
                divergences.push(format!("{order:?}: failure history differs"));
            }
        }
        runs.push(ScheduleRun { order, rank_digests, makespan_bits, fault_history, hb });
    }

    ExploreReport { runs, divergences, metrics_identical }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

    fn tiny_runtime(procs: usize) -> Runtime {
        let topo = GridTopology::block_placement(
            vec![ClusterSpec {
                name: "c0".into(),
                nodes: procs,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            }],
            procs,
            1,
        );
        let model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.5, 800.0), 1e9, 1);
        Runtime::new(topo, model)
    }

    #[test]
    fn deterministic_reduction_is_proved() {
        // All ranks send to rank 0, which receives *by name* in rank
        // order — deterministic by construction.
        let rep = explore(
            || tiny_runtime(4),
            |p, _| {
                if p.rank() == 0 {
                    let mut acc = 0.0f64;
                    for src in 1..p.size() {
                        acc += p.recv::<f64>(src, 1)?;
                    }
                    Ok(acc)
                } else {
                    p.send(0, 1, p.rank() as f64 * 1.5)?;
                    Ok(0.0)
                }
            },
            |x| x.to_bits(),
            &schedules_for(4),
        );
        assert!(rep.proves_determinism(), "{}", rep.render());
        assert_eq!(rep.schedules(), 27);
        assert!(rep.render().contains("PROVED"));
    }

    #[test]
    fn wildcard_reduction_is_caught() {
        // Rank 0 folds with a non-commutative operation over wildcard
        // receives: the result depends on delivery order. The explorer
        // must either observe divergent digests or (if every explored
        // order happens to coincide) the analyzer's receive races —
        // either way determinism is NOT proved.
        let rep = explore(
            || tiny_runtime(4),
            |p, _| {
                if p.rank() == 0 {
                    let mut acc = 1.0f64;
                    for _ in 1..p.size() {
                        let (_, x) = crate::block_on(p.recv_any_async::<f64>(1))?;
                        acc = acc * 2.0 + x; // order-sensitive fold
                    }
                    Ok(acc)
                } else {
                    p.send(0, 1, p.rank() as f64)?;
                    Ok(0.0)
                }
            },
            |x| x.to_bits(),
            &schedules_for(4),
        );
        assert!(!rep.proves_determinism(), "{}", rep.render());
        // The analyzer sees the wildcard receives regardless of whether
        // the digests happened to collide.
        assert!(rep.runs.iter().any(|r| r.hb.wildcard_recvs > 0));
        assert!(!rep.hb_ok(), "wildcard recv with rivals must race");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
