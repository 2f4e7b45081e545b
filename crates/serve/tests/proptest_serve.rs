//! Property-based tests of the serving layer's contracts:
//!
//! 1. **Conservation** — every generated request ends with exactly one
//!    explicit terminal disposition (completed, rejected, shed, or
//!    failed-permanent); the engine never silently drops work, at any
//!    load or queue depth — including under randomized failure
//!    schedules, where attempt counts must also respect the retry
//!    budget.
//! 2. **FIFO dispatch order** — with head-of-line blocking and no
//!    backfill, FIFO start instants are monotone in arrival order.
//!    (Finish instants are *not* claimed monotone: jobs of different
//!    shapes run on clusters with different peaks and overlap, so a
//!    later-started short job can finish before an earlier long one.)
//! 3. **Replay determinism** — same seed, load, policy, *and failure
//!    schedule* reproduce a byte-identical outcome and rendered report.
//! 4. **Skipping a blocked head is exact** — under deep overload and
//!    faults, a head the pool refused is skipped on every event that left
//!    the pool unchanged; debug builds re-run each skipped try and assert
//!    it would have waited.

use proptest::prelude::*;

use tsqr_netsim::{FailureSchedule, VirtualTime};
use tsqr_qcg::ResourceCatalog;
use tsqr_serve::{
    serve, BrownoutConfig, Disposition, Policy, PolicyReport, RecoveryAction, RequestRecord,
    RetryPolicy, ServeConfig,
};

fn cfg(policy: Policy, load: f64, seed: u64, requests: usize, cap: usize) -> ServeConfig {
    ServeConfig { policy, load, requests, seed, queue_capacity: cap, ..Default::default() }
}

/// A randomized-but-seeded failure schedule: up to one site crash, up to
/// one WAN degradation window, and a few drop rules on the (0,2) pair.
fn schedule(
    seed: u64,
    crash_site: Option<(usize, u64)>,
    window: Option<(u64, u64, u32)>,
    drops: u64,
) -> FailureSchedule {
    let mut s = FailureSchedule::new(seed);
    if let Some((site, at_s)) = crash_site {
        s = s.crash_site(site, VirtualTime::from_secs(at_s as f64));
    }
    if let Some((from_s, len_s, div)) = window {
        s = s.degrade_all_wan(
            VirtualTime::from_secs(from_s as f64),
            VirtualTime::from_secs((from_s + len_s.max(1)) as f64),
            1.0,
            f64::from(div.max(1)),
        );
    }
    for nth in 0..drops {
        s = s.drop_nth_message(0, 2, nth);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Accepted requests complete; the rest are explicitly rejected.
    /// completed + rejected == generated, for every policy and load.
    #[test]
    fn every_request_is_explicitly_disposed(
        policy_ix in 0usize..4,
        load_x10 in 3u64..30,
        seed in 0u64..1_000_000,
        cap in 1usize..16,
    ) {
        let policy = Policy::all()[policy_ix];
        let load = load_x10 as f64 / 10.0;
        let out = serve(&ResourceCatalog::grid5000(), &cfg(policy, load, seed, 25, cap));
        prop_assert_eq!(out.records.len(), 25);
        let mut completed = 0usize;
        let mut rejected = 0usize;
        for r in &out.records {
            match r.disposition {
                Disposition::Completed { start, finish, batch_size, attempts } => {
                    completed += 1;
                    prop_assert!(batch_size >= 1);
                    prop_assert_eq!(attempts, 1, "failure-free = first-try completions");
                    prop_assert!(start >= r.request.arrival, "no time travel at dispatch");
                    prop_assert!(finish > start, "service takes positive virtual time");
                }
                Disposition::RejectedQueueFull | Disposition::RejectedInfeasible => {
                    rejected += 1;
                }
                ref other => {
                    prop_assert!(
                        false,
                        "failure-free run produced fault disposition {:?}",
                        other
                    );
                }
            }
        }
        prop_assert_eq!(completed + rejected, 25, "conservation of requests");
    }

    /// Conservation survives arbitrary failure schedules: every request
    /// still ends in exactly one terminal disposition, attempt counts
    /// never exceed the retry budget, and the fault audit trail agrees
    /// with the permanent failures.
    #[test]
    fn conservation_holds_under_random_failure_schedules(
        policy_ix in 0usize..4,
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        crash in (proptest::bool::ANY, 0usize..4, 5u64..60)
            .prop_map(|(on, s, at)| on.then_some((s, at))),
        window in (proptest::bool::ANY, 0u64..40, 1u64..40, 1u32..10)
            .prop_map(|(on, f, l, d)| on.then_some((f, l, d))),
        drops in 0u64..4,
        max_attempts in 1usize..5,
        batch in proptest::bool::ANY,
    ) {
        let policy = Policy::all()[policy_ix];
        let mut c = cfg(policy, 1.5, seed, 25, 16);
        c.batch = batch;
        c.faults = schedule(fault_seed, crash, window, drops);
        c.retry = RetryPolicy { max_attempts, ..Default::default() };
        c.brownout = BrownoutConfig { enter_watermark: 3, exit_watermark: 1, shed_slack: 2.0 };
        let out = serve(&ResourceCatalog::grid5000(), &c);
        prop_assert_eq!(out.records.len(), 25);
        let mut failed_permanent = 0usize;
        for r in &out.records {
            // `records` covers every request exactly once (it is built by
            // zipping requests with their dispositions, and serve panics
            // on any unresolved slot), so reaching here *is* the
            // one-terminal-disposition invariant; what's left to check is
            // the retry-budget bound per disposition.
            match r.disposition {
                Disposition::Completed { attempts, .. } => {
                    prop_assert!(attempts >= 1 && attempts <= max_attempts);
                }
                Disposition::FailedPermanent { attempts } => {
                    failed_permanent += 1;
                    prop_assert!(attempts <= max_attempts);
                }
                Disposition::RejectedQueueFull
                | Disposition::RejectedInfeasible
                | Disposition::Shed => {}
            }
        }
        for f in &out.faults {
            match f.action {
                RecoveryAction::Retried { attempts, .. } => {
                    prop_assert!(attempts >= 2 && attempts <= max_attempts);
                }
                RecoveryAction::FailedPermanent { attempts } => {
                    prop_assert!(attempts <= max_attempts);
                }
            }
        }
        let audited_failures = out
            .faults
            .iter()
            .filter(|f| matches!(f.action, RecoveryAction::FailedPermanent { .. }))
            .count();
        prop_assert!(
            audited_failures <= failed_permanent,
            "every audited permanent failure must surface as a disposition"
        );
    }

    /// FIFO never reorders dispatches: completed requests start in
    /// arrival (id) order. Holds at any load because the queue is
    /// arrival-ordered and nothing backfills past a blocked head.
    #[test]
    fn fifo_start_times_are_monotone_in_arrival_order(
        load_x10 in 3u64..25,
        seed in 0u64..1_000_000,
    ) {
        let load = load_x10 as f64 / 10.0;
        let out = serve(&ResourceCatalog::grid5000(), &cfg(Policy::Fifo, load, seed, 30, 64));
        let mut last_start = None;
        for r in &out.records {
            if let Disposition::Completed { start, .. } = r.disposition {
                if let Some(prev) = last_start {
                    prop_assert!(
                        start >= prev,
                        "FIFO dispatched request {} before an earlier arrival",
                        r.request.id
                    );
                }
                last_start = Some(start);
            }
        }
    }

    /// Same seed + same policy → byte-identical outcome and report.
    #[test]
    fn replays_are_byte_identical(
        policy_ix in 0usize..4,
        seed in 0u64..1_000_000,
        batch in proptest::bool::ANY,
    ) {
        let policy = Policy::all()[policy_ix];
        let mut c = cfg(policy, 1.2, seed, 20, 32);
        c.batch = batch;
        let cat = ResourceCatalog::grid5000();
        let a = serve(&cat, &c);
        let b = serve(&cat, &c);
        prop_assert_eq!(&a, &b, "outcome structs must match exactly");
        let ra = PolicyReport::from_outcome(&a);
        let rb = PolicyReport::from_outcome(&b);
        prop_assert_eq!(ra.render(), rb.render());
        prop_assert_eq!(ra.summary_line(), rb.summary_line());
    }

    /// Hundreds of requests at 1.5-4x load into a short queue, with a
    /// site crash, a WAN window and drop rules inside the horizon: the head
    /// stays blocked across many events, most of which leave the pool as
    /// it was, while grants, releases and the crash move it on. A skip
    /// that missed one of those changes would wedge the loop (serve
    /// panics) or, in debug builds, fail the re-run try's assert.
    #[test]
    fn a_blocked_head_is_skipped_only_on_an_unchanged_pool(
        policy_ix in 0usize..4,
        load_x4 in 6u64..17,
        cap in 4usize..33,
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        crash in (0usize..4, 10u64..300),
        window in (0u64..300, 10u64..300, 2u32..10),
        drops in 0u64..4,
        batch in proptest::bool::ANY,
    ) {
        let ((site, crash_ms), (from_ms, len_ms, div)) = (crash, window);
        let ms = |x: u64| VirtualTime::from_secs(x as f64 / 1e3);
        let mut faults = FailureSchedule::new(fault_seed)
            .crash_site(site, ms(crash_ms))
            .degrade_all_wan(ms(from_ms), ms(from_ms + len_ms), 1.0, f64::from(div));
        for nth in 0..drops {
            faults = faults.drop_nth_message(0, 2, nth);
        }
        let mut c = cfg(Policy::all()[policy_ix], load_x4 as f64 / 4.0, seed, 300, cap);
        c.batch = batch;
        c.faults = faults;
        let out = serve(&ResourceCatalog::grid5000(), &c);
        prop_assert_eq!(out.records.len(), 300);
        prop_assert!(out.horizon > ms(crash_ms), "the crash fires inside the run");
        let waited = |r: &RequestRecord| {
            matches!(r.disposition, Disposition::Completed { start, .. } if start > r.request.arrival)
        };
        prop_assert!(out.records.iter().any(waited), "no completed request waited for a release");
    }

    /// Same seed + same *failure schedule* → byte-identical outcome,
    /// fault audit trail, and rendered report.
    #[test]
    fn faulty_replays_are_byte_identical(
        policy_ix in 0usize..4,
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        crash in (proptest::bool::ANY, 0usize..4, 5u64..60)
            .prop_map(|(on, s, at)| on.then_some((s, at))),
        window in (proptest::bool::ANY, 0u64..40, 1u64..40, 1u32..10)
            .prop_map(|(on, f, l, d)| on.then_some((f, l, d))),
        drops in 0u64..4,
    ) {
        let policy = Policy::all()[policy_ix];
        let mut c = cfg(policy, 1.5, seed, 20, 32);
        c.faults = schedule(fault_seed, crash, window, drops);
        let cat = ResourceCatalog::grid5000();
        let a = serve(&cat, &c);
        let b = serve(&cat, &c);
        prop_assert_eq!(&a, &b, "faulty outcome structs must match exactly");
        prop_assert_eq!(&a.faults, &b.faults, "fault trails must match exactly");
        let ra = PolicyReport::from_outcome(&a);
        let rb = PolicyReport::from_outcome(&b);
        prop_assert_eq!(ra.render(), rb.render());
        prop_assert_eq!(ra.summary_line(), rb.summary_line());
    }
}
