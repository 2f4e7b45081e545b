//! The PR's acceptance ladder for fault-tolerant serving, pinned as one
//! integration test per rung (docs/serving.md §Failures):
//!
//! 1. a site crash mid-job kills the lease, and the victim recovers via a
//!    *checkpointed* retry that pays only the residual WAN drain — the
//!    checkpointed run strictly beats the full-restart twin;
//! 2. the same crash under a 4-site-wide shape exhausts the requested
//!    width, and the engine *elastically re-plans* the reduction tree
//!    over the three survivors instead of failing the queue;
//! 3. a sustained WAN-degradation window drives retry pressure over the
//!    brownout watermark: admission sheds loose-deadline arrivals, then
//!    recovers — and the whole faulty run replays byte-identically.
//!
//! The scenarios are the same seeded configurations the COMMCHECK and
//! BENCH baselines pin (`serve-fault-*` / `serve-faults/*`), so a change
//! that breaks a rung here also trips a golden.

use grid_tsqr::netsim::{FailureSchedule, VirtualTime};
use grid_tsqr::qcg::ResourceCatalog;
use grid_tsqr::serve::{
    serve, BrownoutConfig, Disposition, FaultKind, PolicyReport, RecoveryAction, RetryPolicy,
    ServeConfig,
};

fn crash_cfg(checkpoint_drain: bool) -> ServeConfig {
    ServeConfig {
        requests: 30,
        load: 1.0,
        seed: 7,
        faults: FailureSchedule::new(1).crash_site(2, VirtualTime::from_secs(0.1)),
        retry: RetryPolicy { checkpoint_drain, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn site_crash_recovers_via_checkpointed_retry_and_beats_full_restart() {
    let catalog = ResourceCatalog::grid5000();
    let ckpt = serve(&catalog, &crash_cfg(true));
    let restart = serve(&catalog, &crash_cfg(false));

    // The crash must actually hit someone, and recovery must route
    // through a retry — checkpointed in one run, full restart in the
    // other — with no permanent failures in either.
    for (out, want_ckpt) in [(&ckpt, true), (&restart, false)] {
        let crashes: Vec<_> = out
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::SiteCrashed { site: 2 }))
            .collect();
        assert!(!crashes.is_empty(), "the scripted crash fired");
        for f in &crashes {
            match f.action {
                RecoveryAction::Retried { checkpointed, .. } => {
                    assert_eq!(checkpointed, want_ckpt, "recovery mode follows the policy");
                }
                RecoveryAction::FailedPermanent { .. } => {
                    panic!("the default retry budget must absorb one crash")
                }
            }
        }
        assert!(
            out.records.iter().any(|r| matches!(
                r.disposition,
                Disposition::Completed { attempts, .. } if attempts > 1
            )),
            "a crashed job completes on a later attempt"
        );
    }

    // Rung 1's measurable claim: paying only the residual WAN drain is
    // strictly cheaper than recomputing the local phase.
    let ckpt_rep = PolicyReport::from_outcome(&ckpt);
    let restart_rep = PolicyReport::from_outcome(&restart);
    assert!(
        ckpt_rep.mean_sojourn_s <= restart_rep.mean_sojourn_s,
        "checkpointed drain ({} s mean) must not lose to full restart ({} s mean)",
        ckpt_rep.mean_sojourn_s,
        restart_rep.mean_sojourn_s
    );
}

#[test]
fn slot_exhaustion_triggers_elastic_replan_on_survivors() {
    // Shape 3 wants 4 sites; the catalog has exactly 4, so after site 2
    // dies every post-crash dispatch *must* re-plan narrower or the run
    // would wedge. Completion of all 30 requests is the proof.
    let cfg = ServeConfig { single_shape: Some(3), ..crash_cfg(true) };
    let out = serve(&ResourceCatalog::grid5000(), &cfg);
    let crash_t = 0.1;
    let mut post_crash_completions = 0;
    for r in &out.records {
        match r.disposition {
            Disposition::Completed { start, .. } => {
                if start.secs() > crash_t {
                    post_crash_completions += 1;
                }
            }
            ref other => panic!("request {} must complete, got {other:?}", r.request.id),
        }
    }
    assert!(
        post_crash_completions > 0,
        "4-site jobs completed after the 4th site died — only possible via re-plan"
    );
    assert!(!out.faults.is_empty(), "the mid-flight victim of the crash leaves an audit entry");
}

#[test]
fn wan_degradation_browns_out_sheds_and_replays_byte_identically() {
    let cfg = ServeConfig {
        requests: 40,
        load: 0.5,
        seed: 7,
        faults: (0..6)
            .fold(FailureSchedule::new(1), |s, nth| s.drop_nth_message(0, 2, nth))
            .degrade_all_wan(VirtualTime::from_secs(0.05), VirtualTime::from_secs(5.0), 1.0, 8.0),
        retry: RetryPolicy { backoff_base_s: 0.2, ..Default::default() },
        brownout: BrownoutConfig { enter_watermark: 1, exit_watermark: 0, shed_slack: 0.0 },
        ..Default::default()
    };
    let catalog = ResourceCatalog::grid5000();
    let out = serve(&catalog, &cfg);

    let shed = out.records.iter().filter(|r| matches!(r.disposition, Disposition::Shed)).count();
    assert!(shed > 0, "sustained retry pressure must shed arrivals");
    assert!(!out.brownout_windows.is_empty(), "shedding opens a brownout window");
    for &(s, e) in &out.brownout_windows {
        assert!(s <= e, "brownout windows are well-formed");
    }
    // Recovery: shedding is not a death spiral — completions still
    // happen, and some of them are retries that survived the window.
    let completed = out
        .records
        .iter()
        .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
        .count();
    assert!(completed > 0, "the system keeps serving through the brownout");
    assert!(
        out.records.iter().any(|r| matches!(
            r.disposition,
            Disposition::Completed { attempts, .. } if attempts > 1
        )),
        "dropped drains recover via retry"
    );

    // Rung 3's determinism claim: the full faulty run — dispositions,
    // fault trail, brownout windows, rendered report — replays
    // byte-identically from the same seeds.
    let twin = serve(&catalog, &cfg);
    assert_eq!(out, twin, "faulty outcomes replay byte-identically");
    assert_eq!(
        PolicyReport::from_outcome(&out).render(),
        PolicyReport::from_outcome(&twin).render()
    );
}
