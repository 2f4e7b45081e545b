//! Trace-level invariants of the figure configurations (acceptance
//! checks for the observability layer — see `docs/observability.md`).

use tsqr_bench::{calib, dump_traced_point, grid_runtime};
use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_netsim::FailureSchedule;

/// The Fig. 5 headline point — four sites, M = 2²⁰, N = 64, optimum 64
/// domains per cluster — traced: the critical path must tile the
/// makespan exactly, and the WAN traffic must be O(log #clusters), not
/// O(N) like ScaLAPACK's. Run clean and with the first transmission of
/// site 1's root (rank 64) to rank 0 lost, so the retransmission path
/// feeds the ledgers too.
#[test]
fn fig5_headline_critical_path_tiles_makespan() {
    let lossy = FailureSchedule::new(0).drop_nth_message(64, 0, 0);
    for (schedule, wan_msgs) in [(FailureSchedule::default(), 3), (lossy, 4)] {
        let mut rt = grid_runtime(4);
        rt.set_failure_schedule(schedule);
        rt.enable_tracing();
        let res = run_experiment(
            &rt,
            &Experiment {
                m: 1 << 20,
                n: 64,
                algorithm: Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 64,
                },
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(calib::kernel_rate_flops(64)),
                combine_rate_flops: Some(calib::combine_rate_flops()),
            },
        );
        let trace = res.trace.as_ref().expect("tracing was enabled");
        let cp = trace.critical_path();
        assert!(
            (cp.total().secs() - res.makespan.secs()).abs() <= 1e-9 * res.makespan.secs(),
            "critical path {} s vs makespan {} s",
            cp.total().secs(),
            res.makespan.secs()
        );
        // TSQR on 4 clusters: a handful of WAN sends per reduction, far
        // fewer than ScaLAPACK's 2 per column.
        let wan = trace.wan_sends().len();
        assert!(wan > 0 && wan < 64, "got {wan} WAN sends");
        // One ledger: the phase registry's totals are the traffic counters,
        // per link-class bucket, every priced (re)transmission included.
        assert_eq!(res.totals.inter_cluster_msgs(), wan_msgs);
        let total = res.aggregate_metrics().total();
        assert_eq!(
            (total.msgs, total.bytes, total.flops),
            (res.totals.msgs, res.totals.bytes, res.totals.flops)
        );
    }
}

/// `--trace-out` writes a well-formed Chrome-trace JSON file.
#[test]
fn dump_traced_point_writes_wellformed_json() {
    let dir = std::env::temp_dir().join(format!("tsqr_dump_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig5.json");
    dump_traced_point(
        &path,
        1,
        1 << 17,
        64,
        Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 64 },
    )
    .unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // Single site: no WAN flow should appear in the categories.
    assert!(!json.contains("\"cat\":\"wan\""));
    let _ = std::fs::remove_dir_all(dir);
}
