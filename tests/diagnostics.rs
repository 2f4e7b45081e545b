//! Reconciliation of the diagnostics layer against the independent
//! bookkeeping of the runtime: the wait-state classification must sum to
//! the metrics registry's `recv_wait_s`, the comm matrix and link-usage
//! totals must match the traffic counters, and the WAN message counts
//! must match the paper's closed-form predictions for both algorithms
//! (Tables I/II: `O(log C)` tree crossings for TSQR vs per-column
//! all-reduces for ScaLAPACK QR2).

use grid_tsqr::core::experiment::{run_experiment, Algorithm, Experiment, ExperimentResult, Mode};
use grid_tsqr::core::tree::TreeShape;
use grid_tsqr::gridmpi::{Diagnosis, Runtime};
use grid_tsqr::netsim::grid5000;

/// A scaled-down Grid'5000 (real constants, few nodes) so the golden
/// configurations stay fast and readable.
fn small_grid5000(sites: usize, nodes: usize) -> Runtime {
    let clusters = grid5000::clusters().into_iter().take(sites).collect();
    let topo = grid_tsqr::netsim::GridTopology::block_placement(clusters, nodes, 2);
    Runtime::new(topo, grid5000::cost_model())
}

fn traced(rt: &mut Runtime, m: u64, n: usize, algorithm: Algorithm) -> ExperimentResult {
    rt.enable_tracing();
    run_experiment(
        rt,
        &Experiment {
            m,
            n,
            algorithm,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: Some(1.0e9),
            combine_rate_flops: Some(1.0e9),
        },
    )
}

fn diagnose(rt: &Runtime, res: &ExperimentResult) -> Diagnosis {
    res.trace.as_ref().expect("tracing enabled").diagnose(rt.topology().num_procs(), 32)
}

/// Asserts the central reconciliation invariant: classified wait states
/// equal `recv_wait_s` per rank *and* per phase, to 1e-9 relative.
fn assert_reconciles(diag: &Diagnosis, res: &ExperimentResult) {
    let drift = diag.reconcile(&res.metrics);
    let scale = diag.total().total_wait_s().max(1.0);
    assert!(
        drift <= 1e-9 * scale,
        "wait-state totals must reconcile with recv_wait_s (drift {drift:.3e} s)"
    );
    // The same invariant, restated end-to-end: summed over everything.
    let classified: f64 = diag.per_rank.iter().map(|b| b.total_wait_s()).sum();
    let recorded: f64 = res.metrics.iter().map(|m| m.total().recv_wait_s).sum();
    assert!(
        (classified - recorded).abs() <= 1e-9 * recorded.max(1.0),
        "classified {classified} s vs recorded {recorded} s"
    );
}

#[test]
fn tsqr_diagnosis_reconciles_on_two_sites() {
    let mut rt = small_grid5000(2, 2); // 2 sites x 4 procs = 8 ranks
    let res = traced(
        &mut rt,
        1 << 16,
        16,
        Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 4 },
    );
    let diag = diagnose(&rt, &res);
    assert_reconciles(&diag, &res);

    // Golden shape of the 2-site run: some wait time exists (the tree has
    // dependencies), nothing is unmatched, and the WAN was crossed exactly
    // C - 1 = 1 time, which the comm matrix and counters agree on.
    assert!(diag.total().total_wait_s() > 0.0);
    assert_eq!(diag.total().unmatched_s, 0.0);
    assert_eq!(diag.wan_msgs(), 1);
    assert_eq!(res.totals.inter_cluster_msgs(), 1);
    assert_eq!(diag.comm.total_msgs(), res.totals.total_msgs());
    assert_eq!(diag.comm.total_bytes(), res.totals.total_bytes());
    let makespan = res.makespan.secs();
    assert!((diag.makespan_s - makespan).abs() <= 1e-12 * makespan.max(1.0));

    // The critical path's idle time is a subset of the classified waits.
    let cp = res.trace.as_ref().unwrap().critical_path();
    let gap = cp.summary().gap_s;
    assert!(gap >= 0.0);
    assert!(
        gap <= diag.total().total_wait_s() + 1e-9,
        "critical-path gap {gap} s cannot exceed total waits"
    );
}

#[test]
fn scalapack_diagnosis_reconciles_on_four_sites() {
    let mut rt = small_grid5000(4, 2); // 4 sites x 4 procs = 16 ranks
    let res = traced(&mut rt, 1 << 14, 8, Algorithm::ScalapackQr2);
    let diag = diagnose(&rt, &res);
    assert_reconciles(&diag, &res);
    assert_eq!(diag.total().unmatched_s, 0.0);
    assert_eq!(diag.comm.total_msgs(), res.totals.total_msgs());
    assert_eq!(diag.wan_msgs(), res.totals.inter_cluster_msgs());

    // Per-link-class usage totals agree with the traffic counters.
    for bucket in 0..3 {
        assert_eq!(diag.link_usage.msgs(bucket), res.totals.msgs[bucket]);
        assert_eq!(diag.link_usage.bytes(bucket), res.totals.bytes[bucket]);
    }
}

#[test]
fn tsqr_wan_crossings_follow_the_reduction_tree() {
    // Table II / Fig. 2: the grid-hierarchical tree crosses the WAN
    // C - 1 times in total, and only ceil(log2 C) of those crossings can
    // ever be on one dependency chain.
    for sites in [2usize, 3, 4] {
        let mut rt = small_grid5000(sites, 2);
        let res = traced(
            &mut rt,
            1 << 16,
            16,
            Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 4 },
        );
        let diag = diagnose(&rt, &res);
        let c = sites as u64;
        assert_eq!(diag.wan_msgs(), c - 1, "total WAN crossings at {sites} sites");
        let cp = res.trace.as_ref().unwrap().critical_path();
        let depth = (sites as f64).log2().ceil() as usize;
        let cp_wan = cp.summary().wan_messages;
        if sites.is_power_of_two() {
            // The inter-cluster stage is a balanced binary tree: exactly
            // ceil(log2 C) crossings lie on the longest dependency chain.
            assert_eq!(cp_wan, depth, "critical-path WAN crossings at {sites} sites");
        } else {
            // Unbalanced trees can finish on a chain whose last-arriving
            // subtree crossed the WAN fewer times; the depth still bounds it.
            assert!(
                (1..=depth).contains(&cp_wan),
                "critical-path WAN crossings at {sites} sites: {cp_wan} not in 1..={depth}"
            );
        }
        assert_reconciles(&diag, &res);
    }
}

#[test]
fn scalapack_wan_crossings_follow_two_allreduces_per_column() {
    // §II-B: PDGEQR2 performs two all-reduces per column (norm +
    // trailing update), the last column needing only the norm one:
    // 2N - 1 all-reduces in total. Recursive doubling over P ranks in C
    // equal clusters (both powers of two) crosses the WAN in log2(C) of
    // its log2(P) rounds, P messages per round — and only log2(C)
    // crossings per all-reduce lie on any single dependency chain.
    let (sites, nodes, n) = (4usize, 2usize, 8usize);
    let mut rt = small_grid5000(sites, nodes);
    let p = rt.topology().num_procs() as u64; // 16
    let c = sites as u64;
    let res = traced(&mut rt, 1 << 14, n, Algorithm::ScalapackQr2);
    let diag = diagnose(&rt, &res);

    let allreduces = 2 * n as u64 - 1;
    let log2c = c.ilog2() as u64;
    let log2p = p.ilog2() as u64;
    assert_eq!(
        diag.wan_msgs(),
        allreduces * p * log2c,
        "total WAN messages: (2N-1) all-reduces x P x log2(C) rounds"
    );
    assert_eq!(
        res.totals.total_msgs(),
        allreduces * p * log2p,
        "total messages: (2N-1) all-reduces x P x log2(P) rounds"
    );
    let cp = res.trace.as_ref().unwrap().critical_path();
    assert_eq!(
        cp.summary().wan_messages as u64,
        allreduces * log2c,
        "critical-path WAN messages: log2(C) per all-reduce"
    );
    // The asymptotic claim of the paper, as data: ScaLAPACK's WAN bill
    // scales with N x P while TSQR's is C - 1, independent of N and P.
    assert!(diag.wan_msgs() > 100 * (c - 1));
}

#[test]
fn analyze_renders_all_sections() {
    let mut rt = small_grid5000(2, 1);
    let res = traced(
        &mut rt,
        1 << 12,
        8,
        Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 2 },
    );
    let diag = diagnose(&rt, &res);
    let text = diag.render();
    for section in ["== wait states ==", "== link utilization ==", "== communication matrix =="] {
        assert!(text.contains(section), "missing {section} in:\n{text}");
    }
    // And the model fit exists for the same run.
    let fit = grid_tsqr::core::modelfit::fit(&grid_tsqr::core::modelfit::samples_from_metrics(
        &res.metrics,
    ))
    .expect("fit exists");
    assert!(fit.rel_residual.is_finite());
}
