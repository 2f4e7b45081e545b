//! End-to-end integration: QCG allocation → runtime → distributed
//! factorization → numerical verification, across the public APIs of all
//! five crates.

use grid_tsqr::core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use grid_tsqr::core::tree::TreeShape;
use grid_tsqr::core::{caqr, workload};
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::linalg::prelude::*;
use grid_tsqr::linalg::verify::{orthogonality, r_distance, relative_residual};
use grid_tsqr::netsim::grid5000;
use grid_tsqr::qcg::{allocate, JobProfile, ResourceCatalog};

#[path = "../crates/linalg/tests/support/mod.rs"]
mod support;

/// A scaled-down Grid'5000: real topology and network constants, but only
/// a few nodes per site so real-numerics runs stay fast.
fn small_grid5000(sites: usize, nodes: usize) -> Runtime {
    let clusters = grid5000::clusters().into_iter().take(sites).collect();
    let topo = grid_tsqr::netsim::GridTopology::block_placement(clusters, nodes, 2);
    Runtime::new(topo, grid5000::cost_model())
}

fn reference_r(seed: u64, m: usize, n: usize) -> grid_tsqr::linalg::Matrix {
    QrFactors::compute(&workload::full_matrix(seed, m, n), 32).r().upper_triangular_padded()
}

#[test]
fn tsqr_on_grid5000_network_matches_reference() {
    let rt = small_grid5000(4, 2); // 4 sites x 4 procs = 16 ranks
    let (m, n, seed) = (2048u64, 12usize, 9u64);
    for dpc in [1usize, 2, 4] {
        let res = run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm: Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: dpc,
                },
                compute_q: false,
                mode: Mode::Real { seed },
                rate_flops: None,
                combine_rate_flops: None,
            },
        );
        let r = res.r.expect("R at rank 0");
        assert!(
            r_distance(&r, &reference_r(seed, m as usize, n)) < 1e-10,
            "dpc = {dpc}"
        );
        // The tuned tree crosses the WAN exactly sites-1 times.
        assert_eq!(res.totals.inter_cluster_msgs(), 3);
    }
}

#[test]
fn scalapack_baseline_matches_reference_on_grid() {
    let rt = small_grid5000(2, 2);
    let (m, n, seed) = (1024u64, 10usize, 11u64);
    let res = run_experiment(
        &rt,
        &Experiment {
            m,
            n,
            algorithm: Algorithm::ScalapackQr2,
            compute_q: false,
            mode: Mode::Real { seed },
            rate_flops: None,
            combine_rate_flops: None,
        },
    );
    let r = res.r.expect("R at rank 0");
    assert!(r_distance(&r, &reference_r(seed, m as usize, n)) < 1e-10);
    // Per-column reductions cross the WAN ~2N·(WAN rounds) times — vastly
    // more than TSQR's 1.
    assert!(res.totals.inter_cluster_msgs() > 2 * n as u64);
}

#[test]
fn tsqr_beats_scalapack_under_grid5000_pricing() {
    let rt = small_grid5000(4, 2);
    let (m, n) = (1u64 << 22, 64usize);
    let mk = |algorithm| Experiment {
        m,
        n,
        algorithm,
        compute_q: false,
        mode: Mode::Symbolic,
        rate_flops: Some(0.55e9),
        combine_rate_flops: Some(1.5e9),
    };
    let tsqr = run_experiment(
        &rt,
        &mk(Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 4 }),
    );
    let scal = run_experiment(&rt, &mk(Algorithm::ScalapackQr2));
    assert!(
        tsqr.makespan < scal.makespan,
        "TSQR {:.3}s vs ScaLAPACK {:.3}s",
        tsqr.makespan.secs(),
        scal.makespan.secs()
    );
}

#[test]
fn full_qcg_pipeline_allocation_to_factorization() {
    // JobProfile → meta-scheduler → placed topology → factorization.
    let catalog = ResourceCatalog::grid5000();
    let profile = JobProfile::cluster_of_clusters(3, 4);
    let alloc = allocate(&catalog, &profile).expect("allocation succeeds");
    assert_eq!(alloc.topology.num_procs(), 12);
    let rt = Runtime::new(alloc.topology.clone(), alloc.network.clone());
    let (m, n, seed) = (1440u64, 8usize, 13u64);
    let res = run_experiment(
        &rt,
        &Experiment {
            m,
            n,
            algorithm: Algorithm::Tsqr {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: 4,
            },
            compute_q: false,
            mode: Mode::Real { seed },
            rate_flops: Some(alloc.effective_gflops_per_proc * 1e9),
            combine_rate_flops: None,
        },
    );
    assert!(r_distance(&res.r.unwrap(), &reference_r(seed, m as usize, n)) < 1e-10);
    assert_eq!(res.totals.inter_cluster_msgs(), 2);
}

#[test]
fn explicit_q_distributed_equals_local_qr() {
    use grid_tsqr::core::domains::DomainLayout;
    use grid_tsqr::core::tree::ReductionTree;
    use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};

    let rt = small_grid5000(2, 1); // 2 sites x 2 procs
    let (m, n, seed) = (512u64, 6usize, 17u64);
    let layout = DomainLayout::build(rt.topology(), m, n, 2);
    let tree = ReductionTree::build(&TreeShape::GridHierarchical, 4, &layout.clusters());
    let cfg = TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: 2,
        compute_q: true,
        ..Default::default()
    };
    let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, None));
    let outs: Vec<_> = report.ranks.into_iter().map(|r| r.result.unwrap()).collect();
    let r = outs[0].r.clone().unwrap();
    let mut blocks: Vec<_> =
        outs.iter().map(|o| (o.row0, o.q_block.clone().unwrap())).collect();
    blocks.sort_by_key(|(row0, _)| *row0);
    let refs: Vec<&grid_tsqr::linalg::Matrix> = blocks.iter().map(|(_, b)| b).collect();
    let q = grid_tsqr::linalg::Matrix::vstack_all(&refs);
    let a = workload::full_matrix(seed, m as usize, n);
    assert!(orthogonality(&q) < 1e-12);
    assert!(relative_residual(&a, &q, &r) < 1e-12);
}

#[test]
fn distributed_tsqr_is_stable_at_kappa_1e12_on_every_tree() {
    // The top rung of `crates/linalg/tests/conditioning.rs`, distributed:
    // Q and R from real rank programs meet the same κ-independent
    // Householder bound whichever tree reduced the R factors.
    use grid_tsqr::core::domains::DomainLayout;
    use grid_tsqr::core::tree::ReductionTree;
    use grid_tsqr::core::tsqr::{tsqr_rank_program_with, TsqrConfig};
    use grid_tsqr::linalg::Matrix;
    use support::{bound, orth_max, resid_cols, with_condition};

    let rt = small_grid5000(2, 2); // 2 sites x 4 procs, one domain each
    let (m, n) = (640usize, 24usize);
    let a = with_condition(m, n, 1e12, 21);
    let layout = DomainLayout::build(rt.topology(), m as u64, n, 4);
    for shape in [
        TreeShape::Flat,
        TreeShape::Binary,
        TreeShape::GridHierarchical,
        TreeShape::Kary(3),
        TreeShape::Binomial,
    ] {
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig {
            shape: shape.clone(),
            domains_per_cluster: 4,
            compute_q: true,
            ..Default::default()
        };
        let report = rt.run(|p, _| {
            tsqr_rank_program_with(p, &layout, &tree, &cfg, None, |row0, rows| {
                a.sub_matrix(row0 as usize, 0, rows, n)
            })
        });
        let mut outs = report.unwrap_results();
        outs.sort_by_key(|o| o.row0);
        let r = outs[0].r.take().expect("rank 0 holds R");
        let q_blocks: Vec<Matrix> = outs.into_iter().map(|o| o.q_block.expect("Q asked for")).collect();
        let q = Matrix::vstack_all(&q_blocks.iter().collect::<Vec<_>>());
        let bound = bound(n);
        let (orth, resid) = (orth_max(&q), resid_cols(&a, &q, &r));
        assert!(orth <= bound, "{shape:?}: |QtQ - I|_max = {orth:e} > {bound:e}");
        assert!(resid <= bound, "{shape:?}: |A - QR|/|A| = {resid:e} > {bound:e}");
    }
}

#[test]
fn distributed_least_squares_tracks_the_sequential_solve_to_kappa_eps() {
    // The least-squares rung of the ladder: `lstsq_distributed` is the
    // TSQR rank program on `[A | b]`, so every tree shape and grouped
    // domains (2 and 1 per 4-process cluster: `pdgeqr2` leaves) must land
    // within c·κ·ε of the sequential Householder solve of the same
    // consistent system (c = 1; measured ≤ 0.04).
    use grid_tsqr::core::lstsq::lstsq_distributed;
    use support::{with_condition, EPS};

    let rt = small_grid5000(2, 2); // 2 sites x 4 procs
    let (m, n) = (640usize, 12usize);
    for (i, kappa) in [1e4, 1e8].into_iter().enumerate() {
        let a = with_condition(m, n, kappa, 31 + i as u64);
        let x_true: Vec<f64> = (0..n).map(|j| 1.0 + j as f64 / 4.0).collect();
        let b: Vec<f64> =
            (0..m).map(|r| (0..n).map(|j| a[(r, j)] * x_true[j]).sum()).collect();
        let f = QrFactors::compute(&a, 32);
        let mut qtb = grid_tsqr::linalg::Matrix::from_col_major(m, 1, b.clone()).unwrap();
        f.apply_qt_left(&mut qtb);
        let mut x_seq = qtb.col(0)[..n].to_vec();
        trsv(Triangle::Upper, &f.r().view(), &mut x_seq);
        let scale = x_seq.iter().fold(0.0_f64, |s, x| s.max(x.abs()));
        for dpc in [4usize, 2, 1] {
            for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
                let out = lstsq_distributed(&rt, &a, &b, dpc, shape.clone());
                let err = out
                    .x
                    .iter()
                    .zip(&x_seq)
                    .fold(0.0_f64, |e, (got, want)| e.max((got - want).abs()));
                let bound = kappa * EPS * scale;
                assert!(
                    err <= bound,
                    "kappa={kappa:e} dpc={dpc} {shape:?}: |x - x_seq|_max = {err:e} > {bound:e}"
                );
                assert!(out.r_min_diag > 0.0);
            }
        }
    }
}

#[test]
fn caqr_extends_tsqr_to_general_matrices() {
    // The §VI extension: CAQR's panel *is* TSQR; a square matrix factored
    // by CAQR must agree with the reference QR.
    let a = workload::full_matrix(19, 48, 48);
    let f = caqr::caqr(&a, 8, 16);
    let q = f.q_thin();
    assert!(relative_residual(&a, &q, f.r()) < 1e-11);
    assert!(orthogonality(&q) < 1e-11);
    let reference = QrFactors::compute(&a, 8).r();
    assert!(r_distance(f.r(), &reference) < 1e-10);
}

#[test]
fn scheduler_rejects_impossible_profiles() {
    let catalog = ResourceCatalog::grid5000();
    assert!(allocate(&catalog, &JobProfile::cluster_of_clusters(5, 8)).is_err());
    assert!(allocate(&catalog, &JobProfile::cluster_of_clusters(4, 10_000)).is_err());
}

#[test]
fn property_one_holds_end_to_end() {
    let rt = small_grid5000(2, 2);
    let (m, n) = (1u64 << 18, 32usize);
    let mk = |compute_q| Experiment {
        m,
        n,
        algorithm: Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 4 },
        compute_q,
        mode: Mode::Symbolic,
        rate_flops: Some(0.5e9),
        combine_rate_flops: None,
    };
    let r_only = run_experiment(&rt, &mk(false));
    let with_q = run_experiment(&rt, &mk(true));
    let ratio = with_q.makespan.secs() / r_only.makespan.secs();
    assert!((1.6..=2.4).contains(&ratio), "Property 1 ratio {ratio}");
}

#[test]
fn tracing_itemizes_the_wan_bill() {
    use grid_tsqr::core::domains::DomainLayout;
    use grid_tsqr::core::tree::ReductionTree;
    use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
    use grid_tsqr::gridmpi::EventKind;

    let clusters = grid_tsqr::netsim::grid5000::clusters().into_iter().take(3).collect();
    let topo = grid_tsqr::netsim::GridTopology::block_placement(clusters, 2, 2);
    let mut rt = Runtime::new(topo, grid_tsqr::netsim::grid5000::cost_model());
    rt.enable_tracing();

    let (m, n) = (512u64, 4usize);
    let layout = DomainLayout::build(rt.topology(), m, n, 4);
    let tree = ReductionTree::build(&TreeShape::GridHierarchical, 12, &layout.clusters());
    let cfg = TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: 4,
        ..Default::default()
    };
    let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, 7, None).map(|_| ()));
    let trace = report.trace.expect("tracing enabled");

    // The WAN bill, itemized: exactly sites - 1 = 2 inter-cluster sends,
    // and they agree with the aggregate counters.
    let wan = trace.wan_sends();
    assert_eq!(wan.len(), 2);
    assert_eq!(report.totals.inter_cluster_msgs(), 2);
    // Each WAN send carries a packed R triangle: n(n+1)/2 doubles.
    for e in &wan {
        match e.kind {
            EventKind::Send { bytes, .. } => assert_eq!(bytes, 8 * (4 * 5 / 2)),
            _ => unreachable!("wan_sends returns sends"),
        }
        assert!(e.end > e.start, "a WAN send takes time");
        assert!((e.end - e.start).secs() > 6e-3, "WAN latency is milliseconds");
    }
    // The timeline renders one line per event and the utilization summary
    // covers all ranks.
    assert_eq!(trace.render().lines().count(), trace.len());
    let util = trace.compute_utilization(12);
    assert_eq!(util.len(), 12);
    assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    assert!(util.iter().any(|&u| u > 0.0));
}
