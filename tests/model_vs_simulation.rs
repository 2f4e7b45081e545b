//! The paper's Eq. (1) closed-form model against the discrete simulation:
//! on a homogeneous network (the model's own assumption, §IV) the
//! predicted and simulated times must agree closely; the five Properties
//! must hold in both.

use grid_tsqr::core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use grid_tsqr::core::model;
use grid_tsqr::core::modelfit;
use grid_tsqr::core::tree::TreeShape;
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

const BETA_MS: f64 = 1.0;
const MBPS: f64 = 100.0;
const RATE: f64 = 1.0e9;

fn homogeneous_runtime(procs: usize) -> Runtime {
    let topo = GridTopology::block_placement(
        vec![ClusterSpec {
            name: "c".into(),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        }],
        procs,
        1,
    );
    Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(BETA_MS, MBPS), RATE, 1))
}

fn eq1_params() -> (f64, f64, f64) {
    let beta = BETA_MS * 1e-3;
    let alpha_word = 64.0 / (MBPS * 1e6); // 8 bytes = 64 bits per word
    let gamma = 1.0 / RATE;
    (beta, alpha_word, gamma)
}

#[test]
fn tsqr_simulated_time_matches_eq1() {
    let procs = 16;
    let rt = homogeneous_runtime(procs);
    let (beta, alpha, gamma) = eq1_params();
    for (m, n) in [(1u64 << 20, 32usize), (1 << 22, 64), (1 << 18, 16)] {
        let sim = run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm: Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: procs },
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(RATE),
                combine_rate_flops: Some(RATE),
            },
        );
        let predicted = model::tsqr_r_only(m, n as u64, procs as u64).time(beta, alpha, gamma);
        let ratio = sim.makespan.secs() / predicted;
        assert!(
            (0.85..1.20).contains(&ratio),
            "M={m} N={n}: simulated {:.4}s vs Eq.(1) {predicted:.4}s (ratio {ratio:.3})",
            sim.makespan.secs()
        );
    }
}

#[test]
fn scalapack_simulated_time_matches_eq1() {
    let procs = 16;
    let rt = homogeneous_runtime(procs);
    let (beta, alpha, gamma) = eq1_params();
    for (m, n) in [(1u64 << 20, 32usize), (1 << 21, 64)] {
        let sim = run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm: Algorithm::ScalapackQr2,
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(RATE),
                combine_rate_flops: None,
            },
        );
        let predicted = model::scalapack_r_only(m, n as u64, procs as u64).time(beta, alpha, gamma);
        let ratio = sim.makespan.secs() / predicted;
        assert!(
            (0.85..1.25).contains(&ratio),
            "M={m} N={n}: simulated {:.4}s vs Eq.(1) {predicted:.4}s (ratio {ratio:.3})",
            sim.makespan.secs()
        );
    }
}

#[test]
fn least_squares_fit_recovers_eq1_on_homogeneous_network() {
    // The inverse problem: fit (beta, alpha, gamma) back from the
    // per-(rank, phase) metrics of a finished run. On the homogeneous
    // network the execution *is* Eq. (1), so the relative residual must
    // stay under 5% and the recovered flop rate must match the
    // configured one. (On the grid model the residual is larger — that
    // gap is exactly what `grid-tsqr analyze` reports.)
    let procs = 16;
    let rt = homogeneous_runtime(procs);
    let (_, _, gamma) = eq1_params();
    for algorithm in [
        Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: procs },
        Algorithm::ScalapackQr2,
    ] {
        let res = run_experiment(
            &rt,
            &Experiment {
                m: 1 << 20,
                n: 32,
                algorithm: algorithm.clone(),
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(RATE),
                combine_rate_flops: Some(RATE),
            },
        );
        let samples = modelfit::samples_from_metrics(&res.metrics);
        let fit = modelfit::fit(&samples).expect("fit exists");
        assert!(
            fit.rel_residual < 0.05,
            "{algorithm:?}: homogeneous residual {:.4} must stay under 5%",
            fit.rel_residual
        );
        if matches!(algorithm, Algorithm::Tsqr { .. }) {
            // TSQR's phases (compute-only leaf-qr vs message-heavy
            // tree-reduce) make gamma identifiable and it must match the
            // configured rate. ScaLAPACK's symbolic run gives every rank
            // the identical (msgs, words, flops) cell, so its individual
            // coefficients are legitimately undetermined — only its
            // prediction (checked below) is pinned.
            assert!(
                (fit.gamma_s_per_flop - gamma).abs() / gamma < 0.05,
                "fitted gamma {:.3e} vs configured {gamma:.3e}",
                fit.gamma_s_per_flop
            );
        }
        // The fit predicts the run it saw: per-phase observed vs
        // predicted seconds agree in aggregate.
        let (obs, pred): (f64, f64) =
            fit.per_phase.iter().fold((0.0, 0.0), |(o, p), (_, po, pp)| (o + po, p + pp));
        assert!((obs - pred).abs() / obs.max(1e-12) < 0.05, "{algorithm:?}");
    }
}

#[test]
fn model_and_simulation_agree_on_the_winner() {
    // Wherever Eq. (1) says TSQR wins by a clear margin, the simulation
    // must agree (and vice versa at huge N where ScaLAPACK wins).
    let procs = 16;
    let rt = homogeneous_runtime(procs);
    let (beta, alpha, gamma) = eq1_params();
    for (m, n) in [(1u64 << 20, 16usize), (1 << 20, 64), (1 << 17, 128)] {
        let mk = |algorithm| Experiment {
            m,
            n,
            algorithm,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: Some(RATE),
            combine_rate_flops: Some(RATE),
        };
        let sim_tsqr = run_experiment(
            &rt,
            &mk(Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: procs }),
        )
        .makespan
        .secs();
        let sim_scal = run_experiment(&rt, &mk(Algorithm::ScalapackQr2)).makespan.secs();
        let mod_tsqr = model::tsqr_r_only(m, n as u64, procs as u64).time(beta, alpha, gamma);
        let mod_scal = model::scalapack_r_only(m, n as u64, procs as u64).time(beta, alpha, gamma);
        assert_eq!(sim_tsqr < sim_scal, mod_tsqr < mod_scal, "winner disagreement at M={m}, N={n}");
    }
}

#[test]
fn properties_3_and_4_hold_in_simulation() {
    let procs = 16;
    let rt = homogeneous_runtime(procs);
    let gflops = |m: u64, n: usize| {
        run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm: Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: procs },
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(RATE),
                combine_rate_flops: Some(RATE),
            },
        )
        .gflops
    };
    // Property 3: grows with M.
    let mut last = 0.0;
    for m in [1u64 << 16, 1 << 18, 1 << 20, 1 << 22] {
        let g = gflops(m, 32);
        assert!(g > last, "Gflop/s must grow with M");
        last = g;
    }
    // Property 4: grows with N.
    let mut last = 0.0;
    for n in [8usize, 16, 32, 64] {
        let g = gflops(1 << 20, n);
        assert!(g > last, "Gflop/s must grow with N");
        last = g;
    }
}

#[test]
fn property_5_crossover_in_simulation() {
    // At fixed (shortish) M, TSQR wins mid-range N but the extra
    // 2/3·log₂(P)·N³ flops eventually hand the win to ScaLAPACK.
    let procs = 16;
    let rt = homogeneous_runtime(procs);
    let time = |algorithm, n: usize, m: u64| {
        run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm,
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(RATE),
                combine_rate_flops: Some(RATE),
            },
        )
        .makespan
        .secs()
    };
    let tsqr_cfg = Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: procs };
    let m = 1u64 << 17;
    // Mid-range N: TSQR faster.
    assert!(time(tsqr_cfg.clone(), 64, m) < time(Algorithm::ScalapackQr2, 64, m));
    // Very large N (8192 rows per rank, N = 3072): TSQR's extra
    // 2/3·log₂(P)·N³ flops exceed ScaLAPACK's 2N·log₂(P) latency bill and
    // ScaLAPACK wins — the crossover of Property 5.
    assert!(time(tsqr_cfg, 3072, m) > time(Algorithm::ScalapackQr2, 3072, m));
}
