//! Table II: communication and computation breakdown when both the
//! Q-factor and the R-factor are needed — everything doubles relative to
//! Table I (Property 1).

use crate::harness::{grid_runtime, symbolic, Artifact, Sweep, Table};
use tsqr_core::experiment::{run_experiment, Algorithm, Experiment};
use tsqr_core::model;
use tsqr_core::tree::TreeShape;

pub(super) fn run(_: &Sweep) -> Artifact {
    let rt = &grid_runtime(4);
    let p = rt.topology().num_procs() as u64;

    let mut table = Table::new(
        format!("Table II — Q and R; P = {p} domains"),
        &["M", "N", "algorithm", "msgs", "flops/domain (model/meas)"],
    );
    let mut artifact = Artifact::default();

    for (m, n) in [(1u64 << 22, 64usize), (1 << 21, 256)] {
        let mk = |algorithm, compute_q| Experiment { compute_q, ..symbolic(m, n, algorithm) };
        let tsqr_cfg = Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: 64 };

        let t_r = run_experiment(rt, &mk(tsqr_cfg.clone(), false));
        let t_qr = run_experiment(rt, &mk(tsqr_cfg, true));
        let s_r = run_experiment(rt, &mk(Algorithm::ScalapackQr2, false));
        let s_qr = run_experiment(rt, &mk(Algorithm::ScalapackQr2, true));

        let t_model = model::tsqr_q_and_r(m, n as u64, p);
        let s_model = model::scalapack_q_and_r(m, n as u64, p);
        for (algorithm, model, run) in [("scalapack", &s_model, &s_qr), ("tsqr", &t_model, &t_qr)] {
            let flops = format!("{:.3e}/{:.3e}", model.flops, run.max_flops_per_rank() as f64);
            let cells = [algorithm.to_string(), format!("{:.0}", model.msgs), flops];
            table.rows.push([m.to_string(), n.to_string()].into_iter().chain(cells).collect());
        }

        // Messages double: total tree messages go from P−1 (up) to
        // 2(P−1) (up + down).
        artifact.check(
            format!("TSQR messages double with Q (N={n})"),
            t_qr.totals.total_msgs() == 2 * t_r.totals.total_msgs(),
            format!("{} vs {}", t_qr.totals.total_msgs(), t_r.totals.total_msgs()),
        );
        artifact.check(
            format!("ScaLAPACK messages double with Q (N={n})"),
            s_qr.totals.total_msgs() == 2 * s_r.totals.total_msgs(),
            format!("{} vs {}", s_qr.totals.total_msgs(), s_r.totals.total_msgs()),
        );
        // Flops double (within the E-block constant factor for TSQR).
        let t_ratio = t_qr.max_flops_per_rank() as f64 / t_r.max_flops_per_rank() as f64;
        let s_ratio = s_qr.max_flops_per_rank() as f64 / s_r.max_flops_per_rank() as f64;
        artifact.check(
            format!("flops about double with Q (N={n})"),
            (1.8..=2.4).contains(&t_ratio) && (s_ratio - 2.0).abs() < 1e-9,
            format!("tsqr {t_ratio:.2}x, scalapack {s_ratio:.2}x"),
        );
        // Property 1: run time about doubles.
        let t_time = t_qr.makespan.secs() / t_r.makespan.secs();
        artifact.check(
            format!("Property 1: time(Q+R) ~ 2 time(R) (N={n})"),
            (1.7..=2.4).contains(&t_time),
            format!("TSQR time ratio {t_time:.2}"),
        );
    }
    artifact.tables.push(table);
    artifact
}
