//! Table I: communication and computation breakdown when only the
//! R-factor is needed — closed-form model vs counts measured from the
//! actual distributed schedules.

use crate::harness::symbolic;
use crate::{ShapeCheck, Sweep};
use tsqr_core::experiment::{run_experiment, Algorithm};
use tsqr_core::model;
use tsqr_core::tree::TreeShape;

pub(super) fn run(sweep: &mut Sweep, checks: &mut ShapeCheck) {
    let rt = sweep.runtime(4);
    let p = rt.topology().num_procs() as u64; // 256 = number of domains here

    println!("# Table I — R-factor only; M x N over P = {p} domains");
    println!(
        "# {:>10} {:>5} | {:>22} | {:>22} | {:>24}",
        "M", "N", "#msgs (model/meas)", "words (model/meas)", "flops/domain (model/meas)"
    );

    for (m, n) in [(1u64 << 22, 64usize), (1 << 22, 128), (1 << 21, 256)] {
        let mk = |algorithm| symbolic(m, n, algorithm);

        // --- ScaLAPACK QR2: the critical path runs through any single
        // rank's sends (every rank participates in every reduction).
        let scal = run_experiment(rt, &mk(Algorithm::ScalapackQr2));
        let scal_model = model::scalapack_r_only(m, n as u64, p);
        let scal_msgs = scal.totals.total_msgs() / p; // per-rank
        let scal_words = scal.totals.total_bytes() / p / 8;
        let scal_flops = scal.totals.flops / p;
        println!(
            "  {:>10} {:>5} | scalapack {:>6.0}/{:<6} | {:>10.0}/{:<10} | {:>11.2e}/{:<11.2e}",
            m, n, scal_model.msgs, scal_msgs, scal_model.words, scal_words,
            scal_model.flops, scal_flops as f64
        );

        // --- TSQR (one domain per process, binary tree as in the model).
        let tsqr = run_experiment(
            rt,
            &mk(Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: 64 }),
        );
        let tsqr_model = model::tsqr_r_only(m, n as u64, p);
        // Critical path: the root's chain of receives = tree depth; every
        // R factor is n(n+1)/2 words.
        let depth = (p as f64).log2();
        let tsqr_meas_msgs = depth; // by construction of the binary tree
        let tsqr_words_crit = depth * (n * (n + 1) / 2) as f64;
        // Critical-path flops: the tree root does its leaf plus log2(P)
        // combines — the rank with the largest flop count.
        let tsqr_flops = tsqr.max_flops_per_rank() as f64;
        println!(
            "  {:>10} {:>5} | tsqr      {:>6.0}/{:<6.0} | {:>10.0}/{:<10.0} | {:>11.2e}/{:<11.2e}",
            m, n, tsqr_model.msgs, tsqr_meas_msgs, tsqr_model.words, tsqr_words_crit,
            tsqr_model.flops, tsqr_flops
        );

        let nf = n as f64;
        checks.check(
            &format!("msgs ratio = 2N (M={m}, N={n})"),
            (scal_model.msgs / tsqr_model.msgs - 2.0 * nf).abs() < 1e-9
                && (scal_msgs as f64 / depth / (2.0 * nf) - 1.0).abs() < 0.05,
            format!(
                "model {:.0}x, measured {:.1}x vs 2N = {:.0}",
                scal_model.msgs / tsqr_model.msgs,
                scal_msgs as f64 / depth,
                2.0 * nf
            ),
        );
        checks.check(
            &format!("measured ScaLAPACK words ~ log2(P)N^2/2 (N={n})"),
            (scal_words as f64 / scal_model.words - 1.0).abs() < 0.10,
            format!("{} vs {:.0}", scal_words, scal_model.words),
        );
        checks.check(
            &format!("measured flops/domain within 5% of Table I (N={n})"),
            (scal_flops as f64 / scal_model.flops - 1.0).abs() < 0.05
                && (tsqr_flops / tsqr_model.flops - 1.0).abs() < 0.30,
            format!(
                "scalapack {:.3e}/{:.3e}, tsqr {:.3e}/{:.3e}",
                scal_flops as f64, scal_model.flops, tsqr_flops, tsqr_model.flops
            ),
        );
    }
}
