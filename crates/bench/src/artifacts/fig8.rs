//! Figure 8: best TSQR vs best ScaLAPACK — for each algorithm the optimum
//! configuration over one, two or four sites (the convex hull of the
//! Fig. 4 / Fig. 5 site series).
//!
//! Paper shapes: TSQR consistently beats ScaLAPACK across the whole range
//! of matrix shapes; the gap narrows for "not so tall and not so skinny"
//! matrices (small M, N = 512 — Property 5).
//!
//! (`--trace-out fig8.json` dumps Chrome traces of the head-to-head
//! 4-site M = 2²³, N = 512 point: `fig8.json` for TSQR at its optimum
//! 32 domains/cluster and `fig8.json.scalapack.json` for ScaLAPACK.)

use super::PANELS;
use crate::harness::{paper_m_values, Artifact, Series, Sweep, Table};
use tsqr_core::experiment::Algorithm;

pub(super) fn run(sweep: &Sweep) -> Artifact {
    let mut artifact = Artifact::default();
    for (panel, n) in PANELS {
        let ms = paper_m_values(n);
        let best = |gflops: &dyn Fn(usize, u64) -> f64| -> Vec<(u64, f64)> {
            ms.iter()
                .map(|&m| (m, Sweep::SITES.iter().map(|&s| gflops(s, m)).fold(0.0, f64::max)))
                .collect()
        };
        let tsqr_best = best(&|s, m| sweep.tsqr_best_gflops(s, m, n).0);
        let scal_best = best(&|s, m| sweep.gflops(s, m, n, &Algorithm::ScalapackQr2));
        artifact.tables.push(Table::series(
            format!("Fig. 8 ({panel}) — best-configuration comparison, N = {n}"),
            "M",
            &[
                Series { label: "TSQR(best)".into(), points: tsqr_best.clone() },
                Series { label: "ScaLAPACK(best)".into(), points: scal_best.clone() },
            ],
        ));

        // TSQR consistently at least as fast.
        let always_wins = tsqr_best.iter().zip(&scal_best).all(|(t, s)| t.1 >= s.1 * 0.999);
        artifact.check(
            format!("N={n}: TSQR consistently >= ScaLAPACK"),
            always_wins,
            String::new(),
        );
        // Gap ratio at the smallest M.
        let gap_small = tsqr_best[0].1 / scal_best[0].1;
        let gap_mid = tsqr_best[ms.len() / 2].1 / scal_best[ms.len() / 2].1;
        if n == 512 {
            artifact.check(
                "N=512: gap narrows for not-so-tall matrices (Property 5)",
                gap_small < gap_mid && gap_small < 1.6,
                format!("gap {gap_small:.2}x at M={}, {gap_mid:.2}x mid-range", ms[0]),
            );
        }
        if n == 64 {
            artifact.check(
                "N=64: TSQR wins big on skinny matrices",
                gap_small > 1.5 || gap_mid > 1.5,
                format!("gap {gap_small:.2}x small-M, {gap_mid:.2}x mid-range"),
            );
        }
    }
    artifact
}
