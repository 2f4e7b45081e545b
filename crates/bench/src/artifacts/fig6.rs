//! Figure 6: effect of the number of domains per cluster on TSQR
//! performance, executed on all four sites, for N ∈ {64, 128, 256, 512}.
//!
//! Paper shapes: performance globally increases with the number of
//! domains; the impact shrinks as M grows (Property 3); the optimum is 64
//! domains/cluster (one per process) for N = 64 and 32 (one per node) for
//! N = 512 — trading flops for intra-node communication stops paying off
//! at large N.
//!
//! (`--trace-out fig6.json` dumps a Chrome trace of the 4-site
//! M = 2²², N = 64 point at the optimum 64 domains/cluster.)

use crate::{domain_options, print_series_table, Series, ShapeCheck, Sweep};

pub(super) fn run(sweep: &mut Sweep, checks: &mut ShapeCheck) {
    // The M values plotted per panel in the paper.
    let panel_ms: [(usize, [u64; 4]); 4] = [
        (64, [33_554_432, 4_194_304, 524_288, 131_072]),
        (128, [33_554_432, 4_194_304, 524_288, 262_144]),
        (256, [8_388_608, 2_097_152, 524_288, 262_144]),
        (512, [8_388_608, 2_097_152, 524_288, 262_144]),
    ];

    for (panel, (n, ms)) in panel_ms.iter().enumerate() {
        let series: Vec<Series> = ms
            .iter()
            .map(|&m| Series {
                label: format!("M={m}"),
                points: domain_options()
                    .iter()
                    .map(|&dpc| (dpc as u64, sweep.tsqr_gflops(4, m, *n, dpc)))
                    .collect(),
            })
            .collect();
        print_series_table(
            &format!("Fig. 6 ({}) — N = {n}, 4 sites, x = domains/cluster", ['a', 'b', 'c', 'd'][panel]),
            "domains",
            &series,
        );

        // Globally increasing (up to the large-N crossover at the last
        // step) and flattening as M grows.
        let tallest = &series[0].points;
        let shortest = series.last().unwrap().points.clone();
        let spread = |pts: &[(u64, f64)]| {
            let max = pts.iter().map(|p| p.1).fold(0.0, f64::max);
            let min = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            (max - min) / max
        };
        checks.check(
            &format!("N={n}: domain impact is limited for the tallest M (Property 3)"),
            spread(tallest) < spread(&shortest),
            format!("relative spread {:.3} (tall) vs {:.3} (short)", spread(tallest), spread(&shortest)),
        );
    }

    // The optimum domain count: 64 at N = 64, 32 at N = 512 (paper §V-D),
    // checked on a mid-size matrix where the effect is visible.
    let d64 = sweep.tsqr_best_gflops(4, 524_288, 64).1;
    checks.check(
        "N=64: optimum is 64 domains/cluster (one per process)",
        d64 == 64,
        format!("optimum {d64}"),
    );
    let d512 = sweep.tsqr_best_gflops(4, 524_288, 512).1;
    checks.check(
        "N=512: optimum is 32 domains/cluster (one per node)",
        d512 == 32,
        format!("optimum {d512}"),
    );
}
