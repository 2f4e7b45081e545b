//! Figure 7: effect of the number of domains on TSQR performance on a
//! *single* site, for N = 64 and N = 512.
//!
//! Paper shapes: at N = 64 the optimum is 64 domains (one per process);
//! at N = 512 it is 32 (one per node). These single-site optima are the
//! ones that transpose to the grid runs of Fig. 6.
//!
//! (`--trace-out fig7.json` dumps a Chrome trace of the single-site
//! M = 2²⁰, N = 64 point at 64 domains — no WAN sends at all.)

use super::domain_series;
use crate::harness::{tuned_tsqr, Artifact, Sweep, Table};

/// The M values plotted per panel, for each N (M = 65 536 is off the grid of Figs. 4–5).
pub(super) const PANEL_MS: [(usize, [u64; 4]); 2] =
    [(64, [8_388_608, 1_048_576, 131_072, 65_536]), (512, [2_097_152, 1_048_576, 131_072, 65_536])];

pub(super) fn run(sweep: &Sweep) -> Artifact {
    let mut artifact = Artifact::default();
    for (panel, (n, ms)) in PANEL_MS.iter().enumerate() {
        let series = domain_series(sweep, 1, *n, ms);
        artifact.tables.push(Table::series(
            format!("Fig. 7 ({}) — N = {n}, 1 site, x = domains", ['a', 'b'][panel]),
            "domains",
            &series,
        ));

        let (best_g, opt) = sweep.tsqr_best_gflops(1, ms[1], *n);
        let want = if *n == 64 { 64 } else { 32 };
        artifact.check(
            format!("N={n}: optimum domain count is {want}"),
            opt == want,
            format!("optimum {opt} at M={}", ms[1]),
        );
        // Performance increases from 1 domain to the optimum.
        let worst = sweep.gflops(1, ms[1], *n, &tuned_tsqr(1));
        artifact.check(
            format!("N={n}: splitting into domains helps (vs 1 domain)"),
            best_g > worst,
            format!("{best_g:.1} vs {worst:.1} Gflop/s"),
        );
    }

    // Paper single-site plateaus used for the calibration — report them.
    let g64 = sweep.gflops(1, 8_388_608, 64, &tuned_tsqr(64));
    let g512 = sweep.gflops(1, 2_097_152, 512, &tuned_tsqr(32));
    artifact.check(
        "single-site plateaus near the paper's (35 / 90 Gflop/s)",
        (28.0..45.0).contains(&g64) && (70.0..110.0).contains(&g512),
        format!("N=64: {g64:.1}, N=512: {g512:.1}"),
    );
    artifact
}
