//! Figure 5: QCG-TSQR performance (Gflop/s, optimum number of domains)
//! against M for N ∈ {64, 128, 256, 512} on one, two and four sites.
//!
//! Paper shapes to reproduce (the central claim): for M ≥ 5·10⁵ the
//! four-site run is fastest, and for very tall matrices (M ≥ 5·10⁶) the
//! speedup over one site approaches 4 — performance scales linearly with
//! the number of geographical sites.
//!
//! (`--trace-out fig5.json` dumps a Chrome trace of the 4-site
//! M = 2²⁰, N = 64 point — expect O(log #clusters) WAN messages total.)

use super::PANELS;
use crate::{paper_m_values, print_series_table, Series, ShapeCheck, Sweep};

pub(super) fn run(sweep: &mut Sweep, checks: &mut ShapeCheck) {
    for (panel, n) in PANELS {
        let ms = paper_m_values(n);
        let series: Vec<Series> = Sweep::SITES
            .iter()
            .map(|&sites| Series {
                label: format!("{sites}site(s)"),
                points: ms.iter().map(|&m| (m, sweep.tsqr_best_gflops(sites, m, n).0)).collect(),
            })
            .collect();
        print_series_table(&format!("Fig. 5 ({panel}) — TSQR (best #domains), N = {n}"), "M", &series);

        let one = &series[0].points;
        let two = &series[1].points;
        let four = &series[2].points;
        // Four sites fastest for all moderate-to-tall matrices.
        let four_wins = ms
            .iter()
            .enumerate()
            .filter(|(_, &m)| m >= 524_288)
            .all(|(i, _)| four[i].1 >= one[i].1 && four[i].1 >= two[i].1);
        checks.check(
            &format!("N={n}: 4 sites fastest for M >= 5e5"),
            four_wins,
            String::new(),
        );
        // Near-linear scaling at the tallest M.
        let last = ms.len() - 1;
        let s4 = four[last].1 / one[last].1;
        let s2 = two[last].1 / one[last].1;
        checks.check(
            &format!("N={n}: near-linear scaling with sites at tallest M (central claim)"),
            s4 > 3.3 && s2 > 1.7,
            format!("2-site speedup {s2:.2}, 4-site speedup {s4:.2}"),
        );
    }

    // Headline number: the paper's 8,388,608 × 512 four-site point
    // reaches 256 Gflop/s (§V-D).
    let (g, d) = sweep.tsqr_best_gflops(4, 8_388_608, 512);
    checks.check(
        "N=512 four-site peak lands in the paper's range (~256 Gflop/s)",
        (180.0..360.0).contains(&g),
        format!("{g:.0} Gflop/s at {d} domains/cluster"),
    );
}
