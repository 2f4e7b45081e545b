//! The paper's stated future work (§II-E): "porting the work to a general
//! desktop grid". We run the TSQR-vs-ScaLAPACK comparison on the
//! internet-scale desktop-grid preset, where inter-region latency is three
//! orders of magnitude beyond Grid'5000's intra-cluster latency (§II-D's
//! "three or four orders of magnitude on an international, shared
//! network").
//!
//! Expectation: enough computation eventually amortizes any latency
//! (Property 3 is universal), but the *crossover* where extra regions
//! start paying off shifts by orders of magnitude: TSQR profits from four
//! regions at M ≈ 4·10⁶ while ScaLAPACK needs M ≈ 2.7·10⁸ — and in
//! between TSQR wins head-to-head by 3–10×.

use crate::harness::{symbolic, Artifact, Series, Sweep, Table};
use tsqr_core::experiment::{run_experiment, Algorithm, Experiment};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::desktop;

fn gflops(rt: &Runtime, m: u64, n: usize, algorithm: Algorithm) -> f64 {
    // Volunteer desktops: charge the flat host rate.
    let rate = Some(0.5e9);
    let point =
        Experiment { rate_flops: rate, combine_rate_flops: rate, ..symbolic(m, n, algorithm) };
    run_experiment(rt, &point).gflops
}

pub(super) fn run(_: &Sweep) -> Artifact {
    let n = 64usize;
    let ms: Vec<u64> = vec![1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28];
    let runtimes: Vec<(usize, Runtime)> = [1usize, 2, 4]
        .iter()
        .map(|&r| (r, Runtime::new(desktop::topology(r), desktop::cost_model(r))))
        .collect();
    let mut artifact = Artifact::default();
    // The 4-region series of TSQR, then of ScaLAPACK.
    let mut four_regions = Vec::new();

    for (label, algo) in [
        ("TSQR", Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 32 }),
        ("ScaLAPACK", Algorithm::ScalapackQr2),
    ] {
        let series: Vec<Series> = runtimes
            .iter()
            .map(|(regions, rt)| Series {
                label: format!("{regions}region(s)"),
                points: ms.iter().map(|&m| (m, gflops(rt, m, n, algo.clone()))).collect(),
            })
            .collect();
        artifact.tables.push(Table::series(
            format!("Desktop grid — {label}, N = {n}, 32 hosts/region"),
            "M",
            &series,
        ));
        let one = &series[0].points;
        let four = &series[2].points;
        let last = ms.len() - 1;
        // First M where four regions beat one — the multi-site crossover.
        let crossover =
            ms.iter().enumerate().find(|(i, _)| four[*i].1 > one[*i].1).map(|(_, &m)| m);
        if label == "TSQR" {
            let speedup = four[last].1 / one[last].1;
            artifact.check(
                "TSQR still scales across internet regions for very tall M",
                speedup > 3.0,
                format!("4-region speedup {speedup:.2}x at M = 2^28"),
            );
            artifact.check(
                "TSQR's multi-region crossover sits at moderate M (~4e6)",
                crossover.is_some_and(|m| m <= 1 << 22),
                format!("crossover at M = {crossover:?}"),
            );
        } else {
            artifact.check(
                "ScaLAPACK's crossover is pushed out ~2 orders of magnitude",
                crossover.is_none_or(|m| m >= 1 << 28),
                format!("crossover at M = {crossover:?} (TSQR: ~2^22)"),
            );
        }
        four_regions.push(four.clone());
    }

    // Head-to-head in the wide practical band between the two crossovers,
    // read off the 4-region series.
    let at = |points: &[(u64, f64)], m| {
        points.iter().find(|p| p.0 == m).expect("a point of the series").1
    };
    for (m, min_ratio) in [(1u64 << 22, 3.0), (1 << 24, 3.0), (1 << 26, 2.5)] {
        let (t, s) = (at(&four_regions[0], m), at(&four_regions[1], m));
        artifact.check(
            format!("TSQR dominates head-to-head at M = {m}"),
            t > min_ratio * s,
            format!("{t:.1} vs {s:.1} Gflop/s ({:.1}x)", t / s),
        );
    }
    artifact
}
