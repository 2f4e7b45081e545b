//! The experiment the paper's conclusion calls for (§VI): does **CAQR** —
//! the general-matrix factorization whose panel is TSQR — scale across
//! geographical sites like TSQR does?
//!
//! "From models, there is no doubt that CAQR should scale. However we
//! will need to perform the experiment to confirm this claim."
//!
//! We run distributed CAQR (symbolic engine, real schedules) on 1, 2 and
//! 4 Grid'5000 sites for general matrices of growing height and report
//! the multi-site speedups.

use crate::{calib, grid_runtime, Artifact, Sweep, Table};
use tsqr_core::caqr_dist::{caqr_dist_program_async, CaqrDistConfig};
use tsqr_core::experiment::run_ranks;
use tsqr_core::model;
use tsqr_core::tile::Dims;
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::{RunReport, Runtime};

const TILE: usize = 64;

/// Distributed CAQR of a symbolic `m × n` matrix on `rt`.
fn caqr(rt: &Runtime, m: u64, n: usize) -> RunReport<()> {
    let cfg = CaqrDistConfig {
        tile: TILE,
        shape: TreeShape::GridHierarchical,
        rate_flops: Some(calib::kernel_rate_flops(TILE)),
        combine_rate_flops: Some(calib::combine_rate_flops()),
    };
    let dims = |_, rows| Dims { rows, cols: n };
    run_ranks::<Dims, _, _>(rt, async |p, _| {
        caqr_dist_program_async(p, m, n, &cfg, dims).await.map(|_| ())
    })
}

pub(super) fn run(_: &Sweep) -> Artifact {
    let mut table = Table::new(
        format!("CAQR on the grid — general M x N matrices, tile = {TILE}"),
        &["M", "N", "1 site", "2 sites", "4 sites", "speedup4"],
    );
    let mut artifact = Artifact::default();
    // Inter-cluster messages of each 4-site run, for the WAN checks.
    let mut wan = Vec::new();

    for (m, n) in [
        (262_144u64, 512usize),
        (1_048_576, 512),
        (4_194_304, 512),
        (1_048_576, 1024),
        (4_194_304, 1024),
    ] {
        let [r1, r2, r4] = Sweep::SITES.map(|sites| caqr(&grid_runtime(sites), m, n));
        wan.push(((m, n), r4.totals.inter_cluster_msgs()));
        // Useful flops of a full QR of an m × n matrix, per simulated second.
        let [g1, g2, g4] =
            [r1, r2, r4].map(|r| model::useful_flops(m, n as u64, false) / r.makespan.secs() / 1e9);
        let s4 = g4 / g1;
        let [c1, c2, c4] = [g1, g2, g4].map(|g| format!("{g:.1}"));
        table.rows.push(vec![m.to_string(), n.to_string(), c1, c2, c4, format!("{s4:.2}x")]);
        if m >= 4_194_304 {
            artifact.check(
                format!("CAQR scales across sites at M={m}, N={n}"),
                s4 > 2.5 && g2 > g1,
                format!("4-site speedup {s4:.2}x"),
            );
        }
    }
    artifact.tables.push(table);

    // And the WAN bill: per panel the tuned tree crosses sites O(#sites)
    // times, so total WAN messages grow with N/b, not with M or the
    // trailing width.
    let wan_of =
        |point| wan.iter().find(|(p, _)| *p == point).expect("a 4-site run of the table").1;
    let wan_tall = wan_of((1_048_576, 512));
    let wan_taller = wan_of((4_194_304, 512));
    artifact.check(
        "WAN messages independent of M",
        wan_tall == wan_taller,
        format!("{wan_tall} vs {wan_taller}"),
    );
    let wan_wide = wan_of((1_048_576, 1024));
    artifact.check(
        "WAN messages scale with the panel count (N/b)",
        wan_wide > wan_tall && wan_wide <= 2 * wan_tall + 16,
        format!("N=512: {wan_tall}, N=1024: {wan_wide}"),
    );
    artifact
}
