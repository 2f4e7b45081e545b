//! Property 1: the time to compute both Q and R is about twice the time
//! to compute R only — checked over the Fig. 5 sweep points.

use crate::{grid_runtime, run_point, Artifact, Sweep, Table};
use tsqr_core::experiment::{Algorithm, Mode};
use tsqr_core::tree::TreeShape;

pub(super) fn run(_: &Sweep) -> Artifact {
    let rt = &grid_runtime(4);
    let mut table = Table::new(
        "Property 1 — time(Q+R) / time(R), TSQR on 4 sites, 64 domains/cluster",
        &["M", "N", "t_R (s)", "t_QR (s)", "ratio"],
    );
    let mut artifact = Artifact::default();

    for n in [64usize, 128, 256, 512] {
        for m in [524_288u64, 4_194_304] {
            let run = |compute_q| {
                let tsqr =
                    Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 64 };
                run_point(rt, m, n, tsqr, compute_q, Mode::Symbolic)
            };
            let (t_r, t_qr) = (run(false).makespan.secs(), run(true).makespan.secs());
            let ratio = t_qr / t_r;
            let cells = [format!("{t_r:.4}"), format!("{t_qr:.4}"), format!("{ratio:.2}")];
            table.rows.push([m.to_string(), n.to_string()].into_iter().chain(cells).collect());
            artifact.check(
                format!("M={m}, N={n}: ratio within [1.6, 2.4]"),
                (1.6..=2.4).contains(&ratio),
                format!("{ratio:.2}"),
            );
        }
    }
    artifact.tables.push(table);
    artifact
}
