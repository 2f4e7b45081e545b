//! Property 1: the time to compute both Q and R is about twice the time
//! to compute R only — checked over the Fig. 5 sweep points.

use crate::{run_point, ShapeCheck, Sweep};
use tsqr_core::experiment::{Algorithm, Mode};
use tsqr_core::tree::TreeShape;

pub(super) fn run(sweep: &mut Sweep, checks: &mut ShapeCheck) {
    let rt = sweep.runtime(4);
    println!("# Property 1 — time(Q+R) / time(R), TSQR on 4 sites, 64 domains/cluster");
    println!("# {:>10} {:>5} {:>10} {:>10} {:>7}", "M", "N", "t_R (s)", "t_QR (s)", "ratio");

    for n in [64usize, 128, 256, 512] {
        for m in [524_288u64, 4_194_304] {
            let run = |compute_q| {
                let tsqr = Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 64,
                };
                run_point(rt, m, n, tsqr, compute_q, Mode::Symbolic)
            };
            let (r_only, with_q) = (run(false), run(true));
            let ratio = with_q.makespan.secs() / r_only.makespan.secs();
            println!(
                "  {:>10} {:>5} {:>10.4} {:>10.4} {:>7.2}",
                m,
                n,
                r_only.makespan.secs(),
                with_q.makespan.secs(),
                ratio
            );
            checks.check(
                &format!("M={m}, N={n}: ratio within [1.6, 2.4]"),
                (1.6..=2.4).contains(&ratio),
                format!("{ratio:.2}"),
            );
        }
    }
}
