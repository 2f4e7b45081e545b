//! Ablation: WAN congestion and the one deviation from the paper.
//!
//! Our clean `β + α·v` pricing lets multi-site ScaLAPACK at N = 512 reach
//! ~149 Gflop/s where the paper measured < 90 (see EXPERIMENTS.md). The
//! real wide-area path punished every message with software and
//! cross-traffic overheads the paper's Eq. (1) does not carry. This
//! artifact adds a per-WAN-message congestion surcharge and shows:
//!
//! * a ~15 ms surcharge brings the ScaLAPACK multi-site tail back under
//!   the paper's 90 Gflop/s ceiling;
//! * TSQR, with its `#sites − 1` WAN messages, is **insensitive** to the
//!   surcharge — the whole point of communication avoidance: it wins by a
//!   larger margin the worse the WAN behaves.

use crate::{run_point, Artifact, Sweep, Table};
use tsqr_core::experiment::{Algorithm, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::grid5000;

fn gflops(rt: &Runtime, m: u64, n: usize, algorithm: Algorithm) -> f64 {
    run_point(rt, m, n, algorithm, false, Mode::Symbolic).gflops
}

pub(super) fn run(_: &Sweep) -> Artifact {
    let (m, n) = (8_388_608u64, 512usize); // the Fig. 4(d)/5(d) tail
    let mut table = Table::new(
        format!("WAN congestion surcharge sweep — M = {m}, N = {n}, 4 sites"),
        &["surcharge", "ScaLAPACK Gflop/s", "TSQR Gflop/s", "ratio"],
    );
    let mut artifact = Artifact::default();

    let mut scal_clean = 0.0;
    let mut tsqr_clean = 0.0;
    for overhead_ms in [0.0f64, 5.0, 15.0, 40.0] {
        let model = grid5000::cost_model().with_wan_overhead(overhead_ms * 1e-3);
        let rt = Runtime::new(grid5000::topology(4), model);
        let scal = gflops(&rt, m, n, Algorithm::ScalapackQr2);
        let tsqr = gflops(
            &rt,
            m,
            n,
            Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 32 },
        );
        let [scal_cell, tsqr_cell] = [scal, tsqr].map(|g| format!("{g:.1}"));
        table.rows.push(vec![
            format!("{overhead_ms:.0} ms"),
            scal_cell,
            tsqr_cell,
            format!("{:.2}", tsqr / scal),
        ]);
        if overhead_ms == 0.0 {
            scal_clean = scal;
            tsqr_clean = tsqr;
        }
        if overhead_ms == 15.0 {
            artifact.check(
                "15 ms surcharge puts multi-site ScaLAPACK back under the paper's 90",
                scal < 90.0,
                format!("{scal:.1} Gflop/s (clean model: {scal_clean:.1})"),
            );
            artifact.check(
                "TSQR is insensitive to WAN congestion (within 2%)",
                (tsqr / tsqr_clean - 1.0).abs() < 0.02,
                format!("{tsqr:.1} vs {tsqr_clean:.1} Gflop/s"),
            );
        }
        if overhead_ms == 40.0 {
            artifact.check(
                "the worse the WAN, the bigger TSQR's win",
                tsqr / scal > tsqr_clean / scal_clean,
                format!("ratio {:.2} vs clean {:.2}", tsqr / scal, tsqr_clean / scal_clean),
            );
        }
    }
    artifact.tables.push(table);
    artifact
}
