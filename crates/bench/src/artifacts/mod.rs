//! The artifact registry: every table, figure, property and ablation this
//! repository regenerates is one [`Figure`] row of [`figures`], and
//! [`crate::harness::run_figure`] (behind `grid-tsqr figure`) is the only
//! thing that runs one. The body of each lives in the file named after its
//! id.

use tsqr_core::experiment::Algorithm;

use crate::figures::FigurePoint;
use crate::harness::{tuned_tsqr, ShapeCheck, Sweep};

mod ablation_balance;
mod ablation_blocking;
mod ablation_cholqr;
mod ablation_wan_congestion;
mod caqr_scaling;
mod desktop_grid;
mod eq1;
mod fault_degradation;
mod fig12;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod prop1;
mod table1;
mod table2;

/// One regenerable artifact of the paper's evaluation.
pub struct Figure {
    /// What `grid-tsqr figure --id` calls it.
    pub id: &'static str,
    /// The artifact it reproduces.
    pub title: &'static str,
    /// Its headline configuration(s) — the points `--trace-out` dumps and
    /// the bench gate pins, the first listed being the primary one. Only
    /// Figs. 4–8 have any.
    pub points: &'static [FigurePoint],
    /// Prints the artifact and records its paper-shape checks.
    pub run: fn(&mut Sweep, &mut ShapeCheck),
}

/// The N columns of Figs. 4, 5 and 8, with their panel letters.
const PANELS: [(char, usize); 4] = [('a', 64), ('b', 128), ('c', 256), ('d', 512)];

const fn headline(
    figure: &'static str,
    label: &'static str,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
) -> FigurePoint {
    FigurePoint { figure, label, sites, m, n, algorithm }
}

const fn plain(id: &'static str, title: &'static str, run: fn(&mut Sweep, &mut ShapeCheck)) -> Figure {
    Figure { id, title, points: &[], run }
}

/// Every artifact, in the order `grid-tsqr figure --all` regenerates them.
/// Fig. 4's headline story is ScaLAPACK on the grid; Figs. 5–7 are TSQR;
/// Fig. 8 is the head-to-head at the paper's peak point.
static FIGURES: [Figure; 18] = [
    plain("table1", "Table I (R-only communication/computation counts)", table1::run),
    plain("table2", "Table II (Q+R counts)", table2::run),
    plain("fig12", "Figs. 1–2 (inter-cluster messages per tree)", fig12::run),
    plain("fig3", "Fig. 3(a) (measured link performance)", fig3::run),
    Figure {
        id: "fig4",
        title: "Fig. 4 (ScaLAPACK Gflop/s vs M, 1/2/4 sites)",
        points: &[headline("fig4", "scalapack", 4, 1_048_576, 64, Algorithm::ScalapackQr2)],
        run: fig4::run,
    },
    Figure {
        id: "fig5",
        title: "Fig. 5 (TSQR Gflop/s vs M, 1/2/4 sites)",
        points: &[headline("fig5", "tsqr", 4, 1_048_576, 64, tuned_tsqr(64))],
        run: fig5::run,
    },
    Figure {
        id: "fig6",
        title: "Fig. 6 (domains/cluster sweep, 4 sites)",
        points: &[headline("fig6", "tsqr", 4, 4_194_304, 64, tuned_tsqr(64))],
        run: fig6::run,
    },
    Figure {
        id: "fig7",
        title: "Fig. 7 (domains sweep, 1 site)",
        points: &[headline("fig7", "tsqr", 1, 1_048_576, 64, tuned_tsqr(64))],
        run: fig7::run,
    },
    Figure {
        id: "fig8",
        title: "Fig. 8 (best TSQR vs best ScaLAPACK)",
        points: &[
            headline("fig8", "tsqr", 4, 8_388_608, 512, tuned_tsqr(32)),
            headline("fig8", "scalapack", 4, 8_388_608, 512, Algorithm::ScalapackQr2),
        ],
        run: fig8::run,
    },
    plain("prop1", "Property 1 (Q+R ≈ 2× R-only)", prop1::run),
    plain("ablation_balance", "§III extension: load-balanced domains", ablation_balance::run),
    plain("ablation_cholqr", "§II-E: TSQR vs the unstable CholeskyQR scheme", ablation_cholqr::run),
    plain("ablation_blocking", "§II-B: NB/NX blocking machinery of PDGEQRF", ablation_blocking::run),
    plain("ablation_wan_congestion", "the Fig. 4 deviation, closed", ablation_wan_congestion::run),
    plain("caqr_scaling", "§VI: the \"CAQR should scale\" experiment", caqr_scaling::run),
    plain("fault_degradation", "WAN-degradation scenarios of the fault injector", fault_degradation::run),
    plain("desktop_grid", "§II-E future work: the internet-scale regime", desktop_grid::run),
    plain("eq1", "§IV: Eq. (1) vs the simulation, per configuration", eq1::run),
];

/// The registry.
pub fn figures() -> &'static [Figure] {
    &FIGURES
}
