//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV–§V) on the simulated Grid'5000.
//!
//! Each row of the registry ([`figures()`]) reproduces one artifact, and
//! `grid-tsqr figure --id <id>` (repeatable; `--all` for every row, no flag
//! to list them) regenerates it and exits 1 on a `[FAIL]` shape check:
//!
//! | id                  | artifact                                            |
//! |---------------------|-----------------------------------------------------|
//! | `table1`            | Table I (R-only communication/computation counts)   |
//! | `table2`            | Table II (Q+R counts)                               |
//! | `fig12`             | Figs. 1–2 (inter-cluster messages per tree)         |
//! | `fig3`              | Fig. 3(a) (measured link performance)               |
//! | `fig4`              | Fig. 4 (ScaLAPACK Gflop/s vs M, 1/2/4 sites)        |
//! | `fig5`              | Fig. 5 (TSQR Gflop/s vs M, 1/2/4 sites)             |
//! | `fig6`              | Fig. 6 (domains/cluster sweep, 4 sites)             |
//! | `fig7`              | Fig. 7 (domains sweep, 1 site)                      |
//! | `fig8`              | Fig. 8 (best TSQR vs best ScaLAPACK)                |
//! | `prop1`             | Property 1 (Q+R ≈ 2× R-only)                        |
//! | `ablation_balance`  | §III extension: load-balanced domains               |
//! | `ablation_cholqr`   | §II-E: TSQR vs the unstable CholeskyQR scheme       |
//! | `ablation_blocking` | §II-B: NB/NX blocking machinery of PDGEQRF          |
//! | `ablation_wan_congestion` | the Fig. 4 deviation, closed               |
//! | `caqr_scaling`      | §VI: the "CAQR should scale" experiment             |
//! | `fault_degradation` | WAN-degradation scenarios of the fault injector     |
//! | `desktop_grid`      | §II-E future work: the internet-scale regime        |
//! | `eq1`               | §IV: Eq. (1) vs the simulation, per configuration   |
//!
//! Pass `--trace-out <file>` with one of `fig4`–`fig8` to additionally dump
//! a Chrome-trace JSON of that figure's headline configuration, plus its
//! critical path and per-phase Eq. (1) ledger (see `docs/observability.md`).
//! The two other gates are registries here too, run on the same pool:
//! `grid-tsqr bench-check` (driven by `scripts/bench_check.sh`) measures
//! every point of [`gate_points`] and diffs it against the committed
//! `BENCH_baseline.json`, its claims returned as [`Check`]s
//! ([`measure_gate`]); `grid-tsqr check` runs every scenario of
//! [`commcheck`] and compares its lines with `COMMCHECK_baseline.txt`. The
//! binary keeps argument handling, printing and the golden compare.
//!
//! The sweeps execute the *actual distributed schedules* of the algorithms
//! (symbolic payloads, real message passing, virtual clocks priced with the
//! paper's measured constants); see `calib` for the one fitted constant
//! (the domain-kernel efficiency curve η(N)). The points a body reads are
//! declared, then priced on every core ([`Sweep`]); the body reads them and
//! returns its [`Artifact`](harness::Artifact) — tables of formatted cells and the paper-shape
//! [`Check`]s — without printing. [`run_figures`] runs the bodies on the
//! same pool and prints the artifacts through one printer. The pool
//! (`harness::on_pool`) is the crate's one `thread::scope`: sweep points,
//! artifact bodies, gate points and commcheck scenarios all run on it, the
//! results in input order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifacts;
pub mod calib;
pub mod commcheck;
pub mod figures;
pub mod harness;

pub use artifacts::{figures, Figure};
pub use figures::{
    compare_records, gate_points, ledger_entry, measure_gate, measure_point, parse_records,
    records_json, serve_fault_points, serve_record, FigurePoint, GatePoint,
};
pub use harness::{
    dump_traced_point, grid_runtime, platform_runtime, run_figures, run_point, Check, Sweep, Table,
};
