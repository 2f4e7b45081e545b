//! The degradation bench: every registered WAN-degradation scenario
//! ([`crate::fault_points`]) next to its failure-free twin, on the
//! 4-site grid.
//!
//! The fault injector degrades link *pricing*, never routing, so two
//! invariants must hold for each scenario and are checked here:
//!
//! * **identical traffic** — message, WAN-message and byte counts equal
//!   the failure-free twin's exactly;
//! * **slower clock** — the degraded makespan is strictly larger, and
//!   for whole-run degradations by a sizeable factor (the WAN terms of
//!   Eq. (1) scale with the injected latency/bandwidth factors).
//!
//! The same scenarios are pinned by the perf gate (`grid-tsqr
//! bench-check`), so a regression in the degraded makespans fails CI
//! exactly like a Fig. 4–8 regression; see `docs/fault-injection.md`
//! §Degradation bench.

use crate::figures::fault_points;
use crate::harness::{Artifact, Sweep, Table};

pub(super) fn run(_: &Sweep) -> Artifact {
    let mut table = Table::new(
        "WAN degradation — each scenario next to its failure-free twin",
        &[
            "scenario",
            "clean (s)",
            "degraded (s)",
            "slowdown",
            "window (s)",
            "latency",
            "bandwidth",
        ],
    );
    let mut artifact = Artifact::default();
    for p in &fault_points() {
        let clean = p.measure(false);
        let degraded = p.measure(true);
        let id = &degraded.scenario;
        let slowdown = degraded.makespan_s / clean.makespan_s;
        let [clean_s, degraded_s] =
            [clean.makespan_s, degraded.makespan_s].map(|t| format!("{t:.4}"));
        let (window, slowdown_x) = (format!("{:?}", p.window_s), format!("{slowdown:.2}x"));
        let (lat, bw) = (format!("x{}", p.latency_factor), format!("/{}", p.bandwidth_divisor));
        table.rows.push(vec![id.clone(), clean_s, degraded_s, slowdown_x, window, lat, bw]);

        artifact.check(
            format!("{id}: traffic identical to the failure-free twin"),
            degraded.msgs == clean.msgs
                && degraded.wan_msgs == clean.wan_msgs
                && degraded.bytes == clean.bytes,
            format!(
                "msgs {} vs {}, WAN {} vs {}, bytes {} vs {}",
                degraded.msgs,
                clean.msgs,
                degraded.wan_msgs,
                clean.wan_msgs,
                degraded.bytes,
                clean.bytes
            ),
        );
        // Whole-run degradations must visibly slow the reduction; the
        // transient brown-out only needs to not *speed it up*.
        let whole_run = p.window_s.0 == 0.0 && p.window_s.1 > clean.makespan_s;
        let want = if whole_run { 1.2 } else { 1.0 };
        artifact.check(
            format!("{id}: degraded WAN slows the run"),
            slowdown >= want,
            format!("slowdown {slowdown:.3}x (want >= {want})"),
        );
    }
    artifact.tables.push(table);
    artifact
}
