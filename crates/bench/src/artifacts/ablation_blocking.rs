//! Ablation: ScaLAPACK's blocking machinery (§II-B) — `PDGEQR2`
//! (unblocked, one reflector at a time) vs `PDGEQRF` (compact-WY panels,
//! NB = 64, NX = 128).
//!
//! §II-B: "this blocking incurs an additional computational overhead. The
//! overhead is negligible when there is a large number of columns to be
//! updated but is significant when there are only a few." Blocking's real
//! payoff is that the trailing update becomes Level-3 BLAS and runs at the
//! DGEMM rate rather than the memory-bound Level-2 rate — which is what we
//! model by pricing the blocked baseline at the calibrated leaf rate and
//! the unblocked one below it.

use crate::harness::symbolic;
use crate::{calib, ShapeCheck, Sweep};
use tsqr_core::experiment::{run_experiment, Algorithm, Experiment};

fn gflops(rt: &tsqr_gridmpi::Runtime, m: u64, n: usize, algorithm: Algorithm, rate: f64) -> f64 {
    run_experiment(rt, &Experiment { rate_flops: Some(rate), ..symbolic(m, n, algorithm) }).gflops
}

pub(super) fn run(sweep: &mut Sweep, checks: &mut ShapeCheck) {
    let rt = sweep.runtime(1);
    // Level-2 rate for the unblocked sweep (the column kernel is
    // memory-bound); the calibrated Level-3-ish leaf rate for the blocked
    // trailing updates.
    let rate_unblocked = 0.4e9;
    println!("# PDGEQR2 (unblocked) vs PDGEQRF (NB=64, NX=128) — 1 site, 64 procs");
    println!("# {:>10} {:>6} {:>14} {:>14} {:>8}", "M", "N", "QR2 Gflop/s", "QRF Gflop/s", "ratio");

    for (m, n) in [
        (4_194_304u64, 64usize),
        (4_194_304, 128),
        (2_097_152, 256),
        (2_097_152, 512),
    ] {
        let rate_blocked = calib::kernel_rate_flops(n);
        let qr2 = gflops(rt, m, n, Algorithm::ScalapackQr2, rate_unblocked);
        let qrf = gflops(
            rt,
            m,
            n,
            Algorithm::ScalapackQrf { nb: 64, nx: 128 },
            rate_blocked,
        );
        println!("  {:>10} {:>6} {:>14.1} {:>14.1} {:>8.2}", m, n, qr2, qrf, qrf / qr2);
        if n > 128 {
            checks.check(
                &format!("N={n}: blocking pays once panels have wide trailing updates"),
                qrf > qr2,
                format!("{qrf:.1} vs {qr2:.1} Gflop/s"),
            );
        } else {
            // N ≤ NX = 128: PDGEQRF *is* PDGEQR2 (the crossover), so the
            // only difference is the charged kernel rate.
            checks.check(
                &format!("N={n}: below the NX crossover the drivers coincide"),
                {
                    let qrf_same_rate = gflops(
                        rt,
                        m,
                        n,
                        Algorithm::ScalapackQrf { nb: 64, nx: 128 },
                        rate_unblocked,
                    );
                    (qrf_same_rate / qr2 - 1.0).abs() < 1e-9
                },
                "identical schedule and time at equal rates".into(),
            );
        }
    }
}
