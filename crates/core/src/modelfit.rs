//! Fitting Eq. (1) back onto a finished run: did the simulation still
//! behave like the closed-form model?
//!
//! The paper models every algorithm's time as
//! `time = β·#msgs + α·volume + γ·#flops` (Eq. (1), [`crate::model`]).
//! The always-on metrics registry records, per rank and per phase, both
//! the model *inputs* (messages, bytes, flops) and the simulated seconds
//! they actually took. This module least-squares-fits `(β, α, γ)` to
//! those observations and reports the residual:
//!
//! * on a **homogeneous** network (every link identical — the §IV
//!   assumption under which Table I/II are derived) the execution is
//!   exactly linear in the three features, so the fit recovers the
//!   configured constants and the relative residual is ≈ 0;
//! * on the **grid** model (three link classes with very different β/α)
//!   a single-(β, α) fit cannot represent the mixture; the residual
//!   quantifies how far the run is from the homogeneous closed form —
//!   useful drift detection when the simulator or an algorithm changes.
//!
//! `grid-tsqr analyze` prints the fit next to the wait-state report;
//! `tests/model_vs_simulation.rs` asserts the homogeneous residual stays
//! under 5 %.

use std::fmt::Write as _;

use tsqr_gridmpi::MetricsRegistry;

/// One observation: the Eq. (1) features of one (rank, phase) cell and
/// the simulated seconds they took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Phase label the cell belongs to.
    pub label: &'static str,
    /// Messages sent (all link classes).
    pub msgs: f64,
    /// 8-byte words sent (bytes / 8 — the unit of [`crate::model`]).
    pub words: f64,
    /// Flops charged.
    pub flops: f64,
    /// Simulated seconds of active time: send + compute (receive waits
    /// are *idle* time and belong to the wait-state report, not the
    /// model).
    pub secs: f64,
}

/// A fitted Eq. (1): coefficients, residual, and a per-phase
/// observed-vs-predicted table.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFit {
    /// Fitted per-message latency β, seconds.
    pub beta_s: f64,
    /// Fitted inverse bandwidth α, seconds per 8-byte word.
    pub alpha_s_per_word: f64,
    /// Fitted inverse flop rate γ, seconds per flop.
    pub gamma_s_per_flop: f64,
    /// Number of (rank, phase) samples the fit used.
    pub samples: usize,
    /// `sqrt(Σ(y − ŷ)² / Σy²)` over all samples — 0 means the run is
    /// exactly the closed form.
    pub rel_residual: f64,
    /// Per-phase `(label, observed seconds, predicted seconds)`,
    /// aggregated over ranks, in first-seen order.
    pub per_phase: Vec<(&'static str, f64, f64)>,
}

impl ModelFit {
    /// Renders the fit: coefficients, residual, per-phase table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fitted Eq. (1): beta = {:.6e} s/msg, alpha = {:.6e} s/word, gamma = {:.6e} s/flop",
            self.beta_s, self.alpha_s_per_word, self.gamma_s_per_flop
        );
        let _ = writeln!(
            out,
            "relative residual {:.4}% over {} (rank, phase) samples",
            self.rel_residual * 100.0,
            self.samples
        );
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>9}",
            "phase", "observed s", "predicted s", "drift"
        );
        for (label, obs, pred) in &self.per_phase {
            let drift = if obs.abs() > 0.0 { (pred - obs) / obs } else { 0.0 };
            let _ = writeln!(out, "{label:<16} {obs:>12.6} {pred:>12.6} {:>8.2}%", drift * 100.0);
        }
        out
    }
}

/// Flattens per-rank registries into per-(rank, phase) samples. Phases
/// with no activity at all produce no sample.
pub fn samples_from_metrics(per_rank: &[MetricsRegistry]) -> Vec<Sample> {
    let mut out = Vec::new();
    for m in per_rank {
        for label in m.phase_names() {
            let c = m.phase(label).expect("listed phase exists");
            out.push(Sample {
                label,
                msgs: c.total_msgs() as f64,
                words: c.total_bytes() as f64 / 8.0,
                flops: c.flops as f64,
                secs: c.send_s.iter().sum::<f64>() + c.compute_s,
            });
        }
    }
    out
}

/// Least-squares fit of Eq. (1) to `samples` (normal equations on
/// RMS-normalized columns; features that are identically zero get a zero
/// coefficient instead of poisoning the system). Returns `None` when
/// there are no samples or every target is zero.
pub fn fit(samples: &[Sample]) -> Option<ModelFit> {
    if samples.is_empty() {
        return None;
    }
    let y_norm2: f64 = samples.iter().map(|s| s.secs * s.secs).sum();
    if y_norm2 <= 0.0 {
        return None;
    }
    let feats = |s: &Sample| [s.msgs, s.words, s.flops];

    // Column scales (RMS) for conditioning; dead columns keep scale 0.
    let mut scale = [0.0f64; 3];
    for s in samples {
        let x = feats(s);
        for j in 0..3 {
            scale[j] += x[j] * x[j];
        }
    }
    for sj in &mut scale {
        *sj = (*sj / samples.len() as f64).sqrt();
    }

    // Normal equations on scaled, live columns.
    let live: Vec<usize> = (0..3).filter(|&j| scale[j] > 0.0).collect();
    let k = live.len();
    let mut a = vec![vec![0.0f64; k]; k]; // AᵀA
    let mut b = vec![0.0f64; k]; // Aᵀy
    for s in samples {
        let x = feats(s);
        let xs: Vec<f64> = live.iter().map(|&j| x[j] / scale[j]).collect();
        for (r, &xr) in xs.iter().enumerate() {
            for (c, &xc) in xs.iter().enumerate() {
                a[r][c] += xr * xc;
            }
            b[r] += xr * s.secs;
        }
    }
    let coef_scaled = solve_spd(&mut a, &mut b);

    let mut coef = [0.0f64; 3];
    for (idx, &j) in live.iter().enumerate() {
        coef[j] = coef_scaled[idx] / scale[j];
    }

    // Residual and per-phase aggregation.
    let mut ss = 0.0f64;
    let mut per_phase: Vec<(&'static str, f64, f64)> = Vec::new();
    for s in samples {
        let pred = coef[0] * s.msgs + coef[1] * s.words + coef[2] * s.flops;
        let r = s.secs - pred;
        ss += r * r;
        if let Some(row) = per_phase.iter_mut().find(|(l, _, _)| *l == s.label) {
            row.1 += s.secs;
            row.2 += pred;
        } else {
            per_phase.push((s.label, s.secs, pred));
        }
    }

    Some(ModelFit {
        beta_s: coef[0],
        alpha_s_per_word: coef[1],
        gamma_s_per_flop: coef[2],
        samples: samples.len(),
        rel_residual: (ss / y_norm2).sqrt(),
        per_phase,
    })
}

/// Solves the (symmetric positive semi-definite) `k×k` system in place by
/// Gaussian elimination with partial pivoting; near-singular pivots give
/// zero coefficients (the corresponding direction is undetermined).
fn solve_spd(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let k = b.len();
    let eps = 1e-12 * (1.0 + a.iter().flat_map(|r| r.iter()).fold(0.0f64, |m, v| m.max(v.abs())));
    for col in 0..k {
        // Partial pivot.
        let piv = (col..k)
            .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).expect("finite"))
            .expect("non-empty");
        if a[piv][col].abs() <= eps {
            // No usable pivot anywhere in the column: the direction is
            // linearly dependent on earlier ones. Neutralize it *without*
            // swapping — swapping first would sacrifice a later, healthy
            // row (e.g. the flops row when #msgs and volume are exactly
            // proportional) to this dead column.
            for r in col..k {
                a[r][col] = 0.0;
            }
            for c in col..k {
                a[col][c] = 0.0;
            }
            a[col][col] = 1.0;
            b[col] = 0.0;
            continue;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for row in (col + 1)..k {
            let f = a[row][col] / a[col][col];
            for c in col..k {
                a[row][c] -= f * a[col][c];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; k];
    for col in (0..k).rev() {
        let mut v = b[col];
        for c in (col + 1)..k {
            v -= a[col][c] * x[c];
        }
        x[col] = v / a[col][col];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &'static str, msgs: f64, words: f64, flops: f64, secs: f64) -> Sample {
        Sample { label, msgs, words, flops, secs }
    }

    #[test]
    fn recovers_exact_linear_model() {
        let (beta, alpha, gamma) = (1e-3, 6.4e-7, 1e-9);
        let mut samples = Vec::new();
        for (i, (m, w, f)) in [
            (2.0, 128.0, 1.0e9),
            (16.0, 4096.0, 2.0e8),
            (1.0, 16.0, 5.0e9),
            (64.0, 65536.0, 0.0),
            (0.0, 0.0, 3.0e9),
        ]
        .iter()
        .enumerate()
        {
            let label = if i % 2 == 0 { "leaf-qr" } else { "tree-reduce" };
            samples.push(sample(label, *m, *w, *f, beta * m + alpha * w + gamma * f));
        }
        let fit = fit(&samples).expect("fit exists");
        assert!((fit.beta_s - beta).abs() / beta < 1e-6, "{fit:?}");
        assert!((fit.alpha_s_per_word - alpha).abs() / alpha < 1e-6);
        assert!((fit.gamma_s_per_flop - gamma).abs() / gamma < 1e-6);
        assert!(fit.rel_residual < 1e-9);
        assert_eq!(fit.per_phase.len(), 2);
        let r = fit.render();
        assert!(r.contains("beta"));
        assert!(r.contains("leaf-qr"));
    }

    #[test]
    fn dead_features_get_zero_coefficients() {
        // Compute-only run: no messages at all.
        let samples =
            vec![sample("leaf-qr", 0.0, 0.0, 1.0e9, 1.0), sample("leaf-qr", 0.0, 0.0, 2.0e9, 2.0)];
        let f = fit(&samples).expect("fit exists");
        assert_eq!(f.beta_s, 0.0);
        assert_eq!(f.alpha_s_per_word, 0.0);
        assert!((f.gamma_s_per_flop - 1e-9).abs() < 1e-15);
        assert!(f.rel_residual < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(fit(&[]).is_none());
        assert!(fit(&[sample("x", 1.0, 2.0, 3.0, 0.0)]).is_none());
    }

    #[test]
    fn collinear_features_stay_finite() {
        // words always = 64·msgs — the (β, α) split is undetermined; the
        // fit must still predict the data it saw.
        let samples = vec![
            sample("a", 1.0, 64.0, 0.0, 0.002),
            sample("a", 2.0, 128.0, 0.0, 0.004),
            sample("b", 4.0, 256.0, 0.0, 0.008),
        ];
        let f = fit(&samples).expect("fit exists");
        assert!(f.beta_s.is_finite() && f.alpha_s_per_word.is_finite());
        assert!(f.rel_residual < 1e-6, "{f:?}");
    }

    #[test]
    fn collinear_comm_features_do_not_kill_the_flop_column() {
        // The TSQR shape that once broke the solver: every message has
        // the same size (words = 2080·msgs exactly) while flops live in
        // separate, message-free samples. The (β, α) split is
        // undetermined but γ is perfectly determined; the fit must keep
        // it rather than zeroing the healthy column during pivoting.
        let gamma = 1.832e-9;
        let comm = 4.4e-5;
        let mut samples = vec![
            sample("leaf-qr", 0.0, 0.0, 1.66e7, gamma * 1.66e7),
            sample("leaf-qr", 0.0, 0.0, 1.66e7, gamma * 1.66e7),
            sample("leaf-qr", 0.0, 0.0, 1.66e7, gamma * 1.66e7),
        ];
        for k in 1..6u32 {
            let msgs = k as f64;
            samples.push(sample("tree-reduce", msgs, 2080.0 * msgs, 0.0, comm * msgs));
        }
        let f = fit(&samples).expect("fit exists");
        assert!(
            (f.gamma_s_per_flop - gamma).abs() / gamma < 1e-9,
            "gamma must survive the msgs/words collinearity: {f:?}"
        );
        assert!(f.rel_residual < 1e-9, "{f:?}");
    }

    #[test]
    fn samples_from_metrics_flattens_ranks_and_phases() {
        use tsqr_netsim::LinkClass;
        let mut m0 = MetricsRegistry::default();
        m0.record_send(Some("tree-reduce"), LinkClass::IntraCluster, 800, 0.25);
        m0.record_compute(Some("leaf-qr"), 1_000, 0.5);
        let mut m1 = MetricsRegistry::default();
        m1.record_recv(Some("tree-reduce"), 9.0);
        let s = samples_from_metrics(&[m0, m1]);
        assert_eq!(s.len(), 3);
        let tr = s.iter().find(|x| x.label == "tree-reduce" && x.msgs > 0.0).unwrap();
        assert_eq!(tr.words, 100.0);
        assert!((tr.secs - 0.25).abs() < 1e-12);
        // Rank 1's tree-reduce cell is wait-only: zero active seconds.
        let tr1 = s.iter().find(|x| x.label == "tree-reduce" && x.msgs == 0.0).unwrap();
        assert_eq!(tr1.secs, 0.0);
    }
}
