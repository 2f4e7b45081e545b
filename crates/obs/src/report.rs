//! Trend/anomaly dashboard over the experiment ledger.
//!
//! [`render_report`] turns a validated ledger (see
//! [`crate::ledger::read_ledger`]) into a markdown dashboard: per-scenario
//! trend tables with deltas versus the previous and oldest entry, a
//! critical-path attribution summary, the hottest phases, and an anomaly
//! section. [`detect_anomalies`] implements the gate behind
//! `grid-tsqr report --check`.
//!
//! # Anomaly semantics
//!
//! The fitted Eq. (1) model is imperfect by design — fault scenarios
//! legitimately carry per-phase residuals above 10 % because the model
//! has no term for injected degradation. A naive "residual > 5 %" rule
//! would therefore cry wolf on the committed baseline forever. Instead,
//! the *oldest* entry of each scenario is the blessed reference, and an
//! entry is anomalous when a phase's residual **exceeds the reference
//! residual for that phase by more than the threshold**:
//!
//! ```text
//! excess = residual(entry, phase) − residual(oldest entry, phase)
//! anomaly ⇔ excess > threshold        (default 0.05)
//! ```
//!
//! A phase present in an entry but absent from the scenario's reference
//! is scored against a reference residual of zero, so structural changes
//! (a new phase appearing with poor model fit) are flagged too. The
//! reference entry itself is never flagged.

use std::fmt::Write as _;

use crate::ledger::LedgerEntry;

/// Options for rendering and anomaly detection.
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// Maximum allowed excess of a phase residual over the scenario
    /// reference before an entry is flagged.
    pub threshold: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions { threshold: 0.05 }
    }
}

/// Number of rows in the hot-phase table.
const TOP_PHASES: usize = 10;

/// One flagged (entry, phase) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Sequence number of the flagged entry.
    pub seq: u64,
    /// Scenario the entry belongs to.
    pub scenario: String,
    /// Phase whose residual regressed.
    pub phase: String,
    /// The phase's residual in the flagged entry.
    pub residual: f64,
    /// The phase's residual in the scenario's oldest (reference) entry
    /// (0 when the phase is new).
    pub baseline_residual: f64,
}

impl Anomaly {
    /// Excess of the residual over the reference.
    pub(crate) fn excess(&self) -> f64 {
        self.residual - self.baseline_residual
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        format!(
            "seq {} {} phase {:?}: model residual {} vs reference {} (excess {})",
            self.seq,
            self.scenario,
            self.phase,
            pct(self.residual),
            pct(self.baseline_residual),
            pct(self.excess()),
        )
    }
}

/// Scenario ids in first-appearance order.
fn scenarios(entries: &[LedgerEntry]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for e in entries {
        if !out.contains(&e.scenario.as_str()) {
            out.push(&e.scenario);
        }
    }
    out
}

/// Flags every entry whose per-phase model residual exceeds its
/// scenario's reference (oldest entry) by more than
/// `opts.threshold`. See the module docs for the exact rule.
pub fn detect_anomalies(entries: &[LedgerEntry], opts: &ReportOptions) -> Vec<Anomaly> {
    let mut out = Vec::new();
    for scenario in scenarios(entries) {
        let mut runs = entries.iter().filter(|e| e.scenario == scenario);
        let reference = runs.next().expect("scenario listed, so at least one entry");
        for e in runs {
            for p in &e.phases {
                let baseline = reference
                    .phases
                    .iter()
                    .find(|rp| rp.name == p.name)
                    .map(|rp| rp.residual())
                    .unwrap_or(0.0);
                if p.residual() - baseline > opts.threshold {
                    out.push(Anomaly {
                        seq: e.seq,
                        scenario: scenario.to_string(),
                        phase: p.name.clone(),
                        residual: p.residual(),
                        baseline_residual: baseline,
                    });
                }
            }
        }
    }
    out
}

/// `12.3456` → `"+12.35%"` / `"-3.10%"` / `"0.00%"` (percent of 1.0).
fn pct(frac: f64) -> String {
    format!("{:.2}%", frac * 100.0)
}

/// Signed relative delta of `cur` vs `reference`, or `—` when they are
/// the same entry or the reference is zero.
fn delta(cur: f64, reference: f64) -> String {
    if reference == 0.0 {
        return "—".to_string();
    }
    let d = (cur - reference) / reference * 100.0;
    format!("{d:+.2}%")
}

fn secs(v: f64) -> String {
    format!("{v:.6}")
}

/// Renders the full markdown dashboard. Deterministic: fixed decimal
/// formats everywhere, scenarios in first-appearance order, so the
/// output can be byte-pinned against a golden file.
pub fn render_report(entries: &[LedgerEntry], opts: &ReportOptions) -> String {
    let mut out = String::new();
    let scen = scenarios(entries);
    let _ = writeln!(out, "# grid-tsqr experiment ledger report");
    let _ = writeln!(out);
    let _ = writeln!(out, "- schema: `{}`", crate::ledger::LEDGER_SCHEMA);
    let _ = writeln!(out, "- entries: {}", entries.len());
    let _ = writeln!(out, "- scenarios: {}", scen.len());
    let _ = writeln!(
        out,
        "- anomaly rule: per-phase model residual may exceed the scenario's oldest entry by at most {}",
        pct(opts.threshold)
    );
    let _ = writeln!(out);

    // ── Per-scenario trend tables ─────────────────────────────────────
    let _ = writeln!(out, "## Trends");
    for s in &scen {
        let runs: Vec<&LedgerEntry> = entries.iter().filter(|e| e.scenario == *s).collect();
        let oldest = runs[0];
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "### `{}` — {} site(s), {} ranks, {}×{}, tree {}",
            s, oldest.sites, oldest.procs, oldest.m, oldest.n, oldest.tree
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| seq | source | makespan (s) | Δ prev | Δ oldest | Gflop/s | msgs | WAN msgs | fit residual |"
        );
        let _ = writeln!(out, "|---:|---|---:|---:|---:|---:|---:|---:|---:|");
        for (i, e) in runs.iter().enumerate() {
            let d_prev = if i == 0 {
                "—".to_string()
            } else {
                delta(e.makespan_s, runs[i - 1].makespan_s)
            };
            let d_old =
                if i == 0 { "—".to_string() } else { delta(e.makespan_s, oldest.makespan_s) };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.2} | {} | {} | {} |",
                e.seq,
                e.source,
                secs(e.makespan_s),
                d_prev,
                d_old,
                e.gflops,
                e.msgs,
                e.wan_msgs,
                pct(e.fit.rel_residual),
            );
        }
    }
    let _ = writeln!(out);

    // ── Critical-path attribution (latest entry per scenario) ─────────
    let _ = writeln!(out, "## Critical path (latest entry per scenario)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| scenario | seq | makespan (s) | compute (s) | send (s) | other (s) | WAN msgs on path |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|");
    let latest: Vec<&LedgerEntry> = scen
        .iter()
        .map(|s| {
            entries
                .iter()
                .rfind(|e| e.scenario == *s)
                .expect("scenario listed, so at least one entry")
        })
        .collect();
    for e in &latest {
        let other = (e.makespan_s - e.cp_compute_s - e.cp_send_s).max(0.0);
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} | {} |",
            e.scenario,
            e.seq,
            secs(e.makespan_s),
            secs(e.cp_compute_s),
            secs(e.cp_send_s),
            secs(other),
            e.cp_wan_msgs,
        );
    }
    let _ = writeln!(out);

    // ── Hot phases across the latest entries ──────────────────────────
    let _ = writeln!(out, "## Hot phases (latest entries, by busy time)");
    let _ = writeln!(out);
    let _ = writeln!(out, "| scenario | phase | busy (s) | wait (s) | model residual |");
    let _ = writeln!(out, "|---|---|---:|---:|---:|");
    let mut hot: Vec<(&LedgerEntry, &crate::ledger::PhaseRow)> =
        latest.iter().flat_map(|e| e.phases.iter().map(move |p| (*e, p))).collect();
    hot.sort_by(|a, b| {
        b.1.observed_s()
            .partial_cmp(&a.1.observed_s())
            .expect("busy times are finite")
            .then_with(|| a.0.seq.cmp(&b.0.seq))
            .then_with(|| a.1.name.cmp(&b.1.name))
    });
    for (e, p) in hot.iter().take(TOP_PHASES) {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            e.scenario,
            p.name,
            secs(p.observed_s()),
            secs(p.wait_s),
            pct(p.residual()),
        );
    }
    let _ = writeln!(out);

    // ── Anomalies ─────────────────────────────────────────────────────
    let anomalies = detect_anomalies(entries, opts);
    let _ = writeln!(out, "## Anomalies");
    let _ = writeln!(out);
    if anomalies.is_empty() {
        let _ = writeln!(
            out,
            "None: every entry is within {} of its scenario reference.",
            pct(opts.threshold)
        );
    } else {
        let _ = writeln!(out, "| seq | scenario | phase | residual | reference | excess |");
        let _ = writeln!(out, "|---:|---|---|---:|---:|---:|");
        for a in &anomalies {
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {} | {} | {} |",
                a.seq,
                a.scenario,
                a.phase,
                pct(a.residual),
                pct(a.baseline_residual),
                pct(a.excess()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::sample_entry;

    fn two_runs() -> Vec<LedgerEntry> {
        let mut a = sample_entry("fig5/tsqr", 1);
        a.source = "bench_check".into();
        let mut b = sample_entry("fig5/tsqr", 2);
        b.makespan_s = 1.65;
        vec![a, b]
    }

    #[test]
    fn no_anomalies_when_residuals_match_reference() {
        let runs = two_runs();
        let found = detect_anomalies(&runs, &ReportOptions::default());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn flags_residual_regression_but_not_reference() {
        let mut runs = two_runs();
        // Blow up the second run's tree-reduce prediction: residual
        // jumps from 2.5% to 150%.
        runs[1].phases[1].predicted_s = 1.0;
        let found = detect_anomalies(&runs, &ReportOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].seq, 2);
        assert_eq!(found[0].phase, "tree-reduce");
        assert!(found[0].excess() > 0.05);
        assert!(found[0].describe().contains("fig5/tsqr"));

        // The same bad residual on the *oldest* entry defines the
        // reference and is never flagged.
        let mut runs = two_runs();
        runs[0].phases[1].predicted_s = 1.0;
        runs[1].phases[1].predicted_s = 1.0;
        assert!(detect_anomalies(&runs, &ReportOptions::default()).is_empty());
    }

    #[test]
    fn new_phase_scores_against_zero_reference() {
        let mut runs = two_runs();
        let mut extra = runs[1].phases[0].clone();
        extra.name = "gather".into();
        extra.compute_s = 0.1;
        extra.predicted_s = 0.2; // residual 100% vs reference 0
        runs[1].phases.push(extra);
        let found = detect_anomalies(&runs, &ReportOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].phase, "gather");
        assert_eq!(found[0].baseline_residual, 0.0);
    }

    #[test]
    fn report_contains_all_sections_and_entry_count() {
        let runs = two_runs();
        let md = render_report(&runs, &ReportOptions::default());
        assert!(md.contains("- entries: 2"));
        assert!(md.contains("## Trends"));
        assert!(md.contains("### `fig5/tsqr`"));
        assert!(md.contains("## Critical path"));
        assert!(md.contains("## Hot phases"));
        assert!(md.contains("## Anomalies"));
        assert!(md.contains("None: every entry is within 5.00%"));
        // The second row carries makespan deltas vs both references.
        assert!(md.contains("| +10.00% | +10.00% |"), "{md}");
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(md, render_report(&runs, &ReportOptions::default()));
    }

    #[test]
    fn report_renders_anomaly_table() {
        let mut runs = two_runs();
        runs[1].phases[1].predicted_s = 1.0;
        let md = render_report(&runs, &ReportOptions::default());
        assert!(md.contains("| seq | scenario | phase | residual | reference | excess |"));
        assert!(md.contains("tree-reduce"));
    }
}
