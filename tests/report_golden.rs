//! Gate tests of `grid-tsqr report`: the dashboard rendered over the
//! committed ledger must match the blessed `REPORT_baseline.md` (prefix-
//! pinned, so appending runs never breaks it), `--check` must pass on the
//! committed history, and — the anomaly detector's reason to exist — an
//! injected entry whose per-phase Eq. (1) prediction drifts beyond the
//! threshold must fail the build.

use std::path::{Path, PathBuf};
use std::process::Command;

use grid_tsqr::obs::ledger::{append_entry, parse_entry, read_ledger};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn cli() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_grid-tsqr"));
    c.current_dir(repo_root());
    c
}

/// Copies the committed ledger into a scratch file the test may extend.
fn scratch_ledger(tag: &str) -> PathBuf {
    let src = repo_root().join("ledger/runs.jsonl");
    let dst = std::env::temp_dir().join(format!("tsqr_ledger_{tag}_{}.jsonl", std::process::id()));
    std::fs::copy(&src, &dst).expect("committed ledger exists");
    dst
}

#[test]
fn report_matches_committed_baseline_and_check_passes() {
    let out = cli()
        .args([
            "report",
            "--ledger",
            "ledger/runs.jsonl",
            "--golden",
            "REPORT_baseline.md",
            "--check",
        ])
        .output()
        .expect("run cli");
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{text}\nstderr:\n{err}");
    assert!(text.contains("report matches REPORT_baseline.md"), "{text}");
    assert!(text.contains("report check OK"), "{text}");
}

#[test]
fn appending_a_clean_run_keeps_golden_and_check_green() {
    // The golden is prefix-pinned on its `- entries: K` header, so a new
    // honest run appended to the ledger must not invalidate it.
    let path = scratch_ledger("clean");
    let entries = read_ledger(&path).unwrap();
    let again = entries.last().cloned().expect("seeded ledger is non-empty");
    append_entry(&path, again).unwrap();
    let out = cli()
        .args(["report", "--ledger"])
        .arg(&path)
        .args(["--golden", "REPORT_baseline.md", "--check"])
        .output()
        .expect("run cli");
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{text}\nstderr:\n{err}");
    assert!(text.contains("report matches"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn injected_model_drift_fails_the_check() {
    // Take a real entry, push one phase's Eq. (1) prediction 50% away
    // from what was observed, and append it as a new run of the same
    // scenario: `report --check` must exit 1 and name the phase.
    let path = scratch_ledger("anomaly");
    let entries = read_ledger(&path).unwrap();
    let mut tampered = entries
        .iter()
        .find(|e| e.phases.iter().any(|p| p.observed_s() > 0.0))
        .cloned()
        .expect("some entry has an active phase");
    let phase = tampered.phases.iter_mut().find(|p| p.observed_s() > 0.0).unwrap();
    let name = phase.name.clone();
    phase.predicted_s = phase.observed_s() * 1.5;
    append_entry(&path, tampered).unwrap();

    let out =
        cli().args(["report", "--ledger"]).arg(&path).args(["--check"]).output().expect("run cli");
    let err = String::from_utf8_lossy(&out.stderr);
    // A gate that ran and found drift: exit 1, no usage (exit 2 is a refusal).
    assert_eq!(out.status.code(), Some(1), "an injected 50% model drift must fail --check");
    assert!(!err.contains("USAGE"), "stderr:\n{err}");
    assert!(err.contains("anomalous"), "stderr:\n{err}");
    assert!(err.contains(&name), "anomaly must name phase {name}:\n{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn ledger_lines_round_trip_through_the_public_api() {
    // Every committed line parses, re-serializes canonically, and keeps
    // strictly increasing sequence numbers (append-only discipline).
    let text = std::fs::read_to_string(repo_root().join("ledger/runs.jsonl")).unwrap();
    let mut last_seq = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let entry = parse_entry(line).expect("committed ledger line parses");
        assert!(entry.seq > last_seq, "seq must increase: {}", entry.seq);
        last_seq = entry.seq;
        let reparsed = parse_entry(&grid_tsqr::obs::ledger::entry_to_json(&entry)).unwrap();
        assert_eq!(entry, reparsed);
    }
    assert!(last_seq >= 14, "seeded ledger holds the full bench trajectory");
}
