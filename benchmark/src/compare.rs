//! `--compare A B`: two result files (JSON lines, one run each, as
//! `--out` writes them) judged per workload and metric under the bounds
//! the benchmark fixes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use tsqr_obs::json::Json;

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{error_verdict, median, spread, verdict, worsening, Side, Verdict};

/// The runs of one workload in one file.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Runs {
    /// End-to-end metric values, one per untraced run.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Widest within-run sample spread of the untraced runs.
    pub sample_spread: f64,
    pub attempted: f64,
    pub failed: f64,
    /// Exact counts and simulated quantities of the traced runs, by seed.
    pub exact: BTreeMap<(u64, String), f64>,
}

impl Runs {
    /// Median over the runs, and their spread: across runs when there are
    /// enough of them to have quartiles worth the name, else the widest
    /// spread seen among one run's own samples.
    pub fn side(&self, metric: &str) -> Option<Side> {
        let values = self.end_to_end.get(metric)?;
        let across = if values.len() >= 4 {
            spread(values)
        } else {
            self.sample_spread
        };
        Some(Side {
            median: median(values),
            spread: across,
        })
    }

    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0.0 {
            0.0
        } else {
            self.failed / self.attempted
        }
    }
}

/// Units whose values must repeat bit for bit under one seed.
fn is_exact(unit: &str) -> bool {
    unit == "count" || unit == "sim_s"
}

pub fn parse_results(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("line {}: no `{k}`", i + 1));
        // A smoke run is not a measurement; its times never enter a median.
        if rec.get("quick") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?;
        let runs = out.entry(workload.to_string()).or_default();
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("line {}: no `metrics` object", i + 1));
        };
        let value = |m: &Json| {
            m.get("value")
                .and_then(Json::as_num)
                .ok_or(format!("line {}: metric without value", i + 1))
        };
        if field("trace")? == &Json::Bool(true) {
            let seed = field("seed")?.as_num().ok_or("`seed` is not a number")? as u64;
            for (name, m) in metrics {
                if is_exact(m.get("unit").and_then(Json::as_str).unwrap_or("")) {
                    runs.exact.insert((seed, name.clone()), value(m)?);
                }
            }
        } else {
            for (name, m) in metrics {
                runs.end_to_end
                    .entry(name.clone())
                    .or_default()
                    .push(value(m)?);
            }
            runs.sample_spread = runs.sample_spread.max(
                field("sample_spread")?
                    .as_num()
                    .ok_or("`sample_spread` is not a number")?,
            );
            runs.attempted += field("attempted")?
                .as_num()
                .ok_or("`attempted` is not a number")?;
            runs.failed += field("failed")?
                .as_num()
                .ok_or("`failed` is not a number")?;
        }
    }
    Ok(out)
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Relative change, positive = worse.
    pub worse_by: f64,
    pub bound: String,
    pub verdict: Verdict,
}

pub fn compare(a: &BTreeMap<String, Runs>, b: &BTreeMap<String, Runs>) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (ra.side(m.name), rb.side(m.name)) else {
                continue;
            };
            let bound = if m.bound.abs_floor > 0.0 {
                format!(
                    ">{:.0}% and >{} {}",
                    100.0 * m.bound.rel,
                    m.bound.abs_floor,
                    m.unit
                )
            } else {
                format!(">{:.0}%", 100.0 * m.bound.rel)
            };
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name.to_string(),
                a: sa.median,
                b: sb.median,
                worse_by: worsening(sa.median, sb.median, m.better),
                bound,
                verdict: verdict(sa, sb, m.better, m.bound),
            });
        }
        if ra.attempted > 0.0 && rb.attempted > 0.0 {
            let (ea, eb) = (ra.error_frac(), rb.error_frac());
            rows.push(Row {
                workload: w.name.to_string(),
                metric: "error_frac".to_string(),
                a: ea,
                b: eb,
                worse_by: eb - ea,
                bound: "any increase".to_string(),
                verdict: error_verdict(ea, eb),
            });
        }
    }
    rows
}

/// Exact counts and simulated quantities present on both sides under the
/// same seed that differ: `(workload, seed, metric, a, b)`.
pub fn changed_exact(
    a: &BTreeMap<String, Runs>,
    b: &BTreeMap<String, Runs>,
) -> Vec<(String, u64, String, f64, f64)> {
    let mut out = Vec::new();
    for (workload, ra) in a {
        let Some(rb) = b.get(workload) else { continue };
        for ((seed, name), va) in &ra.exact {
            match rb.exact.get(&(*seed, name.clone())) {
                Some(vb) if vb.to_bits() != va.to_bits() => {
                    out.push((workload.clone(), *seed, name.clone(), *va, *vb));
                }
                _ => {}
            }
        }
    }
    out
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_results(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&a, &b);
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9}  {:<22} verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<12} {:>14.6} {:>14.6} {:>+8.2}%  {:<22} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            r.bound,
            r.verdict.label()
        );
    }
    let changed = changed_exact(&a, &b);
    let exact_pairs: usize = a
        .iter()
        .filter_map(|(w, ra)| {
            b.get(w).map(|rb| {
                ra.exact
                    .keys()
                    .filter(|k| rb.exact.contains_key(*k))
                    .count()
            })
        })
        .sum();
    println!(
        "exact counts and simulated quantities: {exact_pairs} seed-matched pairs, {} changed",
        changed.len()
    );
    for (workload, seed, name, va, vb) in &changed {
        println!("  changed  {workload} seed {seed} {name}: {va} -> {vb}  (simulated behaviour moved: the change must say so)");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} same, {} better, {} worse, {} unresolved (spread wider than the bound: rerun with more --runs or --seconds, never read as a pass)",
        count(Verdict::Same), count(Verdict::Better), count(Verdict::Worse), count(Verdict::Unresolved)
    );
    if rows.is_empty() {
        eprintln!("error: the two files share no workload");
        return ExitCode::from(2);
    }
    if count(Verdict::Worse) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, wall_s: f64, failed: u64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"trace":false,"sample_spread":0.02,"attempted":10,"failed":{failed},"metrics":{{"wall_ref_s":{{"value":{wall_s},"unit":"s"}},"work_per_ref_s":{{"value":{},"unit":"1/s"}},"setup_s":{{"value":0.1,"unit":"s"}}}}}}"#,
            100.0 / wall_s
        )
    }

    fn traced(workload: &str, seed: u64, msgs: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"trace":true,"metrics":{{"gridmpi.msgs":{{"value":{msgs},"unit":"count"}},"linalg.leaf_qr_s":{{"value":0.5,"unit":"s"}}}}}}"#
        )
    }

    fn verdicts(a: &str, b: &str) -> BTreeMap<String, Verdict> {
        let rows = compare(&parse_results(a).unwrap(), &parse_results(b).unwrap());
        rows.into_iter().map(|r| (r.metric, r.verdict)).collect()
    }

    #[test]
    fn a_slower_run_is_worse_on_time_and_throughput_and_same_on_setup() {
        let v = verdicts(&record("sim-qr2", 1, 1.0, 0), &record("sim-qr2", 1, 1.4, 0));
        assert_eq!(v["wall_ref_s"], Verdict::Worse);
        assert_eq!(v["work_per_ref_s"], Verdict::Worse);
        assert_eq!(v["setup_s"], Verdict::Same);
        assert_eq!(v["error_frac"], Verdict::Same);
        let v = verdicts(
            &record("sim-qr2", 1, 1.0, 0),
            &record("sim-qr2", 1, 1.05, 1),
        );
        assert_eq!(v["wall_ref_s"], Verdict::Same);
        assert_eq!(v["error_frac"], Verdict::Worse);
    }

    #[test]
    fn medians_and_spread_are_taken_across_runs_when_there_are_enough() {
        let file = |walls: &[f64]| {
            walls
                .iter()
                .enumerate()
                .map(|(i, w)| record("tune-plan", i as u64, *w, 0))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let steady = file(&[1.0, 1.01, 0.99, 1.0, 1.02]);
        let noisy = file(&[1.0, 1.4, 0.7, 1.0, 1.3]);
        assert_eq!(verdicts(&steady, &steady)["wall_ref_s"], Verdict::Same);
        assert_eq!(verdicts(&steady, &noisy)["wall_ref_s"], Verdict::Unresolved);
        let runs = &parse_results(&steady).unwrap()["tune-plan"];
        assert_eq!(runs.side("wall_ref_s").unwrap().median, 1.0);
    }

    #[test]
    fn exact_quantities_are_matched_by_seed_and_compared_bit_for_bit() {
        let a = parse_results(
            &[
                traced("sim-qr2", 1, 129024.0),
                traced("sim-qr2", 2, 129024.0),
            ]
            .join("\n"),
        )
        .unwrap();
        let same = parse_results(&traced("sim-qr2", 1, 129024.0)).unwrap();
        let moved = parse_results(&traced("sim-qr2", 2, 129025.0)).unwrap();
        assert!(changed_exact(&a, &same).is_empty());
        let changed = changed_exact(&a, &moved);
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].2, "gridmpi.msgs");
        // Host times of traced runs are never held to exactness.
        assert!(!a["sim-qr2"]
            .exact
            .keys()
            .any(|(_, n)| n == "linalg.leaf_qr_s"));
    }

    #[test]
    fn quick_records_are_left_out() {
        let smoke = record("sim-qr2", 2, 9.0, 0).replacen('{', r#"{"quick":true,"#, 1);
        let mixed = [record("sim-qr2", 1, 1.0, 0), smoke.clone()].join("\n");
        let runs = &parse_results(&mixed).unwrap()["sim-qr2"];
        assert_eq!(runs.end_to_end["wall_ref_s"], [1.0]);
        assert!(parse_results(&smoke).unwrap().is_empty());
    }

    #[test]
    fn malformed_results_are_an_error_not_a_panic() {
        assert!(parse_results("{not json").is_err());
        assert!(parse_results(r#"{"seed":1}"#).is_err());
    }
}
