//! Wall-clock benchmark of the grid-tsqr workspace; see `README.md` in
//! this directory for the metric glossary and the workload tables.
//!
//! `--workload <name>` measures one workload in this process and prints,
//! as the last line of standard output, one JSON object with its result.
//! Without `--workload` every workload runs in turn, each in a fresh
//! child process. `--compare A B` judges two result files.

mod check;
mod compare;
mod harness;
mod probes;
mod real;
mod serving;
mod simqr2;
mod spec;
mod stats;
mod trace;
mod tuneplan;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tsqr_obs::json::{self, Json};

use harness::{Options, RunResult};
use real::{Real, RealShape};
use serving::Serving;
use simqr2::SimQr2;
use spec::{WorkloadSpec, WORKLOADS};
use trace::{spans_to_json, totals_by_name};
use tuneplan::TunePlan;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--samples K] [--trace [0|1]]
              [--quick] [--runs R] [--out FILE]
       run.sh --compare A.jsonl B.jsonl

  --workload NAME  one of: real-n64 real-n256-q sim-qr2 tune-plan serve-overload serve-deepq
                   (default: all six, each in a fresh child process)
  --seed N         workload seed (default 42); the program sees only generated inputs
  --seconds S      keep sampling for S seconds (default 10)
  --samples K      and for at least K timed samples (default 5, never fewer)
  --trace [0|1]    1: the traced pass - per-layer metrics and benchmark/out/trace-<workload>.json
  --quick          smoke run: reduced sizes, one sample, checks still on
  --runs R         without --workload: repeat every workload R times, seeds N..N+R-1
  --out FILE       append each run's record to FILE as one JSON line
                   (default without --workload: benchmark/out/results.jsonl, started afresh)
  --compare A B    per workload and metric: both medians, difference, bound, verdict;
                   exits 1 on any `worse`";

struct Cli {
    workload: Option<&'static WorkloadSpec>,
    opts: Options,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: 42,
            seconds: 10.0,
            min_samples: 5,
            trace: false,
            quick: false,
        },
        runs: 1,
        out: None,
    };
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        arg: &str,
        what: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or(format!("{arg} needs {what}"))
    }
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| value(&mut it, arg, what);
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(spec::workload(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                cli.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&cli.opts.seconds) {
                    return Err("--seconds must be between 0 and 120".into());
                }
            }
            "--samples" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?;
                cli.opts.min_samples = k.max(5);
            }
            "--runs" => {
                cli.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&cli.runs) {
                    return Err("--runs must be between 1 and 100".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--quick" => cli.opts.quick = true,
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.opts.quick {
        cli.opts.seconds = 0.0;
        cli.opts.min_samples = 1;
    }
    Ok(cli)
}

/// The benchmark's own directory: where `out/` lives, and whose parent is
/// the repo root. `run.sh` says where it is; a bare `cargo run` falls back
/// to where the package was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("TSQR_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Runs one workload in this process. Full sizes are the smallest at
/// which the traced pass still shows the path a workload exists for well
/// above the regression bound (README.md has the shares), so that a run of
/// ten seconds holds as many samples as it can; `--quick` shrinks them
/// further where it can, every rank still holding at least N rows.
fn run_workload(spec: &'static WorkloadSpec, opts: &Options) -> RunResult {
    fn pick<T>(quick: bool, full: T, small: T) -> T {
        if quick {
            small
        } else {
            full
        }
    }
    let (seed, quick) = (opts.seed, opts.quick);
    match spec.name {
        "real-n64" => {
            let shape = RealShape {
                m: pick(quick, 1 << 19, 1 << 16),
                n: 64,
                sites: 4,
                with_q: false,
            };
            harness::run(spec, opts, |tr| Real::setup(shape, seed, tr))
        }
        "real-n256-q" => {
            let shape = RealShape {
                m: pick(quick, 1 << 15, 1 << 14),
                n: 256,
                sites: 1,
                with_q: true,
            };
            harness::run(spec, opts, |tr| Real::setup(shape, seed, tr))
        }
        "sim-qr2" => {
            let (m, n) = (1 << 23, pick(quick, 32, 8));
            let root = bench_dir().join("..");
            harness::run(spec, opts, |tr| SimQr2::setup(m, n, &root, tr))
        }
        "tune-plan" => harness::run(spec, opts, TunePlan::setup),
        "serve-overload" => {
            let cfg = serving::overload(seed, pick(quick, 20_000, 5_000));
            harness::run(spec, opts, |tr| Serving::setup(cfg.clone(), tr))
        }
        "serve-deepq" => {
            let cfg = serving::deep_queue(seed, pick(quick, 15_000, 2_000));
            harness::run(spec, opts, |tr| Serving::setup(cfg.clone(), tr))
        }
        other => unreachable!("`{other}` is in the workload table but has no runner"),
    }
}

/// What the numbers were measured on. The nested package always links the
/// `third_party` stubs (its manifest patches them in); the `rayon` stub is
/// sequential, which is what `linalg.gemm_gflops` then measures.
fn environment() -> Json {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    Json::Obj(BTreeMap::from([
        ("nproc".to_string(), Json::Num(harness::all_cores() as f64)),
        ("rustc".to_string(), Json::Str(rustc)),
        (
            "third_party".to_string(),
            Json::Str("offline stubs (rayon sequential)".to_string()),
        ),
    ]))
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = BTreeMap::from([
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]);
                (name.to_string(), Json::Obj(entry))
            })
            .collect(),
    )
}

/// The unscaled clock readings and the scale factors of one run.
fn readings_json(readings: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        readings
            .iter()
            .map(|&(name, value)| (name.to_string(), Json::Num(value)))
            .collect(),
    )
}

fn write_file(path: &Path, text: &str, append: bool) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)?
        .write_all(text.as_bytes())
}

/// One workload, here: measure, write the trace and the record, print the
/// result line.
fn single(spec: &'static WorkloadSpec, cli: &Cli) -> std::io::Result<ExitCode> {
    let result = run_workload(spec, &cli.opts);
    let correct = result.failed == 0;

    if cli.opts.trace {
        let spans = result.tracer.spans();
        let layers = totals_by_name(&spans)
            .into_iter()
            .map(|(name, t)| {
                let row = BTreeMap::from([
                    ("count".to_string(), Json::Num(t.count as f64)),
                    ("total_ns".to_string(), Json::Num(t.total_ns as f64)),
                    ("self_ns".to_string(), Json::Num(t.self_ns as f64)),
                ]);
                (name, Json::Obj(row))
            })
            .collect();
        let doc = Json::Obj(BTreeMap::from([
            ("workload".to_string(), Json::Str(spec.name.to_string())),
            ("seed".to_string(), Json::Num(cli.opts.seed as f64)),
            ("spans".to_string(), spans_to_json(&spans)),
            ("by_name".to_string(), Json::Obj(layers)),
            ("metrics".to_string(), metrics_json(&result.metrics)),
            ("readings".to_string(), readings_json(&result.readings)),
        ]));
        let path = bench_dir()
            .join("out")
            .join(format!("trace-{}.json", spec.name));
        write_file(&path, &doc.render(), false)?;
        println!("  {} spans -> {}", spans.len(), path.display());
    }
    if let Some(out) = &cli.out {
        let record = [
            ("workload", Json::Str(spec.name.to_string())),
            ("seed", Json::Num(cli.opts.seed as f64)),
            ("trace", Json::Bool(cli.opts.trace)),
            ("quick", Json::Bool(cli.opts.quick)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("sample_spread", Json::Num(result.sample_spread)),
            ("metrics", metrics_json(&result.metrics)),
            ("readings", readings_json(&result.readings)),
            ("env", environment()),
        ];
        let record = Json::Obj(
            record
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        write_file(out, &(record.render() + "\n"), true)?;
    }
    // The result line is written by hand: the counts must read as whole
    // numbers, which the shared JSON writer renders with a fraction.
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json::num(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each run in a fresh child process of this same binary.
fn all(cli: &Cli) -> std::io::Result<ExitCode> {
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| bench_dir().join("out").join("results.jsonl"));
    if cli.out.is_none() {
        write_file(&out, "", false)?;
    }
    let Options {
        seed,
        seconds,
        min_samples,
        trace,
        quick,
    } = cli.opts;
    let mut forwarded = vec![
        "--seconds".to_string(),
        seconds.to_string(),
        "--samples".to_string(),
        min_samples.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if quick {
        forwarded.push("--quick".to_string());
    }
    println!("environment: {}", environment().render());
    let exe = std::env::current_exe()?;
    let mut failed_runs = 0usize;
    for run in 0..cli.runs {
        for spec in &WORKLOADS {
            let status = Command::new(&exe)
                .args(&forwarded)
                .args([
                    "--workload",
                    spec.name,
                    "--seed",
                    &(seed + run as u64).to_string(),
                ])
                .arg("--out")
                .arg(&out)
                .status()?;
            if !status.success() {
                failed_runs += 1;
                eprintln!("FAILED run of {} ({status})", spec.name);
            }
        }
    }
    println!(
        "{} runs, {failed_runs} failed; records in {}",
        cli.runs * WORKLOADS.len(),
        out.display()
    );
    Ok(if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match cli.workload {
        Some(spec) => single(spec, &cli),
        None => all(&cli),
    };
    done.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
