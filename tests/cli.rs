//! Smoke tests of the `grid-tsqr` command-line front end.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_grid-tsqr"))
}

#[test]
fn info_lists_the_catalog() {
    let out = cli().arg("info").output().expect("run cli");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for site in ["orsay", "toulouse", "bordeaux", "sophia"] {
        assert!(text.contains(site), "missing {site} in:\n{text}");
    }
}

#[test]
fn symbolic_tsqr_reports_the_wan_bill() {
    let out = cli()
        .args(["tsqr", "--m", "1048576", "--n", "64", "--sites", "3"])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("(2 WAN)"), "3 sites -> 2 WAN messages:\n{text}");
}

#[test]
fn real_run_verifies_r() {
    let out = cli()
        .args(["tsqr", "--m", "4096", "--n", "8", "--sites", "2", "--real", "--seed", "5"])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("R verified"), "{text}");
}

#[test]
fn scalapack_blocked_and_unblocked_both_run() {
    for extra in [vec![], vec!["--blocked"]] {
        let mut args = vec!["scalapack", "--m", "65536", "--n", "32", "--sites", "1"];
        args.extend(extra.iter().copied());
        let out = cli().args(&args).output().expect("run cli");
        assert!(out.status.success(), "args: {args:?}");
    }
}

#[test]
fn compare_declares_a_winner() {
    let out = cli()
        .args(["compare", "--m", "8388608", "--n", "64", "--sites", "4"])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("speedup:"));
}

#[test]
fn analyze_prints_the_full_diagnosis() {
    let out = cli()
        .args(["analyze", "--m", "262144", "--n", "32", "--sites", "2", "--bins", "16"])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for section in [
        "wait states reconcile",
        "== wait states ==",
        "== link utilization ==",
        "== communication matrix ==",
        "== model fit (Eq. 1) ==",
        "relative residual",
    ] {
        assert!(text.contains(section), "missing {section:?} in:\n{text}");
    }
}

#[test]
fn analyze_scalapack_classifies_waits() {
    let out = cli()
        .args(["analyze", "--m", "65536", "--n", "16", "--sites", "4", "--algo", "scalapack"])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("TOTAL"), "{text}");
    assert!(text.contains("worst waiting ranks"), "{text}");
}

#[test]
fn faults_recovers_bitwise_and_types_the_plain_programs_failure() {
    // `check` holds every fault-matrix scenario to the bitwise R; this is
    // the one run of `--baseline`, the plain program's typed report.
    let out = cli()
        .args(["faults", "--m", "65536", "--n", "32", "--sites", "4"])
        .args(["--crash", "0@2", "--crash", "1@4", "--baseline"])
        .env("GRID_TSQR_LEDGER", "")
        .output()
        .expect("run cli");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered R is bitwise identical to the failure-free R"), "{text}");
    assert!(text.contains("baseline tsqr: 1 rank(s) failed [0]; first error: rank 0:"), "{text}");
}

#[test]
fn serve_scores_every_policy_on_one_trace() {
    let out = cli()
        .args(["serve", "--policy", "all", "--requests", "25", "--load", "1.5", "--seed", "7"])
        .output()
        .expect("run cli");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    for section in ["policy fifo", "policy sjf", "policy edf", "policy fair", "summary"] {
        assert!(text.contains(section), "missing {section:?} in:\n{text}");
    }
}

#[test]
fn serve_batching_coalesces_a_same_shape_burst() {
    let base = [
        "serve",
        "--policy",
        "fifo",
        "--requests",
        "20",
        "--load",
        "4.0",
        "--shape",
        "3",
        "--seed",
        "9",
    ];
    let run = |batch: bool| {
        let mut args: Vec<&str> = base.to_vec();
        if batch {
            args.push("--batch");
        }
        let out = cli().args(&args).output().expect("run cli");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let plain = run(false);
    let batched = run(true);
    let wan = |text: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with("dispatches"))
            .and_then(|l| l.split_whitespace().nth(5))
            .and_then(|v| v.parse().ok())
            .expect("dispatches line carries the wan count")
    };
    assert!(
        wan(&batched) < wan(&plain),
        "batching must cut WAN messages: {} vs {}",
        wan(&batched),
        wan(&plain)
    );
}

#[test]
fn serve_sweep_renders_the_knee_table() {
    let out =
        cli().args(["serve", "--sweep", "0.5,2.0", "--requests", "15"]).output().expect("run cli");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("load sweep"), "{text}");
    assert!(text.contains("p99 s"), "{text}");
}

#[test]
fn a_sweep_checks_every_load_before_serving_any() {
    // Two loads of 3M requests each used to run (≈ 5 s) before the third
    // was parsed and refused.
    for (sweep, message) in [
        ("0.5,2,abc", "--sweep: cannot parse \"abc\""),
        ("0.5,2,-1", "--sweep loads must be positive"),
        ("0.5,2,1e308", "--load 1e308: the mean gap between arrivals"),
    ] {
        let start = std::time::Instant::now();
        let out = cli().args(["serve", "--sweep", sweep, "--requests", "3000000"]).output();
        let elapsed = start.elapsed();
        let out = out.expect("run cli");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{sweep}\n{err}");
        assert!(out.stdout.is_empty(), "{sweep}");
        assert!(err.starts_with(&format!("error: {message}")), "{sweep}\n{err}");
        assert!(elapsed.as_millis() < 50, "{sweep}: refused after {elapsed:?}");
    }
}

#[test]
fn trace_and_analyze_take_domains_and_tree_with_tsqr_only() {
    // Both flags used to be read and then ignored by the ScaLAPACK runs.
    let small = ["--m", "65536", "--n", "32"];
    for (cmd, algo, flags) in [
        ("analyze", "scalapack", &["--domains", "3", "--tree", "flat"][..]),
        ("trace", "scalapack", &["--tree", "binary"][..]),
        ("trace", "scalapack-blocked", &["--domains", "8"][..]),
    ] {
        let out = cli().arg(cmd).args(small).args(["--algo", algo]).args(flags).output();
        let out = out.expect("run cli");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} {flags:?}\n{err}");
        assert!(out.stdout.is_empty(), "{cmd} {flags:?}");
        let message = format!("error: {} applies to --algo tsqr only, not --algo {algo}", flags[0]);
        assert!(err.starts_with(&message), "{cmd} {flags:?}\n{err}");
    }
}

#[test]
fn bad_input_exits_nonzero_with_usage() {
    for args in [
        vec!["bogus"],
        vec!["tsqr", "--sites", "9"],
        vec!["tsqr", "--m", "zzz"],
        vec!["serve", "--policy", "lifo"],
        vec!["serve", "--shape", "9"],
    ] {
        let out = cli().args(&args).output().expect("run cli");
        assert!(!out.status.success(), "args: {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("USAGE"), "{err}");
    }
}

#[test]
fn impossible_geometry_is_an_error_not_a_panic() {
    // Each of these used to trip a library assert inside the rank threads
    // (or before them) and die with a backtrace.
    for args in [
        vec!["tsqr", "--domains", "1", "--q"],
        vec!["tsqr", "--domains", "3"],
        vec!["tsqr", "--domains", "0"],
        vec!["tsqr", "--m", "100", "--n", "64", "--real"],
        vec!["tsqr", "--m", "0"],
        vec!["tsqr", "--n", "0"],
        vec!["compare", "--m", "1000", "--n", "64"],
        vec!["scalapack", "--m", "1000", "--n", "64", "--sites", "1", "--real"],
        vec!["scalapack", "--m", "1000", "--n", "64", "--sites", "4", "--real"],
        vec!["trace", "--m", "1000", "--n", "64"],
        vec!["analyze", "--domains", "5"],
    ] {
        let out = cli().args(&args).output().expect("run cli");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "args: {args:?}\n{err}");
        assert!(!err.contains("panicked at"), "args: {args:?}\n{err}");
    }
}

#[test]
fn what_the_library_would_assert_is_refused_at_the_flag() {
    // Every row used to panic in a `FailureSchedule` builder or a rank
    // thread, or was accepted and silently did nothing.
    let small = ["--m", "65536", "--n", "32"];
    let cases: &[(&str, &[&str], &[&str])] = &[
        // The fault grammar, on both axes it indexes.
        ("serve", &[], &["--wan-slow", "5:1:2:2"]),
        ("faults", &small, &["--wan-slow", "5:1:2:2"]),
        ("serve", &[], &["--wan-slow", "0:inf:2:2"]),
        ("serve", &[], &["--wan-slow", "0:50:0:4"]),
        ("faults", &small, &["--wan-slow", "0:50:4:0.5"]),
        ("serve", &[], &["--drop-prob", "0:1:7"]),
        ("faults", &small, &["--drop-prob", "0:1:-0.1"]),
        ("serve", &[], &["--crash", "1@nan"]),
        ("faults", &small, &["--crash", "1@-5"]),
        ("faults", &small, &["--crash", "999@1"]),
        ("faults", &small, &["--drop", "0:999:1"]),
        ("faults", &small, &["--drop-prob", "256:0:0.5"]),
        ("serve", &[], &["--drop-flow", "0:4:1"]),
        ("faults", &small, &["--crash", "1@1", "--crash", "1@2"]),
        ("serve", &[], &["--crash", "1@1", "--crash", "1@2"]),
        // load × grid nodes overflows: no time left between arrivals.
        ("serve", &[], &["--load", "1e308"]),
        ("serve", &[], &["--sweep", "0.5,1e308"]),
        // Geometry the rank programs cannot run.
        ("faults", &[], &["--m", "100", "--n", "32"]),
        ("faults", &[], &["--n", "0"]),
        ("tune", &[], &["--m", "100", "--n", "64"]),
        ("tune", &[], &["--n", "0"]),
        // Accepted and did nothing: no message travels from a rank to
        // itself, nor a serve drain within one site; a queue of capacity 0
        // rejected every request on an idle grid.
        ("faults", &small, &["--drop", "0:0:1"]),
        ("faults", &small, &["--drop-prob", "3:3:0.5"]),
        ("serve", &[], &["--drop-flow", "1:1:0"]),
        ("serve", &[], &["--queue", "0"]),
    ];
    for (cmd, size, flags) in cases {
        let out = cli().arg(cmd).args(*size).args(*flags).output().expect("run cli");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} {flags:?}\n{err}");
        assert!(err.starts_with("error: "), "{cmd} {flags:?}\n{err}");
        assert!(!err.contains("panicked at"), "{cmd} {flags:?}\n{err}");
    }
}

/// Every subcommand, read off the usage text that the flag tables render.
fn subcommands() -> Vec<String> {
    let out = cli().output().expect("run cli");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).unwrap();
    let names: Vec<String> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  grid-tsqr "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert_eq!(names.len(), 13, "{usage}");
    names
}

#[test]
fn a_flag_the_subcommand_never_reads_is_refused() {
    // A mistyped flag must not quietly measure the defaults: it is refused
    // before any work, with the usage of the one subcommand it was given to.
    // `compare` and `tune` run symbolically only, so they take no `--seed`;
    // the report's hot-phase table always lists ten rows, so it takes no
    // `--top`.
    let strays = subcommands().into_iter().map(|cmd| vec![cmd, "--bogus".into()]);
    let unread = [("compare", "--seed"), ("tune", "--seed"), ("report", "--top")]
        .map(|(cmd, flag)| vec![cmd.into(), flag.into(), "5".into()]);
    for args in strays.chain(unread) {
        let out = cli().args(&args).output().expect("run cli");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        let first = format!("error: unknown flag for `{}`: {}\n", args[0], args[1]);
        assert!(err.starts_with(&first), "{err}");
        assert_eq!(err.matches("\n  grid-tsqr ").count(), 1, "{err}");
    }
    // Every serve flag is still known on every path, sweep included.
    let out = cli()
        .args(["serve", "--sweep", "0.5", "--requests", "5", "--trace-out", "unused.jsonl"])
        .args(["--batch", "--queue", "8", "--retry", "2", "--no-checkpoint"])
        .output()
        .expect("run cli");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn every_synopsis_lists_each_flag_once_and_fits_80_columns() {
    let out = cli().output().expect("run cli");
    let usage = String::from_utf8(out.stderr).unwrap();
    let mut flags: Vec<&str> = Vec::new();
    for line in usage.lines() {
        assert!(line.chars().count() <= 80, "{line:?}");
        if line.starts_with("  grid-tsqr ") {
            flags.clear();
        }
        for flag in line.split('[').filter_map(|w| w.split([' ', ']']).next()) {
            if !flag.starts_with("--") {
                continue;
            }
            assert!(!flags.contains(&flag), "{flag} twice in:\n{usage}");
            flags.push(flag);
        }
    }
}

#[test]
fn a_refused_command_leaves_nothing_behind() {
    // A refusal comes before the command runs: it writes no file and
    // appends no ledger entry.
    let ledger = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/ledger/runs.jsonl")).unwrap();
    for (i, args) in [
        "trace --m 65536 --n 32 --out x.json --folded-out f.txt --bogus",
        "report --ledger runs.jsonl --bless --golden g.md --bogus",
        "tune --m 65536 --n 32 --sites 2 --bogus",
        "faults --m 65536 --n 32 --bogus",
    ]
    .into_iter()
    .enumerate()
    {
        let dir = std::env::temp_dir().join(format!("tsqr_cli_refused_{}_{i}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let copy = dir.join("runs.jsonl");
        std::fs::write(&copy, &ledger).unwrap();
        let listing = || {
            let mut names: Vec<_> =
                std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        };
        let before = listing();
        let out = cli()
            .args(args.split_whitespace())
            .current_dir(&dir)
            .env("GRID_TSQR_LEDGER", &copy)
            .output()
            .expect("run cli");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
        assert_eq!(listing(), before, "{args}");
        assert!(std::fs::read(&copy).unwrap() == ledger, "{args}: the ledger changed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_flag_given_in_a_form_nobody_reads_is_refused() {
    // Three more ways a flag used to be silently ignored: a valued flag
    // with no value read as absent, only the first occurrence of a flag
    // was looked at, and a switch swallowed the token after it.
    for (args, message) in [
        (vec!["serve", "--load", "--requests", "30"], "--load needs a value"),
        (vec!["tsqr", "--m", "--n", "8"], "--m needs a value"),
        (vec!["report", "--golden"], "--golden needs a value"),
        (vec!["serve", "--requests", "30", "--crash"], "--crash needs a value"),
        (vec!["serve", "--requests", "30", "--requests", "5"], "--requests given twice"),
        (vec!["tsqr", "--m", "4096", "--n", "8", "--n", "16"], "--n given twice"),
        (vec!["figure", "--id", "fig12", "--id", "fig12"], "--id fig12 given twice"),
        (vec!["tsqr", "--m", "4096", "--n", "8", "--real", "5"], "--real takes no value"),
        (vec!["serve", "--requests", "30", "--batch", "1"], "--batch takes no value"),
        (vec!["tsqr", "--real", "--real"], "--real given twice"),
        (vec!["tsqr", "5", "--m", "8"], "unexpected argument \"5\""),
        (vec!["tsqr", "--m", "8", "9"], "unexpected argument \"9\""),
        // On a line with two faults, the first malformed token is named;
        // strays are named only when there is none, all of them in order.
        (vec!["tsqr", "--bogus", "--m"], "--m needs a value"),
        (vec!["tsqr", "--real", "5", "--n"], "--real takes no value"),
        (vec!["serve", "--x", "1", "--load", "2", "--y"], "unknown flag for `serve`: --x --y"),
    ] {
        let out = cli().args(&args).output().expect("run cli");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "args: {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("error: {message}\n")), "args: {args:?}\n{err}");
    }
    // The repeatable flags stay repeatable, on both fault axes.
    for args in [
        vec!["serve", "--requests", "30", "--crash", "0@5", "--crash", "1@9"],
        vec!["serve", "--requests", "30", "--drop-flow", "0:2:0", "--drop-flow", "0:2:1"],
        vec!["faults", "--m", "8192", "--n", "8", "--drop", "1:0:0", "--drop", "3:2:0"],
    ] {
        let out = cli().args(&args).output().expect("run cli");
        assert!(out.status.success(), "{args:?}\n{}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn a_gate_that_finds_drift_exits_1_without_usage() {
    // `check` ran and its lines differ from the golden: a failure of the
    // gate, not a refusal of the command line (exit 2 with usage).
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("COMMCHECK_baseline.txt"),
    )
    .unwrap();
    let line = golden.lines().nth(2).unwrap();
    let doctored = golden.replacen(line, &line.replace("races=0", "races=9"), 1);
    let path = std::env::temp_dir().join(format!("tsqr_cli_golden_{}.txt", std::process::id()));
    std::fs::write(&path, doctored).unwrap();
    let out = cli().args(["check", "--golden"]).arg(&path).output().expect("run cli");
    let _ = std::fs::remove_file(&path);
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty(), "{err}");
    assert!(
        err.contains(&format!("  line 3:\n    baseline: {}\n", line.replace("races=0", "races=9"))),
        "{err}"
    );
    assert!(err.contains(&format!("    current:  {line}\n")), "{err}");
    assert!(!err.contains("USAGE") && !err.contains("panicked at"), "{err}");
}

#[test]
fn figure_checks_its_ids_and_trace_target_before_anything_runs() {
    // `figure_points` used to panic on an unknown figure and `run_figure`
    // on a trace file it could not write.
    for (args, message) in [
        (vec!["figure", "--id", "fig9"], "--id fig9: no such artifact"),
        (vec!["figure", "--id"], "--id needs a value"),
        (vec!["figure", "--id", "fig5", "--all"], "--all already names every --id"),
        (
            vec!["figure", "--id", "table1", "--trace-out", "t.json"],
            "--trace-out dumps one figure's",
        ),
        (vec!["figure", "--all", "--trace-out", "t.json"], "--trace-out dumps one figure's"),
        (
            vec!["figure", "--id", "fig5", "--id", "fig7", "--trace-out", "t.json"],
            "--trace-out dumps",
        ),
        (vec!["figure", "--id", "fig7", "--trace-out", "/no/such/dir/t.json"], "cannot write"),
        (vec!["bench-check"], "bench-check needs --baseline <file>"),
        (vec!["bench-check", "--baseline"], "--baseline needs a value"),
    ] {
        let out = cli().args(&args).output().expect("run cli");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}\n{err}");
        assert!(out.stdout.is_empty(), "args: {args:?}");
        assert!(err.starts_with("error: ") && err.contains(message), "args: {args:?}\n{err}");
        assert!(!err.contains("panicked at"), "args: {args:?}\n{err}");
    }
}

#[test]
fn figure_lists_the_registry_and_regenerates_an_artifact() {
    let out = cli().arg("figure").output().expect("run cli");
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).unwrap();
    assert_eq!(listing.lines().count(), 18, "{listing}");
    assert!(listing.lines().any(|l| l.starts_with("fig12 ")), "{listing}");

    let out = cli().args(["figure", "--id", "fig12", "--id", "eq1"]).output().expect("run cli");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.matches("# paper-shape checks").count(), 2, "{text}");
    assert!(text.contains("[PASS] tuned tree sends exactly #clusters - 1 = 2 WAN messages"));
    assert!(!text.contains("[FAIL]"), "{text}");
}

#[test]
fn tune_and_figure_trace_out_append_their_measured_runs_to_the_ledger() {
    let dir = std::env::temp_dir().join(format!("tsqr_cli_ledger_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("runs.jsonl");
    let trace = dir.join("fig7.json");
    for args in [
        vec!["tune", "--m", "65536", "--n", "32", "--sites", "2"],
        vec!["figure", "--id", "fig7", "--trace-out", trace.to_str().unwrap()],
    ] {
        let out = cli().args(&args).env("GRID_TSQR_LEDGER", &ledger).output().expect("run cli");
        assert!(out.status.success(), "{args:?}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    let entries = grid_tsqr::obs::ledger::read_ledger(&ledger).unwrap();
    let got: Vec<(&str, &str)> =
        entries.iter().map(|e| (e.source.as_str(), e.scenario.as_str())).collect();
    assert_eq!(got, [("tune", "cli/tune/s2-m65536-n32"), ("figure", "fig7/tsqr")]);
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let _ = std::fs::remove_dir_all(dir);
}
