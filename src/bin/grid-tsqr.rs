//! `grid-tsqr` — command-line front end for the simulated grid.
//!
//! ```text
//! grid-tsqr info
//! grid-tsqr tsqr      --m 1048576 --n 64  [--sites 4] [--domains 64]
//!                     [--tree grid|binary|flat|kary:<k>|binomial|greedy]
//!                     [--real] [--q]
//! grid-tsqr scalapack --m 1048576 --n 64  [--sites 4] [--real] [--blocked]
//! grid-tsqr compare   --m 1048576 --n 64  [--sites 4]
//! grid-tsqr tune      --m 1048576 --n 64  [--sites 4] [--domains 64]
//! grid-tsqr trace     --m 1048576 --n 64  [--sites 4] [--algo tsqr|scalapack]
//!                     [--out trace.json] [--folded-out profile.folded] [--timeline]
//! grid-tsqr analyze   --m 1048576 --n 64  [--sites 4] [--algo tsqr|scalapack]
//!                     [--bins 64]
//! grid-tsqr faults    --m 262144 --n 64   [--sites 4] [--crash R@MS ...]
//!                     [--drop SRC:DST:NTH ...] [--drop-prob SRC:DST:P ...]
//!                     [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx] [--fault-seed 1]
//!                     [--baseline]
//! grid-tsqr serve     [--policy fifo|sjf|edf|fair|all] [--load 0.8] [--requests 200]
//!                     [--seed 42] [--batch] [--queue 64] [--shape MENU_IX]
//!                     [--sweep L1,L2,...] [--trace-out dispositions.jsonl]
//!                     [--crash SITE@MS ...] [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx]
//!                     [--drop-flow A:B:NTH ...] [--drop-prob A:B:P ...]
//!                     [--fault-seed 1] [--retry 3] [--backoff 50]
//!                     [--no-checkpoint] [--brownout ENTER:EXIT]
//! grid-tsqr check     [--m 65536 --n 32] [--sites 4] [--no-matrix]
//!                     [--no-explore] [--golden COMMCHECK_baseline.txt] [--bless]
//! grid-tsqr report    [--ledger ledger/runs.jsonl] [--threshold 0.05] [--top 10]
//!                     [--check] [--golden REPORT_baseline.md] [--bless] [--out report.md]
//! grid-tsqr figure    [--id fig5 ...] [--all] [--trace-out fig5.json]
//! grid-tsqr bench-check --baseline BENCH_baseline.json [--out BENCH_results.json] [--bless]
//! ```
//!
//! `figure` regenerates the paper's artifacts from the registry in
//! `tsqr_bench` (every table, figure, property and ablation is one row):
//! `--id` (repeatable) or `--all`, neither to list the rows. Each artifact
//! ends in its `[PASS]`/`[FAIL]` paper-shape block and any `[FAIL]` is exit
//! code 1; one process prices a point shared by several figures once.
//! `bench-check` is the perf-regression gate `scripts/bench_check.sh`
//! drives: every registered headline point measured and compared with the
//! committed baseline, exit code 1 on drift.
//!
//! `tune` runs the model-driven reduction-tree autotuner
//! (`tsqr_core::tune`, handbook in `docs/tuning.md`): it predicts the
//! makespan of every candidate tree shape analytically from the
//! calibrated cost model, prints the search table, and cross-checks the
//! winner against an actual `netsim` replay.
//!
//! By default experiments run symbolically (paper scale in milliseconds)
//! at the calibrated kernel rates; `--real` switches to real numerics and
//! verifies the R factor against a single-process reference.
//!
//! `trace` runs one point with event tracing enabled and prints the
//! critical path plus the per-phase Eq. (1) ledger; `--out` additionally
//! writes Chrome-trace JSON loadable in <https://ui.perfetto.dev>, and
//! `--folded-out` writes collapsed folded stacks (per rank, plus an
//! `.agg` aggregate) for `inferno` / speedscope flame graphs, checking
//! the virtual-time tiling invariant first. The schemas are documented
//! in `docs/observability.md`.
//!
//! `report` renders the cross-run trend/anomaly dashboard from the
//! append-only experiment ledger (`ledger/runs.jsonl`, written by the
//! bench gate and the `tune`/`faults` subcommands whenever
//! `GRID_TSQR_LEDGER` is set). `--check` exits nonzero when any entry's
//! per-phase Eq. (1) residual exceeds its scenario reference by more
//! than the threshold; `--golden` byte-compares the report rendered over
//! the baseline's pinned entry prefix. See `docs/observability.md` §9.
//!
//! `faults` runs the **self-healing** TSQR (`tsqr_core::ft_tsqr`) with
//! real numerics under an injected failure schedule — rank crashes at
//! virtual times, transient message drops, WAN degradation windows — and
//! verifies that the recovered R factor is bitwise identical to the
//! failure-free run; `--baseline` additionally shows how the plain
//! program fails (typed, structured — no panic) under the same schedule.
//! See `docs/fault-injection.md`.
//!
//! `serve` runs the deterministic multi-tenant serving layer
//! (`tsqr-serve`, handbook in `docs/serving.md`): a seeded open-loop
//! request stream multiplexed over one Grid'5000 catalog with cluster
//! slots leased per job and WAN transfers priced against shared
//! per-link capacity. `--policy all` scores every discipline on the
//! same trace; `--batch` coalesces same-shape queued requests into one
//! stacked TSQR; `--sweep` renders the latency/throughput knee over a
//! comma-separated load list; `--trace-out` writes per-request
//! dispositions as JSON lines. Failure injection rides the same flag
//! grammar as `faults`, lifted to the site level: `--crash SITE@MS`
//! kills a whole catalog cluster, `--wan-slow` opens a WAN degradation
//! window, `--drop-flow`/`--drop-prob` lose drained R messages on a
//! site-pair flow; `--retry`, `--backoff`, `--no-checkpoint` and
//! `--brownout` tune the recovery layer (docs/serving.md §Failures).
//!
//! `check` is the **commcheck** gate (`docs/static-analysis.md`): it runs
//! the figure-style scenarios and the fault matrix with tracing on, feeds
//! every trace through the happens-before analyzer
//! (`gridmpi::hb`) — receive races, deadlock cycles, clock monotonicity —
//! and runs the DPOR-lite schedule explorer (`gridmpi::explore`) on a
//! dedicated 8-rank grid, proving the TSQR result bit-identical under
//! every permuted delivery order. One structural summary line per
//! scenario is compared against the blessed `COMMCHECK_baseline.txt`
//! (regenerate with `--bless`), exactly like the benchmark gate.
//!
//! Every subcommand that runs the `gridmpi` simulator — all but `info`,
//! `report` and `serve` — accepts `--recv-timeout <seconds>`: the
//! *wall-clock* deadlock safety net of the simulator's threaded runs
//! (`--real`, `faults`, the explorer; failure *detection* happens in
//! virtual time, and symbolic runs share one thread, where a deadlock is
//! seen exactly and no clock is consulted; see `docs/fault-injection.md`
//! §Detection).
//!
//! `analyze` runs the same traced point and prints the diagnosis instead:
//! the Scalasca-style wait-state breakdown (reconciled against the metrics
//! registry), per-link-class utilization timelines, the rank-to-rank
//! communication matrix, and the Eq. (1) least-squares fit with its
//! residual. See `docs/observability.md` §8 ("Diagnosing a run").

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Duration;

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::experiment::{Algorithm, ExperimentResult, Mode};
use grid_tsqr::core::ft_tsqr::ft_tsqr_rank_program;
use grid_tsqr::core::modelfit;
use grid_tsqr::core::tree::{ReductionTree, TreeShape};
use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
use grid_tsqr::core::tune;
use grid_tsqr::core::workload;
use grid_tsqr::gridmpi::{
    explore, fnv1a, schedules_for, CriticalPath, FoldedProfile, HbReport, Runtime,
};
use grid_tsqr::linalg::prelude::QrFactors;
use grid_tsqr::linalg::verify::r_distance;
use grid_tsqr::netsim::{
    ClusterSpec, CostModel, FailureSchedule, GridTopology, LinkParams, VirtualTime,
};
use grid_tsqr::obs::ledger::{append_entry, path_from_env, read_ledger};
use grid_tsqr::obs::report::{detect_anomalies, render_report, ReportOptions};
use grid_tsqr::qcg::ResourceCatalog;
use grid_tsqr::serve::{
    load_is_offerable, menu, serve, BrownoutConfig, Disposition, FaultKind, Policy as ServePolicy, PolicyReport,
    RecoveryAction, RetryPolicy, ServeConfig, ServeOutcome,
};
use tsqr_bench::{
    calib, compare_records, figures, gate_points, ledger_entry, measure_gate, parse_records,
    platform_runtime, records_json, run_figure, run_point, serve_fault_points, serve_record,
    Figure, Sweep,
};

struct Args {
    flags: Vec<(String, Option<String>)>,
    /// Every name a subcommand asked about, so that what it never asked
    /// about can be refused instead of silently ignored.
    asked: RefCell<BTreeSet<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags, asked: RefCell::default() })
    }

    /// Fails when a flag was given that `cmd` never looked at: a mistyped
    /// flag must not quietly measure the defaults.
    fn reject_unread(&self, cmd: &str) -> Result<(), String> {
        let asked = self.asked.borrow();
        let stray: Vec<String> = self
            .flags
            .iter()
            .filter(|(n, _)| !asked.contains(n))
            .map(|(n, _)| format!("--{n}"))
            .collect();
        if stray.is_empty() {
            Ok(())
        } else {
            Err(format!("unknown flag for `{cmd}`: {}", stray.join(" ")))
        }
    }

    fn note(&self, name: &str) {
        self.asked.borrow_mut().insert(name.to_string());
    }

    /// What followed each `--name` on the command line, in order. Every
    /// accessor below reads a flag through here and refuses one given in a
    /// form it would not read, for the same reason strays are refused.
    fn given(&self, name: &str) -> Vec<Option<&str>> {
        self.note(name);
        self.flags.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_deref()).collect()
    }

    /// The value of a flag that is read once.
    fn get(&self, name: &str) -> Result<Option<&str>, String> {
        match self.given(name)[..] {
            [] => Ok(None),
            [None] => Err(format!("--{name} needs a value")),
            [value] => Ok(value),
            _ => Err(format!("--{name} given twice")),
        }
    }

    /// Whether a switch is present.
    fn has(&self, name: &str) -> Result<bool, String> {
        let given = self.given(name);
        if given.iter().any(Option::is_some) {
            return Err(format!("--{name} takes no value"));
        }
        Ok(!given.is_empty())
    }

    /// Every value given for a repeatable flag, in order.
    fn all(&self, name: &str) -> Result<Vec<&str>, String> {
        self.given(name)
            .into_iter()
            .map(|value| value.ok_or_else(|| format!("--{name} needs a value")))
            .collect()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn write_file(path: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Extracts `K` from the `- entries: K` header line of a blessed report.
///
/// The report golden is **prefix-pinned**: the baseline records how many
/// ledger entries it was rendered over, and the gate re-renders the report
/// over exactly that prefix. Appending new runs to the ledger therefore
/// never invalidates the golden — only a change to how existing entries
/// are rendered does.
fn golden_entry_count(report: &str) -> Option<usize> {
    report
        .lines()
        .find_map(|l| l.strip_prefix("- entries: "))
        .and_then(|v| v.trim().parse().ok())
}

/// The compare half of the two golden gates (`report --golden`,
/// `check --golden`): byte-compares `got` with the blessed file at `path`;
/// a mismatch is `headline`, how to re-bless, and a line-by-line
/// `baseline:/current:` diff.
fn expect_golden(path: &str, got: &str, headline: &str, cmd: &str) -> Result<(), String> {
    let want =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    if want == got {
        return Ok(());
    }
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    let mut diff = String::new();
    for i in 0..want_lines.len().max(got_lines.len()) {
        let w = want_lines.get(i).copied().unwrap_or("<missing>");
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        if w != g {
            diff.push_str(&format!(
                "  line {}:\n    baseline: {w}\n    current:  {g}\n",
                i + 1
            ));
        }
    }
    Err(format!(
        "{headline} (re-bless with `grid-tsqr {cmd} --bless` if intended):\n{diff}"
    ))
}

/// Parses a `--tree` value: the three fixed shapes plus the generated
/// families the autotuner searches over (`kary:<k>`, `binomial`,
/// `greedy`; `kary:1` is a chain).
fn parse_shape(s: &str) -> Result<TreeShape, String> {
    if let Some(k) = s.strip_prefix("kary:") {
        let k: usize =
            k.parse().map_err(|_| format!("--tree kary:<k>: cannot parse {k:?}"))?;
        if k == 0 {
            return Err("--tree kary:<k> needs k >= 1".into());
        }
        return Ok(TreeShape::Kary(k));
    }
    match s {
        "grid" => Ok(TreeShape::GridHierarchical),
        "binary" => Ok(TreeShape::Binary),
        "flat" => Ok(TreeShape::Flat),
        "binomial" => Ok(TreeShape::Binomial),
        "greedy" => Ok(TreeShape::Greedy),
        other => Err(format!(
            "unknown tree shape {other:?} (flat|binary|grid|kary:<k>|binomial|greedy)"
        )),
    }
}

fn usage() -> ExitCode {
    eprint!(
        "grid-tsqr: TSQR / ScaLAPACK QR on a simulated computational grid\n\
         \n\
         USAGE:\n\
         \x20 grid-tsqr info\n\
         \x20 grid-tsqr tsqr      --m <rows> --n <cols> [--sites 1..4] [--domains <d/cluster>]\n\
         \x20                     [--tree <shape>] [--real] [--q] [--seed <u64>]\n\
         \x20 grid-tsqr scalapack --m <rows> --n <cols> [--sites 1..4] [--real] [--blocked]\n\
         \x20 grid-tsqr compare   --m <rows> --n <cols> [--sites 1..4]\n\
         \x20 grid-tsqr tune      --m <rows> --n <cols> [--sites 1..4] [--domains <d/cluster>]\n\
         \x20 grid-tsqr trace     --m <rows> --n <cols> [--sites 1..4] [--algo tsqr|scalapack]\n\
         \x20                     [--domains <d>] [--tree <shape>] [--real]\n\
         \x20                     [--out <file.json>] [--folded-out <file>] [--timeline]\n\
         \x20 grid-tsqr analyze   --m <rows> --n <cols> [--sites 1..4] [--algo tsqr|scalapack]\n\
         \x20                     [--domains <d>] [--tree <shape>] [--bins <timeline bins>]\n\
         \x20 grid-tsqr faults    --m <rows> --n <cols> [--sites 1..4] [--fault-seed <u64>]\n\
         \x20                     [--crash RANK@MS ...] [--drop SRC:DST:NTH ...]\n\
         \x20                     [--drop-prob SRC:DST:P ...] [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx]\n\
         \x20                     [--baseline]\n\
         \x20 grid-tsqr serve     [--policy fifo|sjf|edf|fair|all] [--load <x>] [--requests <k>]\n\
         \x20                     [--seed <u64>] [--batch] [--queue <cap>] [--shape <menu ix>]\n\
         \x20                     [--sweep <l1,l2,...>] [--trace-out <file.jsonl>]\n\
         \x20                     [--crash SITE@MS ...] [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx]\n\
         \x20                     [--drop-flow A:B:NTH ...] [--drop-prob A:B:P ...]\n\
         \x20                     [--fault-seed <u64>] [--retry <n>] [--backoff <ms>]\n\
         \x20                     [--no-checkpoint] [--brownout ENTER:EXIT]\n\
         \x20 grid-tsqr check     [--m <rows> --n <cols>] [--sites 1..4] [--no-matrix]\n\
         \x20                     [--no-explore] [--golden <baseline.txt>] [--bless]\n\
         \x20 grid-tsqr report    [--ledger <runs.jsonl>] [--threshold <frac>] [--top <k>]\n\
         \x20                     [--check] [--golden <baseline.md>] [--bless] [--out <file.md>]\n\
         \x20 grid-tsqr figure    [--id <artifact> ...] [--all] [--trace-out <file.json>]\n\
         \x20 grid-tsqr bench-check --baseline <records.json> [--out <records.json>] [--bless]\n\
         \n\
         Tree shapes: flat | binary | grid | kary:<k> | binomial | greedy\n\
         (kary:1 is a chain; see docs/tuning.md for the closed forms).\n\
         Every subcommand that runs the simulator (all but info, report and\n\
         serve) accepts --recv-timeout <seconds>: the wall-clock deadlock\n\
         safety net of runs on rank threads (--real, faults, the explorer);\n\
         failure detection itself runs in virtual time, and symbolic runs\n\
         share one thread, where a deadlock is found exactly, without a clock.\n\
         faults runs the self-healing TSQR with real numerics under an injected\n\
         failure schedule and checks the recovered R against the failure-free\n\
         run bit for bit; --baseline shows the plain program's typed failure.\n\
         See docs/fault-injection.md.\n\
         Symbolic runs (default) execute the full distributed schedule with\n\
         model-priced virtual time; --real moves actual matrices and checks R.\n\
         tune searches every candidate tree shape with the analytic makespan\n\
         predictor (docs/tuning.md), prints the table, and cross-checks the\n\
         winner against a netsim replay to 1e-9.\n\
         trace prints the critical path and per-phase Eq. (1) ledger of one\n\
         run; --out writes Chrome-trace JSON for ui.perfetto.dev.\n\
         analyze prints the wait-state breakdown, link utilization, the\n\
         communication matrix and the Eq. (1) model fit of one run.\n\
         check runs every figure scenario and the fault matrix under the\n\
         happens-before analyzer (races, deadlock cycles, clock violations)\n\
         and the DPOR-lite schedule explorer (8-rank determinism proof);\n\
         --golden compares one structural line per scenario against the\n\
         blessed baseline, --bless regenerates it. See docs/static-analysis.md.\n\
         report renders the trend/anomaly dashboard over the experiment\n\
         ledger (append with GRID_TSQR_LEDGER=<file>); --check exits nonzero\n\
         on per-phase model residuals exceeding the scenario reference by\n\
         more than --threshold. See docs/observability.md #9.\n\
         serve multiplexes a seeded multi-tenant request stream over one\n\
         grid: bounded-queue admission, fifo/sjf/edf/fair dispatch, slot\n\
         leasing, shared-WAN contention, optional same-shape batching.\n\
         See docs/serving.md.\n\
         figure regenerates the paper's tables, figures and ablations with\n\
         their [PASS]/[FAIL] shape checks (exit 1 on a [FAIL]); no flag lists\n\
         the artifacts; --trace-out dumps the headline trace of one of\n\
         fig4..fig8. bench-check measures every gate point against the\n\
         committed baseline (exit 1 on drift); see scripts/bench_check.sh.\n"
    );
    ExitCode::from(2)
}

/// The index space a failure schedule's crashes and drops address: the
/// ranks of one `gridmpi` run (`faults`) or the sites of the serving
/// catalog (`serve`), with how many of them there are.
#[derive(Clone, Copy)]
enum FaultAxis {
    Ranks(usize),
    Sites(usize),
}

/// The fault-schedule flag grammar of `faults` and `serve`: `--crash X@MS`,
/// `--drop SRC:DST:NTH` (`--drop-flow A:B:NTH` between sites),
/// `--drop-prob A:B:P`, `--wan-slow FROM_MS:UNTIL_MS:LATx:BWx` and
/// `--fault-seed`. Times are wall-flag milliseconds, converted to virtual
/// seconds. Everything the [`FailureSchedule`] builders would assert is
/// refused here with a message instead.
fn fault_schedule(args: &Args, axis: FaultAxis) -> Result<FailureSchedule, String> {
    let (unit, count, drop_flag) = match axis {
        FaultAxis::Ranks(procs) => ("rank", procs, "drop"),
        FaultAxis::Sites(sites) => ("site", sites, "drop-flow"),
    };
    let index = |flag: &str, v: &str| -> Result<usize, String> {
        match v.parse::<usize>() {
            Ok(i) if i < count => Ok(i),
            Ok(i) => Err(format!("--{flag}: no {unit} {i}, this run has {count} {unit}s")),
            Err(_) => Err(format!("--{flag}: bad {unit} {v:?}")),
        }
    };
    let millis = |flag: &str, what: &str, v: &str| -> Result<VirtualTime, String> {
        match v.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Ok(VirtualTime::from_secs(ms * 1e-3)),
            _ => Err(format!("--{flag}: bad {what} {v:?} (want finite, non-negative ms)")),
        }
    };
    // `A:B:X`: two checked endpoints plus a payload the flag parses. Ranks
    // name a directed pair, sites an undirected flow stored low:high.
    let pair = |flag: &str, spec: &str| -> Result<(usize, usize, String), String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let [a, b, x] = parts[..] else {
            return Err(format!("--{flag} wants A:B:X, got {spec:?}"));
        };
        let (a, b) = (index(flag, a)?, index(flag, b)?);
        Ok(match axis {
            FaultAxis::Ranks(_) => (a, b, x.to_string()),
            FaultAxis::Sites(_) => (a.min(b), a.max(b), x.to_string()),
        })
    };

    let mut schedule = FailureSchedule::new(args.num("fault-seed", 1u64)?);
    for spec in args.all("crash")? {
        let (x, ms) = spec
            .split_once('@')
            .ok_or_else(|| format!("--crash wants {}@MS, got {spec:?}", unit.to_uppercase()))?;
        let (x, at) = (index("crash", x)?, millis("crash", "time", ms)?);
        let taken = match axis {
            FaultAxis::Ranks(_) => schedule.crash_time(x),
            FaultAxis::Sites(_) => schedule.site_crash_time(x),
        };
        if taken.is_some() {
            return Err(format!("--crash: {unit} {x} already has a crash scheduled"));
        }
        schedule = match axis {
            FaultAxis::Ranks(_) => schedule.crash_rank(x, at),
            FaultAxis::Sites(_) => schedule.crash_site(x, at),
        };
    }
    for spec in args.all(drop_flag)? {
        let (a, b, nth) = pair(drop_flag, spec)?;
        let nth: u64 = nth.parse().map_err(|_| format!("--{drop_flag}: bad nth {nth:?}"))?;
        schedule = schedule.drop_nth_message(a, b, nth);
    }
    for spec in args.all("drop-prob")? {
        let (a, b, p) = pair("drop-prob", spec)?;
        schedule = match p.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => schedule.drop_probability(a, b, p),
            _ => return Err(format!("--drop-prob: bad p {p:?} (want a probability in [0, 1])")),
        };
    }
    if let Some(spec) = args.get("wan-slow")? {
        let parts: Vec<&str> = spec.split(':').collect();
        let [from, until, lat, bw] = parts[..] else {
            return Err(format!("--wan-slow wants FROM_MS:UNTIL_MS:LATx:BWx, got {spec:?}"));
        };
        let from = millis("wan-slow", "from", from)?;
        let until = millis("wan-slow", "until", until)?;
        if until <= from {
            return Err(format!("--wan-slow {spec}: the window is empty (want UNTIL_MS > FROM_MS)"));
        }
        let factor = |what: &str, v: &str| -> Result<f64, String> {
            match v.parse::<f64>() {
                Ok(f) if f.is_finite() && f >= 1.0 => Ok(f),
                _ => Err(format!("--wan-slow: bad {what} {v:?} (want a finite factor >= 1)")),
            }
        };
        schedule = schedule.degrade_all_wan(
            from,
            until,
            factor("latency factor", lat)?,
            factor("bandwidth divisor", bw)?,
        );
    }
    Ok(schedule)
}

/// What the simulating subcommands share: the problem, the platform and
/// the calibrated rates every run is priced with.
struct Ctx {
    m: u64,
    n: usize,
    sites: usize,
    seed: u64,
    /// Wall-clock deadlock safety net (failure *detection* is
    /// virtual-time; see docs/fault-injection.md §Detection).
    recv_timeout: Option<Duration>,
    rate: Option<f64>,
    combine: Option<f64>,
}

impl Ctx {
    fn parse(args: &Args, default_m: u64, default_n: usize) -> Result<Self, String> {
        let m: u64 = args.num("m", default_m)?;
        let n: usize = args.num("n", default_n)?;
        let sites: usize = args.num("sites", 4usize)?;
        if !(1..=4).contains(&sites) {
            return Err("--sites must be 1..=4".into());
        }
        let recv_timeout = match args.get("recv-timeout")? {
            None => None,
            Some(v) => Some(
                v.parse::<f64>()
                    .ok()
                    .filter(|secs| *secs > 0.0)
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .ok_or_else(|| format!("--recv-timeout {v:?}: want a positive time in seconds"))?,
            ),
        };
        Ok(Ctx {
            m,
            n,
            sites,
            seed: args.num("seed", 42u64)?,
            recv_timeout,
            rate: Some(calib::kernel_rate_flops(n)),
            combine: Some(calib::combine_rate_flops()),
        })
    }

    /// The paper's platform for this invocation, see
    /// [`tsqr_bench::platform_runtime`].
    fn runtime(&self, traced: bool, faults: Option<FailureSchedule>) -> Runtime {
        platform_runtime(self.sites, self.recv_timeout, traced, faults)
    }

    /// Refuses an `m × n` factorization the rank programs cannot run on
    /// `rt` — the conditions the library asserts, which would otherwise
    /// panic inside every rank thread. `tsqr` carries `(--domains, --q)`
    /// when the algorithm is TSQR.
    fn check_geometry(&self, rt: &Runtime, tsqr: Option<(usize, bool)>) -> Result<(), String> {
        let (m, n) = (self.m, self.n);
        if n == 0 {
            return Err("--n must be at least 1".into());
        }
        let topo = rt.topology();
        if let Some((domains, with_q)) = tsqr {
            let per_site = topo.ranks_in_cluster(0).len();
            if domains == 0 || !per_site.is_multiple_of(domains) {
                return Err(format!(
                    "--domains {domains}: must be at least 1 and divide the {per_site} processes of a site"
                ));
            }
            if with_q && domains != per_site {
                return Err(format!(
                    "--q needs single-process domains, i.e. --domains {per_site} on this topology"
                ));
            }
        }
        let share = m / topo.num_procs() as u64;
        if share < n as u64 {
            return Err(format!(
                "--m {m} over {} processes leaves a process {share} rows, fewer than --n {n}: \
                 not a tall-and-skinny problem at this scale",
                topo.num_procs()
            ));
        }
        Ok(())
    }

    fn run(&self, rt: &Runtime, algo: Algorithm, with_q: bool, mode: Mode) -> ExperimentResult {
        run_point(rt, self.m, self.n, algo, with_q, mode)
    }

    fn mode(&self, args: &Args) -> Result<Mode, String> {
        Ok(if args.has("real")? { Mode::Real { seed: self.seed } } else { Mode::Symbolic })
    }

    /// One TSQR domain per process on the grid-hierarchical tree, as the
    /// self-healing program requires: `(layout, tree, config)`.
    fn domain_per_process(&self, rt: &Runtime) -> (DomainLayout, ReductionTree, TsqrConfig) {
        let dpc = rt.topology().num_procs() / self.sites;
        let layout = DomainLayout::build(rt.topology(), self.m, self.n, dpc);
        let shape = TreeShape::GridHierarchical;
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig {
            shape,
            domains_per_cluster: dpc,
            compute_q: false,
            combine_rate_flops: self.combine,
            ..Default::default()
        };
        (layout, tree, cfg)
    }

    /// Checks a real run's R against a single-process QR (nothing to check
    /// for a symbolic run).
    fn verify(&self, res: &ExperimentResult) -> Result<String, String> {
        let Some(r) = &res.r else { return Ok(String::new()) };
        if self.m > 1 << 22 {
            return Ok("  (matrix too tall to verify in-process; skipped)\n".into());
        }
        let full = workload::full_matrix(self.seed, self.m as usize, self.n);
        let reference = QrFactors::compute(&full, 64).r().upper_triangular_padded();
        let d = r_distance(r, &reference);
        if d < 1e-9 {
            Ok(format!("  R verified against single-process QR (max diff {d:.2e})\n"))
        } else {
            Err(format!("R mismatch: {d:.2e}"))
        }
    }
}

fn describe(label: &str, res: &ExperimentResult) -> String {
    format!(
        "{label}: {:.3} s simulated, {:.1} Gflop/s, {} msgs ({} WAN), {:.1} MB moved\n",
        res.makespan.secs(),
        res.gflops,
        res.totals.total_msgs(),
        res.totals.inter_cluster_msgs(),
        res.totals.total_bytes() as f64 / 1e6,
    )
}

/// Runs the command line. `Err` is a refusal (message, usage, exit 2);
/// `Ok` carries the exit code of a command that ran, which only the two
/// gates (`figure`, `bench-check`) ever make nonzero.
fn run() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return Err("missing command".into());
    };
    let args = Args::parse(rest)?;
    let ctx = |default_m, default_n| Ctx::parse(&args, default_m, default_n);
    let out = match cmd.as_str() {
        // The gates print as they go, so they refuse stray flags themselves,
        // before the first point runs.
        "figure" => return cmd_figure(&args),
        "bench-check" => return cmd_bench_check(&args),
        "info" => cmd_info(),
        "report" => cmd_report(&args)?,
        "serve" => cmd_serve(&args)?,
        "tsqr" => cmd_tsqr(&args, &ctx(1 << 20, 64)?)?,
        "scalapack" => cmd_scalapack(&args, &ctx(1 << 20, 64)?)?,
        "compare" => cmd_compare(&ctx(1 << 20, 64)?)?,
        "trace" => cmd_trace(&args, &ctx(1 << 20, 64)?)?,
        "analyze" => cmd_analyze(&args, &ctx(1 << 20, 64)?)?,
        "faults" => cmd_faults(&args, &ctx(1 << 20, 64)?)?,
        "tune" => cmd_tune(&args, &ctx(1 << 20, 64)?)?,
        // Sizes default *small* (the golden file is blessed at exactly
        // these defaults): the analyzer checks structure, not speed.
        "check" => cmd_check(&args, &ctx(1 << 16, 32)?)?,
        other => return Err(format!("unknown command {other:?}")),
    };
    args.reject_unread(cmd)?;
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

/// Regenerates registered artifacts of the paper (`tsqr_bench::figures`):
/// `--id <id>` (repeatable) or `--all`; with neither, lists the registry.
/// Every artifact ends in its `[PASS]`/`[FAIL]` block, and a `[FAIL]`
/// anywhere is exit code 1. One `Sweep` serves the whole invocation, so a
/// point two figures share is run once.
fn cmd_figure(args: &Args) -> Result<ExitCode, String> {
    let registry = figures();
    let ids = args.all("id")?;
    let all = args.has("all")?;
    let trace_out = args.get("trace-out")?.map(std::path::Path::new);
    args.reject_unread("figure")?;
    if all && !ids.is_empty() {
        return Err("--all already names every --id".into());
    }
    let by_id = |id: &&str| {
        registry.iter().find(|f| f.id == *id).ok_or_else(|| {
            let known: Vec<&str> = registry.iter().map(|f| f.id).collect();
            format!("--id {id}: no such artifact (known: {})", known.join(", "))
        })
    };
    let selected: Vec<&Figure> = if all {
        registry.iter().collect()
    } else {
        ids.iter().map(by_id).collect::<Result<_, _>>()?
    };
    if trace_out.is_some() && !matches!(selected[..], [one] if !one.points.is_empty()) {
        return Err("--trace-out dumps one figure's headline trace: give one --id of fig4..fig8".into());
    }
    if selected.is_empty() {
        for f in registry {
            println!("{:<24} {}", f.id, f.title);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let mut sweep = Sweep::default();
    let mut passed = true;
    for figure in selected {
        passed &= run_figure(figure, &mut sweep, trace_out)?;
    }
    Ok(if passed { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The perf-regression gate behind `scripts/bench_check.sh`: measures every
/// registered gate point (`tsqr_bench::gate_points`: Figs. 4–8, WAN
/// degradation, autotuned trees, serving with and without faults) and diffs
/// the records against the committed `--baseline`; `--out` also writes them,
/// `--bless` rewrites the baseline instead. The simulation is deterministic,
/// so the comparison is strict: counts exactly, times and Gflop/s to 1e-9
/// relative (`GRID_TSQR_BENCH_RTOL` overrides), the model-fit residual to
/// 1e-6 absolute; drift is exit code 1. Every point also re-asserts the
/// critical-path, wait-state and folded-profile invariants, and is appended
/// to the experiment ledger named by `GRID_TSQR_LEDGER` with source
/// `bench_check`.
fn cmd_bench_check(args: &Args) -> Result<ExitCode, String> {
    let baseline = args.get("baseline")?.ok_or("bench-check needs --baseline <file>")?;
    let out = args.get("out")?;
    let bless = args.has("bless")?;
    args.reject_unread("bench-check")?;
    let rel_tol = std::env::var("GRID_TSQR_BENCH_RTOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1e-9);

    eprintln!("# measuring {} gate points (deterministic simulation)...", gate_points().len());
    let (measured, entries): (Vec<_>, Vec<_>) = measure_gate(|rec| {
        eprintln!(
            "#   {:<16} makespan {:>10.4} s  {:>7.1} Gflop/s  {:>6} WAN msgs  residual {:.2e}",
            rec.id, rec.makespan_s, rec.gflops, rec.wan_msgs, rec.model_residual
        )
    })
    .into_iter()
    .unzip();
    let doc = records_json(&measured);

    if let Some(path) = path_from_env() {
        let n = entries.len();
        for mut entry in entries {
            entry.source = "bench_check".into();
            append_entry(&path, entry)?;
        }
        eprintln!("# ledger: {n} entries -> {}", path.display());
    }
    if let Some(path) = out {
        write_file(path, &doc)?;
        eprintln!("# wrote {path}");
    }
    if bless {
        write_file(baseline, &doc)?;
        eprintln!("# blessed {baseline} ({} records)", measured.len());
        return Ok(ExitCode::SUCCESS);
    }

    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("cannot read {baseline:?}: {e} (create it with --bless)"))?;
    let base = parse_records(&text).map_err(|e| format!("parsing {baseline}: {e}"))?;
    let problems = compare_records(&base, &measured, rel_tol);
    if problems.is_empty() {
        println!(
            "bench gate OK: {} records match {baseline} (rel tol {rel_tol:.0e})",
            measured.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("bench gate FAILED ({} problems):", problems.len());
    for p in &problems {
        eprintln!("  - {p}");
    }
    eprintln!("if the change is intended, refresh the baseline:\n  scripts/bench_check.sh --bless");
    Ok(ExitCode::FAILURE)
}

fn cmd_info() -> String {
    let catalog = ResourceCatalog::grid5000();
    let mut out = String::from("Grid'5000 catalog (paper §V-A):\n");
    for c in &catalog.clusters {
        out.push_str(&format!(
            "  {:<10} {:>4} nodes x {} procs, {:>5.1} Gflop/s peak/proc\n",
            c.name, c.nodes, c.procs_per_node, c.peak_gflops_per_proc
        ));
    }
    out.push_str(&format!(
        "experiment platform: 32 nodes x 2 procs per site; DGEMM {} Gflop/s/proc\n",
        grid_tsqr::netsim::grid5000::DGEMM_GFLOPS
    ));
    out
}

/// Trend/anomaly dashboard over the cross-run experiment ledger
/// (docs/observability.md §9). Pure post-processing: no simulation runs,
/// so it stays fast enough for CI.
fn cmd_report(args: &Args) -> Result<String, String> {
    let ledger_path = args.get("ledger")?.unwrap_or("ledger/runs.jsonl");
    let threshold: f64 = args.num("threshold", 0.05f64)?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err("--threshold must be a non-negative fraction (e.g. 0.05)".into());
    }
    let top: usize = args.num("top", 10usize)?;
    let opts = ReportOptions { threshold, top_phases: top };
    let entries = read_ledger(std::path::Path::new(ledger_path))?;
    if entries.is_empty() {
        return Err(format!(
            "{ledger_path}: no entries — seed the ledger with \
             `GRID_TSQR_LEDGER={ledger_path} scripts/bench_check.sh`"
        ));
    }
    let rendered = render_report(&entries, &opts);
    let mut out = String::new();
    if let Some(path) = args.get("out")? {
        write_file(path, &rendered)?;
        out.push_str(&format!(
            "report over {} entries written to {path}\n",
            entries.len()
        ));
    } else if !args.has("check")? && args.get("golden")?.is_none() && !args.has("bless")? {
        // Plain `grid-tsqr report` prints the dashboard itself; the
        // gating modes print one status line each instead.
        out.push_str(&rendered);
    }
    if args.has("bless")? {
        let path = args.get("golden")?.unwrap_or("REPORT_baseline.md");
        write_file(path, &rendered)?;
        out.push_str(&format!(
            "blessed report over {} ledger entries into {path}\n",
            entries.len()
        ));
    } else if let Some(path) = args.get("golden")? {
        let want = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let k = golden_entry_count(&want).ok_or_else(|| {
            format!("{path}: not a blessed report (missing `- entries: <K>` header)")
        })?;
        if k > entries.len() {
            return Err(format!(
                "{path} pins the first {k} entries but {ledger_path} holds only {} \
                 — the ledger is append-only and must not shrink",
                entries.len()
            ));
        }
        let headline = format!("report differs from {path} over the first {k} ledger entries");
        expect_golden(path, &render_report(&entries[..k], &opts), &headline, "report")?;
        out.push_str(&format!(
            "report matches {path} (rendered over the first {k} of {} entries)\n",
            entries.len()
        ));
    }
    if args.has("check")? {
        let anomalies = detect_anomalies(&entries, &opts);
        if !anomalies.is_empty() {
            let mut msg = format!(
                "report --check: {} anomalous per-phase model residual(s) \
                 (> {:.2}% over the scenario reference):\n",
                anomalies.len(),
                threshold * 100.0
            );
            for a in &anomalies {
                msg.push_str(&format!("  - {}\n", a.describe()));
            }
            return Err(msg);
        }
        out.push_str(&format!(
            "report check OK: {} entries, every per-phase residual within {:.2}% \
             of its scenario reference\n",
            entries.len(),
            threshold * 100.0
        ));
    }
    Ok(out)
}

/// Reads every `serve` flag but `--sweep`/`--trace-out` into the run's
/// base configuration and the policies to score it under.
fn serve_config(
    args: &Args,
    catalog: &ResourceCatalog,
) -> Result<(ServeConfig, Vec<ServePolicy>), String> {
    let load: f64 = args.num("load", 0.8f64)?;
    if !load.is_finite() || load <= 0.0 {
        return Err("--load must be a positive finite fraction of grid capacity".into());
    }
    let requests: usize = args.num("requests", 200usize)?;
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }
    let single_shape: Option<usize> = match args.get("shape")? {
        None => None,
        Some(v) => {
            let i: usize = v.parse().map_err(|_| format!("--shape: cannot parse {v:?}"))?;
            if i >= menu().len() {
                return Err(format!("--shape {i}: the menu has {} shapes", menu().len()));
            }
            Some(i)
        }
    };
    let policy_arg = args.get("policy")?.unwrap_or("fifo");
    let policies: Vec<ServePolicy> = if policy_arg == "all" {
        ServePolicy::all().to_vec()
    } else {
        vec![ServePolicy::parse(policy_arg)?]
    };
    let max_attempts: usize = args.num("retry", 3usize)?;
    if max_attempts == 0 {
        return Err("--retry must allow at least one attempt".into());
    }
    let backoff_ms: f64 = args.num("backoff", 50.0f64)?;
    if !backoff_ms.is_finite() || backoff_ms < 0.0 {
        return Err("--backoff must be a non-negative duration in ms".into());
    }
    let brownout = match args.get("brownout")? {
        None => BrownoutConfig::default(),
        Some(spec) => {
            let (enter, exit) = spec
                .split_once(':')
                .ok_or_else(|| format!("--brownout wants ENTER:EXIT, got {spec:?}"))?;
            let enter: usize =
                enter.parse().map_err(|_| format!("--brownout: bad enter {enter:?}"))?;
            let exit: usize =
                exit.parse().map_err(|_| format!("--brownout: bad exit {exit:?}"))?;
            if exit > enter {
                return Err("--brownout: exit watermark must not exceed enter".into());
            }
            BrownoutConfig { enter_watermark: enter, exit_watermark: exit, ..Default::default() }
        }
    };
    let base = ServeConfig {
        policy: policies[0],
        load,
        requests,
        seed: args.num("seed", 42u64)?,
        batch: args.has("batch")?,
        queue_capacity: args.num("queue", 64usize)?,
        single_shape,
        faults: fault_schedule(args, FaultAxis::Sites(catalog.clusters.len()))?,
        retry: RetryPolicy {
            max_attempts,
            backoff_base_s: backoff_ms * 1e-3,
            checkpoint_drain: !args.has("no-checkpoint")?,
            ..Default::default()
        },
        brownout,
        ..Default::default()
    };
    offerable(catalog, &base)?;
    Ok((base, policies))
}

/// Refuses a load so large that no time is left between arrivals
/// (`load × grid nodes` overflows): the generator asserts on it.
fn offerable(catalog: &ResourceCatalog, cfg: &ServeConfig) -> Result<(), String> {
    if load_is_offerable(catalog, cfg) {
        Ok(())
    } else {
        Err(format!("--load {:e}: the mean gap between arrivals must be a positive time", cfg.load))
    }
}

/// The typed fault audit trail of a serve run, in event order — the
/// worked example in docs/serving.md §Failures.
fn fault_audit(outcome: &ServeOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.faults {
        let kind = match f.kind {
            FaultKind::SiteCrashed { site } => format!("site {site} crashed"),
            FaultKind::DrainDropped { link } => {
                format!("drain dropped on {}-{}", link.0, link.1)
            }
        };
        let action = match f.action {
            RecoveryAction::Retried { attempts, checkpointed } => format!(
                "retry #{attempts}{}",
                if checkpointed { " (checkpointed drain)" } else { " (full restart)" }
            ),
            RecoveryAction::FailedPermanent { attempts } => {
                format!("failed permanently after {attempts} attempt(s)")
            }
        };
        out.push_str(&format!(
            "fault t={:.3}s req {}: {kind} -> {action}\n",
            f.at.secs(),
            f.request
        ));
    }
    for &(s, e) in &outcome.brownout_windows {
        out.push_str(&format!("brownout window {s:.3}s -> {e:.3}s\n"));
    }
    out
}

/// One JSON line per request, in id order — deterministic.
fn dispositions_jsonl(outcome: &ServeOutcome) -> String {
    let mut body = String::new();
    for r in &outcome.records {
        let disp = match &r.disposition {
            Disposition::Completed { start, finish, batch_size, attempts } => format!(
                "\"completed\",\"start_s\":{:.9},\"finish_s\":{:.9},\"batch\":{},\
                 \"attempts\":{}",
                start.secs(),
                finish.secs(),
                batch_size,
                attempts
            ),
            Disposition::RejectedQueueFull => "\"rejected-queue-full\"".to_string(),
            Disposition::RejectedInfeasible => "\"rejected-infeasible\"".to_string(),
            Disposition::Shed => "\"shed\"".to_string(),
            Disposition::FailedPermanent { attempts } => {
                format!("\"failed-permanent\",\"attempts\":{attempts}")
            }
        };
        body.push_str(&format!(
            "{{\"id\":{},\"tenant\":{},\"shape\":{},\"rows\":{},\"cols\":{},\
             \"sites\":{},\"arrival_s\":{:.9},\"deadline_s\":{:.9},\
             \"disposition\":{disp}}}\n",
            r.request.id,
            r.request.tenant,
            r.request.shape,
            r.request.rows,
            r.request.cols,
            r.request.sites,
            r.request.arrival.secs(),
            r.request.deadline.secs(),
        ));
    }
    body
}

/// Multi-tenant serving layer (docs/serving.md): pure virtual-time
/// simulation over the Grid'5000 catalog — no runtime needed.
fn cmd_serve(args: &Args) -> Result<String, String> {
    let catalog = ResourceCatalog::grid5000();
    let (base, policies) = serve_config(args, &catalog)?;
    let faulty = !base.faults.is_empty();
    // Every flag has been looked at by here; refuse strays before the
    // simulation rather than after it.
    let (sweep, trace_out) = (args.get("sweep")?, args.get("trace-out")?);
    args.reject_unread("serve")?;

    let mut out = String::new();
    if let Some(sweep) = sweep {
        // Latency/throughput knee: one row per load, first policy only.
        let mut rows = Vec::new();
        for tok in sweep.split(',') {
            let l: f64 = tok.parse().map_err(|_| format!("--sweep: cannot parse {tok:?}"))?;
            if !l.is_finite() || l <= 0.0 {
                return Err("--sweep loads must be positive".into());
            }
            let cfg = ServeConfig { load: l, ..base.clone() };
            offerable(&catalog, &cfg)?;
            let outcome = serve(&catalog, &cfg);
            rows.push((l, PolicyReport::from_outcome(&outcome)));
        }
        out.push_str(&format!(
            "load sweep, policy {}{}:\n",
            base.policy.label(),
            if base.batch { " +batch" } else { "" }
        ));
        out.push_str(&grid_tsqr::serve::load_sweep_table(&rows));
        return Ok(out);
    }

    let ledger = path_from_env();
    let mut summary = Vec::new();
    for (i, &policy) in policies.iter().enumerate() {
        let cfg = ServeConfig { policy, ..base.clone() };
        let outcome = serve(&catalog, &cfg);
        let report = PolicyReport::from_outcome(&outcome);
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&report.render());
        if faulty {
            out.push_str(&fault_audit(&outcome));
        }
        if policies.len() == 1 {
            out.push_str("\nlink-class busy timeline:\n");
            out.push_str(&grid_tsqr::serve::timeline(&outcome, 48).render());
        }
        if let Some(path) = trace_out {
            let suffixed = if policies.len() == 1 {
                path.to_string()
            } else {
                format!("{path}.{}", policy.label())
            };
            write_file(&suffixed, dispositions_jsonl(&outcome))?;
            out.push_str(&format!(
                "dispositions for {} request(s) written to {suffixed}\n",
                outcome.records.len()
            ));
        }
        if let Some(path) = &ledger {
            let source = if faulty { "serve-faults" } else { "serve" };
            let scenario = format!(
                "cli/{source}/{}-load{:.2}{}",
                policy.label(),
                cfg.load,
                if cfg.batch { "-batch" } else { "" }
            );
            let tree = format!("serve/{}", policy.label());
            let (_, entry) =
                serve_record(&scenario, source, &scenario, &tree, &catalog, &outcome, &report);
            let seq = append_entry(path, entry)?;
            out.push_str(&format!("ledger: entry {seq} appended to {}\n", path.display()));
        }
        summary.push(report.summary_line());
    }
    if policies.len() > 1 {
        out.push_str("\nsummary (same seeded trace, one line per policy):\n");
        for line in &summary {
            out.push_str(&format!("  {line}\n"));
        }
    }
    Ok(out)
}

fn cmd_tsqr(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let domains: usize = args.num("domains", 64usize)?;
    let shape = parse_shape(args.get("tree")?.unwrap_or("grid"))?;
    let with_q = args.has("q")?;
    let rt = ctx.runtime(false, None);
    ctx.check_geometry(&rt, Some((domains, with_q)))?;
    let algorithm = Algorithm::Tsqr { shape, domains_per_cluster: domains };
    let res = ctx.run(&rt, algorithm, with_q, ctx.mode(args)?);
    Ok(describe("TSQR", &res) + &ctx.verify(&res)?)
}

fn cmd_scalapack(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let algorithm = if args.has("blocked")? {
        Algorithm::ScalapackQrf { nb: 64, nx: 128 }
    } else {
        Algorithm::ScalapackQr2
    };
    let rt = ctx.runtime(false, None);
    ctx.check_geometry(&rt, None)?;
    let res = ctx.run(&rt, algorithm, false, ctx.mode(args)?);
    Ok(describe("ScaLAPACK", &res) + &ctx.verify(&res)?)
}

fn cmd_compare(ctx: &Ctx) -> Result<String, String> {
    let rt = ctx.runtime(false, None);
    ctx.check_geometry(&rt, Some((64, false)))?;
    let tsqr = Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 64 };
    let t = ctx.run(&rt, tsqr, false, Mode::Symbolic);
    let s = ctx.run(&rt, Algorithm::ScalapackQr2, false, Mode::Symbolic);
    let mut out = describe("TSQR     ", &t);
    out.push_str(&describe("ScaLAPACK", &s));
    out.push_str(&format!("speedup: {:.2}x\n", s.makespan.secs() / t.makespan.secs()));
    Ok(out)
}

/// The traced point `trace` and `analyze` both look at: the run, the
/// runtime it ran on, and its critical path — which must tile the
/// makespan.
fn traced_run(
    args: &Args,
    ctx: &Ctx,
) -> Result<(Runtime, ExperimentResult, CriticalPath), String> {
    let domains: usize = args.num("domains", 64usize)?;
    let shape = parse_shape(args.get("tree")?.unwrap_or("grid"))?;
    let algorithm = match args.get("algo")?.unwrap_or("tsqr") {
        "tsqr" => Algorithm::Tsqr { shape, domains_per_cluster: domains },
        "scalapack" => Algorithm::ScalapackQr2,
        "scalapack-blocked" => Algorithm::ScalapackQrf { nb: 64, nx: 128 },
        other => return Err(format!("unknown --algo {other:?}")),
    };
    let rt = ctx.runtime(true, None);
    let is_tsqr = matches!(algorithm, Algorithm::Tsqr { .. });
    ctx.check_geometry(&rt, is_tsqr.then_some((domains, false)))?;
    let res = ctx.run(&rt, algorithm, false, ctx.mode(args)?);
    let cp = res.trace.as_ref().expect("tracing was enabled").critical_path();
    let drift = (cp.total().secs() - res.makespan.secs()).abs();
    if drift > 1e-9 * res.makespan.secs().max(1.0) {
        return Err(format!(
            "critical path ({:.9} s) does not tile the makespan ({:.9} s)",
            cp.total().secs(),
            res.makespan.secs()
        ));
    }
    Ok((rt, res, cp))
}

fn cmd_analyze(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let bins: usize = args.num("bins", 64usize)?;
    if bins == 0 {
        return Err("--bins must be at least 1".into());
    }
    let (rt, res, _) = traced_run(args, ctx)?;
    let trace = res.trace.as_ref().expect("tracing was enabled");
    let diag = trace.diagnose(rt.topology().num_procs(), bins);
    let wait_drift = diag.reconcile(&res.metrics);
    let wait_scale = diag.total().total_wait_s().max(1.0);
    if wait_drift > 1e-9 * wait_scale {
        return Err(format!(
            "wait states do not reconcile with the metrics registry \
             (max drift {wait_drift:.3e} s)"
        ));
    }
    let mut out = describe("analyzed run", &res);
    out.push_str(&ctx.verify(&res)?);
    out.push_str(&format!(
        "wait states reconcile with the metrics registry \
         (max drift {wait_drift:.2e} s, tol 1e-9 relative)\n\n"
    ));
    out.push_str(&diag.render());
    out.push_str("\n== model fit (Eq. 1) ==\n");
    match modelfit::fit(&modelfit::samples_from_metrics(&res.metrics)) {
        Some(f) => out.push_str(&f.render()),
        None => out.push_str("(no active samples to fit)\n"),
    }
    Ok(out)
}

fn cmd_trace(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let (rt, res, cp) = traced_run(args, ctx)?;
    let trace = res.trace.as_ref().expect("tracing was enabled");
    let mut out = describe("traced run", &res);
    out.push_str(&ctx.verify(&res)?);
    out.push_str(&format!(
        "{} events traced ({} WAN sends); critical path tiles the makespan exactly\n",
        trace.len(),
        trace.wan_sends().len()
    ));
    out.push_str("\ncritical path:\n");
    let rendered = cp.render();
    let lines: Vec<&str> = rendered.lines().collect();
    if lines.len() > 40 {
        for l in &lines[..16] {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&format!("  ... {} more segments ...\n", lines.len() - 32));
        for l in &lines[lines.len() - 16..] {
            out.push_str(l);
            out.push('\n');
        }
    } else {
        out.push_str(&rendered);
    }
    out.push('\n');
    out.push_str(&res.aggregate_metrics().render());
    if args.has("timeline")? {
        out.push_str("\ntimeline:\n");
        out.push_str(&trace.render());
    }
    if let Some(path) = args.get("out")? {
        write_file(path, trace.chrome_json())?;
        out.push_str(&format!(
            "\nChrome trace written to {path} (load in ui.perfetto.dev or chrome://tracing)\n"
        ));
    }
    if let Some(path) = args.get("folded-out")? {
        let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
        let tile_err = profile.max_tiling_error_rel();
        if tile_err > 1e-9 {
            return Err(format!(
                "folded profile does not tile the per-rank timelines \
                 (max rel err {tile_err:.3e}, tol 1e-9)"
            ));
        }
        write_file(path, profile.render_folded())?;
        let agg_path = format!("{path}.agg");
        write_file(&agg_path, profile.render_aggregate())?;
        out.push_str(&format!(
            "\nfolded stacks written to {path} (per rank) and {agg_path} (aggregate); \
             leaf self-times tile every rank's makespan (max rel err {tile_err:.2e})\n",
        ));
        out.push('\n');
        out.push_str(&profile.render_hot_table(10));
    }
    Ok(out)
}

fn cmd_faults(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let (m, n, sites, seed, rate) = (ctx.m, ctx.n, ctx.sites, ctx.seed, ctx.rate);
    let rt = ctx.runtime(false, None);
    let procs = rt.topology().num_procs();
    ctx.check_geometry(&rt, Some((procs / sites, false)))?;
    let schedule = fault_schedule(args, FaultAxis::Ranks(procs))?;
    let (layout, tree, cfg) = ctx.domain_per_process(&rt);

    // Failure-free reference: the plain program, empty schedule.
    let clean = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
    let reference = clean.ranks[0]
        .result
        .clone()
        .map_err(|e| format!("failure-free run failed: {e}"))?
        .r
        .expect("root holds R");
    let mut out = format!(
        "failure-free: {:.3} s simulated ({} domains, tree grid)\n",
        clean.makespan.secs(),
        layout.num_domains(),
    );

    // Self-healing run under the schedule. The ledger entry wants the
    // critical-path split, which needs the event trace.
    let ledger = path_from_env();
    let frt = ctx.runtime(ledger.is_some(), Some(schedule.clone()));
    let mut report = frt.run(|p, _| ft_tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
    let makespan = report.makespan;
    // `outcome()` consumes the report, so lift the observability
    // payloads the ledger entry needs out of it first.
    let run_metrics = std::mem::take(&mut report.metrics);
    let run_trace = report.trace.take();
    let outcome = report.outcome();
    let mut holder: Option<(usize, grid_tsqr::core::ft_tsqr::FtTsqrOutput)> = None;
    let (mut rebuilt, mut salvaged) = (0usize, 0usize);
    for (rank, o) in &outcome.survivors {
        rebuilt += o.rebuilt_subtrees.len();
        salvaged += o.salvaged_children.len();
        if o.r.is_some() {
            holder = Some((*rank, o.clone()));
        }
    }
    let (holder_rank, holder_out) =
        holder.ok_or("no survivor holds an R factor — recovery failed")?;
    out.push_str(&format!(
        "self-healing: {:.3} s simulated; {} crashed rank(s) {:?}; \
         {} subtree(s) rebuilt, {} salvaged; R held by rank {}\n",
        makespan.secs(),
        outcome.failed_ranks().len(),
        outcome.failed_ranks(),
        rebuilt,
        salvaged,
        holder_rank,
    ));
    let r = holder_out.r.expect("holder has R");
    let d = r_distance(&r, &reference);
    if !r.approx_eq(&reference, 0.0) {
        return Err(format!(
            "recovered R differs from the failure-free R (max diff {d:.2e})"
        ));
    }
    out.push_str("  recovered R is bitwise identical to the failure-free R\n");

    // Optionally show how the plain program fares (typed, no panic).
    if args.has("baseline")? {
        let brt = ctx.runtime(false, Some(schedule));
        let base = brt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
        let bo = base.outcome();
        if bo.is_clean() {
            out.push_str("baseline tsqr: unaffected by this schedule\n");
        } else {
            out.push_str(&format!(
                "baseline tsqr: {} rank(s) failed {:?}; first error: {}\n",
                bo.failed_ranks().len(),
                bo.failed_ranks(),
                bo.failures
                    .first()
                    .map(|(r, e)| format!("rank {r}: {e}"))
                    .unwrap_or_default(),
            ));
        }
    }

    // Record the self-healing run in the experiment ledger.
    if let Some(path) = &ledger {
        let gflops = grid_tsqr::core::model::useful_flops(m, n as u64, false)
            / makespan.secs().max(1e-12)
            / 1e9;
        let entry = ledger_entry(
            "faults",
            &format!("cli/faults/s{sites}-m{m}-n{n}"),
            sites,
            procs,
            m,
            n,
            &format!("ft-GridHierarchical/dpc{}", cfg.domains_per_cluster),
            makespan.secs(),
            gflops,
            &run_metrics,
            run_trace.as_ref().map(|t| t.critical_path().summary()),
        );
        let seq = append_entry(path, entry)?;
        out.push_str(&format!(
            "ledger: entry {seq} appended to {}\n",
            path.display()
        ));
    }
    Ok(out)
}

/// Model-driven reduction-tree search (docs/tuning.md): predict every
/// candidate's makespan from the calibrated cost model, pick the argmin,
/// replay the winner through netsim, and show how it stacks up against
/// the fixed shapes.
fn cmd_tune(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let (m, n, sites, rate, combine) = (ctx.m, ctx.n, ctx.sites, ctx.rate, ctx.combine);
    let domains: usize = args.num("domains", 64usize)?;
    let rt = ctx.runtime(false, None);
    let topo = rt.topology();
    let per_cluster = topo.num_procs() / topo.num_clusters().max(1);
    if domains != per_cluster {
        return Err(format!(
            "--domains {domains}: the analytic predictor needs single-process \
             domains, i.e. --domains {per_cluster} on this topology \
             ({per_cluster} procs/cluster). Grouped-domain runs are still \
             available via `grid-tsqr tsqr --domains {domains}`."
        ));
    }
    ctx.check_geometry(&rt, Some((domains, false)))?;
    let outcome = tune::autotune(&rt, m, n, domains, rate, combine);
    let mut out = format!(
        "model-driven tree search: {} single-process domains over {sites} site(s), \
         M={m}, N={n}\n\n  {:<12} {:>15} {:>6} {:>9}\n",
        outcome.domains, "tree", "predicted (s)", "depth", "WAN msgs"
    );
    for (i, c) in outcome.table.iter().enumerate() {
        let mark = if i == outcome.winner { "   <-- winner" } else { "" };
        out.push_str(&format!(
            "  {:<12} {:>15.6} {:>6} {:>9}{mark}\n",
            c.name,
            c.predicted.secs(),
            c.depth,
            c.wan_msgs
        ));
    }
    let best = outcome.best();
    let rel = (best.predicted.secs() - outcome.replayed.secs()).abs()
        / outcome.replayed.secs().abs().max(1e-12);
    out.push_str(&format!(
        "\nwinner: {} — predicted {:.6} s, netsim replay {:.6} s (agree to {rel:.1e} rel)\n",
        best.name,
        best.predicted.secs(),
        outcome.replayed.secs()
    ));
    let layout = DomainLayout::build(rt.topology(), m, n, domains);
    for (name, shape) in [
        ("flat", TreeShape::Flat),
        ("binary", TreeShape::Binary),
        ("grid", TreeShape::GridHierarchical),
    ] {
        let fixed = tune::replay_makespan(&rt, &layout, &shape, rate, combine);
        out.push_str(&format!(
            "vs fixed {name:<7} {:>10.6} s  (tuned is {:.3}x)\n",
            fixed.secs(),
            fixed.secs() / outcome.replayed.secs()
        ));
    }

    // Record the winner in the experiment ledger: re-run it traced
    // so the entry carries the critical-path split and per-phase
    // Eq. (1) residuals like every other ledger source.
    if let Some(path) = path_from_env() {
        let trt = ctx.runtime(true, None);
        let winner = Algorithm::Tsqr { shape: best.shape.clone(), domains_per_cluster: domains };
        let res = ctx.run(&trt, winner, false, Mode::Symbolic);
        let entry = ledger_entry(
            "tune",
            &format!("cli/tune/s{sites}-m{m}-n{n}"),
            sites,
            trt.topology().num_procs(),
            m,
            n,
            &format!("{:?}/dpc{domains}", best.shape),
            res.makespan.secs(),
            res.gflops,
            &res.metrics,
            res.trace.as_ref().map(|t| t.critical_path().summary()),
        );
        let seq = append_entry(&path, entry)?;
        out.push_str(&format!(
            "ledger: entry {seq} (winner {}) appended to {}\n",
            best.name,
            path.display()
        ));
    }
    Ok(out)
}

/// The fault matrix of `scripts/verify.sh`, as `check` scenarios: every
/// schedule the fault-injection smoke passes to `faults` on the 4-site
/// grid (a representative rank of every tree level crashed, a double
/// crash, transient loss under a WAN brown-out), after the empty one.
fn fault_matrix() -> Vec<(String, FailureSchedule)> {
    let at = VirtualTime::from_millis;
    let mut matrix = vec![("faults-none".to_string(), FailureSchedule::new(1))];
    for (r, ms) in [(255usize, 0.5), (2, 2.0), (64, 2.0), (128, 6.0), (0, 6.0)] {
        matrix.push((format!("faults-crash-{r}"), FailureSchedule::new(1).crash_rank(r, at(ms))));
    }
    let double = FailureSchedule::new(1).crash_rank(0, at(2.0)).crash_rank(1, at(4.0));
    matrix.push(("faults-crash-0+1".to_string(), double));
    let lossy = FailureSchedule::new(7)
        .drop_probability(64, 0, 0.4)
        .degrade_all_wan(at(0.0), at(50.0), 4.0, 4.0);
    matrix.push(("faults-drop-wan".to_string(), lossy));
    matrix
}

/// DPOR-lite determinism proof on a dedicated 8-rank grid (P ≤ 8 is the
/// exhaustive regime of `schedules_for`): run the real-numerics TSQR
/// under every permuted delivery order and require bit-identical R,
/// makespan, metrics — plus race-free traces, so unexplored interleavings
/// cannot differ either. Returns the summary line and, when the proof
/// fails, the full rendering.
fn explore_p8(seed: u64) -> (String, Option<String>) {
    let small_topo = || {
        let cluster = |name: &str| ClusterSpec {
            name: name.into(),
            nodes: 4,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        };
        GridTopology::block_placement(vec![cluster("expl-a"), cluster("expl-b")], 4, 1)
    };
    let small_model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.5, 800.0), 1e9, 2);
    let slayout = DomainLayout::build(&small_topo(), 4096, 8, 4);
    let stree = ReductionTree::build(
        &TreeShape::GridHierarchical,
        slayout.num_domains(),
        &slayout.clusters(),
    );
    let scfg = TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: 4,
        compute_q: false,
        combine_rate_flops: None,
        ..Default::default()
    };
    let rep = explore(
        || Runtime::new(small_topo(), small_model.clone()),
        |p, _| tsqr_rank_program(p, &slayout, &stree, &scfg, seed, None),
        |o| {
            o.r.as_ref().map_or(0, |r| {
                let mut bytes = Vec::with_capacity(r.as_slice().len() * 8);
                for x in r.as_slice() {
                    bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                fnv1a(&bytes)
            })
        },
        &schedules_for(8),
    );
    let yn = |b: bool| if b { "yes" } else { "no" };
    let line = format!(
        "{:<22} schedules={} identical={} hb_clean={} proved={}",
        "explore-tsqr-p8",
        rep.schedules(),
        yn(rep.all_identical()),
        yn(rep.hb_ok()),
        yn(rep.proves_determinism()),
    );
    let bad = (!rep.proves_determinism()).then(|| format!("explore-tsqr-p8:\n{}", rep.render()));
    (line, bad)
}

/// Serving-layer scenarios (docs/serving.md): the summary lines of the
/// four policies plus a batched same-shape burst on one seeded trace, then
/// the fault-injected gate points (docs/serving.md §Failures) — a site
/// crash recovered by checkpointed retries, the same crash forcing 4-site
/// jobs onto survivors via elastic re-planning, and a degraded-WAN window
/// driving brownout shed. Structural invariants of the deterministic
/// serving engine, pinned like every other line.
fn serve_lines() -> Vec<String> {
    let catalog = ResourceCatalog::grid5000();
    let line = |name: &str, cfg: &ServeConfig| {
        let r = PolicyReport::from_outcome(&serve(&catalog, cfg));
        format!("{name:<22} {}", r.summary_line())
    };
    let base = ServeConfig { requests: 30, load: 1.5, seed: 7, ..Default::default() };
    let mut lines: Vec<String> = ServePolicy::all()
        .into_iter()
        .map(|policy| {
            line(&format!("serve-{}", policy.label()), &ServeConfig { policy, ..base.clone() })
        })
        .collect();
    let burst = ServeConfig { batch: true, single_shape: Some(3), load: 3.0, ..base };
    lines.push(line("serve-fifo-batch", &burst));
    let gate = serve_fault_points();
    for (name, point) in [
        ("serve-fault-crash", "crash-ckpt"),
        ("serve-fault-replan", "crash-replan"),
        ("serve-fault-brownout", "wan-brownout"),
    ] {
        let (_, cfg) = gate.iter().find(|(p, _)| *p == point).expect("registered gate point");
        lines.push(line(name, cfg));
    }
    lines
}

/// commcheck: every scenario runs with tracing on, every trace goes
/// through the happens-before analyzer, and the structural summary lines
/// are gated against a blessed golden file — the race/deadlock analogue
/// of `scripts/bench_check.sh`.
fn cmd_check(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let run_matrix = !args.has("no-matrix")?;
    let run_explore = !args.has("no-explore")?;
    let golden = args.get("golden")?;
    let bless = args.has("bless")?;
    if (golden.is_some() || bless) && !(run_matrix && run_explore) {
        return Err(
            "--golden/--bless gate the full scenario set; drop --no-matrix/--no-explore".into(),
        );
    }
    ctx.check_geometry(&ctx.runtime(false, None), Some((64, false)))?;

    // (name, summary line) in a fixed order — this is the golden
    // file body. `bad` collects full renderings of any scenario
    // whose HbReport is not clean.
    let mut lines: Vec<String> = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    let mut record = |name: &str, hb: &HbReport| {
        lines.push(format!("{name:<22} {}", hb.summary_line()));
        if !hb.ok() {
            bad.push(format!("{name}:\n{}", hb.render()));
        }
    };
    let no_trace = || "tracing was enabled but no trace came back".to_string();

    // --- Figure-style scenarios (§V, Figs. 4–8): each tree shape
    // and both ScaLAPACK baselines, traced, symbolic numerics
    // (the schedule — and therefore the HB DAG — is identical to
    // the real-numerics run by construction).
    let tsqr = |shape, domains_per_cluster| Algorithm::Tsqr { shape, domains_per_cluster };
    for (name, algorithm) in [
        ("tsqr-grid", tsqr(TreeShape::GridHierarchical, 64)),
        ("tsqr-binary", tsqr(TreeShape::Binary, 64)),
        ("tsqr-flat", tsqr(TreeShape::Flat, 64)),
        ("tsqr-kary3", tsqr(TreeShape::Kary(3), 64)),
        ("tsqr-binomial", tsqr(TreeShape::Binomial, 64)),
        ("tsqr-greedy", tsqr(TreeShape::Greedy, 64)),
        ("tsqr-grid-d16", tsqr(TreeShape::GridHierarchical, 16)),
        ("scalapack-qr2", Algorithm::ScalapackQr2),
        ("scalapack-blocked", Algorithm::ScalapackQrf { nb: 64, nx: 128 }),
    ] {
        let res = ctx.run(&ctx.runtime(true, None), algorithm, false, Mode::Symbolic);
        record(name, &res.trace.as_ref().ok_or_else(no_trace)?.hb_analysis());
    }

    // --- The self-healing TSQR under every schedule of the fault
    // matrix, each trace analyzed. Crash schedules legitimately orphan
    // sends (counted in the summary line); races/cycles/violations must
    // still be zero.
    if run_matrix {
        let (layout, tree, cfg) = ctx.domain_per_process(&ctx.runtime(false, None));
        for (name, schedule) in fault_matrix() {
            let frt = ctx.runtime(true, Some(schedule));
            let report = frt
                .run(|p, _| ft_tsqr_rank_program(p, &layout, &tree, &cfg, ctx.seed, ctx.rate));
            let hb = report.trace.as_ref().ok_or_else(no_trace)?.hb_analysis();
            let outcome = report.outcome();
            if !outcome.survivors.iter().any(|(_, o)| o.r.is_some()) {
                return Err("no survivor holds an R factor — recovery failed".into());
            }
            record(&name, &hb);
        }
    }

    if run_explore {
        let (line, problem) = explore_p8(ctx.seed);
        lines.push(line);
        bad.extend(problem);
    }
    lines.extend(serve_lines());

    if !bad.is_empty() {
        return Err(format!("commcheck found problems:\n{}", bad.join("\n")));
    }

    let mut out = String::from("== commcheck: happens-before analysis ==\n");
    let body: String = lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
    out.push_str(&body);
    if bless {
        let path = golden.unwrap_or("COMMCHECK_baseline.txt");
        write_file(path, &body)?;
        out.push_str(&format!(
            "blessed {} scenario line(s) into {path}\n",
            lines.len()
        ));
    } else if let Some(path) = golden {
        expect_golden(path, &body, &format!("commcheck summary differs from {path}"), "check")?;
        out.push_str(&format!(
            "all {} scenario line(s) match {path}\n",
            lines.len()
        ));
    }
    out.push_str(
        "commcheck: 0 races, 0 deadlock cycles, 0 clock violations across all scenarios\n",
    );
    Ok(out)
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}\n");
        usage()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(flags: &str, axis: FaultAxis) -> FailureSchedule {
        let raw: Vec<String> = flags.split_whitespace().map(String::from).collect();
        fault_schedule(&Args::parse(&raw).unwrap(), axis).unwrap()
    }

    /// The flag sets `scripts/verify.sh` passes to `faults` and `serve`
    /// build the schedules `check` and the bench gate pin for them.
    #[test]
    fn verify_sh_fault_flags_build_the_pinned_schedules() {
        let flags = [
            "",
            "--crash 255@0.5",
            "--crash 2@2",
            "--crash 64@2",
            "--crash 128@6",
            "--crash 0@6",
            "--crash 0@2 --crash 1@4 --baseline",
            "--drop-prob 64:0:0.4 --wan-slow 0:50:4:4 --fault-seed 7",
        ];
        let matrix = fault_matrix();
        assert_eq!(flags.len(), matrix.len());
        for (flags, (name, pinned)) in flags.iter().zip(&matrix) {
            assert_eq!(&schedule(flags, FaultAxis::Ranks(256)), pinned, "{name}");
        }

        let gate = serve_fault_points();
        let pinned = |name: &str| &gate.iter().find(|(n, _)| *n == name).unwrap().1.faults;
        let sites = FaultAxis::Sites(4);
        assert_eq!(&schedule("--load 1.0 --crash 2@100", sites), pinned("crash-ckpt"));
        assert_eq!(
            &schedule(
                "--wan-slow 50:5000:1:8 --drop-flow 0:2:0 --drop-flow 0:2:1 --drop-flow 0:2:2 \
                 --drop-flow 0:2:3 --drop-flow 0:2:4 --drop-flow 0:2:5 --backoff 200",
                sites
            ),
            pinned("wan-brownout")
        );
        // Site pairs are undirected flows, stored low:high.
        assert_eq!(
            schedule("--drop-flow 2:0:1 --drop-prob 3:1:0.5", sites),
            FailureSchedule::new(1).drop_nth_message(0, 2, 1).drop_probability(1, 3, 0.5)
        );
    }
}
