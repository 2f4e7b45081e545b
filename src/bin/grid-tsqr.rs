//! `grid-tsqr` — command-line front end for the simulated grid.
//!
//! Every subcommand declares its flags once, as a row of `COMMANDS`: the
//! command line is checked against that table before anything runs, and
//! `usage()` renders the synopses from it (`grid-tsqr` with no arguments
//! prints them all).
//!
//! `figure` regenerates the paper's artifacts from the registry in
//! `tsqr_bench` (every table, figure, property and ablation is one row):
//! `--id` (repeatable) or `--all`, neither to list the rows. Each artifact
//! ends in its `[PASS]`/`[FAIL]` paper-shape block and any `[FAIL]` is exit
//! code 1; its sweep points are declared, then priced on every core, once.
//! `bench-check` is the perf-regression gate `scripts/bench_check.sh`
//! drives: every registered headline point measured on every core and
//! compared with the committed baseline, exit code 1 on drift or on a
//! failed claim of the gate.
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
//! `check` is the **commcheck** gate (`docs/static-analysis.md` §3): it
//! runs the registry `tsqr_bench::commcheck` on every core — the
//! figure-style scenarios and the fault matrix traced through the
//! happens-before analyzer (`gridmpi::hb`), the DPOR-lite schedule
//! explorer on a dedicated 8-rank grid, the serving traces — at the one
//! size the golden was blessed at, so it takes no problem flags. One
//! structural summary line per scenario is compared against the blessed
//! `--golden` file (regenerate with `--bless`), exactly like the benchmark
//! gate.
//!
//! The gates (`figure`, `bench-check`, `check`, `report --golden/--check`)
//! exit 1 when they ran and found a failure; exit 2 is a refusal, printed
//! with the subcommand's usage.
//!
//! `analyze` runs the same traced point and prints the diagnosis instead:
//! the Scalasca-style wait-state breakdown (reconciled against the metrics
//! registry), per-link-class utilization timelines, the rank-to-rank
//! communication matrix, and the Eq. (1) least-squares fit with its
//! residual. See `docs/observability.md` §8 ("Diagnosing a run").

#![forbid(unsafe_code)]

use std::process::ExitCode;

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::experiment::{Algorithm, ExperimentResult, Mode};
use grid_tsqr::core::modelfit;
use grid_tsqr::core::tree::TreeShape;
use grid_tsqr::core::tune;
use grid_tsqr::core::workload;
use grid_tsqr::gridmpi::{CriticalPath, FoldedProfile, Runtime};
use grid_tsqr::linalg::prelude::QrFactors;
use grid_tsqr::linalg::verify::r_distance;
use grid_tsqr::netsim::{FailureSchedule, VirtualTime};
use grid_tsqr::obs::ledger::{append_entry, path_from_env, read_ledger, LedgerEntry};
use grid_tsqr::obs::report::{detect_anomalies, render_report, ReportOptions};
use grid_tsqr::qcg::ResourceCatalog;
use grid_tsqr::serve::{
    load_is_offerable, menu, serve, BrownoutConfig, Disposition, FaultKind, Policy as ServePolicy,
    PolicyReport, RecoveryAction, RetryPolicy, ServeConfig, ServeOutcome,
};
use tsqr_bench::commcheck::{self, recovered_r_holder, Problem};
use tsqr_bench::{
    calib, compare_records, figures, gate_points, ledger_entry, measure_gate, measure_point,
    parse_records, platform_runtime, records_json, run_figures, run_point, serve_record, Check,
    Figure,
};

/// How a flag is given: `--name` alone, `--name <value>` at most once, or
/// `--name <value>` any number of times, the values kept in order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Switch,
    Value,
    Repeat,
}

/// One row of a subcommand's flag table: `--name`, how it is given, and
/// what `usage()` prints for its value.
struct Flag {
    name: &'static str,
    kind: Kind,
    meta: &'static str,
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, kind: Kind::Switch, meta: "" }
}

const fn value(name: &'static str, meta: &'static str) -> Flag {
    Flag { name, kind: Kind::Value, meta }
}

const fn repeat(name: &'static str, meta: &'static str) -> Flag {
    Flag { name, kind: Kind::Repeat, meta }
}

/// A subcommand: its name, the line `usage()` prints under its synopsis,
/// and the flags it uses, as shared groups composed in usage order.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [&'static [Flag]],
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }
}

/// The problem `Ctx::parse` reads; the seed only where a run makes numbers.
const PROBLEM: &[Flag] = &[value("m", "<rows>"), value("n", "<cols>"), value("sites", "1..4")];
const SEED: &[Flag] = &[value("seed", "<u64>")];
const DOMAINS: Flag = value("domains", "<d/cluster>");
const TREE: Flag = value("tree", "flat|binary|grid|kary:<k>|binomial|greedy");
const REAL: Flag = switch("real");
/// The point `traced_run` runs.
const TRACED: &[Flag] = &[value("algo", "tsqr|scalapack|scalapack-blocked"), DOMAINS, TREE, REAL];
/// The fault grammar of `fault_schedule`, on ranks and on sites.
const RANK_FAULTS: &[Flag] =
    &[repeat("crash", "RANK@MS"), repeat("drop", "SRC:DST:NTH"), repeat("drop-prob", "SRC:DST:P")];
const SITE_FAULTS: &[Flag] =
    &[repeat("crash", "SITE@MS"), repeat("drop-flow", "A:B:NTH"), repeat("drop-prob", "A:B:P")];
const WAN_FAULTS: &[Flag] =
    &[value("wan-slow", "FROM_MS:UNTIL_MS:LATx:BWx"), value("fault-seed", "<u64>")];

/// Every subcommand and every flag it takes: the only list of them.
const COMMANDS: &[Command] = &[
    Command { name: "info", about: "the Grid'5000 resource catalog (paper §V-A)", flags: &[] },
    Command {
        name: "tsqr",
        about: "one TSQR run, symbolic by default; --real moves matrices and checks R",
        flags: &[PROBLEM, SEED, &[DOMAINS, TREE, REAL, switch("q")]],
    },
    Command {
        name: "scalapack",
        about: "the PDGEQR2 baseline; --blocked runs PDGEQRF",
        flags: &[PROBLEM, SEED, &[REAL, switch("blocked")]],
    },
    Command { name: "compare", about: "TSQR against ScaLAPACK on one point", flags: &[PROBLEM] },
    Command {
        name: "tune",
        about: "every candidate tree predicted, the winner replayed (docs/tuning.md)",
        flags: &[PROBLEM, &[DOMAINS]],
    },
    Command {
        name: "trace",
        about: "critical path and Eq. (1) ledger of one run; --out writes Chrome JSON",
        flags: &[
            PROBLEM,
            SEED,
            TRACED,
            &[value("out", "<file.json>"), value("folded-out", "<file>"), switch("timeline")],
        ],
    },
    Command {
        name: "analyze",
        about: "wait states, link utilization, comm matrix and Eq. (1) fit of one run",
        flags: &[PROBLEM, SEED, TRACED, &[value("bins", "<timeline bins>")]],
    },
    Command {
        name: "faults",
        about: "self-healing TSQR under injected faults (docs/fault-injection.md)",
        flags: &[PROBLEM, SEED, RANK_FAULTS, WAN_FAULTS, &[switch("baseline")]],
    },
    Command {
        name: "serve",
        about: "a seeded multi-tenant request stream over one grid (docs/serving.md)",
        flags: &[
            &[
                value("policy", "fifo|sjf|edf|fair|all"),
                value("load", "<x>"),
                value("requests", "<k>"),
                value("seed", "<u64>"),
                switch("batch"),
                value("queue", "<cap>"),
                value("shape", "<menu ix>"),
                value("sweep", "<l1,l2,...>"),
                value("trace-out", "<file.jsonl>"),
            ],
            SITE_FAULTS,
            WAN_FAULTS,
            &[
                value("retry", "<n>"),
                value("backoff", "<ms>"),
                switch("no-checkpoint"),
                value("brownout", "ENTER:EXIT"),
            ],
        ],
    },
    Command {
        name: "check",
        about: "the commcheck happens-before gate (docs/static-analysis.md)",
        flags: &[&[value("golden", "<baseline.txt>"), switch("bless")]],
    },
    Command {
        name: "report",
        about: "trend/anomaly dashboard over the ledger (docs/observability.md §9)",
        flags: &[&[
            value("ledger", "<runs.jsonl>"),
            value("threshold", "<frac>"),
            switch("check"),
            value("golden", "<baseline.md>"),
            switch("bless"),
            value("out", "<file.md>"),
        ]],
    },
    Command {
        name: "figure",
        about: "the paper's artifacts and their [PASS]/[FAIL] checks; no flag lists them",
        flags: &[&[repeat("id", "<artifact>"), switch("all"), value("trace-out", "<file.json>")]],
    },
    Command {
        name: "bench-check",
        about: "every gate point measured against the --baseline it needs; exit 1 on drift",
        flags: &[&[
            value("baseline", "<records.json>"),
            value("out", "<records.json>"),
            switch("bless"),
        ]],
    },
];

/// The synopses of `cmds`, rendered from their flag tables and wrapped at
/// 80 columns, each followed by its `about` line.
fn usage(cmds: &[Command]) -> String {
    let mut out = String::from(
        "grid-tsqr: TSQR / ScaLAPACK QR on a simulated computational grid\n\nUSAGE:\n",
    );
    let width = COMMANDS.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for cmd in cmds {
        let head = format!("  grid-tsqr {:<width$}", cmd.name);
        let mut line = head.clone();
        for flag in cmd.flags() {
            let word = match flag.kind {
                Kind::Switch => format!("[--{}]", flag.name),
                Kind::Value => format!("[--{} {}]", flag.name, flag.meta),
                Kind::Repeat => format!("[--{} {} ...]", flag.name, flag.meta),
            };
            if line.len() + 1 + word.len() > 80 && line.len() > head.len() {
                out.push_str(&format!("{line}\n"));
                line = " ".repeat(head.len());
            }
            line.push_str(&format!(" {word}"));
        }
        out.push_str(&format!("{}\n      {}\n", line.trim_end(), cmd.about));
    }
    out
}

/// A command line checked against one subcommand's flag table.
struct Args {
    cmd: &'static Command,
    /// Each flag given, with its value (`None` for a switch), in order.
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Checks `raw` against `cmd`'s table, before anything runs. A token
    /// after a flag is that flag's value unless it starts with `--`. The
    /// first malformed token from the left is named: a positional argument,
    /// a switch with a value, a valued flag with none, a single flag given
    /// twice. With none of those, every flag the table does not list is
    /// named, in the order given.
    fn parse(cmd: &'static Command, raw: &[String]) -> Result<Self, String> {
        let (mut given, mut strays) = (Vec::new(), Vec::new());
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let name = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            let Some(flag) = cmd.flags().find(|f| f.name == name) else {
                strays.push(a.as_str());
                continue;
            };
            let fault = match (flag.kind, &value) {
                (Kind::Switch, Some(_)) => Some("takes no value"),
                (Kind::Value | Kind::Repeat, None) => Some("needs a value"),
                (Kind::Repeat, _) => None,
                _ => given.iter().any(|(n, _)| *n == flag.name).then_some("given twice"),
            };
            if let Some(fault) = fault {
                return Err(format!("--{name} {fault}"));
            }
            given.push((flag.name, value));
        }
        if !strays.is_empty() {
            return Err(format!("unknown flag for `{}`: {}", cmd.name, strays.join(" ")));
        }
        Ok(Args { cmd, given })
    }

    /// What was given for `name`, which the table must declare as `kind`:
    /// any other read is a bug in the subcommand.
    fn given(&self, name: &str, kind: Kind) -> impl Iterator<Item = Option<&str>> {
        let cmd = self.cmd.name;
        let Some(flag) = self.cmd.flags().find(|f| f.name == name && f.kind == kind) else {
            panic!("`{cmd}` reads --{name} as {kind:?}, which its flag table does not declare")
        };
        self.given.iter().filter(move |(n, _)| *n == flag.name).map(|(_, v)| v.as_deref())
    }

    /// Whether a switch is present.
    fn has(&self, name: &str) -> bool {
        self.given(name, Kind::Switch).next().is_some()
    }

    /// The value of a single flag.
    fn get(&self, name: &str) -> Option<&str> {
        self.given(name, Kind::Value).next().flatten()
    }

    /// Every value given for a repeatable flag, in order.
    fn all(&self, name: &str) -> Vec<&str> {
        self.given(name, Kind::Repeat).flatten().collect()
    }

    /// The parsed value of a single flag, if given.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}"));
        self.get(name).map(parse).transpose()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
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
    report.lines().find_map(|l| l.strip_prefix("- entries: ")).and_then(|v| v.trim().parse().ok())
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

/// The compare half of the two golden gates (`report --golden`,
/// `check --golden`): `None` when `got` is the blessed `want` byte for
/// byte, else `headline`, how to re-bless, and a line-by-line
/// `baseline:/current:` diff.
fn golden_drift(want: &str, got: &str, headline: &str, cmd: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    let mut diff = String::new();
    for i in 0..want_lines.len().max(got_lines.len()) {
        let w = want_lines.get(i).copied().unwrap_or("<missing>");
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        if w != g {
            diff.push_str(&format!("  line {}:\n    baseline: {w}\n    current:  {g}\n", i + 1));
        }
    }
    Some(format!("{headline} (re-bless with `grid-tsqr {cmd} --bless` if intended):\n{diff}"))
}

/// Parses a `--tree` value: the three fixed shapes plus the generated
/// families the autotuner searches over (`kary:<k>`, `binomial`,
/// `greedy`; `kary:1` is a chain).
fn parse_shape(s: &str) -> Result<TreeShape, String> {
    if let Some(k) = s.strip_prefix("kary:") {
        let k: usize = k.parse().map_err(|_| format!("--tree kary:<k>: cannot parse {k:?}"))?;
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
        other => {
            Err(format!("unknown tree shape {other:?} (flat|binary|grid|kary:<k>|binomial|greedy)"))
        }
    }
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
    // name a directed pair, sites an undirected flow stored low:high. No
    // message travels from a rank to itself, nor a drain within one site.
    let pair = |flag: &str, spec: &str| -> Result<(usize, usize, String), String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let [a, b, x] = parts[..] else {
            return Err(format!("--{flag} wants A:B:X, got {spec:?}"));
        };
        let (a, b) = (index(flag, a)?, index(flag, b)?);
        if a == b {
            return Err(format!("--{flag} {spec}: no message travels from {unit} {a} to itself"));
        }
        Ok(match axis {
            FaultAxis::Ranks(_) => (a, b, x.to_string()),
            FaultAxis::Sites(_) => (a.min(b), a.max(b), x.to_string()),
        })
    };

    let mut schedule = FailureSchedule::new(args.num("fault-seed", 1u64)?);
    for spec in args.all("crash") {
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
    for spec in args.all(drop_flag) {
        let (a, b, nth) = pair(drop_flag, spec)?;
        let nth: u64 = nth.parse().map_err(|_| format!("--{drop_flag}: bad nth {nth:?}"))?;
        schedule = schedule.drop_nth_message(a, b, nth);
    }
    for spec in args.all("drop-prob") {
        let (a, b, p) = pair("drop-prob", spec)?;
        schedule = match p.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => schedule.drop_probability(a, b, p),
            _ => return Err(format!("--drop-prob: bad p {p:?} (want a probability in [0, 1])")),
        };
    }
    if let Some(spec) = args.get("wan-slow") {
        let parts: Vec<&str> = spec.split(':').collect();
        let [from, until, lat, bw] = parts[..] else {
            return Err(format!("--wan-slow wants FROM_MS:UNTIL_MS:LATx:BWx, got {spec:?}"));
        };
        let from = millis("wan-slow", "from", from)?;
        let until = millis("wan-slow", "until", until)?;
        if until <= from {
            return Err(format!(
                "--wan-slow {spec}: the window is empty (want UNTIL_MS > FROM_MS)"
            ));
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

/// What the simulating subcommands share: the seeded problem on the
/// paper's platform, every run priced at the calibrated rates of `calib`.
struct Ctx(Problem);

impl Ctx {
    fn parse(args: &Args) -> Result<Self, String> {
        let m: u64 = args.num("m", 1 << 20)?;
        let n: usize = args.num("n", 64)?;
        let sites: usize = args.num("sites", 4usize)?;
        if !(1..=4).contains(&sites) {
            return Err("--sites must be 1..=4".into());
        }
        // `compare` and `tune` run symbolically only: they take no seed.
        let seeded = args.cmd.flags().any(|f| f.name == "seed");
        Ok(Ctx(Problem { m, n, sites, seed: if seeded { args.num("seed", 42)? } else { 42 } }))
    }

    /// The paper's platform for this invocation, see
    /// [`tsqr_bench::platform_runtime`].
    fn runtime(&self, traced: bool, faults: Option<FailureSchedule>) -> Runtime {
        platform_runtime(self.0.sites, traced, faults)
    }

    /// Refuses an `m × n` factorization the rank programs cannot run on
    /// `rt` — the conditions the library asserts, which would otherwise
    /// panic inside every rank program. `tsqr` carries `(--domains, --q)`
    /// when the algorithm is TSQR.
    fn check_geometry(&self, rt: &Runtime, tsqr: Option<(usize, bool)>) -> Result<(), String> {
        let Problem { m, n, .. } = self.0;
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
        run_point(rt, self.0.m, self.0.n, algo, with_q, mode)
    }

    fn mode(&self, args: &Args) -> Mode {
        if args.has("real") {
            Mode::Real { seed: self.0.seed }
        } else {
            Mode::Symbolic
        }
    }

    /// Checks a real run's R against a single-process QR (nothing to check
    /// for a symbolic run).
    fn verify(&self, res: &ExperimentResult) -> Result<String, String> {
        let Some(r) = &res.r else { return Ok(String::new()) };
        let Problem { m, n, seed, .. } = self.0;
        if m > 1 << 22 {
            return Ok("  (matrix too tall to verify in-process; skipped)\n".into());
        }
        let full = workload::full_matrix(seed, m as usize, n);
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

/// Runs `cmd` on the rest of the command line, which its flag table has
/// checked first. `Err` is a refusal (message, usage, exit 2); `Ok` carries
/// the exit code of a command that ran, which only the gates (`figure`,
/// `bench-check`, `check`, `report`) ever make nonzero.
fn run(cmd: &'static Command, raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(cmd, raw)?;
    let ctx = || Ctx::parse(&args);
    let out = match cmd.name {
        // The gates print their own output and exit code.
        "figure" => return cmd_figure(&args),
        "bench-check" => return cmd_bench_check(&args),
        "check" => return cmd_check(&args),
        "report" => return cmd_report(&args),
        "info" => cmd_info(),
        "serve" => cmd_serve(&args)?,
        "tsqr" => cmd_tsqr(&args, &ctx()?)?,
        "scalapack" => cmd_scalapack(&args, &ctx()?)?,
        "compare" => cmd_compare(&ctx()?)?,
        "trace" => cmd_trace(&args, &ctx()?)?,
        "analyze" => cmd_analyze(&args, &ctx()?)?,
        "faults" => cmd_faults(&args, &ctx()?)?,
        "tune" => cmd_tune(&args, &ctx()?)?,
        other => unreachable!("`{other}` has a flag table but no body"),
    };
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

/// Regenerates registered artifacts of the paper (`tsqr_bench::figures`):
/// `--id <id>` (repeatable) or `--all`; with neither, lists the registry.
/// Every artifact ends in its `[PASS]`/`[FAIL]` block, and a `[FAIL]`
/// anywhere is exit code 1. Declared, then priced on every core: one `Sweep`
/// serves the whole invocation, so a point two figures share is run once.
fn cmd_figure(args: &Args) -> Result<ExitCode, String> {
    let registry = figures();
    let ids = args.all("id");
    let all = args.has("all");
    let trace_out = args.get("trace-out").map(std::path::Path::new);
    if all && !ids.is_empty() {
        return Err("--all already names every --id".into());
    }
    let by_id = |id: &&str| {
        registry.iter().find(|f| f.id == *id).ok_or_else(|| {
            let known: Vec<&str> = registry.iter().map(|f| f.id).collect();
            format!("--id {id}: no such artifact (known: {})", known.join(", "))
        })
    };
    if let Some(id) = ids.iter().enumerate().find_map(|(i, id)| ids[..i].contains(id).then_some(id))
    {
        return Err(format!("--id {id} given twice"));
    }
    let selected: Vec<&Figure> = if all {
        registry.iter().collect()
    } else {
        ids.iter().map(by_id).collect::<Result<_, _>>()?
    };
    if trace_out.is_some() && !matches!(selected[..], [one] if !one.points.is_empty()) {
        return Err(
            "--trace-out dumps one figure's headline trace: give one --id of fig4..fig8".into()
        );
    }
    if selected.is_empty() {
        for f in registry {
            println!("{:<24} {}", f.id, f.title);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let passed = run_figures(&selected, trace_out)?;
    Ok(if passed { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Relative tolerance of the bench gate on times and Gflop/s.
const BENCH_REL_TOL: f64 = 1e-9;

/// The perf-regression gate behind `scripts/bench_check.sh`: measures every
/// registered gate point (`tsqr_bench::gate_points`: Figs. 4–8, WAN
/// degradation, autotuned trees, serving with and without faults), one
/// thread per core, and diffs the records against the committed
/// `--baseline`; `--out` also writes them, `--bless` rewrites the baseline
/// instead. The simulation is deterministic, so the comparison is strict:
/// counts exactly, times and Gflop/s to [`BENCH_REL_TOL`] relative, the
/// model-fit residual to 1e-6 absolute; drift is exit code 1, and so is a
/// failed claim of the gate (`[FAIL] <name>: <detail>`, before anything is
/// written). Every point also re-asserts the critical-path, wait-state and
/// folded-profile invariants, and is appended to the experiment ledger
/// named by `GRID_TSQR_LEDGER` with source `bench_check`.
fn cmd_bench_check(args: &Args) -> Result<ExitCode, String> {
    let baseline = args.get("baseline").ok_or("bench-check needs --baseline <file>")?;
    let out = args.get("out");
    let bless = args.has("bless");

    eprintln!("# measuring {} gate points (deterministic simulation)...", gate_points().len());
    let (measured, claims) = measure_gate();
    for e in &measured {
        eprintln!(
            "#   {:<16} makespan {:>10.4} s  {:>7.1} Gflop/s  {:>6} WAN msgs  residual {:.2e}",
            e.scenario, e.makespan_s, e.gflops, e.wan_msgs, e.fit.rel_residual
        );
    }
    let failed: Vec<String> = claims.iter().filter(|c| !c.pass).map(Check::to_string).collect();
    if !failed.is_empty() {
        eprintln!("{}", failed.join("\n"));
        return Ok(ExitCode::FAILURE);
    }
    let doc = records_json(&measured);

    if let Some(path) = path_from_env() {
        for entry in &measured {
            append_entry(&path, LedgerEntry { source: "bench_check".into(), ..entry.clone() })?;
        }
        eprintln!("# ledger: {} entries -> {}", measured.len(), path.display());
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
    let problems = compare_records(&base, &measured, BENCH_REL_TOL);
    if problems.is_empty() {
        println!(
            "bench gate OK: {} records match {baseline} (rel tol {BENCH_REL_TOL:.0e})",
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
/// so it stays fast enough for CI. A `--golden` drift or a `--check`
/// anomaly is exit code 1.
fn cmd_report(args: &Args) -> Result<ExitCode, String> {
    let ledger_path = args.get("ledger").unwrap_or("ledger/runs.jsonl");
    let threshold: f64 = args.num("threshold", 0.05f64)?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err("--threshold must be a non-negative fraction (e.g. 0.05)".into());
    }
    let opts = ReportOptions { threshold };
    let entries = read_ledger(std::path::Path::new(ledger_path))?;
    if entries.is_empty() {
        return Err(format!(
            "{ledger_path}: no entries — seed the ledger with \
             `GRID_TSQR_LEDGER={ledger_path} scripts/bench_check.sh`"
        ));
    }
    let rendered = render_report(&entries, &opts);
    let mut out = String::new();
    if let Some(path) = args.get("out") {
        write_file(path, &rendered)?;
        out.push_str(&format!("report over {} entries written to {path}\n", entries.len()));
    } else if !args.has("check") && args.get("golden").is_none() && !args.has("bless") {
        // Plain `grid-tsqr report` prints the dashboard itself; the
        // gating modes print one status line each instead.
        out.push_str(&rendered);
    }
    if args.has("bless") {
        let path = args.get("golden").unwrap_or("REPORT_baseline.md");
        write_file(path, &rendered)?;
        out.push_str(&format!(
            "blessed report over {} ledger entries into {path}\n",
            entries.len()
        ));
    } else if let Some(path) = args.get("golden") {
        let want = read_file(path)?;
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
        if let Some(drift) =
            golden_drift(&want, &render_report(&entries[..k], &opts), &headline, "report")
        {
            print!("{out}");
            eprint!("{drift}");
            return Ok(ExitCode::FAILURE);
        }
        out.push_str(&format!(
            "report matches {path} (rendered over the first {k} of {} entries)\n",
            entries.len()
        ));
    }
    if args.has("check") {
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
            print!("{out}");
            eprint!("{msg}");
            return Ok(ExitCode::FAILURE);
        }
        out.push_str(&format!(
            "report check OK: {} entries, every per-phase residual within {:.2}% \
             of its scenario reference\n",
            entries.len(),
            threshold * 100.0
        ));
    }
    print!("{out}");
    Ok(ExitCode::SUCCESS)
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
    let single_shape: Option<usize> = args.opt("shape")?;
    if let Some(i) = single_shape.filter(|&i| i >= menu().len()) {
        return Err(format!("--shape {i}: the menu has {} shapes", menu().len()));
    }
    let policy_arg = args.get("policy").unwrap_or("fifo");
    let policies: Vec<ServePolicy> = if policy_arg == "all" {
        ServePolicy::all().to_vec()
    } else {
        vec![ServePolicy::parse(policy_arg)?]
    };
    let queue_capacity: usize = args.num("queue", 64usize)?;
    if queue_capacity == 0 {
        return Err("--queue must hold at least one request".into());
    }
    let max_attempts: usize = args.num("retry", 3usize)?;
    if max_attempts == 0 {
        return Err("--retry must allow at least one attempt".into());
    }
    let backoff_ms: f64 = args.num("backoff", 50.0f64)?;
    if !backoff_ms.is_finite() || backoff_ms < 0.0 {
        return Err("--backoff must be a non-negative duration in ms".into());
    }
    let brownout = match args.get("brownout") {
        None => BrownoutConfig::default(),
        Some(spec) => {
            let (enter, exit) = spec
                .split_once(':')
                .ok_or_else(|| format!("--brownout wants ENTER:EXIT, got {spec:?}"))?;
            let enter: usize =
                enter.parse().map_err(|_| format!("--brownout: bad enter {enter:?}"))?;
            let exit: usize = exit.parse().map_err(|_| format!("--brownout: bad exit {exit:?}"))?;
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
        batch: args.has("batch"),
        queue_capacity,
        single_shape,
        faults: fault_schedule(args, FaultAxis::Sites(catalog.clusters.len()))?,
        retry: RetryPolicy {
            max_attempts,
            backoff_base_s: backoff_ms * 1e-3,
            checkpoint_drain: !args.has("no-checkpoint"),
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
    let mut out = String::new();
    if let Some(sweep) = args.get("sweep") {
        // Latency/throughput knee: one row per load, first policy only.
        // Every load is checked before the first one is served.
        let mut configs = Vec::new();
        for tok in sweep.split(',') {
            let l: f64 = tok.parse().map_err(|_| format!("--sweep: cannot parse {tok:?}"))?;
            if !l.is_finite() || l <= 0.0 {
                return Err("--sweep loads must be positive".into());
            }
            let cfg = ServeConfig { load: l, ..base.clone() };
            offerable(&catalog, &cfg)?;
            configs.push(cfg);
        }
        let rows: Vec<_> = configs
            .iter()
            .map(|cfg| (cfg.load, PolicyReport::from_outcome(&serve(&catalog, cfg))))
            .collect();
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
        if let Some(path) = args.get("trace-out") {
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
            let entry = serve_record(source, &scenario, &tree, &catalog, &outcome, &report);
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
    let shape = parse_shape(args.get("tree").unwrap_or("grid"))?;
    let with_q = args.has("q");
    let rt = ctx.runtime(false, None);
    ctx.check_geometry(&rt, Some((domains, with_q)))?;
    let algorithm = Algorithm::Tsqr { shape, domains_per_cluster: domains };
    let res = ctx.run(&rt, algorithm, with_q, ctx.mode(args));
    Ok(describe("TSQR", &res) + &ctx.verify(&res)?)
}

fn cmd_scalapack(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let algorithm =
        if args.has("blocked") { Algorithm::ScalapackQrf } else { Algorithm::ScalapackQr2 };
    let rt = ctx.runtime(false, None);
    ctx.check_geometry(&rt, None)?;
    let res = ctx.run(&rt, algorithm, false, ctx.mode(args));
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
fn traced_run(args: &Args, ctx: &Ctx) -> Result<(Runtime, ExperimentResult, CriticalPath), String> {
    let algo = args.get("algo").unwrap_or("tsqr");
    let baseline = match algo {
        "tsqr" => None,
        "scalapack" => Some(Algorithm::ScalapackQr2),
        "scalapack-blocked" => Some(Algorithm::ScalapackQrf),
        other => return Err(format!("unknown --algo {other:?}")),
    };
    let (algorithm, geometry) = match baseline {
        Some(algorithm) => {
            if let Some(flag) = ["domains", "tree"].into_iter().find(|&f| args.get(f).is_some()) {
                return Err(format!("--{flag} applies to --algo tsqr only, not --algo {algo}"));
            }
            (algorithm, None)
        }
        None => {
            let domains: usize = args.num("domains", 64usize)?;
            let shape = parse_shape(args.get("tree").unwrap_or("grid"))?;
            (Algorithm::Tsqr { shape, domains_per_cluster: domains }, Some((domains, false)))
        }
    };
    let rt = ctx.runtime(true, None);
    ctx.check_geometry(&rt, geometry)?;
    let res = ctx.run(&rt, algorithm, false, ctx.mode(args));
    let cp = res.trace.as_ref().expect("tracing was enabled").critical_path();
    cp.check_tiling(res.makespan)?;
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
    let wait_drift = diag.check_reconciled(&res.metrics)?;
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
    if args.has("timeline") {
        out.push_str("\ntimeline:\n");
        out.push_str(&trace.render());
    }
    if let Some(path) = args.get("out") {
        write_file(path, trace.chrome_json())?;
        out.push_str(&format!(
            "\nChrome trace written to {path} (load in ui.perfetto.dev or chrome://tracing)\n"
        ));
    }
    if let Some(path) = args.get("folded-out") {
        let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
        let tile_err = profile.check_tiling()?;
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
    let problem @ Problem { m, n, sites, .. } = ctx.0;
    let rt = ctx.runtime(false, None);
    let procs = rt.topology().num_procs();
    ctx.check_geometry(&rt, Some((procs / sites, false)))?;
    let schedule = fault_schedule(args, FaultAxis::Ranks(procs))?;
    let plan = problem.domain_per_process(&rt);
    let (layout, _, cfg) = &plan;

    let (clean_makespan, reference) = problem.failure_free(&rt, &plan)?;
    let mut out = format!(
        "failure-free: {:.3} s simulated ({} domains, tree grid)\n",
        clean_makespan.secs(),
        layout.num_domains(),
    );

    // Self-healing run under the schedule. The ledger entry wants the
    // critical-path split, which needs the event trace.
    let ledger = path_from_env();
    let frt = ctx.runtime(ledger.is_some(), Some(schedule.clone()));
    let mut report = problem.run_ft_tsqr(&frt, &plan);
    let makespan = report.makespan;
    // `outcome()` consumes the report, so lift the observability
    // payloads the ledger entry needs out of it first.
    let run_metrics = std::mem::take(&mut report.metrics);
    let run_trace = report.trace.take();
    let outcome = report.outcome();
    let holder_rank = recovered_r_holder(&outcome.survivors, &reference)?;
    let rebuilt: usize = outcome.survivors.iter().map(|(_, o)| o.rebuilt_subtrees.len()).sum();
    let salvaged: usize = outcome.survivors.iter().map(|(_, o)| o.salvaged_children.len()).sum();
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
    out.push_str("  recovered R is bitwise identical to the failure-free R\n");

    // Optionally show how the plain program fares (typed, no panic).
    if args.has("baseline") {
        let brt = ctx.runtime(false, Some(schedule));
        let base = problem.run_tsqr(&brt, &plan);
        let bo = base.outcome();
        if bo.is_clean() {
            out.push_str("baseline tsqr: unaffected by this schedule\n");
        } else {
            out.push_str(&format!(
                "baseline tsqr: {} rank(s) failed {:?}; first error: {}\n",
                bo.failed_ranks().len(),
                bo.failed_ranks(),
                bo.failures.first().map(|(r, e)| format!("rank {r}: {e}")).unwrap_or_default(),
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
        out.push_str(&format!("ledger: entry {seq} appended to {}\n", path.display()));
    }
    Ok(out)
}

/// Model-driven reduction-tree search (docs/tuning.md): predict every
/// candidate's makespan from the calibrated cost model, pick the argmin,
/// replay the winner through netsim, and show how it stacks up against
/// the fixed shapes.
fn cmd_tune(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let Problem { m, n, sites, .. } = ctx.0;
    let (rate, combine) = (Some(calib::kernel_rate_flops(n)), Some(calib::combine_rate_flops()));
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

    // Record the winner in the experiment ledger: measured like a gate
    // point, so the entry carries the critical-path split and per-phase
    // Eq. (1) residuals like every other ledger source.
    if let Some(path) = path_from_env() {
        let winner = Algorithm::Tsqr { shape: best.shape.clone(), domains_per_cluster: domains };
        let scenario = format!("cli/tune/s{sites}-m{m}-n{n}");
        let entry = measure_point(&scenario, sites, m, n, winner, None);
        let seq = append_entry(&path, LedgerEntry { source: "tune".into(), ..entry })?;
        out.push_str(&format!(
            "ledger: entry {seq} (winner {}) appended to {}\n",
            best.name,
            path.display()
        ));
    }
    Ok(out)
}

/// commcheck, the race/deadlock analogue of `scripts/bench_check.sh`:
/// every scenario of `tsqr_bench::commcheck` runs traced, one thread per
/// core, each trace goes through the happens-before analyzer, and the
/// summary lines are compared with the blessed `--golden` file (or written
/// to it with `--bless`). A problem found or a line that drifted is exit
/// code 1.
fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let (golden, bless) = (args.get("golden"), args.has("bless"));
    // Read first: an unreadable golden is refused before anything runs.
    let want = golden.filter(|_| !bless).map(read_file).transpose()?;
    let verdict = commcheck::run_all();
    if !verdict.problems.is_empty() {
        eprintln!("commcheck found problems:\n{}", verdict.problems.join("\n"));
        return Ok(ExitCode::FAILURE);
    }
    let body: String = verdict.lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
    let n = verdict.lines.len();
    let mut out = format!("== commcheck: happens-before analysis ==\n{body}");
    if bless {
        let path = golden.unwrap_or("COMMCHECK_baseline.txt");
        write_file(path, &body)?;
        out.push_str(&format!("blessed {n} scenario line(s) into {path}\n"));
    } else if let (Some(path), Some(want)) = (golden, want) {
        let headline = format!("commcheck summary differs from {path}");
        if let Some(drift) = golden_drift(&want, &body, &headline, "check") {
            eprint!("{drift}");
            return Ok(ExitCode::FAILURE);
        }
        out.push_str(&format!("all {n} scenario line(s) match {path}\n"));
    }
    out.push_str(
        "commcheck: 0 races, 0 deadlock cycles, 0 clock violations across all scenarios\n",
    );
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

/// A refusal names its fault, then the usage of the subcommand it was
/// given to, or of every subcommand when none was recognised.
fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (error, cmds) = match raw.split_first() {
        None => ("missing command".to_string(), COMMANDS),
        Some((name, rest)) => match COMMANDS.iter().find(|c| c.name == name) {
            None => (format!("unknown command {name:?}"), COMMANDS),
            Some(cmd) => match run(cmd, rest) {
                Ok(code) => return code,
                Err(e) => (e, std::slice::from_ref(cmd)),
            },
        },
    };
    eprint!("error: {error}\n\n{}", usage(cmds));
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_bench::commcheck::fault_matrix;
    use tsqr_bench::serve_fault_points;

    fn args(cmd: &str, flags: &str) -> Args {
        let cmd = COMMANDS.iter().find(|c| c.name == cmd).unwrap();
        Args::parse(cmd, &flags.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    fn schedule(flags: &str, axis: FaultAxis) -> FailureSchedule {
        let cmd = if matches!(axis, FaultAxis::Ranks(_)) { "faults" } else { "serve" };
        fault_schedule(&args(cmd, flags), axis).unwrap()
    }

    #[test]
    #[should_panic(expected = "`compare` reads --seed as Value, which its flag table does not")]
    fn a_read_the_table_does_not_declare_panics() {
        args("compare", "").get("seed");
    }

    #[test]
    #[should_panic(expected = "`tsqr` reads --real as Value, which its flag table does not")]
    fn a_read_of_the_wrong_kind_panics() {
        args("tsqr", "--real").get("real");
    }

    /// Every scenario `check`'s fault matrix runs and every `serve-faults/*`
    /// point the bench gate pins can be rerun from the command line: these
    /// `faults` flags build the matrix's schedules, and these `serve` flags
    /// build the gate points' whole configurations.
    #[test]
    fn fault_flags_reproduce_the_pinned_schedules() {
        let flags = [
            "",
            "--crash 255@0.5",
            "--crash 2@2",
            "--crash 64@2",
            "--crash 128@6",
            "--crash 0@6",
            "--crash 0@2 --crash 1@4",
            "--drop-prob 64:0:0.4 --wan-slow 0:50:4:4 --fault-seed 7",
        ];
        let matrix = fault_matrix();
        assert_eq!(flags.len(), matrix.len());
        for (flags, (name, pinned)) in flags.iter().zip(&matrix) {
            assert_eq!(&schedule(flags, FaultAxis::Ranks(256)), pinned, "{name}");
        }

        let catalog = ResourceCatalog::grid5000();
        let gate = serve_fault_points();
        let crash = "--requests 30 --load 1.0 --seed 7 --crash 2@100";
        for (name, flags) in [
            ("crash-ckpt", crash.to_string()),
            ("crash-restart", format!("{crash} --no-checkpoint")),
            ("crash-replan", format!("{crash} --shape 3")),
            (
                "wan-brownout",
                "--requests 40 --load 0.5 --seed 7 --wan-slow 50:5000:1:8 --drop-flow 0:2:0 \
                 --drop-flow 0:2:1 --drop-flow 0:2:2 --drop-flow 0:2:3 --drop-flow 0:2:4 \
                 --drop-flow 0:2:5 --backoff 200 --brownout 1:0"
                    .to_string(),
            ),
        ] {
            let (mut cfg, policies) = serve_config(&args("serve", &flags), &catalog).unwrap();
            assert_eq!(policies, [ServePolicy::Fifo], "{name}");
            let pinned = &gate.iter().find(|(n, _)| *n == name).unwrap().1;
            // The one field no flag sets: `--brownout` keeps the default
            // shed slack, which `wan-brownout` sets to 0.0.
            if name == "wan-brownout" {
                assert_eq!(cfg.brownout.shed_slack, BrownoutConfig::default().shed_slack);
                cfg.brownout.shed_slack = 0.0;
            }
            assert_eq!(&cfg, pinned, "{name}");
        }
        // Site pairs are undirected flows, stored low:high.
        assert_eq!(
            schedule("--drop-flow 2:0:1 --drop-prob 3:1:0.5", FaultAxis::Sites(4)),
            FailureSchedule::new(1).drop_nth_message(0, 2, 1).drop_probability(1, 3, 0.5)
        );
    }
}
