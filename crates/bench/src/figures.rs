//! The gate registry and the perf-regression records behind
//! `BENCH_results.json`.
//!
//! Each of Figs. 4–8 has one (or two) *headline configurations* — the
//! points whose traces `grid-tsqr figure --trace-out` dumps and whose
//! measured numbers the repository's perf-regression gate pins. They are
//! rows of the artifact registry ([`crate::artifacts::Figure::points`]);
//! [`crate::harness::run_figures`] and `grid-tsqr bench-check` both read
//! them there, so the figure a reader traces is byte-for-byte the
//! configuration the gate measures. The gate's other families (WAN
//! degradation, autotuned trees, serving, fault-injected serving) register
//! here; [`gate_points`] lists every point in baseline order and
//! [`measure_gate`] measures them.
//!
//! A measured point is one [`LedgerEntry`], and `BENCH_baseline.json` pins
//! fourteen of its columns ([`records_json`]): the makespan and Gflop/s,
//! the Eq. (1) traffic totals (message/byte counts, WAN messages — the
//! paper's headline `O(log #clusters)` vs `2N·log₂P` claim as data), the
//! critical-path split, the total blocked-receive seconds, and the
//! model-fit residual. The simulation is deterministic, so counts compare
//! exactly and times to 1e-9 relative.

use std::fmt::Write as _;

use tsqr_core::domains::DomainLayout;
use tsqr_core::experiment::{Algorithm, ExperimentResult, Mode};
use tsqr_core::modelfit;
use tsqr_core::scalapack::{DEFAULT_NB, DEFAULT_NX};
use tsqr_core::tree::TreeShape;
use tsqr_core::tune;
use tsqr_gridmpi::{CriticalPath, FoldedProfile, MetricsRegistry, PathSummary};
use tsqr_netsim::{FailureSchedule, VirtualTime};
use tsqr_obs::ledger::{
    f64_field, str_field, u64_field, EnvFingerprint, LedgerEntry, ModelCoeffs, PhaseRow,
};
use tsqr_qcg::ResourceCatalog;
use tsqr_serve::{
    serve as run_serve, BrownoutConfig, Policy as ServePolicy, PolicyReport as ServeReport,
    RetryPolicy, ServeConfig, ServeOutcome,
};

use crate::artifacts::figures;
use crate::calib;
use crate::harness::{
    cores, grid_runtime, on_pool, platform_runtime, run_point, tuned_tsqr, Artifact, Check,
};
use tsqr_obs::json::{escape, num, Json};

/// One headline configuration of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigurePoint {
    /// Which figure it belongs to (`"fig4"` … `"fig8"`).
    pub figure: &'static str,
    /// Distinguishes multiple points of one figure (`"tsqr"`,
    /// `"scalapack"`); the first listed point is the primary one.
    pub label: &'static str,
    /// Number of Grid'5000 sites.
    pub sites: usize,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// The algorithm under test.
    pub algorithm: Algorithm,
}

impl FigurePoint {
    /// Stable identifier used in `BENCH_results.json` (`"fig5/tsqr"`).
    pub fn id(&self) -> String {
        format!("{}/{}", self.figure, self.label)
    }

    /// [`measure_point`] on this configuration.
    pub fn measure(&self) -> LedgerEntry {
        measure_point(&self.id(), self.sites, self.m, self.n, self.algorithm.clone(), None)
    }
}

/// Stable ledger label for the configuration's reduction structure.
fn tree_label(algorithm: &Algorithm) -> String {
    match algorithm {
        Algorithm::Tsqr { shape, domains_per_cluster } => {
            format!("{shape:?}/dpc{domains_per_cluster}")
        }
        Algorithm::ScalapackQr2 => "scalapack-qr2".to_string(),
        Algorithm::ScalapackQrf => format!("scalapack-qrf/nb{DEFAULT_NB}/nx{DEFAULT_NX}"),
    }
}

/// Distills a finished run into an experiment-ledger entry
/// (`grid-tsqr-ledger/v1`): totals and per-phase Eq. (1) ledgers from
/// the metrics registries, the critical-path split of the run's trace
/// (zeros for an untraced run), the fitted model with per-phase
/// predictions, and the environment fingerprint. Shared by
/// [`measure_point`] and the CLI's `faults` ledger hook.
#[allow(clippy::too_many_arguments)] // a ledger line simply has this many facts
pub fn ledger_entry(
    source: &str,
    scenario: &str,
    sites: usize,
    procs: usize,
    m: u64,
    n: usize,
    tree: &str,
    makespan_s: f64,
    gflops: f64,
    metrics: &[MetricsRegistry],
    critical_path: Option<PathSummary>,
) -> LedgerEntry {
    let agg = MetricsRegistry::merged(metrics);
    let fit = modelfit::fit(&modelfit::samples_from_metrics(metrics));
    let phases: Vec<PhaseRow> = agg
        .phase_names()
        .iter()
        .map(|name| {
            let c = agg.phase(name).expect("listed phase exists");
            let predicted_s = fit
                .as_ref()
                .and_then(|f| f.per_phase.iter().find(|(l, _, _)| l == name))
                .map(|(_, _, pred)| *pred)
                .unwrap_or(0.0);
            PhaseRow {
                name: name.to_string(),
                msgs: c.msgs,
                bytes: c.bytes,
                flops: c.flops,
                send_s: c.send_s.iter().sum(),
                compute_s: c.compute_s,
                wait_s: c.recv_wait_s,
                predicted_s,
            }
        })
        .collect();
    let total = agg.total();
    let cps = critical_path.unwrap_or_default();
    LedgerEntry {
        seq: 0, // assigned by tsqr_obs::ledger::append_entry
        source: source.to_string(),
        scenario: scenario.to_string(),
        sites,
        procs,
        m: m as usize,
        n,
        tree: tree.to_string(),
        makespan_s,
        gflops,
        msgs: total.total_msgs(),
        wan_msgs: total.wan_msgs(),
        bytes: total.total_bytes(),
        cp_compute_s: cps.compute_s,
        cp_send_s: cps.send_s,
        cp_wan_msgs: cps.wan_messages as u64,
        wait_s: total.recv_wait_s,
        fit: fit
            .map(|f| ModelCoeffs {
                beta_s: f.beta_s,
                alpha_s_per_word: f.alpha_s_per_word,
                gamma_s_per_flop: f.gamma_s_per_flop,
                rel_residual: f.rel_residual,
            })
            .unwrap_or_default(),
        phases,
        env: EnvFingerprint::current(),
    }
}

/// Runs one symbolic configuration traced (optionally under a failure
/// schedule) and distills it into a ledger entry with scenario `id`
/// (source `"figure"`; callers with a different provenance overwrite
/// it). Also asserts the three cross-layer invariants the observability
/// stack guarantees: the critical path tiles the makespan
/// ([`CriticalPath::check_tiling`]), the wait-state classification
/// reconciles with the metrics registry
/// ([`tsqr_gridmpi::Diagnosis::check_reconciled`]), and the folded-stack
/// profile tiles every rank's timeline ([`FoldedProfile::check_tiling`])
/// — so every bench run doubles as an integration test of the diagnostics.
pub fn measure_point(
    id: &str,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
    schedule: Option<FailureSchedule>,
) -> LedgerEntry {
    measure_traced(id, sites, m, n, algorithm, schedule).0
}

/// [`measure_point`], also handing back the traced run and its critical
/// path, so a trace dump describes the very run its entry does.
pub(crate) fn measure_traced(
    id: &str,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
    schedule: Option<FailureSchedule>,
) -> (LedgerEntry, ExperimentResult, CriticalPath) {
    let tree = tree_label(&algorithm);
    let rt = platform_runtime(sites, true, schedule);
    let res = run_point(&rt, m, n, algorithm, false, Mode::Symbolic);
    let trace = res.trace.as_ref().expect("tracing was enabled");
    let cp = trace.critical_path();
    let diag = trace.diagnose(rt.topology().num_procs(), 64);
    let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
    let checked = cp
        .check_tiling(res.makespan)
        .and(diag.check_reconciled(&res.metrics))
        .and(profile.check_tiling());
    if let Err(e) = checked {
        panic!("{e} ({id})");
    }
    let mut entry = ledger_entry(
        "figure",
        id,
        sites,
        rt.topology().num_procs(),
        m,
        n,
        &tree,
        res.makespan.secs(),
        res.gflops,
        &res.metrics,
        Some(cp.summary()),
    );
    // The wait-state total just reconciled with the registry's; it is the
    // one `BENCH_baseline.json` pins.
    entry.wait_s = diag.total().total_wait_s();
    (entry, res, cp)
}

/// One WAN-degradation scenario of the fault bench: a headline
/// configuration re-run with every inter-cluster link degraded for a
/// window of virtual time ([`tsqr_netsim::FailureSchedule::degrade_all_wan`]).
///
/// Degradation changes link *pricing*, never routing, so the message /
/// byte / WAN counts of a scenario must equal its failure-free twin —
/// `fault_degradation` checks exactly that, and the perf gate pins the
/// slowed makespans the same way it pins Figs. 4–8.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Distinguishes scenarios (`"wan-10x"`); the record id is
    /// `faults/<label>`.
    pub label: &'static str,
    /// Number of Grid'5000 sites.
    pub sites: usize,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Degradation window `[from, until)`, virtual seconds.
    pub window_s: (f64, f64),
    /// Latency multiplier applied to every WAN link in the window.
    pub latency_factor: f64,
    /// Bandwidth divisor applied to every WAN link in the window.
    pub bandwidth_divisor: f64,
}

impl FaultPoint {
    /// Stable identifier used in `BENCH_results.json` (`"faults/wan-10x"`).
    pub fn id(&self) -> String {
        format!("faults/{}", self.label)
    }

    /// The injected schedule: every WAN link degraded in the window.
    pub fn schedule(&self) -> FailureSchedule {
        FailureSchedule::new(0).degrade_all_wan(
            VirtualTime::from_secs(self.window_s.0),
            VirtualTime::from_secs(self.window_s.1),
            self.latency_factor,
            self.bandwidth_divisor,
        )
    }

    /// Measures the scenario (same invariants as [`measure_point`],
    /// ledger source `"faults"`), or with `degraded = false` its
    /// *failure-free twin* under an id with a `-clean` suffix, which
    /// `fault_degradation` compares it against (identical traffic, slower
    /// clock) and the gate does not pin.
    pub fn measure(&self, degraded: bool) -> LedgerEntry {
        let id = if degraded { self.id() } else { format!("{}-clean", self.id()) };
        let schedule = degraded.then(|| self.schedule());
        let entry =
            measure_point(&id, self.sites, self.m, self.n, self.algorithm.clone(), schedule);
        LedgerEntry { source: "faults".to_string(), ..entry }
    }
}

/// The registered WAN-degradation scenarios, all on the 4-site grid at
/// Fig. 5's headline configuration (`M = 2²⁰, N = 64`, TSQR with 64
/// domains per cluster).
pub fn fault_points() -> Vec<FaultPoint> {
    let p = |label, window_s, latency_factor, bandwidth_divisor| FaultPoint {
        label,
        sites: 4,
        m: 1_048_576,
        n: 64,
        algorithm: tuned_tsqr(64),
        window_s,
        latency_factor,
        bandwidth_divisor,
    };
    vec![
        // The whole run under a 10×-latency, 10×-less-bandwidth WAN —
        // the "bad day on the backbone" bound.
        p("wan-10x", (0.0, 60.0), 10.0, 10.0),
        // A transient 4×/4× brown-out covering the reduction's WAN phase
        // only; the run mostly rides it out.
        p("wan-brownout", (0.05, 0.25), 4.0, 4.0),
        // Pure latency inflation (congested but not saturated links):
        // the TSQR makespan moves by ~the extra round trips, a direct
        // probe of the paper's latency-dominated WAN term in Eq. (1).
        p("wan-latency-5x", (0.0, 60.0), 5.0, 1.0),
    ]
}

/// Single-process domains per 64-process site: the regime the analytic
/// predictor models, and the only one the tuner searches.
const TUNE_DOMAINS: usize = 64;

/// The autotuner gate point of a figure (`tune/<figure>`): the topology and
/// problem size of its primary headline point, re-run with single-process
/// domains under the reduction tree `tsqr_core::tune::autotune` picks
/// (ledger source `"tune"`). Fig. 4's point runs TSQR on the ScaLAPACK
/// figure's topology; Fig. 8's headline TSQR point groups two processes
/// per domain, so its tune twin drops to one-process domains instead. Also
/// replays the three fixed shapes on the same layout, for the gate's claim
/// that the autotuned tree is never slower than any of them.
fn measure_tune_point(id: &str, point: &FigurePoint) -> (LedgerEntry, Evidence) {
    let rt = grid_runtime(point.sites);
    let rate = Some(calib::kernel_rate_flops(point.n));
    let combine = Some(calib::combine_rate_flops());
    let outcome = tune::autotune(&rt, point.m, point.n, TUNE_DOMAINS, rate, combine);
    let layout = DomainLayout::build(rt.topology(), point.m, point.n, TUNE_DOMAINS);
    let fixed = [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical].map(|shape| {
        let s = tune::replay_makespan(&rt, &layout, &shape, rate, combine).secs();
        (shape, s)
    });
    let tuned = outcome.best().shape.clone();
    let algorithm = Algorithm::Tsqr { shape: tuned.clone(), domains_per_cluster: TUNE_DOMAINS };
    let entry = measure_point(id, point.sites, point.m, point.n, algorithm, None);
    let tuned_s = outcome.replayed.secs();
    (LedgerEntry { source: "tune".to_string(), ..entry }, Evidence::Tune { tuned, tuned_s, fixed })
}

/// The serving gate points, `(name, config)` with record id
/// `serve/<name>`: the ISSUE's 200-request seeded trace at high load under
/// every policy (`<policy>@<load>`), plus the same-shape burst with and
/// without batching (`+batch`). The high-load point is where the
/// disciplines separate; the burst pair is where batching's WAN-message
/// claim is measurable.
pub fn serve_points() -> Vec<(String, ServeConfig)> {
    let point = |policy: ServePolicy, load: f64, requests, single_shape, batch| {
        let name = format!("{}@{load:.1}{}", policy.label(), if batch { "+batch" } else { "" });
        let base = ServeConfig { seed: 42, ..Default::default() };
        (name, ServeConfig { policy, load, requests, batch, single_shape, ..base })
    };
    let hi = |policy| point(policy, 2.5, 200, None, false);
    let burst = |batch| point(ServePolicy::Fifo, 4.0, 60, Some(3), batch);
    vec![
        hi(ServePolicy::Fifo),
        hi(ServePolicy::Sjf),
        hi(ServePolicy::Edf),
        hi(ServePolicy::Fair),
        burst(false),
        burst(true),
    ]
}

/// The fault-injected serving gate points (`serve-faults/<name>`); `grid-tsqr
/// check` pins three of them as COMMCHECK lines as well:
///
/// * `crash-ckpt` / `crash-restart` — a site crash at t = 0.1 s virtual,
///   recovered with checkpointed WAN drain vs full restart;
/// * `crash-replan` — the same crash under a 4-site-wide shape, forcing
///   elastic re-planning onto the three survivors;
/// * `wan-brownout` — a degraded-WAN window plus transient drain drops,
///   with aggressive watermarks so admission browns out and sheds.
pub fn serve_fault_points() -> Vec<(&'static str, ServeConfig)> {
    let base = ServeConfig { requests: 30, load: 1.0, seed: 7, ..Default::default() };
    let crash = FailureSchedule::new(1).crash_site(2, VirtualTime::from_secs(0.1));
    vec![
        ("crash-ckpt", ServeConfig { faults: crash.clone(), ..base.clone() }),
        (
            "crash-restart",
            ServeConfig {
                faults: crash.clone(),
                retry: RetryPolicy { checkpoint_drain: false, ..Default::default() },
                ..base.clone()
            },
        ),
        ("crash-replan", ServeConfig { faults: crash, single_shape: Some(3), ..base.clone() }),
        (
            "wan-brownout",
            ServeConfig {
                requests: 40,
                load: 0.5,
                faults: (0..6)
                    .fold(FailureSchedule::new(1), |s, nth| s.drop_nth_message(0, 2, nth))
                    .degrade_all_wan(
                        VirtualTime::from_secs(0.05),
                        VirtualTime::from_secs(5.0),
                        1.0,
                        8.0,
                    ),
                retry: RetryPolicy { backoff_base_s: 0.2, ..Default::default() },
                brownout: BrownoutConfig { enter_watermark: 1, exit_watermark: 0, shed_slack: 0.0 },
                ..base
            },
        ),
    ]
}

/// Turns a finished serve run into its ledger entry — the one place that
/// knows the column reuse documented in `docs/serving.md` §Ledger:
/// `cp_compute_s` = mean sojourn, `cp_send_s` = p99 sojourn,
/// `cp_wan_msgs` = SLO misses, `wait_s` = total queue wait. There is no
/// Eq. (1) fit, so the fit and its residual are zero.
pub fn serve_record(
    source: &str,
    scenario: &str,
    tree: &str,
    catalog: &ResourceCatalog,
    outcome: &ServeOutcome,
    report: &ServeReport,
) -> LedgerEntry {
    let total_rows: u64 = outcome.records.iter().map(|r| r.request.rows).sum();
    LedgerEntry {
        source: source.to_string(),
        scenario: scenario.to_string(),
        sites: catalog.clusters.len(),
        procs: catalog.total_procs(),
        m: total_rows as usize,
        n: 64,
        tree: tree.to_string(),
        makespan_s: report.horizon_s,
        gflops: report.gflops,
        msgs: report.msgs,
        wan_msgs: report.wan_msgs,
        bytes: report.bytes,
        cp_compute_s: report.mean_sojourn_s,
        cp_send_s: report.p99_sojourn_s,
        cp_wan_msgs: report.slo_miss as u64,
        wait_s: report.total_wait_s,
        env: EnvFingerprint::current(),
        ..LedgerEntry::default() // `seq` is assigned by tsqr_obs::ledger::append_entry
    }
}

/// Runs one serving gate point (`id` = `<family>/<name>`, the entry's
/// scenario) on the Grid'5000 catalog. The ledger source is the family, so
/// the dashboard can segregate chaos runs (`serve-faults`) from clean
/// serving runs.
fn measure_serve(id: &str, cfg: &ServeConfig) -> (LedgerEntry, ServeReport) {
    let catalog = ResourceCatalog::grid5000();
    let outcome = run_serve(&catalog, cfg);
    let report = ServeReport::from_outcome(&outcome);
    let family = id.split_once('/').expect("serve gate ids are <family>/<name>").0;
    let tree = format!("{family}/{}", cfg.policy.label());
    (serve_record(family, id, &tree, &catalog, &outcome, &report), report)
}

/// One point of the perf gate, of any family.
#[derive(Debug, Clone, PartialEq)]
pub enum GatePoint {
    /// A Fig. 4–8 headline configuration.
    Figure(FigurePoint),
    /// A WAN-degradation scenario of the fault injector.
    Fault(FaultPoint),
    /// A figure's primary headline point under its autotuned reduction
    /// tree.
    Tune(FigurePoint),
    /// A serving-layer trace: record id and configuration.
    Serve(String, ServeConfig),
}

/// What the gate's claims read of a measured point beyond its entry.
#[derive(Debug, Clone, PartialEq)]
enum Evidence {
    /// Nothing: a figure or WAN-degradation point.
    None,
    /// The autotuned tree and its replayed makespan, and each fixed
    /// shape's on the same layout (seconds).
    Tune { tuned: TreeShape, tuned_s: f64, fixed: [(TreeShape, f64); 3] },
    /// The run's report, whether a same-seed re-run gave the same entry
    /// and, for a fault-injected point, the report of its failure-free twin.
    Serve { report: Box<ServeReport>, replays: bool, clean: Option<Box<ServeReport>> },
}

impl GatePoint {
    /// Stable identifier used in `BENCH_results.json`.
    pub fn id(&self) -> String {
        match self {
            GatePoint::Figure(p) => p.id(),
            GatePoint::Fault(p) => p.id(),
            GatePoint::Tune(p) => format!("tune/{}", p.figure),
            GatePoint::Serve(id, _) => id.clone(),
        }
    }

    /// Measures the point (asserting the invariants of its family): its
    /// ledger entry and the evidence its claims read.
    fn measure(&self) -> (LedgerEntry, Evidence) {
        match self {
            GatePoint::Figure(p) => (p.measure(), Evidence::None),
            GatePoint::Fault(p) => (p.measure(true), Evidence::None),
            GatePoint::Tune(p) => measure_tune_point(&self.id(), p),
            GatePoint::Serve(id, cfg) => {
                let (entry, report) = measure_serve(id, cfg);
                let replays = measure_serve(id, cfg).0 == entry;
                let clean = id.starts_with("serve-faults/").then(|| {
                    let cfg = ServeConfig { faults: FailureSchedule::default(), ..cfg.clone() };
                    Box::new(ServeReport::from_outcome(&run_serve(
                        &ResourceCatalog::grid5000(),
                        &cfg,
                    )))
                });
                (entry, Evidence::Serve { report: Box::new(report), replays, clean })
            }
        }
    }
}

/// The gate registry: every point `grid-tsqr bench-check` measures, in the
/// order of the committed `BENCH_baseline.json`.
pub fn gate_points() -> Vec<GatePoint> {
    let headline = figures().iter().flat_map(|f| f.points).cloned().map(GatePoint::Figure);
    let tuned = figures().iter().filter_map(|f| f.points.first()).cloned().map(GatePoint::Tune);
    let serve = serve_points().into_iter().map(|(name, cfg)| (format!("serve/{name}"), cfg));
    let serve_faults =
        serve_fault_points().into_iter().map(|(name, cfg)| (format!("serve-faults/{name}"), cfg));
    headline
        .chain(fault_points().into_iter().map(GatePoint::Fault))
        .chain(tuned)
        .chain(serve.chain(serve_faults).map(|(id, cfg)| GatePoint::Serve(id, cfg)))
        .collect()
}

/// Measures every gate point on one thread per core: their entries in
/// registry order, and the gate's claims on them as [`Check`]s: the
/// serving disciplines, batching, replay, the tuner and the recovery layer.
pub fn measure_gate() -> (Vec<LedgerEntry>, Vec<Check>) {
    let measured = on_pool(&gate_points(), cores(), GatePoint::measure);
    let claims = gate_claims(&measured);
    (measured.into_iter().map(|(entry, _)| entry).collect(), claims)
}

/// The gate's headline claims on its measured points: the serving
/// disciplines genuinely differ and SJF is no worse than FIFO at high load
/// (the textbook claim, held as data); batching cuts WAN messages on a
/// same-shape burst; a same-seed re-run reproduces every serve entry; no
/// autotuned tree is slower than a fixed shape (ties allowed: the search
/// table lists fixed shapes first so a tie resolves to one of them); and
/// the recovery layer's claims on the fault-injected serving points. A
/// pure function of the entries and their evidence: a claim that does not
/// hold is a failed [`Check`], never a panic.
fn gate_claims(measured: &[(LedgerEntry, Evidence)]) -> Vec<Check> {
    let mut claims = Artifact::default();
    let by_id = |id: &str| -> &LedgerEntry {
        &measured.iter().find(|(e, _)| e.scenario == id).expect("gate point measured").0
    };
    let (fifo, sjf) = (by_id("serve/fifo@2.5"), by_id("serve/sjf@2.5"));
    claims.check(
        "FIFO and SJF differ on the same trace",
        fifo.cp_send_s != sjf.cp_send_s || fifo.gflops != sjf.gflops,
        format!("p99 sojourn {} vs {} s", fifo.cp_send_s, sjf.cp_send_s),
    );
    claims.check(
        "SJF's mean sojourn does not exceed FIFO's at high load",
        sjf.cp_compute_s <= fifo.cp_compute_s,
        format!("{} vs {} s", sjf.cp_compute_s, fifo.cp_compute_s),
    );
    let (unbatched, batched) = (by_id("serve/fifo@4.0"), by_id("serve/fifo@4.0+batch"));
    claims.check(
        "batching strictly cuts WAN messages on a same-shape burst",
        batched.wan_msgs < unbatched.wan_msgs,
        format!("{} vs {} unbatched", batched.wan_msgs, unbatched.wan_msgs),
    );
    let mut faults = Vec::new();
    for (entry, evidence) in measured {
        let id = &entry.scenario;
        match evidence {
            Evidence::None => {}
            Evidence::Tune { tuned, tuned_s, fixed } => claims.check(
                format!("{id}: the autotuned tree is no slower than any fixed shape"),
                fixed.iter().all(|(_, s)| *tuned_s <= s * (1.0 + 1e-12)),
                format!("{tuned:?} {tuned_s} s; fixed {fixed:?}"),
            ),
            Evidence::Serve { report, replays, clean } => {
                let detail = if *replays { "identical" } else { "differs" };
                claims.check(
                    format!("{id}: a same-seed re-run reproduces the entry"),
                    *replays,
                    detail,
                );
                if let (Some(name), Some(clean)) = (id.strip_prefix("serve-faults/"), clean) {
                    faults.push((name, report, clean));
                }
            }
        }
    }
    let by = |name: &str| faults.iter().find(|f| f.0 == name).expect("fault gate point measured").1;
    for name in ["crash-ckpt", "crash-restart", "crash-replan"] {
        let r = by(name);
        claims.check(
            format!("{name}: the scripted crash faults someone and every faulted job recovers"),
            r.fault_events > 0 && r.retried_completions > 0 && r.failed_permanent == 0,
            format!(
                "{} fault events, {} retried completions, {} failed for good",
                r.fault_events, r.retried_completions, r.failed_permanent
            ),
        );
    }
    let (ckpt, restart) = (by("crash-ckpt").mean_sojourn_s, by("crash-restart").mean_sojourn_s);
    claims.check(
        "checkpointed drain does not lose to full restart",
        ckpt <= restart,
        format!("mean sojourn {ckpt} vs {restart} s"),
    );
    let replan = by("crash-replan").completed;
    claims.check(
        "elastic re-planning completes every 4-site request on 3 survivors",
        replan == 30,
        format!("{replan} of 30 completed"),
    );
    let brown = by("wan-brownout");
    claims.check(
        "degraded WAN drives brownout shedding for measurable virtual time",
        brown.shed > 0 && brown.brownout_s > 0.0,
        format!("{} shed, {} s in brownout", brown.shed, brown.brownout_s),
    );
    for (name, faulty, clean) in &faults {
        // Re-planning is the one fault response that can come out net
        // *faster*: the 3-survivor trees are narrower, so each drain
        // crosses fewer contended WAN links. Its claim is that the trees
        // genuinely changed shape; every other fault costs sojourn time.
        let (what, pass, detail) = if *name == "crash-replan" {
            let (f, c) = (faulty.wan_msgs, clean.wan_msgs);
            (
                "surviving-site re-plans change the WAN traffic pattern",
                f != c,
                format!("{f} vs clean {c} WAN messages"),
            )
        } else {
            let (f, c) = (faulty.mean_sojourn_s, clean.mean_sojourn_s);
            ("faults cost sojourn time", f > c, format!("mean {f} vs clean {c} s"))
        };
        claims.check(format!("{name}: {what}"), pass, detail);
    }
    claims.checks
}

/// Serializes the gated columns of `records` as the `BENCH_results.json`
/// document (schema `grid-tsqr-bench/v1`, documented in
/// `docs/observability.md` §8.6): `id` is the entry's scenario and
/// `model_residual` its fit's residual. Deterministic: fixed key order,
/// shortest-round-trip numbers.
pub fn records_json(records: &[LedgerEntry]) -> String {
    let mut out = String::from("{\n  \"schema\": \"grid-tsqr-bench/v1\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"sites\": {}, \"m\": {}, \"n\": {}, \
             \"makespan_s\": {}, \"gflops\": {}, \"msgs\": {}, \"wan_msgs\": {}, \
             \"bytes\": {}, \"cp_compute_s\": {}, \"cp_send_s\": {}, \
             \"cp_wan_msgs\": {}, \"wait_s\": {}, \"model_residual\": {}}}",
            escape(&r.scenario),
            r.sites,
            r.m,
            r.n,
            num(r.makespan_s),
            num(r.gflops),
            r.msgs,
            r.wan_msgs,
            r.bytes,
            num(r.cp_compute_s),
            num(r.cp_send_s),
            r.cp_wan_msgs,
            num(r.wait_s),
            num(r.fit.rel_residual),
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_*.json` document back into entries with only the gated
/// columns of [`records_json`] set. A count that is negative or fractional
/// is an error naming its field, exactly as in a ledger line.
pub fn parse_records(text: &str) -> Result<Vec<LedgerEntry>, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("grid-tsqr-bench/v1") => {}
        other => return Err(format!("unsupported bench schema {other:?}")),
    }
    let recs = doc.get("records").and_then(Json::as_arr).ok_or("missing records array")?;
    let record = |r: &Json| -> Result<LedgerEntry, String> {
        Ok(LedgerEntry {
            scenario: str_field(r, "id")?,
            sites: u64_field(r, "sites")? as usize,
            m: u64_field(r, "m")? as usize,
            n: u64_field(r, "n")? as usize,
            makespan_s: f64_field(r, "makespan_s")?,
            gflops: f64_field(r, "gflops")?,
            msgs: u64_field(r, "msgs")?,
            wan_msgs: u64_field(r, "wan_msgs")?,
            bytes: u64_field(r, "bytes")?,
            cp_compute_s: f64_field(r, "cp_compute_s")?,
            cp_send_s: f64_field(r, "cp_send_s")?,
            cp_wan_msgs: u64_field(r, "cp_wan_msgs")?,
            wait_s: f64_field(r, "wait_s")?,
            fit: ModelCoeffs {
                rel_residual: f64_field(r, "model_residual")?,
                ..Default::default()
            },
            ..Default::default()
        })
    };
    recs.iter()
        .enumerate()
        .map(|(i, r)| record(r).map_err(|e| format!("record {i}: {e}")))
        .collect()
}

/// Compares the gated columns of measured entries against a baseline.
/// Counts must match exactly; seconds/Gflop/s to `rel_tol` relative (the
/// simulation is deterministic, so 1e-9 is the expected setting — the
/// tolerance only absorbs float-summation changes from refactors);
/// residuals to an absolute 1e-6. Returns human-readable failure lines
/// (empty = pass).
pub fn compare_records(
    baseline: &[LedgerEntry],
    measured: &[LedgerEntry],
    rel_tol: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let id = &b.scenario;
        let Some(m) = measured.iter().find(|m| m.scenario == *id) else {
            failures.push(format!("{id}: missing from measured records"));
            continue;
        };
        let mut exact = |name: &str, want: u64, got: u64| {
            if want != got {
                failures.push(format!("{id}: {name} changed {want} -> {got}"));
            }
        };
        exact("sites", b.sites as u64, m.sites as u64);
        exact("m", b.m as u64, m.m as u64);
        exact("n", b.n as u64, m.n as u64);
        exact("msgs", b.msgs, m.msgs);
        exact("wan_msgs", b.wan_msgs, m.wan_msgs);
        exact("bytes", b.bytes, m.bytes);
        exact("cp_wan_msgs", b.cp_wan_msgs, m.cp_wan_msgs);
        let mut close = |name: &str, want: f64, got: f64| {
            let scale = want.abs().max(1e-12);
            if ((got - want) / scale).abs() > rel_tol {
                failures.push(format!(
                    "{id}: {name} drifted {want} -> {got} (rel {:.3e} > {rel_tol:.1e})",
                    ((got - want) / scale).abs()
                ));
            }
        };
        close("makespan_s", b.makespan_s, m.makespan_s);
        close("gflops", b.gflops, m.gflops);
        close("cp_compute_s", b.cp_compute_s, m.cp_compute_s);
        close("cp_send_s", b.cp_send_s, m.cp_send_s);
        close("wait_s", b.wait_s, m.wait_s);
        let (want, got) = (b.fit.rel_residual, m.fit.rel_residual);
        if (want - got).abs() > 1e-6 {
            failures.push(format!("{id}: model_residual drifted {want} -> {got}"));
        }
    }
    for m in measured {
        if !baseline.iter().any(|b| b.scenario == m.scenario) {
            failures.push(format!(
                "{}: not in baseline (bless with scripts/bench_check.sh --bless)",
                m.scenario
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_registry_lists_the_committed_baseline_ids_in_order() {
        // No point is measured: registry/golden drift shows up in
        // milliseconds instead of at the end of the gate.
        let text = include_str!("../../../BENCH_baseline.json");
        let entries = parse_records(text).unwrap();
        let baseline: Vec<&str> = entries.iter().map(|e| e.scenario.as_str()).collect();
        let registry: Vec<String> = gate_points().iter().map(GatePoint::id).collect();
        assert_eq!(registry, baseline);
        // The gate file is exactly the gated columns of the entries.
        assert_eq!(records_json(&entries), text);
    }

    fn rec(id: &str, msgs: u64, makespan: f64) -> LedgerEntry {
        LedgerEntry {
            scenario: id.into(),
            sites: 2,
            m: 1 << 20,
            n: 64,
            makespan_s: makespan,
            gflops: 10.0,
            msgs,
            wan_msgs: 1,
            bytes: 4096,
            cp_compute_s: makespan * 0.9,
            cp_send_s: makespan * 0.1,
            cp_wan_msgs: 1,
            wait_s: 0.25,
            fit: ModelCoeffs { rel_residual: 0.01, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![rec("fig5/tsqr", 127, 0.134261), rec("fig4/scalapack", 113792, 1.184)];
        let text = records_json(&records);
        let back = parse_records(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn a_count_that_is_not_a_count_is_refused_by_name() {
        let text = records_json(&[rec("fig5/tsqr", 127, 0.134261)]);
        for (from, to, field) in [
            ("\"msgs\": 127,", "\"msgs\": 127.9,", "\"msgs\""),
            ("\"cp_wan_msgs\": 1,", "\"cp_wan_msgs\": -1,", "\"cp_wan_msgs\""),
        ] {
            assert!(text.contains(from), "{text}");
            let err = parse_records(&text.replace(from, to)).unwrap_err();
            assert!(err.contains(field) && err.contains("not a non-negative integer"), "{err}");
        }
    }

    #[test]
    fn compare_flags_count_and_time_drift() {
        let base = vec![rec("fig5/tsqr", 127, 0.134261)];
        assert!(compare_records(&base, &base, 1e-9).is_empty());
        let mut worse = base.clone();
        worse[0].msgs = 128;
        worse[0].makespan_s *= 1.0 + 1e-6;
        let fails = compare_records(&base, &worse, 1e-9);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("msgs changed")));
        assert!(fails.iter().any(|f| f.contains("makespan_s drifted")));
        // Missing and extra records are both flagged.
        let fails = compare_records(&base, &[rec("fig9/x", 1, 1.0)], 1e-9);
        assert_eq!(fails.len(), 2);
    }

    /// The gate's serving points: milliseconds each.
    fn serve_gate_points() -> Vec<GatePoint> {
        gate_points().into_iter().filter(|p| matches!(p, GatePoint::Serve(..))).collect()
    }

    #[test]
    fn the_serve_points_measure_the_same_on_any_number_of_threads() {
        let points = serve_gate_points();
        assert_eq!(points.len(), 10);
        let one = on_pool(&points, 1, GatePoint::measure);
        assert_eq!(one, on_pool(&points, 2, GatePoint::measure));
        let claims = gate_claims(&one);
        assert!(claims.iter().all(|c| c.pass), "{claims:?}");
    }

    #[test]
    fn a_claim_that_does_not_hold_is_a_failed_check_not_a_panic() {
        let mut measured = on_pool(&serve_gate_points(), 2, GatePoint::measure);
        let at = |m: &[(LedgerEntry, Evidence)], id: &str| {
            m.iter().position(|(e, _)| e.scenario == id).unwrap()
        };
        // SJF's mean sojourn above FIFO's, and a batch that cuts no WAN
        // message: both claims fail, and only those.
        let (fifo, sjf) = (at(&measured, "serve/fifo@2.5"), at(&measured, "serve/sjf@2.5"));
        measured[sjf].0.cp_compute_s = 2.0 * measured[fifo].0.cp_compute_s;
        let (solo, batch) =
            (at(&measured, "serve/fifo@4.0"), at(&measured, "serve/fifo@4.0+batch"));
        measured[batch].0.wan_msgs = measured[solo].0.wan_msgs;
        let failed: Vec<String> =
            gate_claims(&measured).iter().filter(|c| !c.pass).map(Check::to_string).collect();
        let names = [
            "[FAIL] SJF's mean sojourn does not exceed FIFO's at high load: ",
            "[FAIL] batching strictly cuts WAN messages on a same-shape burst: ",
        ];
        assert_eq!(failed.len(), names.len(), "{failed:#?}");
        for (got, want) in failed.iter().zip(names) {
            assert!(got.starts_with(want), "{got}");
        }
    }

    #[test]
    fn fault_registry_scenarios_are_well_formed() {
        let pts = fault_points();
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(p.id().starts_with("faults/"));
            assert!(p.window_s.0 < p.window_s.1);
            assert!(p.latency_factor >= 1.0 && p.bandwidth_divisor >= 1.0);
            assert!(p.latency_factor > 1.0 || p.bandwidth_divisor > 1.0);
            let _ = p.schedule(); // builder asserts its own invariants
        }
        let mut ids: Vec<String> = pts.iter().map(FaultPoint::id).collect();
        ids.dedup();
        assert_eq!(ids.len(), pts.len(), "scenario ids must be unique");
    }

    #[test]
    fn degraded_scenario_keeps_traffic_and_slows_the_clock() {
        // A down-scaled twin of the registered scenarios: cheap enough
        // for unit tests, same invariants.
        let p = FaultPoint {
            label: "test",
            sites: 2,
            m: 1 << 17,
            n: 64,
            algorithm: tuned_tsqr(64),
            window_s: (0.0, 60.0),
            latency_factor: 10.0,
            bandwidth_divisor: 10.0,
        };
        let clean = p.measure(false);
        let slow = p.measure(true);
        assert_eq!(clean.scenario, "faults/test-clean");
        assert_eq!(slow.scenario, "faults/test");
        assert_eq!(
            (clean.msgs, clean.wan_msgs, clean.bytes),
            (slow.msgs, slow.wan_msgs, slow.bytes),
            "degradation must not change routing"
        );
        assert!(slow.makespan_s > clean.makespan_s, "degradation must slow the run");
    }

    #[test]
    fn measure_point_smoke_on_a_small_config() {
        // A tiny single-site TSQR point: cheap enough for unit tests and
        // exercises the full traced-measurement path including the two
        // embedded invariants.
        let p = FigurePoint {
            figure: "fig7",
            label: "tsqr",
            sites: 1,
            m: 1 << 17,
            n: 64,
            algorithm: tuned_tsqr(64),
        };
        let r = p.measure();
        assert!(r.makespan_s > 0.0 && r.gflops > 0.0);
        assert!(r.msgs > 0);
        assert_eq!(r.wan_msgs, 0, "single site has no WAN traffic");
        assert!(r.fit.rel_residual >= 0.0);
    }
}
