//! The gate registry and the perf-regression records behind
//! `BENCH_results.json`.
//!
//! Each of Figs. 4–8 has one (or two) *headline configurations* — the
//! points whose traces `grid-tsqr figure --trace-out` dumps and whose
//! measured numbers the repository's perf-regression gate pins. They are
//! rows of the artifact registry ([`crate::artifacts::Figure::points`]);
//! [`crate::harness::run_figure`] and `grid-tsqr bench-check` both read
//! them there, so the figure a reader traces is byte-for-byte the
//! configuration the gate measures. The gate's other families (WAN
//! degradation, autotuned trees, serving, fault-injected serving) register
//! here; [`gate_points`] lists every point in baseline order and
//! [`measure_gate`] measures them.
//!
//! A [`BenchRecord`] carries everything `scripts/bench_check.sh` compares
//! against the committed `BENCH_baseline.json`: the makespan and Gflop/s,
//! the Eq. (1) traffic totals (message/byte counts, WAN messages — the
//! paper's headline `O(log #clusters)` vs `2N·log₂P` claim as data), the
//! critical-path split, the total blocked-receive seconds, and the
//! model-fit residual. The simulation is deterministic, so counts compare
//! exactly and times to 1e-9 relative.

use std::fmt::Write as _;

use tsqr_core::domains::DomainLayout;
use tsqr_core::experiment::{Algorithm, Mode};
use tsqr_core::modelfit;
use tsqr_core::tree::TreeShape;
use tsqr_core::tune;
use tsqr_gridmpi::{FoldedProfile, MetricsRegistry, PathSummary};
use tsqr_netsim::{FailureSchedule, VirtualTime};
use tsqr_obs::ledger::{EnvFingerprint, LedgerEntry, ModelCoeffs, PhaseRow};
use tsqr_qcg::ResourceCatalog;
use tsqr_serve::{
    serve as run_serve, BrownoutConfig, Policy as ServePolicy, PolicyReport as ServeReport,
    RetryPolicy, ServeConfig, ServeOutcome,
};

use crate::artifacts::figures;
use crate::calib;
use crate::harness::{grid_runtime, tuned_tsqr, platform_runtime, run_point};
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
    pub fn measure(&self) -> (BenchRecord, LedgerEntry) {
        measure_point(&self.id(), self.sites, self.m, self.n, self.algorithm.clone(), None)
    }
}

/// One measured headline point — the unit of the perf-regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// `figure/label` identifier.
    pub id: String,
    /// Sites / rows / columns of the configuration.
    pub sites: usize,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// The paper's Gflop/s metric.
    pub gflops: f64,
    /// Total messages sent.
    pub msgs: u64,
    /// Messages that crossed a wide-area link.
    pub wan_msgs: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Critical-path compute seconds.
    pub cp_compute_s: f64,
    /// Critical-path send seconds.
    pub cp_send_s: f64,
    /// WAN messages *on the critical path*.
    pub cp_wan_msgs: u64,
    /// Total blocked-receive seconds across all ranks.
    pub wait_s: f64,
    /// Relative residual of the Eq. (1) least-squares fit.
    pub model_residual: f64,
}

/// Stable ledger label for the configuration's reduction structure.
fn tree_label(algorithm: &Algorithm) -> String {
    match algorithm {
        Algorithm::Tsqr { shape, domains_per_cluster } => {
            format!("{shape:?}/dpc{domains_per_cluster}")
        }
        Algorithm::ScalapackQr2 => "scalapack-qr2".to_string(),
        Algorithm::ScalapackQrf { nb, nx } => format!("scalapack-qrf/nb{nb}/nx{nx}"),
    }
}

/// Distills a finished run into an experiment-ledger entry
/// (`grid-tsqr-ledger/v1`): totals and per-phase Eq. (1) ledgers from
/// the metrics registries, the critical-path split of the run's trace
/// (zeros for an untraced run), the fitted model with per-phase
/// predictions, and the environment fingerprint. Shared by the bench
/// harness and the CLI's `tune`/`faults` ledger hooks.
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
    let mut agg = MetricsRegistry::default();
    for reg in metrics {
        agg.merge(reg);
    }
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
/// schedule) and distills it into a [`BenchRecord`] and a ledger entry
/// (source `"figure"`; callers with a different provenance overwrite
/// it). Also asserts the three cross-layer invariants the observability
/// stack guarantees: the critical path tiles the makespan, the wait-state
/// classification reconciles with the metrics registry to 1e-9, and the
/// folded-stack profile tiles every rank's timeline — so every bench run
/// doubles as an integration test of the diagnostics.
pub fn measure_point(
    id: &str,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
    schedule: Option<FailureSchedule>,
) -> (BenchRecord, LedgerEntry) {
    let tree = tree_label(&algorithm);
    let rt = platform_runtime(sites, None, true, schedule);
    let res = run_point(&rt, m, n, algorithm, false, Mode::Symbolic);
    let trace = res.trace.as_ref().expect("tracing was enabled");
    let cp = trace.critical_path();
    assert!(
        (cp.total().secs() - res.makespan.secs()).abs()
            <= 1e-9 * res.makespan.secs().max(1.0),
        "critical path must tile the makespan ({id})"
    );
    let cps = cp.summary();
    let diag = trace.diagnose(rt.topology().num_procs(), 64);
    let drift = diag.reconcile(&res.metrics);
    // Relative 1e-9: the two sides sum millions of f64 intervals in
    // different orders, so the agreement is exact up to rounding noise
    // proportional to the total wait.
    let wait_scale = diag.total().total_wait_s().max(1.0);
    assert!(
        drift <= 1e-9 * wait_scale,
        "wait states must reconcile with recv_wait_s ({id}: drift {drift})"
    );
    // Folded-profile tiling invariant (`docs/observability.md` §9): the
    // flamegraph's per-rank leaf self-times must sum to that rank's
    // makespan — nothing dropped, nothing double-counted.
    let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
    let tile_err = profile.max_tiling_error_rel();
    assert!(
        tile_err <= 1e-9,
        "folded profile must tile every rank's timeline ({id}: rel err {tile_err:.3e})"
    );
    let entry = ledger_entry(
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
        Some(cps),
    );
    let record = BenchRecord {
        id: id.to_string(),
        sites,
        m,
        n,
        makespan_s: res.makespan.secs(),
        gflops: res.gflops,
        msgs: res.totals.total_msgs(),
        wan_msgs: res.totals.inter_cluster_msgs(),
        bytes: res.totals.total_bytes(),
        cp_compute_s: cps.compute_s,
        cp_send_s: cps.send_s,
        cp_wan_msgs: cps.wan_messages as u64,
        wait_s: diag.total().total_wait_s(),
        model_residual: entry.fit.rel_residual,
    };
    (record, entry)
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
    pub fn measure(&self, degraded: bool) -> (BenchRecord, LedgerEntry) {
        let id = if degraded { self.id() } else { format!("{}-clean", self.id()) };
        let schedule = degraded.then(|| self.schedule());
        let (record, mut entry) =
            measure_point(&id, self.sites, self.m, self.n, self.algorithm.clone(), schedule);
        entry.source = "faults".to_string();
        (record, entry)
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
/// per domain, so its tune twin drops to one-process domains instead.
/// Before measuring, asserts the gate's headline claim: the autotuned
/// tree's replayed makespan is never slower than any of the three fixed
/// shapes on this topology (ties allowed — the search table lists fixed
/// shapes first precisely so a tie resolves to one of them).
fn measure_tune_point(id: &str, point: &FigurePoint) -> (BenchRecord, LedgerEntry) {
    let rt = grid_runtime(point.sites);
    let rate = Some(calib::kernel_rate_flops(point.n));
    let combine = Some(calib::combine_rate_flops());
    let outcome = tune::autotune(&rt, point.m, point.n, TUNE_DOMAINS, rate, combine);
    let layout = DomainLayout::build(rt.topology(), point.m, point.n, TUNE_DOMAINS);
    for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
        let fixed = tune::replay_makespan(&rt, &layout, &shape, rate, combine);
        assert!(
            outcome.replayed.secs() <= fixed.secs() * (1.0 + 1e-12),
            "{id}: autotuned {:?} ({} s) slower than fixed {shape:?} ({} s)",
            outcome.best().shape,
            outcome.replayed.secs(),
            fixed.secs()
        );
    }
    let tuned = Algorithm::Tsqr {
        shape: outcome.best().shape.clone(),
        domains_per_cluster: TUNE_DOMAINS,
    };
    let (record, mut entry) = measure_point(id, point.sites, point.m, point.n, tuned, None);
    entry.source = "tune".to_string();
    (record, entry)
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
    let base = ServeConfig {
        requests: 30,
        load: 1.0,
        seed: 7,
        ..Default::default()
    };
    let crash = FailureSchedule::new(1).crash_site(2, VirtualTime::from_secs(0.1));
    vec![
        (
            "crash-ckpt",
            ServeConfig { faults: crash.clone(), ..base.clone() },
        ),
        (
            "crash-restart",
            ServeConfig {
                faults: crash.clone(),
                retry: RetryPolicy { checkpoint_drain: false, ..Default::default() },
                ..base.clone()
            },
        ),
        (
            "crash-replan",
            ServeConfig { faults: crash, single_shape: Some(3), ..base.clone() },
        ),
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
                brownout: BrownoutConfig {
                    enter_watermark: 1,
                    exit_watermark: 0,
                    shed_slack: 0.0,
                },
                ..base
            },
        ),
    ]
}

/// Turns a finished serve run into its gate record and ledger entry — the
/// one place that knows the column reuse documented in `docs/serving.md`
/// §Ledger: `cp_compute_s` = mean sojourn, `cp_send_s` = p99 sojourn,
/// `cp_wan_msgs` = SLO misses, `wait_s` = total queue wait. There is no
/// Eq. (1) fit, so `model_residual` and the fit are zero. `id` names the
/// record; `source`, `scenario` and `tree` label the entry.
pub fn serve_record(
    id: &str,
    source: &str,
    scenario: &str,
    tree: &str,
    catalog: &ResourceCatalog,
    outcome: &ServeOutcome,
    report: &ServeReport,
) -> (BenchRecord, LedgerEntry) {
    let total_rows: u64 = outcome.records.iter().map(|r| r.request.rows).sum();
    let entry = LedgerEntry {
        seq: 0, // assigned by tsqr_obs::ledger::append_entry
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
        phases: Vec::new(),
        fit: ModelCoeffs::default(),
        env: EnvFingerprint::current(),
    };
    let record = BenchRecord {
        id: id.to_string(),
        sites: entry.sites,
        m: total_rows,
        n: entry.n,
        makespan_s: entry.makespan_s,
        gflops: entry.gflops,
        msgs: entry.msgs,
        wan_msgs: entry.wan_msgs,
        bytes: entry.bytes,
        cp_compute_s: entry.cp_compute_s,
        cp_send_s: entry.cp_send_s,
        cp_wan_msgs: entry.cp_wan_msgs,
        wait_s: entry.wait_s,
        model_residual: entry.fit.rel_residual,
    };
    (record, entry)
}

/// Runs one serving gate point (`id` = `<family>/<name>`) on the Grid'5000
/// catalog. The ledger source is the family, so the dashboard can
/// segregate chaos runs (`serve-faults`) from clean serving runs.
fn measure_serve(id: &str, cfg: &ServeConfig) -> (BenchRecord, LedgerEntry, ServeReport) {
    let catalog = ResourceCatalog::grid5000();
    let outcome = run_serve(&catalog, cfg);
    let report = ServeReport::from_outcome(&outcome);
    let family = id.split_once('/').expect("serve gate ids are <family>/<name>").0;
    let tree = format!("{family}/{}", cfg.policy.label());
    let (record, entry) =
        serve_record(id, family, &format!("bench/{id}"), &tree, &catalog, &outcome, &report);
    (record, entry, report)
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

    /// Measures the point (asserting the invariants of its family).
    pub fn measure(&self) -> (BenchRecord, LedgerEntry) {
        match self {
            GatePoint::Figure(p) => p.measure(),
            GatePoint::Fault(p) => p.measure(true),
            GatePoint::Tune(p) => measure_tune_point(&self.id(), p),
            GatePoint::Serve(id, cfg) => {
                let (record, entry, _) = measure_serve(id, cfg);
                (record, entry)
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
    let serve_faults = serve_fault_points()
        .into_iter()
        .map(|(name, cfg)| (format!("serve-faults/{name}"), cfg));
    headline
        .chain(fault_points().into_iter().map(GatePoint::Fault))
        .chain(tuned)
        .chain(serve.chain(serve_faults).map(|(id, cfg)| GatePoint::Serve(id, cfg)))
        .collect()
}

/// Measures every gate point in registry order, handing each record to
/// `progress` as it lands, then asserts the serving layer's headline
/// claims on the freshly measured data (the tuner's claim is asserted per
/// point, before it is measured):
///
/// * FIFO and SJF genuinely differ on the same seeded high-load trace
///   (p99 sojourn or throughput — a scheduler that cannot change the
///   outcome is not scheduling);
/// * SJF's mean sojourn is no worse than FIFO's at high load (the
///   textbook shortest-job-first claim, held as data);
/// * batching strictly reduces WAN messages on the same-shape burst;
/// * a same-seed re-run reproduces every serve record exactly;
/// * the recovery layer's claims on the fault-injected points (listed on
///   `assert_serve_fault_claims`).
pub fn measure_gate(mut progress: impl FnMut(&BenchRecord)) -> Vec<(BenchRecord, LedgerEntry)> {
    let points = gate_points();
    let mut all = Vec::with_capacity(points.len());
    for point in &points {
        let measured = point.measure();
        progress(&measured.0);
        all.push(measured);
    }
    let by_id = |id: &str| -> &BenchRecord {
        &all.iter().find(|(r, _)| r.id == id).expect("gate point measured").0
    };
    let fifo = by_id("serve/fifo@2.5");
    let sjf = by_id("serve/sjf@2.5");
    assert!(
        fifo.cp_send_s != sjf.cp_send_s || fifo.gflops != sjf.gflops,
        "fifo and sjf must differ on the same trace (p99 {} vs {})",
        fifo.cp_send_s,
        sjf.cp_send_s
    );
    assert!(
        sjf.cp_compute_s <= fifo.cp_compute_s,
        "SJF mean sojourn {} must not exceed FIFO's {} at high load",
        sjf.cp_compute_s,
        fifo.cp_compute_s
    );
    let unbatched = by_id("serve/fifo@4.0");
    let batched = by_id("serve/fifo@4.0+batch");
    assert!(
        batched.wan_msgs < unbatched.wan_msgs,
        "batching must strictly cut WAN messages on a same-shape burst \
         ({} vs {})",
        batched.wan_msgs,
        unbatched.wan_msgs
    );
    // The replay of the fault points doubles as the source of the reports
    // their claims are stated on.
    let mut fault_reports = Vec::new();
    for point in &points {
        let GatePoint::Serve(id, cfg) = point else { continue };
        let (replay, _, report) = measure_serve(id, cfg);
        assert_eq!(by_id(id), &replay, "{id}: serve records must replay identically");
        if let Some(name) = id.strip_prefix("serve-faults/") {
            fault_reports.push((name, cfg, report));
        }
    }
    assert_serve_fault_claims(&fault_reports);
    all
}

/// The recovery layer's headline claims, on the reports of the
/// [`serve_fault_points`] (`(name, config, report)`):
///
/// * every crash scenario both faults *and* recovers (fault events and
///   retried completions are nonzero, nothing fails permanently);
/// * checkpointed drain beats full restart in mean sojourn on the same
///   crash (the retry pays only the residual WAN drain);
/// * the elastic re-plan scenario still completes every request even
///   though its 4-site shape lost a site;
/// * the degraded-WAN scenario actually browns out (sheds > 0, nonzero
///   brownout seconds);
/// * injecting faults is never free: each scenario's mean sojourn is
///   strictly worse than its failure-free twin's.
fn assert_serve_fault_claims(reports: &[(&str, &ServeConfig, ServeReport)]) {
    let by = |name: &str| -> &ServeReport {
        &reports.iter().find(|(n, _, _)| *n == name).expect("fault gate point measured").2
    };
    for name in ["crash-ckpt", "crash-restart", "crash-replan"] {
        let rep = by(name);
        assert!(rep.fault_events > 0, "{name}: the scripted crash must fault someone");
        assert!(rep.retried_completions > 0, "{name}: faulted jobs must recover via retry");
        assert_eq!(rep.failed_permanent, 0, "{name}: the retry budget suffices here");
    }
    assert!(
        by("crash-ckpt").mean_sojourn_s <= by("crash-restart").mean_sojourn_s,
        "checkpointed drain must not lose to full restart ({} vs {})",
        by("crash-ckpt").mean_sojourn_s,
        by("crash-restart").mean_sojourn_s
    );
    let replan = by("crash-replan");
    assert_eq!(
        replan.completed, 30,
        "elastic re-planning must complete every 4-site request on 3 survivors"
    );
    let brown = by("wan-brownout");
    assert!(brown.shed > 0, "degraded WAN must drive brownout shedding");
    assert!(brown.brownout_s > 0.0, "brownout must stay open for measurable virtual time");
    for (name, cfg, faulty) in reports {
        let clean = ServeReport::from_outcome(&run_serve(
            &ResourceCatalog::grid5000(),
            &ServeConfig { faults: FailureSchedule::default(), ..(*cfg).clone() },
        ));
        if *name == "crash-replan" {
            // Re-planning is the one fault response that can come out
            // net *faster*: the 3-survivor trees are narrower, so each
            // drain crosses fewer contended WAN links. The structural
            // claim is that the trees genuinely changed shape.
            assert_ne!(
                faulty.wan_msgs, clean.wan_msgs,
                "{name}: surviving-site re-plans must change the WAN traffic pattern"
            );
        } else {
            assert!(
                faulty.mean_sojourn_s > clean.mean_sojourn_s,
                "{name}: faults must cost sojourn time ({} vs clean {})",
                faulty.mean_sojourn_s,
                clean.mean_sojourn_s
            );
        }
    }
}

/// Serializes records as the `BENCH_results.json` document (schema
/// documented in `docs/observability.md` §8.4). Deterministic: fixed key
/// order, shortest-round-trip numbers.
pub fn records_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": \"grid-tsqr-bench/v1\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"sites\": {}, \"m\": {}, \"n\": {}, \
             \"makespan_s\": {}, \"gflops\": {}, \"msgs\": {}, \"wan_msgs\": {}, \
             \"bytes\": {}, \"cp_compute_s\": {}, \"cp_send_s\": {}, \
             \"cp_wan_msgs\": {}, \"wait_s\": {}, \"model_residual\": {}}}",
            escape(&r.id),
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
            num(r.model_residual),
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_*.json` document back into records.
pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("grid-tsqr-bench/v1") => {}
        other => return Err(format!("unsupported bench schema {other:?}")),
    }
    let recs = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing records array")?;
    let f = |r: &Json, k: &str| -> Result<f64, String> {
        r.get(k).and_then(Json::as_num).ok_or(format!("record missing {k:?}"))
    };
    recs.iter()
        .map(|r| {
            Ok(BenchRecord {
                id: r
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("record missing \"id\"")?
                    .to_string(),
                sites: f(r, "sites")? as usize,
                m: f(r, "m")? as u64,
                n: f(r, "n")? as usize,
                makespan_s: f(r, "makespan_s")?,
                gflops: f(r, "gflops")?,
                msgs: f(r, "msgs")? as u64,
                wan_msgs: f(r, "wan_msgs")? as u64,
                bytes: f(r, "bytes")? as u64,
                cp_compute_s: f(r, "cp_compute_s")?,
                cp_send_s: f(r, "cp_send_s")?,
                cp_wan_msgs: f(r, "cp_wan_msgs")? as u64,
                wait_s: f(r, "wait_s")?,
                model_residual: f(r, "model_residual")?,
            })
        })
        .collect()
}

/// Compares measured records against a baseline. Counts must match
/// exactly; seconds/Gflop/s to `rel_tol` relative (the simulation is
/// deterministic, so 1e-9 is the expected setting — the tolerance only
/// absorbs float-summation changes from refactors); residuals to an
/// absolute 1e-6. Returns human-readable failure lines (empty = pass).
pub fn compare_records(
    baseline: &[BenchRecord],
    measured: &[BenchRecord],
    rel_tol: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(m) = measured.iter().find(|m| m.id == b.id) else {
            failures.push(format!("{}: missing from measured records", b.id));
            continue;
        };
        let mut exact = |name: &str, want: u64, got: u64| {
            if want != got {
                failures.push(format!("{}: {name} changed {want} -> {got}", b.id));
            }
        };
        exact("sites", b.sites as u64, m.sites as u64);
        exact("m", b.m, m.m);
        exact("n", b.n as u64, m.n as u64);
        exact("msgs", b.msgs, m.msgs);
        exact("wan_msgs", b.wan_msgs, m.wan_msgs);
        exact("bytes", b.bytes, m.bytes);
        exact("cp_wan_msgs", b.cp_wan_msgs, m.cp_wan_msgs);
        let mut close = |name: &str, want: f64, got: f64| {
            let scale = want.abs().max(1e-12);
            if ((got - want) / scale).abs() > rel_tol {
                failures.push(format!(
                    "{}: {name} drifted {want} -> {got} (rel {:.3e} > {rel_tol:.1e})",
                    b.id,
                    ((got - want) / scale).abs()
                ));
            }
        };
        close("makespan_s", b.makespan_s, m.makespan_s);
        close("gflops", b.gflops, m.gflops);
        close("cp_compute_s", b.cp_compute_s, m.cp_compute_s);
        close("cp_send_s", b.cp_send_s, m.cp_send_s);
        close("wait_s", b.wait_s, m.wait_s);
        if (b.model_residual - m.model_residual).abs() > 1e-6 {
            failures.push(format!(
                "{}: model_residual drifted {} -> {}",
                b.id, b.model_residual, m.model_residual
            ));
        }
    }
    for m in measured {
        if !baseline.iter().any(|b| b.id == m.id) {
            failures.push(format!(
                "{}: not in baseline (bless with scripts/bench_check.sh --bless)",
                m.id
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
        let baseline: Vec<String> =
            parse_records(text).unwrap().into_iter().map(|r| r.id).collect();
        let registry: Vec<String> = gate_points().iter().map(GatePoint::id).collect();
        assert_eq!(registry, baseline);
    }

    fn rec(id: &str, msgs: u64, makespan: f64) -> BenchRecord {
        BenchRecord {
            id: id.into(),
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
            model_residual: 0.01,
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
        let (clean, _) = p.measure(false);
        let (slow, _) = p.measure(true);
        assert_eq!(clean.id, "faults/test-clean");
        assert_eq!(slow.id, "faults/test");
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
        let (r, _) = p.measure();
        assert!(r.makespan_s > 0.0 && r.gflops > 0.0);
        assert!(r.msgs > 0);
        assert_eq!(r.wan_msgs, 0, "single site has no WAN traffic");
        assert!(r.model_residual >= 0.0);
    }
}
