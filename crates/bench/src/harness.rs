//! Sweep machinery shared by the registered artifacts.

use std::path::Path;
use std::time::Duration;

use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, ExperimentResult, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::FailureSchedule;
use tsqr_qcg::{allocate, JobProfile, ResourceCatalog};

use crate::artifacts::Figure;
use crate::calib;

/// Builds the runtime of the paper's experimental platform: `sites`
/// Grid'5000 clusters, 32 nodes × 2 processes each, allocated through the
/// QCG meta-scheduler (so the placement and throttling match §III/§V-A).
pub fn grid_runtime(sites: usize) -> Runtime {
    let catalog = ResourceCatalog::grid5000();
    let profile = JobProfile::cluster_of_clusters(sites, 64);
    let alloc = allocate(&catalog, &profile)
        .unwrap_or_else(|e| panic!("Grid'5000 allocation failed: {e}"));
    Runtime::new(alloc.topology, alloc.network)
}

/// The row counts the paper sweeps for a given N: powers of two from
/// 2¹⁷, up to 33,554,432 for N ≤ 128 and up to 8,388,608 for the wider
/// matrices — the x-ranges of Figs. 4–5 (a/b vs c/d).
pub fn paper_m_values(n: usize) -> Vec<u64> {
    let all: [u64; 9] = [
        131_072,     // 2^17
        262_144,     // 2^18
        524_288,     // 2^19
        1_048_576,   // 2^20
        2_097_152,   // 2^21
        4_194_304,   // 2^22
        8_388_608,   // 2^23
        16_777_216,  // 2^24
        33_554_432,  // 2^25
    ];
    let cap: u64 = if n <= 128 { 33_554_432 } else { 8_388_608 };
    all.iter().copied().filter(|&m| m <= cap).collect()
}

/// Domain-per-cluster options of Figs. 6–7 (1 = per-site ScaLAPACK call,
/// 32 = one per node, 64 = one per process).
pub fn domain_options() -> [usize; 7] {
    [1, 2, 4, 8, 16, 32, 64]
}

/// [`grid_runtime`] set up for one run: the wall-clock receive timeout
/// (`None` keeps the runtime's default), event tracing, and the failure
/// schedule to inject. With [`run_point`], the one place a scenario on the
/// paper's platform is built — the bench gate, the registered artifacts and
/// every simulating `grid-tsqr` subcommand come through here.
pub fn platform_runtime(
    sites: usize,
    recv_timeout: Option<Duration>,
    traced: bool,
    schedule: Option<FailureSchedule>,
) -> Runtime {
    let mut rt = grid_runtime(sites);
    if let Some(timeout) = recv_timeout {
        rt.set_recv_timeout(timeout);
    }
    if traced {
        rt.enable_tracing();
    }
    if let Some(schedule) = schedule {
        rt.set_failure_schedule(schedule);
    }
    rt
}

/// TSQR on the paper's tuned (grid-hierarchical) tree.
pub(crate) const fn tuned_tsqr(domains_per_cluster: usize) -> Algorithm {
    Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster }
}

/// An R-only symbolic `m × n` point priced at the cost model's own rates:
/// the base whose fields the artifacts and [`run_point`] override.
pub(crate) fn symbolic(m: u64, n: usize, algorithm: Algorithm) -> Experiment {
    let (compute_q, mode) = (false, Mode::Symbolic);
    Experiment { m, n, algorithm, compute_q, mode, rate_flops: None, combine_rate_flops: None }
}

/// Runs one `m × n` point on `rt`, priced at the calibrated rates of
/// [`calib`] (the combine rate only matters to TSQR).
pub fn run_point(
    rt: &Runtime,
    m: u64,
    n: usize,
    algorithm: Algorithm,
    compute_q: bool,
    mode: Mode,
) -> ExperimentResult {
    let rate_flops = Some(calib::kernel_rate_flops(n));
    let combine_rate_flops = Some(calib::combine_rate_flops());
    let base = symbolic(m, n, algorithm);
    run_experiment(rt, &Experiment { compute_q, mode, rate_flops, combine_rate_flops, ..base })
}

/// The paper's three platforms ([`grid_runtime`] on 1, 2 and 4 sites) and
/// the table of symbolic points already priced on them. A `Dims` run is a
/// pure function of `(sites, M, N, algorithm)`, so a point is run once per
/// process however many artifacts plot it: Fig. 5 *is* the maximum over the
/// domain counts of Figs. 6–7 and Fig. 8 the maximum over the sites of
/// Figs. 4–5, read from one table.
pub struct Sweep {
    runtimes: [Runtime; 3],
    /// One entry per point run, so its length counts the evaluations.
    priced: Vec<((usize, u64, usize, Algorithm), f64)>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep { runtimes: Self::SITES.map(grid_runtime), priced: Vec::new() }
    }
}

impl Sweep {
    /// The site counts of Figs. 4, 5 and 8.
    pub const SITES: [usize; 3] = [1, 2, 4];

    /// The platform on `sites` sites.
    ///
    /// # Panics
    /// Panics unless `sites` is one of [`Self::SITES`].
    pub fn runtime(&self, sites: usize) -> &Runtime {
        let slot = Self::SITES.iter().position(|&s| s == sites);
        &self.runtimes[slot.expect("the paper's platforms have 1, 2 or 4 sites")]
    }

    /// Gflop/s of one R-only symbolic point at the calibrated rates.
    fn gflops(&mut self, sites: usize, m: u64, n: usize, algorithm: Algorithm) -> f64 {
        let point = (sites, m, n, algorithm);
        if let Some((_, gflops)) = self.priced.iter().find(|(priced, _)| *priced == point) {
            return *gflops;
        }
        let gflops =
            run_point(self.runtime(sites), m, n, point.3.clone(), false, Mode::Symbolic).gflops;
        self.priced.push((point, gflops));
        gflops
    }

    /// TSQR Gflop/s at one sweep point (grid-hierarchical tree).
    pub fn tsqr_gflops(&mut self, sites: usize, m: u64, n: usize, domains_per_cluster: usize) -> f64 {
        self.gflops(sites, m, n, tuned_tsqr(domains_per_cluster))
    }

    /// TSQR Gflop/s with the optimum domain count, and that count (the
    /// first of equals) — the quantity Fig. 5 plots ("the TSQR performance
    /// for the optimum number of domains").
    pub fn tsqr_best_gflops(&mut self, sites: usize, m: u64, n: usize) -> (f64, usize) {
        let mut best = (0.0f64, 1usize);
        for dpc in domain_options() {
            let g = self.tsqr_gflops(sites, m, n, dpc);
            if g > best.0 {
                best = (g, dpc);
            }
        }
        best
    }

    /// ScaLAPACK QR2 Gflop/s at one sweep point.
    pub fn scalapack_gflops(&mut self, sites: usize, m: u64, n: usize) -> f64 {
        self.gflops(sites, m, n, Algorithm::ScalapackQr2)
    }
}

/// Runs one traced symbolic point (the calling figure's headline
/// configuration), writes its Chrome-trace JSON to `path` and prints a
/// digest: event counts, the critical path through the happens-before
/// DAG, and the per-phase Eq. (1) ledger.
///
/// Also asserts the free invariant that the critical path tiles the
/// makespan exactly — every figure regeneration doubles as a check of
/// the analyzer.
pub fn dump_traced_point(
    path: &std::path::Path,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
) -> std::io::Result<()> {
    use std::io::Write as _;
    // Opened first: a path that cannot be written fails before the run.
    let mut file = std::fs::File::create(path)?;
    let rt = platform_runtime(sites, None, true, None);
    let res = run_point(&rt, m, n, algorithm, false, Mode::Symbolic);
    let trace = res.trace.as_ref().expect("tracing was enabled");
    let cp = trace.critical_path();
    let err = (cp.total().secs() - res.makespan.secs()).abs();
    assert!(
        err <= 1e-9 * res.makespan.secs().max(1.0),
        "critical path ({} s) must tile the makespan ({} s)",
        cp.total().secs(),
        res.makespan.secs()
    );
    file.write_all(trace.chrome_json().as_bytes())?;
    println!(
        "# trace: {} events, {} WAN sends, makespan {:.3} s -> {} (load in ui.perfetto.dev)",
        trace.len(),
        trace.wan_sends().len(),
        res.makespan.secs(),
        path.display()
    );
    println!("# critical path (== makespan, checked):");
    for line in cp.render().lines() {
        println!("#   {line}");
    }
    for line in res.aggregate_metrics().render().lines() {
        println!("#   {line}");
    }
    Ok(())
}

/// Regenerates one registered artifact on `sweep` and prints its
/// `[PASS]`/`[FAIL]` block; `Ok(false)` when a shape check failed. This is
/// all `grid-tsqr figure` does per `--id`.
///
/// Before the body runs, the artifact's headline configuration(s)
/// ([`Figure::points`], Figs. 4–8 only) are put to three uses:
///
/// * with `trace_out`, each point's Chrome trace is dumped via
///   [`dump_traced_point`] — the primary (first) point goes to the file
///   itself, any further point to
///   `<file>.with_extension("json.<label>.json")` (so `fig8` still
///   produces its ScaLAPACK companion trace next to the TSQR one);
/// * when `GRID_TSQR_BENCH_OUT=<dir>` is set, every point is measured and
///   the records written as `<dir>/BENCH_<id>.json` (the same schema
///   `grid-tsqr bench-check` compares against the committed baseline);
/// * when `GRID_TSQR_LEDGER=<file>` is set, one experiment-ledger entry
///   per point is appended to that JSONL file (schema
///   [`tsqr_obs::ledger::LEDGER_SCHEMA`]) so `grid-tsqr report` can trend
///   the figure over time.
///
/// Doing all three through one registry keeps the traced configuration and
/// the perf-gated configuration byte-for-byte identical. A file that cannot
/// be written is the `Err`.
pub fn run_figure(
    figure: &Figure,
    sweep: &mut Sweep,
    trace_out: Option<&Path>,
) -> Result<bool, String> {
    let cannot_write = |path: &Path, e: std::io::Error| format!("cannot write {path:?}: {e}");
    if let Some(path) = trace_out {
        for (i, p) in figure.points.iter().enumerate() {
            let target = if i == 0 {
                path.to_path_buf()
            } else {
                path.with_extension(format!("json.{}.json", p.label))
            };
            dump_traced_point(&target, p.sites, p.m, p.n, p.algorithm.clone())
                .map_err(|e| cannot_write(&target, e))?;
        }
    }
    let bench_out = std::env::var("GRID_TSQR_BENCH_OUT").ok();
    let ledger = tsqr_obs::ledger::path_from_env();
    if !figure.points.is_empty() && (bench_out.is_some() || ledger.is_some()) {
        let measured: Vec<_> = figure.points.iter().map(|p| p.measure()).collect();
        if let Some(dir) = bench_out {
            let records: Vec<_> = measured.iter().map(|(r, _)| r.clone()).collect();
            let out = Path::new(&dir).join(format!("BENCH_{}.json", figure.id));
            std::fs::write(&out, crate::figures::records_json(&records))
                .map_err(|e| cannot_write(&out, e))?;
            println!("# bench records -> {}", out.display());
        }
        if let Some(path) = ledger {
            let n = measured.len();
            for (_, entry) in measured {
                tsqr_obs::ledger::append_entry(&path, entry)?;
            }
            println!("# ledger: {n} entries -> {}", path.display());
        }
    }
    let mut checks = ShapeCheck::default();
    (figure.run)(sweep, &mut checks);
    Ok(checks.report())
}

/// One plotted line: a label and its `(M, Gflop/s)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(u64, f64)>,
}

/// The results directory for [`save_series_tsv`]: the
/// `GRID_TSQR_RESULTS` environment variable, unless a test has
/// installed a scoped [`results_override`] guard.
fn results_dir() -> Option<std::ffi::OsString> {
    #[cfg(test)]
    if let Some(dir) = results_override::current() {
        return Some(dir.into());
    }
    std::env::var_os("GRID_TSQR_RESULTS")
}

/// Scoped, serialized test-only override of the results directory.
///
/// Mutating a process-global environment variable from tests is a race
/// between threads (which is exactly why `std::env::set_var` became
/// `unsafe`); this guard replaces the old `unsafe { set_var }` /
/// `remove_var` pair, which was the workspace's last `unsafe` block.
/// [`ResultsDirGuard::set`] holds a process-wide mutex for the guard's
/// lifetime, so concurrent tests serialize instead of clobbering each
/// other, and the override is cleared on drop — panic included.
#[cfg(test)]
pub(crate) mod results_override {
    use std::path::PathBuf;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static SERIALIZE: Mutex<()> = Mutex::new(());
    static VALUE: Mutex<Option<PathBuf>> = Mutex::new(None);

    /// Holds the override (and the serialization lock) until dropped.
    pub struct ResultsDirGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl ResultsDirGuard {
        /// Installs `dir` as the results directory, blocking until any
        /// other guard-holding test has finished.
        pub fn set(dir: PathBuf) -> Self {
            let serial = SERIALIZE.lock().unwrap_or_else(PoisonError::into_inner);
            *VALUE.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir);
            ResultsDirGuard { _serial: serial }
        }
    }

    impl Drop for ResultsDirGuard {
        fn drop(&mut self) {
            *VALUE.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// The override currently in force, if any.
    pub fn current() -> Option<PathBuf> {
        VALUE.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// Writes a series table as TSV into the directory named by the
/// `GRID_TSQR_RESULTS` environment variable (no-op when unset). The file
/// name is a slug of the title; the format is the same `x  series…` table
/// the binaries print, ready for gnuplot or pandas.
pub fn save_series_tsv(title: &str, x_label: &str, series: &[Series]) -> std::io::Result<()> {
    let Some(dir) = results_dir() else {
        return Ok(());
    };
    std::fs::create_dir_all(&dir)?;
    let slug: String = title
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    let path = std::path::Path::new(&dir).join(format!("{slug}.tsv"));
    let mut out = String::new();
    out.push_str(x_label);
    for s in series {
        out.push('\t');
        out.push_str(&s.label);
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for (i, &(x, _)) in first.points.iter().enumerate() {
            out.push_str(&x.to_string());
            for s in series {
                out.push('\t');
                match s.points.get(i) {
                    Some(&(px, y)) if px == x => out.push_str(&format!("{y:.4}")),
                    _ => out.push_str("nan"),
                }
            }
            out.push('\n');
        }
    }
    std::fs::write(path, out)
}

/// Prints a gnuplot-ready table: `x  series1  series2 …`.
pub fn print_series_table(title: &str, x_label: &str, series: &[Series]) {
    if let Err(e) = save_series_tsv(title, x_label, series) {
        eprintln!("warning: could not save results TSV: {e}");
    }
    println!("\n# {title}");
    print!("# {x_label:>12}");
    for s in series {
        print!("  {:>18}", s.label);
    }
    println!();
    let xs: Vec<u64> = series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("  {x:>12}");
        for s in series {
            match s.points.get(i) {
                Some(&(px, y)) if px == *x => print!("  {y:>18.2}"),
                _ => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// The named pass/fail checks of the qualitative "shapes" the paper
/// reports, collected while an artifact regenerates: every artifact doubles
/// as a regression test of the reproduction.
#[derive(Debug, Default)]
pub struct ShapeCheck {
    results: Vec<(String, bool, String)>,
}

impl ShapeCheck {
    /// Record one check.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.results.push((name.to_string(), pass, detail));
    }

    /// Print all results; returns `true` when everything passed.
    pub fn report(&self) -> bool {
        println!("\n# paper-shape checks");
        let mut all = true;
        for (name, pass, detail) in &self.results {
            println!("#   [{}] {name}: {detail}", if *pass { "PASS" } else { "FAIL" });
            all &= *pass;
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_values_match_figure_ranges() {
        assert_eq!(paper_m_values(64).last(), Some(&33_554_432));
        assert_eq!(paper_m_values(128).last(), Some(&33_554_432));
        assert_eq!(paper_m_values(256).last(), Some(&8_388_608));
        assert_eq!(paper_m_values(512).last(), Some(&8_388_608));
        assert_eq!(paper_m_values(64).first(), Some(&131_072));
    }

    #[test]
    fn grid_runtime_sizes() {
        assert_eq!(grid_runtime(1).topology().num_procs(), 64);
        assert_eq!(grid_runtime(4).topology().num_procs(), 256);
    }

    #[test]
    fn no_point_is_priced_twice() {
        let mut sweep = Sweep::default();
        let (best, dpc) = sweep.tsqr_best_gflops(1, 1 << 20, 64);
        assert_eq!(sweep.priced.len(), domain_options().len());
        // The seven points behind the optimum are now table look-ups, and
        // a look-up is the value a fresh run on another table computes.
        let mut fresh = Sweep::default();
        for d in domain_options() {
            let memoised = sweep.tsqr_gflops(1, 1 << 20, 64, d);
            assert!(memoised > 0.0 && memoised <= best);
            assert_eq!(memoised.to_bits(), fresh.tsqr_gflops(1, 1 << 20, 64, d).to_bits());
        }
        assert_eq!(sweep.priced.len(), domain_options().len(), "seven points, not fourteen");
        assert_eq!(best.to_bits(), sweep.tsqr_gflops(1, 1 << 20, 64, dpc).to_bits());
        // Another algorithm, or another platform, is another point.
        sweep.scalapack_gflops(1, 1 << 20, 64);
        sweep.tsqr_gflops(2, 1 << 20, 64, dpc);
        assert_eq!(sweep.priced.len(), domain_options().len() + 2);
    }

    #[test]
    fn save_series_tsv_round_trip() {
        let dir = std::env::temp_dir().join(format!("tsqr_results_{}", std::process::id()));
        let _guard = results_override::ResultsDirGuard::set(dir.clone());
        let series = vec![
            Series { label: "a".into(), points: vec![(1, 1.5), (2, 2.5)] },
            Series { label: "b".into(), points: vec![(1, 3.0), (2, 4.0)] },
        ];
        save_series_tsv("Fig. X (test) — demo", "M", &series).unwrap();
        let content = std::fs::read_to_string(dir.join("fig_x_test_demo.tsv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[0], "M\ta\tb");
        assert_eq!(lines[1], "1\t1.5000\t3.0000");
        assert_eq!(lines[2], "2\t2.5000\t4.0000");
        drop(_guard);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shape_check_reports_failures() {
        let mut sc = ShapeCheck::default();
        sc.check("good", true, "ok".into());
        assert!(sc.report());
        sc.check("bad", false, "nope".into());
        assert!(!sc.report());
    }
}
