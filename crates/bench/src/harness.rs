//! Sweep machinery shared by the registered artifacts.

use std::path::Path;
use std::sync::Mutex;

use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, ExperimentResult, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::FailureSchedule;
use tsqr_obs::ledger::LedgerEntry;
use tsqr_qcg::{allocate, JobProfile, ResourceCatalog};

use crate::artifacts::Figure;
use crate::calib;
use crate::figures::{measure_traced, FigurePoint};

/// Builds the runtime of the paper's experimental platform: `sites`
/// Grid'5000 clusters, 32 nodes × 2 processes each, allocated through the
/// QCG meta-scheduler (so the placement and throttling match §III/§V-A).
pub fn grid_runtime(sites: usize) -> Runtime {
    let catalog = ResourceCatalog::grid5000();
    let profile = JobProfile::cluster_of_clusters(sites, 64);
    let alloc =
        allocate(&catalog, &profile).unwrap_or_else(|e| panic!("Grid'5000 allocation failed: {e}"));
    Runtime::new(alloc.topology, alloc.network)
}

/// The row counts the paper sweeps for a given N: powers of two from
/// 2¹⁷, up to 33,554,432 for N ≤ 128 and up to 8,388,608 for the wider
/// matrices — the x-ranges of Figs. 4–5 (a/b vs c/d).
pub(crate) fn paper_m_values(n: usize) -> Vec<u64> {
    let all: [u64; 9] = [
        131_072,    // 2^17
        262_144,    // 2^18
        524_288,    // 2^19
        1_048_576,  // 2^20
        2_097_152,  // 2^21
        4_194_304,  // 2^22
        8_388_608,  // 2^23
        16_777_216, // 2^24
        33_554_432, // 2^25
    ];
    let cap: u64 = if n <= 128 { 33_554_432 } else { 8_388_608 };
    all.iter().copied().filter(|&m| m <= cap).collect()
}

/// Domain-per-cluster options of Figs. 6–7 (1 = per-site ScaLAPACK call,
/// 32 = one per node, 64 = one per process).
pub(crate) fn domain_options() -> [usize; 7] {
    [1, 2, 4, 8, 16, 32, 64]
}

/// [`grid_runtime`] set up for one run: event tracing, and the failure
/// schedule to inject. With [`run_point`], the one place a scenario on the
/// paper's platform is built — the bench gate, the registered artifacts and
/// every simulating `grid-tsqr` subcommand come through here.
pub fn platform_runtime(sites: usize, traced: bool, schedule: Option<FailureSchedule>) -> Runtime {
    let mut rt = grid_runtime(sites);
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

/// One point of the paper's sweep: `(sites, M, N, algorithm)`.
pub(crate) type Point = (usize, u64, usize, Algorithm);

/// One pool thread per core.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `f` of every item on `threads` scoped threads, each taking the next
/// item off one queue; the results come back in the order of `items`. The
/// sweep's points, the artifacts' bodies and both gates' points run here.
pub(crate) fn on_pool<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let queue = Mutex::new(items.iter().zip(&mut results));
    let next = || queue.lock().expect("a pool thread panicked").next();
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| std::iter::from_fn(next).for_each(|(item, slot)| *slot = Some(f(item))));
        }
    });
    results.into_iter().map(|r| r.expect("every item was taken")).collect()
}

/// The Gflop/s of the R-only symbolic points the artifacts read, declared,
/// then priced on every core. A point is a pure function of itself, so the
/// table is the same for any thread count, and a point several artifacts
/// plot is run once: Fig. 5 *is* the maximum over the domain counts of
/// Figs. 6–7 and Fig. 8 the maximum over the sites of Figs. 4–5.
#[derive(Default)]
pub struct Sweep {
    /// One entry per point priced, so its length counts the evaluations.
    priced: Vec<(Point, f64)>,
}

impl Sweep {
    /// The site counts of Figs. 4, 5 and 8.
    pub(crate) const SITES: [usize; 3] = [1, 2, 4];

    /// The table of `points`, each distinct point priced once on `threads`
    /// threads, on the one platform of its site count they all share.
    fn price(points: &[Point], threads: usize) -> Sweep {
        let mut distinct: Vec<Point> = Vec::new();
        for p in points {
            if !distinct.contains(p) {
                distinct.push(p.clone());
            }
        }
        let platforms = Self::SITES.map(grid_runtime);
        let gflops = on_pool(&distinct, threads, |(sites, m, n, algorithm)| {
            let slot = Self::SITES.iter().position(|s| s == sites);
            let rt = &platforms[slot.expect("the paper's platforms have 1, 2 or 4 sites")];
            run_point(rt, *m, *n, algorithm.clone(), false, Mode::Symbolic).gflops
        });
        Sweep { priced: distinct.into_iter().zip(gflops).collect() }
    }

    /// Gflop/s of one priced point.
    ///
    /// # Panics
    /// Panics, naming the point, unless the artifact reading it declared it.
    pub(crate) fn gflops(&self, sites: usize, m: u64, n: usize, algorithm: &Algorithm) -> f64 {
        let point = (sites, m, n, algorithm);
        let found = self.priced.iter().find(|((s, pm, pn, a), _)| (*s, *pm, *pn, a) == point);
        found.unwrap_or_else(|| panic!("sweep point {point:?} was not declared")).1
    }

    /// TSQR Gflop/s with the optimum domain count, and that count (the
    /// first of equals) — the quantity Fig. 5 plots ("the TSQR performance
    /// for the optimum number of domains").
    pub(crate) fn tsqr_best_gflops(&self, sites: usize, m: u64, n: usize) -> (f64, usize) {
        let mut best = (0.0f64, 1usize);
        for dpc in domain_options() {
            let g = self.gflops(sites, m, n, &tuned_tsqr(dpc));
            if g > best.0 {
                best = (g, dpc);
            }
        }
        best
    }
}

/// Measures one headline configuration the way the bench gate does (the
/// traced run of [`measure_point`](crate::measure_point), with all three of
/// its invariants), writes that run's Chrome-trace JSON to `path`, prints a
/// digest — event counts, the critical path through the happens-before DAG,
/// and the per-phase Eq. (1) ledger — and returns the run's ledger entry.
pub fn dump_traced_point(path: &Path, point: &FigurePoint) -> std::io::Result<LedgerEntry> {
    use std::io::Write as _;
    // Opened first: a path that cannot be written fails before the run.
    let mut file = std::fs::File::create(path)?;
    let (entry, res, cp) =
        measure_traced(&point.id(), point.sites, point.m, point.n, point.algorithm.clone(), None);
    let trace = res.trace.as_ref().expect("tracing was enabled");
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
    Ok(entry)
}

/// Regenerates the registered artifacts `figures` and prints them in that
/// order; `Ok(false)` when a shape check failed. This is all
/// `grid-tsqr figure` does.
///
/// First, in order, each artifact's headline configuration(s)
/// ([`Figure::points`], Figs. 4–8 only) are put to two uses:
///
/// * with `trace_out`, each point's Chrome trace is dumped via
///   [`dump_traced_point`] — the primary (first) point goes to the file
///   itself, any further point to
///   `<file>.with_extension("json.<label>.json")` (so `fig8` still
///   produces its ScaLAPACK companion trace next to the TSQR one);
/// * when `GRID_TSQR_LEDGER=<file>` is set, one experiment-ledger entry
///   per point is appended to that JSONL file (schema
///   `tsqr_obs::ledger::LEDGER_SCHEMA`) so `grid-tsqr report` can trend
///   the figure over time. With `trace_out` these are the dumped runs'
///   entries, so each point runs once.
///
/// Doing both through one registry keeps the traced configuration and the
/// perf-gated configuration (`grid-tsqr bench-check` measures the same
/// points) byte-for-byte identical. A file that cannot be written is the
/// `Err`.
///
/// Then the union of the sweep points the artifacts declare
/// ([`Figure::reads`]) is priced once and the bodies run, both one thread
/// per core; a body returns its [`Artifact`] and only this prints it.
pub fn run_figures(figures: &[&Figure], trace_out: Option<&Path>) -> Result<bool, String> {
    let cannot_write = |path: &Path, e: std::io::Error| format!("cannot write {path:?}: {e}");
    for figure in figures {
        let mut entries = Vec::new();
        if let Some(path) = trace_out {
            for (i, p) in figure.points.iter().enumerate() {
                let target = if i == 0 {
                    path.to_path_buf()
                } else {
                    path.with_extension(format!("json.{}.json", p.label))
                };
                entries.push(dump_traced_point(&target, p).map_err(|e| cannot_write(&target, e))?);
            }
        }
        if let Some(path) = tsqr_obs::ledger::path_from_env().filter(|_| !figure.points.is_empty())
        {
            if entries.is_empty() {
                entries = figure.points.iter().map(FigurePoint::measure).collect();
            }
            let n = entries.len();
            for entry in entries {
                tsqr_obs::ledger::append_entry(&path, entry)?;
            }
            println!("# ledger: {n} entries -> {}", path.display());
        }
    }
    let artifacts = artifacts(figures, cores());
    for artifact in &artifacts {
        print!("{artifact}");
    }
    Ok(artifacts.iter().all(Artifact::passed))
}

/// The artifacts of `figures`, in their order: the union of the sweep
/// points they read is priced once, then their bodies run, both on
/// `threads` threads.
fn artifacts(figures: &[&Figure], threads: usize) -> Vec<Artifact> {
    let sweep =
        Sweep::price(&figures.iter().flat_map(|f| (f.reads)()).collect::<Vec<_>>(), threads);
    on_pool(figures, threads, |figure| (figure.run)(&sweep))
}

/// One plotted line: a label and its `(M, Gflop/s)` points.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(u64, f64)>,
}

/// One table of an artifact: every cell is the string it prints as.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed as `# title`.
    pub title: String,
    /// One per column.
    pub headers: Vec<String>,
    /// One cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table of `headers` with no rows yet.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        let headers = headers.iter().map(|h| h.to_string()).collect();
        Table { title: title.into(), headers, rows: Vec::new() }
    }

    /// A gnuplot-ready table: `x  series1  series2 …`, each y to two
    /// decimals and `-` where a series has no point at that x.
    pub(crate) fn series(title: impl Into<String>, x_label: &str, series: &[Series]) -> Self {
        let labels = series.iter().map(|s| s.label.as_str());
        let mut table = Table::new(title, &[x_label].into_iter().chain(labels).collect::<Vec<_>>());
        for (i, &(x, _)) in series.first().map_or(&[][..], |s| &s.points).iter().enumerate() {
            let y = |s: &Series| match s.points.get(i) {
                Some(&(px, y)) if px == x => format!("{y:.2}"),
                _ => "-".to_string(),
            };
            table.rows.push([x.to_string()].into_iter().chain(series.iter().map(y)).collect());
        }
        table
    }
}

/// One named pass/fail check of a qualitative "shape" the paper reports:
/// every artifact doubles as a regression test of the reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is claimed.
    pub name: String,
    /// Whether the reproduction shows it.
    pub pass: bool,
    /// The measured numbers behind the verdict.
    pub detail: String,
}

impl std::fmt::Display for Check {
    /// `[PASS] name: detail` or `[FAIL] name: detail`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        write!(f, "[{verdict}] {}: {}", self.name, self.detail)
    }
}

/// What a regenerated artifact is: its tables and its paper-shape checks.
/// Its `Display` is the one printer of `grid-tsqr figure`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Artifact {
    /// Printed first, in order.
    pub tables: Vec<Table>,
    /// Printed last, as the `[PASS]`/`[FAIL]` block.
    pub checks: Vec<Check>,
}

impl Artifact {
    /// Records one check.
    pub(crate) fn check(&mut self, name: impl Into<String>, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), pass, detail: detail.into() });
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

impl std::fmt::Display for Artifact {
    /// Each table as a `# title` line, a `#`-prefixed header and rows
    /// indented two spaces, every column right-aligned to its widest cell;
    /// then the `# paper-shape checks` block.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for table in &self.tables {
            writeln!(f, "\n# {}", table.title)?;
            let lines = || {
                std::iter::once(("#", &table.headers)).chain(table.rows.iter().map(|r| (" ", r)))
            };
            let width =
                |c: usize| lines().map(|(_, cells)| cells[c].chars().count()).max().unwrap_or(0);
            let widths: Vec<usize> = (0..table.headers.len()).map(width).collect();
            for (lead, cells) in lines() {
                write!(f, "{lead}")?;
                for (c, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                    write!(f, "{}{cell:>w$}", if c == 0 { " " } else { "  " })?;
                }
                writeln!(f)?;
            }
        }
        writeln!(f, "\n# paper-shape checks")?;
        for check in &self.checks {
            writeln!(f, "#   {check}")?;
        }
        Ok(())
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
    fn the_table_is_the_same_on_any_number_of_threads() {
        let at = |sites, dpc| (sites, 1 << 20, 64, tuned_tsqr(dpc));
        let mut points: Vec<Point> = domain_options().map(|d| at(1, d)).to_vec();
        points.extend([(1, 1 << 20, 64, Algorithm::ScalapackQr2), at(2, 8), at(1, 8), at(1, 64)]);
        let (one, two) = (Sweep::price(&points, 1), Sweep::price(&points, 2));
        // A point listed twice is priced once.
        assert_eq!(one.priced.len(), domain_options().len() + 2, "nine points, not eleven");
        for ((p, a), (q, b)) in one.priced.iter().zip(&two.priced) {
            assert_eq!((p, a.to_bits()), (q, b.to_bits()));
        }
        let (best, dpc) = one.tsqr_best_gflops(1, 1 << 20, 64);
        for d in domain_options() {
            let g = one.gflops(1, 1 << 20, 64, &tuned_tsqr(d));
            assert!(g > 0.0 && g <= best);
        }
        assert_eq!(best.to_bits(), one.gflops(1, 1 << 20, 64, &tuned_tsqr(dpc)).to_bits());
    }

    #[test]
    fn every_sweep_body_reads_only_what_its_figure_declares() {
        let sweeps = crate::figures().iter().filter(|f| !(f.reads)().is_empty());
        let ids: Vec<&str> = sweeps.clone().map(|f| f.id).collect();
        assert_eq!(ids, ["fig4", "fig5", "fig6", "fig7", "fig8"]);
        for figure in sweeps {
            // A placeholder for each declared point: no simulation runs.
            let priced = (figure.reads)().into_iter().map(|p| (p, 1.0)).collect();
            let artifact = (figure.run)(&Sweep { priced });
            assert!(!artifact.checks.is_empty(), "{}: a body returns its checks", figure.id);
        }
    }

    #[test]
    fn the_cheap_bodies_render_the_same_on_any_number_of_threads() {
        let cheap =
            ["prop1", "fig12", "eq1", "ablation_balance", "ablation_cholqr", "fault_degradation"];
        let figures: Vec<&Figure> =
            crate::figures().iter().filter(|f| cheap.contains(&f.id)).collect();
        assert_eq!(figures.len(), cheap.len());
        let render = |threads| -> Vec<String> {
            artifacts(&figures, threads)
                .iter()
                .map(|a| {
                    assert!(!a.checks.is_empty(), "a body returns its checks");
                    a.to_string()
                })
                .collect()
        };
        assert_eq!(render(1), render(2));
    }

    #[test]
    #[should_panic(expected = "sweep point (2, 65536, 64, ScalapackQr2) was not declared")]
    fn reading_an_undeclared_point_panics_and_names_it() {
        let priced = vec![((1, 65_536, 64, Algorithm::ScalapackQr2), 1.0)];
        Sweep { priced }.gflops(2, 65_536, 64, &Algorithm::ScalapackQr2);
    }

    #[test]
    fn an_artifact_renders_its_tables_then_its_checks() {
        let mut table = Table::new("t", &["x", "value"]);
        table.rows = vec![vec!["1".into(), "2.50".into()], vec!["100".into(), "-".into()]];
        let mut artifact = Artifact { tables: vec![table], checks: Vec::new() };
        artifact.check("good", true, "ok");
        assert!(artifact.passed());
        artifact.check("bad", false, "nope");
        assert!(!artifact.passed());
        let want = "\n# t\n#   x  value\n    1   2.50\n  100      -\n\
                    \n# paper-shape checks\n#   [PASS] good: ok\n#   [FAIL] bad: nope\n";
        assert_eq!(artifact.to_string(), want);
    }

    #[test]
    fn a_series_table_marks_a_missing_point() {
        let series = [
            Series { label: "a".into(), points: vec![(1, 1.0), (2, 2.0)] },
            Series { label: "b".into(), points: vec![(1, 10.126)] },
        ];
        let rows = [["1", "1.00", "10.13"], ["2", "2.00", "-"]];
        assert_eq!(
            Table::series("t", "M", &series),
            Table {
                title: "t".into(),
                headers: ["M", "a", "b"].map(String::from).to_vec(),
                rows: rows.iter().map(|r| r.map(String::from).to_vec()).collect(),
            }
        );
    }
}
