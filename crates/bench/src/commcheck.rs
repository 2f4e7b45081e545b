//! The commcheck registry (docs/static-analysis.md §3): every scenario
//! `grid-tsqr check` runs, as a value, in the order of the lines it pins in
//! `COMMCHECK_baseline.txt`, all at [`PROBLEM`], the size the golden was
//! blessed at. Every trace goes through the happens-before analyzer
//! (`gridmpi::hb`); [`run_all`] runs the scenarios on the pool the sweep
//! uses. The self-healing TSQR's plumbing lives here too ([`Problem`],
//! [`recovered_r_holder`]), so `grid-tsqr faults` and the fault matrix run
//! the same functions.

use tsqr_core::domains::DomainLayout;
use tsqr_core::experiment::{run_ranks, Algorithm, Mode};
use tsqr_core::ft_tsqr::{ft_tsqr_rank_program_async, FtTsqrOutput};
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{
    tsqr_rank_program, tsqr_rank_program_with_async, TsqrConfig, TsqrRankOutput,
};
use tsqr_core::workload;
use tsqr_gridmpi::{explore, fnv1a, schedules_for, ExploreReport, HbReport, RunReport, Runtime};
use tsqr_linalg::verify::r_distance;
use tsqr_linalg::Matrix;
use tsqr_netsim::{ClusterSpec, CostModel, FailureSchedule, GridTopology, LinkParams, VirtualTime};
use tsqr_qcg::ResourceCatalog;
use tsqr_serve::{serve, Policy, PolicyReport, ServeConfig};

use crate::calib;
use crate::figures::serve_fault_points;
use crate::harness::{cores, on_pool, platform_runtime, run_point};

/// A seeded `m × n` problem on the paper's `sites`-site platform, as the
/// self-healing TSQR runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Problem {
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// Number of Grid'5000 sites.
    pub sites: usize,
    /// The workload's seed.
    pub seed: u64,
}

/// The size every scenario runs at and `COMMCHECK_baseline.txt` was
/// blessed at.
pub const PROBLEM: Problem = Problem { m: 1 << 16, n: 32, sites: 4, seed: 42 };

/// One TSQR run's plan: the domains, the tree over them, the config.
pub type DomainPlan = (DomainLayout, ReductionTree, TsqrConfig);

impl Problem {
    /// One TSQR domain per process on the grid-hierarchical tree, as the
    /// self-healing program requires.
    pub fn domain_per_process(&self, rt: &Runtime) -> DomainPlan {
        let dpc = rt.topology().num_procs() / self.sites;
        let layout = DomainLayout::build(rt.topology(), self.m, self.n, dpc);
        let shape = TreeShape::GridHierarchical;
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig {
            shape,
            domains_per_cluster: dpc,
            compute_q: false,
            combine_rate_flops: Some(calib::combine_rate_flops()),
            ..Default::default()
        };
        (layout, tree, cfg)
    }

    /// The plain TSQR on the seeded workload: the failure-free reference,
    /// and the program `faults --baseline` runs under the schedule.
    pub fn run_tsqr(&self, rt: &Runtime, plan: &DomainPlan) -> RunReport<TsqrRankOutput> {
        let (layout, tree, cfg) = plan;
        let rate = Some(calib::kernel_rate_flops(self.n));
        let block = |row0, rows| workload::block(self.seed, row0, rows, self.n);
        run_ranks::<Matrix, _, _>(rt, async |p, _| {
            tsqr_rank_program_with_async(p, layout, tree, cfg, rate, block).await
        })
    }

    /// The plain TSQR's makespan and R on `rt` with no faults: the
    /// reference a self-healing run must reproduce bit for bit.
    pub fn failure_free(
        &self,
        rt: &Runtime,
        plan: &DomainPlan,
    ) -> Result<(VirtualTime, Matrix), String> {
        let clean = self.run_tsqr(rt, plan);
        let root = clean.ranks[0].result.as_ref();
        let root = root.map_err(|e| format!("failure-free run failed: {e}"))?;
        Ok((clean.makespan, root.r.clone().expect("root holds R")))
    }

    /// The self-healing TSQR on the seeded workload, under `rt`'s schedule.
    pub fn run_ft_tsqr(&self, rt: &Runtime, plan: &DomainPlan) -> RunReport<FtTsqrOutput> {
        let (layout, tree, cfg) = plan;
        let rate = Some(calib::kernel_rate_flops(self.n));
        run_ranks::<Matrix, _, _>(rt, async |p, _| {
            ft_tsqr_rank_program_async(p, layout, tree, cfg, self.seed, rate).await
        })
    }
}

/// The self-healing program's contract, held by `faults` and by every
/// scenario of the fault matrix: a survivor holds R, and that R is the
/// failure-free `reference` bit for bit. Returns the holder's rank.
pub fn recovered_r_holder(
    survivors: &[(usize, FtTsqrOutput)],
    reference: &Matrix,
) -> Result<usize, String> {
    let (rank, r) = survivors
        .iter()
        .rev()
        .find_map(|(rank, o)| Some((*rank, o.r.as_ref()?)))
        .ok_or("no survivor holds an R factor — recovery failed")?;
    if !r.approx_eq(reference, 0.0) {
        let d = r_distance(r, reference);
        return Err(format!("recovered R differs from the failure-free R (max diff {d:.2e})"));
    }
    Ok(rank)
}

/// The fault matrix on the 4-site grid, 256 ranks: the empty schedule,
/// then a representative rank of every tree level crashed, a double
/// crash, and transient loss under a WAN brown-out.
pub fn fault_matrix() -> Vec<(String, FailureSchedule)> {
    let at = VirtualTime::from_millis;
    let mut matrix = vec![("faults-none".to_string(), FailureSchedule::new(1))];
    for (r, ms) in [(255usize, 0.5), (2, 2.0), (64, 2.0), (128, 6.0), (0, 6.0)] {
        matrix.push((format!("faults-crash-{r}"), FailureSchedule::new(1).crash_rank(r, at(ms))));
    }
    let double = FailureSchedule::new(1).crash_rank(0, at(2.0)).crash_rank(1, at(4.0));
    matrix.push(("faults-crash-0+1".to_string(), double));
    let lossy = FailureSchedule::new(7).drop_probability(64, 0, 0.4).degrade_all_wan(
        at(0.0),
        at(50.0),
        4.0,
        4.0,
    );
    matrix.push(("faults-drop-wan".to_string(), lossy));
    matrix
}

/// The DPOR-lite determinism proof on a dedicated 8-rank grid (P ≤ 8 is
/// the exhaustive regime of `schedules_for`): the real-numerics TSQR at
/// [`PROBLEM`]'s seed under every permuted delivery order, each rank's
/// result digested to the bits of its R.
pub fn explore_p8() -> ExploreReport {
    let topo = || {
        let cluster = |name: &str| ClusterSpec {
            name: name.into(),
            nodes: 4,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        };
        GridTopology::block_placement(vec![cluster("expl-a"), cluster("expl-b")], 4, 1)
    };
    let model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.5, 800.0), 1e9, 2);
    let layout = DomainLayout::build(&topo(), 4096, 8, 4);
    let shape = TreeShape::GridHierarchical;
    let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig {
        shape,
        domains_per_cluster: 4,
        compute_q: false,
        combine_rate_flops: None,
        ..Default::default()
    };
    explore(
        || Runtime::new(topo(), model.clone()),
        |p, _| tsqr_rank_program(p, &layout, &tree, &cfg, PROBLEM.seed, None),
        |o| {
            o.r.as_ref().map_or(0, |r| {
                let bytes: Vec<u8> =
                    r.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
                fnv1a(&bytes)
            })
        },
        &schedules_for(8),
    )
}

/// One scenario of the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// A figure-style point at [`PROBLEM`]'s size (§V, Figs. 4–8), traced,
    /// symbolic numerics: the schedule, and so the happens-before DAG, is
    /// the real-numerics run's by construction.
    Traced(&'static str, Algorithm),
    /// The self-healing TSQR under every schedule of [`fault_matrix`],
    /// after the failure-free reference: one line per schedule, each
    /// recovered R held to the reference bitwise. Crash schedules
    /// legitimately orphan sends (counted in the line); races, cycles and
    /// violations must still be zero. One scenario, so at most one
    /// 256-rank threaded run is alive at a time.
    FaultMatrix,
    /// [`explore_p8`]: bit-identical R, makespan and metrics under every
    /// delivery order, and race-free traces, so unexplored interleavings
    /// cannot differ either.
    Explore,
    /// A serving trace (docs/serving.md): its summary line, a structural
    /// invariant of the deterministic serving engine.
    Serve(String, Box<ServeConfig>),
}

/// What running scenarios leaves: the lines the golden pins, and a
/// rendering of every problem found (an unclean happens-before report, a
/// recovered R that differs, a failed proof).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Golden lines, in scenario order.
    pub lines: Vec<String>,
    /// Empty when the gate holds.
    pub problems: Vec<String>,
}

impl Verdict {
    fn record(&mut self, name: &str, hb: &HbReport) {
        self.lines.push(format!("{name:<22} {}", hb.summary_line()));
        if !hb.ok() {
            self.problems.push(format!("{name}:\n{}", hb.render()));
        }
    }
}

/// Every scenario, in golden order: each tree shape and both ScaLAPACK
/// baselines traced; the fault matrix; the explorer; the four policies
/// plus a batched same-shape burst on one seeded trace, then three of the
/// bench gate's fault-injected serving points (docs/serving.md §Failures):
/// a site crash recovered by checkpointed retries, the same crash forcing
/// 4-site jobs onto survivors via elastic re-planning, and a degraded-WAN
/// window driving brownout shed.
pub fn scenarios() -> Vec<Scenario> {
    let tsqr = |shape, domains_per_cluster| Algorithm::Tsqr { shape, domains_per_cluster };
    let mut list: Vec<Scenario> = [
        ("tsqr-grid", tsqr(TreeShape::GridHierarchical, 64)),
        ("tsqr-binary", tsqr(TreeShape::Binary, 64)),
        ("tsqr-flat", tsqr(TreeShape::Flat, 64)),
        ("tsqr-kary3", tsqr(TreeShape::Kary(3), 64)),
        ("tsqr-binomial", tsqr(TreeShape::Binomial, 64)),
        ("tsqr-greedy", tsqr(TreeShape::Greedy, 64)),
        ("tsqr-grid-d16", tsqr(TreeShape::GridHierarchical, 16)),
        ("scalapack-qr2", Algorithm::ScalapackQr2),
        ("scalapack-blocked", Algorithm::ScalapackQrf),
    ]
    .map(|(name, algorithm)| Scenario::Traced(name, algorithm))
    .into();
    list.extend([Scenario::FaultMatrix, Scenario::Explore]);
    let base = ServeConfig { requests: 30, load: 1.5, seed: 7, ..Default::default() };
    for policy in Policy::all() {
        let name = format!("serve-{}", policy.label());
        list.push(Scenario::Serve(name, Box::new(ServeConfig { policy, ..base.clone() })));
    }
    let burst = ServeConfig { batch: true, single_shape: Some(3), load: 3.0, ..base };
    list.push(Scenario::Serve("serve-fifo-batch".into(), Box::new(burst)));
    let gate = serve_fault_points();
    for (name, point) in [
        ("serve-fault-crash", "crash-ckpt"),
        ("serve-fault-replan", "crash-replan"),
        ("serve-fault-brownout", "wan-brownout"),
    ] {
        let (_, cfg) = gate.iter().find(|(p, _)| *p == point).expect("registered gate point");
        list.push(Scenario::Serve(name.into(), Box::new(cfg.clone())));
    }
    list
}

impl Scenario {
    /// Runs the scenario: its lines and problems.
    pub fn run(&self) -> Verdict {
        let mut verdict = Verdict::default();
        let p = PROBLEM;
        match self {
            Scenario::Traced(name, algorithm) => {
                let rt = platform_runtime(p.sites, true, None);
                let res = run_point(&rt, p.m, p.n, algorithm.clone(), false, Mode::Symbolic);
                verdict.record(name, &res.trace.expect("tracing was enabled").hb_analysis());
            }
            Scenario::FaultMatrix => {
                let rt = platform_runtime(p.sites, false, None);
                let plan = p.domain_per_process(&rt);
                let reference = match p.failure_free(&rt, &plan) {
                    Ok((_, r)) => r,
                    Err(e) => return Verdict { lines: Vec::new(), problems: vec![e] },
                };
                for (name, schedule) in fault_matrix() {
                    let report =
                        p.run_ft_tsqr(&platform_runtime(p.sites, true, Some(schedule)), &plan);
                    let hb = report.trace.as_ref().expect("tracing was enabled").hb_analysis();
                    if let Err(e) = recovered_r_holder(&report.outcome().survivors, &reference) {
                        verdict.problems.push(format!("{name}: {e}"));
                    }
                    verdict.record(&name, &hb);
                }
            }
            Scenario::Explore => {
                let rep = explore_p8();
                let yn = |b: bool| if b { "yes" } else { "no" };
                verdict.lines.push(format!(
                    "{:<22} schedules={} identical={} hb_clean={} proved={}",
                    "explore-tsqr-p8",
                    rep.schedules(),
                    yn(rep.all_identical()),
                    yn(rep.hb_ok()),
                    yn(rep.proves_determinism()),
                ));
                if !rep.proves_determinism() {
                    verdict.problems.push(format!("explore-tsqr-p8:\n{}", rep.render()));
                }
            }
            Scenario::Serve(name, cfg) => {
                let report = PolicyReport::from_outcome(&serve(&ResourceCatalog::grid5000(), cfg));
                verdict.lines.push(format!("{name:<22} {}", report.summary_line()));
            }
        }
        verdict
    }
}

/// Runs every [`scenarios`] item on one thread per core.
pub fn run_all() -> Verdict {
    run(&scenarios(), cores())
}

/// Runs `scenarios` on `threads` threads: their lines and problems, in
/// the order of `scenarios`.
fn run(scenarios: &[Scenario], threads: usize) -> Verdict {
    // The fault matrix is the longest item, so the pool takes it first.
    let mut order: Vec<usize> = (0..scenarios.len()).collect();
    order.sort_by_key(|&i| scenarios[i] != Scenario::FaultMatrix);
    let mut verdicts = on_pool(&order, threads, |&i| (i, scenarios[i].run()));
    verdicts.sort_by_key(|(i, _)| *i);
    let mut all = Verdict::default();
    for (_, verdict) in verdicts {
        all.lines.extend(verdict.lines);
        all.problems.extend(verdict.problems);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_declares_every_golden_line_in_order() {
        // No scenario runs: the fault matrix and the explorer give one line
        // per schedule and one line.
        let golden = include_str!("../../../COMMCHECK_baseline.txt");
        let names: Vec<&str> = golden.lines().map(|l| l.split(' ').next().unwrap()).collect();
        let mut declared = Vec::new();
        for scenario in scenarios() {
            match scenario {
                Scenario::Traced(name, _) => declared.push(name.to_string()),
                Scenario::FaultMatrix => declared.extend(fault_matrix().into_iter().map(|f| f.0)),
                Scenario::Explore => declared.push("explore-tsqr-p8".into()),
                Scenario::Serve(name, _) => declared.push(name),
            }
        }
        assert_eq!(declared, names);
    }

    /// The scenarios a debug build runs in seconds: every TSQR shape but
    /// the 16-domain one, the explorer and the serving traces.
    #[test]
    fn the_cheap_scenarios_give_the_same_lines_on_any_number_of_threads() {
        let cheap: Vec<Scenario> = scenarios()
            .into_iter()
            .filter(|s| match s {
                Scenario::Traced(name, _) => name.starts_with("tsqr-") && *name != "tsqr-grid-d16",
                Scenario::FaultMatrix => false,
                Scenario::Explore | Scenario::Serve(..) => true,
            })
            .collect();
        assert_eq!(cheap.len(), 6 + 1 + 8);
        let golden = include_str!("../../../COMMCHECK_baseline.txt");
        let one = run(&cheap, 1);
        assert!(one.problems.is_empty(), "{:?}", one.problems);
        assert!(one.lines.iter().all(|l| golden.lines().any(|g| g == l)), "{:?}", one.lines);
        assert_eq!(one, run(&cheap, 2));
    }
}
