//! `tune-plan`: `tune::plan_tree` over the Fig. 4–8 grid — the predictor
//! and the candidate/tree builders with no runtime and no threads. The
//! clean control for a predictor rewrite: nothing else is on the path.

use tsqr_core::domains::DomainLayout;
use tsqr_core::tune;
use tsqr_gridmpi::Runtime;
use tsqr_qcg::Allocation;

use crate::check::check_close;
use crate::harness::{time_median, Layers, Pass, Workload};
use crate::probes::{self, calibrated_rates, PROCS_PER_SITE};
use crate::trace::Tracer;

/// Figs. 4–8 sweep every site count and column count over the row counts
/// 2¹⁷ … 2²⁵ (N ≤ 128) or 2¹⁷ … 2²³ (wider): 96 grid points. A sample
/// plans the 24 of them at the two ends of the row range all four column
/// counts share; the traced pass plans all 96 once and reports both costs
/// per point, so that the slice stands for the grid is measured.
const SITES: [usize; 3] = [1, 2, 4];
const COLS: [usize; 4] = [64, 128, 256, 512];
const SAMPLE_ROWS: [u64; 2] = [1 << 17, 1 << 23];

fn paper_rows(n: usize) -> impl Iterator<Item = u64> {
    let top = if n <= 128 { 25 } else { 23 };
    (17..=top).map(|e| 1u64 << e)
}

/// The autotuner's gate points (`tune/fig4` … `tune/fig8`; Figs. 4 and 5
/// share one): `(sites, M, N)`.
const GATE_POINTS: [(usize, u64, usize); 4] = [
    (4, 1 << 20, 64),
    (4, 1 << 22, 64),
    (1, 1 << 20, 64),
    (4, 1 << 23, 512),
];

/// One grid point's plan: the winning shape's name and its predicted
/// makespan, bit for bit.
type Plan = (String, u64);

pub struct TunePlan {
    allocs: Vec<Allocation>,
    /// `(index into allocs, M, N)`.
    points: Vec<(usize, u64, usize)>,
    predictions: usize,
    gate: Result<(), String>,
    first: Option<Vec<Plan>>,
}

fn plan(alloc: &Allocation, m: u64, n: usize) -> Plan {
    let layout = DomainLayout::build(&alloc.topology, m, n, PROCS_PER_SITE);
    let (rate, combine) = calibrated_rates(n);
    let (name, _, predicted) =
        tune::plan_tree(&alloc.topology, &alloc.network, &layout, rate, combine);
    (name, predicted.secs().to_bits())
}

impl TunePlan {
    pub fn setup(tr: &Tracer) -> Self {
        let allocs: Vec<Allocation> = SITES
            .iter()
            .map(|&s| tr.span("qcg.allocate", || probes::grid_allocation(s)))
            .collect();
        let mut points = Vec::new();
        let mut predictions = 0;
        for (a, alloc) in allocs.iter().enumerate() {
            for n in COLS {
                for m in SAMPLE_ROWS {
                    let layout = DomainLayout::build(&alloc.topology, m, n, PROCS_PER_SITE);
                    let (rate, combine) = calibrated_rates(n);
                    predictions += tune::candidate_shapes(
                        &alloc.topology,
                        &alloc.network,
                        &layout,
                        rate,
                        combine,
                    )
                    .len();
                    points.push((a, m, n));
                }
            }
        }
        // The prediction-only planner must pick what the replay-checked
        // autotuner picks, at the autotuner's own gate points.
        let gate = tr.span("core.autotune_gate", || {
            GATE_POINTS.iter().try_for_each(|&(sites, m, n)| {
                let alloc = &allocs[SITES
                    .iter()
                    .position(|&s| s == sites)
                    .expect("a swept site count")];
                let rt = Runtime::new(alloc.topology.clone(), alloc.network.clone());
                let (rate, combine) = calibrated_rates(n);
                let tuned = tune::autotune(&rt, m, n, PROCS_PER_SITE, rate, combine);
                let (name, bits) = plan(alloc, m, n);
                if name != tuned.best().name {
                    return Err(format!(
                        "plan_tree picks {name}, autotune {} at {sites}x{m}x{n}",
                        tuned.best().name
                    ));
                }
                check_close(
                    "plan_tree vs autotune replay",
                    f64::from_bits(bits),
                    tuned.replayed.secs(),
                    1e-9,
                )
            })
        });
        TunePlan {
            allocs,
            points,
            predictions,
            gate,
            first: None,
        }
    }
}

impl Workload for TunePlan {
    type Out = Vec<Plan>;

    fn sample(&self, tr: &Tracer) -> Vec<Plan> {
        tr.span("core.plan_grid", || {
            self.points
                .iter()
                .map(|&(a, m, n)| plan(&self.allocs[a], m, n))
                .collect()
        })
    }

    fn check(&mut self, out: &Vec<Plan>) -> Result<(), String> {
        self.gate.clone()?;
        if out.len() != self.points.len() {
            return Err(format!(
                "{} plans for {} grid points",
                out.len(),
                self.points.len()
            ));
        }
        let first = self.first.get_or_insert_with(|| out.clone());
        match first.iter().zip(out).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(format!(
                "grid point {:?} planned {:?} then {:?}",
                self.points[i], first[i], out[i]
            )),
        }
    }

    /// `predict_makespan` evaluations: one per candidate shape per point.
    fn work(&self) -> f64 {
        self.predictions as f64
    }

    fn layers(&self, tr: &Tracer, _out: &Vec<Plan>, pass: &Pass, layers: &mut Layers) {
        let wall_s = pass.wall_s;
        let alloc = self.allocs.last().expect("the four-site allocation");
        let (m, n) = (1 << 20, 64);
        let (predict_us, candidates_ms) =
            probes::predict_us_and_candidates_ms(tr, alloc, m, n, calibrated_rates(n));
        layers.insert(
            "core.layout_tree_build_us",
            probes::layout_tree_build_us(tr, alloc, m, n),
        );
        layers.insert("core.predict_us", predict_us);
        layers.insert("core.candidates_ms", candidates_ms);
        layers.insert("core.plan_tree_ms", 1e3 * wall_s / self.points.len() as f64);
        let full_grid: Vec<(usize, u64, usize)> = (0..SITES.len())
            .flat_map(|a| COLS.into_iter().map(move |n| (a, n)))
            .flat_map(|(a, n)| paper_rows(n).map(move |m| (a, m, n)))
            .collect();
        let full_grid_s = tr.span("core.plan_full_grid", || {
            time_median(3, || {
                for &(a, m, n) in &full_grid {
                    std::hint::black_box(plan(&self.allocs[a], m, n));
                }
            })
        });
        layers.insert(
            "core.plan_tree_full_grid_ms",
            1e3 * full_grid_s / full_grid.len() as f64,
        );
        layers.insert("netsim.message_time_ns", probes::message_time_ns(tr, alloc));
        layers.insert("qcg.allocate_us", probes::allocate_us(tr));
    }
}
