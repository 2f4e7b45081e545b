//! Model-driven reduction-tree autotuner.
//!
//! The paper hand-picks the Fig. 2 tree (binary per cluster, binary over
//! cluster roots). Demmel et al. prove TSQR is correct over *any*
//! reduction tree, so the shape is a free tuning knob — and because the
//! whole execution is priced by the calibrated (α, β, γ) cost model of
//! Eq. (1), the makespan of a candidate tree can be *predicted
//! analytically* without running the simulator: walk the
//! [`ReductionTree`] children-first through the pricing functions the
//! `gridmpi` runtime itself calls on `netsim`'s `CostModel` — including
//! `receive_done`, the receiver-side NIC serialization that makes flat
//! trees congest.
//!
//! [`autotune`] enumerates a candidate portfolio (the three fixed shapes,
//! k-ary and binomial families, and two greedy latency-aware
//! constructions — one priced at link-class granularity, one at the real
//! per-site-pair α/β costs), predicts each tree's makespan, picks the
//! argmin, and cross-checks the prediction against an actual `netsim`
//! replay — the one TSQR rank program run on dimensions alone
//! ([`crate::tile::Dims`]) — to 1e-9 relative — the same closed-loop discipline as
//! `modelfit`. See `docs/tuning.md` for the handbook and
//! `grid-tsqr tune` for the CLI.
//!
//! The predictor requires single-process domains (one rank per domain):
//! that is the regime of every Fig. 4–8 headline point, and it keeps the
//! leaf cost a single closed-form `geqrf` term.

use tsqr_gridmpi::Runtime;
use tsqr_linalg::flops;
use tsqr_netsim::{CostModel, GridTopology, VirtualTime};

use crate::domains::DomainLayout;
use crate::experiment::run_ranks;
use crate::tile::{packed_bytes, Dims};
use crate::tree::{ReductionTree, TreeShape};
use crate::tsqr::{tsqr_rank_program_with_async, TsqrConfig};

/// One candidate in the search table.
#[derive(Debug, Clone)]
pub struct TuneCandidate {
    /// Human-readable shape name (`"grid"`, `"kary4"`, `"greedy-cost"`, …).
    pub name: String,
    /// The shape itself (generated families are materialized as the
    /// shape enum; the cost-priced greedy is a [`TreeShape::Custom`]).
    pub shape: TreeShape,
    /// Analytic makespan under the cost model.
    pub predicted: VirtualTime,
    /// Tree depth ([`ReductionTree::depth`]).
    pub depth: usize,
    /// Messages crossing a wide-area link.
    pub wan_msgs: usize,
}

/// The autotuner's verdict for one topology/M/N point.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Every candidate, in search order (fixed shapes first), with its
    /// predicted makespan.
    pub table: Vec<TuneCandidate>,
    /// Index into `table` of the argmin candidate. Ties resolve to the
    /// earliest entry, so a generated tree must be *strictly* better to
    /// displace a fixed shape.
    pub winner: usize,
    /// The winner's makespan from an actual symbolic `netsim` replay.
    pub replayed: VirtualTime,
    /// Domains participating in the reduction.
    pub domains: usize,
}

impl TuneOutcome {
    /// The winning candidate.
    pub fn best(&self) -> &TuneCandidate {
        &self.table[self.winner]
    }
}

/// Analytically predicts the TSQR makespan for one reduction tree, pricing
/// each domain's walk through the same [`CostModel`] functions the
/// `gridmpi` runtime calls ([`CostModel::compute_time`],
/// [`CostModel::message_time`] and, for receives, the shared
/// [`CostModel::receive_done`]):
///
/// - leaf: `γ`-priced `geqrf` on the domain's rows;
/// - each child, ascending: the payload clocks in after whatever the
///   receiver's NIC was already receiving ([`CostModel::receive_done`]),
///   the serialization that congests flat trees at the root, and costs
///   one `tpqrt` combine at the combine rate;
/// - the send to the parent: the sender's clock advances by `β + α·bytes`
///   (plus the WAN surcharge inter-cluster), and the message *arrives* at
///   the post-advance clock — the rendezvous convention under which
///   Eq. (1) counts `β·#msg + α·vol`.
///
/// Because these are the simulator's own pricing functions applied in the
/// simulator's order, an idle network reproduces the simulated makespan
/// bit-for-bit, not merely approximately ([`autotune`] still only
/// *requires* 1e-9 relative agreement). What is still written twice is the
/// walk itself — children ascending, then the parent — here on clocks
/// alone and in [`crate::tsqr::tsqr_rank_program_with`] on messages; who
/// the children and the parent are is read from the one [`ReductionTree`].
///
/// # Panics
/// Panics when `layout` has multi-process domains (the leaf would be a
/// distributed `pdgeqr2`, which this closed form does not model) or when
/// `tree.len() != layout.num_domains()`.
pub fn predict_makespan(
    topo: &GridTopology,
    model: &CostModel,
    layout: &DomainLayout,
    tree: &ReductionTree,
    rate_flops: Option<f64>,
    combine_rate_flops: Option<f64>,
) -> VirtualTime {
    let d_count = layout.num_domains();
    assert_eq!(tree.len(), d_count, "tree size != domain count");
    assert!(
        layout.domains.iter().all(|d| d.ranks.len() == 1),
        "the analytic predictor needs single-process domains"
    );
    let n = layout.n;
    let r_bytes = packed_bytes(n);
    let combine = combine_rate_flops.or(rate_flops);
    let roots = layout.roots();
    let loc = |d: usize| topo.location(roots[d]);

    // Each domain's clock after its whole walk — for a non-root, the
    // arrival time of its upward send. Children first (the reverse of
    // `top_down`), so a parent finds its children's clocks filled in.
    let mut finished = vec![VirtualTime::ZERO; d_count];
    for &d in tree.top_down().iter().rev() {
        let (_row0, rows) = layout.member_rows(d, 0);
        let mut clock = model.compute_time(flops::geqrf(rows, n as u64), rate_flops);
        let mut nic_free = VirtualTime::ZERO;
        for &from in tree.children(d) {
            let done = model.receive_done(loc(from), loc(d), r_bytes, finished[from], nic_free);
            nic_free = done;
            clock = clock.max(done);
            clock += model.compute_time(flops::tpqrt(n as u64), combine);
        }
        if let Some(to) = tree.parent(d) {
            clock += model.message_time(loc(d), loc(to), r_bytes);
        }
        finished[d] = clock;
    }
    finished.into_iter().max().unwrap_or(VirtualTime::ZERO)
}

/// Runs the TSQR rank program on dimensions alone ([`Dims`]) under the
/// given shape and returns the simulated makespan — the ground truth [`autotune`] checks its
/// predictions against (and what the bench gate pins).
pub fn replay_makespan(
    rt: &Runtime,
    layout: &DomainLayout,
    shape: &TreeShape,
    rate_flops: Option<f64>,
    combine_rate_flops: Option<f64>,
) -> VirtualTime {
    let tree = ReductionTree::build(shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig {
        shape: shape.clone(),
        domains_per_cluster: layout.domains.len() / rt.topology().num_clusters().max(1),
        combine_rate_flops,
        ..Default::default()
    };
    let dims = |_, rows| Dims { rows, cols: layout.n };
    run_ranks::<Dims, _, _>(rt, async |p, _| {
        tsqr_rank_program_with_async(p, layout, &tree, &cfg, rate_flops, dims).await.map(|_| ())
    })
    .makespan
}

/// The candidate portfolio for a reduction over `cluster_of`-mapped
/// domain roots. Fixed shapes come first (ties in [`autotune`] resolve
/// toward them), then the generated families, then the two greedy
/// constructions: `greedy` prices links at class granularity
/// ([`TreeShape::Greedy`]), `greedy-cost` re-runs the same agglomeration
/// under the *measured* per-site-pair message and combine times and is
/// encoded as the [`TreeShape::Custom`] parent vector it produces.
pub fn candidate_shapes(
    topo: &GridTopology,
    model: &CostModel,
    layout: &DomainLayout,
    rate_flops: Option<f64>,
    combine_rate_flops: Option<f64>,
) -> Vec<(String, TreeShape)> {
    let d = layout.num_domains();
    let n = layout.n;
    let r_bytes = packed_bytes(n);
    let roots = layout.roots();
    let mut out: Vec<(String, TreeShape)> = vec![
        ("flat".into(), TreeShape::Flat),
        ("binary".into(), TreeShape::Binary),
        ("grid".into(), TreeShape::GridHierarchical),
    ];
    for k in [2usize, 3, 4, 8, 16] {
        if k + 1 < d {
            out.push((format!("kary{k}"), TreeShape::Kary(k)));
        }
    }
    if d > 2 {
        out.push(("binomial".into(), TreeShape::Binomial));
        out.push(("greedy".into(), TreeShape::Greedy));
        // Greedy under the real α/β: price a child→parent hand-off at the
        // model's actual message time between the two domain-root
        // locations, and a combine at its tpqrt time. On asymmetric WAN
        // meshes this sees what the class-level greedy cannot (see
        // docs/tuning.md).
        let combine =
            model.compute_time(flops::tpqrt(n as u64), combine_rate_flops.or(rate_flops)).secs();
        let parents = ReductionTree::greedy_parents(
            d,
            |child, parent| {
                model
                    .message_time(
                        topo.location(roots[child]),
                        topo.location(roots[parent]),
                        r_bytes,
                    )
                    .secs()
            },
            combine,
        );
        out.push(("greedy-cost".into(), TreeShape::Custom(parents)));
    }
    out
}

/// The one search both entry points run: predict every candidate of
/// [`candidate_shapes`] and return the table with the index of its argmin
/// (ties resolve to the earliest entry).
fn search(
    topo: &GridTopology,
    model: &CostModel,
    layout: &DomainLayout,
    rate_flops: Option<f64>,
    combine_rate_flops: Option<f64>,
) -> (Vec<TuneCandidate>, usize) {
    let cluster_of = layout.clusters();
    let table: Vec<TuneCandidate> =
        candidate_shapes(topo, model, layout, rate_flops, combine_rate_flops)
            .into_iter()
            .map(|(name, shape)| {
                let tree = ReductionTree::build(&shape, layout.num_domains(), &cluster_of);
                let predicted =
                    predict_makespan(topo, model, layout, &tree, rate_flops, combine_rate_flops);
                TuneCandidate {
                    name,
                    shape,
                    predicted,
                    depth: tree.depth(),
                    wan_msgs: tree.inter_cluster_messages(&cluster_of),
                }
            })
            .collect();
    let winner = table
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.predicted.secs().total_cmp(&b.predicted.secs()))
        .map(|(i, _)| i)
        .expect("portfolio is never empty");
    (table, winner)
}

/// Prediction-only re-planning: searches the same candidate portfolio as
/// [`autotune`] but needs no [`Runtime`] and skips the replay
/// cross-check, returning the argmin `(name, shape, predicted)` directly.
///
/// This is the entry point for callers that must re-plant a reduction
/// tree *mid-flight* — the serving engine's elastic re-allocation uses it
/// when a site crash shrinks a job's surviving site set and the original
/// `GridHierarchical` plan no longer matches the allocation. Ties resolve
/// to the earliest candidate, exactly like [`autotune`]: both are one
/// search.
pub fn plan_tree(
    topo: &GridTopology,
    model: &CostModel,
    layout: &DomainLayout,
    rate_flops: Option<f64>,
    combine_rate_flops: Option<f64>,
) -> (String, TreeShape, VirtualTime) {
    let (mut table, winner) = search(topo, model, layout, rate_flops, combine_rate_flops);
    let best = table.swap_remove(winner);
    (best.name, best.shape, best.predicted)
}

/// Searches the candidate portfolio for the minimum-makespan reduction
/// tree on `rt`'s topology, for an `m × n` factorization over
/// single-process domains (`domains_per_cluster` = ranks per cluster).
///
/// Returns the full search table plus the winner, whose analytic
/// prediction is cross-checked against a symbolic `netsim` replay;
/// disagreement beyond 1e-9 relative is a bug in the predictor (or a
/// drift in the simulator's pricing) and panics.
pub fn autotune(
    rt: &Runtime,
    m: u64,
    n: usize,
    domains_per_cluster: usize,
    rate_flops: Option<f64>,
    combine_rate_flops: Option<f64>,
) -> TuneOutcome {
    let layout = DomainLayout::build(rt.topology(), m, n, domains_per_cluster);
    let (table, winner) =
        search(rt.topology(), rt.cost_model(), &layout, rate_flops, combine_rate_flops);
    let replayed =
        replay_makespan(rt, &layout, &table[winner].shape, rate_flops, combine_rate_flops);
    let predicted = table[winner].predicted;
    let rel = (predicted.secs() - replayed.secs()).abs() / replayed.secs().abs().max(1e-12);
    assert!(
        rel <= 1e-9,
        "analytic prediction {} drifted from netsim replay {} (rel {rel:.3e})",
        predicted.secs(),
        replayed.secs()
    );
    TuneOutcome { table, winner, replayed, domains: layout.num_domains() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini_grid;

    #[test]
    fn prediction_matches_replay_bitwise_for_fixed_shapes() {
        let rt = mini_grid(4, 8);
        let layout = DomainLayout::build(rt.topology(), 1 << 16, 16, 8);
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
            let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
            let predicted =
                predict_makespan(rt.topology(), rt.cost_model(), &layout, &tree, None, None);
            let replayed = replay_makespan(&rt, &layout, &shape, None, None);
            assert_eq!(
                predicted.secs().to_bits(),
                replayed.secs().to_bits(),
                "{shape:?}: {} vs {}",
                predicted.secs(),
                replayed.secs()
            );
        }
    }

    #[test]
    fn prediction_matches_replay_for_generated_and_custom_trees() {
        let rt = mini_grid(3, 4);
        let layout = DomainLayout::build(rt.topology(), 1 << 14, 8, 4);
        let d = layout.num_domains();
        let lopsided: Vec<Option<usize>> =
            (0..d).map(|i| if i == 0 { None } else { Some(i / 3) }).collect();
        // Not heap-ordered: every odd domain hangs under the even one
        // *above* it, so no index order visits children before parents.
        let scrambled: Vec<Option<usize>> = (0..d)
            .map(|i| (i > 0).then_some(if i % 2 == 1 && i + 1 < d { i + 1 } else { 0 }))
            .collect();
        for shape in [
            TreeShape::Kary(3),
            TreeShape::Binomial,
            TreeShape::Greedy,
            TreeShape::Custom(lopsided),
            TreeShape::Custom(scrambled),
        ] {
            let tree = ReductionTree::build(&shape, d, &layout.clusters());
            let predicted = predict_makespan(
                rt.topology(),
                rt.cost_model(),
                &layout,
                &tree,
                Some(2.5e9),
                Some(1.5e9),
            );
            let replayed = replay_makespan(&rt, &layout, &shape, Some(2.5e9), Some(1.5e9));
            let rel = (predicted.secs() - replayed.secs()).abs() / replayed.secs();
            assert!(rel <= 1e-12, "{shape:?}: rel {rel:.3e}");
        }
    }

    #[test]
    fn autotuned_tree_never_loses_to_fixed_shapes() {
        let rt = mini_grid(4, 8);
        let outcome = autotune(&rt, 1 << 18, 32, 8, None, None);
        let layout = DomainLayout::build(rt.topology(), 1 << 18, 32, 8);
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
            let fixed = replay_makespan(&rt, &layout, &shape, None, None);
            assert!(
                outcome.replayed.secs() <= fixed.secs() + 1e-15,
                "tuned {} slower than {shape:?} {}",
                outcome.replayed.secs(),
                fixed.secs()
            );
        }
        // The table lists fixed shapes first and the argmin favors them
        // on ties.
        assert_eq!(outcome.table[0].name, "flat");
        assert_eq!(outcome.table[2].name, "grid");
        assert_eq!(outcome.domains, 32);
    }

    #[test]
    fn plan_tree_agrees_with_autotune_without_a_runtime() {
        let rt = mini_grid(3, 8);
        let outcome = autotune(&rt, 1 << 17, 16, 8, None, None);
        let layout = DomainLayout::build(rt.topology(), 1 << 17, 16, 8);
        let (name, shape, predicted) =
            plan_tree(rt.topology(), rt.cost_model(), &layout, None, None);
        assert_eq!(name, outcome.best().name, "same argmin, same tie-break");
        assert_eq!(shape, outcome.best().shape);
        assert_eq!(predicted.secs().to_bits(), outcome.best().predicted.secs().to_bits());
    }

    #[test]
    fn deep_chain_does_not_overflow_the_predictor() {
        // Kary(1) over 256 domains is a 255-deep chain; the walk must
        // handle it without recursion.
        let rt = mini_grid(4, 64);
        let layout = DomainLayout::build(rt.topology(), 1 << 20, 8, 64);
        let tree = ReductionTree::build(&TreeShape::Kary(1), 256, &layout.clusters());
        let predicted =
            predict_makespan(rt.topology(), rt.cost_model(), &layout, &tree, None, None);
        assert!(predicted.secs() > 0.0);
    }

    #[test]
    fn greedy_cost_candidate_is_heap_ordered_and_complete() {
        let rt = mini_grid(4, 8);
        let layout = DomainLayout::build(rt.topology(), 1 << 16, 16, 8);
        let shapes = candidate_shapes(rt.topology(), rt.cost_model(), &layout, None, None);
        let (_, custom) = shapes
            .iter()
            .find(|(name, _)| name == "greedy-cost")
            .expect("portfolio includes the cost-priced greedy");
        let tree = ReductionTree::build(custom, layout.num_domains(), &layout.clusters());
        assert!(tree.is_heap_ordered());
        assert_eq!(tree.total_messages(), layout.num_domains() - 1);
    }

    #[test]
    fn both_greedy_constructions_are_the_cubic_scan_on_the_figure_grid() {
        // What the greedy sees of a Fig. 4–8 point is the cluster map,
        // `packed_bytes(n)` and the combine time; M does not enter. So
        // sites × N at 64 processes per site covers all 96 points.
        use crate::tree::{greedy_parents_cubic, GREEDY_INTER_COST, GREEDY_INTRA_COST};
        use tsqr_qcg::{allocate, JobProfile, ResourceCatalog};
        for sites in [1, 2, 4] {
            let alloc =
                allocate(&ResourceCatalog::grid5000(), &JobProfile::cluster_of_clusters(sites, 64))
                    .expect("the Grid'5000 catalog fits the paper's profiles");
            let (topo, model) = (&alloc.topology, &alloc.network);
            // The class-cost tree reads the cluster map alone.
            let cluster_of = DomainLayout::build(topo, 1 << 20, 64, 64).clusters();
            let class = |child: usize, parent: usize| {
                if cluster_of[child] == cluster_of[parent] {
                    GREEDY_INTRA_COST
                } else {
                    GREEDY_INTER_COST
                }
            };
            assert_eq!(
                ReductionTree::build(&TreeShape::Greedy, cluster_of.len(), &cluster_of).parents(),
                greedy_parents_cubic(cluster_of.len(), class, GREEDY_INTRA_COST),
                "greedy, {sites} sites"
            );
            for n in [64, 128, 256, 512] {
                let layout = DomainLayout::build(topo, 1 << 20, n, 64);
                let (d, roots) = (layout.num_domains(), layout.roots());
                // The combine rate the figures charge (tsqr_bench::calib);
                // the leaf rate prices no part of the greedy.
                let combine_rate = Some(1.5e9);
                let shapes = candidate_shapes(topo, model, &layout, None, combine_rate);
                let (_, greedy_cost) =
                    shapes.iter().find(|(name, _)| name == "greedy-cost").expect("d > 2");
                let message = |child: usize, parent: usize| {
                    let (from, to) = (topo.location(roots[child]), topo.location(roots[parent]));
                    model.message_time(from, to, packed_bytes(n)).secs()
                };
                let combine = model.compute_time(flops::tpqrt(n as u64), combine_rate).secs();
                assert_eq!(
                    *greedy_cost,
                    TreeShape::Custom(greedy_parents_cubic(d, message, combine)),
                    "greedy-cost, {sites} sites, n={n}"
                );
            }
        }
    }
}
