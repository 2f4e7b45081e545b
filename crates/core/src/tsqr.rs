//! QCG-TSQR: the paper's algorithm (§III).
//!
//! Every domain factors its row block — locally (LAPACK-style `geqrf`) when
//! the domain is a single process, or with the distributed
//! [`crate::scalapack::pdgeqr2_async`] kernel when a *group* of processes shares
//! the domain. The per-domain `n × n` R factors are then reduced over a
//! configurable [`ReductionTree`] with the structured stacked-triangles QR
//! ([`tsqr_linalg::stacked::tpqrt`]); R factors travel **packed** (upper
//! triangle only, `n(n+1)/2` words), which is the `log₂(P)·N²/2` volume of
//! Table I.
//!
//! When the explicit Q is requested the reduction tree is walked a second
//! time, downward: each combine node splits its incoming `n × n` coupling
//! block `E` into `[E1; E2] = Q_node·[E; 0]`, keeps `E1` and returns `E2`
//! to the child that supplied `R2`; each leaf finally applies its implicit
//! local Q to `[E; 0]`, yielding its block of rows of the global Q. This
//! doubles both the message count and the flops — the paper's Table II and
//! Property 1.
//!
//! Least squares ([`crate::lstsq`]) re-walks nothing: it is
//! [`tsqr_rank_program_with_async`] on the augmented block `[A | b]`.

use tsqr_gridmpi::{block_on, CommError, Communicator, Process};
use tsqr_linalg::flops;
use tsqr_linalg::Matrix;

use crate::domains::DomainLayout;
use crate::scalapack::{pdgeqr2_async, PanelTile};
use crate::tree::{ReductionTree, TreeShape};
use crate::workload;

/// Tag for R factors travelling up the reduction tree.
const TAG_R: u32 = 1001;
/// Tag for coupling blocks travelling down during Q reconstruction.
const TAG_E: u32 = 1002;

/// Metrics/trace phase: per-domain leaf factorization.
pub(crate) const PHASE_LEAF: &str = "leaf-qr";
/// Metrics/trace phase: R reduction over the domain tree.
pub(crate) const PHASE_REDUCE: &str = "tree-reduce";
/// Metrics/trace phase: explicit-Q down-sweep.
const PHASE_DOWNSWEEP: &str = "q-downsweep";

/// Configuration of a QCG-TSQR run.
#[derive(Debug, Clone, PartialEq)]
pub struct TsqrConfig {
    /// Shape of the reduction tree over domains.
    pub shape: TreeShape,
    /// Domains per cluster (the knob of Figs. 6–7).
    pub domains_per_cluster: usize,
    /// Panel width of the local blocked QR at single-process leaves.
    pub nb: usize,
    /// Also reconstruct the explicit Q factor (requires single-process
    /// domains).
    pub compute_q: bool,
    /// Sustained rate (flop/s) charged for the stacked-triangles combine
    /// kernels, which are fine-grained and run below the blocked leaf
    /// rate; `None` charges them at the leaf rate. This is what makes
    /// "trading flops for intra-node communication" stop paying off at
    /// large N (§V-D, Fig. 7(b)).
    pub combine_rate_flops: Option<f64>,
}

impl Default for TsqrConfig {
    fn default() -> Self {
        TsqrConfig {
            shape: TreeShape::GridHierarchical,
            domains_per_cluster: 1,
            nb: tsqr_linalg::qr::DEFAULT_NB,
            compute_q: false,
            combine_rate_flops: None,
        }
    }
}

/// What one rank gets back from a TSQR run.
#[derive(Debug, Clone)]
pub struct TsqrRankOutput<T = Matrix> {
    /// The global `n × n` R factor — `Some` on global rank 0 only.
    pub r: Option<T>,
    /// This rank's rows of the explicit Q (`rows × n`) when requested.
    pub q_block: Option<T>,
    /// First global row this rank held.
    pub row0: u64,
    /// Number of rows this rank held.
    pub rows: u64,
}

/// Packs the upper triangle of an `n × n` matrix column-by-column —
/// `n(n+1)/2` values, the wire format of an R factor.
pub(crate) fn pack_upper(r: &Matrix) -> Vec<f64> {
    let n = r.rows();
    debug_assert_eq!(r.cols(), n, "R factors are square");
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    for j in 0..n {
        for i in 0..=j {
            out.push(r[(i, j)]);
        }
    }
    out
}

/// Inverse of [`pack_upper`].
pub(crate) fn unpack_upper(n: usize, packed: &[f64]) -> Matrix {
    assert_eq!(packed.len(), n * (n + 1) / 2, "packed R length mismatch");
    let mut r = Matrix::zeros(n, n);
    let mut it = packed.iter();
    for j in 0..n {
        for i in 0..=j {
            r[(i, j)] = *it.next().expect("length checked");
        }
    }
    r
}

/// The rank program of a numerically real QCG-TSQR run on the seeded
/// random workload (the experiment configuration of §V), for a rank on its
/// own thread (the schedule explorer, the threaded tests).
pub fn tsqr_rank_program(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    seed: u64,
    rate_flops: Option<f64>,
) -> Result<TsqrRankOutput, CommError> {
    let n = layout.n;
    tsqr_rank_program_with(p, layout, tree, cfg, rate_flops, |row0, rows| {
        workload::block(seed, row0, rows, n)
    })
}

/// [`tsqr_rank_program_with_async`] for a caller that cannot await: a rank
/// on its own thread under `tsqr_gridmpi::Runtime::run` with a blocking
/// closure (the wall-clock benchmark's real workloads).
pub fn tsqr_rank_program_with<T: PanelTile>(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    rate_flops: Option<f64>,
    local_block: impl FnOnce(u64, usize) -> T,
) -> Result<TsqrRankOutput<T>, CommError> {
    block_on(tsqr_rank_program_with_async(p, layout, tree, cfg, rate_flops, local_block))
}

/// The QCG-TSQR rank program over caller-supplied data.
///
/// `local_block(row0, rows)` must return that slice of the global matrix;
/// it is called exactly once per rank, for the rank's own rows. Returning
/// a [`Matrix`] makes the run numerically real — the entry point
/// applications use to orthonormalize *their* vectors (e.g. the block
/// eigensolvers of §II-E). Returning the slice's
/// [`Dims`](crate::tile::Dims) (`|_, rows| Dims { rows, cols: n }`) runs
/// the identical schedule and flop charges on dimensions alone — what
/// every paper-scale figure and the tuner's replay execute.
pub async fn tsqr_rank_program_with_async<T: PanelTile>(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    rate_flops: Option<f64>,
    local_block: impl FnOnce(u64, usize) -> T,
) -> Result<TsqrRankOutput<T>, CommError> {
    let n = layout.n;
    let d = layout
        .domain_of_rank(p.rank())
        .unwrap_or_else(|| panic!("rank {} is in no domain", p.rank()));
    let dom = &layout.domains[d];
    let member = dom.ranks.iter().position(|&r| r == p.rank()).expect("member of own domain");
    let (row0, rows) = layout.member_rows(d, member);
    let mut local = local_block(row0, rows as usize);
    assert_eq!(local.shape(), (rows as usize, n), "local_block returned the wrong shape");
    let roots = layout.roots();
    let combine_rate = cfg.combine_rate_flops.or(rate_flops);

    // --- Leaf / domain factorization. ---
    p.phase_begin(PHASE_LEAF);
    let mut leaf_q: Option<(T, Vec<f64>)> = None;
    let mut r_cur: Option<T>;
    if dom.ranks.len() == 1 {
        let (tau, r) = local.factor_panel(0, 0, rows as usize, n, cfg.nb);
        p.compute(flops::geqrf(rows, n as u64), rate_flops);
        r_cur = Some(r);
        // Only the down-sweep reads the factored leaf: an R-only run frees
        // its block of the matrix here, not when the rank returns.
        leaf_q = cfg.compute_q.then_some((local, tau));
    } else {
        assert!(
            !cfg.compute_q,
            "explicit Q requires single-process domains (use domains_per_cluster = procs)"
        );
        let group = Communicator::from_members(dom.ranks.clone());
        r_cur = pdgeqr2_async(p, &group, local, rate_flops).await?.r;
    }
    p.phase_end();

    // --- Reduction over domain roots. ---
    p.phase_begin(PHASE_REDUCE);
    p.annotate(cfg.shape.label());
    let mut combine_stack: Vec<T::Combine> = Vec::new();
    if member == 0 {
        let r1 = r_cur.as_mut().expect("domain root holds its R");
        for &from_d in tree.children(d) {
            let f = r1.tpqrt(p.recv_async(roots[from_d], TAG_R).await?);
            p.compute(flops::tpqrt(n as u64), combine_rate);
            if cfg.compute_q {
                combine_stack.push(f);
            }
        }
        if let Some(to_d) = tree.parent(d) {
            p.send(roots[to_d], TAG_R, r1.pack_upper())?;
        }
    }
    p.phase_end();

    // --- Optional Q reconstruction (down-sweep). ---
    let mut q_block = None;
    if cfg.compute_q {
        p.phase_begin(PHASE_DOWNSWEEP);
        // Single-process domains only (asserted above), so every rank is a
        // domain root and participates.
        let mut e = match tree.parent(d) {
            Some(parent_d) => p.recv_async::<T>(roots[parent_d], TAG_E).await?,
            None => T::identity(n),
        };
        // One combine per child, undone last-combined first.
        for (f, &partner_d) in combine_stack.iter().zip(tree.children(d)).rev() {
            let c2 = T::expand(f, &mut e);
            // Table II's convention, and the kernel's work: E is upper
            // triangular (the identity at the root, and Q·[E; 0] keeps
            // both halves so), so the expansion skips the columns left of
            // each reflector and costs the up-sweep combine's 2/3·N³.
            p.compute(flops::tpqrt(n as u64), combine_rate);
            p.send(roots[partner_d], TAG_E, c2)?;
        }
        // Leaf: Q_local = implicit-Q · [E; 0], at the cost of org2r.
        let (factored, tau) = leaf_q.as_ref().expect("single-process leaf keeps its factors");
        q_block = Some(factored.expand_leaf(tau, &e));
        p.compute(flops::org2r(rows, n as u64), rate_flops);
        p.phase_end();
    }

    let r = (p.rank() == 0).then(|| r_cur.expect("global root keeps the final R"));
    Ok(TsqrRankOutput { r, q_block, row0, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini_grid;
    use tsqr_gridmpi::Runtime;
    use tsqr_linalg::prelude::*;
    use tsqr_linalg::verify::{is_upper_triangular, orthogonality, r_distance, relative_residual};

    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        let a = workload::full_matrix(seed, m, n);
        QrFactors::compute(&a, 16).r().upper_triangular_padded()
    }

    fn run_tsqr(
        rt: &Runtime,
        m: u64,
        n: usize,
        cfg: TsqrConfig,
        seed: u64,
    ) -> (Matrix, Vec<TsqrRankOutput>, tsqr_gridmpi::RunReport<TsqrRankOutput>) {
        let layout = DomainLayout::build(rt.topology(), m, n, cfg.domains_per_cluster);
        let tree = ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
        let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, None));
        let outs: Vec<TsqrRankOutput> =
            report.ranks.iter().map(|r| r.result.clone().unwrap()).collect();
        let r = outs[0].r.clone().expect("rank 0 holds R");
        (r, outs, report)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let r = Matrix::random_uniform(5, 5, 1).upper_triangular_padded();
        let packed = pack_upper(&r);
        assert_eq!(packed.len(), 15);
        assert!(unpack_upper(5, &packed).approx_eq(&r, 0.0));
    }

    #[test]
    fn r_matches_reference_all_tree_shapes() {
        let (m, n) = (256u64, 8);
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
            let rt = mini_grid(2, 4);
            let cfg =
                TsqrConfig { shape: shape.clone(), domains_per_cluster: 4, ..Default::default() };
            let (r, _, _) = run_tsqr(&rt, m, n, cfg, 21);
            assert!(is_upper_triangular(&r));
            assert!(
                r_distance(&r, &reference_r(21, m as usize, n)) < 1e-11,
                "R mismatch for {shape:?}"
            );
        }
    }

    #[test]
    fn r_matches_reference_with_grouped_domains() {
        // 2 clusters × 4 procs, 2 domains per cluster → groups of 2 running
        // the distributed ScaLAPACK-style leaf.
        let (m, n) = (320u64, 6);
        let rt = mini_grid(2, 4);
        for dpc in [1, 2] {
            let cfg = TsqrConfig {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: dpc,
                ..Default::default()
            };
            let (r, _, _) = run_tsqr(&rt, m, n, cfg, 23);
            assert!(
                r_distance(&r, &reference_r(23, m as usize, n)) < 1e-11,
                "R mismatch with {dpc} domains/cluster"
            );
        }
    }

    #[test]
    fn explicit_q_reconstructs_the_matrix() {
        let (m, n) = (192u64, 6);
        for shape in [TreeShape::Binary, TreeShape::GridHierarchical] {
            let rt = mini_grid(2, 4);
            let cfg = TsqrConfig {
                shape: shape.clone(),
                domains_per_cluster: 4,
                compute_q: true,
                ..Default::default()
            };
            let (r, outs, _) = run_tsqr(&rt, m, n, cfg, 29);
            // Assemble Q from the per-rank blocks, in row order.
            let mut blocks: Vec<(u64, Matrix)> =
                outs.iter().map(|o| (o.row0, o.q_block.clone().expect("q requested"))).collect();
            blocks.sort_by_key(|(row0, _)| *row0);
            let refs: Vec<&Matrix> = blocks.iter().map(|(_, b)| b).collect();
            let q = Matrix::vstack_all(&refs);
            let a = workload::full_matrix(29, m as usize, n);
            assert!(orthogonality(&q) < 1e-12, "Q not orthogonal for {shape:?}");
            assert!(relative_residual(&a, &q, &r) < 1e-12, "A != QR for {shape:?}");
        }
    }

    /// The down-sweep before `Tile::expand`, kept as the oracle: a
    /// sequential replay of one run — leaf `geqrf`s, `tpqrt` up the tree,
    /// then `tpmqrt` on the dense pair `[E; 0]` at every combine and `orm2r`
    /// on every leaf's `[E; 0]`. Returns R and each domain's rows of Q.
    fn dense_downsweep_replay(
        layout: &DomainLayout,
        tree: &ReductionTree,
        seed: u64,
        nb: usize,
    ) -> (Matrix, Vec<Matrix>) {
        let n = layout.n;
        let leaves: Vec<QrFactors> = layout
            .domains
            .iter()
            .map(|d| QrFactors::compute(&workload::block(seed, d.row0, d.rows as usize, n), nb))
            .collect();
        let mut rs: Vec<Matrix> = leaves.iter().map(QrFactors::r).collect();
        let mut combines: Vec<Vec<StackedFactors>> = vec![Vec::new(); leaves.len()];
        let order = tree.top_down();
        for &d in order.iter().rev() {
            for &child in tree.children(d) {
                let mut r2 = rs[child].clone();
                combines[d].push(tpqrt(&mut rs[d], &mut r2));
            }
        }
        let mut es = vec![Matrix::identity(n); leaves.len()];
        for &d in &order {
            let mut e = es[d].clone();
            for (f, &child) in combines[d].iter().zip(tree.children(d)).rev() {
                let mut c2 = Matrix::zeros(n, n);
                tpmqrt(Trans::No, f, &mut e, &mut c2);
                es[child] = c2;
            }
            es[d] = e;
        }
        let q = leaves.iter().zip(&es).map(|(leaf, e)| {
            let mut c = Matrix::zeros(leaf.factors.rows(), n);
            c.set_sub(0, 0, e);
            orm2r(Side::Left, Trans::No, &leaf.factors.view(), &leaf.tau, &mut c.view_mut());
            c
        });
        (rs.swap_remove(0), q.collect())
    }

    #[test]
    fn q_and_r_are_bit_identical_to_the_dense_down_sweep() {
        let same_bits = |a: &Matrix, b: &Matrix| {
            a.shape() == b.shape()
                && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let procs = 4;
        for clusters in [1, 2, 4] {
            let rt = mini_grid(clusters, procs);
            let ranks = clusters * procs;
            let chain = TreeShape::Custom((0..ranks).map(|i| i.checked_sub(1)).collect());
            let shapes = [
                TreeShape::Flat,
                TreeShape::Binary,
                TreeShape::GridHierarchical,
                TreeShape::Kary(3),
                TreeShape::Binomial,
                TreeShape::Greedy,
                chain,
            ];
            for n in [8, 33, 64] {
                let seed = 61 + n as u64;
                let m = (ranks * (2 * n + 3)) as u64;
                let layout = DomainLayout::build(rt.topology(), m, n, procs);
                for shape in shapes.clone() {
                    let cfg = TsqrConfig {
                        shape,
                        domains_per_cluster: procs,
                        compute_q: true,
                        ..Default::default()
                    };
                    let case = format!("{:?} n={n} on {clusters} clusters", cfg.shape);
                    let tree =
                        ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
                    let (got_r, outs, _) = run_tsqr(&rt, m, n, cfg.clone(), seed);
                    let (r, q) = dense_downsweep_replay(&layout, &tree, seed, cfg.nb);
                    assert!(same_bits(&got_r, &r), "{case}: R");
                    for (rank, out) in outs.iter().enumerate() {
                        let d = layout.domain_of_rank(rank).expect("every rank is a domain");
                        let got = out.q_block.as_ref().expect("q requested");
                        assert!(same_bits(got, &q[d]), "{case}: Q of domain {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_tree_sends_minimum_wan_messages() {
        let (m, n) = (512u64, 4);
        let clusters = 3;
        let rt = mini_grid(clusters, 4);
        let cfg = TsqrConfig {
            shape: TreeShape::GridHierarchical,
            domains_per_cluster: 4,
            ..Default::default()
        };
        let (_, _, report) = run_tsqr(&rt, m, n, cfg, 31);
        // Fig. 2: exactly clusters − 1 inter-cluster messages, whatever n.
        assert_eq!(report.totals.inter_cluster_msgs(), (clusters - 1) as u64);
    }

    #[test]
    fn tsqr_messages_match_table_one() {
        // Table I: TSQR sends log₂(P) messages (critical path) vs
        // ScaLAPACK's 2N·log₂(P). Total tree messages are P − 1.
        let (m, n) = (512u64, 8);
        let rt = mini_grid(1, 8);
        let cfg =
            TsqrConfig { shape: TreeShape::Binary, domains_per_cluster: 8, ..Default::default() };
        let (_, _, report) = run_tsqr(&rt, m, n, cfg, 41);
        assert_eq!(report.totals.total_msgs(), 7, "tree reduce = P − 1 messages");
        // Critical path: depth of the tree = log₂(8) = 3 sequential
        // combines at the root; the root receives 3 messages.
        assert_eq!(report.ranks[0].stats.traffic.total_msgs(), 0, "root only receives");
        assert_eq!(report.max_msgs_per_rank(), 1, "each non-root sends exactly once");
    }

    #[test]
    fn q_computation_roughly_doubles_time_property_one() {
        let (m, n) = (4096u64, 8);
        let rt = mini_grid(1, 4);
        let base =
            TsqrConfig { shape: TreeShape::Binary, domains_per_cluster: 4, ..Default::default() };
        let (_, _, rep_r) = run_tsqr(&rt, m, n, base.clone(), 43);
        let with_q = TsqrConfig { compute_q: true, ..base };
        let (_, _, rep_qr) = run_tsqr(&rt, m, n, with_q, 43);
        let ratio = rep_qr.makespan.secs() / rep_r.makespan.secs();
        assert!(
            (1.7..=2.3).contains(&ratio),
            "Property 1: Q+R should cost about twice R-only, got {ratio}"
        );
    }

    #[test]
    fn deterministic_makespan() {
        let rt = mini_grid(2, 2);
        let cfg = TsqrConfig { domains_per_cluster: 2, ..Default::default() };
        let layout = DomainLayout::build(rt.topology(), 128, 4, 2);
        let tree = ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
        let m1 = rt
            .run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, 47, None).map(|_| ()))
            .makespan;
        let m2 = rt
            .run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, 47, None).map(|_| ()))
            .makespan;
        assert_eq!(m1, m2);
    }
}
