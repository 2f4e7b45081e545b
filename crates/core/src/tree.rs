//! Reduction trees for the TSQR all-reduce.
//!
//! TSQR is "a single complex reduce operation" (§II-C); the *shape* of the
//! reduction tree is the paper's key tuning knob. Previous work used flat
//! trees (out-of-core, multicore) or binary trees (parallel distributed);
//! the paper's contribution is the **grid-hierarchical** tree of Fig. 2: a
//! binary tree inside each cluster, then a binary tree across the cluster
//! roots, which pushes the inter-cluster message count down to
//! `#clusters − 1` regardless of the matrix width.
//!
//! This module generalizes that knob the way Demmel et al. prove is safe
//! (TSQR is correct over *any* reduction tree): a [`TreeShape`] is either
//! one of the classic fixed shapes, a **generated family**
//! ([`TreeShape::Kary`], [`TreeShape::Greedy`]), or a fully **arbitrary
//! tree** given as a parent vector ([`TreeShape::Custom`]). The
//! model-driven autotuner in [`crate::tune`] searches this space with the
//! calibrated α/β/γ cost model and returns the argmin shape for a topology
//! (see `docs/tuning.md`).
//!
//! A [`ReductionTree`] *is* its parent vector: every shape is a rule
//! naming each participant's parent, and the one constructor
//! (`ReductionTree::from_parents`) derives the children lists from it.
//! A participant combines its children's R factors in **ascending index
//! order** (ours is `R1`, theirs is `R2`) — the floating-point combine
//! order of every walker — then forwards the accumulated R to its parent
//! and is done. The explicit Q walks the same relation in reverse:
//! receive from the parent, then scatter the `[E1; E2]` blocks back to
//! the children, last-combined first.

/// The shape of the reduction tree.
///
/// The first three are the paper's fixed shapes; the rest open the full
/// tree space for the autotuner ([`crate::tune`], `docs/tuning.md`).
/// Shapes carrying data (`Custom`) make this type `Clone` but not `Copy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeShape {
    /// Everyone sends to participant 0, which combines sequentially —
    /// the out-of-core / multicore shape.
    Flat,
    /// Topology-oblivious binary tree over participant indices (index
    /// halving, depth `⌈log₂ P⌉`) — what a grid-unaware MPI reduction does.
    Binary,
    /// Binary tree within each cluster, then binary tree over the cluster
    /// roots — the paper's tuned tree (Fig. 2).
    GridHierarchical,
    /// k-ary tree over participant indices: participant `i`'s parent is
    /// `(i − 1) / k`. `Kary(1)` is a chain (depth `P − 1`, pipelined);
    /// `Kary(P − 1)` degenerates to [`TreeShape::Flat`].
    Kary(usize),
    /// The binomial tree of a classic MPI `Reduce` — which *is*
    /// [`TreeShape::Binary`]: index halving sends `i` to `i` minus its
    /// lowest set bit, so both names build the identical tree for every
    /// `P` (`ReductionTree::binomial_parents`). Kept as a CLI name and
    /// a row of the tuner's portfolio.
    Binomial,
    /// Greedy latency-aware construction: repeatedly merge the two
    /// subtrees whose merge completes cheapest under link-class costs
    /// (intra-cluster cheap, inter-cluster expensive), a Huffman-style
    /// bottom-up agglomeration. [`ReductionTree::build`] prices links at
    /// the class granularity from `cluster_of` alone; the autotuner
    /// re-runs the same construction under the *measured* per-site-pair
    /// α/β costs (`ReductionTree::greedy_parents`) where it can exploit
    /// WAN asymmetry (see `docs/tuning.md`).
    Greedy,
    /// An arbitrary tree as a parent vector: `parents[i]` is participant
    /// `i`'s parent, `None` exactly at the root, which must be
    /// participant 0 — verbatim what `ReductionTree::parents` returns.
    Custom(Vec<Option<usize>>),
}

impl TreeShape {
    /// Short stable label for traces, tables and CLI output
    /// (`"grid"`, `"kary4"`, …). `&'static` so it can annotate
    /// [`tsqr_gridmpi::trace::Event`] phase spans.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            TreeShape::Flat => "flat",
            TreeShape::Binary => "binary",
            TreeShape::GridHierarchical => "grid",
            TreeShape::Kary(1) => "chain",
            TreeShape::Kary(2) => "kary2",
            TreeShape::Kary(3) => "kary3",
            TreeShape::Kary(4) => "kary4",
            TreeShape::Kary(8) => "kary8",
            TreeShape::Kary(16) => "kary16",
            TreeShape::Kary(_) => "kary",
            TreeShape::Binomial => "binomial",
            TreeShape::Greedy => "greedy",
            TreeShape::Custom(_) => "custom",
        }
    }
}

/// Abstract link-class costs used by [`TreeShape::Greedy`] when only the
/// participant→cluster map is known: one unit per intra-cluster hop, and
/// the measured Grid'5000 latency ratio (~8 ms WAN vs ~0.07 ms LAN,
/// Fig. 3(a)) per inter-cluster hop. The autotuner replaces these with
/// the real α/β prices.
pub(crate) const GREEDY_INTRA_COST: f64 = 1.0;
/// See [`GREEDY_INTRA_COST`].
pub(crate) const GREEDY_INTER_COST: f64 = 100.0;

/// A reduction tree over participants `0..n`, rooted at participant 0
/// (which holds the final R): the parent vector, plus each participant's
/// children in ascending index order — the order it combines them in.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionTree {
    parents: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

/// The parent vector in which every non-root `i` has parent `rule(i)`.
fn parents_by(n: usize, rule: impl Fn(usize) -> usize) -> Vec<Option<usize>> {
    (0..n).map(|i| (i > 0).then(|| rule(i))).collect()
}

/// `i` with its lowest set bit cleared (`i > 0`): the index-halving parent.
fn clear_lowest_bit(i: usize) -> usize {
    i & (i - 1)
}

impl ReductionTree {
    /// Builds the tree of `shape` over `n` participants.
    ///
    /// `cluster_of[i]` gives participant `i`'s cluster and is only
    /// consulted by [`TreeShape::GridHierarchical`] and
    /// [`TreeShape::Greedy`]; participants of a cluster must form a
    /// contiguous index range for the hierarchical shape (which the QCG
    /// allocation guarantees).
    ///
    /// # Panics
    /// Panics on `n = 0`, on a `cluster_of` length mismatch for the
    /// topology-aware shapes, on `Kary(0)`, and on a
    /// [`TreeShape::Custom`] parent vector that is not a valid tree of
    /// exactly `n` participants rooted at 0 (see
    /// `ReductionTree::from_parents`).
    pub fn build(shape: &TreeShape, n: usize, cluster_of: &[usize]) -> Self {
        assert!(n > 0, "reduction over zero participants");
        let parents = match shape {
            TreeShape::Flat => parents_by(n, |_| 0),
            TreeShape::Binary | TreeShape::Binomial => Self::binomial_parents(n),
            TreeShape::GridHierarchical => {
                assert_eq!(cluster_of.len(), n, "cluster_of length mismatch");
                Self::hierarchical_parents(cluster_of)
            }
            TreeShape::Kary(k) => Self::kary_parents(n, *k),
            TreeShape::Greedy => {
                assert_eq!(cluster_of.len(), n, "cluster_of length mismatch");
                Self::greedy_parents(
                    n,
                    |child, parent| {
                        if cluster_of[child] == cluster_of[parent] {
                            GREEDY_INTRA_COST
                        } else {
                            GREEDY_INTER_COST
                        }
                    },
                    GREEDY_INTRA_COST,
                )
            }
            TreeShape::Custom(parents) => {
                assert_eq!(
                    parents.len(),
                    n,
                    "custom tree has {} participants, reduction needs {n}",
                    parents.len()
                );
                parents.clone()
            }
        };
        Self::from_parents(&parents)
    }

    /// The one constructor: `parents[i]` is participant `i`'s parent,
    /// `None` exactly at the root (participant 0). Children lists are
    /// filled in one ascending pass, so every participant combines its
    /// children in ascending index order.
    ///
    /// # Panics
    /// Panics when the vector is empty, when the root is not participant
    /// 0 (or is not unique), on an out-of-range or self-referential
    /// parent, or on a cycle.
    fn from_parents(parents: &[Option<usize>]) -> Self {
        let n = parents.len();
        assert!(n > 0, "reduction over zero participants");
        assert_eq!(parents[0], None, "participant 0 must be the root");
        let mut children = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate().skip(1) {
            let p = p.unwrap_or_else(|| panic!("participant {i}: only the root lacks a parent"));
            assert!(p < n, "participant {i}: parent {p} out of range");
            assert_ne!(p, i, "participant {i} cannot be its own parent");
            children[p].push(i);
        }
        let tree = ReductionTree { parents: parents.to_vec(), children };
        // Everyone has exactly one parent, so whoever the walk down from
        // the root misses sits on (or hangs off) a cycle.
        let mut reached = vec![false; n];
        for i in tree.top_down() {
            reached[i] = true;
        }
        if let Some(start) = reached.iter().position(|r| !r) {
            panic!("cycle through participant {start}");
        }
        tree
    }

    /// Parent vector of Fig. 2's tree: index halving inside each maximal
    /// run of equal `cluster_of`, then over the run roots.
    fn hierarchical_parents(cluster_of: &[usize]) -> Vec<Option<usize>> {
        let mut run_roots: Vec<usize> = Vec::new();
        let mut parents = Vec::with_capacity(cluster_of.len());
        for i in 0..cluster_of.len() {
            match run_roots.last() {
                Some(&root) if cluster_of[root] == cluster_of[i] => {
                    parents.push(Some(root + clear_lowest_bit(i - root)));
                }
                _ => {
                    let run = run_roots.len();
                    parents.push((run > 0).then(|| run_roots[clear_lowest_bit(run)]));
                    run_roots.push(i);
                }
            }
        }
        parents
    }

    /// Parent vector of the k-ary tree: `i`'s parent is `(i − 1) / k`.
    /// Parents always have lower indices than their children.
    fn kary_parents(n: usize, k: usize) -> Vec<Option<usize>> {
        assert!(k >= 1, "k-ary tree needs k >= 1");
        parents_by(n, |i| (i - 1) / k)
    }

    /// Parent vector of the binary (index-halving) tree, which is the
    /// binomial tree: `i`'s parent clears `i`'s lowest set bit. Parents
    /// always have lower indices than their children.
    fn binomial_parents(n: usize) -> Vec<Option<usize>> {
        parents_by(n, clear_lowest_bit)
    }

    /// Parent vector of the greedy latency-aware construction: start with
    /// `n` singleton subtrees of cost 0, then repeatedly merge the pair
    /// whose merged subtree *completes earliest* — the lower-indexed root
    /// absorbs the higher-indexed one at
    /// `max(cost_lo, cost_hi + edge_cost(hi, lo)) + combine_cost` — until
    /// one tree remains. A Huffman-style agglomeration under the α/β link
    /// prices: expensive (WAN) edges are deferred and therefore rare,
    /// cheap (LAN) subtrees are ground down first.
    ///
    /// `edge_cost(child_root, parent_root)` prices the hand-off message;
    /// `combine_cost` prices one `tpqrt` combine. Deterministic: ties
    /// break toward the lowest root pair. The lower-index root always
    /// absorbs the higher one, so parents have lower indices than their
    /// children (the heap order [`crate::ft_tsqr`] relies on).
    ///
    /// Cost: the definition above re-prices every remaining pair at every
    /// merge (`C(n + 1, 3)` `edge_cost` calls, ≈ 2.8 M at `n = 256`). Here
    /// **a pair has one price**: `edge_cost` runs exactly `n(n − 1)/2` times
    /// (2 016 / 8 128 / 32 640 at `n = 64 / 128 / 256`), into a triangular
    /// table — O(n²) words, 261 KB at the grid's 256 domains — that lives for
    /// the call. Every active root `lo` remembers its cheapest partner —
    /// `(merged cost, hi)` over the active `hi > lo`, the lowest `hi` among
    /// equals — and a merge is the cheapest remembered row, the lowest `lo`
    /// among equals: the same pair as the first cheapest one of an
    /// all-pairs scan in root order. When `a` absorbs `b` only `a`'s cost
    /// changes and only `b` leaves, so:
    ///
    /// - row `a`, whose every price changed, is scanned in full;
    /// - a row that remembered `a` or `b` **rarely needs a new minimum, only
    ///   a new holder of it**. The roots below the lost partner were strictly
    ///   dearer (it was the lowest of equals) and those above it no cheaper,
    ///   and none of them changed — bar the pair with `a`, compared first. So
    ///   the row walks the roots above the lost partner and stops at the
    ///   first that ties the remembered cost: the new partner, by the same
    ///   lowest-index rule. Only a row that ends without a tie is scanned in
    ///   full. Under class costs, where most prices are equal and a popular
    ///   partner is remembered by a whole cluster, that is one or two
    ///   comparisons a row instead of a rescan of every one of them;
    /// - any other row keeps its entry, and for `lo < a` compares it with
    ///   the re-priced `(lo, a)` **only if `cost[a]` fell**: the merged cost
    ///   rises with `cost[a]`, so a pair that was not the row's cheapest
    ///   cannot become it otherwise. Falling takes a negative `combine_cost`,
    ///   which is allowed — nothing here assumes costs only rise.
    pub(crate) fn greedy_parents(
        n: usize,
        edge_cost: impl Fn(usize, usize) -> f64,
        combine_cost: f64,
    ) -> Vec<Option<usize>> {
        assert!(n > 0, "reduction over zero participants");
        let mut parents: Vec<Option<usize>> = vec![None; n];
        // Every hand-off is priced here, once: row `lo` holds its partners
        // `hi > lo` side by side, in the order a row scan reads them.
        let row = |lo: usize| lo * (2 * n - lo - 1) / 2;
        let mut price = Vec::with_capacity(n * (n - 1) / 2);
        for lo in 0..n {
            price.extend((lo + 1..n).map(|hi| edge_cost(hi, lo)));
        }
        // Completion cost of each subtree by root, and the active roots,
        // ascending.
        let mut cost = vec![0.0_f64; n];
        let mut active: Vec<usize> = (0..n).collect();
        let merged = |cost: &[f64], lo: usize, hi: usize| {
            cost[lo].max(cost[hi] + price[row(lo) + hi - lo - 1]) + combine_cost
        };
        // Row `lo`'s cheapest merge over the ascending roots `above` it, the
        // lowest `hi` among equals. A plain loop: this is the hot one, and
        // `min_by` over the mapped iterator read 10 % slower on `tune-plan`.
        let cheapest = |cost: &[f64], lo: usize, above: &[usize]| {
            let mut best = (merged(cost, lo, above[0]), above[0]);
            for &hi in &above[1..] {
                let c = merged(cost, lo, hi);
                if c.total_cmp(&best.0).is_lt() {
                    best = (c, hi);
                }
            }
            best
        };
        // best[lo] for every active root but the highest, which has no
        // partner above it and whose entry is never read.
        let mut best = vec![(0.0_f64, 0_usize); n];
        for slot in 0..n - 1 {
            best[slot] = cheapest(&cost, slot, &active[slot + 1..]);
        }
        while active.len() > 1 {
            // `min_by` returns the first of equals: the lowest `lo`.
            let a = *active[..active.len() - 1]
                .iter()
                .min_by(|&&x, &&y| best[x].0.total_cmp(&best[y].0))
                .expect("two active roots");
            let (merged_cost, b) = best[a];
            parents[b] = Some(a);
            // Only a negative `combine_cost` makes a subtree finish earlier
            // for having absorbed another.
            let fell = merged_cost.total_cmp(&cost[a]).is_lt();
            cost[a] = merged_cost;
            active.retain(|&root| root != b);
            for slot in 0..active.len() - 1 {
                let lo = active[slot];
                let (remembered, partner) = best[lo];
                if lo == a {
                    // Every price of this row changed.
                    best[lo] = cheapest(&cost, lo, &active[slot + 1..]);
                    continue;
                }
                let lost = partner == a || partner == b;
                // `merged` rises with `cost[a]`, so a pair `(lo, a)` that was
                // not the row's cheapest stays out unless `cost[a]` fell.
                if lo < a && (lost || fell) {
                    let c = merged(&cost, lo, a);
                    let wins = c.total_cmp(&remembered);
                    if wins.is_lt() || (wins.is_eq() && a <= partner) {
                        best[lo] = (c, a);
                        continue;
                    }
                }
                if lost {
                    // The roots below the lost partner were strictly dearer
                    // and (but for `a`, just compared) are unchanged; those
                    // above it were no cheaper. So the first of them that
                    // ties the remembered cost is the new partner, and only a
                    // row without one has a new minimum to find.
                    let above = &active[active.partition_point(|&hi| hi <= partner)..];
                    best[lo] = match above
                        .iter()
                        .find(|&&hi| merged(&cost, lo, hi).total_cmp(&remembered).is_eq())
                    {
                        Some(&hi) => (remembered, hi),
                        None => cheapest(&cost, lo, &active[slot + 1..]),
                    };
                }
            }
        }
        parents
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True when there are no participants (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Participant `i`'s parent — where its accumulated R goes; `None` at
    /// the root.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parents[i]
    }

    /// Participant `i`'s children, ascending: the order it receives and
    /// combines their R factors in.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// The parent vector: `None` at the root, `Some(parent)` elsewhere.
    /// `Custom(tree.parents().to_vec())` names this very tree.
    #[cfg(test)]
    pub(crate) fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// Every `(child, parent)` edge — one message each — by ascending
    /// child.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.parents.iter().enumerate().filter_map(|(c, p)| p.map(|p| (c, p)))
    }

    /// All participants, each after its parent (breadth-first from the
    /// root). Reversed, every participant comes after all its children —
    /// the order a sequential replay of the reduction needs.
    pub fn top_down(&self) -> Vec<usize> {
        let mut order = vec![0];
        let mut next = 0;
        while next < order.len() {
            order.extend_from_slice(&self.children[order[next]]);
            next += 1;
        }
        order
    }

    /// Total number of messages in the whole reduction (= edges of the
    /// tree = `n − 1`).
    pub fn total_messages(&self) -> usize {
        self.edges().count()
    }

    /// Messages crossing clusters, under the given participant→cluster map.
    pub fn inter_cluster_messages(&self, cluster_of: &[usize]) -> usize {
        self.edges().filter(|&(c, p)| cluster_of[c] != cluster_of[p]).count()
    }

    /// Depth of the tree: the most messages any one participant handles in
    /// sequence (its children's, then its own upward send) — the `log₂(P)`
    /// factor of Table I for the binary shape.
    pub fn depth(&self) -> usize {
        (0..self.len())
            .map(|i| self.children[i].len() + usize::from(self.parents[i].is_some()))
            .max()
            .unwrap_or(0)
    }

    /// True when every parent has a lower participant index than each of
    /// its children (all built-in and generated shapes satisfy this).
    /// The self-healing protocol of [`crate::ft_tsqr`] requires it: its
    /// agent election walks candidates upward from 0 and only terminates
    /// because parents always sit below their children.
    pub(crate) fn is_heap_ordered(&self) -> bool {
        self.edges().all(|(c, p)| p < c)
    }
}

/// The definition [`ReductionTree::greedy_parents`] must reproduce, as it
/// was written before the row cache: every merge scans every active pair
/// in root order and takes the first cheapest. The oracle of the
/// differential tests here and in [`crate::tune`].
#[cfg(test)]
pub(crate) fn greedy_parents_cubic(
    n: usize,
    edge_cost: impl Fn(usize, usize) -> f64,
    combine_cost: f64,
) -> Vec<Option<usize>> {
    assert!(n > 0, "reduction over zero participants");
    let mut parents: Vec<Option<usize>> = vec![None; n];
    // Active subtrees as (root, completion cost), kept sorted by root.
    let mut active: Vec<(usize, f64)> = (0..n).map(|i| (i, 0.0)).collect();
    while active.len() > 1 {
        let mut best: Option<(f64, usize, usize)> = None; // (cost, lo_slot, hi_slot)
        for a in 0..active.len() {
            for b in (a + 1)..active.len() {
                let (lo, lo_cost) = active[a];
                let (hi, hi_cost) = active[b];
                let merged = (lo_cost).max(hi_cost + edge_cost(hi, lo)) + combine_cost;
                let better = match best {
                    None => true,
                    Some((c, _, _)) => merged.total_cmp(&c).is_lt(),
                };
                if better {
                    best = Some((merged, a, b));
                }
            }
        }
        let (cost, a, b) = best.expect("at least one pair while len > 1");
        let (lo, _) = active[a];
        let (hi, _) = active[b];
        parents[hi] = Some(lo);
        active[a] = (lo, cost);
        active.remove(b);
    }
    parents
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_netsim::SplitMix64;

    /// Runs the reduction on plain integers, "combining" by collecting
    /// the leaves; returns what the root ends up holding, sorted.
    fn simulate(tree: &ReductionTree) -> Vec<usize> {
        let mut acc: Vec<Vec<usize>> = (0..tree.len()).map(|i| vec![i]).collect();
        for &i in tree.top_down().iter().rev() {
            if let Some(p) = tree.parent(i) {
                let payload = std::mem::take(&mut acc[i]);
                acc[p].extend(payload);
            }
        }
        let mut got = acc[0].clone();
        got.sort_unstable();
        got
    }

    /// The parent vector with root 0 and `rest[i − 1]` as `i`'s parent.
    fn rooted(rest: &[usize]) -> Vec<Option<usize>> {
        std::iter::once(None).chain(rest.iter().map(|&p| Some(p))).collect()
    }

    /// Every shape the autotuner enumerates, for loop-over-all tests.
    fn all_shapes() -> Vec<TreeShape> {
        vec![
            TreeShape::Flat,
            TreeShape::Binary,
            TreeShape::GridHierarchical,
            TreeShape::Kary(1),
            TreeShape::Kary(2),
            TreeShape::Kary(3),
            TreeShape::Kary(4),
            TreeShape::Binomial,
            TreeShape::Greedy,
        ]
    }

    #[test]
    fn all_shapes_reduce_everything_to_root() {
        for n in [1, 2, 3, 4, 5, 7, 8, 16, 33] {
            let clusters: Vec<usize> = (0..n).map(|i| i * 4 / n).collect();
            for shape in all_shapes() {
                let tree = ReductionTree::build(&shape, n, &clusters);
                let got = simulate(&tree);
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "{shape:?} with n={n}");
                assert_eq!(tree.total_messages(), n - 1);
                assert!(tree.is_heap_ordered(), "{shape:?} with n={n}");
            }
        }
    }

    #[test]
    fn binary_depth_is_log2() {
        for (n, d) in [(2, 1), (4, 2), (8, 3), (16, 4), (9, 4)] {
            let tree = ReductionTree::build(&TreeShape::Binary, n, &vec![0usize; n]);
            assert_eq!(tree.depth(), d, "n={n}");
        }
    }

    #[test]
    fn flat_depth_is_linear() {
        let tree = ReductionTree::build(&TreeShape::Flat, 8, &[0; 8]);
        assert_eq!(tree.depth(), 7);
    }

    #[test]
    fn kary_and_chain_depths() {
        // Kary(1) is a chain: one child and one parent each, except at the
        // ends. Kary(n − 1) receives everyone directly at the root.
        let chain = ReductionTree::build(&TreeShape::Kary(1), 6, &[0; 6]);
        assert_eq!(chain.depth(), 2, "chain nodes do recv+send");
        assert_eq!(chain.total_messages(), 5);
        let star = ReductionTree::build(&TreeShape::Kary(7), 8, &[0; 8]);
        assert_eq!(star.depth(), 7, "k >= n-1 degenerates to flat");
        // 4-ary over 21 participants: root has 4 children, two levels.
        let kary = ReductionTree::build(&TreeShape::Kary(4), 21, &[0; 21]);
        assert_eq!(kary.children(0), [1, 2, 3, 4]);
    }

    #[test]
    fn binomial_matches_mpi_reduce_structure() {
        // 8 participants: root 0 has children 1, 2, 4; 2 has child 3;
        // 4 has children 5, 6; 6 has child 7.
        let parents = ReductionTree::binomial_parents(8);
        assert_eq!(parents, rooted(&[0, 0, 2, 0, 4, 4, 6]));
        let tree = ReductionTree::from_parents(&parents);
        assert_eq!(tree.depth(), 3, "the root's three children are the most anyone handles");
    }

    #[test]
    fn hierarchical_minimizes_inter_cluster_messages() {
        // The headline property (Fig. 2): with C clusters the tuned tree
        // sends exactly C − 1 inter-cluster messages; a topology-oblivious
        // binary tree sends more.
        for (n, n_clusters) in [(12, 3), (16, 4), (64, 4), (256, 4)] {
            let per = n / n_clusters;
            let cluster_of: Vec<usize> = (0..n).map(|i| i / per).collect();
            let tuned = ReductionTree::build(&TreeShape::GridHierarchical, n, &cluster_of);
            assert_eq!(
                tuned.inter_cluster_messages(&cluster_of),
                n_clusters - 1,
                "tuned tree, n={n}"
            );
            let oblivious = ReductionTree::build(&TreeShape::Binary, n, &cluster_of);
            assert!(
                oblivious.inter_cluster_messages(&cluster_of) >= n_clusters - 1,
                "binary tree can't beat the tuned tree"
            );
            // The greedy construction under class costs matches the
            // hierarchical shape's headline guarantee.
            let greedy = ReductionTree::build(&TreeShape::Greedy, n, &cluster_of);
            assert_eq!(
                greedy.inter_cluster_messages(&cluster_of),
                n_clusters - 1,
                "greedy tree, n={n}"
            );
        }
        // A shuffled placement makes the oblivious tree strictly worse.
        let n = 16;
        let shuffled: Vec<usize> = (0..n).map(|i| i % 4).collect(); // interleaved clusters
        let oblivious = ReductionTree::build(&TreeShape::Binary, n, &shuffled);
        assert!(
            oblivious.inter_cluster_messages(&shuffled) > 3,
            "interleaved ranks force extra WAN messages, got {}",
            oblivious.inter_cluster_messages(&shuffled)
        );
        // Greedy keys off the cluster map, not index contiguity, so it
        // still crosses the WAN only C − 1 times on the shuffled layout.
        let greedy = ReductionTree::build(&TreeShape::Greedy, n, &shuffled);
        assert_eq!(greedy.inter_cluster_messages(&shuffled), 3);
    }

    #[test]
    fn hierarchical_depth_is_sum_of_stages() {
        // 4 clusters × 16 participants: 4 levels inside + 2 levels across.
        let n = 64;
        let cluster_of: Vec<usize> = (0..n).map(|i| i / 16).collect();
        let tree = ReductionTree::build(&TreeShape::GridHierarchical, n, &cluster_of);
        assert_eq!(tree.depth(), 4 + 2);
    }

    #[test]
    fn single_participant_has_empty_schedule() {
        for shape in all_shapes().into_iter().chain([TreeShape::Custom(vec![None])]) {
            let tree = ReductionTree::build(&shape, 1, &[0]);
            assert!(tree.children(0).is_empty() && tree.parent(0).is_none());
            assert_eq!((tree.total_messages(), tree.depth()), (0, 0));
        }
    }

    #[test]
    fn every_builder_arm_is_pinned_by_value() {
        let built = |shape: TreeShape, cluster_of: &[usize]| {
            ReductionTree::build(&shape, cluster_of.len(), cluster_of)
        };
        assert_eq!(built(TreeShape::Flat, &[0; 5]).parents(), rooted(&[0, 0, 0, 0]));
        let binary = built(TreeShape::Binary, &[0; 7]);
        assert_eq!(binary.parents(), rooted(&[0, 0, 2, 0, 4, 4]));
        assert_eq!((binary.children(0), binary.children(4)), (&[1, 2, 4][..], &[5, 6][..]));
        assert_eq!(built(TreeShape::Kary(3), &[0; 6]).parents(), rooted(&[0, 0, 0, 1, 1]));
        let clusters = [0, 0, 0, 1, 1, 2, 3, 3];
        let grid = built(TreeShape::GridHierarchical, &clusters);
        assert_eq!(grid.parents(), rooted(&[0, 0, 0, 3, 0, 5, 6]));
        assert_eq!(grid.children(0), [1, 2, 3, 5], "own cluster first, then the cluster roots");
        assert_eq!(built(TreeShape::Greedy, &clusters).parents(), rooted(&[0, 0, 0, 3, 0, 0, 6]));
        let scrambled = rooted(&[2, 0, 1, 2]);
        let custom = built(TreeShape::Custom(scrambled.clone()), &[0; 5]);
        assert_eq!(custom.parents(), scrambled);
        assert_eq!(custom.children(2), [1, 4]);
        assert_eq!(custom.top_down(), [0, 2, 1, 4, 3]);
        assert_eq!(custom.edges().collect::<Vec<_>>(), [(1, 2), (2, 0), (3, 1), (4, 2)]);
    }

    #[test]
    fn binary_and_binomial_are_one_tree() {
        for n in 1..=300 {
            let cluster_of = vec![0; n];
            let binary = ReductionTree::build(&TreeShape::Binary, n, &cluster_of);
            assert_eq!(binary, ReductionTree::build(&TreeShape::Binomial, n, &cluster_of), "n={n}");
            // Index halving: at stride s, position p with p % 2s == s
            // sends to p − s, i.e. clears its lowest set bit.
            for (c, p) in binary.edges() {
                assert_eq!(p, c - (1 << c.trailing_zeros()), "n={n}");
            }
        }
    }

    #[test]
    fn custom_tree_accepts_any_valid_parent_vector() {
        // A deliberately lopsided tree: 0 ← 1 ← 3, 0 ← 2, 1 ← 4.
        let parents = vec![None, Some(0), Some(0), Some(1), Some(1)];
        let tree = ReductionTree::build(&TreeShape::Custom(parents), 5, &[0; 5]);
        assert_eq!(simulate(&tree), vec![0, 1, 2, 3, 4]);
        assert_eq!((tree.children(1), tree.parent(1)), (&[3, 4][..], Some(0)));
        // Parent above child is legal for the plain reduction (only
        // ft_tsqr needs heap order).
        let weird = ReductionTree::from_parents(&[None, Some(2), Some(0)]);
        assert_eq!(simulate(&weird), vec![0, 1, 2]);
        assert!(!weird.is_heap_ordered());
    }

    #[test]
    #[should_panic(expected = "participant 0 must be the root")]
    fn custom_tree_must_root_at_zero() {
        let _ = ReductionTree::from_parents(&[Some(1), None]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn custom_tree_rejects_cycles() {
        let _ = ReductionTree::from_parents(&[None, Some(2), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn custom_tree_rejects_out_of_range_parent() {
        let _ = ReductionTree::from_parents(&[None, Some(7)]);
    }

    #[test]
    #[should_panic(expected = "custom tree has 2 participants")]
    fn custom_tree_size_must_match() {
        let _ = ReductionTree::build(&TreeShape::Custom(vec![None, Some(0)]), 3, &[0; 3]);
    }

    #[test]
    fn greedy_defers_expensive_edges() {
        // Two clusters of 4: greedy must finish both clusters before
        // paying the WAN edge, like the hierarchical tree.
        let cluster_of = [0, 0, 0, 0, 1, 1, 1, 1];
        let tree = ReductionTree::build(&TreeShape::Greedy, 8, &cluster_of);
        assert_eq!(tree.inter_cluster_messages(&cluster_of), 1);
        // The one WAN edge connects the two cluster roots (0 and 4).
        assert_eq!(tree.parent(4), Some(0));
    }

    #[test]
    fn greedy_parents_is_the_cubic_scan() {
        // What happens to a row after a merge, one decision each: the
        // smallest inputs found on which getting that decision wrong builds
        // another tree. `prices[hi - 1][lo]` is `edge_cost(hi, lo)`.
        let pin = |what: &str, prices: &[&[f64]], combine: f64, tree: &[usize]| {
            let edge = |child: usize, parent: usize| prices[child - 1][parent];
            let n = prices.len() + 1;
            assert_eq!(ReductionTree::greedy_parents(n, edge, combine), rooted(tree), "{what}");
            assert_eq!(greedy_parents_cubic(n, edge, combine), rooted(tree), "{what}: the oracle");
        };
        pin(
            "lost partner, a higher root ties",
            &[&[1.], &[1., 0.], &[1., 0., 0.]],
            1.0,
            &[0, 1, 0],
        );
        pin("lost partner, no tie above", &[&[1.], &[1., 0.], &[2., 2., 0.]], 1.0, &[0, 1, 0]);
        pin("the same under a free combine", &[&[3.], &[3., 2.], &[1., 1., 3.]], 0.0, &[0, 1, 0]);
        pin(
            "(lo, a) ties what it was: a stays the partner",
            &[&[0.], &[0., 0.], &[0., 1., 2.], &[1., 0., 0., 2.], &[1., 1., 1., 1., 2.]],
            1.0,
            &[0, 0, 0, 2, 3],
        );
        pin(
            "cost[a] fell: (lo, a) is now the cheapest",
            &[&[1.], &[1., 1.], &[1., 1., 0.]],
            -1.0,
            &[0, 0, 2],
        );
        pin(
            "cost[a] fell: (lo, a) ties from a lower index",
            &[&[1.], &[2., 1.5], &[2., 0.5, 0.5], &[0.5, 2., 0., 1.]],
            -1.0,
            &[0, 1, 0, 2],
        );
        pin(
            "cost[a] fell: (lo, a) ties from a higher index",
            &[&[1.], &[1., 0.5], &[2., 1.5, 2.], &[1., 2., 0.5, 0.], &[1.5, 2., 2., 2., 1.5]],
            -1.0,
            &[0, 1, 0, 3, 0],
        );
        // Prices from a small menu, so exact ties, free edges and
        // asymmetric (child, parent) prices all occur; a negative combine
        // makes completion costs *fall*, which a row cache that assumed
        // monotone costs would get wrong.
        let mut rng = SplitMix64::new(21);
        let price = |rng: &mut SplitMix64| match rng.next_below(4) {
            0 => 0.0,
            1 => 1.0,
            2 => 100.0,
            _ => rng.next_below(40) as f64 / 7.0,
        };
        for case in 0..480 {
            let n = 1 + rng.next_below(70) as usize;
            let clusters = 1 + rng.next_below(5) as usize;
            let cluster_of: Vec<usize> = if case % 2 == 0 {
                (0..n).map(|i| i * clusters / n).collect()
            } else {
                (0..n).map(|_| rng.next_below(clusters as u64) as usize).collect()
            };
            let prices: Vec<f64> = (0..clusters * clusters).map(|_| price(&mut rng)).collect();
            let combine = match rng.next_below(4) {
                0 => 0.0,
                1 => 1.0,
                2 => rng.next_below(12) as f64 / 3.0,
                _ => -0.75,
            };
            let edge = |child: usize, parent: usize| {
                prices[cluster_of[child] * clusters + cluster_of[parent]]
            };
            assert_eq!(
                ReductionTree::greedy_parents(n, edge, combine),
                greedy_parents_cubic(n, edge, combine),
                "case {case}: n={n} cluster_of={cluster_of:?} prices={prices:?} combine={combine}"
            );
        }
        // A price of its own per ordered pair, in halves, under a negative
        // combine: in about one case in 500 a re-priced `(lo, a)` *ties*
        // the remembered entry from a lower `hi`.
        for case in 0..6_000 {
            let n = 6 + rng.next_below(7) as usize;
            let prices: Vec<f64> = (0..n * n).map(|_| rng.next_below(13) as f64 / 2.0).collect();
            let combine = -1.5;
            let edge = |child: usize, parent: usize| prices[child * n + parent];
            assert_eq!(
                ReductionTree::greedy_parents(n, edge, combine),
                greedy_parents_cubic(n, edge, combine),
                "dense case {case}: n={n} prices={prices:?} combine={combine}"
            );
        }
        // Four prices, one per ordered pair, so most merges tie: at every
        // one some row loses its partner, with or without a tie above it, and
        // under the negative combines `cost[a]` falls and (lo, a) comes in
        // cheaper than, level with or dearer than what row lo remembered.
        for case in 0..4_000 {
            let n = 4 + rng.next_below(9) as usize;
            let prices: Vec<f64> =
                (0..n * n).map(|_| [0.0, 1.0, 2.0, 5.0][rng.next_below(4) as usize]).collect();
            let combine = [0.0, 1.0, -0.5, -1.0][case % 4];
            let edge = |child: usize, parent: usize| prices[child * n + parent];
            assert_eq!(
                ReductionTree::greedy_parents(n, edge, combine),
                greedy_parents_cubic(n, edge, combine),
                "tie case {case}: n={n} prices={prices:?} combine={combine}"
            );
        }
        // The sizes the tuner plans at (sites of 64, and one cluster of
        // 256), under the class costs of `build` — and the point of the
        // price table: every pair is priced once, however many rows tie.
        for (n, site) in [(64, 64), (128, 64), (256, 64), (256, 256)] {
            let class = |child: usize, parent: usize| {
                if child / site == parent / site {
                    GREEDY_INTRA_COST
                } else {
                    GREEDY_INTER_COST
                }
            };
            let calls = std::cell::Cell::new(0_usize);
            let counted = |child, parent| {
                calls.set(calls.get() + 1);
                class(child, parent)
            };
            assert_eq!(
                ReductionTree::greedy_parents(n, counted, GREEDY_INTRA_COST),
                greedy_parents_cubic(n, class, GREEDY_INTRA_COST),
                "n={n}, sites of {site}"
            );
            // 2 016 / 8 128 / 32 640; the all-pairs scan makes
            // C(n + 1, 3) = 43 680 / 349 504 / 2 796 160.
            assert_eq!(calls.get(), n * (n - 1) / 2, "n={n}, sites of {site}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TreeShape::Flat.label(), "flat");
        assert_eq!(TreeShape::GridHierarchical.label(), "grid");
        assert_eq!(TreeShape::Kary(4).label(), "kary4");
        assert_eq!(TreeShape::Kary(1).label(), "chain");
        assert_eq!(TreeShape::Binomial.label(), "binomial");
        assert_eq!(TreeShape::Greedy.label(), "greedy");
        assert_eq!(TreeShape::Custom(vec![None]).label(), "custom");
    }
}
