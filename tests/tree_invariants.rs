//! Property-based tests of the generalized reduction trees (the
//! autotuner's search space): every generated or custom tree must be a
//! valid reduction — one walk from every participant to the root — and
//! running TSQR over *any* tree must produce the same R factor as the
//! flat reference.
//!
//! "The same" means **sign-normalized tolerance**: across *different*
//! trees the combine order differs, so floating-point rounding differs in
//! the last bits and the row signs of R (which QR leaves free) can flip.
//! Exact bitwise equality across arbitrary trees is unattainable in
//! floating point; the invariant that *is* true — and that Demmel et
//! al.'s any-tree theorem promises — is equality up to sign normalization
//! at factorization accuracy, which `r_distance` measures.

use proptest::prelude::*;

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::tree::{ReductionTree, TreeShape};
use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::linalg::verify::r_distance;
use grid_tsqr::linalg::Matrix;
use grid_tsqr::netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

/// Deterministic splittable generator for structural randomness (tree
/// shapes derived from a proptest-supplied seed).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random *heap-ordered* parent vector: every parent index is below
/// its child (`parents[i] ∈ 0..i`), the class every built-in generator
/// produces and the one the self-healing TSQR requires.
fn random_heap_parents(n: usize, seed: u64) -> Vec<Option<usize>> {
    (0..n).map(|i| if i == 0 { None } else { Some((mix(seed, i as u64) as usize) % i) }).collect()
}

/// A uniformly scrambled tree rooted at 0 with *no* heap ordering:
/// nodes attach in a random order to a random already-attached node, so
/// parents frequently carry higher indices than their children.
fn random_scrambled_parents(n: usize, seed: u64) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (1..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix(seed, 1000 + i as u64) as usize) % (i + 1));
    }
    let mut parents = vec![None; n];
    let mut attached = vec![0usize];
    for (step, &v) in order.iter().enumerate() {
        let p = attached[(mix(seed, 2000 + step as u64) as usize) % attached.len()];
        parents[v] = Some(p);
        attached.push(v);
    }
    parents
}

/// Structural validity of one tree: the root is 0 and every other
/// participant reaches it by following `parent`; the `children` lists are
/// ascending and together hold every non-root exactly once, under its
/// parent; `top_down` lists each participant once, after its parent.
fn assert_valid_tree(tree: &ReductionTree) -> Result<(), String> {
    let n = tree.len();
    if tree.parent(0).is_some() {
        return Err("root has a parent".into());
    }
    let mut listed = vec![0usize; n];
    for i in 0..n {
        let (mut cur, mut hops) = (i, 0);
        while let Some(p) = tree.parent(cur) {
            (cur, hops) = (p, hops + 1);
            if hops > n {
                return Err(format!("participant {i} never reaches the root"));
            }
        }
        let children = tree.children(i);
        if !children.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("participant {i}: children {children:?} not ascending"));
        }
        for &c in children {
            listed[c] += 1;
            if tree.parent(c) != Some(i) {
                return Err(format!(
                    "participant {c} listed under {i}, parent {:?}",
                    tree.parent(c)
                ));
            }
        }
    }
    if listed[0] != 0 || listed[1..].iter().any(|&k| k != 1) {
        return Err(format!("children lists do not partition the non-roots: {listed:?}"));
    }
    let order = tree.top_down();
    let mut position = vec![None; n];
    for (at, &i) in order.iter().enumerate() {
        if position[i].replace(at).is_some() {
            return Err(format!("top_down lists participant {i} twice"));
        }
    }
    let after_parent = |i: usize| match tree.parent(i) {
        Some(p) => position[p] < position[i],
        None => position[i] == Some(0),
    };
    if order.len() != n || !(0..n).all(after_parent) {
        return Err(format!("top_down {order:?} is not parents-first over all {n}"));
    }
    Ok(())
}

fn small_grid(clusters: usize, procs: usize) -> Runtime {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, procs, 1);
    let model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1e9, clusters);
    Runtime::new(topo, model)
}

/// Runs real-numerics TSQR over an explicit tree and returns rank 0's R.
fn r_under_tree(rt: &Runtime, layout: &DomainLayout, shape: &TreeShape, seed: u64) -> Matrix {
    let tree = ReductionTree::build(shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig {
        shape: shape.clone(),
        domains_per_cluster: layout.num_domains() / rt.topology().num_clusters(),
        ..Default::default()
    };
    let report = rt.run(|p, _| tsqr_rank_program(p, layout, &tree, &cfg, seed, None));
    report.ranks[0].result.as_ref().unwrap().r.clone().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated family and every random custom tree (heap-ordered
    /// or scrambled) is a structurally valid reduction for arbitrary
    /// participant counts and cluster maps.
    #[test]
    fn any_tree_yields_a_valid_schedule(
        n in 1usize..48,
        clusters in 1usize..5,
        k in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let cluster_of: Vec<usize> = (0..n).map(|i| i * clusters.min(n) / n).collect();
        let mut shapes = vec![
            TreeShape::Flat,
            TreeShape::Binary,
            TreeShape::GridHierarchical,
            TreeShape::Kary(k),
            TreeShape::Binomial,
            TreeShape::Greedy,
            TreeShape::Custom(random_heap_parents(n, seed)),
        ];
        if n > 1 {
            shapes.push(TreeShape::Custom(random_scrambled_parents(n, seed)));
        }
        for shape in shapes {
            let tree = ReductionTree::build(&shape, n, &cluster_of);
            prop_assert_eq!(tree.len(), n);
            prop_assert_eq!(tree.total_messages(), n - 1);
            if let Err(why) = assert_valid_tree(&tree) {
                prop_assert!(false, "{shape:?} n={n}: {why}");
            }
        }
    }

    /// TSQR over an arbitrary random tree — heap-ordered or scrambled —
    /// agrees with the flat-tree R to factorization accuracy (up to the
    /// row signs QR leaves free; see the module docs for why bitwise
    /// equality across *different* trees is not a meaningful target).
    #[test]
    fn arbitrary_random_tree_matches_flat_r(
        clusters in 1usize..4,
        procs_pow in 1u32..4,
        n in 2usize..8,
        scrambled in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let procs = 1usize << procs_pow;
        let rt = small_grid(clusters, procs);
        let m = (clusters * procs * n) as u64 * 3;
        let layout = DomainLayout::build(rt.topology(), m, n, procs);
        let d = layout.num_domains();
        let parents = if scrambled && d > 1 {
            random_scrambled_parents(d, seed)
        } else {
            random_heap_parents(d, seed)
        };
        let flat = r_under_tree(&rt, &layout, &TreeShape::Flat, seed);
        let random = r_under_tree(&rt, &layout, &TreeShape::Custom(parents), seed);
        let dist = r_distance(&random, &flat);
        prop_assert!(dist < 1e-10, "random tree R drifted from flat R: {dist:.3e}");
    }
}
