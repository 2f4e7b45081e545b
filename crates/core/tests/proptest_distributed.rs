//! Property-based tests of the distributed algorithms: for arbitrary
//! grid shapes, matrix sizes, tree shapes and domain counts, the
//! distributed factorizations must agree with the single-process
//! reference, and every rank program must charge the same traffic and
//! virtual time whether it runs on numbers or on dimensions alone.

use proptest::prelude::*;

use tsqr_core::caqr_dist::{caqr_dist_program, CaqrDistConfig};
use tsqr_core::domains::{even_chunks, DomainLayout};
use tsqr_core::scalapack::{pdgeqr2, pdgeqrf};
use tsqr_core::tile::Dims;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{tsqr_rank_program_with, tsqr_rank_program, TsqrConfig};
use tsqr_core::workload;
use tsqr_gridmpi::{RunReport, Runtime};
use tsqr_linalg::prelude::*;
use tsqr_linalg::verify::r_distance;
use tsqr_netsim::{two_tier_grid, LinkParams};

fn mini_grid(clusters: usize, procs: usize) -> Runtime {
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let wan = LinkParams::from_ms_mbps(8.0, 80.0);
    let (topo, model) = two_tier_grid(clusters, procs, lan, wan, 1e9);
    Runtime::new(topo, model)
}

fn reference_r(seed: u64, m: usize, n: usize) -> tsqr_linalg::Matrix {
    let a = workload::full_matrix(seed, m, n);
    QrFactors::compute(&a, 16).r().upper_triangular_padded()
}

fn shape_from(ix: u8) -> TreeShape {
    match ix % 5 {
        0 => TreeShape::Flat,
        1 => TreeShape::Binary,
        2 => TreeShape::GridHierarchical,
        3 => TreeShape::Kary(3),
        _ => TreeShape::Binomial,
    }
}

/// The first rank on which two runs of one schedule disagree: a failed
/// rank program, different traffic counters, or virtual clocks more than
/// 1e-12 s apart.
fn first_mismatch<A, B>(a: &RunReport<A>, b: &RunReport<B>) -> Option<usize> {
    a.ranks.iter().zip(&b.ranks).position(|(x, y)| {
        x.result.is_err()
            || y.result.is_err()
            || x.stats.traffic != y.stats.traffic
            || (x.stats.clock.secs() - y.stats.clock.secs()).abs() >= 1e-12
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One rank program per algorithm, two data types: a run on `Matrix`
    /// and a run on `Dims` charge identical per-rank traffic and virtual
    /// time. The schedule is shared by construction; what this pins is
    /// that the payload sizes meet — `gridmpi`'s `wire_bytes` of the real
    /// payloads against `tile::{dense_bytes, packed_bytes}` of their
    /// shapes — on every send of TSQR (all tree families, grouped
    /// domains, the Q down-sweep), PDGEQR2, PDGEQRF on both sides of the
    /// NX crossover, and CAQR up to the end of its panel loop.
    #[test]
    fn matrix_and_dims_runs_charge_identical_traffic_and_clocks(
        clusters in 1usize..3,
        procs_pow in 0u32..3,
        dpc_pow in 0u32..3,
        shape_ix in 0u8..5,
        n in 1usize..12,
        nb in 1usize..5,
        nx in 0usize..8,
        tile in 1usize..4,
        panels in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let procs = 1usize << procs_pow;
        let dpc = (1usize << dpc_pow).min(procs);
        let shape = shape_from(shape_ix);
        let rt = mini_grid(clusters, procs);
        let ranks = clusters * procs;
        let m = (ranks * n * 4) as u64;

        let layout = DomainLayout::build(rt.topology(), m, n, dpc);
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let compute_q = dpc == procs && seed % 2 == 0;
        let cfg = TsqrConfig { shape: shape.clone(), domains_per_cluster: dpc, compute_q, ..Default::default() };
        let real = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, None));
        let dims = rt.run(|p, _| {
            tsqr_rank_program_with(p, &layout, &tree, &cfg, None, |_, rows| Dims { rows, cols: n })
        });
        prop_assert_eq!(first_mismatch(&real, &dims), None, "tsqr {:?} dpc={} q={}", shape, dpc, compute_q);

        let chunks = even_chunks(m, ranks);
        let block = |me: usize| {
            workload::block(seed, chunks[..me].iter().sum(), chunks[me] as usize, n)
        };
        let real = rt.run(|p, w| pdgeqr2(p, w, block(w.my_index(p)), None));
        let dims = rt.run(|p, w| {
            pdgeqr2(p, w, Dims { rows: chunks[w.my_index(p)] as usize, cols: n }, None)
        });
        prop_assert_eq!(first_mismatch(&real, &dims), None, "pdgeqr2 n={}", n);
        let real = rt.run(|p, w| pdgeqrf(p, w, block(w.my_index(p)), nb, nx, None));
        let dims = rt.run(|p, w| {
            pdgeqrf(p, w, Dims { rows: chunks[w.my_index(p)] as usize, cols: n }, nb, nx, None)
        });
        prop_assert_eq!(first_mismatch(&real, &dims), None, "pdgeqrf n={} nb={} nx={}", n, nb, nx);

        let (cm, cn) = ((tile * (2 * ranks + panels)) as u64, tile * panels);
        let ccfg = CaqrDistConfig { tile, shape: shape.clone(), rate_flops: None, combine_rate_flops: None };
        let real = rt.run(|p, _| {
            caqr_dist_program(p, cm, cn, &ccfg, |row0, rows| workload::block(seed, row0, rows, cn))
        });
        let dims = rt.run(|p, _| {
            caqr_dist_program(p, cm, cn, &ccfg, |_, rows| Dims { rows, cols: cn })
        });
        prop_assert_eq!(first_mismatch(&real, &dims), None, "caqr {:?} tile={} panels={}", shape, tile, panels);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distributed TSQR R == single-process R for random configurations.
    #[test]
    fn tsqr_matches_reference(
        clusters in 1usize..4,
        procs_pow in 0u32..3,
        dpc_pow in 0u32..3,
        shape_ix in 0u8..3,
        n in 1usize..10,
        m_mult in 2u64..6,
        seed in 0u64..100_000,
    ) {
        let procs = 1usize << procs_pow;          // 1..4 per cluster
        let dpc = (1usize << dpc_pow).min(procs); // divides procs
        let shape = shape_from(shape_ix);
        let rt = mini_grid(clusters, procs);
        // Every group member (not just every domain) needs >= n rows.
        let m = (clusters * procs) as u64 * (n as u64) * m_mult;
        let layout = DomainLayout::build(rt.topology(), m, n, dpc);
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig { shape: shape.clone(), domains_per_cluster: dpc, ..Default::default() };
        let report = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, None));
        let r = report.ranks[0].result.as_ref().unwrap().r.clone().unwrap();
        let want = reference_r(seed, m as usize, n);
        prop_assert!(
            r_distance(&r, &want) < 1e-10,
            "mismatch: clusters={clusters} procs={procs} dpc={dpc} {shape:?} m={m} n={n}"
        );
    }

    /// Reduction trees are well-formed for arbitrary participant counts
    /// and cluster maps: n−1 edges, one root, and the hierarchical tree
    /// never exceeds clusters−1 WAN edges.
    #[test]
    fn tree_wellformed(
        n in 1usize..64,
        clusters in 1usize..6,
        shape_ix in 0u8..3,
    ) {
        let shape = shape_from(shape_ix);
        // Contiguous cluster assignment (what allocations produce).
        let cluster_of: Vec<usize> = (0..n).map(|i| i * clusters.min(n) / n).collect();
        let tree = ReductionTree::build(&shape, n, &cluster_of);
        prop_assert_eq!(tree.total_messages(), n - 1);
        if shape == TreeShape::GridHierarchical {
            let distinct = {
                let mut c = cluster_of.clone();
                c.dedup();
                c.len()
            };
            prop_assert_eq!(tree.inter_cluster_messages(&cluster_of), distinct - 1);
        }
        // Only the root lacks a parent; everyone else is listed once,
        // among its parent's ascending children, and after it top-down.
        let order = tree.top_down();
        let at = |i: usize| order.iter().position(|&x| x == i);
        prop_assert_eq!(order.len(), n);
        for i in 0..n {
            prop_assert!(tree.children(i).windows(2).all(|w| w[0] < w[1]));
            match tree.parent(i) {
                None => prop_assert_eq!((i, at(i)), (0, Some(0))),
                Some(p) => {
                    prop_assert_eq!(tree.children(p).iter().filter(|&&c| c == i).count(), 1);
                    prop_assert!(at(p) < at(i));
                }
            }
        }
    }

    /// Virtual time is deterministic across repeated runs of the same
    /// random program.
    #[test]
    fn deterministic_clocks(
        clusters in 1usize..3,
        procs in 1usize..5,
        n in 1usize..6,
        seed in 0u64..100_000,
    ) {
        let rt = mini_grid(clusters, procs);
        let m = (clusters * procs) as u64 * n as u64 * 3;
        let layout = DomainLayout::build(rt.topology(), m, n, procs);
        let tree = ReductionTree::build(&TreeShape::Binary, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig {
            shape: TreeShape::Binary,
            domains_per_cluster: procs,
            ..Default::default()
        };
        let run = || {
            rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, None).map(|_| ()))
                .ranks
                .iter()
                .map(|r| r.stats.clock.secs())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Workload blocks tile the global matrix for arbitrary splits.
    #[test]
    fn workload_blocks_tile(
        m in 1usize..200,
        n in 1usize..8,
        cut in 0usize..200,
        seed in 0u64..100_000,
    ) {
        let cut = cut.min(m);
        let full = workload::full_matrix(seed, m, n);
        let top = workload::block(seed, 0, cut, n);
        let bottom = workload::block(seed, cut as u64, m - cut, n);
        prop_assert!(top.vstack(&bottom).approx_eq(&full, 0.0));
    }
}
