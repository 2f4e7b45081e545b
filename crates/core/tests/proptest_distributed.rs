//! Property-based tests of the distributed algorithms: for arbitrary
//! grid shapes, matrix sizes, tree shapes and domain counts, the
//! distributed factorizations must agree with the single-process
//! reference, and every rank program must charge the same traffic and
//! virtual time whether it runs on numbers or on dimensions alone.

use proptest::prelude::*;

use tsqr_core::caqr_dist::{caqr_dist_program, CaqrDistConfig};
use tsqr_core::domains::{even_chunks, DomainLayout};
use tsqr_core::scalapack::{pdgeqr2, pdgeqrf, pdgeqrf_async};
use tsqr_core::tile::Dims;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{
    tsqr_rank_program, tsqr_rank_program_with, tsqr_rank_program_with_async, TsqrConfig,
};
use tsqr_core::workload;
use tsqr_gridmpi::{Communicator, Process, RunReport, Runtime};
use tsqr_linalg::prelude::*;
use tsqr_linalg::verify::r_distance;
use tsqr_netsim::{two_tier_grid, FailureSchedule, LinkParams, VirtualTime};

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

/// Everything a run reports, compared exactly: per-rank outcomes (`Ok` or
/// the error), clocks and makespan by their bits, traffic counters,
/// per-rank metrics ledgers, and the trace.
fn assert_same_run<T>(threaded: &RunReport<T>, cooperative: &RunReport<T>, case: &str) {
    let outcome = |r: &RunReport<_>| -> Vec<_> {
        r.ranks.iter().map(|rr| rr.result.as_ref().map(|_| ()).map_err(Clone::clone)).collect()
    };
    assert_eq!(outcome(threaded), outcome(cooperative), "{case}: results");
    let clocks = |r: &RunReport<_>| -> Vec<u64> {
        r.ranks.iter().map(|rr| rr.stats.clock.secs().to_bits()).collect()
    };
    assert_eq!(clocks(threaded), clocks(cooperative), "{case}: clocks");
    assert_eq!(threaded.makespan.secs().to_bits(), cooperative.makespan.secs().to_bits(), "{case}");
    for (x, y) in threaded.ranks.iter().zip(&cooperative.ranks) {
        assert_eq!(x.stats.traffic, y.stats.traffic, "{case}: counters");
    }
    assert_eq!(threaded.totals, cooperative.totals, "{case}: totals");
    assert_eq!(threaded.metrics, cooperative.metrics, "{case}: metrics");
    assert_eq!(
        threaded.trace.as_ref().map(|t| &t.events),
        cooperative.trace.as_ref().map(|t| &t.events),
        "{case}: trace"
    );
}

/// The rank programs a symbolic point runs, under both drivers of the
/// runtime: `Runtime::run` (one OS thread per rank — the oracle) and
/// `Runtime::run_cooperative` (every rank a future on this thread) must
/// report the same run to the bit. PDGEQR2, PDGEQRF on both sides of its
/// crossover, and TSQR over all seven tree shapes × 1, 2 and 4 ranks per
/// domain × the Q down-sweep, on 8 ranks and on 12 (not a power of two),
/// traced and untraced.
#[test]
fn cooperative_and_threaded_runs_report_the_same() {
    let n = 40;
    for (clusters, tracing) in [(2usize, true), (3, true), (3, false)] {
        let procs = 4;
        let mut rt = mini_grid(clusters, procs);
        if tracing {
            rt.enable_tracing();
        }
        let ranks = clusters * procs;
        let m = (ranks * 64) as u64;
        let chunks = even_chunks(m, ranks);
        let dims = |w: &Communicator, p: &Process| Dims { rows: chunks[w.my_index(p)] as usize, cols: n };

        for (nb, nx) in [(1, 0), (8, 16)] {
            let threaded = rt.run(|p, w| pdgeqrf(p, w, dims(w, p), nb, nx, None));
            let cooperative = rt.run_cooperative(async |p: &mut Process, w: &Communicator| {
                pdgeqrf_async(p, w, dims(w, p), nb, nx, None).await
            });
            assert!(threaded.totals.total_msgs() > 0);
            assert_same_run(&threaded, &cooperative, &format!("pdgeqrf nb={nb} nx={nx} on {ranks}"));
        }

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
        for ranks_per_domain in [1, 2, 4] {
            let dpc = procs / ranks_per_domain;
            let layout = DomainLayout::build(rt.topology(), m, n, dpc);
            for shape in &shapes {
                // The chain is over single-rank domains; skip it when
                // domains are groups and the tree has fewer participants.
                let shape = match shape {
                    TreeShape::Custom(parents) if parents.len() != layout.num_domains() => continue,
                    other => other.clone(),
                };
                let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
                for compute_q in [false, true] {
                    if compute_q && ranks_per_domain > 1 {
                        continue;
                    }
                    let cfg = TsqrConfig {
                        shape: shape.clone(),
                        domains_per_cluster: dpc,
                        compute_q,
                        ..Default::default()
                    };
                    let block = |_, rows| Dims { rows, cols: n };
                    let threaded =
                        rt.run(|p, _| tsqr_rank_program_with(p, &layout, &tree, &cfg, None, block));
                    let cooperative = rt.run_cooperative(async |p: &mut Process, _: &Communicator| {
                        tsqr_rank_program_with_async(p, &layout, &tree, &cfg, None, block).await
                    });
                    let case = format!(
                        "tsqr {shape:?} {ranks_per_domain}/domain q={compute_q} on {ranks} traced={tracing}"
                    );
                    assert!(threaded.ranks.iter().all(|r| r.result.is_ok()), "{case}");
                    assert_same_run(&threaded, &cooperative, &case);
                }
            }
        }
    }
}

/// The same under a failure schedule: a combiner crashes in the middle of
/// the reduction and one upward transmission is dropped (and resent).
/// Crash times and tombstones are virtual-time facts, so both drivers give
/// every rank the same `Result`, the same clock and the same trace.
#[test]
fn cooperative_and_threaded_runs_fail_the_same() {
    let (n, m) = (16, 8 * 64);
    let mut rt = mini_grid(2, 4);
    let layout = DomainLayout::build(rt.topology(), m, n, 4);
    let shape = TreeShape::Binary;
    let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig { shape, domains_per_cluster: 4, ..Default::default() };
    let block = |_, rows| Dims { rows, cols: n };
    let clean = rt.run(|p, _| tsqr_rank_program_with(p, &layout, &tree, &cfg, None, block));
    // Rank 4 combines 5 and 6 and then sends to 0; it dies the moment 5's
    // R has reached it, its own reduction half done. 3 -> 2 is a leaf's send.
    let mid: VirtualTime = clean.ranks[5].stats.clock;
    rt.set_failure_schedule(FailureSchedule::new(22).crash_rank(4, mid).drop_nth_message(3, 2, 0));
    rt.enable_tracing();
    let threaded = rt.run(|p, _| tsqr_rank_program_with(p, &layout, &tree, &cfg, None, block));
    let cooperative = rt.run_cooperative(async |p: &mut Process, _: &Communicator| {
        tsqr_rank_program_with_async(p, &layout, &tree, &cfg, None, block).await
    });
    let failed: Vec<usize> =
        (0..8).filter(|&r| threaded.ranks[r].result.is_err()).collect();
    assert_eq!(failed, vec![0, 4], "the crashed combiner and the root that waits on it");
    assert!(threaded.ranks[4].stats.clock < clean.ranks[4].stats.clock, "the crash cut rank 4 short");
    assert!(threaded.ranks[3].stats.traffic.total_msgs() == 2, "3 -> 2 was sent twice");
    assert_same_run(&threaded, &cooperative, "tsqr binary, rank 4 crashes, 3 -> 2 dropped once");
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
