//! Property-based tests of the distributed algorithms: for arbitrary
//! grid shapes, matrix sizes, tree shapes and domain counts, the
//! distributed factorizations must agree with the single-process
//! reference, and every rank program must charge the same traffic and
//! virtual time whether it runs on numbers or on dimensions alone.

use proptest::prelude::*;

use tsqr_core::caqr_dist::{caqr_dist_program_async, CaqrDistConfig};
use tsqr_core::domains::{even_chunks, DomainLayout};
use tsqr_core::experiment::run_ranks;
use tsqr_core::ft_tsqr::ft_tsqr_rank_program_async;
use tsqr_core::scalapack::{pdgeqr2_async, pdgeqrf_async};
use tsqr_core::tile::Dims;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{
    tsqr_rank_program, tsqr_rank_program_with, tsqr_rank_program_with_async, TsqrConfig,
};
use tsqr_core::workload;
use tsqr_gridmpi::{block_on, CommError, Communicator, Process, RunReport, Runtime, WirePayload};
use tsqr_linalg::prelude::*;
use tsqr_linalg::verify::r_distance;
use tsqr_linalg::Matrix;
use tsqr_netsim::{
    two_tier_grid, ClusterSpec, CostModel, FailureSchedule, GridTopology, LinkParams, VirtualTime,
};

fn mini_grid(clusters: usize, procs: usize) -> Runtime {
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let wan = LinkParams::from_ms_mbps(8.0, 80.0);
    let (topo, model) = two_tier_grid(clusters, procs, lan, wan, 1e9);
    Runtime::new(topo, model)
}

fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
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

/// Runs one `async` rank program under both drivers of the runtime —
/// `Runtime::run` with every rank's program under `block_on` (one OS
/// thread per rank: the oracle) and `Runtime::run_cooperative` (every rank
/// a future on this thread) — asserts they report the same run to the bit,
/// and returns the threaded report.
fn same_under_both_drivers<R: Send, F>(rt: &Runtime, case: &str, program: F) -> RunReport<R>
where
    F: AsyncFn(&mut Process, &Communicator) -> Result<R, CommError> + Sync,
{
    let threaded = rt.run(|p, w| block_on(program(p, w)));
    let cooperative = rt.run_cooperative(&program);
    assert_same_run(&threaded, &cooperative, case);
    threaded
}

/// The rank programs a symbolic point runs, under both drivers: PDGEQR2,
/// PDGEQRF on both sides of its crossover, TSQR over all seven tree
/// shapes × 1, 2 and 4 ranks per domain × the Q down-sweep, and CAQR over
/// the six built-in shapes, on 8 ranks and on 12 (not a power of two),
/// traced and untraced; then the collectives on 1, 2, 3, 5, 8 and 13.
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
        let dims =
            |w: &Communicator, p: &Process| Dims { rows: chunks[w.my_index(p)] as usize, cols: n };

        for (nb, nx) in [(1, 0), (8, 16)] {
            let case = format!("pdgeqrf nb={nb} nx={nx} on {ranks}");
            let run = same_under_both_drivers(&rt, &case, async |p, w| {
                pdgeqrf_async(p, w, dims(w, p), nb, nx, None).await
            });
            assert!(run.totals.total_msgs() > 0);
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
                    let case = format!(
                        "tsqr {shape:?} {ranks_per_domain}/domain q={compute_q} on {ranks} traced={tracing}"
                    );
                    let run = same_under_both_drivers(&rt, &case, async |p, _| {
                        tsqr_rank_program_with_async(p, &layout, &tree, &cfg, None, block).await
                    });
                    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");
                }
            }
        }

        let tile = 8;
        for shape in &shapes[..6] {
            let cfg = CaqrDistConfig {
                tile,
                shape: shape.clone(),
                rate_flops: None,
                combine_rate_flops: None,
            };
            let block = |_, rows| Dims { rows, cols: n };
            let case = format!("caqr {shape:?} tile={tile} on {ranks} traced={tracing}");
            let run = same_under_both_drivers(&rt, &case, async |p, _| {
                caqr_dist_program_async(p, m, n, &cfg, block).await
            });
            assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");
        }
    }

    for ranks in [1, 2, 3, 5, 8, 13] {
        let mut rt = if ranks % 2 == 0 { mini_grid(2, ranks / 2) } else { mini_grid(1, ranks) };
        rt.enable_tracing();
        let root = ranks / 2;
        let case = format!("bcast + allgather on {ranks}");
        let run = same_under_both_drivers(&rt, &case, async |p, w| {
            let mine = (w.my_index(p) == root).then(|| vec![1.5; 32]);
            let got = w.bcast_async(p, root, mine).await?;
            w.allgather_async(p, (p.rank() as u64, got)).await
        });
        for r in &run.ranks {
            let all = r.result.as_ref().expect("collectives succeed");
            assert!(all
                .iter()
                .enumerate()
                .all(|(i, (rank, v))| *rank == i as u64 && *v == vec![1.5; 32]));
        }
    }
}

/// The folded all-reduce against the message path: the same `Dims` program
/// run cooperatively and untraced (every all-reduce folded in one step) and
/// on rank threads (every round sent). PDGEQR2 on communicators of 1, 2, 3,
/// 5, 6, 7 and 13 members, with members entering at different clocks and a
/// receive NIC last written by a point-to-point receive, and on the
/// 256-rank four-site grid of the `sim-qr2` benchmark; grouped-domain TSQR
/// with 3 ranks a domain (concurrent folds); world, split group, world back
/// to back with a point-to-point envelope landing mid-all-reduce; and two
/// groups with the same first member, size and last member open at once.
#[test]
fn folded_allreduces_report_what_the_messages_report() {
    const { assert!(<Dims as WirePayload>::SYMBOLIC, "a cooperative Dims run folds its all-reduces") };
    let n = 6;
    for ranks in [1, 2, 3, 5, 6, 7, 13] {
        let rt = if ranks % 2 == 0 { mini_grid(2, ranks / 2) } else { mini_grid(1, ranks) };
        let chunks = even_chunks((ranks * 4 * n) as u64, ranks);
        let case = format!("pdgeqr2 on {ranks}, skewed entry");
        let run = same_under_both_drivers(&rt, &case, async |p, w| {
            let (me, size) = (p.rank(), p.size());
            p.compute(1_000_000 * (me as u64 % 3), None);
            if size > 1 {
                p.send((me + 1) % size, 7, Dims { rows: 64, cols: 64 })?;
                p.recv_async::<Dims>((me + size - 1) % size, 7).await?;
            }
            pdgeqr2_async(p, w, Dims { rows: chunks[me] as usize, cols: n }, None).await
        });
        assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");
    }

    let profile = tsqr_qcg::JobProfile::cluster_of_clusters(4, 64);
    let alloc = tsqr_qcg::allocate(&tsqr_qcg::ResourceCatalog::grid5000(), &profile).expect("fits");
    let rt = Runtime::new(alloc.topology, alloc.network);
    let case = "pdgeqr2 on the 256-rank four-site grid";
    let run = same_under_both_drivers(&rt, case, async |p, w| {
        pdgeqr2_async(p, w, Dims { rows: 64, cols: 4 }, None).await
    });
    assert_eq!(run.totals.total_msgs(), 7 * 8 * 256, "{case}");

    let rt = mini_grid(2, 6);
    let (m, dpc) = (12 * 8 * n as u64, 2);
    let layout = DomainLayout::build(rt.topology(), m, n, dpc);
    assert!(layout.domains.iter().all(|d| d.ranks.len() == 3));
    let shape = TreeShape::Binary;
    let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig { shape, domains_per_cluster: dpc, ..Default::default() };
    let case = "tsqr over domains of 3 ranks";
    let run = same_under_both_drivers(&rt, case, async |p, _| {
        tsqr_rank_program_with_async(p, &layout, &tree, &cfg, None, |_, rows| Dims {
            rows,
            cols: n,
        })
        .await
    });
    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");

    // Six ranks: in the world all-reduce rank 0 hears from rank 1 alone (the
    // fold-in pair), so rank 4's envelope waits in its buffer throughout.
    let rt = mini_grid(2, 3);
    let case = "world, split group, world; 4 -> 0 lands mid-all-reduce";
    let run = same_under_both_drivers(&rt, case, async |p, w| {
        let me = p.rank();
        let first = |_: &mut Process, lo: Dims, _| lo;
        let v = Dims { rows: 3, cols: 2 };
        p.compute(250_000 * me as u64, None);
        if me == 4 {
            p.send(0, 9, Dims { rows: 128, cols: 8 })?;
        }
        w.allreduce_with_async(p, v, first).await?;
        if me == 0 {
            p.recv_async::<Dims>(4, 9).await?;
        }
        let half = w.split_by(p, |r| (r % 2) as u64, |r| r as u64);
        half.allreduce_with_async(p, v, first).await?;
        w.allreduce_with_async(p, v, first).await
    });
    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");

    // Two groups alike in first member, size and last member, open at once:
    // rank 2 arrives at [0, 2, 3] while ranks 0 and 1 wait in [0, 1, 3].
    let rt = mini_grid(2, 2);
    let case = "[0, 1, 3] and [0, 2, 3] open together";
    let run = same_under_both_drivers(&rt, case, async |p, _| {
        let v = Dims { rows: 1, cols: 5 };
        for group in [[0, 1, 3], [0, 2, 3]] {
            if group.contains(&p.rank()) {
                let group = Communicator::from_members(group.to_vec());
                group.allreduce_with_async(p, v, |_, lo, _| lo).await?;
            }
        }
        Ok(p.clock())
    });
    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");
}

/// `clusters` sites of `nodes` dual-processor nodes, each node's own link
/// ten times faster than the LAN: a group's butterfly then crosses
/// intra-node, intra-cluster and (across sites) WAN links, each priced
/// apart.
fn dual_proc_grid(clusters: usize, nodes: usize) -> Runtime {
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes,
            procs_per_node: 2,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let mut model = CostModel::homogeneous(lan, 1e9, clusters);
    model.intra_node = LinkParams::from_ms_mbps(0.007, 8900.0);
    model.inter_cluster = vec![vec![LinkParams::from_ms_mbps(8.0, 80.0); clusters]; clusters];
    Runtime::new(GridTopology::block_placement(specs, nodes, 2), model)
}

/// A communicator's fold plan — its butterfly with every link class looked
/// up, and the prices of those classes — is kept for the run, so each case
/// here is one a stale plan gets wrong, held to the message path: a
/// communicator whose wire size changes from one all-reduce to the next
/// (the prices must be redone), communicators sharing a first member used
/// by turns (each must find its own plan: the world, a pair inside a site
/// and a pair across two), and grouped-domain TSQR on dual-processor nodes,
/// where the domains' butterflies cross different links, over two
/// groupings in turn, so that pool slots freed by one domain are taken by
/// another.
#[test]
fn a_fold_plan_serves_only_its_own_communicator_and_wire_size() {
    let first = |_: &mut Process, lo: Dims, _| lo;
    let rt = mini_grid(2, 3);
    let case = "one communicator, wire size 4, 4, 9, 1, 9 columns";
    let run = same_under_both_drivers(&rt, case, async |p, w| {
        p.compute(300_000 * p.rank() as u64, None);
        for cols in [4, 4, 9, 1, 9] {
            w.allreduce_with_async(p, Dims { rows: 2, cols }, first).await?;
        }
        Ok(p.clock())
    });
    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");

    let case = "world, [0, 1] and [0, 4] by turns";
    let run = same_under_both_drivers(&rt, case, async |p, w| {
        let v = Dims { rows: 3, cols: 2 };
        let pairs = [[0, 1], [0, 4]].map(|pair| Communicator::from_members(pair.to_vec()));
        let me = p.rank();
        for _ in 0..2 {
            w.allreduce_with_async(p, v, first).await?;
            for pair in pairs.iter().filter(|pair| pair.contains(me)) {
                p.compute(100_000, None);
                pair.allreduce_with_async(p, v, first).await?;
            }
        }
        Ok(p.clock())
    });
    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");

    // Within one grouping the domains keep step and each takes back the
    // slot it freed; the second grouping's domains take the first's.
    let rt = dual_proc_grid(2, 3);
    let n = 6;
    let m = 12 * 8 * n as u64;
    let points: Vec<_> = [2, 3]
        .into_iter()
        .map(|dpc| {
            let layout = DomainLayout::build(rt.topology(), m, n, dpc);
            let shape = TreeShape::Binary;
            let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
            (layout, tree, TsqrConfig { shape, domains_per_cluster: dpc, ..Default::default() })
        })
        .collect();
    assert_eq!(
        points.iter().map(|(layout, ..)| layout.domains[0].ranks.len()).collect::<Vec<_>>(),
        [3, 2]
    );
    let case = "tsqr over domains of 3 ranks, then of 2, on dual-processor nodes";
    let run = same_under_both_drivers(&rt, case, async |p, _| {
        for (layout, tree, cfg) in &points {
            tsqr_rank_program_with_async(p, layout, tree, cfg, None, |_, rows| Dims {
                rows,
                cols: n,
            })
            .await?;
        }
        Ok(p.clock())
    });
    assert!(run.ranks.iter().all(|r| r.result.is_ok()), "{case}");
}

/// The same under a failure schedule: a combiner crashes in the middle of
/// the reduction and one upward transmission is dropped (and resent).
/// Crash times and tombstones are virtual-time facts, so both drivers give
/// every rank the same `Result`, the same clock and the same trace — for
/// the plain program, which fails, and for the self-healing one on real
/// numbers, which recovers.
#[test]
fn cooperative_and_threaded_runs_fail_the_same() {
    let (n, m, seed) = (16, 8 * 64, 5);
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
    let case = "tsqr binary, rank 4 crashes, 3 -> 2 dropped once";
    let plain = same_under_both_drivers(&rt, case, async |p, _| {
        tsqr_rank_program_with_async(p, &layout, &tree, &cfg, None, block).await
    });
    let failed: Vec<usize> = (0..8).filter(|&r| plain.ranks[r].result.is_err()).collect();
    assert_eq!(failed, vec![0, 4], "the crashed combiner and the root that waits on it");
    assert!(plain.ranks[4].stats.clock < clean.ranks[4].stats.clock, "the crash cut rank 4 short");
    assert!(plain.ranks[3].stats.traffic.total_msgs() == 2, "3 -> 2 was sent twice");

    let case = "ft_tsqr binary on Matrix, rank 4 crashes, 3 -> 2 dropped once";
    let healed = same_under_both_drivers(&rt, case, async |p, _| {
        ft_tsqr_rank_program_async(p, &layout, &tree, &cfg, seed, None).await
    });
    let failed: Vec<usize> = (0..8).filter(|&r| healed.ranks[r].result.is_err()).collect();
    assert_eq!(failed, vec![4], "only the crashed combiner fails");
    let r =
        healed.ranks[0].result.as_ref().ok().and_then(|o| o.r.clone()).expect("the root holds R");
    assert!(r_distance(&r, &reference_r(seed, m as usize, n)) < 1e-10, "{case}: R");
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
        let dims = |w: &Communicator, p: &Process| Dims { rows: chunks[w.my_index(p)] as usize, cols: n };
        let real = run_ranks::<Matrix, _, _>(&rt, async |p, w| {
            pdgeqr2_async(p, w, block(w.my_index(p)), None).await
        });
        let sym = run_ranks::<Dims, _, _>(&rt, async |p, w| {
            pdgeqr2_async(p, w, dims(w, p), None).await
        });
        prop_assert_eq!(first_mismatch(&real, &sym), None, "pdgeqr2 n={}", n);
        let real = run_ranks::<Matrix, _, _>(&rt, async |p, w| {
            pdgeqrf_async(p, w, block(w.my_index(p)), nb, nx, None).await
        });
        let sym = run_ranks::<Dims, _, _>(&rt, async |p, w| {
            pdgeqrf_async(p, w, dims(w, p), nb, nx, None).await
        });
        prop_assert_eq!(first_mismatch(&real, &sym), None, "pdgeqrf n={} nb={} nx={}", n, nb, nx);

        let (cm, cn) = ((tile * (2 * ranks + panels)) as u64, tile * panels);
        let ccfg = CaqrDistConfig { tile, shape: shape.clone(), rate_flops: None, combine_rate_flops: None };
        let real = run_ranks::<Matrix, _, _>(&rt, async |p, _| {
            let block = |row0, rows| workload::block(seed, row0, rows, cn);
            caqr_dist_program_async(p, cm, cn, &ccfg, block).await
        });
        let sym = run_ranks::<Dims, _, _>(&rt, async |p, _| {
            caqr_dist_program_async(p, cm, cn, &ccfg, |_, rows| Dims { rows, cols: cn }).await
        });
        prop_assert_eq!(first_mismatch(&real, &sym), None, "caqr {:?} tile={} panels={}", shape, tile, panels);
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
