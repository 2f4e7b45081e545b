//! Property-based tests of the wait-state diagnostics: on random
//! topologies and random compute/communication mixes the classification
//! must reconcile exactly with the metrics registry, agree with the
//! aggregate traffic counters, and stay deterministic.

use proptest::prelude::*;

use tsqr_gridmpi::Runtime;
use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

fn runtime(clusters: usize, procs: usize, latency_ms: f64, mbps: f64) -> Runtime {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, procs, 1);
    let mut model =
        CostModel::homogeneous(LinkParams::from_ms_mbps(latency_ms, mbps), 1e9, clusters);
    for a in 0..clusters {
        for b in 0..clusters {
            if a != b {
                model.inter_cluster[a][b] =
                    LinkParams::from_ms_mbps(latency_ms * 100.0, mbps / 8.0);
            }
        }
    }
    Runtime::new(topo, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The five wait-state classes always partition `recv_wait_s`, per
    /// rank and per phase, and the diagnosis agrees with the runtime's
    /// own traffic counters — whatever the topology, payload size,
    /// compute imbalance or timeline resolution.
    #[test]
    fn diagnosis_reconciles_on_random_runs(
        clusters in 1usize..4,
        procs in 1usize..5,
        len in 1usize..128,
        heavy_sel in 0usize..8,
        megaflops in 1u64..500,
        bins in 1usize..48,
    ) {
        let mut rt = runtime(clusters, procs, 0.3, 400.0);
        rt.enable_tracing();
        let n = clusters * procs;
        let heavy = heavy_sel % n;
        let report = rt.run(move |p, world| {
            if p.rank() == heavy {
                p.compute(megaflops * 1_000_000, None);
            }
            let me = world.my_index(p) as f64;
            world.allreduce(p, vec![me; len], |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            })?;
            world.allreduce(p, (), |_, _| ())?;
            Ok(())
        });
        let trace = report.trace.as_ref().expect("tracing enabled");
        let diag = trace.diagnose(n, bins);

        // (1) The classification reconciles with the metrics registry.
        let drift = diag.reconcile(&report.metrics);
        let scale = diag.total().total_wait_s().max(1.0);
        prop_assert!(drift <= 1e-9 * scale, "drift {} s", drift);

        // (2) Every class is non-negative and nothing is unmatched in a
        // completed run.
        for b in &diag.per_rank {
            prop_assert!(b.late_sender_s >= 0.0);
            prop_assert!(b.imbalance_s >= 0.0);
            prop_assert!(b.propagated_s >= 0.0);
            prop_assert!(b.delivery_s >= 0.0);
            prop_assert!(b.unmatched_s <= 0.0);
            prop_assert!(b.late_receiver_s >= 0.0);
        }

        // (3) The comm matrix and link usage agree with the counters.
        prop_assert_eq!(diag.comm.total_msgs(), report.totals.total_msgs());
        prop_assert_eq!(diag.comm.total_bytes(), report.totals.total_bytes());
        prop_assert_eq!(diag.wan_msgs(), report.totals.inter_cluster_msgs());
        for bucket in 0..3 {
            prop_assert_eq!(diag.link_usage.msgs(bucket), report.totals.msgs[bucket]);
            prop_assert_eq!(diag.link_usage.bytes(bucket), report.totals.bytes[bucket]);
        }

        // (4) The makespan carries through, and a sufficiently heavy
        // rank makes everyone else wait.
        let makespan = report.makespan.secs();
        prop_assert!((diag.makespan_s - makespan).abs() <= 1e-12 * makespan.max(1.0));
        if n > 1 && megaflops >= 100 {
            prop_assert!(
                diag.total().total_wait_s() > 0.0,
                "someone must wait on the heavy rank"
            );
        }
    }

    /// Diagnosing the same run twice renders byte-identical reports.
    #[test]
    fn diagnosis_is_deterministic(
        clusters in 1usize..3,
        procs in 2usize..5,
        len in 1usize..64,
    ) {
        let run = || {
            let mut rt = runtime(clusters, procs, 0.2, 500.0);
            rt.enable_tracing();
            let report = rt.run(move |p, world| {
                let me = world.my_index(p) as f64;
                world.allreduce(p, vec![me; len], |a, b| {
                    a.iter().zip(&b).map(|(x, y)| x + y).collect()
                })?;
                Ok(())
            });
            let n = clusters * procs;
            report.trace.as_ref().expect("tracing enabled").diagnose(n, 16).render()
        };
        prop_assert_eq!(run(), run());
    }
}
