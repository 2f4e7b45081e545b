//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, and per-layer metrics with their units. `BENCHMARK.json`
//! states the same lists for the driver; a unit test keeps the two equal.

use crate::stats::{Better, Bound};

/// One named workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one unit of `work_per_ref_s` is on this workload, and the name the
    /// throughput goes by in prose.
    pub work_unit: &'static str,
    pub throughput_name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "real-n64",
        work_unit: "Gflop",
        throughput_name: "host_gflops",
        why: "real 256-rank TSQR, N = nb: level-2 leaf panels, block generation and page faults; serve and tune idle",
    },
    WorkloadSpec {
        name: "real-n256-q",
        work_unit: "Gflop",
        throughput_name: "host_gflops",
        why: "real 64-rank TSQR with explicit Q, N=256: blocked panels, n=256 combines and the Q down-sweep on the tree path",
    },
    WorkloadSpec {
        name: "sim-qr2",
        work_unit: "message",
        throughput_name: "sim_msgs_per_s",
        why: "symbolic ScaLAPACK QR2 on 256 ranks: send/recv/allreduce, clocks and metrics registry; no numerics, linalg idle",
    },
    WorkloadSpec {
        name: "tune-plan",
        work_unit: "prediction",
        throughput_name: "predictions_per_s",
        why: "plan_tree over the Fig. 4-8 grid: predictor and tree builders with no runtime and no threads",
    },
    WorkloadSpec {
        name: "serve-overload",
        work_unit: "request",
        throughput_name: "requests_per_s",
        why: "serve() FIFO at load 1.5 on a queue of 64: arrival/reject path and a job_model rebuild per dispatch; queue scan trivial",
    },
    WorkloadSpec {
        name: "serve-deepq",
        work_unit: "request",
        throughput_name: "requests_per_s",
        why: "serve() EDF at load 4, nothing rejected: linear queue select + remove thousands deep; reject path idle",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric, reported by every workload from the untraced pass.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_ref_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs_floor: 0.0,
        },
    },
    EndToEnd {
        name: "work_per_ref_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound {
            rel: 0.25,
            abs_floor: 0.0,
        },
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs_floor: 0.25,
        },
    },
];

/// Per-layer metrics of the traced pass: `(name, unit)`. The prefix is the
/// layer. A workload on which a layer is idle reports that layer's
/// metrics as 0 and records no span with its prefix.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("linalg.gemm_gflops", "Gflop/s"),
    ("linalg.leaf_qr_s", "s"),
    ("linalg.leaf_qr_gflops", "Gflop/s"),
    ("linalg.leaf_qr_over_gemm", "ratio"),
    ("linalg.combine_s", "s"),
    ("linalg.combine_gflops", "Gflop/s"),
    ("linalg.apply_q_s", "s"),
    ("linalg.ref_qr_s", "s"),
    ("linalg.leaf_flops", "count"),
    ("linalg.combine_flops", "count"),
    ("linalg.leaf_flops_per_byte", "flop/B"),
    ("linalg.r_dist", "abs"),
    ("linalg.orth", "abs"),
    ("linalg.resid", "ratio"),
    ("linalg.spans", "spans"),
    ("core.block_gen_s", "s"),
    ("core.block_gen_mentries_per_s", "1e6/s"),
    ("core.block_gen_inrun_s", "s"),
    ("core.seq_tsqr_s", "s"),
    ("core.speedup_vs_seq", "ratio"),
    ("core.layout_tree_build_us", "us"),
    ("core.predict_us", "us"),
    ("core.candidates_ms", "ms"),
    ("core.plan_tree_ms", "ms"),
    ("core.plan_tree_full_grid_ms", "ms"),
    ("core.spans", "spans"),
    ("gridmpi.spawn_join_ms_64", "ms"),
    ("gridmpi.spawn_join_ms_256", "ms"),
    ("gridmpi.pingpong_phantom_msgs_per_s", "1/s"),
    ("gridmpi.pingpong_r64_msgs_per_s", "1/s"),
    ("gridmpi.allreduce256_rounds_per_s", "1/s"),
    ("gridmpi.host_us_per_msg", "us"),
    ("gridmpi.runtime_overhead_s", "s"),
    ("gridmpi.msgs", "count"),
    ("gridmpi.wan_msgs", "count"),
    ("gridmpi.bytes", "count"),
    ("gridmpi.sim_makespan_s", "sim_s"),
    ("gridmpi.spans", "spans"),
    ("netsim.message_time_ns", "ns"),
    ("netsim.sharedlinks_cycle_ns", "ns"),
    ("netsim.spans", "spans"),
    ("qcg.allocate_us", "us"),
    ("qcg.slotpool_cycle_us", "us"),
    ("qcg.spans", "spans"),
    ("serve.generate_s", "s"),
    ("serve.oracle_ms", "ms"),
    ("serve.serve_s", "s"),
    ("serve.report_ms", "ms"),
    ("serve.us_per_request", "us"),
    ("serve.us_per_dispatch", "us"),
    ("serve.queue_select_us_10k", "us"),
    ("serve.job_model_s", "s"),
    ("serve.deep_queue_s", "s"),
    ("serve.dispatches", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.slo_misses", "count"),
    ("serve.busy_intervals", "count"),
    ("serve.sim_horizon_s", "sim_s"),
    ("serve.spans", "spans"),
    ("proc.peak_rss_mb", "MB"),
    ("proc.cold_first_sample_s", "s"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.host_speed", "ratio"),
    ("proc.raw_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "spans"),
];

/// The layers a span name may start with (the harness's own set-up,
/// sample and check envelopes are `bench.*`), each with the metric that
/// counts its spans — what makes "idle on this workload" checkable.
pub const LAYERS: [(&str, &str); 6] = [
    ("linalg", "linalg.spans"),
    ("core", "core.spans"),
    ("gridmpi", "gridmpi.spans"),
    ("netsim", "netsim.spans"),
    ("qcg", "qcg.spans"),
    ("serve", "serve.spans"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_obs::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_lists_the_same_workloads_metrics_units_and_bounds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(
            names(doc.get("workloads").unwrap()),
            WORKLOADS.map(|w| w.name)
        );
        for (entry, w) in doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_num), Some(m.bound.rel));
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }

    #[test]
    fn every_per_layer_metric_belongs_to_a_known_layer() {
        for (name, unit) in PER_LAYER {
            let layer = name.split('.').next().unwrap();
            let known = LAYERS.iter().any(|(l, _)| *l == layer);
            assert!(known || layer == "proc" || layer == "trace", "{name}");
            assert!(unit.len() <= 16);
        }
    }
}
