//! `sim-qr2`: the simulator as a figure user feels it — a symbolic
//! ScaLAPACK `PDGEQR2` over 256 ranks on four sites, through
//! `run_experiment`. No numerics: the time goes to `gridmpi` send, recv
//! and allreduce, the virtual clocks, the metrics registry and the vector
//! clocks, priced per message by `netsim`.

use std::path::Path;

use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, ExperimentResult, Mode};
use tsqr_gridmpi::{Runtime, TrafficCounters};
use tsqr_obs::json::Json;

use crate::check::{check_close, check_qr2_messages};
use crate::harness::{Layers, Pass, Workload};
use crate::probes;
use crate::trace::Tracer;

const SITES: usize = 4;

/// The Fig. 4 headline point, `fig4/scalapack` in `BENCH_baseline.json`.
const BASELINE_ID: &str = "fig4/scalapack";
const BASELINE_M: u64 = 1 << 20;
const BASELINE_N: usize = 64;

/// What of a symbolic run must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOut {
    makespan_bits: u64,
    totals: TrafficCounters,
    max_msgs_per_rank: u64,
}

impl SimOut {
    fn of(res: &ExperimentResult) -> Self {
        SimOut {
            makespan_bits: res.makespan.secs().to_bits(),
            totals: res.totals,
            max_msgs_per_rank: res.max_msgs_per_rank(),
        }
    }
    fn makespan_s(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }
}

pub struct SimQr2 {
    m: u64,
    n: usize,
    rt: Runtime,
    /// The verdict of the set-up's baseline point.
    baseline: Result<(), String>,
    first: Option<SimOut>,
}

fn symbolic_qr2(rt: &Runtime, m: u64, n: usize) -> ExperimentResult {
    let (rate_flops, combine_rate_flops) = probes::calibrated_rates(n);
    run_experiment(
        rt,
        &Experiment {
            m,
            n,
            algorithm: Algorithm::ScalapackQr2,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops,
            combine_rate_flops,
        },
    )
}

/// `(makespan_s, msgs)` of record `id` in the repo's live
/// `BENCH_baseline.json`, or why it cannot be had.
fn baseline_record(repo_root: &Path, id: &str) -> Result<(f64, f64), String> {
    let path = repo_root.join("BENCH_baseline.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("no `records` array")?;
    let rec = records
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .ok_or(format!("no record `{id}`"))?;
    let num = |k: &str| {
        rec.get(k)
            .and_then(Json::as_num)
            .ok_or(format!("`{id}` lacks `{k}`"))
    };
    Ok((num("makespan_s")?, num("msgs")?))
}

impl SimQr2 {
    pub fn setup(m: u64, n: usize, repo_root: &Path, tr: &Tracer) -> Self {
        let alloc = tr.span("qcg.allocate", || probes::grid_allocation(SITES));
        let rt = tr.span("gridmpi.runtime_new", || {
            Runtime::new(alloc.topology, alloc.network)
        });
        // One run of the Fig. 4 point against the repo's own baseline: the
        // simulator under the benchmark is the simulator the gates pin.
        let point = tr.span("gridmpi.baseline_point", || {
            symbolic_qr2(&rt, BASELINE_M, BASELINE_N)
        });
        let baseline = match baseline_record(repo_root, BASELINE_ID) {
            Ok((makespan_s, msgs)) => check_close(
                "fig4/scalapack makespan",
                point.makespan.secs(),
                makespan_s,
                1e-9,
            )
            .and_then(|()| {
                check_close(
                    "fig4/scalapack msgs",
                    point.totals.total_msgs() as f64,
                    msgs,
                    0.0,
                )
            }),
            // A golden that cannot be read is a check that did not run:
            // every sample of this run fails it.
            Err(why) => Err(format!("{BASELINE_ID} cross-check impossible: {why}")),
        };
        SimQr2 {
            m,
            n,
            rt,
            baseline,
            first: None,
        }
    }
}

impl Workload for SimQr2 {
    type Out = SimOut;

    fn sample(&self, tr: &Tracer) -> SimOut {
        SimOut::of(&tr.span("gridmpi.run_qr2", || symbolic_qr2(&self.rt, self.m, self.n)))
    }

    fn check(&mut self, out: &SimOut) -> Result<(), String> {
        self.baseline.clone()?;
        let ranks = self.rt.topology().num_procs() as u64;
        check_qr2_messages(
            out.totals.total_msgs(),
            out.max_msgs_per_rank,
            self.m,
            self.n as u64,
            ranks,
        )?;
        let first = *self.first.get_or_insert(*out);
        if first == *out {
            Ok(())
        } else {
            Err(format!(
                "simulated run changed between samples: {first:?} then {out:?}"
            ))
        }
    }

    /// Simulated messages.
    fn work(&self) -> f64 {
        let ranks = self.rt.topology().num_procs() as f64;
        (2 * self.n - 1) as f64 * ranks * ranks.log2()
    }

    fn layers(&self, tr: &Tracer, out: &SimOut, pass: &Pass, layers: &mut Layers) {
        let wall_s = pass.wall_s;
        let (phantom, r64) = probes::pingpong_msgs_per_s(tr);
        layers.insert(
            "gridmpi.spawn_join_ms_256",
            probes::spawn_join_ms(tr, &self.rt),
        );
        layers.insert("gridmpi.pingpong_phantom_msgs_per_s", phantom);
        layers.insert("gridmpi.pingpong_r64_msgs_per_s", r64);
        layers.insert(
            "gridmpi.allreduce256_rounds_per_s",
            probes::allreduce256_rounds_per_s(tr, &self.rt),
        );
        layers.insert(
            "gridmpi.host_us_per_msg",
            1e6 * wall_s / out.totals.total_msgs() as f64,
        );
        layers.insert("gridmpi.msgs", out.totals.total_msgs() as f64);
        layers.insert("gridmpi.wan_msgs", out.totals.inter_cluster_msgs() as f64);
        layers.insert("gridmpi.bytes", out.totals.total_bytes() as f64);
        layers.insert("gridmpi.sim_makespan_s", out.makespan_s());
        layers.insert(
            "netsim.message_time_ns",
            probes::message_time_ns(tr, &probes::grid_allocation(SITES)),
        );
        layers.insert("qcg.allocate_us", probes::allocate_us(tr));
    }

    /// A sample is one spawn and join of the rank threads around the
    /// messages; what is not the first is the per-message path.
    fn attribution(&self, l: &Layers, wall_s: f64) -> Option<String> {
        let spawn_s = 1e-3 * l["gridmpi.spawn_join_ms_256"];
        let row = |name: &str, s: f64, note: &str| {
            format!(
                "    {name:<28} {s:>10.4} s {:>5.1} %  {note}\n",
                100.0 * s / wall_s
            )
        };
        Some(
            "  attribution of one symbolic run (reference-host seconds, share of wall)\n"
                .to_string()
                + &row(
                    "rank-thread spawn and join",
                    spawn_s,
                    "gridmpi.spawn_join_ms_256, a no-op rank program",
                )
                + &row(
                    "send, recv, allreduce",
                    wall_s - spawn_s,
                    "residual: gridmpi.msgs x gridmpi.host_us_per_msg less the spawn",
                ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_live_baseline_has_the_fig4_record() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let (makespan_s, msgs) = baseline_record(&root, BASELINE_ID).expect("fig4/scalapack");
        assert!(makespan_s > 0.0);
        // 127 allreduces of 8 rounds on 256 ranks.
        assert_eq!(msgs, 127.0 * 8.0 * 256.0);
        assert!(baseline_record(&root, "no/such").is_err());
    }
}
