//! Validation of the paper's performance model (§IV, Eq. (1)) against the
//! discrete simulation: `time = β·#msgs + α·vol + γ·#flops` with the
//! Table I breakdowns, on the homogeneous network the model assumes.

use crate::harness::symbolic;
use crate::{Artifact, Sweep, Table};
use tsqr_core::experiment::{run_experiment, Algorithm, Experiment};
use tsqr_core::model;
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::{two_tier_grid, LinkParams};

const BETA_MS: f64 = 0.5;
const MBPS: f64 = 200.0;
const RATE: f64 = 1.0e9;

/// One site of `procs` single-processor nodes: every link is the same.
fn homogeneous(procs: usize) -> Runtime {
    let link = LinkParams::from_ms_mbps(BETA_MS, MBPS);
    let (topo, model) = two_tier_grid(1, procs, link, link, RATE);
    Runtime::new(topo, model)
}

pub(super) fn run(_: &Sweep) -> Artifact {
    let (beta, alpha_word, gamma) = (BETA_MS * 1e-3, 64.0 / (MBPS * 1e6), 1.0 / RATE);
    let mut table = Table::new(
        format!("Eq. (1) vs simulation — homogeneous network (β = {BETA_MS} ms, {MBPS} Mb/s, 1 Gflop/s)"),
        &["P", "M", "N", "algorithm", "Eq.(1) [s]", "simulated", "ratio"],
    );

    let mut worst: f64 = 1.0;
    for procs in [4usize, 16, 64] {
        let rt = homogeneous(procs);
        for (m, n) in [(1u64 << 20, 32usize), (1 << 22, 64), (1 << 18, 16)] {
            for tsqr in [true, false] {
                let algorithm = if tsqr {
                    Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: procs }
                } else {
                    Algorithm::ScalapackQr2
                };
                let rate = Some(RATE);
                let point = Experiment {
                    rate_flops: rate,
                    combine_rate_flops: rate,
                    ..symbolic(m, n, algorithm)
                };
                let sim = run_experiment(&rt, &point).makespan.secs();
                let predicted = if tsqr {
                    model::tsqr_r_only(m, n as u64, procs as u64)
                } else {
                    model::scalapack_r_only(m, n as u64, procs as u64)
                }
                .time(beta, alpha_word, gamma);
                let ratio = sim / predicted;
                worst = worst.max(ratio.max(1.0 / ratio));
                let algorithm = if tsqr { "TSQR" } else { "ScaLAPACK" }.to_string();
                let times = [format!("{predicted:.4}"), format!("{sim:.4}"), format!("{ratio:.3}")];
                table.rows.push(
                    [procs.to_string(), m.to_string(), n.to_string(), algorithm]
                        .into_iter()
                        .chain(times)
                        .collect(),
                );
            }
        }
    }
    let mut artifact = Artifact { tables: vec![table], checks: Vec::new() };
    artifact.check(
        "every simulated time within 30% of Eq. (1)",
        worst < 1.30,
        format!("worst ratio {worst:.3}"),
    );
    artifact
}
