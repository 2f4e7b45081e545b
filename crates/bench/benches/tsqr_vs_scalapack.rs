//! End-to-end benchmarks: TSQR vs the ScaLAPACK-style baseline, both as
//! real distributed runs at laptop scale (wall-clock of the runtime) and
//! as symbolic paper-scale simulations (cost of the harness itself).

use criterion::{criterion_group, criterion_main, Criterion};

use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::{two_tier_grid, LinkParams};

fn mini_runtime(clusters: usize, procs_per_cluster: usize) -> Runtime {
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let wan = LinkParams::from_ms_mbps(8.0, 80.0);
    let (topo, model) = two_tier_grid(clusters, procs_per_cluster, lan, wan, 3.67e9);
    Runtime::new(topo, model)
}

fn bench_real_distributed(c: &mut Criterion) {
    let rt = mini_runtime(2, 4);
    let mut group = c.benchmark_group("real_8procs_m16384_n32");
    group.sample_size(10);
    group.bench_function("tsqr", |b| {
        b.iter(|| {
            run_experiment(
                &rt,
                &Experiment {
                    m: 16_384,
                    n: 32,
                    algorithm: Algorithm::Tsqr {
                        shape: TreeShape::GridHierarchical,
                        domains_per_cluster: 4,
                    },
                    compute_q: false,
                    mode: Mode::Real { seed: 1 },
                    rate_flops: None,
                    combine_rate_flops: None,
                },
            )
        })
    });
    group.bench_function("scalapack_qr2", |b| {
        b.iter(|| {
            run_experiment(
                &rt,
                &Experiment {
                    m: 16_384,
                    n: 32,
                    algorithm: Algorithm::ScalapackQr2,
                    compute_q: false,
                    mode: Mode::Real { seed: 1 },
                    rate_flops: None,
                    combine_rate_flops: None,
                },
            )
        })
    });
    group.finish();
}

fn bench_symbolic_paper_scale(c: &mut Criterion) {
    // One Fig. 5(a) point at full paper scale: 256 processes,
    // M = 33,554,432 — measures the harness, not the algorithm.
    let rt = tsqr_bench::grid_runtime(4);
    let mut group = c.benchmark_group("symbolic_256procs");
    group.sample_size(10);
    group.bench_function("tsqr_m33m_n64", |b| {
        b.iter(|| tsqr_bench::tsqr_gflops(&rt, 33_554_432, 64, 64))
    });
    group.bench_function("scalapack_m33m_n64", |b| {
        b.iter(|| tsqr_bench::scalapack_gflops(&rt, 33_554_432, 64))
    });
    group.finish();
}

criterion_group!(benches, bench_real_distributed, bench_symbolic_paper_scale);
criterion_main!(benches);
