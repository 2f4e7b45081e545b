//! A slice of the paper's evaluation, end to end: allocate the Grid'5000
//! platform through the QCG meta-scheduler, then race QCG-TSQR against the
//! ScaLAPACK-style baseline on 1, 2 and 4 geographical sites at paper
//! scale (symbolic execution — real message schedules, model-priced
//! virtual time).
//!
//! Run: `cargo run --release --example grid5000_experiment`

use grid_tsqr::core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use grid_tsqr::core::tree::TreeShape;
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::qcg::{allocate, JobProfile, ResourceCatalog};

fn main() {
    let catalog = ResourceCatalog::grid5000();
    println!(
        "catalog: {} clusters, {} processors total",
        catalog.clusters.len(),
        catalog.total_procs()
    );

    let (m, n) = (33_554_432u64, 64usize); // the paper's tallest matrix
    println!("\nfactoring a {m} x {n} matrix (R factor):");
    println!(
        "{:>6} {:>22} {:>22} {:>9}",
        "sites", "TSQR (Gflop/s)", "ScaLAPACK (Gflop/s)", "WAN msgs"
    );

    let mut tsqr_one_site = 0.0;
    for sites in [1usize, 2, 4] {
        // The application describes what it needs; the meta-scheduler
        // finds matching resources (§II-D / §III).
        let profile = JobProfile::cluster_of_clusters(sites, 64);
        let alloc = allocate(&catalog, &profile).expect("allocation");
        let rt = Runtime::new(alloc.topology.clone(), alloc.network.clone());

        let mk = |algorithm| Experiment {
            m,
            n,
            algorithm,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: Some(0.55e9), // calibrated leaf rate at N = 64
            combine_rate_flops: Some(1.5e9),
        };
        let tsqr = run_experiment(
            &rt,
            &mk(Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 64 }),
        );
        let scal = run_experiment(&rt, &mk(Algorithm::ScalapackQr2));
        println!(
            "{:>6} {:>22.1} {:>22.1} {:>9}",
            sites,
            tsqr.gflops,
            scal.gflops,
            tsqr.totals.inter_cluster_msgs()
        );
        if sites == 1 {
            tsqr_one_site = tsqr.gflops;
        } else if sites == 4 {
            let speedup = tsqr.gflops / tsqr_one_site;
            println!(
                "\nTSQR speedup on 4 sites vs 1 site: {speedup:.2}x \
                 (the paper's central claim: ~linear in the number of sites)"
            );
            assert!(speedup > 3.3, "expected near-linear site scaling");
            assert!(tsqr.gflops > scal.gflops, "TSQR must beat the baseline on the grid");
        }
    }
    println!("OK: dense linear algebra *can* speed up across geographical sites.");
}
