//! `tsqr-core` — the paper's contribution: **QCG-TSQR**, a
//! communication-avoiding QR factorization of tall-and-skinny matrices
//! whose reduction tree is tuned to the hierarchical topology of a
//! computational grid, plus the ScaLAPACK-style baseline it is evaluated
//! against and the performance model that explains the results.
//!
//! Reproduction of Agullo, Coti, Dongarra, Herault, Langou,
//! *"QR Factorization of Tall and Skinny Matrices in a Grid Computing
//! Environment"*, IPDPS 2010 (arXiv:0912.2572).
//!
//! # Map of the crate
//!
//! * [`tree`] — generalized reduction-tree schedules: flat, binary, the
//!   paper's grid-hierarchical shape (binary inside each cluster, binary
//!   across cluster roots — Fig. 2, with the `#clusters − 1`
//!   inter-cluster message guarantee), plus k-ary, binomial, greedy
//!   latency-aware, and arbitrary `Custom` parent vectors.
//! * [`tune`] — the model-driven autotuner: predicts every candidate
//!   tree's makespan analytically from the calibrated cost model,
//!   cross-checks against a `netsim` replay to 1e-9, and returns the
//!   argmin tree for a topology (`grid-tsqr tune`, `docs/tuning.md`).
//! * [`domains`] — the domain decomposition knob (§III): one domain per
//!   process (classic TSQR), per node, or per cluster (per-site
//!   ScaLAPACK), and the load-balanced row attribution extension.
//! * [`scalapack`] — the baseline `PDGEQR2`: a distributed Householder
//!   panel factorization paying two all-reduces per column.
//! * [`tile`] — what a rank holds while it runs a schedule: a `Matrix`
//!   (numerically real) or its `Dims` (paper scale). Every distributed
//!   algorithm is one program generic over the two.
//! * [`tsqr`] — QCG-TSQR itself: local/grouped leaf factorizations, packed
//!   R factors reduced over the tree, optional explicit-Q down-sweep.
//! * [`ft_tsqr`] — the **self-healing** variant: under an injected
//!   [`tsqr_netsim::FailureSchedule`] it survives rank crashes and lost
//!   messages (subtree rebuild, cached-R salvage, agent re-election) and
//!   still produces the failure-free R bit for bit
//!   (`docs/fault-injection.md`).
//! * [`caqr`] — the general-matrix extension (tiled flat-tree CAQR,
//!   single process) and [`caqr_dist`] — distributed CAQR over the grid,
//!   the experiment §VI says "we will need to perform".
//! * [`cholqr`] — the communication-matched but unstable CholeskyQR
//!   baseline (§II-E's "unstable orthogonalization schemes").
//! * [`lstsq`] — distributed least squares: `(R, c)` pairs up the tuned
//!   tree, one triangular solve at the root.
//! * [`model`] — Tables I and II, Eq. (1), Properties 1–5.
//! * [`modelfit`] — least-squares fit of Eq. (1) back onto a finished
//!   run's metrics; the residual flags drift between simulation and
//!   closed form (`grid-tsqr analyze`).
//! * [`experiment`] — one-call driver returning the Gflop/s metric the
//!   paper plots.
//! * [`workload`] — deterministic distributed generation of the random TS
//!   test matrices.
//!
//! # Quick example
//!
//! ```
//! use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, Mode};
//! use tsqr_core::tree::TreeShape;
//! use tsqr_gridmpi::Runtime;
//! use tsqr_netsim::grid5000;
//!
//! // Two Grid'5000 sites, 2 procs/node × 32 nodes each.
//! let rt = Runtime::new(grid5000::topology(2), grid5000::cost_model());
//! let exp = Experiment {
//!     m: 1 << 20,
//!     n: 64,
//!     algorithm: Algorithm::Tsqr {
//!         shape: TreeShape::GridHierarchical,
//!         domains_per_cluster: 64,
//!     },
//!     compute_q: false,
//!     mode: Mode::Symbolic,
//!     rate_flops: None,
//!     combine_rate_flops: None,
//! };
//! let res = run_experiment(&rt, &exp);
//! assert!(res.gflops > 0.0);
//! assert_eq!(res.totals.inter_cluster_msgs(), 1); // 2 sites → 1 WAN message
//! ```

// Numerical kernels index with explicit loop counters on purpose: the
// triangular/banded access patterns (row `j`, columns `j+1..`) read more
// clearly as index arithmetic than as iterator chains.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caqr;
pub mod caqr_dist;
pub mod cholqr;
pub mod domains;
pub mod eigsolve;
pub mod experiment;
pub mod ft_tsqr;
pub mod lstsq;
pub mod model;
pub mod modelfit;
pub mod oocqr;
pub mod scalapack;
pub mod tile;
pub mod tree;
pub mod tsqr;
pub mod tune;
pub mod workload;

/// The miniature grid the unit tests run on: `clusters` sites of `procs`
/// single-process nodes, Grid'5000-like LAN/WAN links, 1 Gflop/s.
#[cfg(test)]
pub(crate) fn mini_grid(clusters: usize, procs: usize) -> tsqr_gridmpi::Runtime {
    use tsqr_netsim::{two_tier_grid, LinkParams};
    let lan = LinkParams::from_ms_mbps(0.07, 890.0);
    let wan = LinkParams::from_ms_mbps(8.0, 80.0);
    let (topo, model) = two_tier_grid(clusters, procs, lan, wan, 1e9);
    tsqr_gridmpi::Runtime::new(topo, model)
}
