//! Distributed least-squares fitting with TSQR — polynomial regression on
//! a two-site grid without ever forming Q.
//!
//! The solve is TSQR on the augmented block `[A | b]`: the right-hand side
//! rides the same tuned reduction tree as one more column of R, so the
//! whole solve costs one WAN message per site boundary plus the broadcast
//! of the n-vector solution. For contrast we also solve the
//! normal equations (CholeskyQR-style) and show the accuracy gap on an
//! ill-conditioned Vandermonde basis.
//!
//! Run: `cargo run --release --example least_squares`

use grid_tsqr::core::lstsq::lstsq_distributed;
use grid_tsqr::core::tree::TreeShape;
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::linalg::cholesky::potrf_upper;
use grid_tsqr::linalg::tri::{trsv, Triangle};
use grid_tsqr::linalg::Matrix;
use grid_tsqr::netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

/// Vandermonde design matrix on `m` points in [0, 1]: column j = t^j.
/// Notoriously ill-conditioned as the degree grows.
fn vandermonde(m: usize, degree: usize) -> Matrix {
    Matrix::from_fn(m, degree + 1, |i, j| {
        let t = i as f64 / (m - 1) as f64;
        t.powi(j as i32)
    })
}

fn main() {
    // A two-site grid, four processes per site.
    let specs = (0..2)
        .map(|i| ClusterSpec {
            name: format!("site{i}"),
            nodes: 4,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, 4, 1);
    let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 3.67e9, 2);
    model.inter_cluster[0][1] = LinkParams::from_ms_mbps(8.0, 80.0);
    model.inter_cluster[1][0] = LinkParams::from_ms_mbps(8.0, 80.0);
    let rt = Runtime::new(topo, model);

    // Ground truth: a degree-9 polynomial sampled on 4096 points.
    let (m, degree) = (4096usize, 9usize);
    let truth: Vec<f64> = (0..=degree).map(|j| ((j as f64) * 0.7 - 2.0).sin() * 3.0).collect();
    let a = vandermonde(m, degree);
    let b: Vec<f64> = (0..m).map(|i| (0..=degree).map(|j| a[(i, j)] * truth[j]).sum()).collect();

    // --- Distributed TSQR least squares. ---
    let out = lstsq_distributed(&rt, &a, &b, 4, TreeShape::GridHierarchical);
    let tsqr_err: f64 = out.x.iter().zip(&truth).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max);
    println!("degree-{degree} Vandermonde fit on {m} points, 8 processes / 2 sites");
    println!("  TSQR solve:             max coefficient error {tsqr_err:.3e}");
    println!("  R min diagonal (conditioning probe): {:.3e}", out.r_min_diag);

    // --- Normal equations for contrast (squares the condition number). ---
    let g = a.t_matmul(&a);
    let atb = a.t_matmul(&Matrix::from_col_major(m, 1, b.clone()).unwrap());
    let ne_err = match potrf_upper(&g) {
        Ok(r) => {
            let mut y = atb.col(0).to_vec();
            trsv(Triangle::Lower, &r.transpose().view(), &mut y);
            trsv(Triangle::Upper, &r.view(), &mut y);
            y.iter().zip(&truth).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max)
        }
        Err(e) => {
            println!("  normal equations:       Cholesky failed ({e})");
            f64::INFINITY
        }
    };
    if ne_err.is_finite() {
        println!("  normal equations solve: max coefficient error {ne_err:.3e}");
    }

    assert!(tsqr_err < 1e-6, "TSQR fit should recover the coefficients");
    assert!(
        tsqr_err < ne_err / 10.0 || ne_err.is_infinite(),
        "QR-based solve must beat the normal equations on this conditioning \
         (tsqr {tsqr_err:.3e} vs normal equations {ne_err:.3e})"
    );
    println!(
        "OK: the QR-based distributed solve is ~{:.0}x more accurate here.",
        (ne_err / tsqr_err).min(1e9)
    );
}
