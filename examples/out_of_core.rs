//! Out-of-core QR and streaming least squares: factor a matrix far larger
//! than the resident window by streaming row blocks through the
//! bounded-memory accumulator (`tsqr_core::oocqr`) — the flat-tree TSQR of
//! the paper's citation [26] (Gunter & van de Geijn's out-of-core QR).
//!
//! Run: `cargo run --release --example out_of_core`

use grid_tsqr::core::oocqr::StreamingQr;
use grid_tsqr::core::workload;
use grid_tsqr::linalg::prelude::*;
use grid_tsqr::linalg::verify::r_distance;

fn main() {
    // A 1,000,000 x 32 matrix (256 MB of doubles) streamed through a
    // 16,384-row window (4 MB resident) — a 61x memory reduction.
    let (m, n, seed) = (1_000_000u64, 32usize, 77u64);
    let window_rows = 16_384usize;

    // The right-hand side streams along, so one pass yields both R and
    // the least-squares solution.
    let x_true: Vec<f64> = (0..n).map(|j| (j as f64 * 0.3).cos() * 2.0).collect();

    let mut acc = StreamingQr::new(n);
    let mut row0 = 0u64;
    let mut blocks = 0;
    while row0 < m {
        let rows = (window_rows as u64).min(m - row0) as usize;
        let block = workload::block(seed, row0, rows, n);
        let rhs: Vec<f64> =
            (0..rows).map(|i| (0..n).map(|j| block[(i, j)] * x_true[j]).sum()).collect();
        acc.push_block(&block, Some(&rhs));
        row0 += rows as u64;
        blocks += 1;
    }
    println!(
        "streamed {m} x {n} ({:.0} MB) through a {window_rows}-row window ({:.1} MB) in {blocks} blocks",
        (m as usize * n * 8) as f64 / 1e6,
        (window_rows * n * 8) as f64 / 1e6,
    );
    println!("  charged flops: {:.2e} (~2MN²)", acc.flops as f64);

    // The solution from one pass.
    let x = acc.solve();
    let err = x.iter().zip(&x_true).map(|(g, w)| (g - w).abs()).fold(0.0f64, f64::max);
    println!("  streaming least-squares max error: {err:.3e}");
    assert!(err < 1e-9);

    // Cross-check R against an in-memory factorization of a smaller
    // prefix (the full matrix would defeat the point).
    let prefix_m = 65_536usize;
    let mut prefix_acc = StreamingQr::new(n);
    let mut r0 = 0;
    while r0 < prefix_m {
        let rows = window_rows.min(prefix_m - r0);
        prefix_acc.push_block(&workload::block(seed, r0 as u64, rows, n), None);
        r0 += rows;
    }
    let reference = QrFactors::compute(&workload::full_matrix(seed, prefix_m, n), 64)
        .r()
        .upper_triangular_padded();
    let dist = r_distance(prefix_acc.r(), &reference);
    println!("  R (65,536-row prefix) vs in-memory QR: max diff {dist:.3e}");
    assert!(dist < 1e-10);
    println!("OK: bounded-memory TSQR reproduces the in-memory factorization.");
}
