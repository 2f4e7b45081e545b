//! Distributed CAQR on the grid — the paper's announced next step (§VI:
//! "We plan to extend this work to the QR factorization of general
//! matrices … From models, there is no doubt that CAQR should scale.
//! However we will need to perform the experiment to confirm this
//! claim."). This module performs that experiment on the simulated grid.
//!
//! ## Algorithm
//!
//! The matrix is cut into `b × b` row-tiles distributed **block-cyclically**
//! over the ranks (tile `t` lives on rank `t mod P`), each rank storing its
//! tiles stacked contiguously. For every panel `k` (columns `k·b..(k+1)·b`):
//!
//! 1. **Local leaf**: each rank QR-factors the panel slice of its active
//!    tiles (`t ≥ k` — a suffix of its local rows, thanks to the cyclic
//!    layout) and applies the implicit Qᵀ to its local trailing columns —
//!    zero communication.
//! 2. **Tree reduce**: the per-rank `b × b` R factors are reduced over the
//!    TSQR tree (tuned to the grid topology), with each combine *also*
//!    applying its implicit Qᵀ to the two coupled `b × n_trail` trailing
//!    row-blocks — one extra round-trip per tree edge.
//! 3. The tree is rooted at the owner of the diagonal tile, so the final
//!    `R` row-block lands in place.
//!
//! Per panel the tuned tree crosses the WAN `O(#sites)` times regardless of
//! the matrix width — which is why CAQR inherits TSQR's grid scalability
//! (see `grid-tsqr figure --id caqr_scaling`).

use tsqr_gridmpi::{CommError, Process};
use tsqr_linalg::flops;
use tsqr_linalg::qr::Trans;
use tsqr_linalg::Matrix;

use crate::tile::Tile;
use crate::tree::{ReductionTree, TreeShape};
use crate::workload;

/// Tag for R factors travelling up the per-panel tree.
const TAG_R: u32 = 1301;
/// Tag for coupled trailing blocks travelling up.
const TAG_C: u32 = 1302;
/// Tag for updated trailing blocks travelling back down.
const TAG_C_BACK: u32 = 1303;
/// Tag for gathering the final R to rank 0.
const TAG_GATHER: u32 = 1304;

/// Phase label for the per-panel local leaf factorization plus local
/// trailing update (step 1 — zero communication).
pub const PHASE_PANEL_LEAF: &str = "panel-leaf";
/// Phase label for the per-panel tree reduction with coupled trailing
/// updates (step 2 — where all panel communication happens).
pub const PHASE_PANEL_TREE: &str = "panel-tree";
/// Phase label for the final gather of R tiles to rank 0 (bookkeeping,
/// not part of the factorization the paper times).
pub const PHASE_GATHER: &str = "gather";

/// Configuration of a distributed CAQR run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaqrDistConfig {
    /// Tile size `b` (panel width = tile height).
    pub tile: usize,
    /// Tree shape for the per-panel reductions.
    pub shape: TreeShape,
    /// Leaf/kernel rate (flop/s); `None` = cost-model default.
    pub rate_flops: Option<f64>,
    /// Combine-kernel rate; `None` = leaf rate.
    pub combine_rate_flops: Option<f64>,
}

/// The block-cyclic tile layout of one rank.
struct TileMap {
    /// Global tile indices owned by this rank, ascending.
    tiles: Vec<usize>,
    /// Tile size.
    b: usize,
}

impl TileMap {
    fn new(rank: usize, procs: usize, n_tiles: usize, b: usize) -> Self {
        TileMap { tiles: (rank..n_tiles).step_by(procs).collect(), b }
    }

    /// Local row offset of the first owned tile with index ≥ `k`, plus the
    /// number of local rows from there on.
    fn active(&self, k: usize, total_local_rows: usize) -> (usize, usize) {
        let skipped = self.tiles.iter().take_while(|&&t| t < k).count();
        let offset = skipped * self.b;
        (offset, total_local_rows - offset)
    }

    /// True when this rank owns tile `k`.
    fn owns(&self, k: usize) -> bool {
        self.tiles.binary_search(&k).is_ok()
    }
}

/// Participants of panel `k`'s reduction: ranks that still own an active
/// tile, ordered with the diagonal-tile owner first (the tree root) and
/// the rest grouped by cluster, so the hierarchical tree shape sees
/// contiguous cluster runs.
fn panel_participants(
    k: usize,
    procs: usize,
    n_tiles: usize,
    cluster_of_rank: &[usize],
) -> Vec<usize> {
    let remaining = n_tiles - k;
    let root = k % procs;
    let mut rest: Vec<usize> =
        (1..procs.min(remaining)).map(|i| (k + i) % procs).collect();
    let root_cluster = cluster_of_rank[root];
    rest.sort_by_key(|&r| {
        (usize::from(cluster_of_rank[r] != root_cluster), cluster_of_rank[r], r)
    });
    std::iter::once(root).chain(rest).collect()
}

/// The rank program of a numerically real distributed CAQR (R only) on
/// the seeded random workload.
pub fn caqr_dist_rank_program(
    p: &mut Process,
    m: u64,
    n: usize,
    cfg: &CaqrDistConfig,
    seed: u64,
) -> Result<Option<Matrix>, CommError> {
    caqr_dist_rank_program_with(p, m, n, cfg, |row0, rows| {
        workload::block(seed, row0, rows, n)
    })
}

/// The rank program of a numerically real distributed CAQR (R only) over
/// caller-supplied data: `local_block(row0, rows)` returns that slice of
/// the global matrix (called once per owned tile).
///
/// Returns the full `N × N` upper-triangular factor on rank 0 (gathered
/// tile-by-tile), `None` elsewhere.
pub fn caqr_dist_rank_program_with(
    p: &mut Process,
    m: u64,
    n: usize,
    cfg: &CaqrDistConfig,
    local_block: impl FnMut(u64, usize) -> Matrix,
) -> Result<Option<Matrix>, CommError> {
    let local = caqr_dist_program(p, m, n, cfg, local_block)?;
    let (b, procs, n_panels) = (cfg.tile, p.size(), n / cfg.tile);
    let map = TileMap::new(p.rank(), procs, m as usize / b, b);

    // --- Gather the R tiles (diagonal row-blocks) to rank 0: bookkeeping,
    // not part of the factorization the paper times. ---
    p.phase_begin(PHASE_GATHER);
    let mut mine: Vec<(usize, Matrix)> = Vec::new();
    for (i, &t) in map.tiles.iter().enumerate() {
        if t < n_panels {
            mine.push((t, local.sub_matrix(i * b, 0, b, n)));
        }
    }
    let out = if p.rank() == 0 {
        let mut r = Matrix::zeros(n, n);
        for (t, block) in mine {
            r.set_sub(t * b, 0, &block);
        }
        let mut needed: Vec<usize> =
            (0..n_panels).filter(|&t| t % procs != 0).map(|t| t % procs).collect();
        needed.sort_unstable();
        needed.dedup();
        for src in needed {
            let blocks: Vec<(u64, Matrix)> = p.recv(src, TAG_GATHER)?;
            for (t, block) in blocks {
                r.set_sub(t as usize * b, 0, &block);
            }
        }
        Some(r.upper_triangular_padded())
    } else {
        let payload: Vec<(u64, Matrix)> =
            mine.into_iter().map(|(t, m)| (t as u64, m)).collect();
        if !payload.is_empty() {
            p.send(0, TAG_GATHER, payload)?;
        }
        None
    };
    p.phase_end();
    Ok(out)
}

/// The factorization proper — every panel's leaf and tree reduction —
/// over either kind of [`Tile`]; returns this rank's stacked tiles, the
/// diagonal ones holding their `R` row-blocks. With `local_block`
/// returning a [`crate::tile::Dims`] it is the schedule and flop charges
/// alone (`grid-tsqr figure --id caqr_scaling`).
pub fn caqr_dist_program<T: Tile>(
    p: &mut Process,
    m: u64,
    n: usize,
    cfg: &CaqrDistConfig,
    mut local_block: impl FnMut(u64, usize) -> T,
) -> Result<T, CommError> {
    let b = cfg.tile;
    assert!(
        b >= 1 && n.is_multiple_of(b) && (m as usize).is_multiple_of(b),
        "m and n must be multiples of the tile"
    );
    let procs = p.size();
    let n_tiles = m as usize / b;
    let n_panels = n / b;
    assert!(n_tiles >= n_panels, "matrix must be at least as tall as wide");
    let map = TileMap::new(p.rank(), procs, n_tiles, b);

    // Materialize this rank's tiles, stacked.
    let mut local = T::zeros(map.tiles.len() * b, n);
    for (i, &t) in map.tiles.iter().enumerate() {
        let block = local_block((t * b) as u64, b);
        assert_eq!(block.shape(), (b, n), "local_block returned the wrong shape");
        local.set_sub(i * b, 0, &block);
    }

    let cluster_of_rank: Vec<usize> =
        (0..procs).map(|r| p.topology().cluster_of(r)).collect();

    for k in 0..n_panels {
        let (off, rows) = map.active(k, local.shape().0);
        let participants = panel_participants(k, procs, n_tiles, &cluster_of_rank);
        let my_pos = participants.iter().position(|&r| r == p.rank());
        let col0 = k * b;
        let trail = n - col0 - b;

        // --- 1. Local leaf factorization + local trailing update. ---
        p.phase_begin(PHASE_PANEL_LEAF);
        let mut r1: Option<T> = None;
        if rows > 0 {
            // Tile granularity guarantees every participant holds at
            // least one full b-row tile.
            r1 = Some(local.factor_panel(off, col0, rows, b, 32).1);
            p.compute(flops::geqrf(rows as u64, b as u64), cfg.rate_flops);
            if trail > 0 {
                p.compute(2 * flops::gemm(rows as u64, trail as u64, b as u64), cfg.rate_flops);
            }
        }
        p.phase_end();

        // --- 2. Tree reduction with coupled trailing updates. ---
        if let (Some(pos), Some(mut r_acc)) = (my_pos, r1) {
            p.phase_begin(PHASE_PANEL_TREE);
            let tree = ReductionTree::build(
                &cfg.shape,
                participants.len(),
                &participants.iter().map(|&r| cluster_of_rank[r]).collect::<Vec<_>>(),
            );
            let combine_rate = cfg.combine_rate_flops.or(cfg.rate_flops);
            for &from_pos in tree.children(pos) {
                let from = participants[from_pos];
                let f = r_acc.tpqrt(p.recv(from, TAG_R)?);
                p.compute(flops::tpqrt(b as u64), combine_rate);
                if trail > 0 {
                    let mut c1 = local.sub_matrix(off, col0 + b, b, trail);
                    let mut c2: T = p.recv(from, TAG_C)?;
                    T::tpmqrt(Trans::Yes, &f, &mut c1, &mut c2);
                    p.compute(flops::tpmqrt(b as u64, trail as u64), combine_rate);
                    local.set_sub(off, col0 + b, &c1);
                    p.send(from, TAG_C_BACK, c2)?;
                }
            }
            if let Some(to_pos) = tree.parent(pos) {
                let to = participants[to_pos];
                p.send(to, TAG_R, r_acc.pack_upper())?;
                if trail > 0 {
                    let c_mine = local.sub_matrix(off, col0 + b, b, trail);
                    p.send(to, TAG_C, c_mine)?;
                    let updated: T = p.recv(to, TAG_C_BACK)?;
                    local.set_sub(off, col0 + b, &updated);
                }
            }
            // The root (owner of tile k) stores the panel's final R.
            if pos == 0 {
                debug_assert!(map.owns(k));
                local.set_sub(off, col0, &r_acc);
            }
            p.phase_end();
        }
    }
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_linalg::prelude::QrFactors;
    use tsqr_linalg::verify::{is_upper_triangular, r_distance};
    use crate::mini_grid;
    use tsqr_gridmpi::Runtime;

    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        QrFactors::compute(&workload::full_matrix(seed, m, n), 16)
            .r()
            .upper_triangular_padded()
    }

    fn run(rt: &Runtime, m: u64, n: usize, tile: usize, seed: u64) -> Matrix {
        let cfg = CaqrDistConfig {
            tile,
            shape: TreeShape::GridHierarchical,
            rate_flops: None,
            combine_rate_flops: None,
        };
        let report = rt.run(|p, _| caqr_dist_rank_program(p, m, n, &cfg, seed));
        report.ranks[0].result.clone().unwrap().expect("rank 0 holds R")
    }

    #[test]
    fn square_matrix_matches_reference() {
        let rt = mini_grid(2, 2);
        let (m, n, tile) = (64u64, 16usize, 4usize);
        let r = run(&rt, m, n, tile, 91);
        assert!(is_upper_triangular(&r));
        let want = reference_r(91, m as usize, n).sub_matrix(0, 0, n, n);
        assert!(r_distance(&r, &want) < 1e-10);
    }

    #[test]
    fn various_grids_and_tiles() {
        for (clusters, procs, m, n, tile) in [
            (1usize, 1usize, 32u64, 8usize, 4usize),
            (1, 4, 96, 24, 4),
            (2, 4, 128, 16, 8),
            (3, 2, 72, 12, 4),
        ] {
            let rt = mini_grid(clusters, procs);
            let r = run(&rt, m, n, tile, 93);
            let want = reference_r(93, m as usize, n).sub_matrix(0, 0, n, n);
            assert!(
                r_distance(&r, &want) < 1e-10,
                "clusters={clusters} procs={procs} m={m} n={n} tile={tile}"
            );
        }
    }

    #[test]
    fn tall_matrix_with_many_tiles() {
        let rt = mini_grid(2, 3);
        let (m, n, tile) = (300u64, 10usize, 5usize);
        let r = run(&rt, m, n, tile, 95);
        let want = reference_r(95, m as usize, n).sub_matrix(0, 0, n, n);
        assert!(r_distance(&r, &want) < 1e-10);
    }

    #[test]
    fn wan_messages_scale_with_panels_not_width() {
        // Each panel's tuned tree crosses the WAN O(sites) times; total
        // WAN messages ≈ panels · O(sites) — independent of the trailing
        // width per panel.
        let rt = mini_grid(2, 2);
        let cfg = CaqrDistConfig {
            tile: 4,
            shape: TreeShape::GridHierarchical,
            rate_flops: None,
            combine_rate_flops: None,
        };
        let report = rt.run(|p, _| caqr_dist_rank_program(p, 64, 16, &cfg, 97).map(|_| ()));
        // 4 panels; per panel ≤ 3 WAN messages (R + C + C_back on one tree
        // edge) + final gather.
        let wan = report.totals.inter_cluster_msgs();
        assert!(wan <= 4 * 3 + 2, "got {wan} WAN messages");
    }

    #[test]
    fn general_matrix_least_squares_via_augmentation() {
        // min ||A·x − b|| for a *general* (square-ish) A: factor the
        // augmented [A | b·e] and back-solve from the R block — the
        // classic augmented-matrix trick, distributed.
        use tsqr_linalg::tri::{trsv, Triangle};
        let rt = mini_grid(2, 2);
        let (m, n, tile) = (96u64, 12usize, 4usize);
        let a = workload::full_matrix(201, m as usize, n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let rhs: Vec<f64> = (0..m as usize)
            .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        // Augment with one tile-width of columns: [b, 0, …, 0].
        let n_aug = n + tile;
        let cfg = CaqrDistConfig {
            tile,
            shape: TreeShape::GridHierarchical,
            rate_flops: None,
            combine_rate_flops: None,
        };
        let report = rt.run(|p, _| {
            caqr_dist_rank_program_with(p, m, n_aug, &cfg, |row0, rows| {
                Matrix::from_fn(rows, n_aug, |i, j| {
                    if j < n {
                        a[(row0 as usize + i, j)]
                    } else if j == n {
                        rhs[row0 as usize + i]
                    } else {
                        0.0
                    }
                })
            })
        });
        let r_aug = report.ranks[0].result.clone().unwrap().expect("rank 0");
        // x = R[..n, ..n]⁻¹ · R[..n, n]
        let r = r_aug.sub_matrix(0, 0, n, n);
        let mut x: Vec<f64> = (0..n).map(|i| r_aug[(i, n)]).collect();
        trsv(Triangle::Upper, &r.view(), &mut x);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
