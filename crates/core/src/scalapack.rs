//! The ScaLAPACK-style baseline: a distributed Householder panel
//! factorization (`PDGEQR2`) with the paper's communication pattern —
//! **two all-reduce operations per column** (§II-B).
//!
//! The matrix rows are block-distributed over the group; for every column
//! the group (1) all-reduces the column's squared norm to build the
//! reflector and (2) all-reduces the reflector-times-trailing-matrix
//! product to apply it. On `P` processes this costs `2N·log₂(P)` messages
//! and `log₂(P)·N²/2` words — the ScaLAPACK row of Table I — against
//! TSQR's `log₂(P)` messages.
//!
//! [`pdgeqr2`] and [`pdgeqrf`] are one program over two data types (see
//! [`crate::tile`]): called with a [`Matrix`] block they are numerically
//! real (tests and small examples); called with a [`Dims`] they run the
//! same schedule with payloads of the same sizes and the same closed-form
//! flop charges, so paper-scale sweeps finish in milliseconds with
//! identical virtual clocks and traffic counters.

use tsqr_gridmpi::{block_on, CommError, Communicator, Process};
use tsqr_linalg::blas::{gemm, trmm_upper_left};
use tsqr_linalg::flops;
use tsqr_linalg::qr::Trans;
use tsqr_linalg::Matrix;

use crate::tile::{Dims, Tile};

/// Metrics/trace phase: per-column panel factorization (the two
/// all-reduces per column of §II-B).
pub const PHASE_PANEL: &str = "panel";
/// Metrics/trace phase: blocked trailing-matrix update of `pdgeqrf`.
pub const PHASE_UPDATE: &str = "trailing-update";

/// The ScaLAPACK default panel width (§V-B: NB = 64).
pub const DEFAULT_NB: usize = 64;
/// The ScaLAPACK default blocking crossover (§II-B: "blocking is not to
/// be used if there is less than NX columns to be updated"; NX = 128).
pub const DEFAULT_NX: usize = 128;

/// Result of a distributed panel factorization.
#[derive(Debug, Clone)]
pub struct Pdgeqr2Output<T = Matrix> {
    /// This rank's local block, overwritten with R (root's top rows) and
    /// the local parts of the Householder vectors.
    pub factored: T,
    /// Reflector scaling factors (identical on every member).
    pub taus: Vec<f64>,
    /// The `n × n` R factor — `Some` on the group root only.
    pub r: Option<T>,
}

/// The data operations of the column sweep; as in [`Tile`], the provided
/// bodies are each operation's shape and [`Dims`] takes them all. The
/// group root owns the pivot rows: its part of reflector `j` is rows
/// `j+1..` under an implicit 1 at row `j`; every other member's part is
/// its whole column.
pub trait PanelTile: Tile {
    /// This member's `[α; Σx²]` for column `j` (α is the root's pivot).
    fn norm_terms(&self, _j: usize, _is_root: bool) -> Self {
        Self::zeros(2, 1)
    }
    /// Turns column `j` into its reflector given the reduced `[α; Σx²]`;
    /// returns τ and this member's part of `w = vᵀ·A` over the next
    /// `trailing` columns (zeros when τ = 0).
    fn reflect(&mut self, _j: usize, _is_root: bool, trailing: usize, _norm: &Self) -> (f64, Self) {
        (0.0, Self::zeros(trailing, 1))
    }
    /// Applies `H = I − τ·v·vᵀ` to the columns after `j`, given the reduced `w`.
    fn apply_reflector(&mut self, _j: usize, _is_root: bool, _tau: f64, _w: &Self) {}
    /// For the factored panel `j..j+ib`: this member's slice of the
    /// unit-lower-trapezoidal `Ṽ` (the root's starts at row `j`), its
    /// Gram term `ṼᵀṼ`, and `ṼᵀC` for the columns `C` right of the panel.
    fn panel_products(&self, j: usize, ib: usize, is_root: bool) -> (Self, Self, Self) {
        let (m_loc, n) = self.shape();
        let m_act = m_loc - if is_root { j } else { 0 };
        (Self::zeros(m_act, ib), Self::zeros(ib, ib), Self::zeros(ib, n - j - ib))
    }
    /// `C -= Ṽ·(Tᵀ·W)`, with `T` rebuilt from the reduced Gram matrix `g`
    /// and the panel's `taus` (the larft recurrence).
    fn block_update(&mut self, _j: usize, _is_root: bool, _taus: &[f64], _v: &Self, _g: &Self, _w: Self) {}
}

impl PanelTile for Dims {}

/// Distributed Householder QR of a TS matrix block-row-distributed over
/// `group` — the unblocked sweep, i.e. [`pdgeqrf`] with one-column panels.
///
/// `local` is this member's row block; the **group root (member 0) must
/// hold at least `n` rows** (it owns the pivot rows — always true in the
/// tall-and-skinny regime where `m/P ≫ n`). `rate_flops` is the per-process
/// sustained rate used to charge compute time (`None` = model default).
pub fn pdgeqr2<T: PanelTile>(
    p: &mut Process,
    group: &Communicator,
    local: T,
    rate_flops: Option<f64>,
) -> Result<Pdgeqr2Output<T>, CommError> {
    block_on(pdgeqr2_async(p, group, local, rate_flops))
}

/// The body of [`pdgeqr2`], for rank programs that yield (see
/// `tsqr_gridmpi::Runtime::run_cooperative`).
pub async fn pdgeqr2_async<T: PanelTile>(
    p: &mut Process,
    group: &Communicator,
    local: T,
    rate_flops: Option<f64>,
) -> Result<Pdgeqr2Output<T>, CommError> {
    pdgeqrf_async(p, group, local, 1, 0, rate_flops).await
}

/// Elementwise all-reduce sum over `group`.
async fn all_sum<T: Tile>(p: &mut Process, group: &Communicator, x: T) -> Result<T, CommError> {
    group.allreduce_with_async(p, x, |_, lo, hi| lo.add(hi)).await
}

/// The per-column Householder loop shared by [`pdgeqr2`] (full sweep) and
/// [`pdgeqrf`] (panel sweep): factors columns `col0..col0+ncols` of the
/// distributed block, applying updates to columns up to `update_end`.
#[allow(clippy::too_many_arguments)]
async fn panel_columns<T: PanelTile>(
    p: &mut Process,
    group: &Communicator,
    local: &mut T,
    col0: usize,
    ncols: usize,
    update_end: usize,
    taus: &mut [f64],
    rate_flops: Option<f64>,
) -> Result<(), CommError> {
    let m_loc = local.shape().0;
    let is_root = group.my_index(p) == 0;
    for j in col0..col0 + ncols {
        // --- Reduction 1: column norm (and the pivot value α). ---
        let norm = all_sum(p, group, local.norm_terms(j, is_root)).await?;
        // Everyone derives the same reflector parameters.
        let trailing = update_end - j - 1;
        let (tau, w_local) = local.reflect(j, is_root, trailing, &norm);
        taus[j] = tau;
        // --- Reduction 2: w = vᵀ·A_trailing, then the rank-1 update. A
        // τ = 0 reflector (H = I) still performs it: ScaLAPACK does not
        // branch on data. ---
        if trailing > 0 {
            let w = all_sum(p, group, w_local).await?;
            local.apply_reflector(j, is_root, tau, &w);
        }
        p.compute(
            flops::pdgeqr2_column(m_loc as u64, j as u64, group.size() as u64, trailing as u64),
            rate_flops,
        );
    }
    Ok(())
}

/// Blocked distributed Householder QR — ScaLAPACK's `PDGEQRF` (§II-B).
///
/// Panels of `nb` columns are factored with the per-column loop of
/// [`pdgeqr2`] (updates confined to the panel), then the trailing matrix
/// is updated with the compact-WY block reflector: the `T` factor is
/// reconstructed on every rank from one all-reduced `ib × ib` Gram matrix
/// of the panel's reflectors, and the update needs one more all-reduce of
/// `Ṽᵀ·C`. Blocking turns the trailing update into Level-3 work at the
/// price of the extra `T` bookkeeping — the overhead §II-B says is "
/// negligible when there is a large number of columns to be updated but
/// significant when there are only a few", which is why ScaLAPACK (and
/// this routine) falls back to the unblocked sweep once fewer than `nx`
/// columns remain.
pub fn pdgeqrf<T: PanelTile>(
    p: &mut Process,
    group: &Communicator,
    local: T,
    nb: usize,
    nx: usize,
    rate_flops: Option<f64>,
) -> Result<Pdgeqr2Output<T>, CommError> {
    block_on(pdgeqrf_async(p, group, local, nb, nx, rate_flops))
}

/// The body of [`pdgeqrf`], for rank programs that yield (see
/// `tsqr_gridmpi::Runtime::run_cooperative`).
pub async fn pdgeqrf_async<T: PanelTile>(
    p: &mut Process,
    group: &Communicator,
    mut local: T,
    nb: usize,
    nx: usize,
    rate_flops: Option<f64>,
) -> Result<Pdgeqr2Output<T>, CommError> {
    let (m_loc, n) = local.shape();
    let is_root = group.my_index(p) == 0;
    assert!(!is_root || m_loc >= n, "group root must hold at least n rows ({m_loc} < {n})");
    assert!(nb >= 1, "panel width must be positive");

    let mut taus = vec![0.0; n];
    let mut j = 0;
    while j < n {
        let remaining = n - j;
        // ScaLAPACK's NX crossover: unblocked once few columns remain.
        if remaining <= nx || nb == 1 {
            p.phase_begin(PHASE_PANEL);
            panel_columns(p, group, &mut local, j, remaining, n, &mut taus, rate_flops).await?;
            p.phase_end();
            break;
        }
        let ib = nb.min(remaining);
        // --- Panel factorization (updates confined to the panel). ---
        p.phase_begin(PHASE_PANEL);
        panel_columns(p, group, &mut local, j, ib, j + ib, &mut taus, rate_flops).await?;
        p.phase_end();

        // --- Blocked trailing update (nothing to do on the last panel). ---
        let trail = (n - j - ib) as u64;
        if trail == 0 {
            break;
        }
        p.phase_begin(PHASE_UPDATE);
        // The root's active rows start at the panel's pivot row.
        let m_act = (m_loc - if is_root { j } else { 0 }) as u64;
        let (v, g_loc, w_loc) = local.panel_products(j, ib, is_root);
        p.compute(flops::gemm(ib as u64, ib as u64, m_act), rate_flops);
        // One all-reduce rebuilds the reflector Gram matrix everywhere,
        // from which T follows locally; one more reduces W = Ṽᵀ·C.
        let g = all_sum(p, group, g_loc).await?;
        p.compute(flops::gemm(ib as u64, trail, m_act), rate_flops);
        let w = all_sum(p, group, w_loc).await?;
        local.block_update(j, is_root, &taus[j..j + ib], &v, &g, w);
        p.compute(flops::gemm(m_act, trail, ib as u64), rate_flops);
        p.phase_end();

        j += ib;
    }

    let r = is_root.then(|| local.upper_triangular());
    Ok(Pdgeqr2Output { factored: local, taus, r })
}

/// Rows of a member's column below the pivot of reflector `j`.
fn below(j: usize, is_root: bool) -> usize {
    if is_root {
        j + 1
    } else {
        0
    }
}

impl PanelTile for Matrix {
    fn norm_terms(&self, j: usize, is_root: bool) -> Matrix {
        let col = self.col(j);
        let alpha = if is_root { col[j] } else { 0.0 };
        let ssq = col[below(j, is_root)..].iter().map(|x| x * x).sum::<f64>();
        Matrix::from_col_major(2, 1, vec![alpha, ssq]).expect("2 x 1")
    }

    fn reflect(&mut self, j: usize, is_root: bool, trailing: usize, norm: &Matrix) -> (f64, Matrix) {
        let (alpha, ssq) = (norm[(0, 0)], norm[(1, 0)]);
        if ssq == 0.0 {
            return (0.0, Matrix::zeros(trailing, 1));
        }
        let beta = if alpha >= 0.0 {
            -alpha.hypot(ssq.sqrt())
        } else {
            alpha.hypot(ssq.sqrt())
        };
        let scale = 1.0 / (alpha - beta);
        // Scale the local part of v; the root also records β = R[j,j].
        let lo = below(j, is_root);
        let col = self.col_mut(j);
        for x in &mut col[lo..] {
            *x *= scale;
        }
        if is_root {
            col[j] = beta;
        }
        let vj = &self.col(j)[lo..];
        let w = Matrix::from_fn(trailing, 1, |t, _| {
            let ck = self.col(j + 1 + t);
            let dot = vj.iter().zip(&ck[lo..]).map(|(v, c)| v * c).sum::<f64>();
            if is_root {
                ck[j] + dot
            } else {
                dot
            }
        });
        ((beta - alpha) / beta, w)
    }

    fn apply_reflector(&mut self, j: usize, is_root: bool, tau: f64, w: &Matrix) {
        if tau == 0.0 {
            return;
        }
        let lo = below(j, is_root);
        // Columns are disjoint, but the borrow checker cannot see that
        // through two `col` calls, so copy v once.
        let vj: Vec<f64> = self.col(j)[lo..].to_vec();
        for (t, &wk) in w.col(0).iter().enumerate() {
            let tw = tau * wk;
            let ck = self.col_mut(j + 1 + t);
            if is_root {
                ck[j] -= tw;
            }
            for (c, v) in ck[lo..].iter_mut().zip(&vj) {
                *c -= tw * v;
            }
        }
    }

    fn panel_products(&self, j: usize, ib: usize, is_root: bool) -> (Matrix, Matrix, Matrix) {
        let (m_loc, n) = self.shape();
        let row0 = if is_root { j } else { 0 };
        let v = Matrix::from_fn(m_loc - row0, ib, |r, c| {
            let gr = row0 + r;
            if is_root {
                match gr.cmp(&(j + c)) {
                    std::cmp::Ordering::Less => 0.0,
                    std::cmp::Ordering::Equal => 1.0,
                    std::cmp::Ordering::Greater => self[(gr, j + c)],
                }
            } else {
                self[(gr, j + c)]
            }
        });
        let c_loc = self.sub_matrix(row0, j + ib, m_loc - row0, n - j - ib);
        let (g_loc, w_loc) = (v.t_matmul(&v), v.t_matmul(&c_loc));
        (v, g_loc, w_loc)
    }

    fn block_update(&mut self, j: usize, is_root: bool, taus: &[f64], v: &Matrix, g: &Matrix, mut w: Matrix) {
        let ib = taus.len();
        let mut t = Matrix::zeros(ib, ib);
        for c in 0..ib {
            let tau = taus[c];
            t[(c, c)] = tau;
            if tau == 0.0 {
                continue;
            }
            for r in 0..c {
                let mut s = 0.0;
                for l in r..c {
                    s += t[(r, l)] * g[(l, c)];
                }
                t[(r, c)] = -tau * s;
            }
        }
        trmm_upper_left(Trans::Yes, &t.view(), &mut w.view_mut());
        let row0 = if is_root { j } else { 0 };
        let mut view = self.view_mut();
        let mut c_mut = view.sub_mut(row0, j + ib, v.rows(), w.cols());
        gemm(Trans::No, Trans::No, -1.0, &v.view(), &w.view(), 1.0, &mut c_mut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::even_chunks;
    use crate::workload;
    use tsqr_linalg::prelude::*;
    use tsqr_linalg::verify::{is_upper_triangular, r_distance};
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};
    use tsqr_gridmpi::Runtime;

    fn runtime(procs: usize) -> Runtime {
        let topo = GridTopology::block_placement(
            vec![ClusterSpec {
                name: "c".into(),
                nodes: procs,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            }],
            procs,
            1,
        );
        Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 890.0), 1e9, 1))
    }

    /// Reference R from a single-process blocked QR of the full matrix.
    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        let a = workload::full_matrix(seed, m, n);
        QrFactors::compute(&a, 32).r().upper_triangular_padded()
    }

    fn distributed_r(procs: usize, seed: u64, m: usize, n: usize) -> (Matrix, u64) {
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run(|p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = workload::block(seed, row0, chunks[me] as usize, n);
            let out = pdgeqr2(p, world, local, None)?;
            Ok((out.r, p.counters().total_msgs()))
        });
        let msgs = report.ranks[0].result.as_ref().unwrap().1;
        let (r, _) = report.ranks.into_iter().next().unwrap().result.unwrap();
        (r.expect("root holds R"), msgs)
    }

    #[test]
    fn matches_reference_qr_single_process() {
        let (m, n) = (50, 8);
        let (r, msgs) = distributed_r(1, 3, m, n);
        assert_eq!(msgs, 0, "single process must not communicate");
        assert!(r_distance(&r, &reference_r(3, m, n)) < 1e-12);
    }

    #[test]
    fn matches_reference_qr_multi_process() {
        for procs in [2, 3, 4, 8] {
            let (m, n) = (96, 10);
            let (r, _) = distributed_r(procs, 5, m, n);
            assert!(is_upper_triangular(&r));
            assert!(
                r_distance(&r, &reference_r(5, m, n)) < 1e-11,
                "R mismatch on {procs} processes"
            );
        }
    }

    #[test]
    fn message_count_matches_table_one() {
        // Table I: ScaLAPACK QR2 sends 2N·log₂(P) messages; our schedule
        // performs N norm reductions and N−1 update reductions, each
        // log₂(P) per-rank messages.
        let (procs, n) = (8, 6);
        let (_, msgs) = distributed_r(procs, 7, 128, n);
        let log_p = (procs as f64).log2() as u64;
        assert_eq!(msgs, (2 * n as u64 - 1) * log_p);
    }

    #[test]
    fn handles_rank_deficient_columns() {
        // A matrix whose second column equals its first: τ = 0 path.
        let (m, n, procs) = (40, 4, 4);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run(|p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = Matrix::from_fn(chunks[me] as usize, n, |i, j| {
                let gi = row0 + i as u64;
                match j {
                    0 | 1 => workload::entry(13, gi, 0),
                    _ => workload::entry(13, gi, j as u64),
                }
            });
            let out = pdgeqr2(p, world, local, None)?;
            Ok(out.r)
        });
        let r = report.ranks[0].result.clone().unwrap().unwrap();
        assert!(r[(1, 1)].abs() < 1e-12, "dependent column must zero R[1,1]");
        // With a rank deficiency the rows of R beyond it are determined by
        // roundoff, so R cannot be compared entry-wise against a reference.
        // The Gram identity RᵀR = AᵀA holds for *every* valid QR
        // factorization and is the right check here.
        let full = Matrix::from_fn(m, n, |i, j| match j {
            0 | 1 => workload::entry(13, i as u64, 0),
            _ => workload::entry(13, i as u64, j as u64),
        });
        let gram_a = full.t_matmul(&full);
        let gram_r = r.t_matmul(&r);
        let err = gram_r.sub_elem(&gram_a).norm_fro() / gram_a.norm_fro();
        assert!(err < 1e-12, "RᵀR must equal AᵀA, err = {err}");
    }

    #[test]
    fn pdgeqrf_matches_reference_both_paths() {
        // nx >= n exercises the pure-unblocked crossover path; small nx
        // the blocked path; both must agree with the reference QR.
        let (m, n) = (128usize, 12usize);
        for procs in [1usize, 2, 4] {
            for (nb, nx) in [(4, 0), (4, 100), (3, 5), (12, 0), (1, 0)] {
                let rt = runtime(procs);
                let chunks = even_chunks(m as u64, procs);
                let report = rt.run(|p, world| {
                    let me = world.my_index(p);
                    let row0: u64 = chunks[..me].iter().sum();
                    let local = workload::block(23, row0, chunks[me] as usize, n);
                    let out = pdgeqrf(p, world, local, nb, nx, None)?;
                    Ok(out.r)
                });
                let r = report.ranks[0].result.clone().unwrap().unwrap();
                assert!(
                    r_distance(&r, &reference_r(23, m, n)) < 1e-10,
                    "procs={procs} nb={nb} nx={nx}"
                );
            }
        }
    }

    #[test]
    fn pdgeqrf_with_huge_nx_equals_pdgeqr2() {
        // With nx >= n the blocked driver is exactly the unblocked sweep.
        let (m, n, procs) = (96usize, 8usize, 4usize);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run(|p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = workload::block(29, row0, chunks[me] as usize, n);
            let qrf = pdgeqrf(p, world, local.clone(), 4, n, None)?;
            let qr2 = pdgeqr2(p, world, local, None)?;
            Ok((qrf.factored, qr2.factored, qrf.taus, qr2.taus))
        });
        for r in &report.ranks {
            let (f1, f2, t1, t2) = r.result.clone().unwrap();
            assert!(f1.approx_eq(&f2, 1e-12));
            for (a, b) in t1.iter().zip(&t2) {
                assert!((a - b).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn blocking_reduces_latency_messages_for_wide_panels() {
        // Per column, QR2 pays two full-width reductions; QRF confines the
        // per-column reductions to the panel and adds two per panel. For
        // wide trailing matrices the *volume* shifts into two big
        // all-reduces while message counts stay comparable.
        let (m, n, procs) = (256usize, 32usize, 4usize);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let msgs = |blocked: bool| {
            let report = rt.run(|p, world| {
                let local = Dims { rows: chunks[world.my_index(p)] as usize, cols: n };
                if blocked {
                    pdgeqrf(p, world, local, 8, 0, None)?;
                } else {
                    pdgeqr2(p, world, local, None)?;
                }
                Ok(p.counters().total_msgs())
            });
            report.ranks[0].result.clone().unwrap()
        };
        let (m_qr2, m_qrf) = (msgs(false), msgs(true));
        // 2 extra per panel (G and W), one fewer per column inside panels.
        assert!(
            (m_qrf as f64) < 1.2 * m_qr2 as f64,
            "blocked messages {m_qrf} should be comparable to unblocked {m_qr2}"
        );
    }

    #[test]
    fn flops_charged_match_closed_form() {
        let (procs, m, n) = (2, 64, 8);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run(|p, world| {
            let me = world.my_index(p);
            let local = workload::block(17, 0, chunks[me] as usize, n);
            pdgeqr2(p, world, local, None)?;
            Ok(p.counters().flops)
        });
        let per_rank = flops::pdgeqr2_local(32, n as u64, procs as u64);
        for r in &report.ranks {
            assert_eq!(*r.result.as_ref().unwrap(), per_rank);
        }
    }
}
