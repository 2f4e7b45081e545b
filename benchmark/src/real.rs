//! `real-n64` and `real-n256-q`: numerically real TSQR on rank threads.
//!
//! One sample is `Runtime::run` over `tsqr_rank_program_with`, the entry
//! point `grid-tsqr tsqr --real` and the experiment driver both end in.
//! Set-up builds the runtime through `qcg::allocate` + `Runtime::new` and
//! computes the reference every output is checked against: a sequential
//! flat-tree replica over the same row blocks (`QrFactors::compute` per
//! block, `tpqrt` to fold each R in) and the Gram matrix `AᵀA` by `gemm`.
//! Kernel time inside the multi-threaded run cannot be seen from outside;
//! the replica's per-kernel spans are the estimate of it.

use std::time::Instant;

use tsqr_core::domains::DomainLayout;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{tsqr_rank_program_with, TsqrConfig};
use tsqr_core::{model, workload};
use tsqr_gridmpi::{Runtime, TrafficCounters};
use tsqr_linalg::prelude::{orm2r, tpmqrt, tpqrt, QrFactors, Side, StackedFactors, Trans};
use tsqr_linalg::verify::r_distance;
use tsqr_linalg::{flops, Matrix};

use crate::check::{add_at_b, check_q, check_r, QAccuracy, RAccuracy};
use crate::harness::{all_cores, timed, Layers, Pass, Workload};
use crate::probes::{self, PROCS_PER_SITE};
use crate::trace::{total_s, Tracer};

/// Shape of one real workload.
#[derive(Debug, Clone, Copy)]
pub struct RealShape {
    pub m: u64,
    pub n: usize,
    pub sites: usize,
    pub with_q: bool,
}

pub struct RealOut {
    r: Matrix,
    /// Row blocks of the explicit Q, in row order (empty without Q).
    q_blocks: Vec<Matrix>,
    sim_makespan_s: f64,
    totals: TrafficCounters,
}

pub struct Real {
    shape: RealShape,
    seed: u64,
    rt: Runtime,
    layout: DomainLayout,
    tree: ReductionTree,
    cfg: TsqrConfig,
    rate: Option<f64>,
    r_ref: Matrix,
    gram: Matrix,
    /// With Q only: the row blocks of A and the replica's factors, which
    /// the Q check and the down-sweep probe need.
    a_blocks: Vec<Matrix>,
    leaf_factors: Vec<QrFactors>,
    combine_factors: Vec<StackedFactors>,
    /// The last output that passed the full check. A later output equal
    /// to it bit for bit is correct without repeating the check.
    verified: Option<RealOut>,
    /// What the last full check measured.
    accuracy: (RAccuracy, QAccuracy),
}

impl Real {
    pub fn setup(shape: RealShape, seed: u64, tr: &Tracer) -> Self {
        let RealShape {
            m,
            n,
            sites,
            with_q,
        } = shape;
        let alloc = tr.span("qcg.allocate", || probes::grid_allocation(sites));
        let rt = tr.span("gridmpi.runtime_new", || {
            Runtime::new(alloc.topology, alloc.network)
        });
        let (layout, tree) = tr.span("core.layout_tree", || {
            let layout = DomainLayout::build(rt.topology(), m, n, PROCS_PER_SITE);
            let tree = ReductionTree::build(
                &TreeShape::GridHierarchical,
                layout.num_domains(),
                &layout.clusters(),
            );
            (layout, tree)
        });
        assert!(
            layout.domains.iter().all(|d| d.ranks.len() == 1),
            "one process per domain"
        );
        let (rate, combine_rate_flops) = probes::calibrated_rates(n);
        let cfg = TsqrConfig {
            domains_per_cluster: PROCS_PER_SITE,
            compute_q: with_q,
            combine_rate_flops,
            ..Default::default()
        };

        let mut gram = Matrix::zeros(n, n);
        let mut r_acc: Option<Matrix> = None;
        let (mut a_blocks, mut leaf_factors, mut combine_factors) =
            (Vec::new(), Vec::new(), Vec::new());
        tr.span("core.seq_tsqr", || {
            for dom in &layout.domains {
                let block = tr.span("core.block_gen", || {
                    workload::block(seed, dom.row0, dom.rows as usize, n)
                });
                let f = tr.span("linalg.leaf_qr", || QrFactors::compute(&block, cfg.nb));
                let mut r = f.r().upper_triangular_padded();
                match r_acc.as_mut() {
                    None => r_acc = Some(r),
                    Some(acc) => {
                        let sf = tr.span("linalg.combine", || tpqrt(acc, &mut r));
                        if with_q {
                            combine_factors.push(sf);
                        }
                    }
                }
                tr.span("linalg.gram", || add_at_b(&block, &block, &mut gram));
                if with_q {
                    a_blocks.push(block);
                    leaf_factors.push(f);
                }
            }
        });
        let r_ref = r_acc
            .expect("at least one domain")
            .upper_triangular_padded();

        Real {
            shape,
            seed,
            rt,
            layout,
            tree,
            cfg,
            rate,
            r_ref,
            gram,
            a_blocks,
            leaf_factors,
            combine_factors,
            verified: None,
            accuracy: Default::default(),
        }
    }

    fn ranks(&self) -> usize {
        self.layout.num_domains()
    }

    /// Cores the run can actually use.
    fn parallelism(&self) -> f64 {
        all_cores().min(self.ranks()) as f64
    }

    /// The replica's Q down-sweep: the same `tpmqrt` and leaf `orm2r`
    /// calls, on the same shapes, the run's down-sweep makes.
    fn apply_q_s(&self, tr: &Tracer) -> f64 {
        let n = self.shape.n;
        let ((), t) = timed(|| {
            tr.span("linalg.apply_q", || {
                let mut e = Matrix::identity(n);
                // The flat tree folded block d+1 in with combine d; unwind it.
                for (f, leaf) in self
                    .combine_factors
                    .iter()
                    .zip(&self.leaf_factors[1..])
                    .rev()
                {
                    let mut e_child = Matrix::zeros(n, n);
                    tpmqrt(Trans::No, f, &mut e, &mut e_child);
                    std::hint::black_box(expand_leaf(leaf, &e_child));
                }
                std::hint::black_box(expand_leaf(&self.leaf_factors[0], &e));
            })
        });
        t.s
    }
}

/// A leaf's rows of Q: its implicit Q applied to `[E; 0]`.
fn expand_leaf(leaf: &QrFactors, e: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(leaf.factors.rows(), e.cols());
    c.set_sub(0, 0, e);
    orm2r(
        Side::Left,
        Trans::No,
        &leaf.factors.view(),
        &leaf.tau,
        &mut c.view_mut(),
    );
    c
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Workload for Real {
    type Out = RealOut;

    fn sample(&self, tr: &Tracer) -> RealOut {
        let (seed, n) = (self.seed, self.shape.n);
        let report = tr.span("gridmpi.run_tsqr", || {
            let parent = tr.current();
            self.rt.run(|p, _| {
                tsqr_rank_program_with(
                    p,
                    &self.layout,
                    &self.tree,
                    &self.cfg,
                    self.rate,
                    |row0, rows| {
                        // The one span inside the run that is reachable from
                        // outside: the closure is ours.
                        let t0 = Instant::now();
                        let block = workload::block(seed, row0, rows, n);
                        tr.record("core.block_gen_inrun", t0, Instant::now(), parent);
                        block
                    },
                )
            })
        });
        let (sim_makespan_s, totals) = (report.makespan.secs(), report.totals);
        let mut outs = report.unwrap_results();
        outs.sort_by_key(|o| o.row0);
        let r = outs[0].r.take().expect("rank 0 holds R");
        let q_blocks = outs.into_iter().filter_map(|o| o.q_block).collect();
        RealOut {
            r,
            q_blocks,
            sim_makespan_s,
            totals,
        }
    }

    fn check(&mut self, out: &RealOut) -> Result<(), String> {
        if let Some(v) = &self.verified {
            if v.sim_makespan_s.to_bits() != out.sim_makespan_s.to_bits() || v.totals != out.totals
            {
                return Err(
                    "simulated makespan or traffic counters changed between samples".into(),
                );
            }
            let same_q = v.q_blocks.len() == out.q_blocks.len()
                && v.q_blocks
                    .iter()
                    .zip(&out.q_blocks)
                    .all(|(a, b)| same_bits(a, b));
            if same_bits(&v.r, &out.r) && same_q {
                return Ok(());
            }
        }
        let r_acc = check_r(&out.r, &self.r_ref, &self.gram)?;
        let q_acc = if self.shape.with_q {
            check_q(&self.a_blocks, &out.q_blocks, &out.r)?
        } else {
            QAccuracy {
                orth: 0.0,
                resid: 0.0,
            }
        };
        self.accuracy = (r_acc, q_acc);
        self.verified = Some(RealOut {
            r: out.r.clone(),
            q_blocks: out.q_blocks.clone(),
            sim_makespan_s: out.sim_makespan_s,
            totals: out.totals,
        });
        Ok(())
    }

    /// Useful Gflop: `2MN² − 2N³/3`, doubled with Q — the paper's y-axis.
    fn work(&self) -> f64 {
        model::useful_flops(self.shape.m, self.shape.n as u64, self.shape.with_q) / 1e9
    }

    fn layers(&self, tr: &Tracer, out: &RealOut, pass: &Pass, layers: &mut Layers) {
        let wall_s = pass.wall_s;
        let RealShape {
            m,
            n,
            sites,
            with_q,
        } = self.shape;
        let spans = tr.spans();
        // The replica ran in set-up: its raw spans, scaled as set-up was.
        let replica = |name: &str| total_s(&spans, name) * pass.setup_speed;
        let (gen_s, leaf_s, combine_s) = (
            replica("core.block_gen"),
            replica("linalg.leaf_qr"),
            replica("linalg.combine"),
        );
        let apply_q_s = if with_q { self.apply_q_s(tr) } else { 0.0 };
        let leaf_flops: u64 = self
            .layout
            .domains
            .iter()
            .map(|d| flops::geqrf(d.rows, n as u64))
            .sum();
        let combine_flops = (self.ranks() as u64 - 1) * flops::tpqrt(n as u64);
        let gemm_gflops = probes::gemm_gflops(tr);

        // What `grid-tsqr tsqr --real` pays to verify: the whole matrix
        // through the plain single-thread QR.
        let full = tr.span("core.full_matrix_gen", || {
            workload::full_matrix(self.seed, m as usize, n)
        });
        let (reference, t) =
            timed(|| tr.span("linalg.ref_qr", || QrFactors::compute(&full, self.cfg.nb)));
        let ref_qr_s = t.s;
        let ref_dist = r_distance(&reference.r().upper_triangular_padded(), &self.r_ref);
        assert!(
            ref_dist <= crate::check::R_DIST_TOL,
            "the plain QR disagrees with the replica: {ref_dist:e}"
        );
        drop((full, reference));

        let inrun: Vec<f64> = {
            let mut per_sample = std::collections::BTreeMap::<usize, f64>::new();
            for s in spans.iter().filter(|s| s.name == "core.block_gen_inrun") {
                *per_sample.entry(s.sample.unwrap_or(0)).or_default() +=
                    s.dur_ns() as f64 * 1e-9 * pass.sample_speed;
            }
            per_sample.into_values().collect()
        };
        let seq_s = gen_s + leaf_s + combine_s + apply_q_s;
        let (r_acc, q_acc) = self.accuracy;

        layers.insert("linalg.gemm_gflops", gemm_gflops);
        layers.insert("linalg.leaf_qr_s", leaf_s);
        layers.insert("linalg.leaf_qr_gflops", leaf_flops as f64 / leaf_s / 1e9);
        layers.insert(
            "linalg.leaf_qr_over_gemm",
            leaf_flops as f64 / leaf_s / 1e9 / gemm_gflops,
        );
        layers.insert("linalg.combine_s", combine_s);
        layers.insert(
            "linalg.combine_gflops",
            combine_flops as f64 / combine_s / 1e9,
        );
        layers.insert("linalg.apply_q_s", apply_q_s);
        layers.insert("linalg.ref_qr_s", ref_qr_s);
        layers.insert("linalg.leaf_flops", leaf_flops as f64);
        layers.insert("linalg.combine_flops", combine_flops as f64);
        // Computed from array sizes: the leaf reads its block once and
        // writes the factors once, 8 bytes an entry each way.
        layers.insert(
            "linalg.leaf_flops_per_byte",
            leaf_flops as f64 / (16.0 * m as f64 * n as f64),
        );
        layers.insert("linalg.r_dist", r_acc.r_dist);
        layers.insert("linalg.orth", q_acc.orth);
        layers.insert(
            "linalg.resid",
            if with_q {
                q_acc.resid
            } else {
                r_acc.gram_resid
            },
        );
        layers.insert("core.block_gen_s", gen_s);
        layers.insert(
            "core.block_gen_mentries_per_s",
            m as f64 * n as f64 / 1e6 / gen_s,
        );
        layers.insert(
            "core.block_gen_inrun_s",
            if inrun.is_empty() {
                0.0
            } else {
                crate::stats::median(&inrun)
            },
        );
        layers.insert("core.seq_tsqr_s", seq_s);
        layers.insert("core.speedup_vs_seq", seq_s / wall_s);
        let alloc = probes::grid_allocation(sites);
        layers.insert(
            "core.layout_tree_build_us",
            probes::layout_tree_build_us(tr, &alloc, m, n),
        );
        layers.insert(
            "gridmpi.spawn_join_ms_64",
            probes::spawn_join_ms(tr, &probes::grid_runtime(1)),
        );
        layers.insert(
            "gridmpi.spawn_join_ms_256",
            probes::spawn_join_ms(tr, &probes::grid_runtime(4)),
        );
        layers.insert(
            "gridmpi.runtime_overhead_s",
            wall_s - seq_s / self.parallelism(),
        );
        layers.insert("gridmpi.msgs", out.totals.total_msgs() as f64);
        layers.insert("gridmpi.wan_msgs", out.totals.inter_cluster_msgs() as f64);
        layers.insert("gridmpi.bytes", out.totals.total_bytes() as f64);
        layers.insert("gridmpi.sim_makespan_s", out.sim_makespan_s);
        layers.insert("qcg.allocate_us", probes::allocate_us(tr));
    }

    /// Where the wall time of `grid-tsqr tsqr --real` at this shape goes.
    /// Every row but the residual is a measured span of the sequential
    /// replica, divided by the cores the run can use.
    fn attribution(&self, l: &Layers, wall_s: f64) -> Option<String> {
        let cores = self.parallelism();
        let row = |name: &str, s: f64, note: &str| format!("    {name:<28} {s:>10.4} s  {note}\n");
        let mut text = format!(
            "  attribution of `grid-tsqr tsqr --real` at {} x {}, {} ranks on {cores} cores (host seconds)\n",
            self.shape.m, self.shape.n, self.ranks()
        );
        text += &row(
            "block generation",
            l["core.block_gen_s"] / cores,
            "core.block_gen_s / cores",
        );
        text += &row(
            "leaf QR",
            l["linalg.leaf_qr_s"] / cores,
            "linalg.leaf_qr_s / cores",
        );
        text += &row(
            "combines",
            l["linalg.combine_s"] / cores,
            "linalg.combine_s / cores",
        );
        if self.shape.with_q {
            text += &row(
                "apply Q",
                l["linalg.apply_q_s"] / cores,
                "linalg.apply_q_s / cores",
            );
        }
        text += &row(
            "runtime overhead",
            l["gridmpi.runtime_overhead_s"],
            "residual: threads, page faults, contention",
        );
        text += &row("= factorization", wall_s, "wall_ref_s, measured");
        text += &row(
            "reference-QR verification",
            l["linalg.ref_qr_s"],
            "linalg.ref_qr_s, measured",
        );
        Some(text)
    }
}
