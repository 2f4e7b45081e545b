//! Layer probes of the traced pass: isolated single-threaded calls into
//! one layer's public functions, timed from outside. Each probe records
//! one span named after its layer, so a workload that runs a probe shows
//! that layer as active.

use std::hint::black_box;

use tsqr_bench::calib;
use tsqr_core::domains::DomainLayout;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tune;
use tsqr_gridmpi::message::Phantom;
use tsqr_gridmpi::Runtime;
use tsqr_linalg::blas::gemm;
use tsqr_linalg::qr::Trans;
use tsqr_linalg::{flops, Matrix};
use tsqr_netsim::occupancy::SharedLinks;
use tsqr_netsim::VirtualTime;
use tsqr_qcg::{allocate, Allocation, JobProfile, ResourceCatalog, SlotPool};
use tsqr_serve::workload::ShapeClass;
use tsqr_serve::{BoundedQueue, Policy, QueuedJob};

use crate::harness::{time_median, time_per_call};
use crate::trace::Tracer;

/// Processes per Grid'5000 site, as in every figure of the paper.
pub const PROCS_PER_SITE: usize = 64;

/// The calibrated `(leaf, combine)` flop rates every figure charges for
/// `n` columns — all this benchmark takes from `tsqr-bench`.
pub fn calibrated_rates(n: usize) -> (Option<f64>, Option<f64>) {
    (
        Some(calib::kernel_rate_flops(n)),
        Some(calib::combine_rate_flops()),
    )
}

fn allocation(sites: usize, procs_per_site: usize) -> Allocation {
    let profile = JobProfile::cluster_of_clusters(sites, procs_per_site);
    allocate(&ResourceCatalog::grid5000(), &profile)
        .expect("the Grid'5000 catalog fits the paper's profiles")
}

/// The allocation the paper's experiments run on: `sites` Grid'5000
/// clusters of 64 processes, placed by the QCG meta-scheduler.
pub fn grid_allocation(sites: usize) -> Allocation {
    allocation(sites, PROCS_PER_SITE)
}

pub fn grid_runtime(sites: usize) -> Runtime {
    let alloc = grid_allocation(sites);
    Runtime::new(alloc.topology, alloc.network)
}

/// Gflop/s of a 512³ `gemm`: the yardstick the leaf kernel is held to.
pub fn gemm_gflops(tr: &Tracer) -> f64 {
    const N: usize = 512;
    let (a, b) = (
        Matrix::random_uniform(N, N, 1),
        Matrix::random_uniform(N, N, 2),
    );
    let mut c = Matrix::zeros(N, N);
    let secs = tr.span("linalg.gemm_probe", || {
        time_median(5, || {
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
            );
            black_box(&c);
        })
    });
    flops::gemm(N as u64, N as u64, N as u64) as f64 / secs / 1e9
}

/// Milliseconds to spawn and join every rank thread of `rt` around a
/// rank program that does nothing.
pub fn spawn_join_ms(tr: &Tracer, rt: &Runtime) -> f64 {
    1e3 * tr.span("gridmpi.spawn_join_probe", || {
        time_median(9, || {
            black_box(rt.run(|_, _| Ok(())).makespan);
        })
    })
}

/// Messages per host second of a two-rank ping-pong: `Phantom` payloads
/// (no bytes move) against a packed 64×64 R factor (2080 doubles).
pub fn pingpong_msgs_per_s(tr: &Tracer) -> (f64, f64) {
    const ROUNDS: usize = 20_000;
    let two = allocation(1, 2);
    let rt = Runtime::new(two.topology, two.network);
    let packed = vec![1.0f64; 64 * 65 / 2];
    tr.span("gridmpi.pingpong_probe", || {
        let phantom = time_median(3, || {
            rt.run(|p, _| {
                let peer = 1 - p.rank();
                for _ in 0..ROUNDS {
                    if p.rank() == 0 {
                        p.send(peer, 7, Phantom { bytes: 16 })?;
                        p.recv::<Phantom>(peer, 7)?;
                    } else {
                        p.recv::<Phantom>(peer, 7)?;
                        p.send(peer, 7, Phantom { bytes: 16 })?;
                    }
                }
                Ok(())
            })
            .unwrap_results();
        });
        let r64 = time_median(3, || {
            rt.run(|p, _| {
                let peer = 1 - p.rank();
                let mut r = packed.clone();
                for _ in 0..ROUNDS {
                    if p.rank() == 0 {
                        p.send(peer, 7, r)?;
                        r = p.recv(peer, 7)?;
                    } else {
                        r = p.recv(peer, 7)?;
                        p.send(peer, 7, r.clone())?;
                    }
                }
                Ok(())
            })
            .unwrap_results();
        });
        let msgs = (2 * ROUNDS) as f64;
        (msgs / phantom, msgs / r64)
    })
}

/// World allreduces per host second on the 256-rank, four-site runtime.
pub fn allreduce256_rounds_per_s(tr: &Tracer, rt: &Runtime) -> f64 {
    const ROUNDS: usize = 50;
    let secs = tr.span("gridmpi.allreduce_probe", || {
        time_median(3, || {
            rt.run(|p, world| {
                for _ in 0..ROUNDS {
                    world.allreduce(p, Phantom { bytes: 16 }, |a, _| a)?;
                }
                Ok(())
            })
            .unwrap_results();
        })
    });
    ROUNDS as f64 / secs
}

/// Nanoseconds per `CostModel::message_time` between two sites.
pub fn message_time_ns(tr: &Tracer, alloc: &Allocation) -> f64 {
    let topo = &alloc.topology;
    let (a, b) = (topo.location(0), topo.location(topo.num_procs() - 1));
    1e9 * tr.span("netsim.message_time_probe", || {
        time_per_call(1_000_000, || {
            black_box(
                alloc
                    .network
                    .message_time(black_box(a), black_box(b), black_box(16_640)),
            );
        })
    })
}

/// Nanoseconds per `SharedLinks` join + rate + leave of a three-link flow.
pub fn sharedlinks_cycle_ns(tr: &Tracer) -> f64 {
    let links = [
        SharedLinks::key(0, 1),
        SharedLinks::key(0, 2),
        SharedLinks::key(1, 2),
    ];
    let mut shared = SharedLinks::default();
    shared.join(&links[..2]);
    1e9 * tr.span("netsim.sharedlinks_probe", || {
        time_per_call(200_000, || {
            shared.join(&links);
            black_box(shared.rate(&links));
            shared.leave(&links);
        })
    })
}

/// Microseconds per `qcg::allocate` of the four-site profile.
pub fn allocate_us(tr: &Tracer) -> f64 {
    let catalog = ResourceCatalog::grid5000();
    let profile = JobProfile::cluster_of_clusters(4, PROCS_PER_SITE);
    1e6 * tr.span("qcg.allocate_probe", || {
        time_per_call(200, || {
            black_box(allocate(&catalog, &profile).expect("fits"));
        })
    })
}

/// Microseconds per `SlotPool` allocate + release of a two-site job.
pub fn slotpool_cycle_us(tr: &Tracer) -> f64 {
    let mut pool = SlotPool::new(ResourceCatalog::grid5000());
    let profile = JobProfile::cluster_of_clusters(2, PROCS_PER_SITE);
    1e6 * tr.span("qcg.slotpool_probe", || {
        time_per_call(200, || {
            let alloc = pool
                .allocate(&profile)
                .expect("an idle pool fits two sites");
            pool.release(&alloc);
        })
    })
}

/// Microseconds per `DomainLayout::build` + grid `ReductionTree::build`
/// with one domain per process of `alloc`.
pub fn layout_tree_build_us(tr: &Tracer, alloc: &Allocation, m: u64, n: usize) -> f64 {
    1e6 * tr.span("core.layout_tree_probe", || {
        time_per_call(50, || {
            let layout = DomainLayout::build(&alloc.topology, m, n, PROCS_PER_SITE);
            let clusters = layout.clusters();
            black_box(ReductionTree::build(
                &TreeShape::GridHierarchical,
                layout.num_domains(),
                &clusters,
            ));
        })
    })
}

/// Microseconds per `predict_makespan` of the grid tree and milliseconds
/// per `candidate_shapes`, one domain per process of `alloc`.
pub fn predict_us_and_candidates_ms(
    tr: &Tracer,
    alloc: &Allocation,
    m: u64,
    n: usize,
    rates: (Option<f64>, Option<f64>),
) -> (f64, f64) {
    let (topo, model) = (&alloc.topology, &alloc.network);
    let layout = DomainLayout::build(topo, m, n, PROCS_PER_SITE);
    let tree = ReductionTree::build(
        &TreeShape::GridHierarchical,
        layout.num_domains(),
        &layout.clusters(),
    );
    let predict = tr.span("core.predict_probe", || {
        time_per_call(50, || {
            black_box(tune::predict_makespan(
                topo, model, &layout, &tree, rates.0, rates.1,
            ));
        })
    });
    let candidates = tr.span("core.candidates_probe", || {
        time_per_call(5, || {
            black_box(tune::candidate_shapes(
                topo, model, &layout, rates.0, rates.1,
            ));
        })
    });
    (1e6 * predict, 1e3 * candidates)
}

/// Microseconds per replica of the serving engine's private `job_model` on
/// one menu shape: `DomainLayout::build`, the grid `ReductionTree::build`
/// and one `predict_makespan` at the allocation's own rate — what every
/// dispatch of that shape rebuilds.
pub fn job_model_us(tr: &Tracer, shape: ShapeClass) -> f64 {
    let alloc = grid_allocation(shape.sites);
    let (topo, model) = (&alloc.topology, &alloc.network);
    let rate = Some(alloc.effective_gflops_per_proc * 1e9);
    1e6 * tr.span("core.job_model_probe", || {
        time_per_call(200, || {
            let layout = DomainLayout::build(topo, shape.rows, shape.cols, PROCS_PER_SITE);
            let tree = ReductionTree::build(
                &TreeShape::GridHierarchical,
                layout.num_domains(),
                &layout.clusters(),
            );
            black_box(tune::predict_makespan(
                topo, model, &layout, &tree, rate, rate,
            ));
        })
    })
}

/// Microseconds per EDF `select` + `remove` on a queue 10 000 deep (the
/// job goes back in, so the depth holds).
pub fn queue_select_us_10k(tr: &Tracer) -> f64 {
    const DEPTH: usize = 10_000;
    let mut queue = BoundedQueue::new(DEPTH);
    for id in 0..DEPTH {
        // Deadlines in a scrambled order, so the scan has to look.
        let deadline = ((id * 7919) % DEPTH) as f64;
        let job = QueuedJob {
            id,
            tenant: id % 4,
            shape: 0,
            rows: 1 << 19,
            cols: 64,
            sites: 1,
            arrival: VirtualTime::from_secs(id as f64),
            deadline: VirtualTime::from_secs(deadline),
            service_s: 1.0,
            attempts: 1,
            checkpoint: None,
            enqueued: VirtualTime::from_secs(id as f64),
        };
        queue.try_push(job).expect("capacity is the depth");
    }
    1e6 * tr.span("serve.queue_probe", || {
        time_per_call(300, || {
            let pos = queue
                .select(Policy::Edf, &[])
                .expect("the queue is never empty");
            let mut job = queue.remove(pos);
            job.deadline = VirtualTime::from_secs(job.deadline.secs() + DEPTH as f64);
            queue.try_push(job).expect("one slot was just freed");
        })
    })
}
