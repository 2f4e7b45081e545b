//! `tsqr-serve`: a deterministic multi-tenant serving layer for TSQR
//! jobs on one grid.
//!
//! The paper factors **one** matrix over Grid'5000. A production grid is
//! shared: many tenants submit tall-and-skinny factorizations
//! concurrently, and the interesting systems questions move up a level —
//! who waits, who is rejected, how jobs contend for the wide-area links,
//! and when coalescing requests into one stacked TSQR pays. This crate
//! answers those questions with the same determinism discipline as the
//! rest of the workspace: virtual time only, seeded RNG only,
//! byte-identical replays.
//!
//! The pipeline:
//!
//! * [`workload`] — a seeded open-loop request generator (Poisson-like
//!   arrivals over a paper-flavored shape menu, calibrated in offered
//!   node-seconds).
//! * [`policy`] — bounded-queue admission with explicit rejection, and
//!   four dispatch disciplines: FIFO, SJF (sized by the analytic
//!   makespan oracle), EDF, and per-tenant fair share.
//! * [`engine`] — the contention-aware virtual-time executor: cluster
//!   slots leased through [`tsqr_qcg::SlotPool`], WAN transfers priced
//!   against shared per-link capacity
//!   ([`tsqr_netsim::occupancy::SharedLinks`]), optional batching of
//!   same-shape requests into one stacked TSQR, and scripted failures
//!   from a seeded [`tsqr_netsim::FailureSchedule`] (site crashes, WAN
//!   degradation windows, transient drain drops).
//! * [`recovery`] — what happens after a fault: bounded retry with
//!   exponential virtual backoff, checkpointed WAN drain vs full
//!   restart, and hysteretic brownout shedding.
//! * [`report`] — sojourn percentiles, throughput, SLO misses, fault and
//!   shed counts, link utilization and load sweeps, rendered
//!   byte-deterministically.
//!
//! See `docs/serving.md` for the model, its assumptions, and the
//! experiments the bench gate pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod engine;
pub mod policy;
pub mod recovery;
pub mod report;
pub mod workload;

pub use engine::{
    load_is_offerable, serve, shape_oracle, Disposition, RequestRecord, ServeConfig, ServeOutcome,
};
pub use policy::{BoundedQueue, Policy, QueuedJob};
pub use recovery::{BrownoutConfig, FaultKind, RecoveryAction, RetryPolicy};
pub use report::{load_sweep_table, timeline, PolicyReport};
pub use workload::menu;
