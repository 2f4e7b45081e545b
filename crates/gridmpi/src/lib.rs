//! An MPI-like message-passing runtime with deterministic virtual time and
//! per-link-class traffic accounting.
//!
//! This crate plays the role Open MPI / QCG-OMPI plays in the paper: rank
//! programs written against [`Process`] (point-to-point `send`/`recv`) and
//! [`Communicator`] (tree collectives, `split`) execute with *real data
//! movement* between ranks — each on its own OS thread
//! ([`Runtime::run`], for ranks that compute on real matrices) or all of
//! them as futures on the calling thread ([`Runtime::run_cooperative`],
//! for symbolic runs) — while every message and every kernel call
//! advances a per-rank **virtual clock** priced by the
//! [`tsqr_netsim::CostModel`]:
//!
//! * a blocking send from `a` to `b` of `v` bytes completes at
//!   `clock_a + β(a,b) + α(a,b)·v` and the message carries that timestamp;
//! * a receive sets `clock_b := max(clock_b, arrival)`;
//! * `compute(flops)` adds `flops·γ`.
//!
//! Because every rank program is deterministic and receives name their
//! source, the resulting clocks are reproducible regardless of the real
//! thread schedule, and the same to the bit from both drivers — the
//! simulation is a conservative parallel discrete-event simulation in
//! disguise. The **makespan** (max final
//! clock) is the quantity the paper's Eq. (1) models, and the per-rank
//! message/byte counters (classified intra-node / intra-cluster /
//! inter-cluster) are what Tables I–II and Figs. 1–2 count.
//!
//! The runtime also supports deterministic link-failure injection
//! ([`Runtime::fail_link`]) so error-propagation paths can be tested.
//!
//! ## Observability
//!
//! Documented end-to-end in `docs/observability.md`:
//!
//! * **Metrics** ([`metrics`]) — always-on per-rank, per-phase counters
//!   (messages/bytes per link class, flops, time split) returned in
//!   [`RunReport::metrics`]. Rank programs declare phases with
//!   [`Process::phase_begin`] / [`Process::phase_end`].
//! * **Tracing** ([`trace`]) — opt-in ([`Runtime::enable_tracing`])
//!   per-event records with virtual-time spans, exportable as
//!   Chrome-trace/Perfetto JSON ([`chrome`]).
//! * **Profiler** ([`profile`]) — folded-stack (flamegraph) export of a
//!   trace, with an exact per-rank tiling invariant: leaf self-times sum
//!   to the rank's makespan.
//! * **Critical path** ([`critical`]) — the longest chain through the
//!   traced happens-before DAG; its total equals the makespan by
//!   construction, which every traced bench run asserts.
//! * **Diagnostics** ([`diagnose`]) — Scalasca-style wait-state
//!   classification of every blocked second (reconciled against the
//!   metrics registry), per-link-class utilization timelines and a
//!   rank×rank communication matrix; surfaced as `grid-tsqr analyze`.
//! * **Happens-before** ([`hb`]) — the trace is the only causal record a
//!   run keeps: messages carry no logical clock, and the analyzer derives
//!   vector clocks from the trace's program-order and message edges
//!   (receive races, deadlock cycles; `docs/static-analysis.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod comm;
pub mod critical;
pub mod diagnose;
pub mod error;
pub mod explore;
mod fold;
pub mod hb;
mod mailbox;
pub mod message;
pub mod metrics;
pub mod process;
pub mod profile;
pub mod runtime;
pub mod trace;

pub use comm::Communicator;
pub use critical::{CriticalPath, PathSummary};
pub use diagnose::Diagnosis;
pub use error::CommError;
pub use explore::{explore, fnv1a, schedules_for, ExploreReport};
pub use hb::{HbReport, VectorClock};
pub use mailbox::block_on;
pub use message::WirePayload;
pub use metrics::MetricsRegistry;
pub use process::{Process, RankStats, TrafficCounters};
pub use profile::FoldedProfile;
pub use runtime::{RunReport, Runtime};
pub use trace::{EventKind, FaultKind, Trace};
