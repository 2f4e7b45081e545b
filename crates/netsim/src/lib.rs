//! Simulated grid substrate: topology, link classification, and the
//! communication/computation cost model of the paper's Eq. (1).
//!
//! The paper evaluates on Grid'5000 — four clusters (Bordeaux, Orsay,
//! Toulouse, Sophia) of 32 dual-processor nodes each, Gigabit Ethernet
//! inside a cluster and dedicated dark fiber between sites. We reproduce
//! that environment as data: a [`topology::GridTopology`] places every
//! process on a `(cluster, node, slot)` coordinate, and a
//! [`cost::CostModel`] prices every message with
//! `time = β + bytes·α` where `(β, α)` depend on the link class
//! (intra-node / intra-cluster / inter-cluster site pair), plus
//! `flops·γ` for local computation. The constants of the
//! [`grid5000`] preset are the measured values of the paper's Fig. 3(a)
//! and §V-A/§V-B.
//!
//! Virtual time ([`time::VirtualTime`]) is a plain `f64` of seconds carried
//! on every simulated message by the `tsqr-gridmpi` runtime; nothing in this
//! crate depends on wall-clock time, which is what makes the simulation
//! deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod desktop;
pub mod fault;
pub mod grid5000;
pub mod occupancy;
pub mod rng;
pub mod time;
pub mod topology;

pub use cost::{two_tier_grid, CostModel, LinkClass, LinkParams};
pub use fault::FailureSchedule;
pub use rng::SplitMix64;
pub use time::VirtualTime;
pub use topology::{ClusterSpec, GridTopology, ProcLocation};
