//! Topology-aware middleware: the QCG-OMPI / QosCosGrid analogue.
//!
//! In the paper (§II-D, §III) the application describes the topology it
//! wants in a **JobProfile** — process groups of equivalent computing
//! power, low-latency/high-bandwidth networking inside each group, weaker
//! connectivity tolerated between groups. The QosCosGrid **meta-scheduler**
//! then allocates physical resources matching the profile, and at run time
//! the application retrieves its **group identifiers** through an MPI
//! attribute and builds one communicator per group with `MPI_Comm_split`.
//!
//! This crate reproduces those three pieces:
//!
//! * [`profile::JobProfile`] — the requirements document;
//! * [`catalog::ResourceCatalog`] — what the grid offers (cluster specs +
//!   measured link performance, e.g. the Grid'5000 preset);
//! * [`scheduler::allocate`] — matches profile against catalog and returns
//!   an [`scheduler::Allocation`]: a concrete [`tsqr_netsim::GridTopology`]
//!   placement plus per-rank group identifiers, enforcing the paper's
//!   "equivalent computing power" constraint (throttling fast sites to the
//!   slowest member, the synchronous-algorithm convention of §V-A, and
//!   booking only part of a node's processors when needed, §III).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod profile;
pub mod scheduler;

pub use catalog::ResourceCatalog;
pub use profile::{JobProfile, NetworkRequirement};
pub use scheduler::{allocate, Allocation, Lease, SlotPool};
