//! Cross-run observability: the experiment ledger and its report.
//!
//! Single-run observability (metrics, traces, critical path, wait-state
//! diagnosis — see `docs/observability.md` §1–§8) answers "why was *this*
//! run slow?". This crate adds the longitudinal layer that answers "has
//! it *become* slow?":
//!
//! * [`json`] — the dependency-free JSON reader/writer shared by every
//!   machine-readable artifact in the repository (`BENCH_*.json`, the
//!   ledger). It used to live in `tsqr-bench`; it moved here so the
//!   bench gate and the ledger serialize through one implementation.
//! * [`ledger`] — an append-only, schema-versioned JSONL ledger
//!   (`ledger/runs.jsonl`, schema `grid-tsqr-ledger/v1`) recording every
//!   figure / tune / faults / serve / bench run: scenario, topology, tree shape,
//!   makespan, per-phase Eq. (1) ledgers, critical-path split, fitted
//!   model coefficients with per-phase residuals, and an environment
//!   fingerprint.
//! * [`report`] — renders the ledger as a markdown dashboard (per-scenario
//!   trend tables, critical-path attribution, hot phases) and runs
//!   model-based anomaly detection: an entry whose per-phase residual
//!   exceeds its scenario's blessed baseline by more than a threshold
//!   (default 5 %) is flagged, and `grid-tsqr report --check` exits
//!   nonzero on it.
//!
//! The crate is dependency-free (std only) on purpose: the ledger is
//! written from the bench harness, the CLI and CI scripts, none of which
//! should pull the simulation stack in just to serialize a record. The
//! full schema is documented in `docs/observability.md` §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod report;
