//! `tsqr-lint` — dependency-free static analysis for the grid-tsqr
//! workspace.
//!
//! This library backs two binaries (see `docs/static-analysis.md`):
//!
//! * **`archlint`** — the static analyzer, one load of the workspace and
//!   five passes over it: the direct determinism rules ([`direct`]:
//!   wall-clock reads, HashMap/HashSet iteration, wildcard receives),
//!   the crate-layering pass ([`layering`], spec in
//!   `scripts/layering.toml`), the nondeterminism-taint propagation
//!   pass ([`taint`], which names the deterministic crate an indirect
//!   `Instant::now` two calls away reaches), and the static
//!   message-flow/protocol model ([`flow`]: the tag table
//!   `scripts/commlint.protocol` against extracted call sites, golden
//!   in `scripts/archlint.model`), and the owners table ([`owners`]:
//!   one row per "one of X" the reproduction rests on, in
//!   `scripts/archlint.owners`).
//! * **`linkcheck`** — the markdown link/anchor gate for the docs.
//!
//! Everything is deliberately `syn`-free: the workspace builds offline
//! with no external dependencies, so the analyses are line-level token
//! scanners over comment/string-stripped sources ([`scan`]). They are
//! conservative where they must guess, and every accepted exception
//! lives either in the committed allowlist (`scripts/archlint.allow`,
//! with stale entries themselves denied) or in an in-source
//! `archlint: allow(taint)` annotation that carries its justification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod direct;
pub mod flow;
pub mod layering;
pub mod owners;
pub mod protocol;
pub mod scan;
pub mod taint;
pub mod workspace;
