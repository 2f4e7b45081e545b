//! Dense linear-algebra substrate for the `grid-tsqr` workspace.
//!
//! This crate provides everything the distributed TSQR/CAQR algorithms need
//! from a LAPACK/BLAS-style library, written from scratch in safe Rust:
//!
//! * [`Matrix`] — an owned, column-major, `f64` dense matrix, plus borrowed
//!   [`View`]/[`ViewMut`] windows with an explicit leading dimension, so
//!   blocked algorithms can operate in place on panels and trailing
//!   sub-matrices without copying.
//! * BLAS-like kernels ([`blas`]): `dot`, `nrm2`, `axpy`, `gemv`, `ger`, a
//!   single-threaded `gemm` on two register-tiled micro-kernels, and the
//!   small triangular multiplies the compact-WY update needs.
//! * Householder QR ([`qr`]): the unblocked factorization `geqr2`, the
//!   blocked `geqrf` built on the compact-WY representation
//!   (`larft`/`larfb`, panels factored recursively), explicit-Q
//!   construction (`org2r`) and implicit-Q application (`orm2r`), both a
//!   block of reflectors at a time — the same algorithms LAPACK uses, which
//!   is what makes the numerical comparisons against the paper meaningful.
//! * Structured "stacked triangles" QR ([`stacked`]): the reduction operator
//!   at the heart of TSQR — the QR factorization of `[R1; R2]` where both
//!   blocks are upper triangular — implemented so it costs `~2/3·n³` flops
//!   instead of the `~10/3·n³` a dense factorization of the stack would pay.
//!   This is the flop/communication trade the paper analyses in Table I.
//! * Verification metrics ([`verify`]): scaled residuals, orthogonality
//!   measures and sign-normalization so factorizations from different
//!   reduction trees can be compared.
//! * Closed-form flop counts ([`flops`]) shared by the symbolic execution
//!   engine and the performance model of `tsqr-core`.
//!
//! # Conventions
//!
//! Matrices are column-major. Element `(i, j)` of a view with leading
//! dimension `ld` lives at `data[i + j*ld]`. Householder reflectors follow
//! the LAPACK convention `H = I − τ·v·vᵀ` with `v[0] = 1` stored implicitly.
//!
//! Dimension mismatches are programming errors and panic; fallible
//! construction from user data goes through the checked constructors on
//! [`Matrix`].

// Numerical kernels index with explicit loop counters on purpose: the
// triangular/banded access patterns (row `j`, columns `j+1..`) read more
// clearly as index arithmetic than as iterator chains.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blas;
pub mod cholesky;
pub mod eig;
pub mod flops;
pub mod householder;
pub mod matrix;
pub mod qr;
pub mod stacked;
pub mod tri;
pub mod verify;
pub mod view;

pub use matrix::Matrix;
pub use view::{View, ViewMut};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::cholesky::potrf_upper;
    pub use crate::matrix::Matrix;
    pub use crate::qr::{geqr2, geqrf, org2r, orm2r, QrFactors, Side, Trans};
    pub use crate::stacked::{tpmqrt, tpqrt, StackedFactors};
    pub use crate::tri::{trsm_right_upper, trsv, Triangle};
    pub use crate::verify::{orthogonality, relative_residual, sign_normalize_r};
    pub use crate::view::{View, ViewMut};
}
