//! Dense linear algebra substrate for the `functional-mechanism` workspace.
//!
//! The Functional Mechanism (Zhang et al., VLDB 2012) reduces differentially
//! private regression to operations on small dense matrices: assembling
//! quadratic objective functions, solving symmetric linear systems
//! (Algorithm 1, line 8), and eigendecomposing noisy Hessians for the
//! spectral-trimming post-processing step (Section 6.2 of the paper).
//!
//! This crate implements everything those steps need, from scratch and
//! without `unsafe`:
//!
//! * [`Matrix`] — a row-major dense matrix with the usual arithmetic.
//! * [`vecops`] — free functions over `&[f64]` vectors (dot products, norms,
//!   BLAS-1 style updates).
//! * [`Lu`] — LU decomposition with partial pivoting; linear solves,
//!   determinants and inverses.
//! * [`Cholesky`] — Cholesky factorisation of symmetric positive definite
//!   matrices; the cheapest way to both solve normal equations and *test*
//!   positive definiteness.
//! * [`qr`] — Householder QR and least-squares solving.
//! * [`SymmetricEigen`] — the cyclic Jacobi eigenvalue algorithm for
//!   symmetric matrices, returning the full spectrum and an orthonormal
//!   eigenbasis.
//! * [`TridiagonalEigen`] — Householder tridiagonalization + implicit-QL,
//!   the `O(d³)`-total eigensolver for dimensions beyond the paper's
//!   `d ≤ 14` regime (same API as the Jacobi engine).
//!
//! Dimensions in this workspace are tiny (the paper's experiments top out at
//! `d = 14`), so the implementations favour clarity and numerical robustness
//! over blocking/SIMD tricks; all are `O(n^3)` classics with partial
//! pivoting where appropriate.
//!
//! # Example
//!
//! ```
//! use fm_linalg::{Matrix, Cholesky};
//!
//! // Solve the SPD system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
//! let chol = Cholesky::new(&a).unwrap();
//! let x = chol.solve(&[2.0, 1.0]).unwrap();
//! let ax = a.matvec(&x).unwrap();
//! assert!((ax[0] - 2.0).abs() < 1e-12 && (ax[1] - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cholesky;
mod eigen;
mod error;
mod lu;
mod matrix;
pub mod qr;
mod tridiagonal;
pub mod vecops;

pub use cholesky::{is_positive_definite, Cholesky};
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use tridiagonal::TridiagonalEigen;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
