//! Differential-privacy primitives for the `functional-mechanism` workspace.
//!
//! Implements, from scratch (the only dependency is `rand` for raw uniform
//! bits), the machinery that Section 3 of *Functional Mechanism: Regression
//! Analysis under Differential Privacy* (Zhang et al., VLDB 2012) builds on:
//!
//! * [`laplace::Laplace`] — the Laplace distribution `Lap(s)` with
//!   inverse-CDF sampling, used by Algorithm 1 to perturb polynomial
//!   coefficients with scale `Δ/ε`.
//! * [`mechanism::LaplaceMechanism`] — the classic Dwork et al. mechanism
//!   for vector-valued queries with known L1 sensitivity (Equation 1 of the
//!   paper); also used by the DPME and Filter-Priority baselines to noise
//!   histogram counts.
//! * [`mechanism::GaussianMechanism`] — the classical (ε, δ) Gaussian
//!   mechanism calibrated to L2 sensitivity, backing the relaxed-privacy
//!   variant of the functional mechanism (the paper's related work
//!   discusses (ε, δ)-DP; the `fm-bench` ablations measure what the
//!   relaxation buys).
//! * [`exponential::ExponentialMechanism`] — McSherry & Talwar's mechanism
//!   for discrete output spaces (cited in the paper's §2), used here for
//!   ε-DP model selection over hyper-parameter candidates.
//! * [`budget::PrivacyBudget`] — an ε accountant with sequential
//!   composition, used to implement (and test) Lemma 5's claim that
//!   "re-run until bounded" costs `2ε`. It counts in the integer ε quanta
//!   of [`budget::eps_to_units`] and [`budget::cap_to_units`], the one ε
//!   arithmetic every cap in the workspace admits with.
//! * [`gaussian`] — a Box–Muller standard-normal sampler backing both the
//!   Gaussian mechanism and the synthetic census generator in `fm-data`.
//!
//! # Determinism
//!
//! Every sampling function takes `&mut impl rand::Rng`; given a seeded RNG
//! the entire workspace is reproducible bit-for-bit. No global RNG state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod exponential;
pub mod gaussian;
pub mod laplace;
pub mod mechanism;
pub mod rdp;
pub mod wal;

mod error;

pub use error::PrivacyError;

/// Result alias for fallible privacy operations.
pub type Result<T> = std::result::Result<T, PrivacyError>;
