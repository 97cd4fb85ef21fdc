//! # fm-core — the Functional Mechanism
//!
//! The primary contribution of *Functional Mechanism: Regression Analysis
//! under Differential Privacy* (Zhang, Zhang, Xiao, Yang, Winslett — PVLDB
//! 5(11), 2012), implemented in full:
//!
//! * [`estimator`] — the **generic estimator core**: one
//!   [`estimator::FmEstimator`] runs the shared fit pipeline (augment →
//!   Algorithm 1 → §6 post-processing → model wrapping) for every
//!   objective, degree-2 and general-degree alike; the dyn-compatible
//!   [`estimator::DpEstimator`] trait is the uniform face private
//!   estimators and `fm-baselines` comparators share, configured by one
//!   [`estimator::FitConfig`] instead of per-family builder clones.
//! * [`coefficients`] — the two coefficient types the pipeline is generic
//!   over ([`Coefficients`]: dense `QuadraticForm`, sparse `Polynomial`)
//!   and the one [`Objective`] trait whose two blanket impls hold
//!   everything that differs between them.
//! * [`session`] — one accounting core, [`session::SharedPrivacySession`]
//!   (integer-quanta admission, two-phase permits, optional WAL, one
//!   parallel-composition scope, one report path), and its single-owner
//!   face [`session::PrivacySession`], which debits every `fit` before it
//!   runs and reports the honest composed (ε, δ) for multi-fit workloads
//!   (CV repeats, ε-sweeps, model selection).
//! * [`assembly`] — the **batched coefficient-assembly hot path**: chunked
//!   map-reduce over the dataset's rows with blocked Gram kernels
//!   (`yᵀy` / `Xᵀy` / `XᵀX`) and a deterministic pairwise merge tree;
//!   data-parallel behind the `parallel` cargo feature with bit-identical
//!   results for every worker count.
//! * [`mechanism`] — **Algorithm 1**: express the objective function
//!   `f_D(ω) = Σ_i f(t_i, ω)` in its polynomial representation, compute the
//!   coefficient sensitivity `Δ` (Lemma 1), inject i.i.d. `Lap(Δ/ε)` noise
//!   into every coefficient (Theorem 1 ⇒ ε-DP), and hand back a
//!   [`mechanism::NoisyQuadratic`]. The noisy-coefficient object is a
//!   distinct *type* from the clean objective, so post-processing provably
//!   touches only already-private data.
//! * [`linreg`] — **Section 4.2**: ε-DP linear regression. The objective is
//!   exactly quadratic; sensitivity `Δ = 2(d+1)²`.
//! * [`logreg`] — **Section 5 / Algorithm 2**: ε-DP logistic regression via
//!   degree-2 Taylor truncation of the loss (constants `log 2, ½, ¼`);
//!   sensitivity `Δ = d²/4 + 3d`. The truncation error is bounded by a
//!   constant independent of the data (Lemmas 3–4). A Chebyshev surrogate
//!   ([`logreg::Approximation::Chebyshev`]) implements the §8-future-work
//!   alternative with ~8× lower worst-case approximation error.
//! * [`poisson`] — **§8 extension**: ε-DP Poisson (count) regression via the
//!   same Algorithm-2 pipeline applied to `f(t,ω) = exp(xᵀω) − y·xᵀω`,
//!   with the bounded-count contract `y ∈ [0, y_max]` and sensitivity
//!   `Δ = 2((1 + y_max)d + d²/2)`.
//! * [`robust`] — **robust regression objectives**: ε-DP median
//!   regression (smoothed pinball loss after Chen et al. 2020) and Huber
//!   regression as first-class [`estimator::RegressionObjective`]s with
//!   weighted Gram batch/columnar kernels; saturating influence functions
//!   make them resistant to label outliers where least squares is not.
//! * [`generic`] — **Algorithm 1 at arbitrary degree**: the literal
//!   Equation-2/3 mechanism over sparse polynomials, perturbing every
//!   monomial in `Φ_0 ∪ … ∪ Φ_J` (structural zeros included), with a
//!   worked quartic-loss objective showing the framework beyond degree 2.
//! * [`sparse`] — [`sparse::SparseFmEstimator`], the estimator over
//!   general-degree objectives: the same `FmEstimator` pipeline,
//!   `DpEstimator` surface, session accounting and persistence as the
//!   degree-2 families, over `Polynomial` coefficients.
//! * [`checkpoint`] and [`codec`] — the `fm-checkpoint v1` format for
//!   resumable streaming fits, written with the one framed-line codec
//!   `fm-federated`'s wire formats share.
//! * [`persist`] — a dependency-free, bit-exact text format for shipping
//!   released models (parameters + privacy metadata) out of the silo;
//!   post-processing keeps the guarantee intact.
//! * [`postprocess`] — **Section 6**: the noisy quadratic may be unbounded
//!   below. Remedies, all free of additional privacy cost:
//!   ridge **regularization** with `λ = 4·stddev(Lap(Δ/ε))` (§6.1),
//!   **spectral trimming** of non-positive eigenvalues (§6.2), and the
//!   **Lemma-5 resample** loop (implemented at `ε/2` per attempt so the
//!   advertised total budget is honoured).
//! * [`model`] — the released artefacts: [`model::LinearModel`] and
//!   [`model::LogisticModel`], plain parameter vectors with prediction
//!   helpers. Everything derivable from them is post-processing and stays
//!   ε-DP.
//!
//! ## Privacy argument, mapped to code
//!
//! | Paper | Code |
//! |-------|------|
//! | Lemma 1 (sensitivity of coefficient vector) | `mechanism::FunctionalMechanism::perturb` uses the per-objective `Δ` from [`linreg::sensitivity_paper`]-style fns; property tests in each module verify per-tuple coefficient L1 ≤ Δ/2 over the normalized domain |
//! | Theorem 1 (Algorithm 1 is ε-DP) | all data-dependent values flow through exactly one `LaplaceMechanism::privatize*` call |
//! | Theorem 2 (consistency) | integration test `convergence_theorem2` (facade `tests/`) |
//! | Lemma 5 (resampling costs 2ε) | `postprocess::Strategy::Resample` halves ε per attempt |
//!
//! ## Example
//!
//! ```
//! use fm_core::linreg::DpLinearRegression;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let data = fm_data::synth::linear_dataset(&mut rng, 5_000, 4, 0.05);
//!
//! let model = DpLinearRegression::builder()
//!     .epsilon(1.0)
//!     .build()
//!     .fit(&data, &mut rng)
//!     .unwrap();
//! assert_eq!(model.weights().len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assembly;
pub mod checkpoint;
pub mod codec;
pub mod coefficients;
pub mod estimator;
pub mod generic;
pub mod linreg;
pub mod logreg;
pub mod mechanism;
pub mod model;
pub mod persist;
pub mod poisson;
pub mod postprocess;
pub mod robust;
pub mod session;
pub mod sparse;

mod error;

pub use assembly::CoefficientAccumulator;
pub use coefficients::{Coefficients, Objective};
pub use error::FmError;
pub use estimator::{
    DpEstimator, EstimatorBuilder, Family, FamilyEstimator, FitConfig, FitProgress, FmEstimator,
    PartialFit, RegressionObjective,
};
pub use mechanism::{
    FunctionalMechanism, NoiseDistribution, NoisyQuadratic, PolynomialObjective, SensitivityBound,
};
pub use model::{Model, ModelKind, PersistableModel};
pub use postprocess::Strategy;
pub use robust::{
    DpHuberRegression, DpMedianRegression, DpQuantileRegression, HuberObjective, MedianObjective,
    QuantileObjective,
};
pub use session::PrivacySession;
pub use sparse::{SparseFmEstimator, SparseRegressionObjective};

/// Result alias for fallible functional-mechanism operations.
pub type Result<T> = std::result::Result<T, FmError>;
