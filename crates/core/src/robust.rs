//! ε-differentially private **robust regression**: median (smoothed
//! pinball/check loss, after Chen et al. 2020, "Median regression with
//! differential privacy") and **Huber** regression, both as first-class
//! [`RegressionObjective`]s on the generic
//! [`crate::estimator::FmEstimator`] core.
//!
//! ## The §5 scheme for residual losses
//!
//! Both losses have the residual form `f(t, ω) = ρ(y − xᵀω)` with a scalar
//! loss `ρ`. Writing `v = xᵀω` (linear in ω, Equation 6's shape) and
//! Taylor-expanding `v ↦ ρ(y − v)` at `v = 0` — the same centre as the
//! paper's logistic expansion — gives the per-tuple degree-2 contribution
//!
//! ```text
//! ρ(y − v) ≈ ρ(y) − ρ'(y)·v + ½ρ''(y)·v²
//!          = ρ(y)  +  [−ρ'(y)·x]ᵀω  +  ωᵀ[½ρ''(y)·xxᵀ]ω .
//! ```
//!
//! Unlike logistic regression — where the expansion constants are the same
//! for every tuple — the derivative values here depend on the tuple's
//! label, so the batched kernels are *weighted* Gram products:
//! `α += Xᵀw₁` with `w₁ᵢ = −ρ'(yᵢ)` and `M += ½·Xᵀdiag(w₂)X` with
//! `w₂ᵢ = ρ''(yᵢ)` (`fm_linalg`'s `gemv_t_acc` / `syrk_weighted_acc`, plus
//! bit-identical columnar twins reading the cached `Dataset::columnar()`
//! transpose).
//!
//! ## Why this is robust
//!
//! The linear pull `|ρ'(y)|` **saturates** for both losses (at 1 for the
//! smoothed median loss, at δ for Huber) where squared error's grows
//! linearly in the residual, and the curvature weight `ρ''(y)` *vanishes*
//! for extreme labels — an outlier tuple contributes a bounded tug and
//! almost no say in the Gram matrix. The regression-utility tests pin the
//! consequence: under injected label outliers the private median fit beats
//! private least squares at equal ε.
//!
//! ## Sensitivities (Lemma-1 contract)
//!
//! Algorithm 1 perturbs and releases **every** coefficient of the
//! truncated objective — the degree-0 term `β = Σρ(yᵢ)` included — so Δ
//! must cover the constant. With `ρ_max = max_{|y|≤1} ρ(y)`,
//! `c₁ = max_{|y|≤1} |ρ'(y)|` and `c₂ = max_{|y|≤1} ρ''(y)`, the full
//! per-tuple coefficient L1 norm is at most
//! `ρ_max + c₁·Σ|x_j| + ½c₂·(Σ|x_j|)²`, so
//! `Δ = 2(ρ_max + c₁·S + ½c₂·S²)` with `S = d` (paper-style) or `√d`
//! (Cauchy–Schwarz) — the `ρ_max` term mirrors linear regression's `+1`
//! for its `y²` constant. Both are `O(1)` in the data — the paper's
//! headline property — and the property tests machine-check the contract
//! (constant included) on random in-domain tuples. For the L2
//! (Gaussian-variant) sensitivity the per-tuple blocks are bounded
//! through `‖x‖₂ ≤ 1` directly, giving the dimension-independent
//! `Δ₂ = 2√(ρ_max² + c₁² + ¼c₂²)`.

use fm_data::Dataset;
use fm_poly::taylor::{
    huber_derivs, pseudo_huber_derivs, pseudo_huber_third_derivative_bound, smoothed_pinball_derivs,
};
use fm_poly::QuadraticForm;

use crate::estimator::{EstimatorBuilder, Family, FamilyEstimator, RegressionObjective};
use crate::mechanism::{PolynomialObjective, SensitivityBound};
use crate::model::LinearModel;
use crate::{FmError, Result};

/// Default pinball smoothing half-width γ for [`MedianObjective`]: sharp
/// enough that the surrogate's linear pull saturates well inside the label
/// range (`|ρ'| > 0.97` at `|y| = 1`), wide enough that the curvature
/// bound `1/γ = 4` keeps the sensitivity within a small factor of linear
/// regression's.
pub const DEFAULT_SMOOTHING: f64 = 0.25;

/// Default Huber threshold δ for [`HuberObjective`]: residuals beyond half
/// the label range get linear (bounded-influence) treatment.
pub const DEFAULT_HUBER_DELTA: f64 = 0.5;

/// The paper-style L1 sensitivity shared by every residual loss with
/// value bound `ρ_max` and derivative bounds `(c₁, c₂)`:
/// `Δ = 2(ρ_max + c₁·S + ½c₂·S²)`, `S` as per the bound choice (see the
/// module docs). The `ρ_max` term covers the released degree-0
/// coefficient `β = Σρ(yᵢ)`, which changes by up to `ρ_max` under a
/// one-tuple replacement.
fn residual_sensitivity(d: usize, bound: SensitivityBound, rho_max: f64, c1: f64, c2: f64) -> f64 {
    let s = match bound {
        SensitivityBound::Paper => d as f64,
        SensitivityBound::Tight => (d as f64).sqrt(),
    };
    2.0 * (rho_max + c1 * s + 0.5 * c2 * s * s)
}

/// The dimension-independent L2 sensitivity of a residual loss with value
/// bound `ρ_max` and derivative bounds `(c₁, c₂)` on the label range.
fn residual_sensitivity_l2(rho_max: f64, c1: f64, c2: f64) -> f64 {
    2.0 * (rho_max * rho_max + c1 * c1 + 0.25 * c2 * c2).sqrt()
}

/// Shared batched accumulation for residual losses: one pass computing the
/// per-row expansion weights in row order, then the three Gram kernels.
/// The columnar twin below computes the weights from the *same* slice in
/// the *same* order and calls the bit-identical columnar kernels, so the
/// two layouts can never disagree.
fn accumulate_residual_batch(
    derivs: impl Fn(f64) -> [f64; 3],
    xs: &[f64],
    ys: &[f64],
    d: usize,
    q: &mut QuadraticForm,
) {
    debug_assert_eq!(xs.len(), ys.len() * d, "residual batch: shape mismatch");
    let (beta, w1, w2) = residual_weights(derivs, ys);
    *q.beta_mut() += beta;
    fm_linalg::vecops::gemv_t_acc(1.0, xs, d, &w1, q.alpha_mut());
    q.m_mut()
        .syrk_weighted_acc(0.5, xs, d, &w2)
        .expect("dataset row arity matches objective dimension");
}

/// Columnar counterpart of [`accumulate_residual_batch`] over tuples
/// `[lo, hi)` of the cached transpose.
fn accumulate_residual_cols(
    derivs: impl Fn(f64) -> [f64; 3],
    xt: &fm_linalg::Matrix,
    ys: &[f64],
    lo: usize,
    hi: usize,
    q: &mut QuadraticForm,
) {
    debug_assert_eq!(xt.rows(), q.dim(), "residual columnar: arity");
    debug_assert!(lo <= hi && hi <= ys.len() && ys.len() == xt.cols());
    let (beta, w1, w2) = residual_weights(derivs, &ys[lo..hi]);
    *q.beta_mut() += beta;
    for (j, out) in q.alpha_mut().iter_mut().enumerate() {
        fm_linalg::vecops::dot_blocked_acc(1.0, &xt.row(j)[lo..hi], &w1, out);
    }
    q.m_mut()
        .syrk_weighted_cols_acc(0.5, xt, lo, hi, &w2)
        .expect("columnar view arity matches objective dimension");
}

/// The per-tuple expansion of `v ↦ ρ(y − v)` at `v = 0` accumulated
/// directly: `β += ρ(y)`, `α += −ρ'(y)·x`, `M += ½ρ''(y)·xxᵀ` — the
/// scalar reference the batched kernels above are tested against. (Not
/// routed through [`fm_poly::taylor::TaylorComponent`]: its
/// `third_deriv_range` field contracts a finite `f'''` bound, which the
/// Huber loss — `C¹`, curvature jumps at the knots — does not have;
/// the truncation-error story lives on the objectives instead.)
fn accumulate_residual_tuple([f0, f1, f2]: [f64; 3], x: &[f64], q: &mut QuadraticForm) {
    *q.beta_mut() += f0;
    fm_linalg::vecops::axpy(-f1, x, q.alpha_mut());
    if f2 != 0.0 {
        q.m_mut()
            .rank1_update(0.5 * f2, x)
            .expect("dataset row arity matches objective dimension");
    }
}

/// The per-row expansion weights `(Σρ(yᵢ), w₁ = −ρ'(yᵢ), w₂ = ρ''(yᵢ))`,
/// accumulated strictly in row order (one shared implementation so the
/// row-major and columnar paths sum β with identical grouping).
fn residual_weights(derivs: impl Fn(f64) -> [f64; 3], ys: &[f64]) -> (f64, Vec<f64>, Vec<f64>) {
    let mut beta = 0.0;
    let mut w1 = Vec::with_capacity(ys.len());
    let mut w2 = Vec::with_capacity(ys.len());
    for &y in ys {
        let [f0, f1, f2] = derivs(y);
        beta += f0;
        w1.push(-f1);
        w2.push(f2);
    }
    (beta, w1, w2)
}

// ------------------------------------------------------------------ median

/// The smoothed-median (pseudo-Huber check loss) objective in
/// Algorithm-1 form: `ρ_γ(u) = √(u² + γ²) − γ`, the standard smoothing of
/// the median-regression loss `|u|` (τ = ½ pinball), Taylor-truncated per
/// the module docs.
#[derive(Debug, Clone, Copy)]
pub struct MedianObjective {
    gamma: f64,
    /// `max ρ` on the label range (= `√(1+γ²) − γ`, attained at `|y|=1`).
    rho_max: f64,
    /// `max |ρ'|` on the label range (= `1/√(1+γ²)`, attained at `|y|=1`).
    c1: f64,
    /// `max ρ''` on the label range (= `1/γ`, attained at `y = 0`).
    c2: f64,
}

impl MedianObjective {
    /// A smoothed-median objective with smoothing half-width `gamma`.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a non-finite or non-positive γ.
    pub fn new(gamma: f64) -> Result<Self> {
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "gamma",
                reason: format!("{gamma} must be finite and > 0"),
            });
        }
        Ok(MedianObjective {
            gamma,
            rho_max: (1.0 + gamma * gamma).sqrt() - gamma,
            c1: 1.0 / (1.0 + gamma * gamma).sqrt(),
            c2: 1.0 / gamma,
        })
    }

    /// The configured smoothing half-width γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The scalar loss's value and first two derivatives at residual `u`.
    #[must_use]
    pub fn derivs(&self, u: f64) -> [f64; 3] {
        pseudo_huber_derivs(u, self.gamma)
    }

    /// Data-independent per-tuple truncation-remainder bound (the Lemma-4
    /// analogue): `max|ρ'''|/6` over the `|xᵀω| ≤ 1` window, `O(1/γ²)`.
    #[must_use]
    pub fn remainder_bound(&self) -> f64 {
        pseudo_huber_third_derivative_bound(self.gamma) / 6.0
    }
}

impl PolynomialObjective for MedianObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        accumulate_residual_tuple(self.derivs(y), x, q);
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        accumulate_residual_batch(|y| self.derivs(y), xs, ys, d, q);
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    fn accumulate_batch_columnar(
        &self,
        xt: &fm_linalg::Matrix,
        ys: &[f64],
        lo: usize,
        hi: usize,
        q: &mut QuadraticForm,
    ) {
        accumulate_residual_cols(|y| self.derivs(y), xt, ys, lo, hi, q);
    }

    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64 {
        residual_sensitivity(d, bound, self.rho_max, self.c1, self.c2)
    }

    fn sensitivity_l2(&self, _d: usize) -> f64 {
        residual_sensitivity_l2(self.rho_max, self.c1, self.c2)
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
    }
}

impl RegressionObjective for MedianObjective {
    type Model = LinearModel;
}

// ---------------------------------------------------------------- quantile

/// The smoothed-pinball **quantile** objective at general `τ ∈ (0, 1)` in
/// Algorithm-1 form — the generalization of [`MedianObjective`] (τ = ½)
/// to arbitrary conditional quantiles:
///
/// ```text
/// ρ_τγ(u) = (2τ − 1)·u + √(u² + γ²) − γ
/// ```
///
/// twice the γ-smoothed check loss `u·(τ − 1[u<0])` (see
/// [`smoothed_pinball_derivs`]; the factor 2 makes τ = ½ coincide with
/// the median loss exactly, smoothing constant included). Taylor
/// truncation, weighted Gram kernels and the §5 residual scheme are all
/// shared with the other residual losses.
///
/// ## Sensitivity (Lemma-1 contract, asymmetric slopes)
///
/// The added `(2τ−1)·u` term is linear in the residual, so only the value
/// and slope bounds change relative to the median:
/// `ρ_max = |2τ−1| + √(1+γ²) − γ`, `c₁ = |2τ−1| + 1/√(1+γ²)` — the
/// asymmetric-slope bound: the loss pulls with slope approaching `2τ` on
/// one side and `2(τ−1)` on the other, and `c₁` is the larger magnitude —
/// while the curvature bound `c₂ = 1/γ` is τ-independent. The usual
/// `Δ = 2(ρ_max + c₁·S + ½c₂·S²)` and dimension-independent
/// `Δ₂ = 2√(ρ_max² + c₁² + ¼c₂²)` follow; the proptest suite
/// machine-checks both on random in-domain tuples across τ.
#[derive(Debug, Clone, Copy)]
pub struct QuantileObjective {
    tau: f64,
    gamma: f64,
    /// `max |ρ|` on the label range (= `|2τ−1| + √(1+γ²) − γ`).
    rho_max: f64,
    /// `max |ρ'|` on the label range (= `|2τ−1| + 1/√(1+γ²)`).
    c1: f64,
    /// `max ρ''` on the label range (= `1/γ`, τ-independent).
    c2: f64,
}

impl QuantileObjective {
    /// A smoothed-pinball objective at quantile level `tau` with smoothing
    /// half-width `gamma`.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] unless `τ ∈ (0, 1)` and γ is finite
    /// and positive.
    pub fn new(tau: f64, gamma: f64) -> Result<Self> {
        if !tau.is_finite() || tau <= 0.0 || tau >= 1.0 {
            return Err(FmError::InvalidConfig {
                name: "tau",
                reason: format!("{tau} must be in (0, 1)"),
            });
        }
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "gamma",
                reason: format!("{gamma} must be finite and > 0"),
            });
        }
        let slope = (2.0 * tau - 1.0).abs();
        Ok(QuantileObjective {
            tau,
            gamma,
            rho_max: slope + (1.0 + gamma * gamma).sqrt() - gamma,
            c1: slope + 1.0 / (1.0 + gamma * gamma).sqrt(),
            c2: 1.0 / gamma,
        })
    }

    /// The configured quantile level τ.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The configured smoothing half-width γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The scalar loss's value and first two derivatives at residual `u`.
    #[must_use]
    pub fn derivs(&self, u: f64) -> [f64; 3] {
        smoothed_pinball_derivs(u, self.tau, self.gamma)
    }

    /// Data-independent per-tuple truncation-remainder bound: the
    /// `(2τ−1)·u` term is linear (zero remainder), so the bound is the
    /// median loss's `O(1/γ²)` constant unchanged.
    #[must_use]
    pub fn remainder_bound(&self) -> f64 {
        pseudo_huber_third_derivative_bound(self.gamma) / 6.0
    }
}

impl PolynomialObjective for QuantileObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        accumulate_residual_tuple(self.derivs(y), x, q);
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        accumulate_residual_batch(|y| self.derivs(y), xs, ys, d, q);
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    fn accumulate_batch_columnar(
        &self,
        xt: &fm_linalg::Matrix,
        ys: &[f64],
        lo: usize,
        hi: usize,
        q: &mut QuadraticForm,
    ) {
        accumulate_residual_cols(|y| self.derivs(y), xt, ys, lo, hi, q);
    }

    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64 {
        residual_sensitivity(d, bound, self.rho_max, self.c1, self.c2)
    }

    fn sensitivity_l2(&self, _d: usize) -> f64 {
        residual_sensitivity_l2(self.rho_max, self.c1, self.c2)
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
    }
}

impl RegressionObjective for QuantileObjective {
    type Model = LinearModel;
}

// ------------------------------------------------------------------- huber

/// The Huber objective in Algorithm-1 form: `ρ_δ(u) = u²/2` inside
/// `|u| ≤ δ`, linear with slope δ outside, Taylor-truncated per the module
/// docs. At `δ ≥ 1` every in-contract label sits in the quadratic region
/// and the surrogate coincides with (half) least squares; robustness comes
/// from `δ < 1`, where extreme labels get the bounded linear treatment.
#[derive(Debug, Clone, Copy)]
pub struct HuberObjective {
    delta: f64,
    /// `max ρ` on the label range: `½` for δ ≥ 1, else `δ(1 − δ/2)`.
    rho_max: f64,
    /// `max |ρ'|` on the label range: `min(1, δ)`.
    c1: f64,
}

impl HuberObjective {
    /// A Huber objective with threshold `delta`.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a non-finite or non-positive δ.
    pub fn new(delta: f64) -> Result<Self> {
        if !delta.is_finite() || delta <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "delta",
                reason: format!("{delta} must be finite and > 0"),
            });
        }
        Ok(HuberObjective {
            delta,
            rho_max: if delta >= 1.0 {
                0.5
            } else {
                delta * (1.0 - 0.5 * delta)
            },
            c1: delta.min(1.0),
        })
    }

    /// The configured threshold δ.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The scalar loss's value and first two derivatives at residual `u`.
    #[must_use]
    pub fn derivs(&self, u: f64) -> [f64; 3] {
        huber_derivs(u, self.delta)
    }
}

impl PolynomialObjective for HuberObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        accumulate_residual_tuple(self.derivs(y), x, q);
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        accumulate_residual_batch(|y| self.derivs(y), xs, ys, d, q);
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    fn accumulate_batch_columnar(
        &self,
        xt: &fm_linalg::Matrix,
        ys: &[f64],
        lo: usize,
        hi: usize,
        q: &mut QuadraticForm,
    ) {
        accumulate_residual_cols(|y| self.derivs(y), xt, ys, lo, hi, q);
    }

    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64 {
        residual_sensitivity(d, bound, self.rho_max, self.c1, 1.0)
    }

    fn sensitivity_l2(&self, _d: usize) -> f64 {
        residual_sensitivity_l2(self.rho_max, self.c1, 1.0)
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
    }
}

impl RegressionObjective for HuberObjective {
    type Model = LinearModel;
}

// -------------------------------------------------- estimator front-ends

/// The median-specific builder knob: the smoothing half-width.
#[derive(Debug, Clone, Copy)]
pub struct MedianSettings {
    smoothing: f64,
}

impl Default for MedianSettings {
    fn default() -> Self {
        MedianSettings {
            smoothing: DEFAULT_SMOOTHING,
        }
    }
}

impl Family for MedianSettings {
    type Objective = MedianObjective;

    fn objective(&self) -> Result<MedianObjective> {
        MedianObjective::new(self.smoothing)
    }
}

/// Builder for [`DpMedianRegression`]: the shared [`EstimatorBuilder`]
/// knobs plus the smoothing half-width.
pub type DpMedianRegressionBuilder = EstimatorBuilder<MedianSettings>;

impl DpMedianRegressionBuilder {
    /// Sets the pinball smoothing half-width γ (default
    /// [`DEFAULT_SMOOTHING`]). Smaller γ tracks the true median loss more
    /// closely but scales the curvature term of Δ as `1/γ`.
    #[must_use]
    pub fn smoothing(mut self, gamma: f64) -> Self {
        self.family.smoothing = gamma;
        self
    }
}

/// ε-differentially private **median regression** via the Functional
/// Mechanism: the generic [`FamilyEstimator`] over [`MedianSettings`],
/// which builds a [`MedianObjective`] from the configured smoothing at fit
/// time (a bad γ is refused there). Data must satisfy `‖x‖₂ ≤ 1`,
/// `y ∈ [−1, 1]`.
///
/// ```
/// use fm_core::robust::DpMedianRegression;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(21);
/// let data = fm_data::synth::linear_dataset(&mut rng, 20_000, 3, 0.1);
/// let model = DpMedianRegression::builder()
///     .epsilon(1.0)
///     .build()
///     .fit(&data, &mut rng)
///     .unwrap();
/// assert_eq!(model.dim(), 3);
/// ```
pub type DpMedianRegression = FamilyEstimator<MedianSettings>;

impl DpMedianRegression {
    /// The configured smoothing half-width.
    #[must_use]
    pub fn smoothing(&self) -> f64 {
        self.family.smoothing
    }

    /// Fits the *exact* (non-truncated, non-private) smoothed-median loss
    /// `Σᵢ ρ_γ(yᵢ − xᵢᵀω)` by gradient descent — the reference the
    /// robustness tests compare the surrogate against.
    ///
    /// # Errors
    /// [`FmError::Data`] on contract violation, [`FmError::Optim`] on
    /// solver breakdown.
    pub fn fit_exact_without_privacy(&self, data: &Dataset) -> Result<LinearModel> {
        let objective = self.family.objective()?;
        fit_exact_residual(data, self.config.fit_intercept, |u| objective.derivs(u))
    }
}

/// The quantile-specific builder knobs: the level τ and the smoothing
/// half-width.
#[derive(Debug, Clone, Copy)]
pub struct QuantileSettings {
    tau: f64,
    smoothing: f64,
}

impl Default for QuantileSettings {
    fn default() -> Self {
        QuantileSettings {
            tau: 0.5,
            smoothing: DEFAULT_SMOOTHING,
        }
    }
}

impl Family for QuantileSettings {
    type Objective = QuantileObjective;

    fn objective(&self) -> Result<QuantileObjective> {
        QuantileObjective::new(self.tau, self.smoothing)
    }
}

/// Builder for [`DpQuantileRegression`]: the shared [`EstimatorBuilder`]
/// knobs plus τ and the smoothing half-width.
pub type DpQuantileRegressionBuilder = EstimatorBuilder<QuantileSettings>;

impl DpQuantileRegressionBuilder {
    /// Sets the quantile level τ ∈ (0, 1) (default ½, the median).
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.family.tau = tau;
        self
    }

    /// Sets the pinball smoothing half-width γ (default
    /// [`DEFAULT_SMOOTHING`]); same trade-off as for the median.
    #[must_use]
    pub fn smoothing(mut self, gamma: f64) -> Self {
        self.family.smoothing = gamma;
        self
    }
}

/// ε-differentially private **quantile regression** at general τ via the
/// Functional Mechanism — the τ-generalization of [`DpMedianRegression`]:
/// the generic [`FamilyEstimator`] over [`QuantileSettings`], which builds
/// a [`QuantileObjective`] at fit time (a bad τ or γ is refused there). At
/// τ = ½ it releases exactly what the median estimator releases (same
/// loss, same sensitivity, same noise stream).
///
/// ```
/// use fm_core::robust::DpQuantileRegression;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(23);
/// let data = fm_data::synth::linear_dataset(&mut rng, 20_000, 2, 0.1);
/// let model = DpQuantileRegression::builder()
///     .epsilon(1.0)
///     .tau(0.9)
///     .build()
///     .fit(&data, &mut rng)
///     .unwrap();
/// assert_eq!(model.dim(), 2);
/// ```
pub type DpQuantileRegression = FamilyEstimator<QuantileSettings>;

impl DpQuantileRegression {
    /// The configured quantile level.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.family.tau
    }

    /// The configured smoothing half-width.
    #[must_use]
    pub fn smoothing(&self) -> f64 {
        self.family.smoothing
    }

    /// Fits the *exact* (non-truncated, non-private) smoothed-pinball loss
    /// by gradient descent — the reference the asymmetry tests compare
    /// the surrogate against.
    ///
    /// # Errors
    /// [`FmError::Data`] on contract violation, [`FmError::Optim`] on
    /// solver breakdown.
    pub fn fit_exact_without_privacy(&self, data: &Dataset) -> Result<LinearModel> {
        let objective = self.family.objective()?;
        fit_exact_residual(data, self.config.fit_intercept, |u| objective.derivs(u))
    }
}

/// The Huber-specific builder knob: the threshold δ.
#[derive(Debug, Clone, Copy)]
pub struct HuberSettings {
    threshold: f64,
}

impl Default for HuberSettings {
    fn default() -> Self {
        HuberSettings {
            threshold: DEFAULT_HUBER_DELTA,
        }
    }
}

impl Family for HuberSettings {
    type Objective = HuberObjective;

    fn objective(&self) -> Result<HuberObjective> {
        HuberObjective::new(self.threshold)
    }
}

/// Builder for [`DpHuberRegression`]: the shared [`EstimatorBuilder`]
/// knobs plus the Huber threshold.
pub type DpHuberRegressionBuilder = EstimatorBuilder<HuberSettings>;

impl DpHuberRegressionBuilder {
    /// Sets the Huber threshold δ (default [`DEFAULT_HUBER_DELTA`]).
    /// Residuals beyond δ get linear, bounded-influence treatment; δ ≥ 1
    /// degenerates to (half) least squares on the normalized label range.
    #[must_use]
    pub fn threshold(mut self, delta: f64) -> Self {
        self.family.threshold = delta;
        self
    }
}

/// ε-differentially private **Huber regression** via the Functional
/// Mechanism — the same shape as [`DpMedianRegression`]: the generic
/// [`FamilyEstimator`] over [`HuberSettings`], which builds a
/// [`HuberObjective`] at fit time (a bad δ is refused there).
///
/// ```
/// use fm_core::robust::DpHuberRegression;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(22);
/// let data = fm_data::synth::linear_dataset(&mut rng, 20_000, 2, 0.1);
/// let model = DpHuberRegression::builder()
///     .epsilon(1.0)
///     .threshold(0.4)
///     .build()
///     .fit(&data, &mut rng)
///     .unwrap();
/// assert_eq!(model.dim(), 2);
/// ```
pub type DpHuberRegression = FamilyEstimator<HuberSettings>;

impl DpHuberRegression {
    /// The configured Huber threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.family.threshold
    }

    /// Fits the *exact* (non-truncated, non-private) Huber loss by
    /// gradient descent.
    ///
    /// # Errors
    /// [`FmError::Data`] on contract violation, [`FmError::Optim`] on
    /// solver breakdown.
    pub fn fit_exact_without_privacy(&self, data: &Dataset) -> Result<LinearModel> {
        let objective = self.family.objective()?;
        fit_exact_residual(data, self.config.fit_intercept, |u| objective.derivs(u))
    }
}

/// The shared `fit_exact_*` pipeline: validate the contract, honour the
/// footnote-2 intercept augmentation exactly as the private fit path does,
/// minimise the exact residual loss, and wrap/split the weights — so the
/// non-private reference is comparable to `fit()` under every
/// [`crate::estimator::FitConfig`], intercept included.
fn fit_exact_residual(
    data: &Dataset,
    fit_intercept: bool,
    derivs: impl Fn(f64) -> [f64; 3] + Copy,
) -> Result<LinearModel> {
    data.check_normalized_linear().map_err(FmError::Data)?;
    let aug;
    let work: &Dataset = if fit_intercept {
        aug = data.augment_for_intercept();
        &aug
    } else {
        data
    };
    let omega_raw = minimize_residual_loss(work, derivs)?;
    if fit_intercept {
        let (omega, b) = crate::model::split_augmented_weights(omega_raw);
        Ok(LinearModel::with_intercept(omega, b, None))
    } else {
        Ok(LinearModel::new(omega_raw, None))
    }
}

/// Minimises the exact residual loss `Σᵢ ρ(yᵢ − xᵢᵀω)` by bounded gradient
/// descent — the non-quadratic solve backing the `fit_exact_*` reference
/// fits (and a worked example of `fm_optim` beyond quadratics).
fn minimize_residual_loss(data: &Dataset, derivs: impl Fn(f64) -> [f64; 3]) -> Result<Vec<f64>> {
    struct Loss<'a, F> {
        data: &'a Dataset,
        derivs: F,
    }
    impl<F: Fn(f64) -> [f64; 3]> fm_optim::Objective for Loss<'_, F> {
        fn dim(&self) -> usize {
            self.data.d()
        }
        fn value(&self, omega: &[f64]) -> f64 {
            self.data
                .tuples()
                .map(|(x, y)| (self.derivs)(y - fm_linalg::vecops::dot(x, omega))[0])
                .sum()
        }
        fn gradient(&self, omega: &[f64]) -> Vec<f64> {
            let mut g = vec![0.0; self.data.d()];
            for (x, y) in self.data.tuples() {
                let slope = (self.derivs)(y - fm_linalg::vecops::dot(x, omega))[1];
                fm_linalg::vecops::axpy(-slope, x, &mut g);
            }
            g
        }
    }
    let loss = Loss { data, derivs };
    let gd = fm_optim::gd::GradientDescent::default();
    let result = gd
        .minimize_within(&loss, &vec![0.0; data.d()], 1e6)
        .map_err(FmError::from)?;
    Ok(result.omega)
}

// The unit tests below reach these through `use super::*`.
#[cfg(test)]
use crate::{estimator::DpEstimator, model::ModelKind};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::DpLinearRegression;
    use fm_linalg::vecops;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(777)
    }

    /// A linear dataset with a fraction of labels replaced by one-sided
    /// outliers at the label-range ceiling.
    fn outlier_data(rng: &mut impl rand::Rng, n: usize, w: &[f64], frac: f64) -> Dataset {
        let base = fm_data::synth::linear_dataset_with_weights(rng, n, w, 0.05);
        fm_data::synth::inject_label_outliers(rng, &base, frac, 1.0)
    }

    #[test]
    fn sensitivity_formulas() {
        // Median: Δ = 2(ρ_max + c₁·d + d²/(2γ)) with c₁ = 1/√(1+γ²) and
        // ρ_max = √(1+γ²) − γ — the constant term is part of the release.
        let m = MedianObjective::new(0.25).unwrap();
        let c1 = 1.0 / 1.0625_f64.sqrt();
        let rho_max = 1.0625_f64.sqrt() - 0.25;
        for d in [1usize, 3, 13] {
            let expect = 2.0 * (rho_max + c1 * d as f64 + (d * d) as f64 / 0.5);
            assert!((m.sensitivity(d, SensitivityBound::Paper) - expect).abs() < 1e-12);
            assert!(m.sensitivity(d, SensitivityBound::Tight) <= expect);
            if d > 1 {
                assert!(m.sensitivity(d, SensitivityBound::Tight) < expect);
            }
        }
        // Huber: Δ = 2(ρ_max + min(1,δ)·d + d²/2) with ρ_max = δ(1−δ/2)
        // below δ = 1 and ½ beyond (the quadratic cap on |y| ≤ 1).
        let h = HuberObjective::new(0.5).unwrap();
        assert_eq!(
            h.sensitivity(2, SensitivityBound::Paper),
            2.0 * (0.375 + 1.0 + 2.0)
        );
        let wide = HuberObjective::new(3.0).unwrap();
        assert_eq!(
            wide.sensitivity(2, SensitivityBound::Paper),
            2.0 * (0.5 + 2.0 + 2.0)
        );
        // L2 sensitivities are dimension-independent.
        assert_eq!(m.sensitivity_l2(2), m.sensitivity_l2(14));
        assert_eq!(h.sensitivity_l2(2), h.sensitivity_l2(14));
    }

    #[test]
    fn lemma1_contract_per_tuple_l1_below_half_delta() {
        let mut r = rng();
        let median = MedianObjective::new(0.25).unwrap();
        let huber = HuberObjective::new(0.5).unwrap();
        for d in [1usize, 3, 7, 13] {
            for _ in 0..200 {
                let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                let y = rand::Rng::gen_range(&mut r, -1.0..=1.0);
                for (name, obj) in [
                    ("median", &median as &dyn PolynomialObjective),
                    ("huber", &huber as &dyn PolynomialObjective),
                ] {
                    let mut q = QuadraticForm::zero(d);
                    obj.accumulate_tuple(&x, y, &mut q);
                    // Every released coefficient counts, β included: the
                    // mechanism perturbs the degree-0 term at the same
                    // scale as the rest.
                    let l1 = q.coefficient_l1_norm_with_constant();
                    let delta = obj.sensitivity(d, SensitivityBound::Paper);
                    let tight = obj.sensitivity(d, SensitivityBound::Tight);
                    assert!(l1 <= delta / 2.0 + 1e-9, "{name} d={d}: {l1} > Δ/2");
                    assert!(l1 <= tight / 2.0 + 1e-9, "{name} d={d}: {l1} (tight)");
                    // L2 contract, constant included.
                    let l2 = (q.beta() * q.beta()
                        + vecops::dot(q.alpha(), q.alpha())
                        + q.m().frobenius_norm().powi(2))
                    .sqrt();
                    assert!(l2 <= obj.sensitivity_l2(d) / 2.0 + 1e-9, "{name} d={d}: L2");
                }
            }
        }
    }

    #[test]
    fn batch_kernels_match_per_tuple_accumulation() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 5, 0.1);
        for obj in [
            &MedianObjective::new(0.25).unwrap() as &dyn PolynomialObjective,
            &HuberObjective::new(0.5).unwrap(),
        ] {
            let batched = crate::assembly::assemble(obj, &data);
            let reference = crate::assembly::assemble_per_tuple(obj, &data);
            assert!((batched.beta() - reference.beta()).abs() < 1e-10);
            assert!(vecops::approx_eq(batched.alpha(), reference.alpha(), 1e-10));
            assert!(batched.m().approx_eq(reference.m(), 1e-10));
        }
    }

    #[test]
    fn truncated_surrogate_matches_loss_at_origin() {
        // At ω = 0 the surrogate equals Σ ρ(yᵢ) exactly (zero-order term).
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 300, 3, 0.1);
        let m = MedianObjective::new(0.25).unwrap();
        let q = m.assemble(&data);
        let direct: f64 = data.y().iter().map(|&y| m.derivs(y)[0]).sum();
        assert!((q.eval(&[0.0, 0.0, 0.0]) - direct).abs() < 1e-9);
    }

    #[test]
    fn quantile_at_half_is_the_median_objective_bitwise() {
        // τ = ½: same loss, same bounds, same coefficients — the released
        // noise stream cannot tell the two estimators apart.
        let q = QuantileObjective::new(0.5, 0.25).unwrap();
        let m = MedianObjective::new(0.25).unwrap();
        for d in [1usize, 4] {
            assert_eq!(
                q.sensitivity(d, SensitivityBound::Paper),
                m.sensitivity(d, SensitivityBound::Paper)
            );
            assert_eq!(q.sensitivity_l2(d), m.sensitivity_l2(d));
        }
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 3, 0.1);
        let qq = q.assemble(&data);
        let mq = m.assemble(&data);
        assert_eq!(qq, mq);
        // Full estimator parity under the same seed.
        let mut r1 = rand::rngs::StdRng::seed_from_u64(91);
        let quant = DpQuantileRegression::builder()
            .epsilon(2.0)
            .build()
            .fit(&data, &mut r1)
            .unwrap();
        let mut r2 = rand::rngs::StdRng::seed_from_u64(91);
        let med = DpMedianRegression::builder()
            .epsilon(2.0)
            .build()
            .fit(&data, &mut r2)
            .unwrap();
        assert_eq!(quant, med);
    }

    #[test]
    fn quantile_sensitivity_is_asymmetric_in_tau() {
        // Moving τ off ½ raises both the value and slope bounds — more
        // asymmetric pull, more noise — symmetrically in τ ↔ 1−τ.
        let mid = QuantileObjective::new(0.5, 0.25).unwrap();
        let hi = QuantileObjective::new(0.9, 0.25).unwrap();
        let lo = QuantileObjective::new(0.1, 0.25).unwrap();
        for d in [1usize, 5] {
            let s_mid = mid.sensitivity(d, SensitivityBound::Paper);
            let s_hi = hi.sensitivity(d, SensitivityBound::Paper);
            assert!(s_hi > s_mid, "τ=0.9 must out-noise τ=0.5");
            assert_eq!(s_hi, lo.sensitivity(d, SensitivityBound::Paper));
        }
        // Closed form: ρ_max and c₁ gain exactly |2τ−1|.
        let gamma: f64 = 0.25;
        let expect = 2.0
            * ((0.8 + (1.0 + gamma * gamma).sqrt() - gamma)
                + (0.8 + 1.0 / (1.0 + gamma * gamma).sqrt()) * 3.0
                + 0.5 * (1.0 / gamma) * 9.0);
        assert!((hi.sensitivity(3, SensitivityBound::Paper) - expect).abs() < 1e-12);
    }

    #[test]
    fn exact_quantile_fit_recovers_the_noise_quantile() {
        // y = xᵀw + e with e ~ U[−0.2, 0.2]: with an intercept, the exact
        // τ-pinball minimiser's offset estimates the τ-quantile of e,
        // −0.2 + 0.4τ. This is the asymmetry working end-to-end: τ = 0.75
        // must sit above τ = 0.25 by ≈ 0.2.
        let w = [0.2];
        let n = 6_000;
        let x = fm_linalg::Matrix::from_fn(n, 1, |i, _| ((i % 100) as f64 / 100.0 - 0.5) / 2.0);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let e = ((i * 37) % 101) as f64 / 100.0 * 0.4 - 0.2; // deterministic ~uniform
                x[(i, 0)] * w[0] + e
            })
            .collect();
        let data = Dataset::new(x, y).unwrap();
        let fit_at = |tau: f64| {
            DpQuantileRegression::builder()
                .tau(tau)
                .smoothing(0.02)
                .fit_intercept(true)
                .build()
                .fit_exact_without_privacy(&data)
                .unwrap()
        };
        let hi = fit_at(0.75);
        let lo = fit_at(0.25);
        assert!(
            (hi.intercept() - 0.1).abs() < 0.04,
            "τ=0.75 intercept {} should be ≈ +0.1",
            hi.intercept()
        );
        assert!(
            (lo.intercept() + 0.1).abs() < 0.04,
            "τ=0.25 intercept {} should be ≈ −0.1",
            lo.intercept()
        );
    }

    #[test]
    fn quantile_batch_kernels_and_private_fits_work() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 4, 0.1);
        let obj = QuantileObjective::new(0.8, 0.25).unwrap();
        let batched = crate::assembly::assemble(&obj, &data);
        let reference = crate::assembly::assemble_per_tuple(&obj, &data);
        assert!((batched.beta() - reference.beta()).abs() < 1e-10);
        assert!(vecops::approx_eq(batched.alpha(), reference.alpha(), 1e-10));
        assert!(batched.m().approx_eq(reference.m(), 1e-10));

        let big = fm_data::synth::linear_dataset(&mut r, 20_000, 2, 0.1);
        let model = DpQuantileRegression::builder()
            .epsilon(2.0)
            .tau(0.8)
            .build()
            .fit(&big, &mut r)
            .unwrap();
        assert_eq!(model.dim(), 2);
        assert_eq!(model.epsilon(), Some(2.0));

        // Streaming parity.
        let mut r1 = rand::rngs::StdRng::seed_from_u64(55);
        let in_memory = DpQuantileRegression::builder()
            .tau(0.8)
            .build()
            .fit(&big, &mut r1)
            .unwrap();
        let mut r2 = rand::rngs::StdRng::seed_from_u64(55);
        let streamed = DpQuantileRegression::builder()
            .tau(0.8)
            .build()
            .fit_stream(&mut fm_data::stream::InMemorySource::new(&big), &mut r2)
            .unwrap();
        assert_eq!(in_memory, streamed);
    }

    #[test]
    fn quantile_bad_parameters_rejected() {
        for tau in [0.0, 1.0, -0.2, f64::NAN] {
            assert!(QuantileObjective::new(tau, 0.25).is_err(), "τ = {tau}");
        }
        for gamma in [0.0, -1.0, f64::INFINITY] {
            assert!(QuantileObjective::new(0.3, gamma).is_err(), "γ = {gamma}");
        }
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.1);
        assert!(matches!(
            DpQuantileRegression::builder()
                .tau(1.5)
                .build()
                .fit(&data, &mut r),
            Err(FmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn exact_median_fit_tracks_conditional_median_not_mean() {
        // One-sided outliers shift the conditional mean but barely move
        // the median: the exact smoothed-median minimiser must stay close
        // to the true weights while OLS drifts.
        let mut r = rng();
        let w = vec![0.3, -0.2];
        let data = outlier_data(&mut r, 30_000, &w, 0.25);
        let median = DpMedianRegression::builder()
            .smoothing(0.1)
            .build()
            .fit_exact_without_privacy(&data)
            .unwrap();
        let ols = DpLinearRegression::builder()
            .build()
            .fit_without_privacy(&data)
            .unwrap();
        let em = vecops::dist2(median.weights(), &w);
        let eo = vecops::dist2(ols.weights(), &w);
        assert!(em < eo, "median err {em} should beat OLS err {eo}");
    }

    #[test]
    fn exact_fits_honour_the_intercept_config() {
        // y = xᵀw + 0.2: the exact non-private reference must recover the
        // offset when fit_intercept is on, exactly as the private path
        // does — otherwise "surrogate bias" comparisons absorb the offset.
        let w = [0.2];
        let n = 4_000;
        let x = fm_linalg::Matrix::from_fn(n, 1, |i, _| ((i % 100) as f64 / 100.0 - 0.5) / 2.0);
        let y: Vec<f64> = (0..n).map(|i| x[(i, 0)] * w[0] + 0.2).collect();
        let data = Dataset::new(x, y).unwrap();
        for model in [
            DpMedianRegression::builder()
                .fit_intercept(true)
                .build()
                .fit_exact_without_privacy(&data)
                .unwrap(),
            DpHuberRegression::builder()
                .fit_intercept(true)
                .build()
                .fit_exact_without_privacy(&data)
                .unwrap(),
        ] {
            assert!(
                (model.intercept() - 0.2).abs() < 1e-2,
                "b = {}",
                model.intercept()
            );
            assert!((model.weights()[0] - 0.2).abs() < 1e-2);
        }
    }

    #[test]
    fn truncated_fits_recover_direction_on_clean_data() {
        let mut r = rng();
        let w = vec![0.4, -0.3];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 40_000, &w, 0.05);
        for model in [
            DpMedianRegression::builder()
                .build()
                .fit_truncated_without_privacy(&data)
                .unwrap(),
            DpHuberRegression::builder()
                .build()
                .fit_truncated_without_privacy(&data)
                .unwrap(),
        ] {
            let cos = vecops::dot(model.weights(), &w)
                / (vecops::norm2(model.weights()) * vecops::norm2(&w));
            assert!(cos > 0.95, "cosine {cos}, weights {:?}", model.weights());
        }
    }

    #[test]
    fn private_fits_run_and_record_metadata() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 30_000, 3, 0.1);
        let m = DpMedianRegression::builder()
            .epsilon(2.0)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.epsilon(), Some(2.0));
        let h = DpHuberRegression::builder()
            .epsilon(2.0)
            .fit_intercept(true)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        assert_eq!(h.dim(), 3);
        assert!(h.intercept().is_finite());
    }

    #[test]
    fn dyn_estimator_surface() {
        let med = DpMedianRegression::builder().epsilon(0.7).build();
        let hub = DpHuberRegression::builder().epsilon(0.9).build();
        let lineup: Vec<&dyn DpEstimator<Model = LinearModel>> = vec![&med, &hub];
        for est in &lineup {
            assert_eq!(est.task(), ModelKind::Linear);
            assert_eq!(est.delta(), None);
        }
        assert_eq!(lineup[0].epsilon(), Some(0.7));
        assert_eq!(lineup[1].epsilon(), Some(0.9));
    }

    #[test]
    fn bad_parameters_rejected_at_fit() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.1);
        for gamma in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                DpMedianRegression::builder()
                    .smoothing(gamma)
                    .build()
                    .fit(&data, &mut r),
                Err(FmError::InvalidConfig { .. })
            ));
        }
        for delta in [0.0, -0.5, f64::INFINITY] {
            assert!(matches!(
                DpHuberRegression::builder()
                    .threshold(delta)
                    .build()
                    .fit(&data, &mut r),
                Err(FmError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn noise_independent_of_cardinality() {
        let mut r = rng();
        let small = fm_data::synth::linear_dataset(&mut r, 50, 4, 0.1);
        let large = fm_data::synth::linear_dataset(&mut r, 20_000, 4, 0.1);
        let fm = crate::mechanism::FunctionalMechanism::new(1.0).unwrap();
        let obj = MedianObjective::new(0.25).unwrap();
        let a = fm.perturb(&small, &obj, &mut r).unwrap();
        let b = fm.perturb(&large, &obj, &mut r).unwrap();
        assert_eq!(a.sensitivity(), b.sensitivity());
        assert_eq!(a.noise_scale(), b.noise_scale());
    }

    #[test]
    fn sharper_smoothing_means_more_noise() {
        let sharp = MedianObjective::new(0.05).unwrap();
        let smooth = MedianObjective::new(0.5).unwrap();
        assert!(
            sharp.sensitivity(5, SensitivityBound::Paper)
                > smooth.sensitivity(5, SensitivityBound::Paper)
        );
    }
}
