//! Section 5 / Algorithm 2: ε-differentially private **logistic
//! regression** via degree-2 Taylor truncation.
//!
//! The logistic cost `f(t_i, ω) = log(1 + exp(x_iᵀω)) − y_i x_iᵀω` is not
//! a finite polynomial, so Algorithm 1 cannot be applied directly. The
//! paper decomposes it as `f₁(g₁) + f₂(g₂)` with `f₁(z) = log(1+eᶻ)`,
//! `g₁ = x_iᵀω`, `f₂(z) = z`, `g₂ = −y_i·x_iᵀω`, Taylor-expands `f₁`
//! around 0 and truncates at degree 2 (Equation 10):
//!
//! ```text
//! f̂_D(ω) = Σ_i [log 2 + ½·x_iᵀω + ⅛·(x_iᵀω)²] − (Σ_i y_i x_iᵀ) ω
//! ```
//!
//! i.e. `M = ⅛ Σ x_i x_iᵀ`, `α = ½ Σ x_i − Σ y_i x_i`, `β = n·log 2`.
//! The truncation error of the averaged objective is bounded by the
//! data-independent constant of Lemma 4 (`fm_poly::taylor`). The
//! coefficient sensitivity is `Δ = d²/4 + 3d` (Section 5.3), so — as the
//! paper stresses — the injected noise is independent of the dataset
//! cardinality.

use fm_data::Dataset;
use fm_poly::chebyshev::logistic_chebyshev;
use fm_poly::taylor::{identity_component, logistic_log1pexp_component, TaylorComponent};
use fm_poly::QuadraticForm;

use crate::estimator::{EstimatorBuilder, Family, FamilyEstimator, RegressionObjective};
use crate::mechanism::{PolynomialObjective, SensitivityBound};
use crate::model::LogisticModel;
use crate::{FmError, Result};

/// The paper's logistic-regression sensitivity: `Δ = d²/4 + 3d`
/// (Section 5.3).
#[must_use]
pub fn sensitivity_paper(d: usize) -> f64 {
    let d = d as f64;
    d * d / 4.0 + 3.0 * d
}

/// Cauchy–Schwarz-tightened sensitivity: with `Σ|x_j| ≤ √d`,
/// `Δ = 2(√d/2 + d/8 + √d) = 3√d + d/4`.
#[must_use]
pub fn sensitivity_tight(d: usize) -> f64 {
    let d = d as f64;
    3.0 * d.sqrt() + d / 4.0
}

/// The **L2** sensitivity of the truncated logistic coefficient vector for
/// a generic degree-2 surrogate `a₀ + a₁z + a₂z²`: per tuple the degree-≥1
/// blocks are `(a₁ − y)·x` and `a₂·x xᵀ` with `y ∈ {0, 1}` (the constant
/// `a₀` is identical for every tuple, so it cancels between neighbours),
/// giving `Δ₂ = 2√(max(|a₁|, |a₁−1|)² + a₂²)` — independent of `d`. For
/// the paper's Taylor constants `(½, ⅛)` this is `2√(¼ + 1/64) ≈ 1.03`.
#[must_use]
pub fn sensitivity_l2_for(a1: f64, a2: f64) -> f64 {
    let lin = a1.abs().max((a1 - 1.0).abs());
    2.0 * (lin * lin + a2 * a2).sqrt()
}

/// The L2 sensitivity under the paper's Taylor surrogate
/// (`a₁ = ½`, `a₂ = ⅛`).
#[must_use]
pub fn sensitivity_l2() -> f64 {
    sensitivity_l2_for(0.5, 0.125)
}

/// The truncated logistic objective in Algorithm-1 form.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogisticObjective;

impl PolynomialObjective for LogisticObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        // f₁(x ᵀω): β += log 2, α += ½x, M += ⅛xxᵀ.
        logistic_log1pexp_component().accumulate_into(x, q);
        // f₂(−y·xᵀω): α += −y·x (degree-1, exact).
        if y != 0.0 {
            let neg_yx: Vec<f64> = x.iter().map(|&v| -y * v).collect();
            identity_component().accumulate_into(&neg_yx, q);
        }
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        // f₁ batched: β += k·log 2, α += ½·Σx, M += ⅛·XᵀX (Gram kernels).
        logistic_log1pexp_component().accumulate_batch_into(xs, q);
        // f₂ batched: α += −Xᵀy (y = 0 rows contribute exactly zero, as in
        // the per-tuple skip).
        fm_linalg::vecops::gemv_t_acc(-1.0, xs, d, ys, q.alpha_mut());
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
        // Same kernels read from the cached transpose (bit-identical).
        logistic_log1pexp_component().accumulate_cols_into(xt, lo, hi, q);
        let yr = &ys[lo..hi];
        for (j, out) in q.alpha_mut().iter_mut().enumerate() {
            fm_linalg::vecops::dot_blocked_acc(-1.0, &xt.row(j)[lo..hi], yr, out);
        }
    }

    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64 {
        match bound {
            SensitivityBound::Paper => sensitivity_paper(d),
            SensitivityBound::Tight => sensitivity_tight(d),
        }
    }

    fn sensitivity_l2(&self, _d: usize) -> f64 {
        sensitivity_l2()
    }

    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        data.check_normalized_logistic()
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_logistic(xs, ys, d)
    }
}

/// Assembles the noise-free truncated objective `f̂_D(ω)` — shared with the
/// `Truncated` baseline, which minimises exactly this function without any
/// perturbation.
#[must_use]
pub fn truncated_objective(data: &Dataset) -> QuadraticForm {
    LogisticObjective.assemble(data)
}

/// Which degree-2 approximation of the logistic loss Algorithm 2 runs on.
///
/// The paper (§5) uses the Taylor truncation at 0; its future-work section
/// (§8) asks whether "alternative analytical tools can lead to more
/// accurate regression results" — [`Approximation::Chebyshev`] is one
/// answer: a near-minimax degree-2 fit over `[−R, R]` whose worst-case
/// error on the same interval is ~8× below Taylor's, at an essentially
/// identical sensitivity (the fitted `a₁` is exactly `½`; only the
/// curvature `a₂ ≤ ⅛` changes, *lowering* Δ slightly).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Approximation {
    /// §5: degree-2 Taylor expansion at `z = 0` with the paper's constants
    /// `(log 2, ½, ¼)`.
    #[default]
    Taylor,
    /// §8 alternative: degree-2 Chebyshev truncation of `log(1 + eᶻ)` over
    /// `[−half_width, half_width]`.
    Chebyshev {
        /// The approximation interval's half-width `R > 0`. `R = 1` matches
        /// the window of the paper's Lemma-4 analysis; larger values keep
        /// the surrogate faithful for larger `|xᵀω|`.
        half_width: f64,
    },
}

/// The Chebyshev-approximated logistic objective in Algorithm-1 form
/// (see [`Approximation::Chebyshev`]).
#[derive(Debug, Clone, Copy)]
pub struct ChebyshevLogisticObjective {
    component: TaylorComponent,
    /// `|a₁|` of the fitted polynomial (= ½ for the symmetric logistic loss).
    a1_abs: f64,
    /// `|a₂|` of the fitted polynomial (≤ ⅛, shrinking with the interval).
    a2_abs: f64,
    /// Measured sup-error of the fit on its interval.
    sup_error: f64,
}

impl ChebyshevLogisticObjective {
    /// Fits the degree-2 Chebyshev surrogate of `log(1 + eᶻ)` on
    /// `[−half_width, half_width]`.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a non-finite or non-positive width.
    pub fn new(half_width: f64) -> Result<Self> {
        if !half_width.is_finite() || half_width <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "half_width",
                reason: format!("{half_width} must be finite and > 0"),
            });
        }
        let cheb = logistic_chebyshev(half_width);
        let [_, a1, a2] = cheb.coefficients();
        Ok(ChebyshevLogisticObjective {
            component: cheb.as_component(),
            a1_abs: a1.abs(),
            a2_abs: a2.abs(),
            sup_error: cheb.max_error(),
        })
    }

    /// Sup-error of the scalar surrogate on its fitting interval — the
    /// per-tuple analogue of the paper's ≈0.015 Taylor constant.
    #[must_use]
    pub fn sup_error(&self) -> f64 {
        self.sup_error
    }

    /// Assembles the noise-free Chebyshev-truncated objective (the
    /// Chebyshev analogue of [`truncated_objective`]).
    #[must_use]
    pub fn assemble_objective(&self, data: &Dataset) -> QuadraticForm {
        self.assemble(data)
    }
}

impl PolynomialObjective for ChebyshevLogisticObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        // Surrogate f₁ part: β += a₀, α += a₁x, M += a₂xxᵀ.
        self.component.accumulate_into(x, q);
        // Exact f₂ part: α += −y·x.
        if y != 0.0 {
            let neg_yx: Vec<f64> = x.iter().map(|&v| -y * v).collect();
            identity_component().accumulate_into(&neg_yx, q);
        }
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        // Surrogate batched: β += k·a₀', α += a₁·Σx, M += ½a₂''·XᵀX.
        self.component.accumulate_batch_into(xs, q);
        // Exact f₂ batched: α += −Xᵀy.
        fm_linalg::vecops::gemv_t_acc(-1.0, xs, d, ys, q.alpha_mut());
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
        self.component.accumulate_cols_into(xt, lo, hi, q);
        let yr = &ys[lo..hi];
        for (j, out) in q.alpha_mut().iter_mut().enumerate() {
            fm_linalg::vecops::dot_blocked_acc(-1.0, &xt.row(j)[lo..hi], yr, out);
        }
    }

    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64 {
        // Same derivation as §5.3 with (a₁, a₂) in place of (½, ⅛):
        // Δ = 2·max_t (a₁Σ|x| + a₂(Σ|x|)² + yΣ|x|) ≤ 2((a₁+1)S + a₂S²)
        // where S bounds Σ|x_j| — d for the paper-style bound, √d under
        // Cauchy–Schwarz.
        let s = match bound {
            SensitivityBound::Paper => d as f64,
            SensitivityBound::Tight => (d as f64).sqrt(),
        };
        2.0 * ((self.a1_abs + 1.0) * s + self.a2_abs * s * s)
    }

    fn sensitivity_l2(&self, _d: usize) -> f64 {
        sensitivity_l2_for(self.a1_abs, self.a2_abs)
    }

    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        data.check_normalized_logistic()
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_logistic(xs, ys, d)
    }
}

impl RegressionObjective for LogisticObjective {
    type Model = LogisticModel;
}

impl RegressionObjective for ChebyshevLogisticObjective {
    type Model = LogisticModel;
}

/// Either degree-2 surrogate of the logistic loss, as one
/// [`RegressionObjective`] the generic [`crate::estimator::FmEstimator`]
/// core can hold — what [`DpLogisticRegression`] instantiates from its
/// configured [`Approximation`].
#[derive(Debug, Clone, Copy)]
pub enum LogisticSurrogate {
    /// The §5 Taylor truncation.
    Taylor(LogisticObjective),
    /// The §8-alternative Chebyshev fit.
    Chebyshev(ChebyshevLogisticObjective),
}

impl LogisticSurrogate {
    /// Builds the surrogate for an [`Approximation`] choice.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a bad Chebyshev interval.
    pub fn new(approximation: Approximation) -> Result<Self> {
        Ok(match approximation {
            Approximation::Taylor => LogisticSurrogate::Taylor(LogisticObjective),
            Approximation::Chebyshev { half_width } => {
                LogisticSurrogate::Chebyshev(ChebyshevLogisticObjective::new(half_width)?)
            }
        })
    }

    fn inner(&self) -> &dyn PolynomialObjective {
        match self {
            LogisticSurrogate::Taylor(o) => o,
            LogisticSurrogate::Chebyshev(o) => o,
        }
    }
}

impl PolynomialObjective for LogisticSurrogate {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        self.inner().accumulate_tuple(x, y, q);
    }
    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        self.inner().accumulate_batch(xs, ys, d, q);
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
        self.inner().accumulate_batch_columnar(xt, ys, lo, hi, q);
    }
    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64 {
        self.inner().sensitivity(d, bound)
    }
    fn sensitivity_l2(&self, d: usize) -> f64 {
        self.inner().sensitivity_l2(d)
    }
    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        self.inner().validate(data)
    }
    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        self.inner().validate_rows(xs, ys, d)
    }
}

impl RegressionObjective for LogisticSurrogate {
    type Model = LogisticModel;
}

impl Family for Approximation {
    type Objective = LogisticSurrogate;

    fn objective(&self) -> Result<LogisticSurrogate> {
        LogisticSurrogate::new(*self)
    }
}

/// Builder for [`DpLogisticRegression`]: the shared [`EstimatorBuilder`]
/// knobs plus the surrogate choice.
pub type DpLogisticRegressionBuilder = EstimatorBuilder<Approximation>;

impl DpLogisticRegressionBuilder {
    /// Chooses the degree-2 surrogate of the logistic loss (default
    /// [`Approximation::Taylor`], the paper's §5 expansion).
    #[must_use]
    pub fn approximation(mut self, approximation: Approximation) -> Self {
        self.family = approximation;
        self
    }
}

/// ε-differentially private logistic regression via Algorithm 2
/// (Taylor truncation + the Functional Mechanism): the generic
/// [`FamilyEstimator`] over the configured [`Approximation`], which builds
/// a [`LogisticSurrogate`] at fit time (a bad Chebyshev interval is
/// refused there). Data must satisfy Definition 2's contract
/// (`‖x‖₂ ≤ 1`, `y ∈ {0, 1}`).
///
/// ```
/// use fm_core::logreg::DpLogisticRegression;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let data = fm_data::synth::logistic_dataset(&mut rng, 10_000, 3, 10.0);
/// let model = DpLogisticRegression::builder()
///     .epsilon(0.8)
///     .build()
///     .fit(&data, &mut rng)
///     .unwrap();
/// let p = model.probability(data.x().row(0));
/// assert!((0.0..=1.0).contains(&p));
/// ```
pub type DpLogisticRegression = FamilyEstimator<Approximation>;

#[cfg(test)]
mod tests {
    use super::*;
    use fm_linalg::vecops;
    use fm_poly::taylor::log1p_exp;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1618)
    }

    #[test]
    fn sensitivities_match_paper() {
        // d²/4 + 3d.
        assert_eq!(sensitivity_paper(2), 7.0);
        assert_eq!(sensitivity_paper(4), 16.0);
        assert_eq!(sensitivity_paper(13), 81.25);
        for d in 2..20 {
            assert!(sensitivity_tight(d) < sensitivity_paper(d));
        }
    }

    #[test]
    fn truncated_objective_coefficients() {
        // Two tuples, d = 2: M = ⅛Σxxᵀ, α = ½Σx − Σyx, β = n·log2.
        let x = fm_linalg::Matrix::from_rows(&[&[0.6, 0.0], &[0.0, 0.8]]).unwrap();
        let data = Dataset::new(x, vec![1.0, 0.0]).unwrap();
        let q = truncated_objective(&data);
        assert!((q.beta() - 2.0 * std::f64::consts::LN_2).abs() < 1e-12);
        // α = ½(0.6, 0.8) − (0.6, 0) = (−0.3, 0.4).
        assert!(vecops::approx_eq(q.alpha(), &[-0.3, 0.4], 1e-12));
        // M = ⅛ diag(0.36, 0.64).
        assert!((q.m()[(0, 0)] - 0.045).abs() < 1e-12);
        assert!((q.m()[(1, 1)] - 0.08).abs() < 1e-12);
        assert_eq!(q.m()[(0, 1)], 0.0);
    }

    #[test]
    fn truncated_matches_true_loss_near_origin() {
        // At ω = 0 both the exact and truncated objectives equal n·log 2.
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 200, 3, 5.0);
        let q = truncated_objective(&data);
        let zero = vec![0.0; 3];
        assert!((q.eval(&zero) - 200.0 * std::f64::consts::LN_2).abs() < 1e-9);
        // And the per-tuple truncation error is within the Lemma-4 constant.
        let omega = [0.3, -0.2, 0.1];
        let exact: f64 = data
            .tuples()
            .map(|(x, y)| {
                let z = vecops::dot(x, &omega);
                log1p_exp(z) - y * z
            })
            .sum();
        let bound = fm_poly::taylor::paper_logistic_error_constant() * data.n() as f64;
        assert!(
            (q.eval(&omega) - exact).abs() <= bound + 1e-9,
            "truncation error exceeds Lemma-4 bound"
        );
    }

    #[test]
    fn lemma1_contract_per_tuple_l1_below_half_delta() {
        let mut r = rng();
        for d in [1usize, 2, 4, 7, 13] {
            let delta = LogisticObjective.sensitivity(d, SensitivityBound::Paper);
            let tight = LogisticObjective.sensitivity(d, SensitivityBound::Tight);
            for _ in 0..200 {
                let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                let y = f64::from(rand::Rng::gen_bool(&mut r, 0.5));
                let mut q = QuadraticForm::zero(d);
                LogisticObjective.accumulate_tuple(&x, y, &mut q);
                let l1 = q.coefficient_l1_norm();
                assert!(l1 <= delta / 2.0 + 1e-9, "d={d}: L1 {l1} > Δ/2");
                assert!(l1 <= tight / 2.0 + 1e-9, "d={d}: L1 {l1} > tight Δ/2");
            }
        }
    }

    #[test]
    fn truncated_fit_agrees_with_newton_on_separable_data() {
        // The truncated minimiser is not the exact MLE, but on symmetric
        // data it should classify nearly identically.
        let mut r = rng();
        let w = vec![0.5, -0.4];
        let data = fm_data::synth::logistic_dataset_with_weights(&mut r, 30_000, &w, 12.0);
        let model = DpLogisticRegression::builder()
            .build()
            .fit_truncated_without_privacy(&data)
            .unwrap();
        // Direction of the weights must match the ground truth.
        let cos =
            vecops::dot(model.weights(), &w) / (vecops::norm2(model.weights()) * vecops::norm2(&w));
        assert!(cos > 0.95, "cosine {cos}");
    }

    #[test]
    fn private_fit_classifies_above_chance() {
        let mut r = rng();
        let w = vec![0.5, 0.3, -0.4];
        let data = fm_data::synth::logistic_dataset_with_weights(&mut r, 50_000, &w, 12.0);
        let model = DpLogisticRegression::builder()
            .epsilon(1.0)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        let probs = model.probabilities_batch(data.x());
        let err = fm_data::metrics::misclassification_rate(&probs, data.y());
        // Bayes error here is ≈ 0.28 (steepness 12, weights ‖w‖≈0.7); chance
        // is 0.5. The DP model must be clearly better than chance.
        assert!(err < 0.45, "misclassification {err}");
    }

    #[test]
    fn rejects_non_binary_labels() {
        let x = fm_linalg::Matrix::from_rows(&[&[0.1, 0.1]]).unwrap();
        let data = Dataset::new(x, vec![0.7]).unwrap();
        let mut r = rng();
        assert!(matches!(
            DpLogisticRegression::builder().build().fit(&data, &mut r),
            Err(FmError::Data(_))
        ));
    }

    #[test]
    fn intercept_fit_handles_imbalanced_classes() {
        // Data with a strong base rate: P(y=1) ≈ 0.82 regardless of x.
        // Without an intercept the truncated model predicts ~0.5 at the
        // centroid; with one it should capture the base rate's sign.
        let mut r = rng();
        let n = 20_000;
        let x = fm_linalg::Matrix::from_fn(n, 2, |i, j| {
            let t = ((i * 17 + j * 29) % 200) as f64 / 200.0 - 0.5;
            t / 2.0
        });
        let y: Vec<f64> = (0..n)
            .map(|_| f64::from(rand::Rng::gen_bool(&mut r, 0.82)))
            .collect();
        let data = Dataset::new(x, y).unwrap();
        let model = DpLogisticRegression::builder()
            .fit_intercept(true)
            .build()
            .fit_truncated_without_privacy(&data)
            .unwrap();
        assert!(
            model.intercept() > 0.0,
            "b = {} should be positive",
            model.intercept()
        );
        assert!(
            model.probability(&[0.0, 0.0]) > 0.5,
            "base rate not captured: {}",
            model.probability(&[0.0, 0.0])
        );
        // Flat model at the centroid is exactly 0.5 — strictly worse here.
        let flat = DpLogisticRegression::builder()
            .build()
            .fit_truncated_without_privacy(&data)
            .unwrap();
        assert!((flat.probability(&[0.0, 0.0]) - 0.5).abs() < 0.1);
    }

    #[test]
    fn private_intercept_fit_runs_and_returns_d_weights() {
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 30_000, 3, 8.0);
        let model = DpLogisticRegression::builder()
            .epsilon(1.0)
            .fit_intercept(true)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        assert_eq!(model.dim(), 3);
        assert!(model.intercept().is_finite());
        assert_eq!(model.epsilon(), Some(1.0));
    }

    #[test]
    fn noise_independent_of_cardinality() {
        // Δ (hence the noise scale) must not change with n — the paper's
        // headline property (Section 5.3).
        let mut r = rng();
        let small = fm_data::synth::logistic_dataset(&mut r, 100, 4, 5.0);
        let large = fm_data::synth::logistic_dataset(&mut r, 10_000, 4, 5.0);
        let fm = crate::mechanism::FunctionalMechanism::new(1.0).unwrap();
        let ns = fm.perturb(&small, &LogisticObjective, &mut r).unwrap();
        let nl = fm.perturb(&large, &LogisticObjective, &mut r).unwrap();
        assert_eq!(ns.sensitivity(), nl.sensitivity());
        assert_eq!(ns.noise_scale(), nl.noise_scale());
    }

    #[test]
    fn chebyshev_sensitivity_close_to_taylor_at_r1() {
        // At R = 1, a₁ = ½ exactly and a₂ ≲ ⅛, so Δ_cheb ≤ Δ_taylor with
        // equality in the limit R → 0.
        let obj = ChebyshevLogisticObjective::new(1.0).unwrap();
        for d in [2usize, 5, 14] {
            let cheb = obj.sensitivity(d, SensitivityBound::Paper);
            let taylor = sensitivity_paper(d);
            assert!(cheb <= taylor + 1e-9, "d={d}: {cheb} > {taylor}");
            assert!(
                cheb > 0.9 * taylor,
                "d={d}: {cheb} unexpectedly far below {taylor}"
            );
        }
    }

    #[test]
    fn chebyshev_lemma1_contract() {
        // Same machine check as the Taylor objective: per-tuple coefficient
        // L1 ≤ Δ/2 over the normalized domain.
        let mut r = rng();
        for half_width in [0.5, 1.0, 4.0] {
            let obj = ChebyshevLogisticObjective::new(half_width).unwrap();
            for d in [1usize, 3, 7] {
                let delta = obj.sensitivity(d, SensitivityBound::Paper);
                let tight = obj.sensitivity(d, SensitivityBound::Tight);
                for _ in 0..100 {
                    let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                    let y = f64::from(rand::Rng::gen_bool(&mut r, 0.5));
                    let mut q = QuadraticForm::zero(d);
                    obj.accumulate_tuple(&x, y, &mut q);
                    let l1 = q.coefficient_l1_norm();
                    assert!(l1 <= delta / 2.0 + 1e-9, "R={half_width} d={d}: {l1}");
                    assert!(
                        l1 <= tight / 2.0 + 1e-9,
                        "R={half_width} d={d}: {l1} (tight)"
                    );
                }
            }
        }
    }

    #[test]
    fn chebyshev_surrogate_tracks_exact_loss_tighter_than_taylor() {
        // Sup gap of the assembled objectives against the exact loss over a
        // grid of ω with ‖ω‖ ≤ 1 (so |xᵀω| ≤ 1 = R).
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 500, 2, 5.0);
        let taylor_q = truncated_objective(&data);
        let obj = ChebyshevLogisticObjective::new(1.0).unwrap();
        let cheb_q = obj.assemble_objective(&data);
        let exact = |omega: &[f64]| -> f64 {
            data.tuples()
                .map(|(x, y)| {
                    let z = vecops::dot(x, omega);
                    log1p_exp(z) - y * z
                })
                .sum()
        };
        let mut taylor_sup = 0.0f64;
        let mut cheb_sup = 0.0f64;
        for i in 0..=20 {
            for j in 0..=20 {
                let omega = [i as f64 / 20.0 * 1.4 - 0.7, j as f64 / 20.0 * 1.4 - 0.7];
                let e = exact(&omega);
                taylor_sup = taylor_sup.max((taylor_q.eval(&omega) - e).abs());
                cheb_sup = cheb_sup.max((cheb_q.eval(&omega) - e).abs());
            }
        }
        assert!(
            cheb_sup < taylor_sup,
            "chebyshev sup {cheb_sup} should beat taylor sup {taylor_sup}"
        );
    }

    #[test]
    fn chebyshev_private_fit_classifies_above_chance() {
        let mut r = rng();
        let w = vec![0.5, 0.3, -0.4];
        let data = fm_data::synth::logistic_dataset_with_weights(&mut r, 50_000, &w, 12.0);
        let model = DpLogisticRegression::builder()
            .epsilon(1.0)
            .approximation(Approximation::Chebyshev { half_width: 1.0 })
            .build()
            .fit(&data, &mut r)
            .unwrap();
        let probs = model.probabilities_batch(data.x());
        let err = fm_data::metrics::misclassification_rate(&probs, data.y());
        assert!(err < 0.45, "misclassification {err}");
    }

    #[test]
    fn chebyshev_rejects_bad_interval() {
        assert!(ChebyshevLogisticObjective::new(0.0).is_err());
        assert!(ChebyshevLogisticObjective::new(-1.0).is_err());
        assert!(ChebyshevLogisticObjective::new(f64::NAN).is_err());
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 100, 2, 5.0);
        let err = DpLogisticRegression::builder()
            .approximation(Approximation::Chebyshev { half_width: -2.0 })
            .build()
            .fit(&data, &mut r)
            .unwrap_err();
        assert!(matches!(err, FmError::InvalidConfig { .. }));
    }

    #[test]
    fn chebyshev_sup_error_reported() {
        let obj = ChebyshevLogisticObjective::new(1.0).unwrap();
        // ~8× better than the Taylor sup-error ≈ 0.0049 on the same window.
        assert!(obj.sup_error() > 0.0);
        assert!(obj.sup_error() < 0.008, "sup error {}", obj.sup_error());
    }

    #[test]
    fn figure3_example_truncation_gap() {
        // §5.2's 1-D example: D = {(−0.5, 1), (0, 0), (1, 1)}. The paper's
        // Figure 3 shows f̂_D close to f_D with a visible but small gap.
        let x = fm_linalg::Matrix::from_rows(&[&[-0.5], &[0.0], &[1.0]]).unwrap();
        let data = Dataset::new(x, vec![1.0, 0.0, 1.0]).unwrap();
        let q = truncated_objective(&data);
        for w in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            let exact: f64 = data
                .tuples()
                .map(|(xi, yi)| log1p_exp(xi[0] * w) - yi * xi[0] * w)
                .sum();
            let gap = (q.eval(&[w]) - exact).abs();
            assert!(gap < 0.25, "gap {gap} too large at ω = {w}");
        }
    }
}
