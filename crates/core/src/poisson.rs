//! ε-differentially private **Poisson regression** — the §8-future-work
//! extension of Algorithm 2 to a third regression family.
//!
//! The Poisson negative log-likelihood of a count `y_i ∈ {0, 1, 2, …}` with
//! log-linear rate `λ(x) = exp(xᵀω)` is (dropping the `log y_i!` term,
//! which does not depend on ω and therefore does not move the minimiser):
//!
//! ```text
//! f(t_i, ω) = exp(x_iᵀω) − y_i·x_iᵀω
//! ```
//!
//! This has exactly the shape Section 5 assumes — `f = f₁(g₁) + f₂(g₂)`
//! with `f₁(z) = eᶻ`, `g₁ = x_iᵀω`, `f₂(z) = z`, `g₂ = −y_i x_iᵀω` — so
//! the whole Algorithm-2 pipeline applies: expand `f₁` at 0
//! (`f₁ = f₁' = f₁'' = 1`), truncate at degree 2, perturb, post-process.
//!
//! **Sensitivity.** Per tuple, the degree-≥1 coefficients are
//! `(a₁ − y)·x` (degree 1) and `a₂·x xᵀ` (degree 2), where `(a₁, a₂) =
//! (1, ½)` for Taylor. Bounding each part separately as in §5.3, with
//! `Σ_j |x_(j)| ≤ S` (`S = d` paper-style, `√d` under Cauchy–Schwarz) and
//! the **bounded-count contract** `y ∈ [0, y_max]`:
//!
//! ```text
//! Δ = 2·max_t (a₁Σ|x| + a₂(Σ|x|)² + yΣ|x|) ≤ 2·((a₁ + y_max)·S + a₂·S²)
//! ```
//!
//! Unlike linear/logistic regression — whose label ranges are fixed by
//! Definitions 1–2 — the count cap `y_max` is a modelling choice; it enters
//! Δ linearly, which the ablation benchmarks quantify. As everywhere in the
//! paper, Δ is independent of the dataset cardinality.
//!
//! **Truncation error.** `f₁''' = eᶻ ∈ [1/e, e]` on `[−1, 1]`, so the
//! Lemma-4 remainder width is `(e − 1/e)/6 ≈ 0.392` per tuple — larger
//! than the logistic ≈0.030 but still a data-independent constant. The
//! Chebyshev surrogate (`Approximation::Chebyshev`) roughly quarters the
//! sup-error on the same interval.

use fm_data::Dataset;
use fm_poly::chebyshev::ChebyshevQuadratic;
use fm_poly::taylor::{identity_component, poisson_exp_component, TaylorComponent};
use fm_poly::QuadraticForm;

use crate::estimator::{EstimatorBuilder, Family, FamilyEstimator, RegressionObjective};
use crate::logreg::Approximation;
use crate::mechanism::{PolynomialObjective, SensitivityBound};
use crate::{FmError, Result};

pub use crate::model::PoissonModel;

/// Default count cap: covers IPUMS-style count attributes (children,
/// automobiles) and clips essentially nothing when rates stay in `[1/e, e]`.
pub const DEFAULT_Y_MAX: f64 = 8.0;

/// The paper-style Poisson sensitivity `Δ = 2((1 + y_max)·d + d²/2)`
/// (Taylor surrogate; see the module docs for the derivation).
#[must_use]
pub fn sensitivity_paper(d: usize, y_max: f64) -> f64 {
    let d = d as f64;
    2.0 * ((1.0 + y_max) * d + 0.5 * d * d)
}

/// Cauchy–Schwarz-tightened Poisson sensitivity
/// `Δ = 2((1 + y_max)·√d + d/2)`.
#[must_use]
pub fn sensitivity_tight(d: usize, y_max: f64) -> f64 {
    let d = d as f64;
    2.0 * ((1.0 + y_max) * d.sqrt() + 0.5 * d)
}

/// The **L2** sensitivity of the Poisson coefficient vector for a generic
/// surrogate `(a₁, a₂)` and count cap `y_max`: the degree-1 block is
/// `(a₁ − y)·x` with `y ∈ [0, y_max]` (worst case `max(|a₁|, |y_max − a₁|)`),
/// the degree-2 block `a₂·x xᵀ`; the constant cancels between neighbours.
/// `Δ₂ = 2√(max(|a₁|, |y_max − a₁|)² + a₂²)` — independent of `d`.
#[must_use]
pub fn sensitivity_l2_for(a1: f64, a2: f64, y_max: f64) -> f64 {
    let lin = a1.abs().max((y_max - a1).abs());
    2.0 * (lin * lin + a2 * a2).sqrt()
}

/// The L2 sensitivity under the Taylor surrogate (`a₁ = 1`, `a₂ = ½`).
#[must_use]
pub fn sensitivity_l2(y_max: f64) -> f64 {
    sensitivity_l2_for(1.0, 0.5, y_max)
}

/// The truncated Poisson objective in Algorithm-1 form.
#[derive(Debug, Clone, Copy)]
pub struct PoissonObjective {
    component: TaylorComponent,
    a1_abs: f64,
    a2_abs: f64,
    y_max: f64,
}

impl PoissonObjective {
    /// The Taylor surrogate (`1 + z + z²/2`) with count cap `y_max`.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a non-finite or non-positive cap.
    pub fn taylor(y_max: f64) -> Result<Self> {
        Self::validate_cap(y_max)?;
        Ok(PoissonObjective {
            component: poisson_exp_component(),
            a1_abs: 1.0,
            a2_abs: 0.5,
            y_max,
        })
    }

    /// The Chebyshev surrogate of `eᶻ` over `[−half_width, half_width]`
    /// with count cap `y_max`.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for bad `y_max` or `half_width`.
    pub fn chebyshev(y_max: f64, half_width: f64) -> Result<Self> {
        Self::validate_cap(y_max)?;
        if !half_width.is_finite() || half_width <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "half_width",
                reason: format!("{half_width} must be finite and > 0"),
            });
        }
        let cheb = ChebyshevQuadratic::fit(f64::exp, half_width);
        let [_, a1, a2] = cheb.coefficients();
        Ok(PoissonObjective {
            component: cheb.as_component(),
            a1_abs: a1.abs(),
            a2_abs: a2.abs(),
            y_max,
        })
    }

    /// Builds from an [`Approximation`] choice (shared with logistic).
    ///
    /// # Errors
    /// As [`PoissonObjective::taylor`] / [`PoissonObjective::chebyshev`].
    pub fn from_approximation(y_max: f64, approximation: Approximation) -> Result<Self> {
        match approximation {
            Approximation::Taylor => Self::taylor(y_max),
            Approximation::Chebyshev { half_width } => Self::chebyshev(y_max, half_width),
        }
    }

    fn validate_cap(y_max: f64) -> Result<()> {
        if !y_max.is_finite() || y_max <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "y_max",
                reason: format!("{y_max} must be finite and > 0"),
            });
        }
        Ok(())
    }

    /// The configured count cap.
    #[must_use]
    pub fn y_max(&self) -> f64 {
        self.y_max
    }

    /// Assembles the noise-free truncated objective (the Poisson analogue
    /// of [`crate::logreg::truncated_objective`]).
    #[must_use]
    pub fn assemble_objective(&self, data: &Dataset) -> QuadraticForm {
        self.assemble(data)
    }
}

impl PolynomialObjective for PoissonObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        // Surrogate eᶻ part: β += a₀, α += a₁x, M += a₂xxᵀ.
        self.component.accumulate_into(x, q);
        // Exact −y·xᵀω part.
        if y != 0.0 {
            let neg_yx: Vec<f64> = x.iter().map(|&v| -y * v).collect();
            identity_component().accumulate_into(&neg_yx, q);
        }
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        // Surrogate batched: β += k·a₀, α += a₁·Σx, M += a₂·XᵀX.
        self.component.accumulate_batch_into(xs, q);
        // Exact −y·xᵀω part batched: α += −Xᵀy.
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
        let s = match bound {
            SensitivityBound::Paper => d as f64,
            SensitivityBound::Tight => (d as f64).sqrt(),
        };
        2.0 * ((self.a1_abs + self.y_max) * s + self.a2_abs * s * s)
    }

    fn sensitivity_l2(&self, _d: usize) -> f64 {
        sensitivity_l2_for(self.a1_abs, self.a2_abs, self.y_max)
    }

    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        data.check_normalized_counts(self.y_max)
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_counts(xs, ys, d, self.y_max)
    }
}

impl RegressionObjective for PoissonObjective {
    type Model = PoissonModel;
}

/// The Poisson-specific builder knobs carried next to the shared
/// [`crate::estimator::FitConfig`]: the surrogate choice and the count cap.
#[derive(Debug, Clone, Copy)]
pub struct PoissonSettings {
    approximation: Approximation,
    y_max: f64,
}

impl Default for PoissonSettings {
    fn default() -> Self {
        PoissonSettings {
            approximation: Approximation::Taylor,
            y_max: DEFAULT_Y_MAX,
        }
    }
}

impl Family for PoissonSettings {
    type Objective = PoissonObjective;

    fn objective(&self) -> Result<PoissonObjective> {
        PoissonObjective::from_approximation(self.y_max, self.approximation)
    }
}

/// Builder for [`DpPoissonRegression`]: the shared [`EstimatorBuilder`]
/// knobs plus the surrogate choice and count cap.
pub type DpPoissonRegressionBuilder = EstimatorBuilder<PoissonSettings>;

impl DpPoissonRegressionBuilder {
    /// Chooses the degree-2 surrogate of `eᶻ` (default Taylor).
    #[must_use]
    pub fn approximation(mut self, approximation: Approximation) -> Self {
        self.family.approximation = approximation;
        self
    }

    /// Sets the count cap `y_max` (default [`DEFAULT_Y_MAX`]). Labels above
    /// the cap are a contract violation — clip counts when preparing the
    /// data. A larger cap admits larger counts but scales Δ linearly.
    #[must_use]
    pub fn y_max(mut self, y_max: f64) -> Self {
        self.family.y_max = y_max;
        self
    }
}

/// ε-differentially private Poisson regression via the Functional
/// Mechanism: the generic [`FamilyEstimator`] over [`PoissonSettings`],
/// which builds a [`PoissonObjective`] from the configured surrogate and
/// count cap at fit time (a bad `y_max` or Chebyshev interval is refused
/// there). Data must satisfy the count contract (`‖x‖₂ ≤ 1`,
/// `y ∈ [0, y_max]`).
///
/// ```
/// use fm_core::poisson::DpPoissonRegression;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let data = fm_data::synth::poisson_dataset(&mut rng, 20_000, 3, 8.0);
/// let model = DpPoissonRegression::builder()
///     .epsilon(1.0)
///     .build()
///     .fit(&data, &mut rng)
///     .unwrap();
/// assert!(model.rate(data.x().row(0)) > 0.0);
/// ```
pub type DpPoissonRegression = FamilyEstimator<PoissonSettings>;

impl DpPoissonRegression {
    /// The configured count cap.
    #[must_use]
    pub fn y_max(&self) -> f64 {
        self.family.y_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_linalg::vecops;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4242)
    }

    #[test]
    fn sensitivity_formulas() {
        // Δ = 2((1 + y_max)d + d²/2).
        assert_eq!(sensitivity_paper(2, 8.0), 2.0 * (9.0 * 2.0 + 2.0));
        assert_eq!(sensitivity_paper(4, 1.0), 2.0 * (2.0 * 4.0 + 8.0));
        for d in 2..16 {
            assert!(sensitivity_tight(d, 8.0) < sensitivity_paper(d, 8.0));
        }
        // The objective agrees with the free functions for Taylor.
        let obj = PoissonObjective::taylor(8.0).unwrap();
        for d in [1usize, 3, 14] {
            assert!(
                (obj.sensitivity(d, SensitivityBound::Paper) - sensitivity_paper(d, 8.0)).abs()
                    < 1e-12
            );
            assert!(
                (obj.sensitivity(d, SensitivityBound::Tight) - sensitivity_tight(d, 8.0)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn lemma1_contract_per_tuple_l1_below_half_delta() {
        let mut r = rng();
        let y_max = 5.0;
        for approx in [
            Approximation::Taylor,
            Approximation::Chebyshev { half_width: 1.0 },
        ] {
            let obj = PoissonObjective::from_approximation(y_max, approx).unwrap();
            for d in [1usize, 3, 7] {
                let delta = obj.sensitivity(d, SensitivityBound::Paper);
                let tight = obj.sensitivity(d, SensitivityBound::Tight);
                for _ in 0..150 {
                    let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                    let y = rand::Rng::gen_range(&mut r, 0..=(y_max as u64)) as f64;
                    let mut q = QuadraticForm::zero(d);
                    obj.accumulate_tuple(&x, y, &mut q);
                    let l1 = q.coefficient_l1_norm();
                    assert!(l1 <= delta / 2.0 + 1e-9, "{approx:?} d={d}: {l1}");
                    assert!(l1 <= tight / 2.0 + 1e-9, "{approx:?} d={d}: {l1} (tight)");
                }
            }
        }
    }

    #[test]
    fn truncated_objective_matches_loss_at_origin() {
        // At ω = 0: exp(0) − y·0 = 1 per tuple ⇒ f̂_D(0) = n (Taylor a₀ = 1).
        let mut r = rng();
        let data = fm_data::synth::poisson_dataset(&mut r, 300, 3, 8.0);
        let obj = PoissonObjective::taylor(8.0).unwrap();
        let q = obj.assemble_objective(&data);
        assert!((q.eval(&[0.0, 0.0, 0.0]) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_error_within_lemma4_bound() {
        let mut r = rng();
        let data = fm_data::synth::poisson_dataset(&mut r, 400, 2, 8.0);
        let obj = PoissonObjective::taylor(8.0).unwrap();
        let q = obj.assemble_objective(&data);
        let omega = [0.4, -0.3];
        let exact: f64 = data
            .tuples()
            .map(|(x, y)| {
                let z = vecops::dot(x, &omega);
                z.exp() - y * z
            })
            .sum();
        // Per-tuple remainder ≤ max|f'''|/6 = e/6 over |z| ≤ 1.
        let bound = std::f64::consts::E / 6.0 * data.n() as f64;
        assert!((q.eval(&omega) - exact).abs() <= bound);
    }

    #[test]
    fn non_private_fit_recovers_rate_direction() {
        let mut r = rng();
        let w = vec![0.5, -0.3];
        let data = fm_data::synth::poisson_dataset_with_weights(&mut r, 50_000, &w, 10.0);
        let model = DpPoissonRegression::builder()
            .y_max(10.0)
            .build()
            .fit_truncated_without_privacy(&data)
            .unwrap();
        let cos =
            vecops::dot(model.weights(), &w) / (vecops::norm2(model.weights()) * vecops::norm2(&w));
        assert!(cos > 0.95, "cosine {cos}, weights {:?}", model.weights());
    }

    #[test]
    fn private_fit_close_on_large_data() {
        let mut r = rng();
        let w = vec![0.4, 0.2];
        let data = fm_data::synth::poisson_dataset_with_weights(&mut r, 80_000, &w, 8.0);
        let model = DpPoissonRegression::builder()
            .epsilon(2.0)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        // Predictions correlate with ground-truth rates: higher true rate ⇒
        // higher predicted rate on average.
        let truth = PoissonModel::new(w.clone(), None);
        let (mut hi, mut lo, mut nh, mut nl) = (0.0, 0.0, 0usize, 0usize);
        for (x, _) in data.tuples() {
            let pred = model.rate(x);
            if truth.rate(x) > 1.2 {
                hi += pred;
                nh += 1;
            } else if truth.rate(x) < 0.8 {
                lo += pred;
                nl += 1;
            }
        }
        assert!(hi / nh as f64 > lo / nl as f64, "rates not ordered");
    }

    #[test]
    fn more_budget_means_less_error() {
        let mut r = rng();
        let w = vec![0.5, 0.1];
        let data = fm_data::synth::poisson_dataset_with_weights(&mut r, 10_000, &w, 8.0);
        let reps = 12;
        let mean_err = |eps: f64, r: &mut rand::rngs::StdRng| -> f64 {
            (0..reps)
                .map(|_| {
                    let m = DpPoissonRegression::builder()
                        .epsilon(eps)
                        .build()
                        .fit(&data, r)
                        .unwrap();
                    vecops::dist2(m.weights(), &w)
                })
                .sum::<f64>()
                / reps as f64
        };
        let hi = mean_err(20.0, &mut r);
        let lo = mean_err(0.05, &mut r);
        assert!(hi < lo, "ε=20 err {hi} should beat ε=0.05 err {lo}");
    }

    #[test]
    fn intercept_fit_captures_base_rate() {
        // Counts with a global base rate: y ~ Poisson(2) independent of x.
        let mut r = rng();
        let n = 30_000;
        let x = fm_linalg::Matrix::from_fn(n, 2, |i, j| {
            (((i * 13 + j * 7) % 100) as f64 / 100.0 - 0.5) / 2.0
        });
        let y: Vec<f64> = (0..n)
            .map(|_| (fm_data::synth::sample_poisson(&mut r, 2.0) as f64).min(8.0))
            .collect();
        let data = Dataset::new(x, y).unwrap();
        let model = DpPoissonRegression::builder()
            .fit_intercept(true)
            .build()
            .fit_truncated_without_privacy(&data)
            .unwrap();
        // The truncated surrogate is biased for rates this far from 1, but
        // the intercept must capture most of the log-rate (log 2 ≈ 0.69).
        assert!(model.intercept() > 0.3, "b = {}", model.intercept());
        assert!(
            model.rate(&[0.0, 0.0]) > 1.3,
            "rate {}",
            model.rate(&[0.0, 0.0])
        );
    }

    #[test]
    fn rejects_out_of_contract_labels() {
        let x = fm_linalg::Matrix::from_rows(&[&[0.1, 0.1]]).unwrap();
        let over_cap = Dataset::new(x.clone(), vec![100.0]).unwrap();
        let mut r = rng();
        assert!(matches!(
            DpPoissonRegression::builder()
                .build()
                .fit(&over_cap, &mut r),
            Err(FmError::Data(_))
        ));
        let negative = Dataset::new(x, vec![-2.0]).unwrap();
        assert!(matches!(
            DpPoissonRegression::builder()
                .build()
                .fit(&negative, &mut r),
            Err(FmError::Data(_))
        ));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(PoissonObjective::taylor(0.0).is_err());
        assert!(PoissonObjective::taylor(f64::NAN).is_err());
        assert!(PoissonObjective::chebyshev(8.0, -1.0).is_err());
        let mut r = rng();
        let data = fm_data::synth::poisson_dataset(&mut r, 100, 2, 8.0);
        assert!(DpPoissonRegression::builder()
            .y_max(-5.0)
            .build()
            .fit(&data, &mut r)
            .is_err());
    }

    #[test]
    fn noise_independent_of_cardinality() {
        let mut r = rng();
        let small = fm_data::synth::poisson_dataset(&mut r, 100, 4, 8.0);
        let large = fm_data::synth::poisson_dataset(&mut r, 10_000, 4, 8.0);
        let fm = crate::mechanism::FunctionalMechanism::new(1.0).unwrap();
        let obj = PoissonObjective::taylor(8.0).unwrap();
        let ns = fm.perturb(&small, &obj, &mut r).unwrap();
        let nl = fm.perturb(&large, &obj, &mut r).unwrap();
        assert_eq!(ns.sensitivity(), nl.sensitivity());
        assert_eq!(ns.noise_scale(), nl.noise_scale());
    }

    #[test]
    fn larger_cap_means_more_noise() {
        let a = PoissonObjective::taylor(2.0).unwrap();
        let b = PoissonObjective::taylor(20.0).unwrap();
        assert!(
            a.sensitivity(5, SensitivityBound::Paper) < b.sensitivity(5, SensitivityBound::Paper)
        );
    }

    #[test]
    fn model_accessors() {
        let m = PoissonModel::with_intercept(vec![0.5], 0.2, Some(1.0));
        assert_eq!(m.dim(), 1);
        assert_eq!(m.epsilon(), Some(1.0));
        assert!((m.log_rate(&[1.0]) - 0.7).abs() < 1e-15);
        assert!((m.rate(&[1.0]) - 0.7f64.exp()).abs() < 1e-12);
        let x = fm_linalg::Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let rates = m.rates_batch(&x);
        assert!((rates[1] - 0.2f64.exp()).abs() < 1e-12);
    }
}
