//! Section 4.2: ε-differentially private **linear regression**.
//!
//! The cost `f(t_i, ω) = (y_i − x_iᵀω)²` is already a degree-2 polynomial
//! in ω:
//!
//! ```text
//! f_D(ω) = Σ y_i²  −  Σ_j (2 Σ_i y_i x_ij) ω_j  +  Σ_{j,l} (Σ_i x_ij x_il) ω_j ω_l
//!        =  β      +           αᵀω            +        ωᵀMω
//! ```
//!
//! with `M = Σ x_i x_iᵀ`, `α = −2Σ y_i x_i`, `β = Σ y_i²`. Under the
//! normalized domain (`‖x‖₂ ≤ 1`, `y ∈ [−1,1]`) the paper bounds the
//! coefficient sensitivity by `Δ = 2(1 + 2d + d²) = 2(d+1)²`.

use fm_poly::QuadraticForm;

use crate::estimator::{EstimatorBuilder, FmEstimator, RegressionObjective};
use crate::mechanism::{PolynomialObjective, SensitivityBound};
use crate::model::LinearModel;

/// The paper's linear-regression sensitivity: `Δ = 2(d+1)²` (Section 4.2).
#[must_use]
pub fn sensitivity_paper(d: usize) -> f64 {
    let dp1 = (d + 1) as f64;
    2.0 * dp1 * dp1
}

/// Cauchy–Schwarz-tightened sensitivity: with `‖x‖₂ ≤ 1`,
/// `Σ|x_j| ≤ √d`, so `Δ = 2(1 + 2√d + d) = 2(1+√d)²`. Still a valid upper
/// bound ⇒ still ε-DP; used by the ablation experiments.
#[must_use]
pub fn sensitivity_tight(d: usize) -> f64 {
    let s = 1.0 + (d as f64).sqrt();
    2.0 * s * s
}

/// The **L2** sensitivity of the linear-regression coefficient vector,
/// used by the (ε, δ) Gaussian variant: per tuple the blocks are
/// `(y², −2y·x, x xᵀ)` with `‖x‖₂ ≤ 1`, `|y| ≤ 1`, so
/// `‖λ_t‖₂² ≤ y⁴ + 4y²‖x‖² + ‖x xᵀ‖_F² ≤ 1 + 4 + 1 = 6` and
/// `Δ₂ = 2√6 ≈ 4.9` — **independent of `d`**, in contrast to the L1 bound
/// `2(d+1)²`.
#[must_use]
pub fn sensitivity_l2() -> f64 {
    2.0 * 6.0_f64.sqrt()
}

/// The linear-regression objective in Algorithm-1 form.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearObjective;

impl PolynomialObjective for LinearObjective {
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
        // β += y²; α += −2y·x; M += x xᵀ.
        *q.beta_mut() += y * y;
        fm_linalg::vecops::axpy(-2.0 * y, x, q.alpha_mut());
        q.m_mut()
            .rank1_update(1.0, x)
            .expect("dataset row arity matches objective dimension");
    }

    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        // The three Gram products of the expanded objective: β += yᵀy
        // (reads only the labels), then α += −2·Xᵀy fused into the XᵀX
        // pack pass — the syrk kernel transposes each panel of tuples into
        // column-major scratch anyway, so the Xᵀy dots read that pack
        // instead of streaming the row-major block a second time. The
        // per-column four-row grouping matches `gemv_t_acc` exactly and
        // panels break on multiples of eight, so the fusion is
        // bit-identical to the two-pass path (and to the columnar twin
        // below; pinned by `tests/batched_assembly.rs`).
        *q.beta_mut() += fm_linalg::vecops::sum_squares(ys);
        let (_, alpha, m) = q.parts_mut();
        let mut pos = 0usize;
        m.syrk_acc_visit(1.0, xs, d, &mut |panel, pk| {
            for (j, out) in alpha.iter_mut().enumerate() {
                fm_linalg::vecops::dot_blocked_acc(
                    -2.0,
                    &panel[j * pk..(j + 1) * pk],
                    &ys[pos..pos + pk],
                    out,
                );
            }
            pos += pk;
        })
        .expect("dataset row arity matches objective dimension");
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
        // Same three Gram products read from the cached transpose;
        // bit-identical grouping to the row-major kernels above.
        let yr = &ys[lo..hi];
        *q.beta_mut() += fm_linalg::vecops::sum_squares(yr);
        for (j, out) in q.alpha_mut().iter_mut().enumerate() {
            fm_linalg::vecops::dot_blocked_acc(-2.0, &xt.row(j)[lo..hi], yr, out);
        }
        q.m_mut()
            .syrk_cols_acc(1.0, xt, lo, hi)
            .expect("columnar view arity matches objective dimension");
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

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
    }
}

impl RegressionObjective for LinearObjective {
    type Model = LinearModel;
}

/// ε-differentially private linear regression via the Functional
/// Mechanism — the generic [`FmEstimator`] core instantiated at
/// [`LinearObjective`] (fit pipeline, intercept handling and model
/// wrapping all live in [`crate::estimator`]).
///
/// ```
/// use fm_core::linreg::DpLinearRegression;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let data = fm_data::synth::linear_dataset(&mut rng, 10_000, 3, 0.1);
/// let model = DpLinearRegression::builder()
///     .epsilon(0.8)
///     .build()
///     .fit(&data, &mut rng)
///     .unwrap();
/// assert_eq!(model.epsilon(), Some(0.8));
/// ```
pub type DpLinearRegression = FmEstimator<LinearObjective>;

/// Builder for [`DpLinearRegression`] — the shared
/// [`EstimatorBuilder`] with no family-specific knobs.
pub type DpLinearRegressionBuilder = EstimatorBuilder<LinearObjective>;

impl DpLinearRegressionBuilder {
    /// Finalises the configuration.
    #[must_use]
    pub fn build(self) -> DpLinearRegression {
        FmEstimator::new(self.family, self.config)
    }
}

impl DpLinearRegression {
    /// Starts a builder with defaults (ε = 1, paper sensitivity,
    /// regularize-then-trim, no intercept).
    #[must_use]
    pub fn builder() -> DpLinearRegressionBuilder {
        DpLinearRegressionBuilder::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FmError, NoiseDistribution, Strategy};
    use fm_data::Dataset;
    use fm_linalg::{vecops, Matrix};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(271828)
    }

    #[test]
    fn sensitivities_match_paper() {
        assert_eq!(sensitivity_paper(1), 8.0); // the worked example's Δ = 8
        assert_eq!(sensitivity_paper(3), 32.0);
        assert_eq!(sensitivity_paper(13), 392.0);
        // Tight bound is strictly smaller for d > 1 and equal at d = 1.
        assert_eq!(sensitivity_tight(1), 8.0);
        for d in 2..20 {
            assert!(sensitivity_tight(d) < sensitivity_paper(d));
        }
    }

    #[test]
    fn paper_worked_example_coefficients() {
        // D = {(1, 0.4), (0.9, 0.3), (−0.5, −1)} ⇒ f_D = 2.06ω² − 2.34ω + 1.25.
        let x = Matrix::from_rows(&[&[1.0], &[0.9], &[-0.5]]).unwrap();
        let data = Dataset::new(x, vec![0.4, 0.3, -1.0]).unwrap();
        let q = LinearObjective.assemble(&data);
        assert!((q.m()[(0, 0)] - 2.06).abs() < 1e-12);
        assert!((q.alpha()[0] + 2.34).abs() < 1e-12);
        assert!((q.beta() - 1.25).abs() < 1e-12);
        // ω* = 117/206.
        let model = DpLinearRegression::builder()
            .build()
            .fit_without_privacy(&data)
            .unwrap();
        assert!((model.weights()[0] - 117.0 / 206.0).abs() < 1e-12);
    }

    #[test]
    fn lemma1_contract_per_tuple_l1_below_half_delta() {
        // Machine-check the sensitivity contract on random in-domain
        // tuples: per-tuple coefficient L1 — β = y² included, since the
        // mechanism releases it and Δ's +1 is its share — ≤ Δ/2.
        let mut r = rng();
        for d in [1usize, 3, 7, 13] {
            let delta = LinearObjective.sensitivity(d, SensitivityBound::Paper);
            let tight = LinearObjective.sensitivity(d, SensitivityBound::Tight);
            for _ in 0..200 {
                let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                let y = rand::Rng::gen_range(&mut r, -1.0..=1.0);
                let mut q = QuadraticForm::zero(d);
                LinearObjective.accumulate_tuple(&x, y, &mut q);
                let l1 = q.coefficient_l1_norm_with_constant();
                assert!(
                    l1 <= delta / 2.0 + 1e-9,
                    "d={d}: L1 {l1} > Δ/2 {}",
                    delta / 2.0
                );
                assert!(l1 <= tight / 2.0 + 1e-9, "d={d}: L1 {l1} > tight Δ/2");
            }
        }
    }

    #[test]
    fn non_private_fit_recovers_ground_truth() {
        let mut r = rng();
        let w = vec![0.3, -0.2, 0.1];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 20_000, &w, 0.01);
        let model = DpLinearRegression::builder()
            .build()
            .fit_without_privacy(&data)
            .unwrap();
        assert!(
            vecops::dist2(model.weights(), &w) < 0.02,
            "weights {:?}",
            model.weights()
        );
    }

    #[test]
    fn private_fit_close_to_truth_on_large_data() {
        // Theorem 2 in action: with n large the DP estimate approaches ω*.
        let mut r = rng();
        let w = vec![0.4, -0.3];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 60_000, &w, 0.02);
        let model = DpLinearRegression::builder()
            .epsilon(1.0)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        assert!(
            vecops::dist2(model.weights(), &w) < 0.1,
            "weights {:?}",
            model.weights()
        );
    }

    #[test]
    fn more_budget_means_less_error() {
        // Average over repeats: ε = 10 must beat ε = 0.05 on the same data.
        let mut r = rng();
        let w = vec![0.5, 0.2];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 5_000, &w, 0.05);
        let reps = 15;
        let mean_err = |eps: f64, r: &mut rand::rngs::StdRng| -> f64 {
            (0..reps)
                .map(|_| {
                    let m = DpLinearRegression::builder()
                        .epsilon(eps)
                        .build()
                        .fit(&data, r)
                        .unwrap();
                    vecops::dist2(m.weights(), &w)
                })
                .sum::<f64>()
                / reps as f64
        };
        let hi = mean_err(10.0, &mut r);
        let lo = mean_err(0.05, &mut r);
        assert!(hi < lo, "ε=10 err {hi} should beat ε=0.05 err {lo}");
    }

    #[test]
    fn strategies_all_fit_on_friendly_data() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 20_000, 3, 0.05);
        for strategy in [
            Strategy::RegularizeThenTrim,
            Strategy::RegularizeOnly,
            Strategy::Resample { max_attempts: 50 },
        ] {
            let model = DpLinearRegression::builder()
                .epsilon(2.0)
                .strategy(strategy)
                .build()
                .fit(&data, &mut r)
                .unwrap();
            assert_eq!(model.dim(), 3);
        }
    }

    #[test]
    fn resample_zero_attempts_rejected() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.05);
        let err = DpLinearRegression::builder()
            .strategy(Strategy::Resample { max_attempts: 0 })
            .build()
            .fit(&data, &mut r)
            .unwrap_err();
        assert!(matches!(err, FmError::InvalidConfig { .. }));
    }

    #[test]
    fn invalid_epsilon_rejected_at_fit() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.05);
        let err = DpLinearRegression::builder()
            .epsilon(-1.0)
            .build()
            .fit(&data, &mut r)
            .unwrap_err();
        assert!(matches!(err, FmError::InvalidConfig { .. }));
    }

    #[test]
    fn unnormalized_data_rejected() {
        let x = Matrix::from_rows(&[&[3.0, 0.0]]).unwrap();
        let data = Dataset::new(x, vec![0.5]).unwrap();
        let mut r = rng();
        assert!(matches!(
            DpLinearRegression::builder().build().fit(&data, &mut r),
            Err(FmError::Data(_))
        ));
    }

    #[test]
    fn intercept_fit_recovers_offset() {
        // y = xᵀw + 0.3: the plain model can't express the offset; the
        // footnote-2 model must recover both w and b (non-privately, exact).
        let w = [0.3, -0.2];
        let n = 5_000;
        let x = Matrix::from_fn(n, 2, |i, j| {
            // Deterministic in-ball features.
            let t = (i * 13 + j * 7) % 100;
            (t as f64 / 100.0 - 0.5) / 2.0
        });
        let y: Vec<f64> = (0..n).map(|i| vecops::dot(x.row(i), &w) + 0.3).collect();
        let data = Dataset::new(x, y).unwrap();
        let model = DpLinearRegression::builder()
            .fit_intercept(true)
            .build()
            .fit_without_privacy(&data)
            .unwrap();
        assert!(
            vecops::approx_eq(model.weights(), &w, 1e-9),
            "{:?}",
            model.weights()
        );
        assert!(
            (model.intercept() - 0.3).abs() < 1e-9,
            "b = {}",
            model.intercept()
        );
        // Predictions include the offset.
        assert!((model.predict(&[0.0, 0.0]) - 0.3).abs() < 1e-9);

        // The plain model is strictly worse on this data.
        let flat = DpLinearRegression::builder()
            .build()
            .fit_without_privacy(&data)
            .unwrap();
        let mse = |m: &LinearModel| fm_data::metrics::mse(&m.predict_batch(data.x()), data.y());
        assert!(mse(&model) < mse(&flat), "intercept must help");
    }

    #[test]
    fn private_intercept_fit_close_to_truth_on_large_data() {
        let mut r = rng();
        let w = vec![0.4, -0.3];
        // Build offset data inside the contract: y = xᵀw + 0.2 ∈ [−1, 1].
        let base = fm_data::synth::linear_dataset_with_weights(&mut r, 80_000, &w, 0.02);
        let y: Vec<f64> = base
            .y()
            .iter()
            .map(|y| (y + 0.2).clamp(-1.0, 1.0))
            .collect();
        let data = Dataset::new(base.x().clone(), y).unwrap();
        let model = DpLinearRegression::builder()
            .epsilon(2.0)
            .fit_intercept(true)
            .build()
            .fit(&data, &mut r)
            .unwrap();
        assert!(
            vecops::dist2(model.weights(), &w) < 0.15,
            "weights {:?}",
            model.weights()
        );
        assert!(
            (model.intercept() - 0.2).abs() < 0.15,
            "b = {}",
            model.intercept()
        );
    }

    #[test]
    fn l2_sensitivity_is_dimension_independent() {
        assert!((sensitivity_l2() - 2.0 * 6.0_f64.sqrt()).abs() < 1e-15);
        // Per-tuple L2 (including β) never exceeds Δ₂/2, for any d.
        let mut r = rng();
        for d in [1usize, 3, 8, 14] {
            for _ in 0..200 {
                let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                let y = rand::Rng::gen_range(&mut r, -1.0..=1.0);
                let mut q = QuadraticForm::zero(d);
                LinearObjective.accumulate_tuple(&x, y, &mut q);
                let l2 = (q.beta() * q.beta()
                    + vecops::dot(q.alpha(), q.alpha())
                    + q.m().frobenius_norm().powi(2))
                .sqrt();
                assert!(l2 <= sensitivity_l2() / 2.0 + 1e-9, "d={d}: {l2}");
            }
        }
    }

    #[test]
    fn gaussian_variant_fits_and_records_delta() {
        let mut r = rng();
        let w = vec![0.4, -0.3];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 30_000, &w, 0.02);
        let model = DpLinearRegression::builder()
            .epsilon(0.8)
            .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
            .build()
            .fit(&data, &mut r)
            .unwrap();
        assert_eq!(model.dim(), 2);
        assert!(
            vecops::dist2(model.weights(), &w) < 0.2,
            "{:?}",
            model.weights()
        );
    }

    #[test]
    fn gaussian_variant_beats_laplace_at_high_dimension() {
        // The whole point of the (ε, δ) relaxation: at d = 10 the Laplace
        // noise scale is 2(d+1)²/ε = 242/ε per coefficient, the Gaussian σ
        // is 2√6·√(2 ln 1.25e6)/ε ≈ 26/ε — expect much lower error.
        let mut r = rng();
        let d = 10;
        let data = fm_data::synth::linear_dataset(&mut r, 5_000, d, 0.05);
        let clean = DpLinearRegression::builder()
            .build()
            .fit_without_privacy(&data)
            .unwrap();
        let reps = 10;
        let mean_err = |noise: NoiseDistribution, r: &mut rand::rngs::StdRng| -> f64 {
            (0..reps)
                .map(|_| {
                    let m = DpLinearRegression::builder()
                        .epsilon(0.8)
                        .noise(noise)
                        .build()
                        .fit(&data, r)
                        .unwrap();
                    vecops::dist2(m.weights(), clean.weights())
                })
                .sum::<f64>()
                / reps as f64
        };
        let laplace = mean_err(NoiseDistribution::Laplace, &mut r);
        let gaussian = mean_err(NoiseDistribution::Gaussian { delta: 1e-6 }, &mut r);
        assert!(
            gaussian < laplace,
            "gaussian {gaussian} should beat laplace {laplace} at d={d}"
        );
    }

    #[test]
    fn gaussian_variant_rejects_bad_config() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.05);
        // δ outside (0, 1).
        for delta in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(matches!(
                DpLinearRegression::builder()
                    .noise(NoiseDistribution::Gaussian { delta })
                    .build()
                    .fit(&data, &mut r),
                Err(FmError::InvalidConfig { .. })
            ));
        }
        // ε ≥ 1 invalid for the classical mechanism.
        assert!(DpLinearRegression::builder()
            .epsilon(1.5)
            .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
            .build()
            .fit(&data, &mut r)
            .is_err());
        // Resample + Gaussian is refused (Lemma 5 is Laplace-specific).
        assert!(matches!(
            DpLinearRegression::builder()
                .epsilon(0.5)
                .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
                .strategy(Strategy::Resample { max_attempts: 5 })
                .build()
                .fit(&data, &mut r),
            Err(FmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn tight_bound_gives_lower_error_on_average() {
        let mut r = rng();
        let w = vec![0.4, -0.1, 0.2];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 3_000, &w, 0.05);
        let reps = 20;
        let mean_err = |bound: SensitivityBound, r: &mut rand::rngs::StdRng| -> f64 {
            (0..reps)
                .map(|_| {
                    let m = DpLinearRegression::builder()
                        .epsilon(0.5)
                        .sensitivity_bound(bound)
                        .build()
                        .fit(&data, r)
                        .unwrap();
                    vecops::dist2(m.weights(), &w)
                })
                .sum::<f64>()
                / reps as f64
        };
        let paper = mean_err(SensitivityBound::Paper, &mut r);
        let tight = mean_err(SensitivityBound::Tight, &mut r);
        assert!(tight < paper, "tight {tight} should beat paper {paper}");
    }
}
