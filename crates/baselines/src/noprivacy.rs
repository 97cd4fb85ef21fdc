//! The **NoPrivacy** baseline: exact regression with no noise.
//!
//! This is the accuracy ceiling every private method is measured against in
//! Figures 4–6, and the running-time *floor* the paper's Figures 7–9
//! compare FM's closed-form solve to (exact logistic regression must
//! iterate).

use fm_data::Dataset;
use fm_linalg::{qr, vecops, Matrix};
use fm_optim::newton::Newton;
use fm_optim::{Objective, TwiceDifferentiable};

use fm_core::model::{LinearModel, LogisticModel};
use fm_poly::taylor::log1p_exp;

use crate::Result;

/// Which dense solver OLS runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OlsSolver {
    /// Householder QR on the design matrix (default) — better conditioned
    /// than the normal equations for the correlated census attributes, but
    /// fails with an explicit error on rank-deficient input.
    #[default]
    Qr,
    /// The normal equations `XᵀX ω = Xᵀy` solved by LU, matching the
    /// objective assembly FM perturbs; semi-definite failures surface as
    /// explicit `Singular` errors.
    NormalEquations,
}

/// Ordinary least squares.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearRegression {
    /// The dense solver to run (default [`OlsSolver::Qr`]).
    pub solver: OlsSolver,
}

impl LinearRegression {
    /// OLS configured for QR solving.
    #[must_use]
    pub fn new() -> Self {
        LinearRegression {
            solver: OlsSolver::Qr,
        }
    }

    /// OLS via the normal equations (`XᵀX ω = Xᵀy`); see
    /// [`OlsSolver::NormalEquations`].
    #[must_use]
    pub fn with_normal_equations() -> Self {
        LinearRegression {
            solver: OlsSolver::NormalEquations,
        }
    }

    /// Fits `argmin_ω Σ (y_i − x_iᵀω)²`.
    ///
    /// # Errors
    /// [`crate::BaselineError::Linalg`] when the design matrix is rank
    /// deficient.
    pub fn fit(&self, data: &Dataset) -> Result<LinearModel> {
        let omega = match self.solver {
            OlsSolver::Qr => qr::lstsq(data.x(), data.y())?,
            OlsSolver::NormalEquations => {
                // Same batched Gram kernels as the Functional Mechanism's
                // coefficient assembly: XᵀX via blocked syrk, Xᵀy via the
                // transposed-gemv kernel.
                let d = data.d();
                let mut xtx = Matrix::zeros(d, d);
                let mut xty = vec![0.0; d];
                xtx.syrk_acc(1.0, data.x().as_slice(), d)?;
                vecops::gemv_t_acc(1.0, data.x().as_slice(), d, data.y(), &mut xty);
                fm_linalg::Lu::new(&xtx)?.solve(&xty)?
            }
        };
        Ok(LinearModel::new(omega, None))
    }
}

/// The exact logistic-regression objective
/// `Σ log(1 + exp(x_iᵀω)) − y_i x_iᵀω` over a dataset.
///
/// Exposed publicly so the benchmark harness can time the *objective* the
/// paper says is expensive to optimise.
#[derive(Debug)]
pub struct ExactLogisticLoss<'a> {
    data: &'a Dataset,
}

impl<'a> ExactLogisticLoss<'a> {
    /// Wraps a dataset (not validated here; `LogisticRegression::fit`
    /// validates).
    #[must_use]
    pub fn new(data: &'a Dataset) -> Self {
        ExactLogisticLoss { data }
    }
}

impl Objective for ExactLogisticLoss<'_> {
    fn dim(&self) -> usize {
        self.data.d()
    }

    fn value(&self, omega: &[f64]) -> f64 {
        self.data
            .tuples()
            .map(|(x, y)| {
                let z = vecops::dot(x, omega);
                log1p_exp(z) - y * z
            })
            .sum()
    }

    fn gradient(&self, omega: &[f64]) -> Vec<f64> {
        // ∇ = Σ (σ(xᵀω) − y)·x.
        let mut g = vec![0.0; self.dim()];
        for (x, y) in self.data.tuples() {
            let z = vecops::dot(x, omega);
            let sigma = stable_sigmoid(z);
            vecops::axpy(sigma - y, x, &mut g);
        }
        g
    }
}

impl TwiceDifferentiable for ExactLogisticLoss<'_> {
    fn hessian(&self, omega: &[f64]) -> Matrix {
        // H = Σ σ(1−σ)·x xᵀ = Xᵀ·diag(w)·X — one pass for the weights,
        // then the blocked weighted-syrk kernel (shared with the batched
        // assembly path) instead of n rank-1 updates.
        let d = self.dim();
        let w: Vec<f64> = self
            .data
            .tuples()
            .map(|(x, _)| {
                let sigma = stable_sigmoid(vecops::dot(x, omega));
                sigma * (1.0 - sigma)
            })
            .collect();
        let mut h = Matrix::zeros(d, d);
        h.syrk_weighted_acc(1.0, self.data.x().as_slice(), d, &w)
            .expect("row arity");
        h
    }
}

fn stable_sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Exact (maximum-likelihood) logistic regression via damped Newton.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    solver: Newton,
    /// Tiny ridge added to the Hessian for strict convexity on separable
    /// data (exact MLE diverges there; this is standard practice and does
    /// not affect the paper's comparisons).
    ridge: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            solver: Newton {
                max_iters: 100,
                grad_tol: 1e-8,
            },
            ridge: 1e-9,
        }
    }
}

impl LogisticRegression {
    /// Newton-based exact logistic regression with default tolerances.
    #[must_use]
    pub fn new() -> Self {
        LogisticRegression::default()
    }

    /// Fits the exact MLE (up to a `1e-9` ridge).
    ///
    /// # Errors
    /// * [`crate::BaselineError::Data`] if labels are not `{0, 1}`.
    /// * [`crate::BaselineError::Optim`] on solver breakdown.
    pub fn fit(&self, data: &Dataset) -> Result<LogisticModel> {
        data.check_normalized_logistic()?;
        self.fit_unchecked(data)
    }

    /// Fits without the `‖x‖₂ ≤ 1` contract check. For *synthetic* inputs
    /// produced by the histogram baselines, whose box-domain cell centres
    /// can lie slightly outside the unit ball — the contract only matters
    /// for sensitivity analysis, which does not apply to post-processed
    /// synthetic data.
    ///
    /// # Errors
    /// [`crate::BaselineError::Optim`] on solver breakdown.
    pub fn fit_unchecked(&self, data: &Dataset) -> Result<LogisticModel> {
        let loss = RidgedLoss {
            inner: ExactLogisticLoss::new(data),
            ridge: self.ridge,
        };
        let start = vec![0.0; data.d()];
        let result = self.solver.minimize(&loss, &start)?;
        Ok(LogisticModel::new(result.omega, None))
    }
}

/// `ExactLogisticLoss + (ridge/2)·‖ω‖²`.
struct RidgedLoss<'a> {
    inner: ExactLogisticLoss<'a>,
    ridge: f64,
}

impl Objective for RidgedLoss<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn value(&self, omega: &[f64]) -> f64 {
        self.inner.value(omega) + 0.5 * self.ridge * vecops::dot(omega, omega)
    }
    fn gradient(&self, omega: &[f64]) -> Vec<f64> {
        let mut g = self.inner.gradient(omega);
        vecops::axpy(self.ridge, omega, &mut g);
        g
    }
}

impl TwiceDifferentiable for RidgedLoss<'_> {
    fn hessian(&self, omega: &[f64]) -> Matrix {
        let mut h = self.inner.hessian(omega);
        h.add_diagonal(self.ridge);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineError;
    use fm_optim::numerical_gradient;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(555)
    }

    #[test]
    fn ols_recovers_exact_linear_relationship() {
        let mut r = rng();
        let w = vec![0.3, -0.5];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 500, &w, 0.0);
        for reg in [
            LinearRegression::new(),
            LinearRegression::with_normal_equations(),
        ] {
            let model = reg.fit(&data).unwrap();
            assert!(vecops::approx_eq(model.weights(), &w, 1e-8));
        }
    }

    #[test]
    fn qr_and_normal_equations_agree() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 2_000, 5, 0.1);
        let a = LinearRegression::new().fit(&data).unwrap();
        let b = LinearRegression::with_normal_equations()
            .fit(&data)
            .unwrap();
        assert!(vecops::approx_eq(a.weights(), b.weights(), 1e-7));
    }

    #[test]
    fn rank_deficient_data_is_refused() {
        // Duplicate a column: x₂ = x₁ exactly, so XᵀX is singular, and
        // both solvers must refuse with an error.
        let x = fm_linalg::Matrix::from_fn(50, 2, |r, _| ((r % 7) as f64 - 3.0) / 10.0);
        let y: Vec<f64> = (0..50).map(|r| ((r % 7) as f64 - 3.0) / 10.0).collect();
        let data = Dataset::new(x, y).unwrap();

        assert!(LinearRegression::new().fit(&data).is_err());
        assert!(LinearRegression::with_normal_equations()
            .fit(&data)
            .is_err());
    }

    #[test]
    fn ols_minimises_training_mse() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 1_000, 3, 0.2);
        let model = LinearRegression::new().fit(&data).unwrap();
        let opt_preds = model.predict_batch(data.x());
        let opt_mse = fm_data::metrics::mse(&opt_preds, data.y());
        // Any perturbed weight vector must do worse on the training data.
        for i in 0..3 {
            let mut w = model.weights().to_vec();
            w[i] += 0.05;
            let m = LinearModel::new(w, None);
            let mse = fm_data::metrics::mse(&m.predict_batch(data.x()), data.y());
            assert!(mse >= opt_mse, "perturbed {i} beat OLS");
        }
    }

    #[test]
    fn exact_loss_gradient_matches_numeric() {
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 50, 3, 5.0);
        let loss = ExactLogisticLoss::new(&data);
        let omega = [0.2, -0.4, 0.6];
        let g = loss.gradient(&omega);
        let num = numerical_gradient(&loss, &omega, 1e-6);
        assert!(vecops::approx_eq(&g, &num, 1e-5), "{g:?} vs {num:?}");
    }

    #[test]
    fn exact_loss_hessian_is_psd() {
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 100, 3, 5.0);
        let loss = ExactLogisticLoss::new(&data);
        let h = loss.hessian(&[0.1, 0.1, -0.1]);
        let eig = fm_linalg::SymmetricEigen::new(&h).unwrap();
        assert!(eig.values().iter().all(|&v| v >= -1e-10));
    }

    #[test]
    fn logistic_mle_beats_chance_and_matches_direction() {
        let mut r = rng();
        let w = vec![0.6, -0.3];
        let data = fm_data::synth::logistic_dataset_with_weights(&mut r, 20_000, &w, 10.0);
        let model = LogisticRegression::new().fit(&data).unwrap();
        let cos =
            vecops::dot(model.weights(), &w) / (vecops::norm2(model.weights()) * vecops::norm2(&w));
        assert!(cos > 0.98, "cosine {cos}");
        let probs = model.probabilities_batch(data.x());
        let err = fm_data::metrics::misclassification_rate(&probs, data.y());
        assert!(err < 0.40, "misclassification {err}");
    }

    #[test]
    fn logistic_rejects_bad_labels() {
        let x = fm_linalg::Matrix::from_rows(&[&[0.1]]).unwrap();
        let data = Dataset::new(x, vec![0.5]).unwrap();
        assert!(matches!(
            LogisticRegression::new().fit(&data),
            Err(BaselineError::Data(_))
        ));
    }

    #[test]
    fn newton_converges_in_few_iterations() {
        let mut r = rng();
        let data = fm_data::synth::logistic_dataset(&mut r, 5_000, 4, 6.0);
        let loss = RidgedLoss {
            inner: ExactLogisticLoss::new(&data),
            ridge: 1e-9,
        };
        let res = Newton::default().minimize(&loss, &[0.0; 4]).unwrap();
        assert!(res.converged);
        assert!(res.iterations < 30, "{} iterations", res.iterations);
    }
}
