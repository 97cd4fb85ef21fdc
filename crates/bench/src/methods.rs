//! Uniform dispatch over the paper's five methods — through the
//! dyn-compatible [`DpEstimator`] surface.
//!
//! Until PR 3 this module matched `(task, method)` and called five
//! different concrete `fit` signatures; now it *constructs* the method as
//! a boxed `dyn DpEstimator` ([`linear_estimator`] / [`logistic_estimator`])
//! and every fit in the harness flows through one call site —
//! [`fit_in_session`] — which debits a shared
//! [`fm_core::session::PrivacySession`] so the figure harness can report
//! the honest composed ε of its repeats × folds protocol instead of the
//! per-fit ε alone. Non-private baselines advertise `epsilon() == None`
//! and pass through the session without a debit.

use rand::rngs::StdRng;

use fm_baselines::dpme::Dpme;
use fm_baselines::estimators::{DpmeLinear, DpmeLogistic, FpLinear, FpLogistic};
use fm_baselines::fp::FilterPriority;
use fm_baselines::noprivacy::{LinearRegression, LogisticRegression};
use fm_baselines::truncated::TruncatedLogistic;
use fm_core::estimator::DpEstimator;
use fm_core::linreg::DpLinearRegression;
use fm_core::logreg::DpLogisticRegression;
use fm_core::model::{LinearModel, LogisticModel};
use fm_core::session::PrivacySession;
use fm_data::Dataset;

use crate::workload::Task;

/// The methods of Section 7's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The Functional Mechanism (this paper).
    Fm,
    /// Lei's differentially private M-estimators.
    Dpme,
    /// Cormode et al.'s Filter-Priority publication.
    Fp,
    /// Exact non-private regression.
    NoPrivacy,
    /// The §5 Taylor objective without noise (logistic only).
    Truncated,
}

impl Method {
    /// Display name used in the result tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::Fm => "FM",
            Method::Dpme => "DPME",
            Method::Fp => "FP",
            Method::NoPrivacy => "NoPrivacy",
            Method::Truncated => "Truncated",
        }
    }

    /// Whether the method consumes a privacy budget (flat lines in Fig. 6).
    #[must_use]
    pub fn is_private(self) -> bool {
        matches!(self, Method::Fm | Method::Dpme | Method::Fp)
    }

    /// The paper's method line-up for a task (Truncated only applies to
    /// logistic regression; Figures 4a–b omit it for linear).
    #[must_use]
    pub fn lineup(task: Task) -> &'static [Method] {
        match task {
            Task::Linear => &[Method::Fm, Method::Dpme, Method::Fp, Method::NoPrivacy],
            Task::Logistic => &[
                Method::Fm,
                Method::Dpme,
                Method::Fp,
                Method::NoPrivacy,
                Method::Truncated,
            ],
        }
    }
}

/// Builds `method` as a boxed [`DpEstimator`] for the **linear** task.
///
/// # Panics
/// On configuration errors (invalid ε) — the harness validates its grids
/// up front, so a failure here is a bug, not an input condition. Also for
/// [`Method::Truncated`], which is logistic-only (the linear objective is
/// exact, so "truncated without noise" is just `NoPrivacy`).
#[must_use]
pub fn linear_estimator(method: Method, epsilon: f64) -> Box<dyn DpEstimator<Model = LinearModel>> {
    match method {
        Method::Fm => Box::new(DpLinearRegression::builder().epsilon(epsilon).build()),
        Method::Dpme => Box::new(DpmeLinear(Dpme::new(epsilon).expect("DPME config"))),
        Method::Fp => Box::new(FpLinear(FilterPriority::new(epsilon).expect("FP config"))),
        Method::NoPrivacy => Box::new(LinearRegression::new()),
        Method::Truncated => {
            unreachable!("Truncated is logistic-only (linear objective is exact)")
        }
    }
}

/// Builds `method` as a boxed [`DpEstimator`] for the **logistic** task.
///
/// # Panics
/// On configuration errors (invalid ε), as [`linear_estimator`].
#[must_use]
pub fn logistic_estimator(
    method: Method,
    epsilon: f64,
) -> Box<dyn DpEstimator<Model = LogisticModel>> {
    match method {
        Method::Fm => Box::new(DpLogisticRegression::builder().epsilon(epsilon).build()),
        Method::Dpme => Box::new(DpmeLogistic(Dpme::new(epsilon).expect("DPME config"))),
        Method::Fp => Box::new(FpLogistic(FilterPriority::new(epsilon).expect("FP config"))),
        Method::NoPrivacy => Box::new(LogisticRegression::new()),
        Method::Truncated => Box::new(TruncatedLogistic::new()),
    }
}

/// A fitted model of either kind, unified for prediction.
pub enum FittedModel {
    /// Linear parameters.
    Linear(LinearModel),
    /// Logistic parameters.
    Logistic(LogisticModel),
}

impl FittedModel {
    /// Predictions appropriate to the task: ŷ for linear, `P(y=1|x)` for
    /// logistic.
    #[must_use]
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        match self {
            FittedModel::Linear(m) => m.predict_batch(data.x()),
            FittedModel::Logistic(m) => m.probabilities_batch(data.x()),
        }
    }
}

/// Fits `method` on `train` through `session`: the estimator is built as a
/// `dyn DpEstimator`, its advertised (ε, δ) debited against the session's
/// ledger before the mechanism runs, and the released model returned in
/// the task-unified wrapper.
///
/// Dispatch goes through the **streaming** entry point
/// ([`PrivacySession::fit_stream`] over an
/// [`fm_data::stream::InMemorySource`]): the FM methods run their native
/// out-of-core pipeline — releasing coefficients bit-identical to the
/// in-memory `fit`, so no figure changes — while the baselines fall back
/// to the materializing default. One call site, both worlds, and since
/// the zero-copy redesign no transport tax either: the in-memory source
/// hands its backing dataset straight to the accumulator
/// (`take_dataset`), so every bench cell and CV fold assembles at the
/// batched path's rate (`BENCH_assembly.json`, `pr5-zero-copy-streaming`).
///
/// # Errors
/// Whatever the method's fit refuses: too few rows for a baseline's
/// histogram to produce synthetic tuples, say, on a tiny `--rows`.
pub fn fit_in_session(
    session: &mut PrivacySession,
    method: Method,
    task: Task,
    train: &Dataset,
    epsilon: f64,
    rng: &mut StdRng,
) -> fm_core::Result<FittedModel> {
    let mut source = fm_data::stream::InMemorySource::new(train);
    Ok(match task {
        Task::Linear => {
            let est = linear_estimator(method, epsilon);
            FittedModel::Linear(session.fit_stream(est.as_ref(), &mut source, rng)?)
        }
        Task::Logistic => {
            let est = logistic_estimator(method, epsilon);
            FittedModel::Logistic(session.fit_stream(est.as_ref(), &mut source, rng)?)
        }
    })
}

/// Fits `method` on `train` outside any session (one-off fits, tests).
///
/// # Errors
/// As [`fit_in_session`].
pub fn fit(
    method: Method,
    task: Task,
    train: &Dataset,
    epsilon: f64,
    rng: &mut StdRng,
) -> fm_core::Result<FittedModel> {
    fit_in_session(
        &mut PrivacySession::new(),
        method,
        task,
        train,
        epsilon,
        rng,
    )
}

/// The task-appropriate error metric (MSE or misclassification rate).
#[must_use]
pub fn error_metric(task: Task, predictions: &[f64], targets: &[f64]) -> f64 {
    match task {
        Task::Linear => fm_data::metrics::mse(predictions, targets),
        Task::Logistic => fm_data::metrics::misclassification_rate(predictions, targets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lineups_match_the_figures() {
        assert_eq!(Method::lineup(Task::Linear).len(), 4);
        assert_eq!(Method::lineup(Task::Logistic).len(), 5);
        assert!(!Method::lineup(Task::Linear).contains(&Method::Truncated));
    }

    #[test]
    fn privacy_flags() {
        assert!(Method::Fm.is_private());
        assert!(Method::Dpme.is_private());
        assert!(Method::Fp.is_private());
        assert!(!Method::NoPrivacy.is_private());
        assert!(!Method::Truncated.is_private());
    }

    #[test]
    fn estimators_advertise_epsilon_consistently_with_is_private() {
        for &m in Method::lineup(Task::Linear) {
            let est = linear_estimator(m, 0.8);
            assert_eq!(est.epsilon().is_some(), m.is_private(), "{}", m.name());
        }
        for &m in Method::lineup(Task::Logistic) {
            let est = logistic_estimator(m, 0.8);
            assert_eq!(est.epsilon().is_some(), m.is_private(), "{}", m.name());
        }
    }

    #[test]
    fn every_lineup_method_fits_both_tasks() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin = fm_data::synth::linear_dataset(&mut rng, 400, 3, 0.1);
        let log = fm_data::synth::logistic_dataset(&mut rng, 400, 3, 6.0);
        for &m in Method::lineup(Task::Linear) {
            let model = fit(m, Task::Linear, &lin, 1.0, &mut rng).unwrap();
            let preds = model.predict(&lin);
            assert_eq!(preds.len(), 400);
            let err = error_metric(Task::Linear, &preds, lin.y());
            assert!(err.is_finite());
        }
        for &m in Method::lineup(Task::Logistic) {
            let model = fit(m, Task::Logistic, &log, 1.0, &mut rng).unwrap();
            let preds = model.predict(&log);
            let err = error_metric(Task::Logistic, &preds, log.y());
            assert!((0.0..=1.0).contains(&err));
        }
    }

    #[test]
    fn session_debits_private_methods_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let lin = fm_data::synth::linear_dataset(&mut rng, 400, 2, 0.1);
        let mut session = PrivacySession::new();
        let _ = fit_in_session(&mut session, Method::Fm, Task::Linear, &lin, 0.5, &mut rng);
        let _ = fit_in_session(
            &mut session,
            Method::NoPrivacy,
            Task::Linear,
            &lin,
            0.5,
            &mut rng,
        );
        let _ = fit_in_session(
            &mut session,
            Method::Dpme,
            Task::Linear,
            &lin,
            0.25,
            &mut rng,
        );
        assert_eq!(session.num_fits(), 2, "NoPrivacy must not be debited");
        assert!((session.spent_epsilon() - 0.75).abs() < 1e-12);
    }
}
