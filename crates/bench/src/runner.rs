//! The evaluation loop: the paper's k-fold cross-validation protocol with
//! wall-clock instrumentation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fm_core::session::PrivacySession;
use fm_data::cv::KFold;
use fm_data::sampling;
use fm_data::Dataset;

use crate::methods::{self, Method};
use crate::workload::Task;

/// Advanced-composition slack δ′ used when reporting a cell's honest
/// composed guarantee.
pub const REPORT_DELTA_PRIME: f64 = 1e-6;

/// Evaluation knobs shared by every figure.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Rows for the US census (paper: 370,000).
    pub rows_us: usize,
    /// Rows for the Brazil census (paper: 190,000).
    pub rows_brazil: usize,
    /// Cross-validation repeats (paper: 50).
    pub repeats: usize,
    /// Folds per repeat (paper: 5).
    pub folds: usize,
    /// Base RNG seed; every cell derives its stream deterministically.
    pub seed: u64,
}

impl EvalConfig {
    /// The scaled-down default configuration.
    #[must_use]
    pub fn quick() -> Self {
        EvalConfig {
            rows_us: crate::params::quick::US_ROWS,
            rows_brazil: crate::params::quick::BRAZIL_ROWS,
            repeats: crate::params::quick::REPEATS,
            folds: crate::params::CV_FOLDS,
            seed: 42,
        }
    }

    /// The paper's full protocol (370k/190k rows, 50 repeats).
    #[must_use]
    pub fn paper() -> Self {
        EvalConfig {
            rows_us: 370_000,
            rows_brazil: 190_000,
            repeats: crate::params::PAPER_REPEATS,
            folds: crate::params::CV_FOLDS,
            seed: 42,
        }
    }
}

/// Aggregated outcome of one (method × parameter-point) cell.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Mean error metric over repeats × folds.
    pub error_mean: f64,
    /// Sample standard deviation of the per-fold errors.
    pub error_std: f64,
    /// Mean training (fit-only) wall-clock seconds per fold.
    pub seconds_mean: f64,
    /// Number of budget-consuming fits the cell's [`PrivacySession`]
    /// recorded (0 for non-private methods).
    pub fits: usize,
    /// The cell's honest composed ε under basic (sequential) composition —
    /// every fold of every repeat touches the same individuals, so this is
    /// `repeats × folds × ε` — or `None` for non-private methods.
    pub composed_epsilon_basic: Option<f64>,
    /// The tighter of basic and Dwork–Rothblum–Vadhan advanced composition
    /// at slack δ′ = [`REPORT_DELTA_PRIME`], or `None` for non-private
    /// methods.
    pub composed_epsilon_best: Option<f64>,
}

/// Runs `method` on `data` (already normalized + subsetted) with the CV
/// protocol: `repeats` independent shuffles × `folds` folds, optionally
/// subsampling at `rate` first. Returns the aggregated error and timing.
///
/// # Errors
/// The first fit that fails, named by method and task.
pub fn evaluate(
    data: &Dataset,
    task: Task,
    method: Method,
    epsilon: f64,
    rate: f64,
    cfg: &EvalConfig,
    cell_seed: u64,
) -> Result<CellResult, String> {
    let mut errors = Vec::with_capacity(cfg.repeats * cfg.folds);
    let mut seconds = Vec::with_capacity(cfg.repeats * cfg.folds);
    // One uncapped session per cell: every fold of every repeat is debited,
    // so the cell can report what its whole protocol honestly composed to.
    let mut session = PrivacySession::new();

    for rep in 0..cfg.repeats {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ cell_seed.wrapping_add(rep as u64 * 0x9E37));
        let sampled = if rate < 1.0 {
            sampling::subsample(data, rate, &mut rng).expect("valid rate")
        } else {
            data.clone()
        };
        let kf = KFold::new(sampled.n(), cfg.folds, &mut rng).expect("folds");
        for f in 0..cfg.folds {
            let (train, test) = kf.split(&sampled, f).expect("split");
            let start = Instant::now();
            let model =
                methods::fit_in_session(&mut session, method, task, &train, epsilon, &mut rng)
                    .map_err(|e| format!("{} {} fit: {e}", method.name(), task.name()))?;
            seconds.push(start.elapsed().as_secs_f64());
            let preds = model.predict(&test);
            errors.push(methods::error_metric(task, &preds, test.y()));
        }
    }

    let (error_mean, error_std) = fm_data::metrics::mean_and_std(&errors);
    let (seconds_mean, _) = fm_data::metrics::mean_and_std(&seconds);
    let (composed_epsilon_basic, composed_epsilon_best) = if session.num_fits() > 0 {
        let report = session.report(REPORT_DELTA_PRIME).expect("valid δ′");
        (Some(report.basic.0), Some(report.best.0))
    } else {
        (None, None)
    };
    Ok(CellResult {
        error_mean,
        error_std,
        seconds_mean,
        fits: session.num_fits(),
        composed_epsilon_basic,
        composed_epsilon_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Country};

    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            rows_us: 600,
            rows_brazil: 400,
            repeats: 1,
            folds: 3,
            seed: 7,
        }
    }

    #[test]
    fn evaluate_produces_finite_results() {
        let cfg = tiny_cfg();
        let w = build(Country::Us, Task::Linear, cfg.rows_us, 5, 1);
        let cell = evaluate(&w.data, Task::Linear, Method::NoPrivacy, 1.0, 1.0, &cfg, 0).unwrap();
        assert!(cell.error_mean.is_finite());
        assert!(cell.error_std >= 0.0);
        assert!(cell.seconds_mean > 0.0);
        // Non-private: nothing debited, no composed guarantee to report.
        assert_eq!(cell.fits, 0);
        assert_eq!(cell.composed_epsilon_basic, None);
        assert_eq!(cell.composed_epsilon_best, None);
    }

    #[test]
    fn evaluate_reports_honest_composed_epsilon_for_private_methods() {
        let cfg = tiny_cfg();
        let w = build(Country::Us, Task::Linear, cfg.rows_us, 5, 1);
        let cell = evaluate(&w.data, Task::Linear, Method::Fm, 0.8, 1.0, &cfg, 5).unwrap();
        // 1 repeat × 3 folds, every fold debited sequentially.
        assert_eq!(cell.fits, cfg.repeats * cfg.folds);
        let basic = cell.composed_epsilon_basic.unwrap();
        assert!((basic - 0.8 * cell.fits as f64).abs() < 1e-9);
        assert!(cell.composed_epsilon_best.unwrap() <= basic + 1e-12);
    }

    #[test]
    fn subsampling_rate_reduces_training_size_effects() {
        // Not a statistical assertion — just that the rate plumbing works
        // and produces a result at every plotted rate.
        let cfg = tiny_cfg();
        let w = build(Country::Brazil, Task::Linear, cfg.rows_brazil, 5, 2);
        for rate in [0.1, 0.5, 1.0] {
            let cell = evaluate(&w.data, Task::Linear, Method::Fm, 1.6, rate, &cfg, 3).unwrap();
            assert!(cell.error_mean.is_finite(), "rate {rate}");
        }
    }

    #[test]
    fn deterministic_given_config() {
        let cfg = tiny_cfg();
        let w = build(Country::Us, Task::Linear, cfg.rows_us, 5, 1);
        let a = evaluate(&w.data, Task::Linear, Method::Fm, 0.8, 1.0, &cfg, 11).unwrap();
        let b = evaluate(&w.data, Task::Linear, Method::Fm, 0.8, 1.0, &cfg, 11).unwrap();
        assert_eq!(a.error_mean, b.error_mean);
    }

    #[test]
    fn configs_expose_paper_and_quick_profiles() {
        let q = EvalConfig::quick();
        let p = EvalConfig::paper();
        assert_eq!(p.rows_us, 370_000);
        assert_eq!(p.rows_brazil, 190_000);
        assert_eq!(p.repeats, 50);
        assert!(q.rows_us < p.rows_us);
    }
}
