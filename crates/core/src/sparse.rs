//! Higher-degree losses through the **same** fit pipeline as everything
//! else: [`SparseFmEstimator`] is [`FmEstimator`] over
//! [`Polynomial`] coefficients.
//!
//! [`crate::generic`] implements Algorithm 1 at arbitrary degree over the
//! sparse [`Polynomial`] representation. A [`GeneralObjective`] that names
//! its released model family ([`SparseRegressionObjective`]) runs through
//! the one [`FmEstimator`] pipeline, configured by the same
//! [`FitConfig`](crate::estimator::FitConfig),
//! behind the same [`crate::estimator::DpEstimator`] surface, debitable
//! through the same [`crate::session::PrivacySession`] and persistable as
//! [`crate::persist::SavedModel`]:
//!
//! 1. optionally augment the data for an intercept (footnote 2);
//! 2. run the general-degree Algorithm 1 (every monomial in
//!    `Φ_0 ∪ … ∪ Φ_J` perturbed, structural zeros included);
//! 3. resolve unboundedness per the configured §6
//!    [`Strategy`](crate::Strategy) — ridge
//!    regularization and the Lemma-5 resample loop carry over verbatim;
//!    spectral trimming has no general-degree analogue and is replaced by
//!    ridge escalation (see [`crate::postprocess::solve_polynomial`]);
//! 4. wrap the released weights in the objective's model family.
//!
//! What differs from the degree-2 families is listed in one place, the
//! `Objective<Polynomial>` impl in [`crate::coefficients`]. Two of those
//! differences are deliberate restrictions, surfaced as loud errors
//! instead of silent unsoundness:
//!
//! * **Gaussian noise needs a derived Δ₂.** The (ε, δ) Gaussian variant
//!   calibrates to an L2 sensitivity; objectives that derive one via
//!   [`GeneralObjective::sensitivity_l2`] (both built-ins do) release
//!   through the Gaussian path exactly like the degree-2 estimators,
//!   while objectives without a Δ₂ stay Laplace-only and Gaussian noise
//!   is refused rather than guessed at. The Lemma-5 resample strategy is
//!   refused with Gaussian noise, as for every family.
//! * **One Δ₁ bound.** The §4 Cauchy–Schwarz refinement is specific to
//!   the degree-2 objectives; the general trait declares a single L1
//!   bound and [`FitConfig::bound`](crate::estimator::FitConfig::bound) is
//!   not consulted.

use fm_poly::Polynomial;

use crate::estimator::FmEstimator;
use crate::generic::GeneralObjective;
use crate::model::PersistableModel;

/// The divergence radius of the bounded minimisation of noisy high-degree
/// polynomials: far above any parameter norm the normalized domain can
/// produce, so a genuine minimiser is never mistaken for a divergent
/// iterate.
pub const DEFAULT_DIVERGENCE_RADIUS: f64 = 1e3;

/// A [`GeneralObjective`] that knows which model family its released
/// weight vector belongs to — the general-degree counterpart of
/// [`crate::estimator::RegressionObjective`], and the only thing a
/// high-degree loss must add to plug into [`SparseFmEstimator`].
pub trait SparseRegressionObjective: GeneralObjective {
    /// The model type wrapping this objective's released weights.
    type Model: PersistableModel;
}

impl SparseRegressionObjective for crate::generic::QuarticObjective {
    /// The quartic loss releases a linear predictor `ŷ = xᵀω (+ b)`.
    type Model = crate::model::LinearModel;
}

impl SparseRegressionObjective for crate::generic::GeneralLinearObjective {
    type Model = crate::model::LinearModel;
}

/// The Functional-Mechanism estimator over **sparse polynomial**
/// objectives of any finite degree: the quartic demo, and any user loss
/// expressible per Equation 3.
///
/// ```
/// use fm_core::generic::QuarticObjective;
/// use fm_core::sparse::SparseFmEstimator;
/// use fm_core::estimator::FitConfig;
/// use fm_core::Strategy;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(12);
/// let data = fm_data::synth::linear_dataset(&mut rng, 20_000, 2, 0.05);
/// let est = SparseFmEstimator::new(
///     QuarticObjective,
///     FitConfig::new()
///         .epsilon(32.0)
///         .strategy(Strategy::Resample { max_attempts: 8 }),
/// );
/// let model = est.fit(&data, &mut rng).unwrap();
/// assert_eq!(model.dim(), 2);
/// ```
pub type SparseFmEstimator<O> = FmEstimator<O, Polynomial>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{DpEstimator, FitConfig};
    use crate::generic::GenericFunctionalMechanism;
    use crate::generic::QuarticObjective;
    use crate::mechanism::NoiseDistribution;
    use crate::model::LinearModel;
    use crate::model::ModelKind;
    use crate::postprocess::Strategy;
    use crate::FmError;
    use fm_data::Dataset;
    use fm_linalg::vecops;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(515)
    }

    #[test]
    fn unified_fit_matches_manual_mechanism_bit_for_bit() {
        // FailIfUnbounded + no intercept is exactly the old side path:
        // same RNG stream in, same released weights out.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 2_000, 2, 0.05);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(64.0)
                .strategy(Strategy::FailIfUnbounded),
        );

        let mut r1 = rand::rngs::StdRng::seed_from_u64(99);
        let unified = est.fit(&data, &mut r1).unwrap();

        let mut r2 = rand::rngs::StdRng::seed_from_u64(99);
        let fm = GenericFunctionalMechanism::new(64.0).unwrap();
        let noisy = fm.perturb(&data, &QuarticObjective, &mut r2).unwrap();
        let manual = noisy
            .minimize(&[0.0; 2], DEFAULT_DIVERGENCE_RADIUS)
            .unwrap();

        assert_eq!(unified.weights(), manual.as_slice());
    }

    #[test]
    fn fit_stream_is_bit_identical_to_fit() {
        use fm_data::stream::InMemorySource;
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 3_000, 2, 0.05);
        for strategy in [
            Strategy::FailIfUnbounded,
            Strategy::Resample { max_attempts: 8 },
        ] {
            let est = SparseFmEstimator::new(
                QuarticObjective,
                FitConfig::new().epsilon(64.0).strategy(strategy),
            );
            let mut r1 = rand::rngs::StdRng::seed_from_u64(77);
            let in_memory = est.fit(&data, &mut r1).unwrap();
            let mut r2 = rand::rngs::StdRng::seed_from_u64(77);
            let streamed = est
                .fit_stream(&mut InMemorySource::new(&data), &mut r2)
                .unwrap();
            assert_eq!(in_memory, streamed, "{strategy:?}");
        }
        // partial_fit across a shard split matches too.
        let est = SparseFmEstimator::new(QuarticObjective, FitConfig::new().epsilon(64.0));
        let idx: Vec<usize> = (0..data.n()).collect();
        let shards = [
            data.subset(&idx[..1_111]).unwrap(),
            data.subset(&idx[1_111..]).unwrap(),
        ];
        let mut partial = est.partial_fit();
        for s in &shards {
            partial.absorb(&mut InMemorySource::new(s)).unwrap();
        }
        assert_eq!(partial.rows(), data.n());
        let mut r1 = rand::rngs::StdRng::seed_from_u64(78);
        let sharded = partial.finalize(&mut r1).unwrap();
        let mut r2 = rand::rngs::StdRng::seed_from_u64(78);
        let whole = est.fit(&data, &mut r2).unwrap();
        assert_eq!(sharded, whole);
        // Resample + Gaussian is refused before any data is absorbed.
        let gauss = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(0.5)
                .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
                .strategy(Strategy::Resample { max_attempts: 8 }),
        );
        let mut refused = gauss.partial_fit();
        assert!(refused.absorb(&mut InMemorySource::new(&data)).is_err());
        assert_eq!(refused.rows(), 0);
    }

    #[test]
    fn resample_strategy_recovers_truth_at_generous_budget() {
        let mut r = rng();
        let w = vec![0.5, -0.3];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 40_000, &w, 0.02);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(128.0)
                .strategy(Strategy::Resample { max_attempts: 8 }),
        );
        let model = est.fit(&data, &mut r).unwrap();
        let cos =
            vecops::dot(model.weights(), &w) / (vecops::norm2(model.weights()) * vecops::norm2(&w));
        assert!(cos > 0.9, "cosine {cos}, weights {:?}", model.weights());
    }

    #[test]
    fn regularized_strategies_survive_hostile_draws() {
        // At tiny ε most raw draws are unbounded; ridge escalation must
        // still return a finite model (or a clean error), never panic or
        // release non-finite weights.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 200, 2, 0.05);
        for strategy in [Strategy::RegularizeOnly, Strategy::RegularizeThenTrim] {
            let est = SparseFmEstimator::new(
                QuarticObjective,
                FitConfig::new().epsilon(0.05).strategy(strategy),
            );
            for _ in 0..10 {
                match est.fit(&data, &mut r) {
                    Ok(m) => assert!(m.weights().iter().all(|v| v.is_finite())),
                    Err(FmError::Optim(_)) => {}
                    Err(e) => panic!("unexpected error class: {e}"),
                }
            }
        }
    }

    #[test]
    fn non_private_quartic_fit_matches_ols_direction() {
        let mut r = rng();
        let w = vec![0.4, -0.2];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 20_000, &w, 0.02);
        let est = SparseFmEstimator::new(QuarticObjective, FitConfig::new());
        let model = est.fit_without_privacy(&data).unwrap();
        assert_eq!(model.epsilon(), None);
        assert!(
            vecops::dist2(model.weights(), &w) < 0.05,
            "weights {:?}",
            model.weights()
        );
    }

    #[test]
    fn intercept_fit_recovers_offset() {
        // Quartic loss on offset data: the footnote-2 augmentation must
        // carry over to the sparse path unchanged (non-private, exact).
        let w = [0.3];
        let n = 4_000;
        let x = fm_linalg::Matrix::from_fn(n, 1, |i, _| ((i % 100) as f64 / 100.0 - 0.5) / 2.0);
        let y: Vec<f64> = (0..n).map(|i| x[(i, 0)] * w[0] + 0.2).collect();
        let data = Dataset::new(x, y).unwrap();
        let est = SparseFmEstimator::new(QuarticObjective, FitConfig::new().fit_intercept(true));
        let model = est.fit_without_privacy(&data).unwrap();
        assert!(
            (model.intercept() - 0.2).abs() < 1e-3,
            "b = {}",
            model.intercept()
        );
        assert!((model.weights()[0] - 0.3).abs() < 1e-3);
    }

    #[test]
    fn gaussian_noise_fits_with_derived_delta2() {
        // Δ₂ is now derived for both built-ins, so the (ε, δ) Gaussian
        // release runs through the same pipeline; δ is surfaced through
        // the DpEstimator metadata for session accounting.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 5_000, 2, 0.05);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(0.9)
                .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
                .strategy(Strategy::RegularizeOnly),
        );
        let dyn_est: &dyn DpEstimator<Model = LinearModel> = &est;
        assert_eq!(dyn_est.delta(), Some(1e-6));
        let mut r1 = rand::rngs::StdRng::seed_from_u64(41);
        let model = est.fit(&data, &mut r1).unwrap();
        assert!(model.weights().iter().all(|v| v.is_finite()));
        // Streaming matches in-memory bit for bit under Gaussian noise.
        let mut r2 = rand::rngs::StdRng::seed_from_u64(41);
        let streamed = est
            .fit_stream(&mut fm_data::stream::InMemorySource::new(&data), &mut r2)
            .unwrap();
        assert_eq!(model, streamed);
    }

    #[test]
    fn gaussian_refused_without_delta2_or_with_resample() {
        // An objective that never derived a Δ₂ keeps the old refusal.
        struct NoL2;
        impl GeneralObjective for NoL2 {
            fn tuple_polynomial(&self, x: &[f64], y: f64, d: usize) -> fm_poly::Polynomial {
                QuarticObjective.tuple_polynomial(x, y, d)
            }
            fn max_degree(&self, d: usize) -> u32 {
                QuarticObjective.max_degree(d)
            }
            fn sensitivity(&self, d: usize) -> f64 {
                QuarticObjective.sensitivity(d)
            }
            fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
                QuarticObjective.validate(data)
            }
        }
        impl SparseRegressionObjective for NoL2 {
            type Model = LinearModel;
        }
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.05);
        let gauss = FitConfig::new()
            .epsilon(0.5)
            .noise(NoiseDistribution::Gaussian { delta: 1e-6 });
        let est = SparseFmEstimator::new(NoL2, gauss);
        assert!(matches!(
            est.fit(&data, &mut r),
            Err(FmError::InvalidConfig { .. })
        ));
        // Resample + Gaussian is refused up front, Δ₂ or not.
        let est = SparseFmEstimator::new(
            QuarticObjective,
            gauss.strategy(Strategy::Resample { max_attempts: 4 }),
        );
        assert!(matches!(
            est.fit(&data, &mut r),
            Err(FmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn dyn_estimator_and_session_accounting() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 10_000, 2, 0.05);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(50.0)
                .strategy(Strategy::Resample { max_attempts: 8 }),
        );
        let dyn_est: &dyn DpEstimator<Model = LinearModel> = &est;
        assert_eq!(dyn_est.epsilon(), Some(50.0));
        assert_eq!(dyn_est.task(), ModelKind::Linear);
        let mut session = crate::session::PrivacySession::with_budget(60.0).unwrap();
        session.fit(dyn_est, &data, &mut r).unwrap();
        assert!((session.spent_epsilon() - 50.0).abs() < 1e-12);
        assert!(session.fit(dyn_est, &data, &mut r).is_err(), "over budget");
    }

    #[test]
    fn persistence_roundtrip_through_saved_model() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 10_000, 2, 0.05);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(64.0)
                .strategy(Strategy::Resample { max_attempts: 8 }),
        );
        let model = est.fit(&data, &mut r).unwrap();
        let text = crate::persist::SavedModel::from(&model).to_text().unwrap();
        let back: LinearModel = crate::persist::SavedModel::from_text(&text)
            .unwrap()
            .into_model()
            .unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn zero_resample_attempts_rejected() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 100, 2, 0.05);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new().strategy(Strategy::Resample { max_attempts: 0 }),
        );
        assert!(matches!(
            est.fit(&data, &mut r),
            Err(FmError::InvalidConfig { .. })
        ));
    }
}
