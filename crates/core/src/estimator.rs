//! The generic estimator core: one trait-driven surface for every
//! regression the Functional Mechanism can fit.
//!
//! The paper's Algorithm 1 is *one* mechanism instantiated per loss; this
//! module makes the code match that shape. A [`FitConfig`] owns the knobs
//! every fit shares (ε, sensitivity bound, §6 strategy, intercept, noise
//! distribution), a [`RegressionObjective`] ties a
//! [`PolynomialObjective`] to the model family it releases (a
//! [`crate::sparse::SparseRegressionObjective`] does the same for a
//! general-degree objective), and [`FmEstimator`] runs the one shared
//! pipeline, generic over the [`Coefficients`] type:
//!
//! 1. optionally augment the data for an intercept (footnote 2);
//! 2. run Algorithm 1 — assemble, perturb with calibrated noise;
//! 3. resolve unboundedness per the §6 [`Strategy`];
//! 4. wrap the released weights in the family's model type.
//!
//! Every family is a thin instantiation of this core. Linear regression
//! and the quartic demo ([`crate::sparse::SparseFmEstimator`]) are type
//! aliases of [`FmEstimator`]. The logistic, Poisson, median, quantile and
//! Huber estimators are aliases of one [`FamilyEstimator`], generic over a
//! [`Family`] of builder knobs whose objective construction can fail. A
//! new objective — a user loss — plugs in as one `RegressionObjective`
//! impl instead of a ~700-line copied stack.
//!
//! The [`DpEstimator`] trait is the dyn-compatible face of all of this:
//! private estimators *and* the `fm-baselines` comparators implement it,
//! so harness code (cross-validation, method line-ups, the
//! [`crate::session::PrivacySession`] ledger) runs over `&dyn DpEstimator`
//! without knowing which method it is driving.

use std::marker::PhantomData;

use rand::{Rng, RngCore};

use fm_data::stream::{InMemorySource, InterceptAugmentSource, RowBlock, RowSource, ShardedSource};
use fm_data::{DataError, Dataset};
use fm_poly::QuadraticForm;

use crate::assembly::CoefficientAccumulator;
use crate::coefficients::{Coefficients, Objective};
use crate::mechanism::{NoiseDistribution, PolynomialObjective, SensitivityBound};
use crate::model::{ModelKind, PersistableModel};
use crate::postprocess::{self, Strategy};
use crate::{FmError, Result};

/// The configuration every Functional-Mechanism fit shares, regardless of
/// objective: the fields the per-family builders used to re-declare.
///
/// ```
/// use fm_core::estimator::FitConfig;
/// use fm_core::SensitivityBound;
///
/// let config = FitConfig::new()
///     .epsilon(0.8)
///     .sensitivity_bound(SensitivityBound::Tight)
///     .fit_intercept(true);
/// assert_eq!(config.epsilon, 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// The privacy budget ε (default 1.0).
    pub epsilon: f64,
    /// Which sensitivity bound calibrates the noise (default
    /// [`SensitivityBound::Paper`]).
    pub bound: SensitivityBound,
    /// The §6 unboundedness strategy (default
    /// [`Strategy::RegularizeThenTrim`]).
    pub strategy: Strategy,
    /// Whether to fit the footnote-2 intercept term (default `false`).
    pub fit_intercept: bool,
    /// The noise distribution (default [`NoiseDistribution::Laplace`],
    /// strict ε-DP).
    pub noise: NoiseDistribution,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            epsilon: 1.0,
            bound: SensitivityBound::Paper,
            strategy: Strategy::default(),
            fit_intercept: false,
            noise: NoiseDistribution::Laplace,
        }
    }
}

impl FitConfig {
    /// The default configuration (ε = 1, paper bound, regularize-then-trim,
    /// no intercept, Laplace noise).
    #[must_use]
    pub fn new() -> Self {
        FitConfig::default()
    }

    /// Sets the privacy budget ε.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the sensitivity bound.
    #[must_use]
    pub fn sensitivity_bound(mut self, bound: SensitivityBound) -> Self {
        self.bound = bound;
        self
    }

    /// Sets the §6 unboundedness strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables/disables the footnote-2 intercept term.
    #[must_use]
    pub fn fit_intercept(mut self, yes: bool) -> Self {
        self.fit_intercept = yes;
        self
    }

    /// Sets the noise distribution.
    #[must_use]
    pub fn noise(mut self, noise: NoiseDistribution) -> Self {
        self.noise = noise;
        self
    }

    /// The δ of the configured noise distribution (`None` under strict
    /// ε-DP Laplace noise).
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        match self.noise {
            NoiseDistribution::Laplace => None,
            NoiseDistribution::Gaussian { delta } => Some(delta),
        }
    }
}

/// A differentially-private (or deliberately non-private baseline)
/// estimator: anything that can turn a [`Dataset`] plus randomness into a
/// fitted model, and can state up front what the fit costs in (ε, δ).
///
/// The trait is dyn-compatible — `&dyn DpEstimator<Model = LinearModel>`
/// is how the experiment harness runs FM next to DPME, FP and NoPrivacy
/// through one code path, and how [`crate::session::PrivacySession`]
/// debits every fit against a shared budget.
pub trait DpEstimator {
    /// The released model family.
    type Model;

    /// Fits a model on `data`, drawing noise from `rng`.
    ///
    /// Typed estimators also expose an inherent `fit(&self, data, &mut
    /// impl Rng)` with identical behaviour; this dyn-compatible form
    /// exists so heterogeneous line-ups can share one call site (any
    /// `&mut impl Rng` coerces to `&mut dyn RngCore` at the call).
    ///
    /// # Errors
    /// Family-specific: contract violations ([`FmError::Data`]), invalid
    /// configuration, solver breakdown.
    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<Self::Model>;

    /// The privacy budget ε one [`DpEstimator::fit`] call consumes, or
    /// `None` for non-private baselines.
    fn epsilon(&self) -> Option<f64>;

    /// The failure probability δ of one fit (`None` for pure ε-DP and for
    /// non-private estimators).
    fn delta(&self) -> Option<f64> {
        None
    }

    /// Which regression family this estimator releases.
    fn task(&self) -> ModelKind;

    /// Fits a model from a streaming [`RowSource`] instead of a
    /// materialized [`Dataset`].
    ///
    /// The default drains the source into a temporary `Dataset` and
    /// delegates to [`DpEstimator::fit`] — always correct, so baselines
    /// and custom estimators keep working against streaming harness code,
    /// just without the out-of-core memory profile. The Functional-
    /// Mechanism estimators override it with the true streaming pipeline
    /// (bounded memory, bit-identical released coefficients to `fit` on
    /// the materialized data at the same seed).
    ///
    /// # Errors
    /// Transport errors from the source as [`FmError::Data`], plus
    /// whatever [`DpEstimator::fit`] returns.
    fn fit_stream(&self, source: &mut dyn RowSource, rng: &mut dyn RngCore) -> Result<Self::Model> {
        let data = fm_data::stream::materialize(source).map_err(FmError::Data)?;
        self.fit(&data, rng)
    }

    /// Fits **one** model over the union of disjoint shards — the
    /// assembled-fit hook that lets any estimator, baselines included,
    /// ride the sharded ingestion path the harness drives
    /// ([`crate::session::PrivacySession::fit_sharded_dyn`]).
    ///
    /// It is [`DpEstimator::fit_stream`] over a [`ShardedSource`] of the
    /// shards, in order — one fit with the privacy cost of one. The
    /// Functional-Mechanism estimators stream the union through one
    /// accumulator, so they release the bits of `fit` on the concatenated
    /// rows; the others materialize the union and fit it.
    ///
    /// # Errors
    /// [`FmError::Data`] for an empty shard list or mismatched shard
    /// dimensionalities; otherwise as [`DpEstimator::fit_stream`] over
    /// that source.
    fn fit_sharded(
        &self,
        shards: &mut [&mut (dyn RowSource + Send)],
        rng: &mut dyn RngCore,
    ) -> Result<Self::Model> {
        let views: Vec<&mut (dyn RowSource + Send)> = shards.iter_mut().map(|s| &mut **s).collect();
        self.fit_stream(&mut ShardedSource::new(views).map_err(FmError::Data)?, rng)
    }
}

/// Scheduler-visible progress of an in-flight streaming fit: the least a
/// serving layer needs to report status on — and checkpoint — a fit whose
/// objective type it does not know. Dyn-compatible, so a worker pool can
/// hold `&dyn FitProgress` across heterogeneous jobs.
///
/// Implemented by [`PartialFit`] for both coefficient types; the inherent
/// methods behave identically.
pub trait FitProgress {
    /// Total rows absorbed so far.
    fn rows(&self) -> usize;

    /// The durable-ledger reservation id the fit carries, if any (see
    /// [`PartialFit::with_reservation`]).
    fn reservation(&self) -> Option<u64>;

    /// Serializes the fit's complete accumulation state to the versioned
    /// `fm-checkpoint v1` text format, reservation id included.
    ///
    /// # Errors
    /// [`FmError::Checkpoint`] when nothing has been absorbed yet — there
    /// is no accumulation state to snapshot.
    fn checkpoint(&self) -> Result<String>;
}

/// A [`PolynomialObjective`] that knows which model family its released
/// weight vector belongs to — the only thing a loss must add to plug into
/// the generic [`FmEstimator`] core.
pub trait RegressionObjective: PolynomialObjective {
    /// The model type wrapping this objective's released weights.
    type Model: PersistableModel;
}

/// The one generic Functional-Mechanism estimator: Algorithm 1 (and its
/// Algorithm-2 surrogate instantiations) over any objective, configured by
/// a shared [`FitConfig`], for either coefficient type —
/// [`QuadraticForm`] (the default: every [`RegressionObjective`]) or
/// [`fm_poly::Polynomial`] ([`crate::sparse::SparseFmEstimator`], every
/// [`crate::sparse::SparseRegressionObjective`]).
///
/// `DpLinearRegression` is exactly `FmEstimator<LinearObjective>`; the
/// families whose objective construction can fail go through
/// [`FamilyEstimator`], which builds the objective at fit time and
/// delegates here. Fitting a *new* loss needs only an objective:
///
/// ```
/// use fm_core::estimator::{FitConfig, FmEstimator};
/// use fm_core::linreg::LinearObjective;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let data = fm_data::synth::linear_dataset(&mut rng, 5_000, 3, 0.1);
/// let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(0.8));
/// let model = est.fit(&data, &mut rng).unwrap();
/// assert_eq!(model.epsilon(), Some(0.8));
/// ```
#[derive(Debug, Clone)]
pub struct FmEstimator<O, C = QuadraticForm> {
    objective: O,
    config: FitConfig,
    coefficients: PhantomData<fn() -> C>,
}

impl<O: Objective<C>, C: Coefficients> FmEstimator<O, C> {
    /// Wraps an objective with a fit configuration.
    #[must_use]
    pub fn new(objective: O, config: FitConfig) -> Self {
        FmEstimator {
            objective,
            config,
            coefficients: PhantomData,
        }
    }

    /// The shared fit configuration.
    #[must_use]
    pub fn config(&self) -> &FitConfig {
        &self.config
    }

    /// The objective this estimator perturbs.
    #[must_use]
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// The configured privacy budget.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon
    }

    /// Fits a private model on `data`, which must satisfy the objective's
    /// normalized-domain contract. This *is* [`FmEstimator::fit_stream`]
    /// over an [`InMemorySource`]: the accumulator takes the dataset (or
    /// its cached intercept augmentation) over whole, validates it in one
    /// pass and chunks it in place.
    ///
    /// # Errors
    /// * [`FmError::Data`] for contract violations.
    /// * [`FmError::InvalidConfig`] for a bad ε/δ, Resample with Gaussian
    ///   noise (refused before the data is read), zero resample attempts,
    ///   or a noise distribution the objective cannot calibrate.
    /// * [`FmError::ResampleExhausted`] / [`FmError::EmptySpectrum`] /
    ///   [`FmError::Optim`] when the configured strategy cannot produce a
    ///   bounded objective.
    pub fn fit(&self, data: &Dataset, rng: &mut impl Rng) -> Result<O::Model> {
        self.fit_stream(&mut InMemorySource::new(data), rng)
    }

    /// Fits a private model from a streaming [`RowSource`] — Algorithm 1
    /// out-of-core: blocks are validated and accumulated as they arrive
    /// (peak memory one staged chunk, whatever the stream length), then
    /// the released coefficients are drawn exactly as
    /// [`FmEstimator::fit`] would.
    ///
    /// For the same logical rows and RNG state, `fit_stream` is
    /// **bit-identical** to `fit` on the materialized dataset — for any
    /// block sizing or shard split the source happens to deliver (the
    /// facade's `tests/streaming_equivalence.rs` property suite pins
    /// this); `fit(data, rng)` is `fit_stream(&mut
    /// InMemorySource::new(data), rng)`.
    ///
    /// # Errors
    /// As [`FmEstimator::fit`], plus transport errors from the source as
    /// [`FmError::Data`].
    pub fn fit_stream(
        &self,
        source: &mut (impl RowSource + ?Sized),
        rng: &mut impl Rng,
    ) -> Result<O::Model> {
        self.check_noise()?;
        let clean = self.assemble_clean(source)?;
        self.release_clean(&clean, rng)
    }

    /// The exact clean coefficients over all of `source` at the working
    /// dimensionality (the footnote-2 augmentation applied when
    /// configured): the one data pass of [`FmEstimator::fit_stream`],
    /// [`FmEstimator::fit`] and [`FmEstimator::fit_without_privacy`].
    fn assemble_clean(&self, source: &mut (impl RowSource + ?Sized)) -> Result<C> {
        let clean = if self.config.fit_intercept {
            let mut aug = InterceptAugmentSource::new(source);
            CoefficientAccumulator::new(&self.objective, aug.dim()).absorb_last(&mut aug)
        } else {
            CoefficientAccumulator::new(&self.objective, source.dim()).absorb_last(source)
        };
        clean?.ok_or(FmError::Data(DataError::EmptyDataset))
    }

    /// Begins a two-phase **shard-at-a-time** fit: feed any number of
    /// sources/blocks through [`PartialFit::absorb`] /
    /// [`PartialFit::push_block`], then draw the release once with
    /// [`PartialFit::finalize`]. One mechanism invocation total — the
    /// privacy cost is the estimator's configured ε once, not per shard —
    /// and the released coefficients are bit-identical to a single
    /// [`FmEstimator::fit`] over the shard concatenation. A configuration
    /// the release would refuse (Resample with Gaussian noise) is refused
    /// by the first `absorb`/`push_block`, before any row is read.
    #[must_use]
    pub fn partial_fit(&self) -> PartialFit<'_, O, C> {
        PartialFit {
            estimator: self,
            acc: None,
            chunk_rows: crate::assembly::DEFAULT_CHUNK_ROWS,
            reservation: None,
        }
    }

    /// Resumes an interrupted shard-at-a-time fit from a
    /// [`PartialFit::checkpoint`] snapshot. The restored fit continues
    /// from exactly the floating-point state the interrupted one held —
    /// absorbing the remaining rows and finalizing releases coefficients
    /// **bit-identical** to an uninterrupted fit over the same rows and
    /// RNG state. The WAL reservation id the checkpoint carried (if any)
    /// travels with the fit, so re-attaching it to a
    /// [`crate::session::SharedPrivacySession`] via
    /// [`crate::session::SharedPrivacySession::resume_reservation`] never
    /// re-debits ε.
    ///
    /// # Errors
    /// [`FmError::Checkpoint`] for corruption/truncation, version/kind
    /// mismatches, or structural violations in the snapshot.
    pub fn resume_partial_fit(&self, snapshot: &str) -> Result<PartialFit<'_, O, C>> {
        let (acc, reservation) = CoefficientAccumulator::resume(&self.objective, snapshot)?;
        Ok(PartialFit {
            estimator: self,
            chunk_rows: acc.chunk_rows(),
            acc: Some(acc),
            reservation,
        })
    }

    /// Fits **one** model over the union of disjoint shards: this is
    /// [`FmEstimator::fit_stream`] over a [`ShardedSource`] of the shards,
    /// in order. One accumulator runs over the concatenated rows, so the
    /// release is bit-identical to [`FmEstimator::fit`] on the
    /// concatenation at the same seed, and the privacy cost is the
    /// configured ε once.
    ///
    /// # Errors
    /// * [`FmError::Data`] for an empty shard list or mismatched shard
    ///   dimensionalities; a contract violation or transport error in
    ///   shard `k` comes back as [`DataError::InShard`] labelled
    ///   `shard-k`.
    /// * Otherwise as [`FmEstimator::fit`].
    pub fn fit_sharded<S>(&self, shards: &mut [S], rng: &mut impl Rng) -> Result<O::Model>
    where
        S: RowSource,
    {
        self.fit_stream(
            &mut ShardedSource::new(shards.iter_mut().collect()).map_err(FmError::Data)?,
            rng,
        )
    }

    /// Runs the mechanism over already-assembled (and already-validated)
    /// clean coefficients and wraps the released weights — the noise-
    /// drawing half shared by every entry point: [`FmEstimator::fit`],
    /// [`PartialFit::finalize`] and a federated coordinator's
    /// central-noise release over merged client partials.
    ///
    /// Under [`Strategy::Resample`] this is the Lemma-5 loop: each attempt
    /// re-perturbs the *same* clean coefficients at ε/2 (repetition costs
    /// 2× the per-run budget) until the §6 solve succeeds, redrawing only
    /// after the failures [`Objective::resamples_after`] names.
    ///
    /// The caller owns the precondition that `clean` is the exact
    /// Algorithm-1 coefficient sum over contract-satisfying tuples at
    /// this estimator's working dimensionality (intercept augmentation
    /// included when configured) — the sensitivity bound, and with it
    /// the ε-guarantee, is stated for that sum.
    ///
    /// # Errors
    /// As [`FmEstimator::fit`] past assembly: invalid configuration, an
    /// unbounded noisy objective per the configured strategy, or solver
    /// failure.
    pub fn release_clean(&self, clean: &C, rng: &mut impl Rng) -> Result<O::Model> {
        let omega_raw = self.release(clean, rng)?;
        Ok(self.finish(omega_raw, Some(self.config.epsilon)))
    }

    /// Draws the noise over `clean` and solves, per the configured
    /// strategy; the raw weights of [`FmEstimator::release_clean`].
    fn release(&self, clean: &C, rng: &mut impl Rng) -> Result<Vec<f64>> {
        let FitConfig {
            epsilon,
            bound,
            noise,
            strategy,
            ..
        } = self.config;
        let Strategy::Resample { max_attempts } = strategy else {
            let noisy = self.objective.perturb(clean, epsilon, bound, noise, rng)?;
            return O::solve(noisy, strategy);
        };
        if max_attempts == 0 {
            return Err(FmError::InvalidConfig {
                name: "max_attempts",
                reason: "must be at least 1".to_string(),
            });
        }
        self.check_noise()?;
        for _ in 0..max_attempts {
            let noisy = self.objective.perturb(
                clean,
                epsilon / 2.0,
                bound,
                NoiseDistribution::Laplace,
                rng,
            )?;
            match O::solve(noisy, Strategy::FailIfUnbounded) {
                Err(e) if O::resamples_after(&e) => continue,
                result => return result,
            }
        }
        Err(FmError::ResampleExhausted {
            attempts: max_attempts,
        })
    }

    /// Fits the *non-private* minimiser of the same (possibly truncated)
    /// objective — ε = ∞. For exactly-polynomial losses this is the exact
    /// optimum; for Taylor/Chebyshev surrogates it is the paper's
    /// `Truncated` baseline, isolating approximation error from privacy
    /// noise.
    ///
    /// # Errors
    /// [`FmError::Data`] on contract violation, [`FmError::Optim`] on a
    /// degenerate (rank-deficient) quadratic or a general-degree objective
    /// unbounded within the divergence radius.
    pub fn fit_without_privacy(&self, data: &Dataset) -> Result<O::Model> {
        // Nothing is released, so no noise configuration is refused.
        let clean = self.assemble_clean(&mut InMemorySource::new(data))?;
        Ok(self.finish(O::minimize_clean(&clean)?, None))
    }

    /// The noise/strategy compatibility guard every entry point runs
    /// before reading data: Lemma 5's conditioning argument is specific
    /// to pure ε-DP — re-running an (ε, δ) mechanism until success does
    /// not compose to a clean (2ε, δ′) guarantee — so Resample with
    /// Gaussian noise is refused rather than advertised with an unsound
    /// budget.
    fn check_noise(&self) -> Result<()> {
        if !matches!(self.config.noise, NoiseDistribution::Laplace)
            && matches!(self.config.strategy, Strategy::Resample { .. })
        {
            return Err(FmError::InvalidConfig {
                name: "strategy",
                reason: "Resample (Lemma 5) is only sound with Laplace noise".to_string(),
            });
        }
        Ok(())
    }

    /// Wraps released weights in the family's model type, undoing the
    /// intercept augmentation when one was fitted.
    fn finish(&self, omega_raw: Vec<f64>, epsilon: Option<f64>) -> O::Model {
        if self.config.fit_intercept {
            let (omega, b) = crate::model::split_augmented_weights(omega_raw);
            O::Model::from_parts(omega, b, epsilon)
        } else {
            O::Model::from_parts(omega_raw, 0.0, epsilon)
        }
    }
}

impl<O: RegressionObjective> FmEstimator<O> {
    /// Post-processes an **already-perturbed** objective into a released
    /// model: §6 boundedness handling under the configured strategy, then
    /// the intercept un-augmentation — the release half a federated
    /// coordinator runs in local-noise mode, where the noise was drawn on
    /// the clients and `noisy` is their aggregated upload
    /// ([`crate::mechanism::NoisyQuadratic::from_federated_sum`]). Draws **no** noise and
    /// spends no further budget: everything here is post-processing of
    /// `noisy`.
    ///
    /// # Errors
    /// * [`FmError::InvalidConfig`] under [`Strategy::Resample`] — Lemma 5
    ///   re-runs the mechanism, which only the noise-drawing entry points
    ///   ([`FmEstimator::fit`], [`FmEstimator::release_clean`]) can do.
    /// * Otherwise as [`crate::postprocess::solve`].
    pub fn release_noisy(&self, noisy: crate::NoisyQuadratic) -> Result<O::Model> {
        let omega_raw = postprocess::solve(noisy, self.config.strategy)?;
        Ok(self.finish(omega_raw, Some(self.config.epsilon)))
    }
}

/// An in-progress shard-at-a-time fit (see [`FmEstimator::partial_fit`]):
/// owns the streaming [`CoefficientAccumulator`] plus the estimator's
/// configuration, applies the footnote-2 intercept augmentation to every
/// incoming block when configured, and draws the mechanism's noise exactly
/// once at [`PartialFit::finalize`].
pub struct PartialFit<'a, O, C = QuadraticForm> {
    estimator: &'a FmEstimator<O, C>,
    acc: Option<CoefficientAccumulator<'a, O, C>>,
    chunk_rows: usize,
    reservation: Option<u64>,
}

impl<'a, O: Objective<C>, C: Coefficients> PartialFit<'a, O, C> {
    /// Overrides the accumulation chunk size — the out-of-core **memory
    /// cap**: a copying source (a CSV stream, a queue, an adapter) is
    /// asked for one chunk per block, so peak staged memory is one
    /// `chunk_rows × d` block whatever the stream length. A
    /// [`RowSource::zero_copy`] source lends windows of many chunks in
    /// place instead, which copies nothing and lets the chunks map across
    /// cores. Must be set before any data is absorbed (silently ignored
    /// afterwards — the chunking of already-absorbed rows cannot be
    /// rewritten).
    ///
    /// At the default size the release is bit-identical to
    /// [`FmEstimator::fit`]; a different size regroups floating-point
    /// sums exactly as
    /// [`crate::assembly::assemble_with_chunk_rows`] at that size would
    /// (~1e-15 relative on the clean coefficients).
    #[must_use]
    pub fn chunk_rows(mut self, chunk_rows: usize) -> Self {
        debug_assert!(
            self.acc.is_none(),
            "set the chunk size before absorbing data"
        );
        if self.acc.is_none() {
            self.chunk_rows = chunk_rows.max(1);
        }
        self
    }

    /// The accumulator at working dimensionality `work_d` (the raw `d`,
    /// plus one under the intercept augmentation), created lazily from the
    /// first shard.
    fn accumulator(&mut self, work_d: usize) -> Result<&mut CoefficientAccumulator<'a, O, C>> {
        let estimator: &'a FmEstimator<O, C> = self.estimator;
        let chunk_rows = self.chunk_rows;
        let acc = self.acc.get_or_insert_with(|| {
            CoefficientAccumulator::with_chunk_rows(&estimator.objective, work_d, chunk_rows)
        });
        if acc.dim() != work_d {
            return Err(FmError::Data(DataError::InvalidParameter {
                name: "shard",
                reason: format!(
                    "shard has working dimensionality {work_d}, earlier shards had {}",
                    acc.dim()
                ),
            }));
        }
        Ok(acc)
    }

    /// Absorbs one shard (drains `source`); returns its row count.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for Resample with Gaussian noise (before
    /// any row is read); [`FmError::Data`] for dimensionality mismatches
    /// across shards, contract violations, or transport errors.
    pub fn absorb(&mut self, source: &mut (impl RowSource + ?Sized)) -> Result<usize> {
        self.estimator.check_noise()?;
        if self.estimator.config.fit_intercept {
            let mut aug = InterceptAugmentSource::new(source);
            let work_d = aug.dim();
            self.accumulator(work_d)?.absorb(&mut aug)
        } else {
            let work_d = source.dim();
            self.accumulator(work_d)?.absorb(source)
        }
    }

    /// Absorbs a single [`RowBlock`].
    ///
    /// # Errors
    /// As [`PartialFit::absorb`].
    pub fn push_block(&mut self, block: &RowBlock) -> Result<()> {
        self.estimator.check_noise()?;
        if self.estimator.config.fit_intercept {
            let aug = block.augment_for_intercept();
            self.accumulator(aug.d())?.push_block(&aug)
        } else {
            self.accumulator(block.d())?.push_block(block)
        }
    }

    /// Total rows absorbed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.acc.as_ref().map_or(0, CoefficientAccumulator::rows)
    }

    /// Tags this fit with the durable-ledger reservation id it runs under
    /// (see [`crate::session::FitPermit::id`]). The id rides along in
    /// every [`PartialFit::checkpoint`] snapshot, so a resumed fit can
    /// re-attach to its already-debited budget instead of re-debiting.
    #[must_use]
    pub fn with_reservation(mut self, id: u64) -> Self {
        self.reservation = Some(id);
        self
    }

    /// The durable-ledger reservation id this fit carries, if any — set
    /// by [`PartialFit::with_reservation`] or restored from a checkpoint
    /// by [`FmEstimator::resume_partial_fit`].
    #[must_use]
    pub fn reservation(&self) -> Option<u64> {
        self.reservation
    }

    /// Serializes the fit's complete accumulation state (chunk grid
    /// position, staged rows, merge-counter stack, reservation tag) to
    /// the versioned, checksummed `fm-checkpoint v1` text format.
    /// Restoring via [`FmEstimator::resume_partial_fit`] and absorbing
    /// the remaining rows releases a model **bit-identical** to the
    /// uninterrupted fit.
    ///
    /// # Errors
    /// [`FmError::Checkpoint`] when nothing has been absorbed yet — there
    /// is no accumulation state to snapshot (resume with a fresh
    /// [`FmEstimator::partial_fit`] instead).
    pub fn checkpoint(&self) -> Result<String> {
        match &self.acc {
            Some(acc) => Ok(acc.checkpoint(self.reservation)),
            None => Err(FmError::Checkpoint {
                reason: "nothing absorbed yet: no accumulation state to snapshot".into(),
            }),
        }
    }

    /// Runs the mechanism over the accumulated coefficients and wraps the
    /// released weights — the one privacy-spending step of the two-phase
    /// fit.
    ///
    /// # Errors
    /// [`FmError::Data`] ([`DataError::EmptyDataset`]) when nothing was
    /// absorbed; otherwise as [`FmEstimator::fit`].
    pub fn finalize(self, rng: &mut impl Rng) -> Result<O::Model> {
        let PartialFit { estimator, acc, .. } = self;
        let clean = acc
            .filter(|a| a.rows() > 0)
            .and_then(CoefficientAccumulator::finish)
            .ok_or(FmError::Data(DataError::EmptyDataset))?;
        estimator.release_clean(&clean, rng)
    }
}

impl<O: Objective<C>, C: Coefficients> FitProgress for PartialFit<'_, O, C> {
    fn rows(&self) -> usize {
        PartialFit::rows(self)
    }

    fn reservation(&self) -> Option<u64> {
        PartialFit::reservation(self)
    }

    fn checkpoint(&self) -> Result<String> {
        PartialFit::checkpoint(self)
    }
}

impl<O: Objective<C>, C: Coefficients> DpEstimator for FmEstimator<O, C> {
    type Model = O::Model;

    fn fit(&self, data: &Dataset, mut rng: &mut dyn RngCore) -> Result<O::Model> {
        FmEstimator::fit(self, data, &mut rng)
    }

    fn fit_stream(
        &self,
        source: &mut dyn RowSource,
        mut rng: &mut dyn RngCore,
    ) -> Result<O::Model> {
        FmEstimator::fit_stream(self, source, &mut rng)
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.config.epsilon)
    }

    fn delta(&self) -> Option<f64> {
        self.config.delta()
    }

    fn task(&self) -> ModelKind {
        <O::Model as PersistableModel>::KIND
    }
}

/// The builder knobs of a loss family whose objective is built at fit
/// time: the logistic [`crate::logreg::Approximation`], the Poisson,
/// median, quantile and Huber settings. Building the objective validates
/// the knobs (a bad γ, τ, δ, `y_max` or Chebyshev interval), and that
/// error surfaces when [`FamilyEstimator`] fits, not when it is built.
pub trait Family: Copy + Default {
    /// The objective these knobs build.
    type Objective: RegressionObjective;

    /// Builds the objective from the knobs.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a knob out of range.
    fn objective(&self) -> Result<Self::Objective>;
}

/// The model a [`Family`] releases.
type FamilyModel<F> = <<F as Family>::Objective as RegressionObjective>::Model;

/// The one estimator front-end of every [`Family`]: a [`FitConfig`] plus
/// the family's knobs. Each entry point builds the family's objective and
/// runs the [`FmEstimator`] core over it, so a bad knob is refused at fit
/// time. `DpLogisticRegression`, `DpPoissonRegression`,
/// `DpMedianRegression`, `DpQuantileRegression` and `DpHuberRegression`
/// are aliases of this type.
#[derive(Debug, Clone)]
pub struct FamilyEstimator<F> {
    pub(crate) config: FitConfig,
    pub(crate) family: F,
}

impl<F: Family> FamilyEstimator<F> {
    /// Starts a builder with the shared defaults (ε = 1, paper
    /// sensitivity, regularize-then-trim, no intercept, Laplace noise) and
    /// the family's default knobs.
    #[must_use]
    pub fn builder() -> EstimatorBuilder<F> {
        EstimatorBuilder::default()
    }

    /// The configured privacy budget.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon
    }

    /// The shared fit configuration.
    #[must_use]
    pub fn config(&self) -> &FitConfig {
        &self.config
    }

    /// Instantiates the generic core for the configured knobs — the way
    /// to this family's [`FmEstimator::partial_fit`],
    /// [`FmEstimator::resume_partial_fit`] and
    /// [`FmEstimator::release_clean`].
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a knob the objective refuses.
    pub fn estimator(&self) -> Result<FmEstimator<F::Objective>> {
        Ok(FmEstimator::new(self.family.objective()?, self.config))
    }

    /// Fits a private model on `data`, which must satisfy the family's
    /// normalized-domain contract.
    ///
    /// # Errors
    /// As [`FmEstimator::fit`], plus [`FmError::InvalidConfig`] for a knob
    /// the objective refuses.
    pub fn fit(&self, data: &Dataset, rng: &mut impl Rng) -> Result<FamilyModel<F>> {
        self.estimator()?.fit(data, rng)
    }

    /// Fits a private model from a streaming [`RowSource`] — see
    /// [`FmEstimator::fit_stream`]: bounded memory, bit-identical to
    /// [`FamilyEstimator::fit`] on the materialized data at the same seed.
    ///
    /// # Errors
    /// As [`FamilyEstimator::fit`], plus transport errors from the source.
    pub fn fit_stream(
        &self,
        source: &mut (impl RowSource + ?Sized),
        rng: &mut impl Rng,
    ) -> Result<FamilyModel<F>> {
        self.estimator()?.fit_stream(source, rng)
    }

    /// Fits one model over the union of disjoint shards — see
    /// [`FmEstimator::fit_sharded`].
    ///
    /// # Errors
    /// As [`FmEstimator::fit_sharded`], plus [`FmError::InvalidConfig`]
    /// for a knob the objective refuses.
    pub fn fit_sharded<S>(&self, shards: &mut [S], rng: &mut impl Rng) -> Result<FamilyModel<F>>
    where
        S: RowSource,
    {
        self.estimator()?.fit_sharded(shards, rng)
    }

    /// Fits the *non-private* minimiser of the truncated objective — the
    /// paper's `Truncated` baseline for this family, isolating surrogate
    /// error from privacy noise (exposed here so `fm-baselines` and the
    /// harness share one implementation).
    ///
    /// # Errors
    /// [`FmError::Data`] / [`FmError::Optim`] on contract violation or a
    /// degenerate (rank-deficient) Hessian; [`FmError::InvalidConfig`]
    /// for a knob the objective refuses.
    pub fn fit_truncated_without_privacy(&self, data: &Dataset) -> Result<FamilyModel<F>> {
        self.estimator()?.fit_without_privacy(data)
    }
}

impl<F: Family> DpEstimator for FamilyEstimator<F> {
    type Model = FamilyModel<F>;

    fn fit(&self, data: &Dataset, mut rng: &mut dyn RngCore) -> Result<Self::Model> {
        FamilyEstimator::fit(self, data, &mut rng)
    }

    fn fit_stream(
        &self,
        source: &mut dyn RowSource,
        mut rng: &mut dyn RngCore,
    ) -> Result<Self::Model> {
        FamilyEstimator::fit_stream(self, source, &mut rng)
    }

    fn epsilon(&self) -> Option<f64> {
        Some(self.config.epsilon)
    }

    fn delta(&self) -> Option<f64> {
        self.config.delta()
    }

    fn task(&self) -> ModelKind {
        <FamilyModel<F> as PersistableModel>::KIND
    }
}

/// The builder shared by every estimator front-end: the five common knobs
/// live here exactly once; each family adds its own (`approximation`,
/// `y_max`, `smoothing`, …) in an `impl` on its concrete instantiation.
#[derive(Debug, Clone, Default)]
pub struct EstimatorBuilder<F> {
    pub(crate) config: FitConfig,
    pub(crate) family: F,
}

impl<F> EstimatorBuilder<F> {
    /// Sets the privacy budget ε (default 1.0).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the sensitivity bound (default [`SensitivityBound::Paper`]).
    #[must_use]
    pub fn sensitivity_bound(mut self, bound: SensitivityBound) -> Self {
        self.config.bound = bound;
        self
    }

    /// Sets the unboundedness strategy (default
    /// [`Strategy::RegularizeThenTrim`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Also fits an intercept term `b` (default `false`), via the paper's
    /// footnote-2 generalisation: the data is mapped to `(x/√2, 1/√2)` —
    /// which preserves the `‖x‖₂ ≤ 1` contract — and a `d+1`-dimensional
    /// model is fitted, so the sensitivity (hence the noise) is the
    /// standard bound at dimension `d+1`.
    #[must_use]
    pub fn fit_intercept(mut self, yes: bool) -> Self {
        self.config.fit_intercept = yes;
        self
    }

    /// Chooses the noise distribution (default
    /// [`NoiseDistribution::Laplace`], strict ε-DP).
    /// [`NoiseDistribution::Gaussian`] switches to the relaxed (ε, δ)
    /// guarantee with L2-calibrated noise; incompatible with
    /// [`Strategy::Resample`].
    #[must_use]
    pub fn noise(mut self, noise: NoiseDistribution) -> Self {
        self.config.noise = noise;
        self
    }

    /// Replaces the whole shared configuration at once.
    #[must_use]
    pub fn config(mut self, config: FitConfig) -> Self {
        self.config = config;
        self
    }
}

impl<F: Family> EstimatorBuilder<F> {
    /// Finalises the configuration. The family's knobs are validated when
    /// the estimator fits.
    #[must_use]
    pub fn build(self) -> FamilyEstimator<F> {
        FamilyEstimator {
            config: self.config,
            family: self.family,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearObjective;
    use crate::model::Model;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(90_210)
    }

    #[test]
    fn config_defaults_match_the_old_builders() {
        let c = FitConfig::default();
        assert_eq!(c.epsilon, 1.0);
        assert_eq!(c.bound, SensitivityBound::Paper);
        assert!(!c.fit_intercept);
        assert_eq!(c.noise, NoiseDistribution::Laplace);
        assert_eq!(c.delta(), None);
        assert_eq!(
            FitConfig::new()
                .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
                .delta(),
            Some(1e-6)
        );
    }

    #[test]
    fn generic_estimator_fits_and_reports_metadata() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 5_000, 3, 0.1);
        let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(0.8));
        assert_eq!(DpEstimator::epsilon(&est), Some(0.8));
        assert_eq!(est.task(), ModelKind::Linear);
        assert_eq!(est.delta(), None);
        let model = est.fit(&data, &mut r).unwrap();
        assert_eq!(model.dim(), 3);
        assert_eq!(Model::epsilon(&model), Some(0.8));
    }

    #[test]
    fn fit_stream_is_bit_identical_to_fit() {
        use fm_data::stream::InMemorySource;
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 5_000, 3, 0.1);
        for intercept in [false, true] {
            let est = FmEstimator::new(
                LinearObjective,
                FitConfig::new().epsilon(1.0).fit_intercept(intercept),
            );
            let mut r1 = rand::rngs::StdRng::seed_from_u64(11);
            let in_memory = est.fit(&data, &mut r1).unwrap();
            let mut r2 = rand::rngs::StdRng::seed_from_u64(11);
            let streamed = est
                .fit_stream(&mut InMemorySource::new(&data), &mut r2)
                .unwrap();
            assert_eq!(in_memory, streamed, "intercept={intercept}");
        }
    }

    #[test]
    fn fit_without_privacy_ignores_the_noise_configuration() {
        // The non-private fit releases nothing, so a configuration only a
        // release refuses (Resample with Gaussian noise) must not stop it:
        // it is the minimiser of the exact objective on the working data.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 9_000, 3, 0.1);
        for intercept in [false, true] {
            let est = FmEstimator::new(
                LinearObjective,
                FitConfig::new()
                    .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
                    .strategy(Strategy::Resample { max_attempts: 3 })
                    .fit_intercept(intercept),
            );
            assert!(matches!(
                est.fit(&data, &mut r),
                Err(FmError::InvalidConfig {
                    name: "strategy",
                    ..
                })
            ));
            let work = if intercept {
                data.augmented_for_intercept_cached()
            } else {
                &data
            };
            let clean = LinearObjective.assemble(work);
            let omega = fm_optim::quadratic::minimize_quadratic(clean.m(), clean.alpha()).unwrap();
            let (omega, b) = if intercept {
                crate::model::split_augmented_weights(omega)
            } else {
                (omega, 0.0)
            };
            let model = est.fit_without_privacy(&data).unwrap();
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(model.weights()), bits(&omega), "intercept={intercept}");
            assert_eq!(model.intercept().to_bits(), b.to_bits());
            assert_eq!(Model::epsilon(&model), None);
        }
    }

    #[test]
    fn partial_fit_across_shards_matches_single_fit() {
        use fm_data::stream::InMemorySource;
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 3_000, 2, 0.1);
        let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(1.0));

        let mut r1 = rand::rngs::StdRng::seed_from_u64(23);
        let whole = est.fit(&data, &mut r1).unwrap();

        // Three unequal shards, one absorb each.
        let idx: Vec<usize> = (0..data.n()).collect();
        let shards = [
            data.subset(&idx[..700]).unwrap(),
            data.subset(&idx[700..2_500]).unwrap(),
            data.subset(&idx[2_500..]).unwrap(),
        ];
        let mut partial = est.partial_fit();
        for shard in &shards {
            partial.absorb(&mut InMemorySource::new(shard)).unwrap();
        }
        assert_eq!(partial.rows(), data.n());
        let mut r2 = rand::rngs::StdRng::seed_from_u64(23);
        let sharded = partial.finalize(&mut r2).unwrap();
        assert_eq!(whole, sharded);
    }

    #[test]
    fn partial_fit_refuses_empty_and_mismatched_shards() {
        use fm_data::stream::InMemorySource;
        let mut r = rng();
        let est = FmEstimator::new(LinearObjective, FitConfig::new());
        // Finalizing with no data is a data error, not a release.
        let empty = est.partial_fit();
        assert!(matches!(
            empty.finalize(&mut r),
            Err(FmError::Data(DataError::EmptyDataset))
        ));
        // Shards must agree on dimensionality.
        let d2 = fm_data::synth::linear_dataset(&mut r, 50, 2, 0.1);
        let d3 = fm_data::synth::linear_dataset(&mut r, 50, 3, 0.1);
        let mut partial = est.partial_fit();
        partial.absorb(&mut InMemorySource::new(&d2)).unwrap();
        assert!(partial.absorb(&mut InMemorySource::new(&d3)).is_err());
    }

    #[test]
    fn default_trait_fit_stream_materializes_for_baseline_style_estimators() {
        use fm_data::stream::InMemorySource;
        // An estimator with no native streaming: the trait default must
        // materialize the stream and produce the same model as fit.
        struct Mean;
        impl DpEstimator for Mean {
            type Model = f64;
            fn fit(&self, data: &Dataset, _: &mut dyn RngCore) -> Result<f64> {
                Ok(data.y().iter().sum::<f64>() / data.n() as f64)
            }
            fn epsilon(&self) -> Option<f64> {
                None
            }
            fn task(&self) -> ModelKind {
                ModelKind::Linear
            }
        }
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 200, 2, 0.1);
        let direct = Mean.fit(&data, &mut r).unwrap();
        let streamed = Mean
            .fit_stream(&mut InMemorySource::new(&data), &mut r)
            .unwrap();
        assert_eq!(direct, streamed);
    }

    #[test]
    fn dyn_estimator_fit_matches_inherent_fit() {
        // The dyn-compatible trait fit and the typed inherent fit must draw
        // the same noise stream and release the same weights.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 2_000, 2, 0.1);
        let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(1.0));

        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let typed = est.fit(&data, &mut r1).unwrap();

        let dyn_est: &dyn DpEstimator<Model = crate::model::LinearModel> = &est;
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        let boxed = dyn_est.fit(&data, &mut r2).unwrap();
        assert_eq!(typed, boxed);
    }
}
