//! Algorithm 1 of the paper: the generic Functional Mechanism.
//!
//! Given an objective whose per-tuple cost contributes polynomial
//! coefficients (degree ≤ 2 after the Section-5 truncation), the mechanism:
//!
//! 1. accumulates the exact coefficient sums `λ_φ = Σ_i λ_{φ t_i}` into a
//!    [`fm_poly::QuadraticForm`] (line 4's inner sums);
//! 2. takes the objective's data-independent sensitivity
//!    `Δ = 2·max_t Σ_φ |λ_{φ t}|` (line 1 / Lemma 1);
//! 3. perturbs every coefficient with i.i.d. `Lap(Δ/ε)` noise (line 4's
//!    `+ Lap(Δ/ε)`), noising the upper triangle of `M` and mirroring so the
//!    released matrix is symmetric (Section 6.1);
//! 4. returns the result as a [`NoisyQuadratic`] — a distinct type from the
//!    clean objective so the Section-6 post-processors can *only* consume
//!    already-privatized coefficients.
//!
//! Privacy (Theorem 1): the only data-dependent values ever released are
//! the coefficients, and each passes through exactly one Laplace mechanism
//! calibrated to their joint L1 sensitivity.

use rand::Rng;

use fm_data::Dataset;
use fm_poly::QuadraticForm;
use fm_privacy::mechanism::{GaussianMechanism, LaplaceMechanism};

use crate::{FmError, Result};

/// Which sensitivity bound to calibrate noise with.
///
/// The paper derives `Δ` with the conservative inequality
/// `Σ_j |x_(j)| ≤ d` (each coordinate bounded by 1). Under the actual input
/// contract `‖x‖₂ ≤ 1`, Cauchy–Schwarz gives the tighter `Σ_j |x_(j)| ≤ √d`.
/// Both are valid upper bounds on the true sensitivity, hence both satisfy
/// ε-DP; the tight variant simply adds less noise. The default is
/// [`SensitivityBound::Paper`] to reproduce the published results; the
/// ablation benchmark (`fm-bench`) quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensitivityBound {
    /// The bound printed in the paper (`2(d+1)²` linear, `d²/4+3d` logistic).
    #[default]
    Paper,
    /// The Cauchy–Schwarz-tightened bound (`2(1+√d)²` linear,
    /// `d/4 + 3√d` logistic).
    Tight,
}

/// Which noise distribution Algorithm 1 injects into the coefficients.
///
/// The paper enforces strict ε-DP with Laplace noise calibrated to the L1
/// sensitivity (the default). Its related-work section discusses the
/// relaxed (ε, δ)-DP notion; [`NoiseDistribution::Gaussian`] implements
/// that variant, calibrating `N(0, σ²)` to the **L2** sensitivity — which
/// for regression coefficient vectors is *dimension-independent* (each
/// per-tuple block is bounded via `‖x‖₂ ≤ 1` directly, no `Σ|x_j| ≤ d`
/// inflation), so the relaxation buys dramatically less noise at high `d`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NoiseDistribution {
    /// `Lap(Δ₁/ε)` per coefficient — strict ε-DP (Theorem 1).
    #[default]
    Laplace,
    /// `N(0, σ²)` with `σ = Δ₂·√(2 ln(1.25/δ))/ε` — (ε, δ)-DP via the
    /// classical Gaussian mechanism (requires `ε < 1`).
    Gaussian {
        /// The failure probability δ ∈ (0, 1).
        delta: f64,
    },
}

/// An objective function in the form Algorithm 1 consumes: per-tuple
/// polynomial coefficients (degree ≤ 2) plus a data-independent sensitivity.
///
/// Implementations must uphold the **Lemma-1 contract**, and it covers
/// every coefficient [`FunctionalMechanism::perturb`] releases — the
/// degree-0 term β included: for any two tuples in the normalized domain
/// (`‖x‖₂ ≤ 1`, label in the model's range), the L1 (resp. L2) distance
/// between their full coefficient contributions is at most
/// `sensitivity(d, bound)` (resp. `sensitivity_l2(d)`). The usual
/// sufficient per-tuple form: degree-≥1 coefficient L1 norm plus the
/// constant's data-dependent share at most `sensitivity(d, bound) / 2` —
/// linear regression's `+1` for `y²` and the robust losses' `ρ_max` are
/// that share, while a data-*independent* constant (logistic's `log 2`,
/// Poisson's `a₀`) cancels between neighbours and needs none. The
/// property tests in `linreg`/`logreg`/`poisson`/`robust` machine-check
/// this contract on random in-domain tuples.
///
/// `Sync` is a supertrait so [`PolynomialObjective::assemble`] can fan the
/// accumulation out across row chunks (see [`crate::assembly`]); every
/// objective here is a small plain-data struct, so the bound costs nothing.
pub trait PolynomialObjective: Sync {
    /// Accumulates tuple `(x, y)`'s coefficient contribution into `q`.
    fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm);

    /// Accumulates a whole row chunk at once: `xs` is a row-major
    /// `k × d` feature block (`k = ys.len()`, `xs.len() = k·d`, `d =
    /// q.dim()`) and `ys` the matching labels.
    ///
    /// The default delegates to [`PolynomialObjective::accumulate_tuple`]
    /// row by row, so existing objectives keep working unchanged. The
    /// built-in objectives override this with blocked Gram kernels
    /// (`yᵀy` / `Xᵀy` / `XᵀX`) that are several times faster than the
    /// per-tuple loop — see the module docs of [`crate::assembly`].
    ///
    /// Overrides must produce the same coefficient sums as the per-tuple
    /// loop up to floating-point regrouping (the equivalence suite in the
    /// facade's `tests/batched_assembly.rs` machine-checks ≤ 1e-12).
    fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
        debug_assert_eq!(xs.len(), ys.len() * d, "accumulate_batch: shape mismatch");
        for (x, &y) in xs.chunks_exact(d).zip(ys) {
            self.accumulate_tuple(x, y, q);
        }
    }

    /// Whether [`PolynomialObjective::accumulate_batch_columnar`] is backed
    /// by real column-major kernels. When `true`, [`crate::assembly`] reads
    /// the dataset's cached [`fm_data::Dataset::columnar`] transpose
    /// instead of re-packing the row-major block every assemble — the
    /// ROADMAP's CV-repeat amortization. The built-in objectives all opt
    /// in; custom objectives keep the row-major path by default.
    fn supports_columnar(&self) -> bool {
        false
    }

    /// Accumulates tuples `[lo, hi)` read from `xt` — the `d × n`
    /// **transpose** of the feature block (one contiguous row per feature
    /// column, see [`fm_data::Dataset::columnar`]) — and the full label
    /// vector `ys` (length `n`).
    ///
    /// Overrides must produce **bit-identical** coefficients to
    /// [`PolynomialObjective::accumulate_batch`] over the same rows: the
    /// columnar kernels in `fm-linalg`/`fm-poly` replicate the row-major
    /// kernels' floating-point grouping exactly, so layout choice can
    /// never perturb an experiment. The default upholds that contract for
    /// *any* objective by materialising the range back into a row-major
    /// block and delegating to
    /// [`PolynomialObjective::accumulate_batch`] — correct and
    /// bit-identical even for an objective that overrides only
    /// `supports_columnar`, at the cost of a transient `(hi−lo)·d` copy.
    fn accumulate_batch_columnar(
        &self,
        xt: &fm_linalg::Matrix,
        ys: &[f64],
        lo: usize,
        hi: usize,
        q: &mut QuadraticForm,
    ) {
        debug_assert_eq!(xt.rows(), q.dim(), "accumulate_batch_columnar: arity");
        debug_assert!(lo <= hi && hi <= ys.len() && ys.len() == xt.cols());
        let d = q.dim();
        let mut rows = vec![0.0; (hi - lo) * d];
        for (offset, i) in (lo..hi).enumerate() {
            for j in 0..d {
                rows[offset * d + j] = xt[(j, i)];
            }
        }
        self.accumulate_batch(&rows, &ys[lo..hi], d, q);
    }

    /// The coefficient-vector L1 sensitivity `Δ₁` for dimension `d`.
    fn sensitivity(&self, d: usize, bound: SensitivityBound) -> f64;

    /// The coefficient-vector **L2** sensitivity `Δ₂` for dimension `d`,
    /// used by the (ε, δ) Gaussian variant. Unlike `Δ₁`, this is `O(1)` in
    /// `d` for all the paper's objectives because every per-tuple block is
    /// bounded through `‖x‖₂ ≤ 1` without a coordinate-sum inflation.
    fn sensitivity_l2(&self, d: usize) -> f64;

    /// Validates one row-major block (`xs` is `k × d`, `k = ys.len()`)
    /// against the normalized-domain contract this objective's
    /// sensitivity analysis assumes — the one statement of that contract,
    /// which every fit checks as its rows arrive (the whole dataset at
    /// once for an in-memory fit, block by block for a streamed one; see
    /// [`crate::assembly::CoefficientAccumulator`]). The built-in
    /// objectives forward to the allocation-free row checks in
    /// `fm_data::dataset`. Tuple indices in errors are block-local.
    ///
    /// # Errors
    /// A [`fm_data::DataError`] describing the violation.
    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()>;

    /// Validates a whole dataset: [`PolynomialObjective::validate_rows`]
    /// over its row-major feature block.
    ///
    /// # Errors
    /// A [`fm_data::DataError`] describing the violation.
    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        self.validate_rows(data.x().as_slice(), data.y(), data.d())
    }

    /// Assembles the exact (noise-free) objective `f_D(ω) = Σ_i f(t_i, ω)`
    /// through the batched chunk pipeline of [`crate::assembly`]
    /// (data-parallel with the `parallel` feature; deterministic across
    /// worker counts either way).
    fn assemble(&self, data: &Dataset) -> QuadraticForm {
        crate::assembly::assemble(self, data)
    }
}

/// The perturbed objective released by Algorithm 1, plus the calibration
/// metadata post-processing needs (`λ = 4·noise stddev` in §6.1).
///
/// This type is deliberately *not* convertible back into a clean
/// [`QuadraticForm`] by reference — consumers take it by value or shared
/// reference and can only read the already-noised coefficients.
#[derive(Debug, Clone)]
pub struct NoisyQuadratic {
    objective: QuadraticForm,
    epsilon: f64,
    delta: Option<f64>,
    sensitivity: f64,
    noise_scale: f64,
    noise_std: f64,
}

impl NoisyQuadratic {
    /// The perturbed quadratic objective `f̄_D(ω)`.
    #[must_use]
    pub fn objective(&self) -> &QuadraticForm {
        &self.objective
    }

    /// Consumes self, yielding the perturbed objective.
    #[must_use]
    pub fn into_objective(self) -> QuadraticForm {
        self.objective
    }

    /// The privacy budget ε spent producing this object.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability δ, when the Gaussian variant produced this
    /// object (`None` for strict ε-DP Laplace noise).
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        self.delta
    }

    /// The sensitivity Δ used for calibration (L1 for Laplace, L2 for
    /// Gaussian).
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The per-coefficient noise distribution's scale parameter: the
    /// Laplace scale `Δ₁/ε`, or the Gaussian σ.
    #[must_use]
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// Standard deviation of the injected per-coefficient noise (`√2·Δ₁/ε`
    /// for Laplace, σ for Gaussian) — §6.1 sets the regularization constant
    /// to four times this.
    #[must_use]
    pub fn noise_std_dev(&self) -> f64 {
        self.noise_std
    }

    /// Mutable access to the objective for post-processing (ridge shifts,
    /// symmetrization). Kept `pub(crate)` so only the §6 post-processors —
    /// which operate solely on noised data — can modify coefficients.
    pub(crate) fn objective_mut(&mut self) -> &mut QuadraticForm {
        &mut self.objective
    }

    /// Test/bench-only constructor for crafting synthetic noisy objectives
    /// (Laplace calibration). Real code paths must go through
    /// [`FunctionalMechanism::perturb`].
    #[doc(hidden)]
    #[must_use]
    pub fn from_parts_for_tests(objective: QuadraticForm, epsilon: f64, sensitivity: f64) -> Self {
        let noise_scale = sensitivity / epsilon;
        NoisyQuadratic {
            objective,
            epsilon,
            delta: None,
            sensitivity,
            noise_scale,
            noise_std: noise_scale * std::f64::consts::SQRT_2,
        }
    }

    /// Wraps the coefficient-wise sum of `contributors` **independently
    /// perturbed** objectives — the aggregation a federated coordinator
    /// performs in local-noise mode, where each of K clients ran
    /// [`FunctionalMechanism::perturb_assembled`] on its own Δ-scaled
    /// contribution (under `mechanism`'s exact configuration) before
    /// upload. Summing already-released objects is pure post-processing,
    /// so the sum carries each contributor's per-shard (ε, δ) guarantee
    /// under parallel composition; its per-coefficient noise is the sum
    /// of K independent draws, so the recorded standard deviation —
    /// which drives §6.1's regularization constant — grows by `√K` over
    /// a single central release at the same ε. That gap is exactly the
    /// utility price of the stronger trust model.
    ///
    /// The noise statistics are derived from `mechanism` and `objective`,
    /// never taken from the network: a coordinator that knows the round's
    /// agreed configuration reports honest calibration even if a client
    /// lies about its own.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for zero contributors;
    /// [`FmError::Privacy`] for degenerate noise parameters.
    pub fn from_federated_sum(
        total: QuadraticForm,
        contributors: usize,
        mechanism: &FunctionalMechanism,
        objective: &impl PolynomialObjective,
    ) -> Result<NoisyQuadratic> {
        if contributors == 0 {
            return Err(FmError::InvalidConfig {
                name: "contributors",
                reason: "a federated sum needs at least one contribution".to_string(),
            });
        }
        let (_, sensitivity, delta, noise_scale, noise_std) =
            mechanism.calibrate(total.dim(), objective)?;
        #[allow(clippy::cast_precision_loss)]
        let spread = (contributors as f64).sqrt();
        Ok(NoisyQuadratic {
            objective: total,
            epsilon: mechanism.epsilon(),
            delta,
            sensitivity,
            noise_scale,
            noise_std: noise_std * spread,
        })
    }
}

/// Algorithm 1, parameterised by the privacy budget, sensitivity-bound
/// choice, and noise distribution.
#[derive(Debug, Clone, Copy)]
pub struct FunctionalMechanism {
    epsilon: f64,
    bound: SensitivityBound,
    noise: NoiseDistribution,
}

/// A calibrated per-coefficient noise source (internal dispatch).
enum NoiseSampler {
    Laplace(LaplaceMechanism),
    Gaussian(GaussianMechanism),
}

impl NoiseSampler {
    fn privatize_scalar(&self, value: f64, rng: &mut impl Rng) -> f64 {
        match self {
            NoiseSampler::Laplace(m) => m.privatize_scalar(value, rng),
            NoiseSampler::Gaussian(m) => m.privatize_scalar(value, rng),
        }
    }

    fn privatize_in_place(&self, values: &mut [f64], rng: &mut impl Rng) {
        match self {
            NoiseSampler::Laplace(m) => m.privatize_in_place(values, rng),
            NoiseSampler::Gaussian(m) => m.privatize_in_place(values, rng),
        }
    }
}

impl FunctionalMechanism {
    /// Creates a mechanism with privacy budget `epsilon` (Laplace noise,
    /// paper sensitivity bound).
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for non-positive or non-finite ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_config(epsilon, SensitivityBound::Paper, NoiseDistribution::Laplace)
    }

    /// Creates a mechanism with an explicit sensitivity-bound choice
    /// (Laplace noise).
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for non-positive or non-finite ε.
    pub fn with_bound(epsilon: f64, bound: SensitivityBound) -> Result<Self> {
        Self::with_config(epsilon, bound, NoiseDistribution::Laplace)
    }

    /// Creates a fully configured mechanism.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a non-positive/non-finite ε, or a δ
    /// outside `(0, 1)` with Gaussian noise.
    pub fn with_config(
        epsilon: f64,
        bound: SensitivityBound,
        noise: NoiseDistribution,
    ) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "epsilon",
                reason: format!("{epsilon} must be finite and > 0"),
            });
        }
        if let NoiseDistribution::Gaussian { delta } = noise {
            if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
                return Err(FmError::InvalidConfig {
                    name: "delta",
                    reason: format!("{delta} must be in (0, 1)"),
                });
            }
            if epsilon >= 1.0 {
                return Err(FmError::InvalidConfig {
                    name: "epsilon",
                    reason: format!("{epsilon} must be < 1 for the classical Gaussian mechanism"),
                });
            }
        }
        Ok(FunctionalMechanism {
            epsilon,
            bound,
            noise,
        })
    }

    /// The configured privacy budget ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configured sensitivity bound.
    #[must_use]
    pub fn bound(&self) -> SensitivityBound {
        self.bound
    }

    /// The configured noise distribution.
    #[must_use]
    pub fn noise(&self) -> NoiseDistribution {
        self.noise
    }

    /// Runs Algorithm 1: assembles the objective's coefficients over `data`
    /// and perturbs every coefficient with calibrated noise — `Lap(Δ₁/ε)`
    /// by default, or `N(0, σ²)` with `σ = Δ₂√(2 ln(1.25/δ))/ε` for the
    /// (ε, δ) variant.
    ///
    /// The returned [`NoisyQuadratic`] is ε-DP (Theorem 1) resp. (ε, δ)-DP;
    /// everything derived from it downstream (minimisation, §6
    /// post-processing, predictions) is post-processing and inherits the
    /// guarantee.
    ///
    /// # Errors
    /// * Input-contract violations from [`PolynomialObjective::validate`].
    /// * [`FmError::Privacy`] for degenerate noise parameters.
    pub fn perturb(
        &self,
        data: &Dataset,
        objective: &impl PolynomialObjective,
        rng: &mut impl Rng,
    ) -> Result<NoisyQuadratic> {
        objective.validate(data)?;
        let clean = objective.assemble(data);
        self.perturb_assembled(&clean, objective, rng)
    }

    /// Algorithm 1's noise step over a **pre-assembled** clean objective:
    /// the entry point the streaming pipeline uses once a
    /// [`crate::assembly::CoefficientAccumulator`] has finished (the data
    /// was validated block-by-block as it streamed), and what the Lemma-5
    /// resample loop re-draws from without re-scanning the data.
    ///
    /// The caller owns the precondition that `clean` really is
    /// `Σ_i λ_{φ t_i}` over a dataset satisfying the objective's contract
    /// — the sensitivity calibration is meaningless otherwise. Noise draw
    /// order (β, α, then the upper triangle of `M`) is identical to
    /// [`FunctionalMechanism::perturb`], so for the same assembled
    /// coefficients and RNG state the two release bit-identical output.
    ///
    /// # Errors
    /// [`FmError::Privacy`] for degenerate noise parameters.
    pub fn perturb_assembled(
        &self,
        clean: &QuadraticForm,
        objective: &impl PolynomialObjective,
        rng: &mut impl Rng,
    ) -> Result<NoisyQuadratic> {
        let d = clean.dim();
        let (sampler, sensitivity, delta_out, noise_scale, noise_std) =
            self.calibrate(d, objective)?;

        let mut q = clean.clone();

        // Perturb β.
        *q.beta_mut() = sampler.privatize_scalar(q.beta(), rng);
        // Perturb α.
        sampler.privatize_in_place(q.alpha_mut(), rng);
        // Perturb the upper triangle of M and mirror (Section 6.1's recipe
        // for keeping M* symmetric).
        for i in 0..d {
            for j in i..d {
                let noisy = sampler.privatize_scalar(q.m()[(i, j)], rng);
                q.m_mut()[(i, j)] = noisy;
                if i != j {
                    q.m_mut()[(j, i)] = noisy;
                }
            }
        }

        Ok(NoisyQuadratic {
            objective: q,
            epsilon: self.epsilon,
            delta: delta_out,
            sensitivity,
            noise_scale,
            noise_std,
        })
    }

    /// The calibrated sampler plus the noise statistics `perturb_assembled`
    /// records: `(sampler, Δ, δ, scale, std)` at dimensionality `d`. Shared
    /// by the perturbation path and [`NoisyQuadratic::from_federated_sum`]
    /// so federated aggregates report exactly the statistics a direct
    /// release would.
    fn calibrate(
        &self,
        d: usize,
        objective: &impl PolynomialObjective,
    ) -> Result<(NoiseSampler, f64, Option<f64>, f64, f64)> {
        Ok(match self.noise {
            NoiseDistribution::Laplace => {
                let s = objective.sensitivity(d, self.bound);
                let mech = LaplaceMechanism::new(s, self.epsilon)?;
                let scale = mech.noise_scale();
                let std = mech.noise_std_dev();
                (NoiseSampler::Laplace(mech), s, None, scale, std)
            }
            NoiseDistribution::Gaussian { delta } => {
                let s = objective.sensitivity_l2(d);
                let mech = GaussianMechanism::new(s, self.epsilon, delta)?;
                let sigma = mech.noise_std_dev();
                (NoiseSampler::Gaussian(mech), s, Some(delta), sigma, sigma)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_linalg::Matrix;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31415)
    }

    /// A toy objective: f(t, ω) = (y − xᵀω)² accumulated exactly (this is
    /// linear regression; the real impl lives in `linreg` — the duplicate
    /// here keeps the mechanism tests self-contained).
    struct Toy;

    impl PolynomialObjective for Toy {
        fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
            *q.beta_mut() += y * y;
            for (i, &xi) in x.iter().enumerate() {
                q.alpha_mut()[i] += -2.0 * y * xi;
            }
            q.m_mut().rank1_update(1.0, x).expect("arity");
        }
        fn sensitivity(&self, d: usize, _: SensitivityBound) -> f64 {
            2.0 * ((d + 1) * (d + 1)) as f64
        }
        fn sensitivity_l2(&self, _d: usize) -> f64 {
            2.0 * 6.0_f64.sqrt()
        }
        fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
            fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
        }
    }

    fn dataset() -> Dataset {
        let x = Matrix::from_rows(&[&[0.5, 0.5], &[-0.3, 0.2], &[0.1, -0.7]]).unwrap();
        Dataset::new(x, vec![0.4, -0.2, 0.9]).unwrap()
    }

    #[test]
    fn epsilon_validation() {
        assert!(FunctionalMechanism::new(0.0).is_err());
        assert!(FunctionalMechanism::new(-1.0).is_err());
        assert!(FunctionalMechanism::new(f64::NAN).is_err());
        assert!(FunctionalMechanism::new(0.8).is_ok());
    }

    #[test]
    fn assemble_is_exact_sum() {
        let data = dataset();
        let q = Toy.assemble(&data);
        // β = Σ y².
        let beta_expected: f64 = data.y().iter().map(|y| y * y).sum();
        assert!((q.beta() - beta_expected).abs() < 1e-12);
        // Objective value equals Σ (y − xᵀω)² at a probe point.
        let omega = [0.3, -0.1];
        let direct: f64 = data
            .tuples()
            .map(|(x, y)| {
                let r = y - fm_linalg::vecops::dot(x, &omega);
                r * r
            })
            .sum();
        assert!((q.eval(&omega) - direct).abs() < 1e-12);
    }

    #[test]
    fn perturbed_matrix_is_symmetric() {
        let fm = FunctionalMechanism::new(1.0).unwrap();
        let noisy = fm.perturb(&dataset(), &Toy, &mut rng()).unwrap();
        assert!(noisy.objective().m().is_symmetric(0.0));
    }

    #[test]
    fn metadata_is_calibrated() {
        let fm = FunctionalMechanism::new(0.5).unwrap();
        let noisy = fm.perturb(&dataset(), &Toy, &mut rng()).unwrap();
        // d = 2 ⇒ Δ = 2·9 = 18, scale = 36.
        assert_eq!(noisy.sensitivity(), 18.0);
        assert_eq!(noisy.epsilon(), 0.5);
        assert!((noisy.noise_scale() - 36.0).abs() < 1e-12);
        assert!((noisy.noise_std_dev() - 36.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn noise_has_the_right_magnitude() {
        // Empirical: the injected noise per coefficient should have stddev
        // ≈ √2·Δ/ε. Re-run the mechanism many times on the same data and
        // compare β (whose clean value is known) against its noisy values.
        let data = dataset();
        let fm = FunctionalMechanism::new(2.0).unwrap();
        let clean_beta = Toy.assemble(&data).beta();
        let mut r = rng();
        let n = 4_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| fm.perturb(&data, &Toy, &mut r).unwrap().objective().beta() - clean_beta)
            .collect();
        let mean = fm_linalg::vecops::mean(&samples);
        let std = fm_linalg::vecops::variance(&samples).sqrt();
        let expected_std = (18.0 / 2.0) * std::f64::consts::SQRT_2;
        assert!(mean.abs() < expected_std * 0.1, "bias {mean}");
        assert!(
            (std - expected_std).abs() < expected_std * 0.1,
            "std {std} vs {expected_std}"
        );
    }

    #[test]
    fn rejects_unnormalized_input() {
        let x = Matrix::from_rows(&[&[2.0, 2.0]]).unwrap(); // ‖x‖ > 1
        let bad = Dataset::new(x, vec![0.0]).unwrap();
        let fm = FunctionalMechanism::new(1.0).unwrap();
        assert!(matches!(
            fm.perturb(&bad, &Toy, &mut rng()),
            Err(FmError::Data(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let fm = FunctionalMechanism::new(1.0).unwrap();
        let a = fm.perturb(&dataset(), &Toy, &mut rng()).unwrap();
        let b = fm.perturb(&dataset(), &Toy, &mut rng()).unwrap();
        assert_eq!(a.objective().beta(), b.objective().beta());
        assert_eq!(a.objective().alpha(), b.objective().alpha());
    }

    #[test]
    fn different_draws_differ() {
        let fm = FunctionalMechanism::new(1.0).unwrap();
        let mut r = rng();
        let a = fm.perturb(&dataset(), &Toy, &mut r).unwrap();
        let b = fm.perturb(&dataset(), &Toy, &mut r).unwrap();
        assert_ne!(a.objective().beta(), b.objective().beta());
    }
}
