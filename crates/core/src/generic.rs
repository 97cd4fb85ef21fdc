//! Algorithm 1 in its full generality: objectives whose per-tuple cost is a
//! polynomial of **any finite degree `J`**, not just the degree-2 forms the
//! paper's two case studies reduce to.
//!
//! The paper states Algorithm 1 over the complete monomial sets
//! `Φ_0 … Φ_J` (Equation 2): line 4 draws one Laplace variate for *every*
//! `φ ∈ Φ_j` — including monomials whose clean coefficient happens to be
//! zero. (Skipping structural zeros would leak which coefficients are
//! zero, exactly the kind of side channel Theorem 1's proof excludes.)
//! The dense [`QuadraticForm`](fm_poly::QuadraticForm) path in
//! [`crate::mechanism`] does this implicitly for `J = 2`; this module does
//! it explicitly for arbitrary `J` over the sparse
//! [`Polynomial`] representation.
//!
//! Two honest caveats, both inherited from the paper:
//!
//! * `|Φ_j| = C(d+j−1, j)` grows quickly; the mechanism refuses degree/
//!   dimension combinations whose coefficient count exceeds a sanity cap
//!   rather than silently allocating gigabytes.
//! * §6's post-processing is quadratic-specific. A noisy odd-degree
//!   polynomial is *always* unbounded below; even-degree ones can still
//!   lose coercivity to noise. [`NoisyPolynomial::minimize`] therefore
//!   performs a bounded gradient-descent search and reports
//!   [`fm_optim::OptimError::UnboundedObjective`] when the iterates
//!   diverge, leaving retry policy to the caller (Lemma 5 applies
//!   unchanged).
//!
//! This module is the **mechanism level** of the general-degree story.
//! Estimator-level code should use [`crate::sparse::SparseFmEstimator`] —
//! the one [`crate::estimator::FmEstimator`] pipeline over [`Polynomial`]
//! coefficients, which streams, checkpoints and shards through the same
//! [`crate::assembly::CoefficientAccumulator`] as the degree-2 families
//! and draws its noise with [`GenericFunctionalMechanism`]. Driving
//! `perturb`/`minimize` by hand (as the quartic example used to) is a
//! deprecated pattern kept only for tests that pin the two paths equal.

use rand::Rng;

use fm_data::Dataset;
use fm_poly::monomial::{monomials_up_to_degree, Monomial};
use fm_poly::Polynomial;
use fm_privacy::mechanism::{GaussianMechanism, LaplaceMechanism};

use crate::mechanism::NoiseDistribution;
use crate::{FmError, Result};

/// Refuse objectives with more perturbable coefficients than this — at
/// `d = 14, J = 4` the count is already 3,060; the cap guards runaway
/// degree/dimension combinations, not legitimate workloads.
pub const MAX_COEFFICIENTS: usize = 200_000;

/// An objective in the general Equation-3 form: each tuple contributes a
/// polynomial of degree ≤ [`GeneralObjective::max_degree`].
///
/// Like [`crate::PolynomialObjective`], implementations own the Lemma-1
/// contract, and it covers **every coefficient the mechanism releases** —
/// [`GenericFunctionalMechanism::perturb`] draws noise for the whole of
/// `Φ_0 ∪ … ∪ Φ_J`, the degree-0 monomial included. For any two tuples in
/// the domain [`GeneralObjective::validate`] accepts, the L1 distance
/// between their [`GeneralObjective::tuple_polynomial`] coefficient
/// vectors must be at most `sensitivity(d)`; the usual sufficient
/// per-tuple form is full coefficient L1 norm (constant included) at most
/// `sensitivity(d) / 2`, though a data-*independent* constant cancels
/// between neighbours and needs no Δ share.
/// `Sync` is a supertrait for the same reason as on
/// [`crate::PolynomialObjective`]: [`GeneralObjective::assemble`] fans the
/// accumulation out across row chunks.
pub trait GeneralObjective: Sync {
    /// The per-tuple cost `f(t, ω)` as a polynomial in ω.
    fn tuple_polynomial(&self, x: &[f64], y: f64, d: usize) -> Polynomial;

    /// Accumulates a whole row chunk (`xs` row-major `k × d`, `ys` the
    /// matching labels) into the partial objective `f`. The default sums
    /// [`GeneralObjective::tuple_polynomial`] row by row; objectives whose
    /// per-tuple polynomial has Gram structure (e.g.
    /// [`GeneralLinearObjective`]) override it with batched kernels.
    fn accumulate_chunk(&self, xs: &[f64], ys: &[f64], d: usize, f: &mut Polynomial) {
        debug_assert_eq!(xs.len(), ys.len() * d, "accumulate_chunk: shape mismatch");
        for (x, &y) in xs.chunks_exact(d).zip(ys) {
            f.add_assign(&self.tuple_polynomial(x, y, d));
        }
    }

    /// The maximum degree `J` any tuple's polynomial can reach.
    fn max_degree(&self, d: usize) -> u32;

    /// The coefficient-vector L1 sensitivity `Δ` (Lemma 1).
    fn sensitivity(&self, d: usize) -> f64;

    /// The coefficient-vector **L2** sensitivity Δ₂, when one has been
    /// derived — what calibrates Gaussian noise for the (ε, δ) release
    /// path. The same Lemma-1-style contract applies, in the L2 norm
    /// and covering every released coefficient. The default is `None`:
    /// objectives without a derived Δ₂ stay Laplace-only, and
    /// [`GenericFunctionalMechanism::perturb`] refuses Gaussian noise
    /// for them rather than guessing a bound.
    fn sensitivity_l2(&self, d: usize) -> Option<f64> {
        let _ = d;
        None
    }

    /// Validates the dataset against the domain this objective's
    /// sensitivity analysis assumes.
    ///
    /// # Errors
    /// A [`fm_data::DataError`] describing the violation.
    fn validate(&self, data: &Dataset) -> fm_data::Result<()>;

    /// Validates one streamed row-major block against the same contract —
    /// the general-degree counterpart of
    /// [`crate::PolynomialObjective::validate_rows`], consumed by the
    /// streaming [`crate::assembly::CoefficientAccumulator`]. The default materializes the block and
    /// delegates; the built-ins override with the allocation-free row
    /// checks.
    ///
    /// # Errors
    /// A [`fm_data::DataError`] describing the violation (tuple indices
    /// are block-local).
    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        if ys.is_empty() {
            return Ok(());
        }
        let x = fm_linalg::Matrix::from_vec(ys.len(), d, xs.to_vec()).map_err(|_| {
            fm_data::DataError::LengthMismatch {
                rows: xs.len() / d.max(1),
                labels: ys.len(),
            }
        })?;
        self.validate(&Dataset::new(x, ys.to_vec())?)
    }

    /// Assembles the exact objective `f_D(ω) = Σ_i f(t_i, ω)` through the
    /// same chunked map-reduce as the degree-2 path (data-parallel with
    /// the `parallel` feature; deterministic merge order).
    fn assemble(&self, data: &Dataset) -> Polynomial {
        let d = data.d();
        let xs = data.x().as_slice();
        let ys = data.y();
        crate::assembly::map_reduce_chunks(
            data.n(),
            crate::assembly::DEFAULT_CHUNK_ROWS,
            |lo, hi| {
                let mut f = Polynomial::zero(d);
                self.accumulate_chunk(&xs[lo * d..hi * d], &ys[lo..hi], d, &mut f);
                f
            },
            |acc, part| acc.add_assign(&part),
        )
        .unwrap_or_else(|| Polynomial::zero(d))
    }
}

/// A general-degree noisy objective released by
/// [`GenericFunctionalMechanism::perturb`].
#[derive(Debug, Clone)]
pub struct NoisyPolynomial {
    polynomial: Polynomial,
    epsilon: f64,
    /// `Some(δ)` for a Gaussian release, `None` for pure-DP Laplace.
    delta: Option<f64>,
    sensitivity: f64,
    noise_scale: f64,
    noise_std: f64,
}

impl NoisyPolynomial {
    /// The perturbed polynomial objective `f̄_D(ω)`.
    #[must_use]
    pub fn polynomial(&self) -> &Polynomial {
        &self.polynomial
    }

    /// The privacy budget ε spent producing this object.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The Gaussian failure probability δ of this release (`None` for a
    /// pure-DP Laplace release).
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        self.delta
    }

    /// The sensitivity used for calibration: Δ₁ for Laplace, Δ₂ for
    /// Gaussian.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The per-coefficient noise scale: Laplace `b = Δ₁/ε`, or Gaussian
    /// `σ = Δ₂·√(2 ln(1.25/δ))/ε`.
    #[must_use]
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// Standard deviation of the injected per-coefficient noise (`√2·b`
    /// for Laplace, `σ` for Gaussian) — the §6.1-style regularization
    /// constant for the general-degree path is four times this, exactly
    /// as for [`crate::mechanism::NoisyQuadratic`].
    #[must_use]
    pub fn noise_std_dev(&self) -> f64 {
        self.noise_std
    }

    /// Mutable access for the §6-style post-processors (ridge shifts).
    /// `pub(crate)` so only code operating on already-noised coefficients
    /// can modify them.
    pub(crate) fn polynomial_mut(&mut self) -> &mut Polynomial {
        &mut self.polynomial
    }

    /// Minimises `f̄_D` by gradient descent from `start`, with divergence
    /// detection: iterates escaping `‖ω‖ > radius` report the objective as
    /// unbounded (the general-degree analogue of §6's failure mode).
    ///
    /// # Errors
    /// * [`FmError::Optim`] with `UnboundedObjective` on divergence, or the
    ///   solver's own failure modes.
    pub fn minimize(&self, start: &[f64], radius: f64) -> Result<Vec<f64>> {
        minimize_polynomial(&self.polynomial, start, radius)
    }
}

/// Minimises an arbitrary-degree polynomial by gradient descent from
/// `start`, with divergence detection past `radius` — the one solve shared
/// by [`NoisyPolynomial::minimize`] and the sparse estimator's non-private
/// reference fit, so the private and clean paths can never drift apart.
///
/// # Errors
/// * [`FmError::Optim`] with `UnboundedObjective` on divergence, or the
///   solver's own failure modes.
pub(crate) fn minimize_polynomial(p: &Polynomial, start: &[f64], radius: f64) -> Result<Vec<f64>> {
    struct PolyObjective<'a> {
        p: &'a Polynomial,
    }
    impl fm_optim::Objective for PolyObjective<'_> {
        fn dim(&self) -> usize {
            self.p.num_vars()
        }
        fn value(&self, omega: &[f64]) -> f64 {
            self.p.eval(omega)
        }
        fn gradient(&self, omega: &[f64]) -> Vec<f64> {
            self.p.gradient(omega)
        }
    }

    let gd = fm_optim::gd::GradientDescent::default();
    let result = gd
        .minimize_within(&PolyObjective { p }, start, radius)
        .map_err(FmError::from)?;
    Ok(result.omega)
}

/// Algorithm 1 over arbitrary-degree polynomial objectives.
#[derive(Debug, Clone, Copy)]
pub struct GenericFunctionalMechanism {
    epsilon: f64,
    noise: NoiseDistribution,
}

impl GenericFunctionalMechanism {
    /// Creates a mechanism with privacy budget `epsilon` (Laplace noise).
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for non-positive or non-finite ε.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_noise(epsilon, NoiseDistribution::Laplace)
    }

    /// Creates a mechanism with an explicit noise distribution — the
    /// general-degree counterpart of
    /// [`crate::FunctionalMechanism::with_config`]. Gaussian noise
    /// requires the objective to provide an L2 sensitivity
    /// ([`GeneralObjective::sensitivity_l2`]); `perturb` refuses
    /// objectives that do not.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for non-positive or non-finite ε.
    pub fn with_noise(epsilon: f64, noise: NoiseDistribution) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(FmError::InvalidConfig {
                name: "epsilon",
                reason: format!("{epsilon} must be finite and > 0"),
            });
        }
        Ok(GenericFunctionalMechanism { epsilon, noise })
    }

    /// The configured privacy budget ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configured noise distribution.
    #[must_use]
    pub fn noise(&self) -> NoiseDistribution {
        self.noise
    }

    /// Runs Algorithm 1 literally: assembles `f_D`, then perturbs the
    /// coefficient of **every** monomial in `Φ_0 ∪ … ∪ Φ_J` — structural
    /// zeros included — with i.i.d. `Lap(Δ/ε)` noise.
    ///
    /// # Errors
    /// * Contract violations from [`GeneralObjective::validate`].
    /// * [`FmError::InvalidConfig`] when `|Φ_0 ∪ … ∪ Φ_J|` exceeds
    ///   [`MAX_COEFFICIENTS`].
    /// * [`FmError::Privacy`] for degenerate noise parameters.
    pub fn perturb(
        &self,
        data: &Dataset,
        objective: &impl GeneralObjective,
        rng: &mut impl Rng,
    ) -> Result<NoisyPolynomial> {
        objective.validate(data)?;
        let clean = objective.assemble(data);
        self.perturb_assembled(&clean, objective, rng)
    }

    /// Algorithm 1's noise step over a **pre-assembled** clean polynomial
    /// — the general-degree counterpart of
    /// [`crate::FunctionalMechanism::perturb_assembled`], used by the
    /// streaming sparse-estimator pipeline (the data was validated block
    /// by block while a [`crate::assembly::CoefficientAccumulator`]
    /// assembled it) and by
    /// the Lemma-5 resample loop to re-draw noise without re-scanning the
    /// data. The caller owns the precondition that `clean` really is the
    /// coefficient sum of a contract-satisfying dataset.
    ///
    /// # Errors
    /// * [`FmError::InvalidConfig`] when `|Φ_0 ∪ … ∪ Φ_J|` exceeds
    ///   [`MAX_COEFFICIENTS`] or the assembled degree exceeds the
    ///   declared [`GeneralObjective::max_degree`].
    /// * [`FmError::Privacy`] for degenerate noise parameters.
    pub fn perturb_assembled(
        &self,
        clean: &Polynomial,
        objective: &impl GeneralObjective,
        rng: &mut impl Rng,
    ) -> Result<NoisyPolynomial> {
        let d = clean.num_vars();
        let j_max = objective.max_degree(d);

        // Enumerating Φ_0..Φ_J up front both sizes the release and defines
        // the exact coefficient set line 4 iterates over.
        let monomials: Vec<Monomial> = monomials_up_to_degree(d, j_max);
        if monomials.len() > MAX_COEFFICIENTS {
            return Err(FmError::InvalidConfig {
                name: "degree/dimension",
                reason: format!(
                    "{} monomials of degree ≤ {j_max} over d = {d} exceeds the {MAX_COEFFICIENTS} cap",
                    monomials.len()
                ),
            });
        }

        // A mis-declared max_degree would silently drop the out-of-range
        // coefficients from the release *and* void the sensitivity
        // analysis — refuse loudly instead.
        if clean.degree() > j_max {
            return Err(FmError::InvalidConfig {
                name: "max_degree",
                reason: format!(
                    "objective assembled to degree {} but declared max_degree {j_max}",
                    clean.degree()
                ),
            });
        }

        enum Sampler {
            Laplace(LaplaceMechanism),
            Gaussian(GaussianMechanism),
        }
        let (sampler, delta_out, sensitivity, noise_scale, noise_std) = match self.noise {
            NoiseDistribution::Laplace => {
                let delta1 = objective.sensitivity(d);
                let mech = LaplaceMechanism::new(delta1, self.epsilon)?;
                let scale = delta1 / self.epsilon;
                (
                    Sampler::Laplace(mech),
                    None,
                    delta1,
                    scale,
                    scale * std::f64::consts::SQRT_2,
                )
            }
            NoiseDistribution::Gaussian { delta } => {
                let Some(delta2) = objective.sensitivity_l2(d) else {
                    return Err(FmError::InvalidConfig {
                        name: "noise",
                        reason: "Gaussian noise needs an L2 sensitivity, and this objective \
                                 derives none (GeneralObjective::sensitivity_l2 is None); \
                                 use Laplace noise or derive Δ₂"
                            .to_string(),
                    });
                };
                let mech = GaussianMechanism::new(delta2, self.epsilon, delta)?;
                let sigma = mech.noise_std_dev();
                (Sampler::Gaussian(mech), Some(delta), delta2, sigma, sigma)
            }
        };
        let mut noisy = Polynomial::zero(d);
        for phi in monomials {
            let lambda = clean.coefficient(&phi);
            let released = match &sampler {
                Sampler::Laplace(m) => m.privatize_scalar(lambda, rng),
                Sampler::Gaussian(m) => m.privatize_scalar(lambda, rng),
            };
            noisy.add_term(phi, released);
        }

        Ok(NoisyPolynomial {
            polynomial: noisy,
            epsilon: self.epsilon,
            delta: delta_out,
            sensitivity,
            noise_scale,
            noise_std,
        })
    }
}

/// The paper's linear regression expressed in the general form — used to
/// validate the generic path against the specialised degree-2 pipeline,
/// and exported for callers who want the polynomial representation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneralLinearObjective;

impl GeneralObjective for GeneralLinearObjective {
    fn tuple_polynomial(&self, x: &[f64], y: f64, d: usize) -> Polynomial {
        // (y − xᵀω)² = y² − 2yΣx_jω_j + ΣΣ x_jx_l ω_jω_l.
        let mut p = Polynomial::zero(d);
        p.add_term(Monomial::constant(d), y * y);
        for (j, &xj) in x.iter().enumerate() {
            p.add_term(Monomial::linear(d, j), -2.0 * y * xj);
            for (l, &xl) in x.iter().enumerate().skip(j) {
                let c = if j == l { xj * xj } else { 2.0 * xj * xl };
                p.add_term(Monomial::quadratic(d, j, l), c);
            }
        }
        p
    }

    fn accumulate_chunk(&self, xs: &[f64], ys: &[f64], d: usize, f: &mut Polynomial) {
        // Gram-kernel fast path: assemble the chunk densely (yᵀy, Xᵀy,
        // XᵀX — same kernels as the degree-2 pipeline), then convert once.
        // `to_polynomial` splits each off-diagonal M entry across (i,j) and
        // (j,i), which add onto the same monomial, matching the per-tuple
        // expansion's single 2·x_j·x_l term.
        use crate::mechanism::PolynomialObjective;
        let mut q = fm_poly::QuadraticForm::zero(d);
        crate::linreg::LinearObjective.accumulate_batch(xs, ys, d, &mut q);
        f.add_assign(&q.to_polynomial());
    }

    fn max_degree(&self, _d: usize) -> u32 {
        2
    }

    fn sensitivity(&self, d: usize) -> f64 {
        crate::linreg::sensitivity_paper(d)
    }

    fn sensitivity_l2(&self, _d: usize) -> Option<f64> {
        // Identical coefficient vector to the degree-2 pipeline, so the
        // same dimension-independent 2√6 bound applies.
        Some(crate::linreg::sensitivity_l2())
    }

    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        data.check_normalized_linear()
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
    }
}

/// A **quartic** regression objective `f(t, ω) = (y − xᵀω)⁴` — a loss the
/// degree-2 machinery cannot express, demonstrating that Algorithm 1
/// really does cover "a large class of optimization-based analyses"
/// (paper abstract). The quartic loss penalises outliers harder than
/// squared error; its even degree keeps the clean objective bounded below.
///
/// Sensitivity: expanding `(y − xᵀω)⁴ = Σ_{k=0}^{4} C(4,k) y^{4−k}
/// (−xᵀω)^k`, the degree-`k` coefficients have total L1 mass at most
/// `C(4,k)·|y|^{4−k}·(Σ|x_j|)^k ≤ C(4,k)·d^k` on the normalized domain.
/// The `k = 0` term is the released constant `y⁴` — data-dependent, so it
/// takes its own Δ share (like linear regression's `+1` for `y²`) — giving
/// `Δ = 2·Σ_{k=0}^{4} C(4,k)·d^k = 2(1+d)⁴`.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuarticObjective;

impl GeneralObjective for QuarticObjective {
    fn tuple_polynomial(&self, x: &[f64], y: f64, d: usize) -> Polynomial {
        // Build s(ω) = (y − xᵀω) as a degree-1 polynomial, then square twice.
        let mut s = Polynomial::zero(d);
        s.add_term(Monomial::constant(d), y);
        for (j, &xj) in x.iter().enumerate() {
            s.add_term(Monomial::linear(d, j), -xj);
        }
        let s2 = s.mul(&s);
        s2.mul(&s2)
    }

    fn max_degree(&self, _d: usize) -> u32 {
        4
    }

    fn sensitivity(&self, d: usize) -> f64 {
        let dp1 = 1.0 + d as f64;
        2.0 * dp1.powi(4)
    }

    fn sensitivity_l2(&self, d: usize) -> Option<f64> {
        // Per degree-k block, ‖block‖₂ ≤ ‖block‖₁ ≤ C(4,k)·(Σ|x_j|)^k,
        // and on the normalized domain Cauchy–Schwarz gives
        // Σ|x_j| ≤ √d·‖x‖₂ ≤ √d. Summing block norms (≥ the full-vector
        // L2 norm): Σ_k C(4,k)·(√d)^k = (1+√d)⁴ per tuple, doubled for
        // the two-tuple neighbour difference — strictly below the L1
        // bound 2(1+d)⁴ for d ≥ 2.
        let sqrt_dp1 = 1.0 + (d as f64).sqrt();
        Some(2.0 * sqrt_dp1.powi(4))
    }

    fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
        data.check_normalized_linear()
    }

    fn validate_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        fm_data::dataset::check_rows_normalized_linear(xs, ys, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearObjective;
    use crate::mechanism::PolynomialObjective;
    use fm_linalg::vecops;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2_024)
    }

    #[test]
    fn general_linear_assembly_matches_quadratic_path() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 200, 3, 0.1);
        let generic = GeneralLinearObjective.assemble(&data);
        let dense = LinearObjective.assemble(&data);
        for _ in 0..20 {
            let omega = fm_data::synth::sample_in_ball(&mut r, 3, 2.0);
            assert!(
                (generic.eval(&omega) - dense.eval(&omega)).abs() < 1e-8,
                "objectives disagree at {omega:?}"
            );
        }
        // And the polynomial ↔ quadratic conversions agree coefficient-wise.
        let roundtrip = generic.to_quadratic_form().expect("degree 2");
        assert!(roundtrip.m().approx_eq(dense.m(), 1e-12));
    }

    #[test]
    fn structural_zeros_are_noised_too() {
        // A dataset whose x₂ column is identically zero: the clean
        // coefficient of ω₂ is exactly 0, but Algorithm 1 line 4 must still
        // release a noisy value for it.
        let x = fm_linalg::Matrix::from_rows(&[&[0.5, 0.0], &[-0.3, 0.0]]).unwrap();
        let data = Dataset::new(x, vec![0.2, -0.1]).unwrap();
        let fm = GenericFunctionalMechanism::new(1.0).unwrap();
        let mut r = rng();
        let noisy = fm.perturb(&data, &GeneralLinearObjective, &mut r).unwrap();
        let coeff = noisy.polynomial().coefficient(&Monomial::linear(2, 1));
        assert_ne!(coeff, 0.0, "structural zero must be perturbed");
        // Every monomial of degree ≤ 2 over d = 2 is present: |Φ_0..2| = 6.
        assert_eq!(noisy.polynomial().num_terms(), 6);
    }

    #[test]
    fn generic_minimize_matches_closed_form_at_high_epsilon() {
        let mut r = rng();
        let w = vec![0.4, -0.2];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 5_000, &w, 0.02);
        let fm = GenericFunctionalMechanism::new(1e7).unwrap(); // ~no noise
        let noisy = fm.perturb(&data, &GeneralLinearObjective, &mut r).unwrap();
        let omega = noisy.minimize(&[0.0, 0.0], 100.0).unwrap();
        assert!(
            vecops::dist2(&omega, &w) < 0.05,
            "generic minimiser {omega:?} far from {w:?}"
        );
    }

    #[test]
    fn quartic_expansion_is_exact() {
        let x = [0.3, -0.5];
        let y = 0.7;
        let p = QuarticObjective.tuple_polynomial(&x, y, 2);
        assert_eq!(p.degree(), 4);
        for omega in [[0.0, 0.0], [1.0, -1.0], [0.4, 0.9]] {
            let direct = (y - (x[0] * omega[0] + x[1] * omega[1])).powi(4);
            assert!(
                (p.eval(&omega) - direct).abs() < 1e-12,
                "expansion wrong at {omega:?}"
            );
        }
    }

    #[test]
    fn quartic_sensitivity_contract() {
        // Lemma-1 contract for the quartic loss, fuzzed over the domain.
        let mut r = rng();
        for d in [1usize, 2, 4] {
            let delta = QuarticObjective.sensitivity(d);
            for _ in 0..200 {
                let x = fm_data::synth::sample_in_ball(&mut r, d, 1.0);
                let y = rand::Rng::gen_range(&mut r, -1.0..=1.0);
                let p = QuarticObjective.tuple_polynomial(&x, y, d);
                // Constant included: the mechanism releases the Φ_0
                // coefficient and its clean value y⁴ is data-dependent.
                assert!(
                    p.coefficient_l1_norm_with_constant() <= delta / 2.0 + 1e-9,
                    "d={d}: L1 {} > Δ/2 {}",
                    p.coefficient_l1_norm_with_constant(),
                    delta / 2.0
                );
            }
        }
    }

    #[test]
    fn quartic_private_fit_recovers_direction_at_generous_budget() {
        let mut r = rng();
        let w = vec![0.5, -0.3];
        let data = fm_data::synth::linear_dataset_with_weights(&mut r, 40_000, &w, 0.02);
        let fm = GenericFunctionalMechanism::new(100.0).unwrap();
        let noisy = fm.perturb(&data, &QuarticObjective, &mut r).unwrap();
        let omega = noisy.minimize(&[0.0, 0.0], 50.0).unwrap();
        let cos = vecops::dot(&omega, &w) / (vecops::norm2(&omega) * vecops::norm2(&w));
        assert!(cos > 0.9, "cosine {cos}, ω = {omega:?}");
    }

    #[test]
    fn unbounded_noisy_polynomial_reports_cleanly() {
        // At tiny ε the quartic's leading coefficients go negative on many
        // draws; minimize must report unboundedness, not diverge silently.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 50, 2, 0.05);
        let fm = GenericFunctionalMechanism::new(0.01).unwrap();
        let mut saw_unbounded = false;
        for _ in 0..20 {
            let noisy = fm.perturb(&data, &QuarticObjective, &mut r).unwrap();
            match noisy.minimize(&[0.0, 0.0], 1e3) {
                Ok(omega) => assert!(omega.iter().all(|v| v.is_finite())),
                Err(FmError::Optim(fm_optim::OptimError::UnboundedObjective)) => {
                    saw_unbounded = true;
                }
                Err(FmError::Optim(_)) => {} // line-search breakdown: also clean
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_unbounded, "tiny ε should produce unbounded draws");
    }

    #[test]
    fn coefficient_cap_enforced() {
        // d = 60, J = 4 ⇒ C(63,4) ≈ 595k > cap.
        let mut r = rng();
        let x = fm_linalg::Matrix::from_fn(3, 60, |_, _| 0.01);
        let data = Dataset::new(x, vec![0.0, 0.1, -0.1]).unwrap();
        let fm = GenericFunctionalMechanism::new(1.0).unwrap();
        let err = fm.perturb(&data, &QuarticObjective, &mut r).unwrap_err();
        assert!(matches!(err, FmError::InvalidConfig { .. }));
    }

    #[test]
    fn epsilon_validation() {
        assert!(GenericFunctionalMechanism::new(0.0).is_err());
        assert!(GenericFunctionalMechanism::new(f64::NAN).is_err());
        assert!(GenericFunctionalMechanism::new(0.5).is_ok());
    }

    #[test]
    fn mis_declared_degree_is_refused() {
        // An objective that lies about its degree must be rejected loudly —
        // silently dropping coefficients would void the privacy analysis.
        struct Liar;
        impl GeneralObjective for Liar {
            fn tuple_polynomial(&self, x: &[f64], y: f64, d: usize) -> Polynomial {
                QuarticObjective.tuple_polynomial(x, y, d) // degree 4…
            }
            fn max_degree(&self, _d: usize) -> u32 {
                2 // …declared as 2
            }
            fn sensitivity(&self, d: usize) -> f64 {
                QuarticObjective.sensitivity(d)
            }
            fn validate(&self, data: &Dataset) -> fm_data::Result<()> {
                data.check_normalized_linear()
            }
        }
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 20, 2, 0.05);
        let fm = GenericFunctionalMechanism::new(1.0).unwrap();
        assert!(matches!(
            fm.perturb(&data, &Liar, &mut r),
            Err(FmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn noise_scale_is_cardinality_independent() {
        let mut r = rng();
        let small = fm_data::synth::linear_dataset(&mut r, 50, 3, 0.1);
        let large = fm_data::synth::linear_dataset(&mut r, 5_000, 3, 0.1);
        let fm = GenericFunctionalMechanism::new(1.0).unwrap();
        let a = fm.perturb(&small, &QuarticObjective, &mut r).unwrap();
        let b = fm.perturb(&large, &QuarticObjective, &mut r).unwrap();
        assert_eq!(a.noise_scale(), b.noise_scale());
        // Δ = 2(1+3)⁴ = 512.
        assert_eq!(a.sensitivity(), 512.0);
    }
}
