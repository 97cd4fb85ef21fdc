//! The two coefficient types Algorithm 1 runs over, and the one place the
//! pipeline differs between them.
//!
//! The paper defines Algorithm 1 once, over the monomial coefficient sets
//! `Φ_0 … Φ_J` (Equation 2). The code follows suit: the chunked streaming
//! accumulator ([`crate::assembly::CoefficientAccumulator`]), the fit
//! pipeline ([`crate::estimator::FmEstimator`] and its
//! [`crate::estimator::PartialFit`]), the Lemma-5 resample loop, the
//! `fm-checkpoint v1` format and `fm-federated`'s `fm-accum v2` uploads are
//! each written once, generic over a [`Coefficients`] type:
//!
//! * [`QuadraticForm`] — the dense degree-2 form every built-in regression
//!   assembles ([`crate::PolynomialObjective`]);
//! * [`Polynomial`] — the sparse general-degree form of
//!   [`crate::generic::GeneralObjective`] (the quartic loss).
//!
//! What really differs between the two is collected in the two blanket
//! impls of [`Objective`]: which kernels accumulate a chunk, which
//! mechanism draws the noise ([`FunctionalMechanism`] or
//! [`GenericFunctionalMechanism`]), the §6 solve, the clean minimiser, the
//! dense-only columnar kernels, and which solver failures Lemma 5 retries.

use std::fmt::Write as _;

use rand::Rng;

use fm_linalg::Matrix;
use fm_poly::{Monomial, Polynomial, QuadraticForm};

use crate::codec::{self, CodecResult, LineReader};
use crate::estimator::RegressionObjective;
use crate::generic::{GenericFunctionalMechanism, NoisyPolynomial};
use crate::mechanism::{FunctionalMechanism, NoiseDistribution, NoisyQuadratic, SensitivityBound};
use crate::model::PersistableModel;
use crate::postprocess::{self, Strategy};
use crate::sparse::{SparseRegressionObjective, DEFAULT_DIVERGENCE_RADIUS};
use crate::{FmError, Result};

/// A coefficient vector Algorithm 1 assembles, merges, perturbs and
/// ships: what the streaming accumulator, the fit pipeline and the text
/// formats need to know about it.
pub trait Coefficients: Sized + Send {
    /// The `kind` tag naming this type in checkpoint and upload headers.
    const KIND: &'static str;

    /// The all-zero coefficients over `d` variables.
    fn zero(d: usize) -> Self;

    /// The variable count `d`.
    fn dim(&self) -> usize;

    /// Adds `other` coefficient-wise — the one merge of every chunk tree,
    /// shard list and federated replay.
    fn merge(&mut self, other: Self);

    /// Appends the body lines of one partial to a frame.
    fn encode_body(&self, out: &mut String);

    /// Reads one partial body at dimensionality `d`.
    ///
    /// # Errors
    /// [`codec::CodecError`] for malformed or mis-shaped bodies.
    fn decode_body(lines: &mut LineReader<'_>, d: usize) -> CodecResult<Self>;
}

impl Coefficients for QuadraticForm {
    const KIND: &'static str = "quadratic";

    fn zero(d: usize) -> Self {
        QuadraticForm::zero(d)
    }

    fn dim(&self) -> usize {
        QuadraticForm::dim(self)
    }

    fn merge(&mut self, other: Self) {
        QuadraticForm::merge(self, other);
    }

    fn encode_body(&self, out: &mut String) {
        codec::push_floats_line(out, "beta", &[self.beta()]);
        codec::push_floats_line(out, "alpha", self.alpha());
        codec::push_floats_line(out, "m", self.m().as_slice());
    }

    fn decode_body(lines: &mut LineReader<'_>, d: usize) -> CodecResult<Self> {
        let beta = lines.floats("beta", 1)?[0];
        let alpha = lines.floats("alpha", d)?;
        let d2 = d
            .checked_mul(d)
            .ok_or_else(|| lines.error(format!("d = {d} overflows d²")))?;
        let m = lines.floats("m", d2)?;
        let m = Matrix::from_vec(d, d, m).map_err(|e| lines.error(format!("m: {e}")))?;
        Ok(QuadraticForm::new(m, alpha, beta))
    }
}

impl Coefficients for Polynomial {
    const KIND: &'static str = "polynomial";

    fn zero(d: usize) -> Self {
        Polynomial::zero(d)
    }

    fn dim(&self) -> usize {
        self.num_vars()
    }

    fn merge(&mut self, other: Self) {
        self.add_assign(&other);
    }

    /// `terms <k>`, then one `term <coeff> <e₁> … <e_d>` line per term in
    /// the polynomial's canonical (degree-major) order.
    fn encode_body(&self, out: &mut String) {
        let _ = writeln!(out, "terms {}", self.num_terms());
        for (phi, coeff) in self.terms() {
            out.push_str("term ");
            codec::push_f64(out, coeff);
            for &e in phi.exponents() {
                let _ = write!(out, " {e}");
            }
            out.push('\n');
        }
    }

    fn decode_body(lines: &mut LineReader<'_>, d: usize) -> CodecResult<Self> {
        let n_terms: usize = lines.field("terms")?;
        let mut poly = Polynomial::zero(d);
        for _ in 0..n_terms {
            let mut toks = lines.tagged("term")?.split(' ');
            let coeff = codec::parse_f64_tok("term coefficient", toks.next())
                .map_err(|e| lines.error(e))?;
            let exps: Vec<u32> = toks
                .map(|t| {
                    t.parse::<u32>()
                        .map_err(|_| lines.error(format!("unparseable exponent {t:?}")))
                })
                .collect::<CodecResult<_>>()?;
            if exps.len() != d {
                return Err(lines.error(format!(
                    "term has {} exponents, the frame says d = {d}",
                    exps.len()
                )));
            }
            poly.add_term(Monomial::new(exps), coeff);
        }
        Ok(poly)
    }
}

/// A regression objective Algorithm 1 can run over with coefficients of
/// type `C` — everything the generic pipeline asks of an objective.
///
/// Implemented once per family by blanket impls: every
/// [`RegressionObjective`] is an `Objective<QuadraticForm>`, every
/// [`SparseRegressionObjective`] an `Objective<Polynomial>`. Implement
/// those traits, not this one. The method names differ from the family
/// traits' so both can be in scope at once. Every fit, in memory or
/// streamed, reaches it through the
/// [`crate::assembly::CoefficientAccumulator`], so it sees row blocks only.
pub trait Objective<C: Coefficients>: Sync {
    /// The model type wrapping the released weights.
    type Model: PersistableModel;

    /// What Algorithm 1's noise step releases.
    type Noisy;

    /// Validates one row-major block (`xs` is `k × d`, `k = ys.len()`)
    /// against the objective's domain contract; tuple indices in errors
    /// are block-local. A whole in-memory dataset is one block.
    ///
    /// # Errors
    /// A [`fm_data::DataError`] describing the violation.
    fn check_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()>;

    /// Accumulates one row chunk into `into`.
    fn accumulate(&self, xs: &[f64], ys: &[f64], d: usize, into: &mut C);

    /// The column-major kernel, when the objective has one (so an
    /// in-memory dataset's cached transpose is worth reading):
    /// `kernel(self, xt, ys, lo, hi, into)` accumulates rows `[lo, hi)`
    /// read from `xt`, the `d × n` transpose of the feature block,
    /// bit-identically to [`Objective::accumulate`] over the same rows.
    #[allow(clippy::type_complexity)]
    fn columnar(&self) -> Option<fn(&Self, &Matrix, &[f64], usize, usize, &mut C)> {
        None
    }

    /// Algorithm 1's noise step over assembled clean coefficients.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a bad ε/δ or a noise distribution
    /// the objective cannot calibrate; [`FmError::Privacy`] for degenerate
    /// noise parameters.
    fn perturb(
        &self,
        clean: &C,
        epsilon: f64,
        bound: SensitivityBound,
        noise: NoiseDistribution,
        rng: &mut impl Rng,
    ) -> Result<Self::Noisy>;

    /// The §6 post-processing of a noisy release under a single-draw
    /// strategy.
    ///
    /// # Errors
    /// [`FmError::Optim`] / [`FmError::EmptySpectrum`] when the strategy
    /// cannot produce a bounded objective.
    fn solve(noisy: Self::Noisy, strategy: Strategy) -> Result<Vec<f64>>;

    /// Whether the Lemma-5 loop redraws after this solver failure.
    fn resamples_after(error: &FmError) -> bool;

    /// The non-private minimiser of the clean objective.
    ///
    /// # Errors
    /// [`FmError::Optim`] when the clean objective has no minimiser.
    fn minimize_clean(clean: &C) -> Result<Vec<f64>>;
}

impl<O: RegressionObjective> Objective<QuadraticForm> for O {
    type Model = O::Model;
    type Noisy = NoisyQuadratic;

    fn check_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        self.validate_rows(xs, ys, d)
    }

    fn accumulate(&self, xs: &[f64], ys: &[f64], d: usize, into: &mut QuadraticForm) {
        self.accumulate_batch(xs, ys, d, into);
    }

    fn columnar(&self) -> Option<fn(&Self, &Matrix, &[f64], usize, usize, &mut QuadraticForm)> {
        self.supports_columnar()
            .then_some(Self::accumulate_batch_columnar)
    }

    fn perturb(
        &self,
        clean: &QuadraticForm,
        epsilon: f64,
        bound: SensitivityBound,
        noise: NoiseDistribution,
        rng: &mut impl Rng,
    ) -> Result<NoisyQuadratic> {
        FunctionalMechanism::with_config(epsilon, bound, noise)?.perturb_assembled(clean, self, rng)
    }

    fn solve(noisy: NoisyQuadratic, strategy: Strategy) -> Result<Vec<f64>> {
        postprocess::solve(noisy, strategy)
    }

    fn resamples_after(error: &FmError) -> bool {
        matches!(
            error,
            FmError::Optim(fm_optim::OptimError::UnboundedObjective)
        )
    }

    fn minimize_clean(clean: &QuadraticForm) -> Result<Vec<f64>> {
        Ok(fm_optim::quadratic::minimize_quadratic(
            clean.m(),
            clean.alpha(),
        )?)
    }
}

/// The general-degree family: one L1 bound ([`SensitivityBound`] is not
/// consulted), no columnar kernels, and a bounded gradient-descent solve
/// from the origin within [`DEFAULT_DIVERGENCE_RADIUS`], whose divergence
/// may surface as either unboundedness or a non-finite objective.
impl<O: SparseRegressionObjective> Objective<Polynomial> for O {
    type Model = O::Model;
    type Noisy = NoisyPolynomial;

    fn check_rows(&self, xs: &[f64], ys: &[f64], d: usize) -> fm_data::Result<()> {
        self.validate_rows(xs, ys, d)
    }

    fn accumulate(&self, xs: &[f64], ys: &[f64], d: usize, into: &mut Polynomial) {
        self.accumulate_chunk(xs, ys, d, into);
    }

    fn perturb(
        &self,
        clean: &Polynomial,
        epsilon: f64,
        _bound: SensitivityBound,
        noise: NoiseDistribution,
        rng: &mut impl Rng,
    ) -> Result<NoisyPolynomial> {
        GenericFunctionalMechanism::with_noise(epsilon, noise)?.perturb_assembled(clean, self, rng)
    }

    fn solve(noisy: NoisyPolynomial, strategy: Strategy) -> Result<Vec<f64>> {
        let start = vec![0.0; noisy.polynomial().num_vars()];
        postprocess::solve_polynomial(noisy, strategy, &start, DEFAULT_DIVERGENCE_RADIUS)
    }

    fn resamples_after(error: &FmError) -> bool {
        matches!(
            error,
            FmError::Optim(
                fm_optim::OptimError::UnboundedObjective | fm_optim::OptimError::NonFiniteObjective
            )
        )
    }

    fn minimize_clean(clean: &Polynomial) -> Result<Vec<f64>> {
        let start = vec![0.0; clean.num_vars()];
        crate::generic::minimize_polynomial(clean, &start, DEFAULT_DIVERGENCE_RADIUS)
    }
}
