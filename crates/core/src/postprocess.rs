//! Section 6 of the paper: making the noisy objective bounded.
//!
//! Algorithm 1 can return `f̄_D(ω) = ωᵀM*ω + α*ᵀω + β*` whose `M*` has a
//! non-positive eigenvalue, in which case no minimiser exists. All the
//! remedies below consume only the *already-noised* coefficients (plus the
//! data-independent noise scale), so by the post-processing property of
//! differential privacy none of them costs additional ε:
//!
//! * [`regularize`] (§6.1) — add `λ·I` to `M*` with
//!   `λ = 4 × stddev(Lap(Δ/ε))`, the multiplier the paper found to work
//!   well. The noise stddev is a function of `(Δ, ε)` only, never of the
//!   data.
//! * [`spectral_trim_minimize`] (§6.2) — eigendecompose
//!   `M* = QᵀΛQ`, drop the non-positive eigenvalues (rows of `Q`),
//!   minimise `ḡ(Q'ω) = (Q'ω)ᵀΛ'(Q'ω) + α*ᵀQ'ᵀ(Q'ω) + β*` in the reduced
//!   space, and map back via the minimum-norm solution `ω = Q'ᵀV`.
//! * The **Lemma-5 resample** loop lives in the regression front-ends
//!   (`linreg`/`logreg`), because it needs to re-run the mechanism itself;
//!   it is exposed through [`Strategy::Resample`].

use fm_linalg::{Matrix, SymmetricEigen, TridiagonalEigen};
use fm_optim::quadratic::minimize_quadratic;

use crate::mechanism::NoisyQuadratic;
use crate::{FmError, Result};

/// The paper's §6.1 regularization multiplier: `λ = 4 × noise stddev`.
pub const REGULARIZATION_MULTIPLIER: f64 = 4.0;

/// Eigenvalues at or below this are treated as non-positive by spectral
/// trimming (guards floating-point zeros from the eigensolver).
const EIGEN_POSITIVE_TOL: f64 = 1e-12;

/// Above this dimensionality the trimming step switches from cyclic Jacobi
/// to the Householder + implicit-QL eigensolver — Jacobi is simpler and
/// plenty fast in the paper's `d ≤ 14` regime, but its per-sweep `O(d³)`
/// loses decisively by `d ≈ 32`.
const TRIDIAGONAL_DISPATCH_DIM: usize = 32;

/// The symmetric eigendecomposition backing §6.2, dispatched by dimension.
/// Returns `(descending eigenvalues, eigenvector columns)`.
fn symmetric_eigen(m: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    if m.rows() > TRIDIAGONAL_DISPATCH_DIM {
        let e = TridiagonalEigen::new(m)?;
        Ok((e.values().to_vec(), e.vectors().clone()))
    } else {
        let e = SymmetricEigen::new(m)?;
        Ok((e.values().to_vec(), e.vectors().clone()))
    }
}

/// How a fitted regression handles a potentially unbounded noisy objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// §6.1 then §6.2 (the paper's full pipeline, and the default):
    /// regularize; if the objective is still unbounded, spectrally trim.
    #[default]
    RegularizeThenTrim,
    /// §6.1 only; fitting fails if regularization does not restore
    /// boundedness.
    RegularizeOnly,
    /// No post-processing: fitting fails on an unbounded draw. Useful for
    /// measuring how often unboundedness actually occurs (ablation).
    FailIfUnbounded,
    /// Lemma 5: re-run Algorithm 1 until the draw is bounded, with at most
    /// this many attempts. Each attempt runs at `ε/2` so the *advertised*
    /// budget equals the actual `2·(ε/2)` guarantee of Lemma 5.
    Resample {
        /// Maximum number of mechanism re-runs before giving up.
        max_attempts: usize,
    },
}

/// Applies §6.1 ridge regularization in place with the paper's multiplier.
/// Returns the `λ` that was added.
pub fn regularize(noisy: &mut NoisyQuadratic) -> f64 {
    regularize_with(noisy, REGULARIZATION_MULTIPLIER)
}

/// Applies §6.1 regularization with an explicit multiplier
/// (`λ = multiplier × noise stddev`) — exposed for the ablation benchmarks.
/// Returns the `λ` that was added.
pub fn regularize_with(noisy: &mut NoisyQuadratic, multiplier: f64) -> f64 {
    let lambda = multiplier * noisy.noise_std_dev();
    noisy.objective_mut().regularize(lambda);
    lambda
}

/// Minimises the noisy quadratic directly (Algorithm 1, line 8).
///
/// # Errors
/// [`FmError::Optim`] wrapping [`fm_optim::OptimError::UnboundedObjective`] when `M*`
/// is not positive definite — the §6 trigger.
pub fn minimize(noisy: &NoisyQuadratic) -> Result<Vec<f64>> {
    let q = noisy.objective();
    Ok(minimize_quadratic(q.m(), q.alpha())?)
}

/// §6.2 spectral trimming with the literal "non-positive" threshold.
/// Returns the minimiser together with the number of eigenvalues removed.
///
/// Prefer [`spectral_trim_minimize_with_floor`] after §6.1 regularization:
/// eigenvalues that are positive but *below the added `λ`* correspond to
/// directions of `M*` whose un-regularized eigenvalue was non-positive —
/// pure noise directions whose tiny reciprocals would blow up the
/// minimiser. This literal variant (floor ≈ 0) is kept for the ablation
/// benchmarks.
///
/// # Errors
/// * [`FmError::EmptySpectrum`] when no positive eigenvalue remains.
/// * [`FmError::Linalg`] if eigendecomposition fails.
pub fn spectral_trim_minimize(noisy: &NoisyQuadratic) -> Result<(Vec<f64>, usize)> {
    spectral_trim_minimize_with_floor(noisy, EIGEN_POSITIVE_TOL)
}

/// §6.2 spectral trimming, keeping only eigenvalues strictly above `floor`.
///
/// After §6.1 added `λ` to the diagonal, passing `floor = λ` trims exactly
/// the directions whose *pre-regularization* eigenvalue was non-positive
/// ("mostly due to noise", as the paper puts it), and guarantees the kept
/// reduced problem is `λ`-strongly convex — so the reconstructed `ω` is
/// bounded by `‖α*‖/(2λ)` regardless of how unlucky the noise draw was.
///
/// # Errors
/// * [`FmError::EmptySpectrum`] when nothing survives the floor.
/// * [`FmError::Linalg`] if eigendecomposition fails.
pub fn spectral_trim_minimize_with_floor(
    noisy: &NoisyQuadratic,
    floor: f64,
) -> Result<(Vec<f64>, usize)> {
    let q = noisy.objective();
    let d = q.dim();
    let (values, vectors) = symmetric_eigen(q.m())?;

    // Keep eigenvalues strictly above the floor (sorted descending).
    let threshold = floor.max(EIGEN_POSITIVE_TOL);
    let kept = values.iter().filter(|&&v| v > threshold).count();
    let trimmed = d - kept;
    if kept == 0 {
        return Err(FmError::EmptySpectrum);
    }

    // In the reduced coordinates V = Q'ω (Q' rows = kept eigenvectors):
    //   ḡ(V) = VᵀΛ'V + (Q'α)ᵀV + β*  ⇒  V_k = −(Q'α)_k / (2λ_k).
    let alpha = q.alpha();
    let mut v = vec![0.0; kept];
    for (k, vk) in v.iter_mut().enumerate() {
        // Stream the eigenvector column — no per-k buffer allocation.
        let proj: f64 = vectors.col(k).zip(alpha).map(|(e, &a)| e * a).sum();
        *vk = -proj / (2.0 * values[k]);
    }

    // Minimum-norm pre-image: ω = Q'ᵀV = Σ_k V_k · eigvec_k.
    let mut omega = vec![0.0; d];
    for (k, &vk) in v.iter().enumerate() {
        for (o, e) in omega.iter_mut().zip(vectors.col(k)) {
            *o += vk * e;
        }
    }
    Ok((omega, trimmed))
}

/// Runs the full in-place pipeline for the given strategy (except
/// [`Strategy::Resample`], which the regression front-ends drive because it
/// must re-invoke the mechanism).
///
/// # Errors
/// * [`FmError::Optim`] (unbounded) under
///   [`Strategy::FailIfUnbounded`]/[`Strategy::RegularizeOnly`] when the
///   objective stays unbounded.
/// * [`FmError::InvalidConfig`] if called with [`Strategy::Resample`].
/// * [`FmError::EmptySpectrum`] if trimming removes everything.
pub fn solve(mut noisy: NoisyQuadratic, strategy: Strategy) -> Result<Vec<f64>> {
    match strategy {
        Strategy::FailIfUnbounded => minimize(&noisy),
        Strategy::RegularizeOnly => {
            regularize(&mut noisy);
            minimize(&noisy)
        }
        Strategy::RegularizeThenTrim => {
            let lambda = regularize(&mut noisy);
            // Solve in the floored eigenbasis: directions whose pre-λ
            // eigenvalue was non-positive (eigenvalue ≤ λ after the shift)
            // are noise (§6.2) and are trimmed even when the shifted matrix
            // is technically positive definite — a barely-positive noise
            // direction would otherwise blow up the minimiser. When every
            // eigenvalue clears the floor this is exactly the direct solve.
            Ok(spectral_trim_minimize_with_floor(&noisy, lambda)?.0)
        }
        Strategy::Resample { .. } => Err(FmError::InvalidConfig {
            name: "strategy",
            reason: "Resample must be handled by the regression front-end".to_string(),
        }),
    }
}

/// How many times [`solve_polynomial`] escalates the ridge under
/// [`Strategy::RegularizeThenTrim`] before giving up (multiplier ×4 per
/// round). Spectral trimming has no general-degree analogue — a noisy
/// quartic has no eigendecomposition to trim — so the "then trim" rescue
/// becomes "then regularize harder", which is likewise pure
/// post-processing (the escalation schedule depends only on the
/// data-independent noise scale and the draw already released).
const POLY_RIDGE_ESCALATIONS: usize = 3;

/// The §6 pipeline for **general-degree** noisy releases
/// ([`crate::generic::NoisyPolynomial`]): the exact analogue of [`solve`]
/// with ridge regularization in place of the quadratic-specific machinery.
///
/// * [`Strategy::FailIfUnbounded`] — minimise the raw release from
///   `start`; iterates escaping `‖ω‖ > radius` report the objective as
///   unbounded.
/// * [`Strategy::RegularizeOnly`] — add the §6.1 ridge
///   `λ·Σ_j ω_j²` with `λ = 4 × noise stddev`, then minimise.
/// * [`Strategy::RegularizeThenTrim`] — as above, but on an unbounded
///   draw escalate `λ` (×4, up to `POLY_RIDGE_ESCALATIONS` = 3 rounds)
///   before giving up — the general-degree stand-in for §6.2's trim.
/// * [`Strategy::Resample`] — rejected here; the sparse estimator drives
///   it because it must re-run the mechanism.
///
/// All branches consume only already-noised coefficients plus the
/// data-independent noise scale: no additional privacy cost.
///
/// # Errors
/// * [`FmError::Optim`] (unbounded/divergent) when the chosen strategy
///   cannot restore boundedness.
/// * [`FmError::InvalidConfig`] if called with [`Strategy::Resample`].
pub fn solve_polynomial(
    noisy: crate::generic::NoisyPolynomial,
    strategy: Strategy,
    start: &[f64],
    radius: f64,
) -> Result<Vec<f64>> {
    match strategy {
        Strategy::FailIfUnbounded => noisy.minimize(start, radius),
        Strategy::RegularizeOnly => {
            let mut noisy = noisy;
            let lambda = REGULARIZATION_MULTIPLIER * noisy.noise_std_dev();
            noisy.polynomial_mut().regularize(lambda);
            noisy.minimize(start, radius)
        }
        Strategy::RegularizeThenTrim => {
            let mut noisy = noisy;
            let base = REGULARIZATION_MULTIPLIER * noisy.noise_std_dev();
            let mut added = 0.0;
            for round in 0..=POLY_RIDGE_ESCALATIONS {
                // Total ridge this round: base · 4^round (add the delta on
                // top of what previous rounds already contributed).
                let target = base * 4.0_f64.powi(round as i32);
                noisy.polynomial_mut().regularize(target - added);
                added = target;
                match noisy.minimize(start, radius) {
                    Ok(omega) => return Ok(omega),
                    Err(FmError::Optim(
                        fm_optim::OptimError::UnboundedObjective
                        | fm_optim::OptimError::NonFiniteObjective,
                    )) if round < POLY_RIDGE_ESCALATIONS => continue,
                    Err(e) => return Err(e),
                }
            }
            unreachable!("loop always returns on its final round")
        }
        Strategy::Resample { .. } => Err(FmError::InvalidConfig {
            name: "strategy",
            reason: "Resample must be handled by the sparse estimator front-end".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_linalg::{vecops, Matrix};
    use fm_optim::OptimError;
    use fm_poly::QuadraticForm;

    fn noisy_from(m: Matrix, alpha: Vec<f64>, epsilon: f64, delta: f64) -> NoisyQuadratic {
        NoisyQuadratic::from_parts_for_tests(QuadraticForm::new(m, alpha, 0.0), epsilon, delta)
    }

    #[test]
    fn regularize_uses_paper_multiplier() {
        // Δ/ε = 2 ⇒ stddev = 2√2 ⇒ λ = 8√2.
        let mut noisy = noisy_from(Matrix::zeros(2, 2), vec![0.0; 2], 1.0, 2.0);
        let lambda = regularize(&mut noisy);
        let expected = 4.0 * 2.0 * std::f64::consts::SQRT_2;
        assert!((lambda - expected).abs() < 1e-12);
        assert!((noisy.objective().m()[(0, 0)] - lambda).abs() < 1e-12);
        assert!((noisy.objective().m()[(1, 1)] - lambda).abs() < 1e-12);
        assert_eq!(noisy.objective().m()[(0, 1)], 0.0);
    }

    #[test]
    fn custom_multiplier() {
        let mut noisy = noisy_from(Matrix::zeros(1, 1), vec![0.0], 1.0, 1.0);
        let lambda = regularize_with(&mut noisy, 10.0);
        assert!((lambda - 10.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn minimize_bounded_quadratic() {
        // f = 2ω² − 4ω: minimum at ω = 1.
        let noisy = noisy_from(Matrix::from_diagonal(&[2.0]), vec![-4.0], 1.0, 1.0);
        let omega = minimize(&noisy).unwrap();
        assert!((omega[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn minimize_unbounded_reports_error() {
        let noisy = noisy_from(Matrix::from_diagonal(&[-1.0]), vec![1.0], 1.0, 1.0);
        assert!(matches!(
            minimize(&noisy),
            Err(FmError::Optim(OptimError::UnboundedObjective))
        ));
    }

    #[test]
    fn trimming_drops_negative_eigenvalues() {
        // M = diag(2, −1): one positive eigenvalue survives. α = (−4, 6).
        // Reduced problem: 2v² − 4v (v along e1) ⇒ v = 1 ⇒ ω = (1, 0).
        let noisy = noisy_from(
            Matrix::from_diagonal(&[2.0, -1.0]),
            vec![-4.0, 6.0],
            1.0,
            1.0,
        );
        let (omega, trimmed) = spectral_trim_minimize(&noisy).unwrap();
        assert_eq!(trimmed, 1);
        assert!((omega[0] - 1.0).abs() < 1e-10, "{omega:?}");
        assert!(omega[1].abs() < 1e-10, "{omega:?}");
    }

    #[test]
    fn trimming_on_pd_matrix_matches_direct_solve() {
        let m = Matrix::from_rows(&[&[3.0, 0.5], &[0.5, 2.0]]).unwrap();
        let noisy = noisy_from(m, vec![1.0, -2.0], 1.0, 1.0);
        let direct = minimize(&noisy).unwrap();
        let (trimmed_omega, trimmed) = spectral_trim_minimize(&noisy).unwrap();
        assert_eq!(trimmed, 0);
        assert!(vecops::approx_eq(&direct, &trimmed_omega, 1e-9));
    }

    #[test]
    fn trimming_everything_is_an_error() {
        let noisy = noisy_from(
            Matrix::from_diagonal(&[-1.0, -2.0]),
            vec![0.0, 0.0],
            1.0,
            1.0,
        );
        assert!(matches!(
            spectral_trim_minimize(&noisy),
            Err(FmError::EmptySpectrum)
        ));
    }

    #[test]
    fn trimmed_solution_is_minimum_norm() {
        // With M = diag(1, 0−ish→negative) and α only in the kept direction,
        // the trimmed coordinate of ω must be exactly zero.
        let noisy = noisy_from(
            Matrix::from_diagonal(&[1.0, -0.5]),
            vec![-2.0, 0.0],
            1.0,
            1.0,
        );
        let (omega, _) = spectral_trim_minimize(&noisy).unwrap();
        assert!((omega[0] - 1.0).abs() < 1e-10);
        assert_eq!(omega[1], 0.0);
    }

    #[test]
    fn solve_strategies() {
        let unbounded = || noisy_from(Matrix::from_diagonal(&[-5.0]), vec![1.0], 1.0, 0.001);
        // FailIfUnbounded propagates the error.
        assert!(solve(unbounded(), Strategy::FailIfUnbounded).is_err());
        // RegularizeOnly: λ = 4·√2·0.001 is too small to fix −5 ⇒ error.
        assert!(solve(unbounded(), Strategy::RegularizeOnly).is_err());
        // RegularizeThenTrim falls back to trimming… which empties the
        // spectrum here, so it reports EmptySpectrum.
        assert!(matches!(
            solve(unbounded(), Strategy::RegularizeThenTrim),
            Err(FmError::EmptySpectrum)
        ));
        // A mixed-signature draw is rescued by trimming.
        let mixed = noisy_from(
            Matrix::from_diagonal(&[3.0, -5.0]),
            vec![-6.0, 1.0],
            1.0,
            0.001,
        );
        let omega = solve(mixed, Strategy::RegularizeThenTrim).unwrap();
        assert!((omega[0] - 1.0).abs() < 1e-2); // ≈ 6/(2·(3+λ))
                                                // Resample is rejected here (regression front-ends own it).
        assert!(matches!(
            solve(unbounded(), Strategy::Resample { max_attempts: 3 }),
            Err(FmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn floored_trimming_discards_noise_scale_eigenvalues() {
        // Eigenvalues 5 and 0.1 with a floor of 1: only the 5-direction
        // survives, so the second coordinate of ω must be zero rather than
        // the exploded −α/(2·0.1).
        let noisy = noisy_from(
            Matrix::from_diagonal(&[5.0, 0.1]),
            vec![-10.0, -10.0],
            1.0,
            1.0,
        );
        let (omega, trimmed) = spectral_trim_minimize_with_floor(&noisy, 1.0).unwrap();
        assert_eq!(trimmed, 1);
        assert!((omega[0] - 1.0).abs() < 1e-10);
        assert_eq!(omega[1], 0.0);
        // The literal variant would have kept it and produced ω₁ = 50.
        let (literal, t0) = spectral_trim_minimize(&noisy).unwrap();
        assert_eq!(t0, 0);
        assert!((literal[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn floored_trimming_bounds_the_solution_norm() {
        // ‖ω‖ ≤ ‖α‖/(2·floor) for any draw.
        let noisy = noisy_from(
            Matrix::from_diagonal(&[2.0, 1.5, 0.01]),
            vec![3.0, -7.0, 100.0],
            1.0,
            1.0,
        );
        let floor = 1.0;
        let (omega, _) = spectral_trim_minimize_with_floor(&noisy, floor).unwrap();
        let bound = vecops::norm2(noisy.objective().alpha()) / (2.0 * floor);
        assert!(vecops::norm2(&omega) <= bound + 1e-9);
    }

    #[test]
    fn regularization_can_rescue_mildly_indefinite() {
        // Noise scale 1 ⇒ λ = 4√2 ≈ 5.66 > 5: regularization alone fixes it.
        let noisy = noisy_from(
            Matrix::from_diagonal(&[-5.0, 2.0]),
            vec![1.0, 1.0],
            1.0,
            1.0,
        );
        let omega = solve(noisy, Strategy::RegularizeOnly).unwrap();
        assert_eq!(omega.len(), 2);
    }

    #[test]
    fn high_dimensional_trimming_uses_ql_path_and_agrees() {
        // d = 40 exceeds the tridiagonal dispatch threshold; the result
        // must match the ≤-threshold computation done with Jacobi directly.
        let d = 40;
        let mut m = Matrix::from_fn(d, d, |r, c| (((r * 5 + c * 11) % 17) as f64 - 8.0) / 8.0);
        m.symmetrize().unwrap();
        m.add_diagonal(6.0); // mostly positive spectrum, some trims likely
        let alpha: Vec<f64> = (0..d).map(|i| ((i % 9) as f64 - 4.0) / 4.0).collect();
        let noisy = noisy_from(m.clone(), alpha.clone(), 1.0, 1.0);
        let (omega, _) = spectral_trim_minimize_with_floor(&noisy, 0.5).unwrap();

        // Reference: the same trimming arithmetic on the Jacobi basis.
        let eig = fm_linalg::SymmetricEigen::new(&m).unwrap();
        let kept = eig.count_above(0.5);
        let mut expected = vec![0.0; d];
        for k in 0..kept {
            let v: Vec<f64> = eig.vectors().col(k).collect();
            let coeff = -vecops::dot(&v, &alpha) / (2.0 * eig.values()[k]);
            vecops::axpy(coeff, &v, &mut expected);
        }
        assert!(
            vecops::approx_eq(&omega, &expected, 1e-7),
            "QL and Jacobi trimming disagree"
        );
    }
}
