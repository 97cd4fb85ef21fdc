//! Standard-normal sampling via the Box–Muller transform.
//!
//! This module is a *sampler*, not a privacy mechanism. It backs two
//! consumers: the (ε, δ) [`crate::mechanism::GaussianMechanism`], and the
//! synthetic census generator in `fm-data` (the substitute for the paper's
//! IPUMS datasets, see `fm_data::census`), which needs correlated normal
//! covariates. Strict ε-DP paths use [`crate::laplace`] only.

use rand::Rng;

/// Draws one standard-normal variate using Box–Muller.
///
/// Uses the trigonometric form; one of the two produced variates is
/// discarded for API simplicity (dataset synthesis is not a hot path).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 ∈ (0, 1] so the log is finite; u2 ∈ [0, 1).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// `std_dev` may be zero (degenerate point mass); negative values are a
/// caller bug and are debug-asserted.
pub fn normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0, "negative std_dev");
    mean + std_dev * standard_normal(rng)
}

/// Fills `out` with i.i.d. standard-normal variates.
pub fn standard_normal_into(rng: &mut impl Rng, out: &mut [f64]) {
    for v in out {
        *v = standard_normal(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn moments_converge() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn shifted_and_scaled() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn zero_std_dev_is_point_mass() {
        let mut r = rng();
        assert_eq!(normal(&mut r, 3.5, 0.0), 3.5);
    }

    #[test]
    fn empirical_68_95_rule() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let within1 = samples.iter().filter(|x| x.abs() < 1.0).count() as f64 / n as f64;
        let within2 = samples.iter().filter(|x| x.abs() < 2.0).count() as f64 / n as f64;
        assert!((within1 - 0.6827).abs() < 0.01, "P(|X|<1) = {within1}");
        assert!((within2 - 0.9545).abs() < 0.01, "P(|X|<2) = {within2}");
    }

    #[test]
    fn fill_helper_is_finite() {
        let mut r = rng();
        let mut buf = vec![f64::NAN; 32];
        standard_normal_into(&mut r, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn reproducible_with_seed() {
        let a: Vec<f64> = {
            let mut r = rng();
            (0..8).map(|_| standard_normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng();
            (0..8).map(|_| standard_normal(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
