//! Synthetic census generation — the substitute for the paper's IPUMS
//! US (370,000 rows) and Brazil (190,000 rows) extracts.
//!
//! The paper's experiments (Section 7) regress **Annual Income** on the 13
//! remaining census attributes (Marital Status one-hot expanded into
//! *Is Single* / *Is Married*, giving 14 attributes total). The IPUMS
//! microdata cannot be redistributed, so this module generates datasets
//! with:
//!
//! * the same attribute list, domains and encodings;
//! * realistic marginals (ages, education years, work hours) and
//!   cross-correlations (income depends on education/hours/age/…, car
//!   ownership and dwelling ownership depend on income, marriage depends on
//!   age);
//! * a ground-truth income process that is *mostly* linear with additive
//!   noise plus a mild quadratic age term — so linear regression has signal
//!   but a non-zero irreducible error, exactly the regime the paper's
//!   figures show;
//! * two profiles, [`CensusProfile::us`] and [`CensusProfile::brazil`],
//!   differing in scale, education distribution and noise level (the paper
//!   consistently measures higher MSE on Brazil).
//!
//! Everything is driven by a caller-supplied seeded RNG, so experiments are
//! reproducible. The paper's comparisons rank methods by error relative to
//! the non-private fit on the same data, so they depend on the schema,
//! the normalization and the presence of learnable signal listed above,
//! not on the exact IPUMS records.

use rand::Rng;

use fm_linalg::Matrix;
use fm_privacy::gaussian;

use crate::dataset::Dataset;
use crate::schema::{AttributeKind, Schema};
use crate::{DataError, Result};

/// Name of the regression target attribute.
pub const LABEL: &str = "AnnualIncome";

/// The 13 predictor attributes, in canonical column order. The first
/// entries of this list form the paper's dimensionality subsets — see
/// [`attribute_subset`].
pub const FEATURES: [&str; 13] = [
    "Age",
    "Gender",
    "Education",
    "FamilySize",
    "Nativity",
    "DwellingOwnership",
    "NumAutomobiles",
    "IsSingle",
    "IsMarried",
    "NumChildren",
    "Disability",
    "WorkingHours",
    "YearsResiding",
];

/// Country-specific generation parameters.
#[derive(Debug, Clone)]
pub struct CensusProfile {
    /// Human-readable name ("US", "Brazil").
    pub name: &'static str,
    /// Cardinality of the full dataset in the paper.
    pub default_rows: usize,
    /// Mean years of education.
    pub edu_mean: f64,
    /// Probability of native birth.
    pub native_rate: f64,
    /// Income floor (currency units).
    pub base_income: f64,
    /// σ of the mean-one log-normal income shock (income inequality).
    pub lognorm_sigma: f64,
    /// Income domain cap.
    pub income_cap: f64,
    /// Per-year-of-education income coefficient.
    pub coef_education: f64,
    /// Per-weekly-hour income coefficient.
    pub coef_hours: f64,
}

impl CensusProfile {
    /// The profile standing in for IPUMS **US** (370k records).
    #[must_use]
    pub fn us() -> Self {
        CensusProfile {
            name: "US",
            default_rows: 370_000,
            edu_mean: 12.5,
            native_rate: 0.87,
            base_income: 8_000.0,
            lognorm_sigma: 0.50,
            income_cap: 450_000.0,
            coef_education: 3_200.0,
            coef_hours: 550.0,
        }
    }

    /// The profile standing in for IPUMS **Brazil** (190k records).
    ///
    /// Relative noise is higher and education lower, which (after
    /// normalization) yields the larger MSE range the paper reports for
    /// Brazil.
    #[must_use]
    pub fn brazil() -> Self {
        CensusProfile {
            name: "Brazil",
            default_rows: 190_000,
            edu_mean: 8.0,
            native_rate: 0.95,
            base_income: 2_000.0,
            lognorm_sigma: 0.65,
            income_cap: 130_000.0,
            coef_education: 1_400.0,
            coef_hours: 260.0,
        }
    }

    /// An income threshold near the median, used to binarize the label for
    /// logistic regression (Section 7 maps incomes above a predefined
    /// threshold to 1).
    #[must_use]
    pub fn income_threshold(&self) -> f64 {
        // Roughly the median of the generated income distribution: the
        // typical conditional mean times the log-normal median factor
        // exp(−σ²/2).
        let typical =
            self.base_income + self.coef_education * self.edu_mean + self.coef_hours * 26.0;
        typical * (-0.5 * self.lognorm_sigma * self.lognorm_sigma).exp()
    }
}

/// The full 14-attribute schema (13 predictors + [`LABEL`]).
#[must_use]
pub fn schema(profile: &CensusProfile) -> Schema {
    Schema::new()
        .with("Age", AttributeKind::Integer { min: 16, max: 95 })
        .with("Gender", AttributeKind::Binary)
        .with("Education", AttributeKind::Integer { min: 0, max: 17 })
        .with("FamilySize", AttributeKind::Integer { min: 1, max: 15 })
        .with("Nativity", AttributeKind::Binary)
        .with("DwellingOwnership", AttributeKind::Binary)
        .with("NumAutomobiles", AttributeKind::Integer { min: 0, max: 6 })
        .with("IsSingle", AttributeKind::Binary)
        .with("IsMarried", AttributeKind::Binary)
        .with("NumChildren", AttributeKind::Integer { min: 0, max: 10 })
        .with("Disability", AttributeKind::Binary)
        .with("WorkingHours", AttributeKind::Integer { min: 0, max: 99 })
        .with("YearsResiding", AttributeKind::Integer { min: 0, max: 60 })
        .with(
            LABEL,
            AttributeKind::Continuous {
                min: 0.0,
                max: profile.income_cap,
            },
        )
}

/// The predictor names for a paper "dimensionality" of 5, 8, 11 or 14
/// attributes (Table 2). Dimensionality counts include the label, so the
/// returned slices have 4, 7, 10 and 13 predictors respectively, matching
/// Section 7's three attribute subsets plus the full set.
///
/// # Errors
/// [`DataError::InvalidParameter`] for any other dimensionality.
pub fn attribute_subset(dimensionality: usize) -> Result<&'static [&'static str]> {
    match dimensionality {
        // Age, Gender, Education, Family Size (+ income).
        5 => Ok(&FEATURES[..4]),
        // + Nativity, Ownership of Dwelling, Number of Automobiles.
        8 => Ok(&FEATURES[..7]),
        // + Is Single, Is Married, Number of Children.
        11 => Ok(&FEATURES[..10]),
        // + Disability, Working Hours, Years Residing: everything.
        14 => Ok(&FEATURES[..13]),
        other => Err(DataError::InvalidParameter {
            name: "dimensionality",
            reason: format!("{other} not in {{5, 8, 11, 14}}"),
        }),
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Generates `n` census records under `profile`.
///
/// Returns the raw (un-normalized) dataset with `x` holding the 13
/// predictors in [`FEATURES`] order and `y` holding raw Annual Income.
///
/// # Errors
/// [`DataError::InvalidParameter`] when `n == 0`.
pub fn generate(profile: &CensusProfile, n: usize, rng: &mut impl Rng) -> Result<Dataset> {
    if n == 0 {
        return Err(DataError::InvalidParameter {
            name: "n",
            reason: "at least one record required".to_string(),
        });
    }
    let d = FEATURES.len();
    let mut data = Vec::with_capacity(n * d);
    let mut incomes = Vec::with_capacity(n);

    for _ in 0..n {
        let rec = generate_record(profile, rng);
        data.extend_from_slice(&rec.features);
        incomes.push(rec.income);
    }
    let x = Matrix::from_vec(n, d, data)?;
    Dataset::with_names(x, incomes, FEATURES.iter().map(|s| s.to_string()).collect())
}

struct Record {
    features: [f64; 13],
    income: f64,
}

fn generate_record(profile: &CensusProfile, rng: &mut impl Rng) -> Record {
    // Age: truncated normal around 42.
    let age = gaussian::normal(rng, 42.0, 15.0).clamp(16.0, 95.0).round();

    let gender = f64::from(rng.gen_bool(0.5));

    // Marital status: three-way, age-dependent, then one-hot expanded the
    // way Section 7 describes (divorced/widowed ⇒ both flags false).
    let p_married = 0.75 * sigmoid((age - 28.0) / 6.0);
    let p_div_wid = 0.25 * sigmoid((age - 50.0) / 12.0);
    let u: f64 = rng.gen();
    let (is_single, is_married) = if u < p_married {
        (0.0, 1.0)
    } else if u < p_married + p_div_wid {
        (0.0, 0.0)
    } else {
        (1.0, 0.0)
    };

    // Education: country-specific mean, slightly higher for younger cohorts.
    let cohort_bonus = if age < 40.0 { 1.0 } else { 0.0 };
    let education = gaussian::normal(rng, profile.edu_mean + cohort_bonus, 3.2)
        .clamp(0.0, 17.0)
        .round();

    // Disability: rises with age.
    let disability = f64::from(rng.gen_bool((0.02 + 0.30 * sigmoid((age - 65.0) / 8.0)).min(1.0)));

    let nativity = f64::from(rng.gen_bool(profile.native_rate));

    // Working hours: zero for non-participants (more likely if disabled or
    // past retirement age), otherwise ≈ 40h.
    let p_not_working = (0.10 + 0.45 * disability + 0.50 * sigmoid((age - 67.0) / 4.0)).min(0.95);
    let hours = if rng.gen_bool(p_not_working) {
        0.0
    } else {
        gaussian::normal(rng, 40.0, 11.0).clamp(1.0, 99.0).round()
    };

    // Years residing at the current location: bounded by adult years.
    let max_residing = (age - 16.0).clamp(0.0, 60.0);
    let years_residing = (rng.gen::<f64>() * (max_residing + 1.0)).floor().min(60.0);

    // Family size / children: married couples run larger.
    let fam_mean = if is_married == 1.0 { 3.4 } else { 1.7 };
    let family_size = gaussian::normal(rng, fam_mean, 1.4)
        .clamp(1.0, 15.0)
        .round();
    let kid_mean = if is_married == 1.0 { 1.3 } else { 0.3 };
    let num_children = gaussian::normal(rng, kid_mean, 1.0)
        .clamp(0.0, (family_size - 1.0).max(0.0))
        .min(10.0)
        .round();

    // Ground-truth income process: a linear conditional mean with mild age
    // curvature, scaled by mean-one *log-normal* multiplicative noise —
    // census incomes are right-skewed, and that skew is what defeats
    // coarse-histogram synthesis (DPME/FP) while leaving the best linear
    // predictor (what FM estimates) unchanged: E[income | x] stays linear.
    let age_adult = age - 18.0;
    let linear_mean = (profile.base_income
        + profile.coef_education * education
        + profile.coef_hours * hours
        + 320.0 * age_adult
        - 3.4 * age_adult * age_adult
        + 0.08 * profile.base_income * is_married
        - 0.25 * profile.coef_education * 4.0 * disability
        + 0.05 * profile.coef_education * 4.0 * nativity
        - 0.06 * profile.coef_education * 4.0 * gender)
        .max(0.0);
    let sigma = profile.lognorm_sigma;
    let shock = (gaussian::normal(rng, 0.0, sigma) - 0.5 * sigma * sigma).exp();
    let income = (linear_mean * shock).clamp(0.0, profile.income_cap);

    // Wealth proxies derived from income.
    let income_frac = income / profile.income_cap;
    let num_autos = (gaussian::normal(rng, 4.5 * income_frac + 0.6, 0.8))
        .clamp(0.0, 6.0)
        .round();
    let dwelling = f64::from(
        rng.gen_bool((0.15 + 0.45 * sigmoid((age - 32.0) / 9.0) + 0.35 * income_frac).min(0.97)),
    );

    Record {
        features: [
            age,
            gender,
            education,
            family_size,
            nativity,
            dwelling,
            num_autos,
            is_single,
            is_married,
            num_children,
            disability,
            hours,
            years_residing,
        ],
        income,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn profiles_differ() {
        let us = CensusProfile::us();
        let br = CensusProfile::brazil();
        assert_eq!(us.default_rows, 370_000);
        assert_eq!(br.default_rows, 190_000);
        assert!(us.income_cap > br.income_cap);
        assert!(us.edu_mean > br.edu_mean);
    }

    #[test]
    fn schema_has_14_attributes() {
        let s = schema(&CensusProfile::us());
        assert_eq!(s.len(), 14);
        assert!(s.attribute(LABEL).is_ok());
        for f in FEATURES {
            assert!(s.attribute(f).is_ok(), "missing {f}");
        }
    }

    #[test]
    fn attribute_subsets_match_paper() {
        assert_eq!(attribute_subset(5).unwrap().len(), 4);
        assert_eq!(attribute_subset(8).unwrap().len(), 7);
        assert_eq!(attribute_subset(11).unwrap().len(), 10);
        assert_eq!(attribute_subset(14).unwrap().len(), 13);
        assert!(attribute_subset(6).is_err());
        // Subsets are nested.
        let s8 = attribute_subset(8).unwrap();
        let s5 = attribute_subset(5).unwrap();
        assert_eq!(&s8[..4], s5);
    }

    #[test]
    fn generated_rows_respect_schema_domains() {
        let profile = CensusProfile::us();
        let s = schema(&profile);
        let ds = generate(&profile, 500, &mut rng()).unwrap();
        assert_eq!(ds.n(), 500);
        assert_eq!(ds.d(), 13);
        for (x, y) in ds.tuples() {
            let mut row: Vec<f64> = x.to_vec();
            row.push(y);
            s.validate_row(&row).expect("row in domain");
        }
    }

    #[test]
    fn one_hot_marital_flags_are_exclusive() {
        let ds = generate(&CensusProfile::us(), 2_000, &mut rng()).unwrap();
        let is_single = 7;
        let is_married = 8;
        for (x, _) in ds.tuples() {
            assert!(x[is_single] + x[is_married] <= 1.0, "both flags set");
        }
        // All three statuses occur in a large sample.
        let singles: f64 = ds.tuples().map(|(x, _)| x[is_single]).sum();
        let marrieds: f64 = ds.tuples().map(|(x, _)| x[is_married]).sum();
        assert!(singles > 0.0 && marrieds > 0.0);
        assert!(singles + marrieds < ds.n() as f64, "divorced/widowed exist");
    }

    #[test]
    fn income_correlates_with_education() {
        let ds = generate(&CensusProfile::us(), 20_000, &mut rng()).unwrap();
        let edu: Vec<f64> = ds.tuples().map(|(x, _)| x[2]).collect();
        let inc: Vec<f64> = ds.y().to_vec();
        let corr = correlation(&edu, &inc);
        assert!(corr > 0.2, "education-income correlation {corr} too weak");
    }

    #[test]
    fn income_correlates_with_hours() {
        let ds = generate(&CensusProfile::us(), 20_000, &mut rng()).unwrap();
        let hours: Vec<f64> = ds.tuples().map(|(x, _)| x[11]).collect();
        let corr = correlation(&hours, ds.y());
        assert!(corr > 0.15, "hours-income correlation {corr} too weak");
    }

    #[test]
    fn threshold_splits_reasonably() {
        let profile = CensusProfile::us();
        let ds = generate(&profile, 20_000, &mut rng()).unwrap();
        let t = profile.income_threshold();
        let above = ds.y().iter().filter(|&&v| v > t).count() as f64 / ds.n() as f64;
        assert!(
            (0.2..=0.8).contains(&above),
            "threshold splits {above} of records"
        );
    }

    #[test]
    fn reproducible_generation() {
        let a = generate(&CensusProfile::brazil(), 100, &mut rng()).unwrap();
        let b = generate(&CensusProfile::brazil(), 100, &mut rng()).unwrap();
        assert_eq!(a.y(), b.y());
        assert_eq!(a.x().as_slice(), b.x().as_slice());
    }

    #[test]
    fn zero_rows_rejected() {
        assert!(generate(&CensusProfile::us(), 0, &mut rng()).is_err());
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - ma) * (y - mb))
            .sum::<f64>()
            / n;
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>() / n;
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>() / n;
        cov / (va.sqrt() * vb.sqrt())
    }
}
