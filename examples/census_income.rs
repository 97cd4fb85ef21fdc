//! The paper's flagship workload (Section 7): predict **Annual Income**
//! from census attributes under ε-differential privacy.
//!
//! Pipeline:
//! 1. Generate the synthetic US census (the IPUMS stand-in, see `fm_data::census`).
//! 2. Normalize per the paper's footnote 1 (`‖x‖₂ ≤ 1`, `y ∈ [−1, 1]`).
//! 3. 5-fold cross-validate FM against NoPrivacy, DPME and FP — every
//!    method behind the same `dyn DpEstimator` surface, every fold drawn
//!    through one `PrivacySession` so the experiment's *composed* (ε, δ)
//!    is reported honestly instead of quoting the per-fit ε.
//!
//! Run with: `cargo run --release --example census_income`

use functional_mechanism::data::census;
use functional_mechanism::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let epsilon = 0.8; // the paper's default per-fit budget

    // A 30k-row slice of the synthetic US census keeps this example quick;
    // `fm-experiments` (crates/bench) runs the full 370k configuration.
    let profile = census::CensusProfile::us();
    let raw = census::generate(&profile, 30_000, &mut rng).expect("census generation");

    // Paper-exact normalization from the *schema's* declared domains.
    let schema = census::schema(&profile);
    let normalizer = Normalizer::from_schema(&schema, census::LABEL).expect("normalizer");
    let data = normalizer.normalize_linear(&raw).expect("normalization");
    data.check_normalized_linear().expect("contract");

    println!(
        "census: n = {}, d = {} (all {} predictors), ε = {epsilon} per fit\n",
        data.n(),
        data.d(),
        census::FEATURES.len()
    );

    // Section 7's line-up, held uniformly as `dyn DpEstimator`: the
    // NoPrivacy ceiling advertises no ε (the session runs it free), the
    // three private methods each advertise 0.8 per fit.
    let lineup: Vec<(&str, Box<dyn DpEstimator<Model = LinearModel>>)> = vec![
        ("NoPrivacy", Box::new(LinearRegression::new())),
        (
            "FM",
            Box::new(
                DpLinearRegression::builder()
                    .config(FitConfig::new().epsilon(epsilon))
                    .build(),
            ),
        ),
        (
            "DPME",
            Box::new(DpmeLinear(Dpme::new(epsilon).expect("config"))),
        ),
        (
            "FP",
            Box::new(FpLinear(FilterPriority::new(epsilon).expect("config"))),
        ),
    ];

    // One session audits the whole experiment: 3 private methods × 5 folds.
    let mut session = PrivacySession::new();
    println!("{:<12} {:>12} {:>16}", "method", "test MSE", "composed ε");
    for (name, estimator) in &lineup {
        let spent_before = session.spent_epsilon();
        let mut fold_rng = rand::rngs::StdRng::seed_from_u64(99);
        let scores = session
            .cross_validate(estimator.as_ref(), &data, 5, &mut fold_rng, |m, test| {
                metrics::mse(&m.predict_batch(test.x()), test.y())
            })
            .expect("cross-validation");
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let spent = session.spent_epsilon() - spent_before;
        println!("{name:<12} {mean:>12.5} {spent:>16.2}");
    }

    let report = session.report(1e-6).expect("composition report");
    println!(
        "\nwhole experiment: {} budget-consuming fits ⇒ (ε, δ) = ({:.2}, {:.0e}) basic, \
         ({:.2}, {:.0e}) best",
        report.fits, report.basic.0, report.basic.1, report.best.0, report.best.1
    );
    println!(
        "At this reduced n the private methods are all noise-limited; the paper's\n\
         full-cardinality ordering (NoPrivacy ≈ FM ≪ DPME, FP — Figure 4a) is\n\
         regenerated by `cargo run --release -p fm-bench --bin fm-experiments -- --figure fig4`."
    );
}
