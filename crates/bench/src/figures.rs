//! Per-figure experiment drivers: each function regenerates the data series
//! behind one figure of the paper.

use fm_core::linreg::{DpLinearRegression, LinearObjective};
use fm_core::mechanism::{FunctionalMechanism, PolynomialObjective, SensitivityBound};
use fm_core::postprocess;
use fm_data::Dataset;
use fm_linalg::Matrix;
use fm_poly::taylor::log1p_exp;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::methods::Method;
use crate::params;
use crate::report::Table;
use crate::runner::{evaluate, EvalConfig};
use crate::workload::{build, Country, Task};

/// The x-axis a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Figures 4 / 7: dataset dimensionality {5, 8, 11, 14}.
    Dimensionality,
    /// Figures 5 / 8: sampling rate {0.1 … 1.0}.
    SamplingRate,
    /// Figures 6 / 9: privacy budget ε {0.1 … 3.2}.
    Epsilon,
}

impl Axis {
    fn label(self) -> &'static str {
        match self {
            Axis::Dimensionality => "dimensionality",
            Axis::SamplingRate => "sampling rate",
            Axis::Epsilon => "privacy budget ε",
        }
    }

    fn values(self) -> Vec<f64> {
        match self {
            Axis::Dimensionality => params::DIMENSIONALITIES.iter().map(|&d| d as f64).collect(),
            Axis::SamplingRate => params::SAMPLING_RATES_PLOTTED.to_vec(),
            Axis::Epsilon => params::EPSILONS.to_vec(),
        }
    }
}

fn rows_for(country: Country, cfg: &EvalConfig) -> usize {
    match country {
        Country::Us => cfg.rows_us,
        Country::Brazil => cfg.rows_brazil,
    }
}

/// Figure 2: the §4.2 worked example — the exact linear objective
/// `2.06ω² − 2.34ω + 1.25` next to one FM-noised draw, with both
/// minimisers.
#[must_use]
pub fn fig2(seed: u64) -> String {
    let x = Matrix::from_rows(&[&[1.0], &[0.9], &[-0.5]]).expect("rows");
    let data = Dataset::new(x, vec![0.4, 0.3, -1.0]).expect("dataset");
    let clean = LinearObjective.assemble(&data);
    let omega_star = 117.0 / 206.0;

    let mut rng = StdRng::seed_from_u64(seed);
    let fm = FunctionalMechanism::new(1.0).expect("ε");
    let noisy = fm
        .perturb(&data, &LinearObjective, &mut rng)
        .expect("perturb");
    let nq = noisy.objective().clone();
    // The raw minimiser of f̄_D (what Figure 2 plots), when it exists …
    let raw_min = postprocess::minimize(&noisy)
        .map(|w| format!("{:.6}", w[0]))
        .unwrap_or_else(|_| "unbounded (§6 applies)".to_string());
    // … and the §6 full-pipeline output, for comparison.
    let pipeline_omega = DpLinearRegression::builder()
        .epsilon(1.0)
        .build()
        .fit(&data, &mut StdRng::seed_from_u64(seed))
        .expect("fit")
        .weights()[0];

    let mut out = String::new();
    out.push_str("\n== Figure 2 — linear objective vs FM-noised version (§4.2 example) ==\n");
    out.push_str(&format!(
        "f_D(ω)  = {:.4}ω² + {:.4}ω + {:.4}   (minimiser ω* = {:.6} = 117/206)\n",
        clean.m()[(0, 0)],
        clean.alpha()[0],
        clean.beta(),
        omega_star
    ));
    out.push_str(&format!(
        "f̄_D(ω) = {:.4}ω² + {:.4}ω + {:.4}   (Δ = {}, ε = 1, raw minimiser ω̄ = {raw_min})\n",
        nq.m()[(0, 0)],
        nq.alpha()[0],
        nq.beta(),
        noisy.sensitivity(),
    ));
    out.push_str(&format!(
        "§6 pipeline output (regularize λ=4√2·Δ/ε, trim): ω = {pipeline_omega:.6} — at n = 3 the\n\
         regularizer dominates; Theorem 2 recovers ω* as n grows.\n",
    ));
    out.push_str("\n        ω      f_D(ω)     f̄_D(ω)\n");
    for i in 0..=10 {
        let w = i as f64 / 10.0;
        out.push_str(&format!(
            "{w:>9.1} {:>11.4} {:>11.4}\n",
            clean.eval(&[w]),
            nq.eval(&[w])
        ));
    }
    out
}

/// Figure 3: the §5.2 example — exact logistic objective vs its degree-2
/// Taylor approximation over `D = {(−0.5, 1), (0, 0), (1, 1)}`.
#[must_use]
pub fn fig3() -> String {
    let x = Matrix::from_rows(&[&[-0.5], &[0.0], &[1.0]]).expect("rows");
    let data = Dataset::new(x, vec![1.0, 0.0, 1.0]).expect("dataset");
    let truncated = fm_core::logreg::truncated_objective(&data);

    let mut out = String::new();
    out.push_str(
        "\n== Figure 3 — logistic objective vs polynomial approximation (§5.2 example) ==\n",
    );
    out.push_str("        ω      f_D(ω)     f̂_D(ω)        gap\n");
    for i in 0..=10 {
        let w = -0.5 + i as f64 * 0.25; // ω ∈ [−0.5, 2.0] like the paper's plot
        let exact: f64 = data
            .tuples()
            .map(|(xi, yi)| log1p_exp(xi[0] * w) - yi * xi[0] * w)
            .sum();
        let approx = truncated.eval(&[w]);
        out.push_str(&format!(
            "{w:>9.2} {exact:>11.4} {approx:>11.4} {:>10.4}\n",
            approx - exact
        ));
    }
    out.push_str(&format!(
        "\nLemma-4 per-tuple error constant: {:.4} (paper reports ≈ 0.015)\n",
        fm_poly::taylor::paper_logistic_error_constant()
    ));
    out
}

/// Figures 4–6: the four accuracy panels (US/Brazil × Linear/Logistic)
/// along `axis`.
#[must_use]
pub fn accuracy_figure(figure: &str, axis: Axis, cfg: &EvalConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    let panels = [
        ('a', Country::Us, Task::Linear),
        ('b', Country::Brazil, Task::Linear),
        ('c', Country::Us, Task::Logistic),
        ('d', Country::Brazil, Task::Logistic),
    ];
    for (panel, country, task) in panels {
        let methods = Method::lineup(task);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        let mut table = Table::new(
            &format!(
                "Figure {figure}{panel} — {}-{} ({})",
                country.name(),
                task.name(),
                task.metric_name()
            ),
            axis.label(),
            &names,
        );
        let rows = rows_for(country, cfg);

        // Workload reuse: only the dimensionality axis changes the data.
        let default_workload = if axis == Axis::Dimensionality {
            None
        } else {
            Some(build(
                country,
                task,
                rows,
                params::DEFAULT_DIMENSIONALITY,
                cfg.seed,
            ))
        };

        let mut last_cells: Vec<(Method, crate::runner::CellResult)> = Vec::new();
        for (xi, &x) in axis.values().iter().enumerate() {
            let (dim, rate, eps) = match axis {
                Axis::Dimensionality => (
                    x as usize,
                    params::DEFAULT_SAMPLING_RATE,
                    params::DEFAULT_EPSILON,
                ),
                Axis::SamplingRate => (params::DEFAULT_DIMENSIONALITY, x, params::DEFAULT_EPSILON),
                Axis::Epsilon => (
                    params::DEFAULT_DIMENSIONALITY,
                    params::DEFAULT_SAMPLING_RATE,
                    x,
                ),
            };
            let built;
            let data = match &default_workload {
                Some(w) => &w.data,
                None => {
                    built = build(country, task, rows, dim, cfg.seed);
                    &built.data
                }
            };
            last_cells.clear();
            let mut row = Vec::with_capacity(methods.len());
            for (mi, &method) in methods.iter().enumerate() {
                let cell_seed = (xi as u64) << 32 | (mi as u64) << 16 | panel as u64;
                let cell = evaluate(data, task, method, eps, rate, cfg, cell_seed);
                row.push(cell.error_mean);
                last_cells.push((method, cell));
            }
            table.push_row(&format_axis_value(axis, x), row);
        }
        println!("{}", table.render());
        print_composed_epsilon(&last_cells);
        tables.push(table);
    }
    tables
}

/// Footnote printed under each panel: the honest composed (ε) cost of one
/// full CV cell — every plotted point spends `repeats × folds` sequential
/// fits on the same individuals, which the per-fit ε on the axis does not
/// show. Reported from each private method's last-row
/// [`crate::runner::CellResult`] session ledger (basic Σεᵢ and the best of
/// basic/advanced at δ′ = [`crate::runner::REPORT_DELTA_PRIME`]).
fn print_composed_epsilon(last_cells: &[(Method, crate::runner::CellResult)]) {
    let mut notes = Vec::new();
    for (method, cell) in last_cells {
        if let (Some(basic), Some(best)) = (cell.composed_epsilon_basic, cell.composed_epsilon_best)
        {
            notes.push(format!(
                "{} Σε = {basic:.3} over {} fits (best composition ≈ {best:.3})",
                method.name(),
                cell.fits
            ));
        }
    }
    if !notes.is_empty() {
        println!(
            "   honest composed budget per cell (session ledger, last row): {}\n",
            notes.join("; ")
        );
    }
}

/// Figures 7–9: the two computation-time panels (US, Brazil) for logistic
/// regression along `axis`, in seconds per training run.
#[must_use]
pub fn timing_figure(figure: &str, axis: Axis, cfg: &EvalConfig) -> Vec<Table> {
    // Timing needs far fewer repetitions than accuracy (the paper's
    // log-scale plots span orders of magnitude): 1 repeat × 2 folds per
    // point keeps the slowest baselines (DPME/FP retrain on up-to-4n
    // synthetic tuples) tractable.
    let cfg = &EvalConfig {
        repeats: 1,
        folds: 2,
        ..*cfg
    };
    let mut tables = Vec::new();
    let task = Task::Logistic;
    for (panel, country) in [('a', Country::Us), ('b', Country::Brazil)] {
        let methods = Method::lineup(task);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        let mut table = Table::new(
            &format!(
                "Figure {figure}{panel} — {} computation time, logistic (seconds)",
                country.name()
            ),
            axis.label(),
            &names,
        );
        let rows = rows_for(country, cfg);
        let default_workload = if axis == Axis::Dimensionality {
            None
        } else {
            Some(build(
                country,
                task,
                rows,
                params::DEFAULT_DIMENSIONALITY,
                cfg.seed,
            ))
        };

        let mut last_cells: Vec<(Method, crate::runner::CellResult)> = Vec::new();
        for (xi, &x) in axis.values().iter().enumerate() {
            let (dim, rate, eps) = match axis {
                Axis::Dimensionality => (
                    x as usize,
                    params::DEFAULT_SAMPLING_RATE,
                    params::DEFAULT_EPSILON,
                ),
                Axis::SamplingRate => (params::DEFAULT_DIMENSIONALITY, x, params::DEFAULT_EPSILON),
                Axis::Epsilon => (
                    params::DEFAULT_DIMENSIONALITY,
                    params::DEFAULT_SAMPLING_RATE,
                    x,
                ),
            };
            let built;
            let data = match &default_workload {
                Some(w) => &w.data,
                None => {
                    built = build(country, task, rows, dim, cfg.seed);
                    &built.data
                }
            };
            last_cells.clear();
            let mut row = Vec::with_capacity(methods.len());
            for (mi, &method) in methods.iter().enumerate() {
                // 0x77 decorrelates timing cells from the accuracy cells;
                // it must sit above the panel byte or `| panel` is a no-op
                // ('a'/'b' are both submasks of 0x77).
                let cell_seed = (xi as u64) << 32 | (mi as u64) << 16 | 0x77 << 8 | panel as u64;
                let cell = evaluate(data, task, method, eps, rate, cfg, cell_seed);
                row.push(cell.seconds_mean);
                last_cells.push((method, cell));
            }
            table.push_row(&format_axis_value(axis, x), row);
        }
        println!("{}", table.render());
        print_composed_epsilon(&last_cells);
        tables.push(table);
    }
    tables
}

/// Repo-specific ablations of three design choices: post-processing
/// strategy, regularization multiplier, sensitivity bound.
#[must_use]
pub fn ablation(cfg: &EvalConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    let w = build(
        Country::Us,
        Task::Linear,
        cfg.rows_us,
        params::DEFAULT_DIMENSIONALITY,
        cfg.seed,
    );
    let data = &w.data;
    let d = data.d();

    // (1) Post-processing strategies at each ε: mean MSE (±∞ = failure).
    {
        use fm_core::postprocess::Strategy;
        let strategies: [(&str, Strategy); 4] = [
            ("Reg+Trim", Strategy::RegularizeThenTrim),
            ("RegOnly", Strategy::RegularizeOnly),
            ("NoPostproc", Strategy::FailIfUnbounded),
            ("Resample", Strategy::Resample { max_attempts: 64 }),
        ];
        let names: Vec<&str> = strategies.iter().map(|(n, _)| *n).collect();
        let mut failures_cols: Vec<String> = names.iter().map(|n| format!("{n}:fail%")).collect();
        let mut columns: Vec<&str> = names.clone();
        let fail_refs: Vec<&str> = failures_cols.iter().map(String::as_str).collect();
        columns.extend(fail_refs);
        let mut table = Table::new(
            "Ablation — §6 post-processing strategy (US-Linear, MSE and failure rate)",
            "privacy budget ε",
            &columns,
        );
        for &eps in &params::EPSILONS {
            let mut errs = Vec::new();
            let mut fails = Vec::new();
            for (si, (_, strategy)) in strategies.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(cfg.seed + si as u64 * 131);
                let reps = (cfg.repeats * cfg.folds).max(4);
                let mut total = 0.0;
                let mut ok = 0usize;
                for _ in 0..reps {
                    let model = DpLinearRegression::builder()
                        .epsilon(eps)
                        .strategy(*strategy)
                        .build()
                        .fit(data, &mut rng);
                    if let Ok(m) = model {
                        total += fm_data::metrics::mse(&m.predict_batch(data.x()), data.y());
                        ok += 1;
                    }
                }
                errs.push(if ok > 0 { total / ok as f64 } else { f64::NAN });
                fails.push(100.0 * (reps - ok) as f64 / reps as f64);
            }
            errs.extend(fails);
            table.push_row(&format!("{eps}"), errs);
        }
        println!("{}", table.render());
        tables.push(table);
        failures_cols.clear();
    }

    // (2) Regularization multiplier sweep (paper picks 4× the noise stddev).
    {
        let multipliers = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0];
        let names: Vec<String> = multipliers.iter().map(|m| format!("λ={m}×σ")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut table = Table::new(
            "Ablation — §6.1 regularization multiplier (US-Linear, MSE)",
            "privacy budget ε",
            &refs,
        );
        for &eps in &params::EPSILONS {
            let mut row = Vec::new();
            for (mi, &mult) in multipliers.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(cfg.seed + 7_000 + mi as u64);
                let reps = (cfg.repeats * cfg.folds).max(4);
                let fm = FunctionalMechanism::new(eps).expect("ε");
                let mut total = 0.0;
                let mut ok = 0usize;
                for _ in 0..reps {
                    let mut noisy = fm
                        .perturb(data, &LinearObjective, &mut rng)
                        .expect("perturb");
                    let lambda = postprocess::regularize_with(&mut noisy, mult);
                    if let Ok((omega, _)) =
                        postprocess::spectral_trim_minimize_with_floor(&noisy, lambda)
                    {
                        let m = fm_core::model::LinearModel::new(omega, Some(eps));
                        total += fm_data::metrics::mse(&m.predict_batch(data.x()), data.y());
                        ok += 1;
                    }
                }
                row.push(if ok > 0 { total / ok as f64 } else { f64::NAN });
            }
            table.push_row(&format!("{eps}"), row);
        }
        println!("{}", table.render());
        tables.push(table);
    }

    // (3) Paper vs Cauchy–Schwarz-tight sensitivity bound.
    {
        let mut table = Table::new(
            "Ablation — sensitivity bound (US-Linear, MSE; lower Δ ⇒ less noise)",
            "privacy budget ε",
            &["paper Δ=2(d+1)²", "tight Δ=2(1+√d)²"],
        );
        for &eps in &params::EPSILONS {
            let mut row = Vec::new();
            for (bi, bound) in [SensitivityBound::Paper, SensitivityBound::Tight]
                .into_iter()
                .enumerate()
            {
                let mut rng = StdRng::seed_from_u64(cfg.seed + 9_000 + bi as u64);
                let reps = (cfg.repeats * cfg.folds).max(4);
                let mut total = 0.0;
                for _ in 0..reps {
                    let m = DpLinearRegression::builder()
                        .epsilon(eps)
                        .sensitivity_bound(bound)
                        .build()
                        .fit(data, &mut rng)
                        .expect("fit");
                    total += fm_data::metrics::mse(&m.predict_batch(data.x()), data.y());
                }
                row.push(total / reps as f64);
            }
            table.push_row(&format!("{eps}"), row);
        }
        println!(
            "   (paper Δ at d={d}: {}, tight: {})",
            LinearObjective.sensitivity(d, SensitivityBound::Paper),
            LinearObjective.sensitivity(d, SensitivityBound::Tight)
        );
        println!("{}", table.render());
        tables.push(table);
    }

    tables
}

/// Extension ablation — §8's "alternative analytical tools": the Taylor
/// surrogate (§5) vs degree-2 Chebyshev surrogates at two interval widths,
/// on US-Logistic misclassification across ε. Non-private `Truncated`
/// columns isolate the pure approximation error of each surrogate.
#[must_use]
pub fn ablation_approx(cfg: &EvalConfig) -> Vec<Table> {
    use fm_core::logreg::{Approximation, DpLogisticRegression};

    let w = build(
        Country::Us,
        Task::Logistic,
        cfg.rows_us,
        params::DEFAULT_DIMENSIONALITY,
        cfg.seed,
    );
    let data = &w.data;
    let approximations: [(&str, Approximation); 3] = [
        ("Taylor", Approximation::Taylor),
        ("ChebR1", Approximation::Chebyshev { half_width: 1.0 }),
        ("ChebR2", Approximation::Chebyshev { half_width: 2.0 }),
    ];

    let mut columns: Vec<String> = approximations
        .iter()
        .map(|(n, _)| format!("FM {n}"))
        .collect();
    columns.extend(approximations.iter().map(|(n, _)| format!("Tr {n}")));
    let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Ablation — §5 Taylor vs §8 Chebyshev surrogate (US-Logistic, misclassification)",
        "privacy budget ε",
        &refs,
    );

    // Non-private truncated error per surrogate is ε-independent; compute once.
    let truncated_errors: Vec<f64> = approximations
        .iter()
        .map(|(_, approx)| {
            let m = DpLogisticRegression::builder()
                .approximation(*approx)
                .build()
                .fit_truncated_without_privacy(data)
                .expect("truncated fit");
            fm_data::metrics::misclassification_rate(&m.probabilities_batch(data.x()), data.y())
        })
        .collect();

    for &eps in &params::EPSILONS {
        let mut row = Vec::new();
        for (ai, (_, approx)) in approximations.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(cfg.seed + 11_000 + ai as u64 * 37);
            let reps = (cfg.repeats * cfg.folds).max(4);
            let mut total = 0.0;
            for _ in 0..reps {
                let m = DpLogisticRegression::builder()
                    .epsilon(eps)
                    .approximation(*approx)
                    .build()
                    .fit(data, &mut rng)
                    .expect("fit");
                total += fm_data::metrics::misclassification_rate(
                    &m.probabilities_batch(data.x()),
                    data.y(),
                );
            }
            row.push(total / reps as f64);
        }
        row.extend(&truncated_errors);
        table.push_row(&format!("{eps}"), row);
    }
    println!("{}", table.render());
    vec![table]
}

/// Extension ablation — strict ε-DP Laplace noise (L1 sensitivity,
/// `Δ₁ = 2(d+1)²`) vs relaxed (ε, δ) Gaussian noise (L2 sensitivity,
/// `Δ₂ = 2√6`, dimension-independent) on US-Linear MSE across
/// dimensionality. The Gaussian column requires ε < 1, so the sweep runs
/// at ε = 0.8 (the paper's default).
#[must_use]
pub fn ablation_noise(cfg: &EvalConfig) -> Vec<Table> {
    use fm_core::mechanism::NoiseDistribution;

    let delta = 1e-6;
    let eps = params::DEFAULT_EPSILON;
    let mut table = Table::new(
        &format!(
            "Ablation — Laplace (ε-DP) vs Gaussian ((ε, δ)-DP, δ={delta}) at ε={eps} (US-Linear, MSE)"
        ),
        "dimensionality",
        &["FM Laplace", "FM Gaussian", "NoPrivacy"],
    );

    for (di, &d) in params::DIMENSIONALITIES.iter().enumerate() {
        let w = build(Country::Us, Task::Linear, cfg.rows_us, d, cfg.seed);
        let data = &w.data;
        let reps = (cfg.repeats * cfg.folds).max(4);

        let mut row = Vec::new();
        for (ni, noise) in [
            NoiseDistribution::Laplace,
            NoiseDistribution::Gaussian { delta },
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(cfg.seed + 13_000 + (di * 7 + ni) as u64);
            let mut total = 0.0;
            for _ in 0..reps {
                let m = DpLinearRegression::builder()
                    .epsilon(eps)
                    .noise(noise)
                    .build()
                    .fit(data, &mut rng)
                    .expect("fit");
                total += fm_data::metrics::mse(&m.predict_batch(data.x()), data.y());
            }
            row.push(total / reps as f64);
        }
        let clean = DpLinearRegression::builder()
            .build()
            .fit_without_privacy(data)
            .expect("OLS");
        row.push(fm_data::metrics::mse(
            &clean.predict_batch(data.x()),
            data.y(),
        ));
        table.push_row(&format!("{d}"), row);
    }
    println!(
        "   (Δ₁ grows as 2(d+1)²: {:?}; Δ₂ is constant 2√6 ≈ {:.2})",
        params::DIMENSIONALITIES
            .iter()
            .map(|&d| fm_core::linreg::sensitivity_paper(d))
            .collect::<Vec<_>>(),
        fm_core::linreg::sensitivity_l2()
    );
    println!("{}", table.render());
    vec![table]
}

/// Extension — §8's "other regression tasks": DP **Poisson** regression.
/// Reports held-out mean absolute error of the predicted rate against the
/// observed count, across ε, plus a count-cap (`y_max`) sweep showing the
/// cap-vs-noise trade-off in `Δ = 2((1 + y_max)d + d²/2)`.
#[must_use]
pub fn poisson_figure(cfg: &EvalConfig) -> Vec<Table> {
    use fm_core::logreg::Approximation;
    use fm_core::poisson::DpPoissonRegression;

    let d = 5;
    let y_max = fm_core::poisson::DEFAULT_Y_MAX;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let truth = fm_data::synth::ground_truth_weights(&mut rng, d);
    let data = fm_data::synth::poisson_dataset_with_weights(&mut rng, cfg.rows_us, &truth, y_max);

    let mae = |m: &fm_core::poisson::PoissonModel| -> f64 {
        data.tuples()
            .map(|(x, y)| (m.rate(x) - y).abs())
            .sum::<f64>()
            / data.n() as f64
    };

    let mut tables = Vec::new();

    // (1) Error vs ε, Taylor vs Chebyshev surrogates, with the non-private
    // truncated fit as the floor.
    {
        let mut table = Table::new(
            "Extension — DP Poisson regression (synthetic counts, mean |rate − y|)",
            "privacy budget ε",
            &["FM Taylor", "FM ChebR1", "Truncated"],
        );
        let truncated = DpPoissonRegression::builder()
            .y_max(y_max)
            .build()
            .fit_truncated_without_privacy(&data)
            .expect("truncated fit");
        let floor = mae(&truncated);
        for &eps in &params::EPSILONS {
            let reps = (cfg.repeats * cfg.folds).max(4);
            let mut row = Vec::new();
            for (ai, approx) in [
                Approximation::Taylor,
                Approximation::Chebyshev { half_width: 1.0 },
            ]
            .into_iter()
            .enumerate()
            {
                let mut rng = StdRng::seed_from_u64(cfg.seed + 17_000 + ai as u64);
                let mut total = 0.0;
                for _ in 0..reps {
                    let m = DpPoissonRegression::builder()
                        .epsilon(eps)
                        .y_max(y_max)
                        .approximation(approx)
                        .build()
                        .fit(&data, &mut rng)
                        .expect("fit");
                    total += mae(&m);
                }
                row.push(total / reps as f64);
            }
            row.push(floor);
            table.push_row(&format!("{eps}"), row);
        }
        println!("{}", table.render());
        tables.push(table);
    }

    // (2) The count-cap trade-off: clipping counts at a lower cap biases
    // labels but shrinks Δ linearly.
    {
        let caps = [2.0, 4.0, 8.0, 16.0, 32.0];
        let names: Vec<String> = caps.iter().map(|c| format!("y_max={c}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut table = Table::new(
            "Extension — Poisson count-cap trade-off (mean |rate − y| at default ε)",
            "privacy budget ε",
            &refs,
        );
        for &eps in &[0.4, params::DEFAULT_EPSILON, 3.2] {
            let mut row = Vec::new();
            for (ci, &cap) in caps.iter().enumerate() {
                // Re-clip the labels at this cap (the data was generated at
                // the default cap; tighter caps clip more).
                let y: Vec<f64> = data.y().iter().map(|&v| v.min(cap)).collect();
                let clipped = Dataset::new(data.x().clone(), y).expect("dataset");
                let mut rng = StdRng::seed_from_u64(cfg.seed + 19_000 + ci as u64);
                let reps = (cfg.repeats * cfg.folds).max(4);
                let mut total = 0.0;
                for _ in 0..reps {
                    let m = DpPoissonRegression::builder()
                        .epsilon(eps)
                        .y_max(cap)
                        .build()
                        .fit(&clipped, &mut rng)
                        .expect("fit");
                    total += data
                        .tuples()
                        .map(|(x, y)| (m.rate(x) - y).abs())
                        .sum::<f64>()
                        / data.n() as f64;
                }
                row.push(total / reps as f64);
            }
            table.push_row(&format!("{eps}"), row);
        }
        println!("{}", table.render());
        tables.push(table);
    }

    tables
}

/// Extension — composed-ε accounting for a T-release continual workload:
/// the privacy loss an auditor must report after T homogeneous releases,
/// under the three accountants the session stack offers. One table for
/// classically calibrated Gaussian releases (ε₀ = 0.1, δ₀ = 1e-6) —
/// where the moments accountant's √T scaling beats both the naive Σε and
/// the Dwork–Rothblum–Vadhan advanced bound from T ≈ 16 on — and one for
/// pure-ε Laplace releases through Mironov's exact Laplace curve, where
/// the crossover against `best` sits later because basic composition is
/// already tight for small T.
#[must_use]
pub fn accounting_figure() -> Vec<Table> {
    use fm_privacy::budget::EpsDeltaLedger;
    use fm_privacy::rdp::{RdpLedger, RenyiMechanism};

    const EPS0: f64 = 0.1;
    const DELTA0: f64 = 1e-6;
    const DELTA_PRIME: f64 = 1e-6;
    let horizons = [8usize, 16, 32, 64, 128, 256];
    let columns = ["naive Σε", "advanced ε", "best ε", "rdp ε", "rdp α*"];

    let mut tables = Vec::new();
    for (title, delta0) in [
        (
            "Accounting: T Gaussian releases (ε₀ = 0.1, δ₀ = 1e-6), reported at δ′ = 1e-6",
            DELTA0,
        ),
        (
            "Accounting: T Laplace releases (ε₀ = 0.1, pure ε-DP), reported at δ′ = 1e-6",
            0.0,
        ),
    ] {
        let mut table = Table::new(title, "T releases", &columns);
        for &t in &horizons {
            let mut ledger = EpsDeltaLedger::new();
            let mut rdp = RdpLedger::new();
            for _ in 0..t {
                ledger.record(EPS0, delta0).expect("valid entry");
                if delta0 == 0.0 {
                    // Mironov's exact Laplace curve, not the generic
                    // pure-DP bound: the releases are known Laplace.
                    rdp.record(RenyiMechanism::Laplace { epsilon: EPS0 })
                        .expect("valid mechanism");
                } else {
                    rdp.record(
                        RenyiMechanism::gaussian_from_calibration(EPS0, delta0)
                            .expect("classical calibration range"),
                    )
                    .expect("valid mechanism");
                }
            }
            let (naive, _) = ledger.basic_composition();
            let (advanced, _) = ledger.advanced_composition(DELTA_PRIME).expect("δ′ valid");
            let (best, _) = ledger.best_composition(DELTA_PRIME).expect("δ′ valid");
            let account = rdp.convert(DELTA_PRIME).expect("δ valid");
            table.push_row(
                &format!("{t}"),
                vec![
                    naive,
                    advanced,
                    best,
                    account.epsilon,
                    account.best_alpha.unwrap_or(f64::NAN),
                ],
            );
        }
        println!("{}", table.render());
        tables.push(table);
    }
    tables
}

/// Kernel throughput: rows/s of the per-tuple reference loop
/// (`assemble_per_tuple`) next to the batched Gram-kernel pipeline
/// (`LinearObjective.assemble`), at d ∈ {4, 13, 32} on `cfg.rows_us`
/// synthetic linear rows, best of three timings each. The batched path
/// runs on every core under `--features parallel` and on one otherwise.
///
/// # Panics
/// If a cell's two assemblies disagree in any coefficient beyond the
/// 1e-12 relative tolerance the batched-assembly suite pins.
#[must_use]
pub fn kernels_figure(cfg: &EvalConfig) -> Vec<Table> {
    use fm_core::assembly::assemble_per_tuple;
    use fm_data::synth;
    use std::time::Instant;

    const ROUNDS: usize = 3;
    const TOL: f64 = 1e-12;
    let coefficients = |q: &fm_poly::QuadraticForm| {
        let mut c = vec![q.beta()];
        c.extend_from_slice(q.alpha());
        c.extend_from_slice(q.m().as_slice());
        c
    };
    let rows = cfg.rows_us;
    let mut table = Table::new(
        &format!("Kernels: linear-objective assembly at n = {rows} (rows/s, best of {ROUNDS})"),
        "d",
        &["per-tuple", "batched"],
    );
    for d in [4usize, 13, 32] {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(d as u64));
        let data = synth::linear_dataset(&mut rng, rows, d, 0.05);
        let (mut per_tuple, mut batched) = (0.0f64, 0.0f64);
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let reference = assemble_per_tuple(&LinearObjective, &data);
            per_tuple = per_tuple.max(rows as f64 / start.elapsed().as_secs_f64());
            let start = Instant::now();
            let fast = LinearObjective.assemble(&data);
            batched = batched.max(rows as f64 / start.elapsed().as_secs_f64());

            let agree = coefficients(&fast)
                .iter()
                .zip(&coefficients(&reference))
                .all(|(a, b)| (a - b).abs() <= TOL * (1.0 + b.abs()));
            assert!(
                agree,
                "d = {d}: batched and per-tuple assembly differ beyond {TOL:e}"
            );
        }
        table.push_row(&d.to_string(), vec![per_tuple, batched]);
    }
    println!("{}", table.render());
    vec![table]
}

fn format_axis_value(axis: Axis, x: f64) -> String {
    match axis {
        Axis::Dimensionality => format!("{}", x as usize),
        Axis::SamplingRate | Axis::Epsilon => format!("{x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_grids_match_table2() {
        assert_eq!(Axis::Dimensionality.values(), vec![5.0, 8.0, 11.0, 14.0]);
        assert_eq!(Axis::Epsilon.values().len(), 6);
        assert_eq!(Axis::SamplingRate.values().len(), 6);
    }

    #[test]
    fn fig2_reports_the_worked_example() {
        let s = fig2(1);
        assert!(s.contains("2.0600ω²"));
        assert!(s.contains("117/206"));
    }

    #[test]
    fn fig3_gap_is_bounded_by_lemma4() {
        let s = fig3();
        assert!(s.contains("Figure 3"));
        // Parse the gap column and compare to 3 tuples × the bound… the
        // rendering is stable, so a sanity substring check suffices here;
        // the numeric bound is asserted in fm-core's tests.
        assert!(s.contains("0.015"));
    }

    #[test]
    fn kernels_reports_both_rates_per_dimensionality() {
        let cfg = EvalConfig {
            rows_us: 300,
            ..EvalConfig::quick()
        };
        let tables = kernels_figure(&cfg);
        assert_eq!(tables.len(), 1);
        let dims: Vec<&str> = tables[0].rows.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(dims, ["4", "13", "32"]);
        for (d, rates) in &tables[0].rows {
            assert_eq!(rates.len(), 2);
            for r in rates {
                assert!(r.is_finite() && *r > 0.0, "d = {d}: rate {r}");
            }
        }
    }
}
