//! `fm-probe` — a fast single-cell probe for calibrating the harness:
//! evaluates every method at one (rows, dimensionality, ε) point without
//! the full figure sweep.
//!
//! ```text
//! fm-probe --rows 370000 --dim 14 --epsilon 0.8 --task linear --country us
//! ```
//!
//! Every value is parsed strictly: an unparsable number, an unknown task
//! or country, or a dimensionality outside {5, 8, 11, 14} exits with an
//! error message and a failure status.

use std::process::ExitCode;

use fm_bench::methods::Method;
use fm_bench::runner::{evaluate, EvalConfig};
use fm_bench::workload::{build, Country, Task};
use fm_data::census;

/// Cross-validation folds per repeat, as in the paper.
const FOLDS: usize = fm_bench::params::CV_FOLDS;

struct Args {
    rows: usize,
    dim: usize,
    epsilon: f64,
    task: Task,
    country: Country,
    repeats: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rows: 40_000,
        dim: 14,
        epsilon: 0.8,
        task: Task::Linear,
        country: Country::Us,
        repeats: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let value = argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--rows" => args.rows = parse_number(&arg, &value?)?,
            "--dim" => args.dim = parse_number(&arg, &value?)?,
            "--epsilon" => args.epsilon = parse_number(&arg, &value?)?,
            "--repeats" => args.repeats = parse_number(&arg, &value?)?,
            "--task" => {
                args.task = match value?.as_str() {
                    "linear" => Task::Linear,
                    "logistic" => Task::Logistic,
                    other => return Err(format!("--task: `{other}` is not linear|logistic")),
                }
            }
            "--country" => {
                args.country = match value?.as_str() {
                    "us" => Country::Us,
                    "brazil" => Country::Brazil,
                    other => return Err(format!("--country: `{other}` is not us|brazil")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    census::attribute_subset(args.dim).map_err(|e| format!("--dim: {e}"))?;
    if args.rows < FOLDS {
        return Err(format!(
            "--rows: {} is fewer than the {FOLDS} CV folds",
            args.rows
        ));
    }
    if args.repeats == 0 {
        return Err("--repeats: at least one repeat is needed".to_string());
    }
    if !(args.epsilon.is_finite() && args.epsilon > 0.0) {
        return Err(format!(
            "--epsilon: {} is not a positive number",
            args.epsilon
        ));
    }
    Ok(args)
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let Args {
        rows,
        dim,
        epsilon,
        task,
        country,
        repeats,
    } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cfg = EvalConfig {
        rows_us: rows,
        rows_brazil: rows,
        repeats,
        folds: FOLDS,
        seed: 42,
    };
    println!(
        "probe: {} {} rows={rows} dim={dim} ε={epsilon} repeats={repeats}",
        country.name(),
        task.name()
    );
    let w = build(country, task, rows, dim, cfg.seed);
    println!(
        "{:<12} {:>12} {:>10} {:>12}",
        "method", "error", "± std", "sec/fit"
    );
    for (mi, &m) in Method::lineup(task).iter().enumerate() {
        let cell = evaluate(&w.data, task, m, epsilon, 1.0, &cfg, mi as u64);
        println!(
            "{:<12} {:>12.5} {:>10.5} {:>12.4}",
            m.name(),
            cell.error_mean,
            cell.error_std,
            cell.seconds_mean
        );
    }
    ExitCode::SUCCESS
}
