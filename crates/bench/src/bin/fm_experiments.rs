//! `fm-experiments` — regenerate any table or figure from the paper.
//!
//! ```text
//! fm-experiments --figure fig4                # scaled-down defaults
//! fm-experiments --figure all --full          # the paper's exact protocol
//! fm-experiments --figure fig6 --rows 100000 --repeats 10 --seed 7
//! fm-experiments --figure ablation
//! fm-experiments --figure kernels --rows 20000
//! ```
//!
//! `--full` sets the paper's protocol as the base; `--rows`, `--repeats`
//! and `--seed` override it wherever they appear on the line. Results are
//! printed as aligned tables and written as CSV under `results/`.

use std::path::Path;
use std::process::ExitCode;

use fm_bench::figures::{self, Axis};
use fm_bench::report::Table;
use fm_bench::runner::EvalConfig;

struct Args {
    figure: String,
    cfg: EvalConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut figure = String::from("all");
    let (mut full, mut rows, mut repeats, mut seed) = (false, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--figure" => figure = value("--figure")?,
            "--rows" => rows = Some(parse_number::<usize>("--rows", &value("--rows")?)?),
            "--repeats" => repeats = Some(parse_number("--repeats", &value("--repeats")?)?),
            "--seed" => seed = Some(parse_number("--seed", &value("--seed")?)?),
            "--full" => full = true,
            "--help" | "-h" => {
                println!(
                    "usage: fm-experiments [--figure fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablation|\n\
                     \x20                               ablation-approx|ablation-noise|poisson|accounting|\n\
                     \x20                               kernels|all]\n\
                     \x20                     [--rows N] [--repeats R] [--seed S] [--full]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // `--full` is the base the other knobs refine, wherever it appears.
    let mut cfg = if full {
        EvalConfig::paper()
    } else {
        EvalConfig::quick()
    };
    if let Some(rows) = rows {
        cfg.rows_us = rows;
        cfg.rows_brazil = (rows / 2).max(100);
    }
    cfg.repeats = repeats.unwrap_or(cfg.repeats);
    cfg.seed = seed.unwrap_or(cfg.seed);
    Ok(Args { figure, cfg })
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = args.cfg;
    let out_dir = Path::new("results");
    println!(
        "# fm-experiments — figure={}, rows(US)={}, rows(Brazil)={}, repeats={}, folds={}, seed={}",
        args.figure, cfg.rows_us, cfg.rows_brazil, cfg.repeats, cfg.folds, cfg.seed
    );

    let run = |name: &str| -> bool { args.figure == name || args.figure == "all" };
    let mut tables = Vec::new();

    if run("fig2") {
        println!("{}", figures::fig2(cfg.seed));
    }
    if run("fig3") {
        println!("{}", figures::fig3());
    }
    // The cross-validated figures fit every method, and a fit can fail
    // (a baseline with too few rows, say): report it and stop.
    type CellFigure = fn(&str, Axis, &EvalConfig) -> Result<Vec<Table>, String>;
    let cell_figures: [(&str, CellFigure, Axis); 6] = [
        ("4", figures::accuracy_figure, Axis::Dimensionality),
        ("5", figures::accuracy_figure, Axis::SamplingRate),
        ("6", figures::accuracy_figure, Axis::Epsilon),
        ("7", figures::timing_figure, Axis::Dimensionality),
        ("8", figures::timing_figure, Axis::SamplingRate),
        ("9", figures::timing_figure, Axis::Epsilon),
    ];
    for (number, figure, axis) in cell_figures {
        if run(&format!("fig{number}")) {
            match figure(number, axis, &cfg) {
                Ok(t) => tables.extend(t),
                Err(e) => {
                    eprintln!("error: figure {number}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if run("ablation") {
        tables.extend(figures::ablation(&cfg));
    }
    if run("ablation-approx") {
        tables.extend(figures::ablation_approx(&cfg));
    }
    if run("ablation-noise") {
        tables.extend(figures::ablation_noise(&cfg));
    }
    if run("poisson") {
        tables.extend(figures::poisson_figure(&cfg));
    }
    if run("accounting") {
        tables.extend(figures::accounting_figure());
    }
    if run("kernels") {
        tables.extend(figures::kernels_figure(&cfg));
    }

    if tables.is_empty() && !["fig2", "fig3", "all"].contains(&args.figure.as_str()) {
        eprintln!("error: unknown figure `{}` (try --help)", args.figure);
        return ExitCode::FAILURE;
    }

    for t in &tables {
        match t.write_csv(out_dir) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write CSV: {e}"),
        }
    }
    ExitCode::SUCCESS
}
