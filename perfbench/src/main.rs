//! `fm-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <fit_census|ingest_csv|serve_small_fits|federated_round|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up several times
//! (the median is `setup_s`), then runs a closed loop for `--seconds`
//! and checks every release against its single-machine reference
//! outside the timed region. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it first runs half the time untraced, then
//! half traced through the decomposed layer calls, and reports the
//! per-layer metrics. A human-readable report (every metric with its
//! unit and sample count) goes to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--workload all` runs every workload in a child process of its own and
//! prints one table; it exits non-zero when any gate fails.

mod heap;
mod pipeline;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, Outcome};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "fit_census",
    "ingest_csv",
    "serve_small_fits",
    "federated_round",
];

/// End-to-end metrics (`--trace 0`), reported by every workload:
/// `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_ms_p50", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload; a layer a
/// workload never calls reads 0. Times are seconds of self time per
/// workload op (`s/op`); counts are totals over the traced window.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("dataset.validate_s", "s/op"),
    ("dataset.rows", "count"),
    ("stream.source_s", "s/op"),
    ("stream.prefetch_wait_s", "s/op"),
    ("stream.rows", "count"),
    ("stream.blocks", "count"),
    ("stream.csv_bytes", "bytes"),
    ("assembly.busy_s", "s/op"),
    ("assembly.rows", "count"),
    ("assembly.chunks", "count"),
    ("assembly.flops", "count"),
    ("assembly.gflops_per_s", "GFLOP/s"),
    ("assembly.ceiling_frac", "ratio"),
    ("assembly.threads", "count"),
    ("host.fma_gflops_per_core", "GFLOP/s"),
    ("mechanism.perturb_s", "s/op"),
    ("mechanism.draws", "count"),
    ("postprocess.solve_s", "s/op"),
    ("postprocess.solves", "count"),
    ("partial_fit.absorb_s", "s/op"),
    ("partial_fit.finalize_s", "s/op"),
    ("session.admit_s", "s/op"),
    ("session.admits", "count"),
    ("session.refused", "count"),
    ("session.commit_s", "s/call"),
    ("session.eps_drift", "eps"),
    ("wal.reserve_s", "s/call"),
    ("wal.records", "count"),
    ("wal.file_bytes", "bytes"),
    ("wal.compactions", "count"),
    ("queue.send_wait_s", "s/op"),
    ("queue.blocks", "count"),
    ("service.settle_s", "s/op"),
    ("service.fits", "count"),
    ("client.contribute_s", "s/op"),
    ("wire.encode_s", "s/op"),
    ("wire.decode_s", "s/op"),
    ("wire.bytes", "bytes"),
    ("wire.runs", "count"),
    ("transport.send_s", "s/op"),
    ("transport.frames", "count"),
    ("coordinator.round_s", "s/op"),
    ("coordinator.recovery_subrounds", "count"),
    ("coordinator.dedup_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.fit_coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// The metrics a run reports: the end-to-end set untraced, the per-layer
/// set traced.
fn metrics(outcome: &Outcome, traced: bool) -> Vec<Metric> {
    if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: outcome.layers.get(name).copied().unwrap_or(0.0),
                samples: outcome.traced_ops,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = match name {
                    "setup_s" => (stats::median(&outcome.setup_s), outcome.setup_s.len()),
                    "rows_per_s" => (outcome.rows_per_s, outcome.op_ms.len()),
                    "op_ms_p50" => (stats::median(&outcome.op_ms), outcome.op_ms.len()),
                    "peak_heap_mb" => (outcome.peak_heap_mb, outcome.op_ms.len()),
                    _ => unreachable!("every end-to-end metric has a source"),
                };
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

fn json_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    )
}

fn print_human(workload: &str, outcome: &Outcome, metrics: &[Metric]) {
    eprintln!(
        "== {workload}: {} ops attempted, {} failed, correct = {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for f in &outcome.failures {
        eprintln!("   GATE FAILED: {f}");
    }
    for m in metrics {
        eprintln!(
            "   {:<32} {:>16.6} {:<8} (n = {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !outcome.setup_raw_s.is_empty() {
        eprintln!(
            "   {:<32} {:>16.6} {:<8} (n = {})",
            "measured_setup_s",
            stats::median(&outcome.setup_raw_s),
            "s",
            outcome.setup_raw_s.len()
        );
    }
    for (name, value, unit, samples) in &outcome.extra {
        eprintln!(
            "   {:<32} {:>16.6} {:<8} (n = {samples})",
            name, value, unit
        );
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args) -> ExitCode {
    let work = PathBuf::from(".perfbench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        host: stats::HostSpeed::new(),
        work,
    };
    let outcome = match workloads::run(&args.workload, &ctx) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = metrics(&outcome, args.trace);
    print_human(&args.workload, &outcome, &metrics);
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: a metric is not finite");
        return ExitCode::FAILURE;
    }
    println!("{}", json_line(&outcome, &metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own (so each
/// reports its own memory), and prints one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table = String::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        let ok = output.status.success() && line.starts_with("{\"correct\": true");
        all_ok &= ok;
        let _ = writeln!(
            table,
            "{workload:<18} {} {line}",
            if ok { "ok  " } else { "FAIL" }
        );
    }
    print!("{table}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's own smoke check: a tiny run of every workload, both
    /// untraced and traced, passes its gates and reports every named
    /// metric with a finite value.
    #[test]
    fn every_workload_passes_its_gates_and_reports_every_metric() {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: 900 + i as u64,
                    seconds: 0.4,
                    trace: traced,
                    smoke: true,
                    work: PathBuf::from(".perfbench_work"),
                    host: stats::HostSpeed::new(),
                };
                std::fs::create_dir_all(&ctx.work).expect("work directory");
                let outcome = workloads::run(workload, &ctx).expect("workload runs");
                assert!(
                    outcome.correct(),
                    "{workload} (traced: {traced}) failed its gates: {:?}",
                    outcome.failures
                );
                let reported = metrics(&outcome, traced);
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(reported.len(), expected);
                for m in &reported {
                    assert!(m.value.is_finite(), "{workload}: {} is {}", m.name, m.value);
                }
                if !traced {
                    assert!(
                        reported.iter().all(|m| m.value > 0.0),
                        "{workload}: a zero end-to-end metric"
                    );
                }
            }
        }
    }
}
