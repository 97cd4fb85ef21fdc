//! `fit_census`: one caller, closed loop. Each op is one linear and one
//! logistic iteration on the census US profile (370,000 rows, d = 13) at
//! ε = 0.8; each iteration runs an in-memory `FmEstimator::fit` and a
//! `fit_stream` over a 4-shard `ShardedSource` of in-memory shards (the
//! borrowed-visitor path, no dataset handoff). No session, WAL, queue or
//! codec runs here.

use std::sync::Arc;
use std::time::Instant;

use fm_bench::workload::{self, Country, Task};
use fm_core::estimator::{FitConfig, FmEstimator, RegressionObjective};
use fm_core::linreg::LinearObjective;
use fm_core::logreg::{Approximation, LogisticSurrogate};
use fm_core::Model;
use fm_data::metrics;
use fm_data::stream::{InMemorySource, ShardedSource};
use fm_data::Dataset;
use fm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Ctx, Outcome, EPSILON, SEEDS};
use crate::heap;
use crate::pipeline::{self, At, Role, TimedSource};
use crate::stats;
use crate::trace::Tracer;

const ROWS: usize = 370_000;
const SMOKE_ROWS: usize = 20_000;
const SHARDS: usize = 4;
/// How far the traced fit's layer times may sum from the untraced `fit`'s
/// time before the decomposition counts as doing other work.
const FIT_COVERAGE_TOLERANCE: f64 = 0.10;

/// One task's inputs: the dataset, the same rows cut into shards, and
/// the estimator.
struct TaskData<O> {
    data: Dataset,
    shards: Vec<Dataset>,
    est: FmEstimator<O>,
}

/// The contiguous row range `[lo, hi)` of `data` as a dataset.
pub fn slice(data: &Dataset, lo: usize, hi: usize) -> Result<Dataset, String> {
    let d = data.d();
    let xs = data.x().as_slice()[lo * d..hi * d].to_vec();
    let x = Matrix::from_vec(hi - lo, d, xs).map_err(|e| e.to_string())?;
    Dataset::new(x, data.y()[lo..hi].to_vec()).map_err(|e| e.to_string())
}

fn task_data<O: RegressionObjective>(data: Dataset, objective: O) -> Result<TaskData<O>, String> {
    let n = data.n();
    let shards = (0..SHARDS)
        .map(|s| slice(&data, s * n / SHARDS, (s + 1) * n / SHARDS))
        .collect::<Result<_, _>>()?;
    Ok(TaskData {
        data,
        shards,
        est: FmEstimator::new(objective, FitConfig::new().epsilon(EPSILON)),
    })
}

fn sharded(shards: &[Dataset]) -> Result<ShardedSource<InMemorySource<'_>>, String> {
    ShardedSource::new(shards.iter().map(InMemorySource::new).collect()).map_err(|e| e.to_string())
}

/// Releases of one iteration: `fit`, then `fit_stream` over the shards,
/// each timed.
struct Iteration<M> {
    fit: M,
    stream: M,
    fit_s: f64,
    stream_s: f64,
}

fn iterate<O: RegressionObjective>(
    task: &TaskData<O>,
    seed: u64,
) -> Result<Iteration<O::Model>, String> {
    let t0 = Instant::now();
    let fit = task
        .est
        .fit(&task.data, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let stream = task
        .est
        .fit_stream(
            &mut sharded(&task.shards)?,
            &mut StdRng::seed_from_u64(seed),
        )
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(Iteration {
        fit,
        stream,
        fit_s: (t1 - t0).as_secs_f64(),
        stream_s: (t2 - t1).as_secs_f64(),
    })
}

/// The same iteration through the decomposed layer calls, traced.
fn iterate_traced<O: RegressionObjective>(
    task: &TaskData<O>,
    seed: u64,
    tracer: &Arc<Tracer>,
    op: u64,
) -> Result<(O::Model, O::Model), String> {
    let root = At {
        tracer,
        op,
        parent: None,
    };
    let fit = root.span("fit", |at| {
        pipeline::fit(&task.est, &task.data, &mut StdRng::seed_from_u64(seed), at)
    })?;
    let stream = root.span("fit_stream", |at| {
        let mut source = TimedSource::new(
            sharded(&task.shards)?,
            Arc::clone(tracer),
            op,
            at.parent,
            Role::Source,
        );
        pipeline::fit_stream(&task.est, &mut source, &mut StdRng::seed_from_u64(seed), at)
    })?;
    Ok((fit, stream))
}

/// Per-seed reference releases: the first `fit` seen at each seed.
struct References<M> {
    by_seed: Vec<Option<M>>,
}

impl<M: PartialEq + Clone> References<M> {
    fn new() -> Self {
        References {
            by_seed: vec![None; SEEDS as usize],
        }
    }

    /// Whether `model` matches the reference at seed slot `k`, adopting
    /// it as the reference when the slot is empty.
    fn matches(&mut self, k: u64, model: &M) -> bool {
        let slot = &mut self.by_seed[(k % SEEDS) as usize];
        match slot {
            Some(reference) => reference == model,
            None => {
                *slot = Some(model.clone());
                true
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let rows = if ctx.smoke { SMOKE_ROWS } else { ROWS };
    let mut out = Outcome::default();
    let mut lin_refs = References::new();
    let mut log_refs = References::new();

    // Set-up: generate both census extracts, cut the shards, warm up
    // (two iterations per task: the second materializes the cached
    // columnar transpose every later fit reads).
    let (lin, log) = ctx.repeat_setup(&mut out, || {
        let lin = task_data(
            workload::build(Country::Us, Task::Linear, rows, 14, ctx.seed).data,
            LinearObjective,
        )?;
        let log = task_data(
            workload::build(Country::Us, Task::Logistic, rows, 14, ctx.seed).data,
            LogisticSurrogate::new(Approximation::Taylor).map_err(|e| e.to_string())?,
        )?;
        for k in 0..2 {
            iterate(&lin, ctx.mech_seed(k))?;
            iterate(&log, ctx.mech_seed(k))?;
        }
        Ok((lin, log))
    })?;
    let n = lin.data.n();

    // Measured closed loop.
    let mut fit_rate = Vec::new();
    let mut stream_rate = Vec::new();
    let heap = heap::Window::start();
    let samples = ctx.closed_loop(ctx.untraced_seconds(), |k| {
        let seed = ctx.mech_seed(k);
        let t0 = Instant::now();
        let a = iterate(&lin, seed);
        let b = iterate(&log, seed);
        let op_s = t0.elapsed().as_secs_f64();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                for it in [(a.fit_s, a.stream_s), (b.fit_s, b.stream_s)] {
                    fit_rate.push(n as f64 / it.0);
                    stream_rate.push(n as f64 / it.1);
                }
                let ok = a.fit == a.stream
                    && b.fit == b.stream
                    && lin_refs.matches(k, &a.fit)
                    && log_refs.matches(k, &b.fit);
                out.check(ok, || {
                    format!("op {k}: fit, fit_stream and the seed's reference differ")
                });
                Some(op_s)
            }
            (Err(e), _) | (_, Err(e)) => {
                out.check(false, || format!("op {k}: {e}"));
                None
            }
        }
    });
    out.peak_heap_mb = heap.stop();
    out.record_ops(&samples, 4 * n, "op_ms");
    out.extra.push((
        "measured_fit_rows_per_s".into(),
        stats::median(&fit_rate),
        "rows/s",
        fit_rate.len(),
    ));
    out.extra.push((
        "measured_stream_fit_rows_per_s".into(),
        stats::median(&stream_rate),
        "rows/s",
        stream_rate.len(),
    ));

    // Release quality over the fixed seed set: repeats exactly for a
    // given data seed, whatever the run length.
    let (mut mse, mut misclass) = (0.0, 0.0);
    for k in 0..SEEDS {
        let seed = ctx.mech_seed(k);
        let it = iterate(&lin, seed)?;
        mse += metrics::mse(&it.fit.predict_batch(lin.data.x()), lin.data.y());
        let it = iterate(&log, seed)?;
        misclass +=
            metrics::misclassification_rate(&it.fit.predict_batch(log.data.x()), log.data.y());
    }
    out.extra.push((
        "release_mse".into(),
        mse / SEEDS as f64,
        "mse",
        SEEDS as usize,
    ));
    out.extra.push((
        "release_misclass".into(),
        misclass / SEEDS as f64,
        "ratio",
        SEEDS as usize,
    ));

    if ctx.trace {
        let tracer = Arc::new(Tracer::new());
        let mut traced_ms = Vec::new();
        // Each traced op is followed by the untraced `fit` of both tasks
        // at the same seed, so the decomposition's layer times can be
        // held against the library call they stand for.
        let mut untraced_fit_s = 0.0;
        let started = Instant::now();
        let mut op = 0u64;
        while started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
            let seed = ctx.mech_seed(op);
            let t0 = Instant::now();
            let a = iterate_traced(&lin, seed, &tracer, op);
            let b = iterate_traced(&log, seed, &tracer, op);
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            let ua = lin.est.fit(&lin.data, &mut StdRng::seed_from_u64(seed));
            let ub = log.est.fit(&log.data, &mut StdRng::seed_from_u64(seed));
            untraced_fit_s += t1.elapsed().as_secs_f64();
            match (a, b, ua, ub) {
                (Ok((lf, ls)), Ok((gf, gs)), Ok(ua), Ok(ub)) => {
                    let ok = lin_refs.matches(op, &lf)
                        && lin_refs.matches(op, &ls)
                        && lin_refs.matches(op, &ua)
                        && log_refs.matches(op, &gf)
                        && log_refs.matches(op, &gs)
                        && log_refs.matches(op, &ub);
                    out.check(ok, || {
                        format!("traced op {op}: the decomposed calls released other bits than fit")
                    });
                }
                (Err(e), ..) | (_, Err(e), ..) => {
                    out.check(false, || format!("traced op {op}: {e}"));
                }
                (.., Err(e), _) | (.., Err(e)) => {
                    out.check(false, || format!("traced op {op}: {e}"));
                }
            }
            op += 1;
        }
        out.roll_up(&tracer, op as usize, &traced_ms);
        // The four layer calls of the traced in-memory fits (validate,
        // assemble, perturb, solve) against the untraced `fit` calls at
        // the same seeds: the decomposition must do the library's work.
        let coverage = tracer.child_seconds("fit") / untraced_fit_s;
        out.layers.insert("trace.fit_coverage", coverage);
        out.check((coverage - 1.0).abs() <= FIT_COVERAGE_TOLERANCE, || {
            format!("the traced fit's layer calls took {coverage:.3}× the untraced fit's time")
        });
        super::write_spans(ctx, "fit_census", &tracer)?;
    }
    Ok(out)
}
