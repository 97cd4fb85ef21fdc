//! The fit pipeline decomposed into its public layer calls, for the
//! traced run: `validate → assemble → perturb_assembled → solve` in
//! memory, `CoefficientAccumulator::absorb → finish → perturb_assembled →
//! solve` when streamed. Each call runs inside a span. Every workload
//! checks that the decomposed calls release the same bits as the
//! whole-path call (`fit`, `fit_stream`, a served fit, a round).

use std::sync::Arc;
use std::time::Instant;

use fm_core::assembly::{CoefficientAccumulator, DEFAULT_CHUNK_ROWS};
use fm_core::estimator::{FmEstimator, RegressionObjective};
use fm_core::mechanism::FunctionalMechanism;
use fm_core::postprocess::{self, Strategy};
use fm_core::PersistableModel;
use fm_data::stream::{BlockVisitor, RowBlock, RowSource};
use fm_data::Dataset;
use fm_poly::QuadraticForm;
use rand::Rng;

use crate::stats::assembly_flops_per_row;
use crate::trace::{SpanId, Tracer};

/// Where a traced span sits: the tracer, the workload op and the parent.
#[derive(Clone, Copy)]
pub struct At<'t> {
    pub tracer: &'t Tracer,
    pub op: u64,
    pub parent: Option<SpanId>,
}

impl<'t> At<'t> {
    /// Runs `f` in a span named `name` under this position.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(At<'t>) -> T) -> T {
        self.tracer.span(name, self.op, self.parent, |id| {
            f(At {
                parent: Some(id),
                ..self
            })
        })
    }
}

fn fm_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Counts the assembly work of `rows` rows at working dimensionality `d`.
pub fn count_assembly(tracer: &Tracer, rows: usize, d: usize) {
    tracer.count("assembly.rows", rows as f64);
    tracer.count("assembly.chunks", rows.div_ceil(DEFAULT_CHUNK_ROWS) as f64);
    tracer.count("assembly.flops", rows as f64 * assembly_flops_per_row(d));
}

/// `fit` decomposed: validate, assemble, then [`release`].
pub fn fit<O: RegressionObjective>(
    est: &FmEstimator<O>,
    data: &Dataset,
    rng: &mut impl Rng,
    at: At<'_>,
) -> Result<O::Model, String> {
    assert!(
        !est.config().fit_intercept,
        "the decomposition covers fits without the intercept augmentation"
    );
    let objective = est.objective();
    at.span("dataset.validate", |_| objective.validate(data))
        .map_err(fm_err)?;
    at.tracer.count("dataset.rows", data.n() as f64);
    let clean = at.span("assembly.assemble", |_| objective.assemble(data));
    count_assembly(at.tracer, data.n(), data.d());
    release(est, &clean, rng, at)
}

/// `fit_stream` decomposed: the accumulator drains `source` (wrap it in a
/// [`TimedSource`] to split source time from visitor time), finishes,
/// then [`release`].
pub fn fit_stream<O: RegressionObjective>(
    est: &FmEstimator<O>,
    source: &mut impl RowSource,
    rng: &mut impl Rng,
    at: At<'_>,
) -> Result<O::Model, String> {
    assert!(
        !est.config().fit_intercept,
        "the decomposition covers fits without the intercept augmentation"
    );
    let d = source.dim();
    let mut acc = CoefficientAccumulator::new(est.objective(), d);
    let rows = acc.absorb(source).map_err(fm_err)?;
    count_assembly(at.tracer, rows, d);
    let clean = at
        .span("assembly.finish", |_| acc.finish())
        .ok_or("the stream was empty")?;
    release(est, &clean, rng, at)
}

/// The release half: `perturb_assembled`, then `postprocess::solve`, then
/// the model wrapper — what `fit` runs after assembly.
pub fn release<O: RegressionObjective>(
    est: &FmEstimator<O>,
    clean: &QuadraticForm,
    rng: &mut impl Rng,
    at: At<'_>,
) -> Result<O::Model, String> {
    let cfg = est.config();
    assert!(
        !matches!(cfg.strategy, Strategy::Resample { .. }),
        "the decomposition covers the single-draw strategies"
    );
    let fm = FunctionalMechanism::with_config(cfg.epsilon, cfg.bound, cfg.noise).map_err(fm_err)?;
    let noisy = at
        .span("mechanism.perturb", |_| {
            fm.perturb_assembled(clean, est.objective(), rng)
        })
        .map_err(fm_err)?;
    let d = clean.dim();
    at.tracer
        .count("mechanism.draws", (1 + d + d * (d + 1) / 2) as f64);
    let omega = at
        .span("postprocess.solve", |_| {
            postprocess::solve(noisy, cfg.strategy)
        })
        .map_err(fm_err)?;
    at.tracer.count("postprocess.solves", 1.0);
    Ok(O::Model::from_parts(omega, 0.0, Some(cfg.epsilon)))
}

/// Which side of a stream a [`TimedSource`] wraps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The row source itself (shards, a CSV parser): time in it is
    /// `stream.source`, and it counts `stream.rows` / `stream.blocks`.
    Source,
    /// The consumer end of a prefetch channel: time in it is the
    /// consumer's wait, `stream.prefetch_wait`.
    PrefetchConsumer,
}

/// A forwarding [`RowSource`] that splits the time spent in the wrapped
/// source from the time spent in the consumer's visitor: each drain is a
/// span named after the role, each visitor call a child span
/// `assembly.absorb`, so the drain's self time is the source's.
/// It never hands over a materialized dataset, so the consumer streams.
pub struct TimedSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
    op: u64,
    parent: Option<SpanId>,
    role: Role,
}

impl<S: RowSource> TimedSource<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>, op: u64, parent: Option<SpanId>, role: Role) -> Self {
        TimedSource {
            inner,
            tracer,
            op,
            parent,
            role,
        }
    }

    fn name(&self) -> &'static str {
        match self.role {
            Role::Source => "stream.source",
            Role::PrefetchConsumer => "stream.prefetch_wait",
        }
    }
}

/// Counts one block the row source yielded (the prefetch consumer's
/// blocks are the same rows again, so it counts nothing).
fn count_block(tracer: &Tracer, role: Role, rows: usize) {
    if role == Role::Source {
        tracer.count("stream.rows", rows as f64);
        tracer.count("stream.blocks", 1.0);
    }
}

impl<S: RowSource> RowSource for TimedSource<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn hint_rows(&self) -> Option<usize> {
        self.inner.hint_rows()
    }

    fn next_block(&mut self, max_rows: usize) -> fm_data::Result<Option<RowBlock>> {
        let start = Instant::now();
        let block = self.inner.next_block(max_rows);
        self.tracer
            .record(self.name(), self.op, self.parent, start, Instant::now());
        if let Ok(Some(b)) = &block {
            count_block(&self.tracer, self.role, b.rows());
        }
        block
    }

    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> fm_data::Result<()> {
        let id = self.tracer.reserve();
        let start = Instant::now();
        let (tracer, op, role) = (Arc::clone(&self.tracer), self.op, self.role);
        let result = self.inner.for_each_block(max_rows, &mut |block| {
            let rows = block.rows();
            let t0 = Instant::now();
            let r = f(block);
            tracer.record("assembly.absorb", op, Some(id), t0, Instant::now());
            count_block(&tracer, role, rows);
            r
        });
        let name = self.name();
        self.tracer
            .record_as(id, name, self.op, self.parent, start, Instant::now());
        result
    }
}
