//! Batched, data-parallel coefficient assembly — the hot path of
//! Algorithm 1.
//!
//! Assembling `λ_φ = Σ_i λ_{φ t_i}` over the full dataset is the dominant
//! cost of every experiment in the paper (`O(n·d²)` at `n = 370,000`,
//! 5-fold × 50 repeats). This module replaces the tuple-at-a-time
//! accumulation loop with a chunked map-reduce:
//!
//! 1. the dataset's row-major feature block is split into fixed-size row
//!    chunks ([`DEFAULT_CHUNK_ROWS`] rows each);
//! 2. each chunk is accumulated into its own partial
//!    [`QuadraticForm`] through
//!    [`PolynomialObjective::accumulate_batch`] — which the built-in
//!    objectives override with blocked Gram kernels (`yᵀy`, `Xᵀy`, `XᵀX`;
//!    see `fm_linalg::vecops::sum_squares`/`gemv_t_acc` and
//!    `fm_linalg::Matrix::syrk_acc`) instead of per-tuple rank-1 updates;
//! 3. the partials are combined in chunk order by a **deterministic
//!    pairwise merge tree** ([`QuadraticForm::merge`]), built by one
//!    binary-counter merger that every path shares.
//!
//! With the `parallel` cargo feature the chunk map runs on rayon.
//! Determinism is by construction, not by luck: the chunk boundaries are a
//! pure function of `(n, chunk_rows)` and the reduction order is a pure
//! function of the chunk count, so the assembled coefficients are
//! **bit-identical** for any worker count — including the sequential
//! build. (Changing `chunk_rows` regroups floating-point sums and may
//! perturb coefficients at the ~1e-15 relative level; the chunk size is
//! therefore fixed by default and an explicit parameter everywhere else.)
//!
//! The streaming side — [`CoefficientAccumulator`] and
//! [`assemble_shards`] — forms the same chunk grid and merge tree
//! incrementally, once for both coefficient types: it is generic over
//! [`Coefficients`] and drives the objective through [`Objective`]. Every
//! fit runs it, in memory too: `FmEstimator::fit` hands its dataset over
//! whole ([`RowSource::take_dataset`]). [`assemble`] serves callers that
//! want a dataset's clean sum without a fit.

use fm_data::stream::{RowBlock, RowSource};
use fm_data::{DataError, Dataset};
use fm_poly::QuadraticForm;

use crate::coefficients::{Coefficients, Objective};
use crate::mechanism::PolynomialObjective;
use crate::{FmError, Result};

/// Rows per assembly chunk. Large enough that per-chunk bookkeeping
/// (one partial `QuadraticForm` + one merge) is noise, small enough that
/// a census-scale dataset (`n = 370k`) still splits into ~90 chunks —
/// plenty of parallel slack for any realistic core count.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Splits `n` items into `⌈n / chunk_rows⌉` chunk bounds, maps every chunk
/// to a partial result (in parallel when the `parallel` feature is on),
/// and merges the partials in chunk order through the same binary-counter
/// merge tree the streaming accumulator builds. Returns `None` for
/// `n = 0`.
///
/// The merge tree is a pure function of the chunk count, so the grouping
/// — and hence the floating-point result — never depends on scheduling.
pub fn map_reduce_chunks<T, M>(
    n: usize,
    chunk_rows: usize,
    map: M,
    merge: impl Fn(&mut T, T),
) -> Option<T>
where
    T: Send,
    M: Fn(usize, usize) -> T + Sync,
{
    let chunk_rows = chunk_rows.max(1);
    let n_chunks = n.div_ceil(chunk_rows);
    let mut counter = TreeCounter::new();
    for part in map_in_order((0..n_chunks).collect(), |c| {
        map(c * chunk_rows, ((c + 1) * chunk_rows).min(n))
    }) {
        counter.push(part, &merge);
    }
    counter.finish(&merge)
}

/// Maps `items` through `f`, on rayon under the `parallel` feature and
/// serially otherwise; the outputs come back in input order either way,
/// so whatever merges them downstream never depends on scheduling.
fn map_in_order<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync + Send) -> Vec<U> {
    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        items.into_par_iter().map(f).collect()
    }
    #[cfg(not(feature = "parallel"))]
    {
        items.into_iter().map(f).collect()
    }
}

/// Incremental pairwise merger: pushing chunk partials one at a time
/// produces **exactly** the merge tree of a round-based pairwise
/// reduction over the full partial list (the test-only `tree_reduce`),
/// while holding only `O(log n_chunks)` partials at once — the one merge
/// of every assembly path, in memory and out-of-core.
///
/// Invariant: the stack holds runs of `2^rank` consecutive chunks, ranks
/// strictly decreasing from the bottom. Pushing a new chunk carries like
/// binary addition (equal ranks merge, left operand first); finishing
/// merges the leftover runs right-to-left. Both orders reproduce the
/// round-based neighbour pairing of `tree_reduce`: each round there
/// merges runs covering index ranges `[i·2^r, (i+1)·2^r)` and pairs the
/// trailing odd run with its left neighbour one round later — the same
/// `(run, carry)` pairs, in the same left-to-right order, that the counter
/// produces ([`tests::counter_merge_is_bit_identical_to_tree_reduce`]
/// machine-checks the equivalence for every chunk count up to 260).
pub(crate) struct TreeCounter<T> {
    /// `(rank, partial)`, ranks strictly decreasing bottom → top.
    stack: Vec<(u32, T)>,
}

impl<T> TreeCounter<T> {
    pub(crate) fn new() -> Self {
        TreeCounter { stack: Vec::new() }
    }

    /// Pushes the next chunk partial (chunks must arrive in order).
    pub(crate) fn push(&mut self, item: T, merge: &impl Fn(&mut T, T)) {
        self.push_run(0, item, merge);
    }

    /// Pushes a partial covering a **run of `2^rank` consecutive chunks**
    /// — the generalized binary-addition carry. Pushing at rank 0 is the
    /// ordinary chunk push; pushing at rank `r` is what lets a
    /// coordinator replay another process's pre-merged run of chunks and
    /// still land on **exactly** the merge tree a single machine would
    /// have built.
    ///
    /// Precondition (checked by callers, `debug_assert`ed here): the
    /// number of chunks already absorbed must be divisible by `2^rank` —
    /// equivalently, the stack's top rank is `≥ rank` (or the stack is
    /// empty). A run pushed at an unaligned position would have merged
    /// chunk pairs the single-machine counter never merges, so the
    /// invariant is load-bearing for bit-identity, not just for shape.
    pub(crate) fn push_run(&mut self, mut rank: u32, mut item: T, merge: &impl Fn(&mut T, T)) {
        debug_assert!(
            self.stack.last().map_or(true, |&(r, _)| r >= rank),
            "run of rank {rank} pushed onto a finer-grained stack top"
        );
        while matches!(self.stack.last(), Some(&(r, _)) if r == rank) {
            let (_, mut left) = self.stack.pop().expect("matched above");
            merge(&mut left, item);
            item = left;
            rank += 1;
        }
        self.stack.push((rank, item));
    }

    /// Merges the leftover runs (smallest spans first, each folding into
    /// its left neighbour) and returns the total; `None` if nothing was
    /// pushed.
    pub(crate) fn finish(mut self, merge: &impl Fn(&mut T, T)) -> Option<T> {
        let mut total = self.stack.pop()?.1;
        while let Some((_, mut left)) = self.stack.pop() {
            merge(&mut left, total);
            total = left;
        }
        Some(total)
    }

    /// The counter's run stack, bottom → top, for checkpointing.
    pub(crate) fn stack(&self) -> &[(u32, T)] {
        &self.stack
    }

    /// Rebuilds a counter from a checkpointed stack. The caller (the
    /// checkpoint parser) must have verified the structural invariant:
    /// ranks strictly decreasing bottom → top.
    pub(crate) fn restore(stack: Vec<(u32, T)>) -> Self {
        debug_assert!(
            stack.windows(2).all(|w| w[0].0 > w[1].0),
            "tree counter ranks must be strictly decreasing"
        );
        TreeCounter { stack }
    }
}

/// Fixed-size re-chunking stage: whatever block sizes a stream delivers,
/// `flush` sees exactly the `chunk_rows`-row chunks (plus one final
/// ragged chunk) that [`assemble_with_chunk_rows`] would form over the
/// materialized concatenation — the other half of the streaming path's
/// bit-identity guarantee. A block's full chunks are lent straight from
/// the caller's slice; only a chunk that straddles two blocks is copied
/// into the staging buffers, which persist across chunks (cleared after
/// each flush, never reallocated), so a steady stream costs no per-chunk
/// allocation. Peak staged memory is one chunk.
pub(crate) struct ChunkStage {
    d: usize,
    chunk_rows: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl ChunkStage {
    pub(crate) fn new(d: usize, chunk_rows: usize) -> Self {
        ChunkStage {
            d,
            chunk_rows: chunk_rows.max(1),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Rows that would complete the staged chunk — the natural block size
    /// to request from a source so full blocks skip the staging copy.
    pub(crate) fn rows_to_boundary(&self) -> usize {
        self.chunk_rows - self.ys.len()
    }

    /// Rows currently staged (0 = the stage sits on a chunk boundary, so
    /// aligned blocks flush straight from the caller's slice).
    pub(crate) fn staged_rows(&self) -> usize {
        self.ys.len()
    }

    /// The fixed chunk size this stage re-chunks to.
    pub(crate) fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Feeds a row-major block: hands `flush` every chunk the block
    /// completes, in grid order — the staged head chunk topped up from
    /// the block first, then the block's own full chunks, borrowed in
    /// place — and stages the rest. `flush` runs once per block, with an
    /// empty list when the block completes no chunk.
    pub(crate) fn push(
        &mut self,
        mut xs: &[f64],
        mut ys: &[f64],
        flush: impl FnOnce(Vec<(&[f64], &[f64])>),
    ) {
        debug_assert_eq!(xs.len(), ys.len() * self.d, "chunk stage: shape mismatch");
        let d = self.d;
        if !self.ys.is_empty() {
            let take = self.rows_to_boundary().min(ys.len());
            self.xs.extend_from_slice(&xs[..take * d]);
            self.ys.extend_from_slice(&ys[..take]);
            xs = &xs[take * d..];
            ys = &ys[take..];
        }
        let head = self.ys.len() == self.chunk_rows;
        let body = ys.len() / self.chunk_rows * self.chunk_rows;
        let (body_xs, tail_xs) = xs.split_at(body * d);
        let (body_ys, tail_ys) = ys.split_at(body);
        let mut chunks = Vec::with_capacity(usize::from(head) + body / self.chunk_rows);
        if head {
            chunks.push((&self.xs[..], &self.ys[..]));
        }
        chunks.extend(
            body_xs
                .chunks_exact(self.chunk_rows * d)
                .zip(body_ys.chunks_exact(self.chunk_rows)),
        );
        flush(chunks);
        if head {
            self.xs.clear();
            self.ys.clear();
        }
        self.xs.extend_from_slice(tail_xs);
        self.ys.extend_from_slice(tail_ys);
    }

    /// Flushes the final ragged chunk, if any.
    pub(crate) fn finish(self, flush: &mut impl FnMut(&[f64], &[f64])) {
        if !self.ys.is_empty() {
            flush(&self.xs, &self.ys);
        }
    }

    /// The staged (not yet flushed) rows, for checkpointing.
    pub(crate) fn staged(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Rebuilds a stage mid-chunk from checkpointed staged rows. The
    /// caller (the checkpoint parser) must have verified the shape:
    /// `xs.len() == ys.len() * d` and `ys.len() < chunk_rows`.
    pub(crate) fn restore(d: usize, chunk_rows: usize, xs: Vec<f64>, ys: Vec<f64>) -> Self {
        let chunk_rows = chunk_rows.max(1);
        debug_assert_eq!(xs.len(), ys.len() * d, "staged rows: shape mismatch");
        debug_assert!(ys.len() < chunk_rows, "staged rows must not fill a chunk");
        ChunkStage {
            d,
            chunk_rows,
            xs,
            ys,
        }
    }
}

/// A **resumable** coefficient accumulator: Algorithm 1's data pass as a
/// feed-blocks-then-finish state machine, so the exact objective
/// `f_D(ω) = Σ_i f(t_i, ω)` can be assembled out-of-core, shard at a
/// time, or from any [`RowSource`] — with released coefficients
/// **bit-identical** to the in-memory chunked assembly on the
/// materialized concatenation at the same `chunk_rows`, for *any*
/// incoming block sizes or shard boundaries. One accumulator serves both
/// coefficient types: dense [`QuadraticForm`]s (the default) and
/// general-degree [`fm_poly::Polynomial`]s.
///
/// Three ingredients make that guarantee hold by construction rather than
/// by luck:
///
/// 1. every incoming block is validated against the objective's
///    normalized-domain contract ([`Objective::check_rows`]) and
///    re-chunked by a fixed-size staging buffer (`ChunkStage`), so
///    per-chunk kernel calls see exactly the row ranges the in-memory
///    path forms;
/// 2. each chunk is accumulated by the same kernels
///    ([`Objective::accumulate`], e.g. the blocked Gram kernels of
///    [`PolynomialObjective::accumulate_batch`]);
/// 3. partials merge through a binary-counter merger (`TreeCounter`),
///    whose merge tree is provably identical to the in-memory pairwise
///    tree reduction while holding only `O(log n_chunks)` partials.
///
/// Memory is bounded by one staged chunk (`chunk_rows × d`), the counter
/// stack, and the partials of one block's chunks while they are mapped —
/// independent of the stream length. Only [`RowSource::zero_copy`]
/// sources are asked for blocks longer than one chunk, and they lend
/// them without copying.
pub struct CoefficientAccumulator<'a, O: ?Sized, C = QuadraticForm> {
    objective: &'a O,
    core: StreamCore<C>,
}

impl<'a, O: Objective<C> + ?Sized, C: Coefficients> CoefficientAccumulator<'a, O, C> {
    /// An empty accumulator over `d` features at the default chunk size.
    #[must_use]
    pub fn new(objective: &'a O, d: usize) -> Self {
        Self::with_chunk_rows(objective, d, DEFAULT_CHUNK_ROWS)
    }

    /// An empty accumulator with an explicit chunk size (must match the
    /// in-memory path's `chunk_rows` for bit-identical results).
    #[must_use]
    pub fn with_chunk_rows(objective: &'a O, d: usize, chunk_rows: usize) -> Self {
        CoefficientAccumulator {
            objective,
            core: StreamCore::new(d, chunk_rows),
        }
    }

    /// The feature dimensionality this accumulator expects.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.core.dim()
    }

    /// Total rows absorbed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.core.rows()
    }

    /// The fixed chunk size this accumulator re-chunks to.
    #[must_use]
    pub fn chunk_rows(&self) -> usize {
        self.core.chunk_rows()
    }

    /// Validates and absorbs a row-major block.
    ///
    /// # Errors
    /// * [`FmError::Data`] for a shape mismatch or a normalized-domain
    ///   contract violation (tuple indices in the error are block-local).
    pub fn push_rows(&mut self, xs: &[f64], ys: &[f64]) -> Result<()> {
        self.core
            .push_rows(self.objective, xs, ys)
            .map_err(FmError::Data)
    }

    /// Validates and absorbs one [`RowBlock`].
    ///
    /// # Errors
    /// As [`CoefficientAccumulator::push_rows`], plus [`FmError::Data`]
    /// when the block's dimensionality differs from the accumulator's.
    pub fn push_block(&mut self, block: &RowBlock) -> Result<()> {
        self.core.check_dim("block", block.d())?;
        self.push_rows(block.xs(), block.ys())
    }

    /// Chunks fully absorbed so far on the fixed grid (the partial chunk
    /// held by the staging buffer, if any, excluded) — the accumulator's
    /// position on the shared chunk grid that federated merging aligns to.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.core.chunks()
    }

    /// The merge counter's run stack, bottom → top: each entry is a
    /// partial covering `2^rank` consecutive chunks, ranks strictly
    /// decreasing. Together with [`CoefficientAccumulator::staged`] this
    /// is the accumulator's complete floating-point state — what a
    /// federated client ships to a coordinator.
    #[must_use]
    pub fn partial_runs(&self) -> &[(u32, C)] {
        self.core.partials()
    }

    /// The staged rows of the current partial chunk `(xs, ys)` — empty
    /// when the accumulator sits on a chunk boundary.
    #[must_use]
    pub fn staged(&self) -> (&[f64], &[f64]) {
        self.core.staged()
    }

    /// Merges a pre-assembled partial covering a run of `2^rank`
    /// consecutive chunks at the accumulator's current grid position —
    /// the coordinator half of federated fitting. Replaying another
    /// process's runs in global chunk order through this entry produces
    /// **exactly** the merge tree (and therefore bit-identical
    /// coefficients) of a single accumulator fed every row in order.
    ///
    /// The caller owns the claim that `part` really is the chunk-kernel
    /// sum over those `2^rank` chunks of the shared grid (it is
    /// floating-point state, not re-validatable rows); everything
    /// structural is checked here.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] for a dimension mismatch, a run pushed
    /// while rows are staged mid-chunk, an unaligned run (current chunk
    /// count not divisible by `2^rank`), or rank/row overflow.
    pub fn push_run(&mut self, rank: u32, part: C) -> Result<()> {
        self.core.push_run(rank, part)
    }

    /// Drains `source`, absorbing every block it yields; returns the
    /// number of rows absorbed. A fully-in-memory source hands its
    /// backing [`fm_data::Dataset`] over whole
    /// ([`RowSource::take_dataset`]) and is chunked in place — reusing
    /// the dataset's cached columnar transpose when the objective has
    /// columnar kernels — while genuinely streaming sources drain through
    /// the **borrowed-block visitor** ([`RowSource::for_each_block`]):
    /// in windows of many chunks mapped across cores for
    /// [`RowSource::zero_copy`] sources, at the chunk size for all others.
    /// No block copy and no per-block allocation on either path, so
    /// streamed in-memory assembly runs at batched speed.
    ///
    /// # Errors
    /// [`FmError::Data`] for a dimensionality mismatch, transport errors
    /// from the source, or contract violations.
    pub fn absorb(&mut self, source: &mut (impl RowSource + ?Sized)) -> Result<usize> {
        self.core.absorb_source(self.objective, source, false)
    }

    /// [`CoefficientAccumulator::absorb`] then
    /// [`CoefficientAccumulator::finish`], for a source that brings the
    /// last rows: a dataset handed over whole is mapped to its end in one
    /// go, its ragged tail chunk included, rather than staging a tail no
    /// later rows will fill.
    pub(crate) fn absorb_last(
        mut self,
        source: &mut (impl RowSource + ?Sized),
    ) -> Result<Option<C>> {
        self.core.absorb_source(self.objective, source, true)?;
        Ok(self.finish())
    }

    /// Serializes the accumulator's complete streaming state — chunk grid
    /// position, staged rows, merge-counter stack, row count — to the
    /// versioned, checksummed `fm-checkpoint v1` text format, optionally
    /// tagging it with the WAL reservation id of the in-flight fit so a
    /// resumed fit re-attaches to its already-debited budget instead of
    /// re-debiting. Floats are written shortest-round-trip, so a restored
    /// accumulator continues **bit-identical** to the uninterrupted run.
    #[must_use]
    pub fn checkpoint(&self, reservation: Option<u64>) -> String {
        crate::checkpoint::write_core(&self.core, reservation)
    }

    /// Restores an accumulator (and the WAL reservation id it carried, if
    /// any) from a [`CoefficientAccumulator::checkpoint`] snapshot.
    ///
    /// # Errors
    /// [`FmError::Checkpoint`] for corruption/truncation (the whole-file
    /// checksum fails), version or kind mismatches, and structural
    /// violations (shapes, counter rank ordering, row accounting).
    pub fn resume(objective: &'a O, text: &str) -> Result<(Self, Option<u64>)> {
        let (core, reservation) = crate::checkpoint::parse_core(text)?;
        Ok((CoefficientAccumulator { objective, core }, reservation))
    }

    /// Flushes the final ragged chunk and merges all partials into the
    /// assembled objective; `None` if no rows were absorbed.
    #[must_use]
    pub fn finish(self) -> Option<C> {
        self.core.finish(self.objective)
    }
}

/// The objective-free state of a streaming accumulator — staging, shape
/// checking, counter merging, row accounting — which is exactly what a
/// checkpoint serializes.
pub(crate) struct StreamCore<C> {
    d: usize,
    stage: ChunkStage,
    counter: TreeCounter<C>,
    rows: usize,
}

/// Full chunks per block requested from a [`RowSource::zero_copy`]
/// source: one block validates once and maps this many chunk partials
/// across cores, while holding at most this many partials before they
/// merge. Blocks from other sources stay one chunk long.
const WINDOW_CHUNKS: usize = 32;

/// One chunk partial: fresh zero coefficients, accumulated by the
/// objective's kernel over exactly the rows the in-memory chunking forms.
fn chunk<O: Objective<C> + ?Sized, C: Coefficients>(
    objective: &O,
    xs: &[f64],
    ys: &[f64],
    d: usize,
) -> C {
    let mut part = C::zero(d);
    objective.accumulate(xs, ys, d, &mut part);
    part
}

impl<C: Coefficients> StreamCore<C> {
    pub(crate) fn new(d: usize, chunk_rows: usize) -> Self {
        StreamCore {
            d,
            stage: ChunkStage::new(d, chunk_rows),
            counter: TreeCounter::new(),
            rows: 0,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.d
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Refuses inputs whose dimensionality differs from the accumulator's.
    pub(crate) fn check_dim(&self, what: &'static str, d: usize) -> Result<()> {
        if d != self.d {
            return Err(FmError::Data(DataError::InvalidParameter {
                name: what,
                reason: format!("{what} has d = {d}, accumulator expects {}", self.d),
            }));
        }
        Ok(())
    }

    /// Shape-checks, validates, stages, and accumulates one row-major
    /// block: the block is validated once, then every full chunk it
    /// completes (the staged head chunk included) goes through the chunk
    /// kernel in one map — across cores under `parallel` — and the
    /// partials enter the merge counter in chunk order. A block that
    /// fails validation leaves the core untouched. `DataError`-typed so
    /// the borrowed-block visitor ([`RowSource::for_each_block`]) can
    /// drive it directly; the public accumulator lifts the error into
    /// [`FmError::Data`].
    pub(crate) fn push_rows<O: Objective<C> + ?Sized>(
        &mut self,
        objective: &O,
        xs: &[f64],
        ys: &[f64],
    ) -> fm_data::Result<()> {
        fm_data::dataset::check_shape(xs, ys, self.d)?;
        objective.check_rows(xs, ys, self.d)?;
        let (d, counter) = (self.d, &mut self.counter);
        self.stage.push(xs, ys, |chunks| {
            for part in map_in_order(chunks, |(cx, cy)| chunk(objective, cx, cy, d)) {
                counter.push(part, &C::merge);
            }
        });
        self.rows += ys.len();
        Ok(())
    }

    /// Drains `source`, staging and accumulating every remaining row;
    /// returns the number of rows absorbed. The drain has three phases:
    ///
    /// 1. a source that is a fully-unconsumed **materialized dataset**
    ///    ([`RowSource::take_dataset`]) hands it over whole (only when the
    ///    stage sits on a chunk boundary): the dataset is validated in one
    ///    pass and chunked **on exactly the grid the stream would have
    ///    been re-chunked to**, the full chunks mapped across cores and
    ///    their partials pushed into the merge counter in order — and
    ///    when the objective has columnar kernels and the dataset a cached
    ///    transpose ([`fm_data::Dataset::columnar_on_reuse`]), the chunks
    ///    read it, so repeat in-memory fits reach the kernels'
    ///    steady-state rate. When `last` says no rows follow (the caller
    ///    finishes next), the ragged tail chunk is mapped with the rest
    ///    instead of staged;
    /// 2. while the stage holds a partial chunk (a previous shard ended
    ///    mid-chunk), owned blocks are pulled at the staging boundary so a
    ///    well-behaved source re-aligns the stage in one block;
    /// 3. the aligned bulk goes through the **borrowed-block visitor**
    ///    ([`RowSource::for_each_block`]). A [`RowSource::zero_copy`]
    ///    source lends windows of `WINDOW_CHUNKS` chunks per block,
    ///    whose chunks map across cores in one go; every other source is
    ///    asked for exactly `chunk_rows` per block, its memory cap. Either
    ///    way, sources with a borrowed fast path (in-memory data, reused
    ///    CSV buffers) feed the kernels without a single block copy, and
    ///    chunk-aligned blocks skip the staging copy too.
    ///
    /// All phases produce identical chunk boundaries and an identical
    /// merge tree (and the columnar kernels are bit-identical to the
    /// row-major ones), so which path a source takes can never perturb
    /// the assembled coefficients.
    pub(crate) fn absorb_source<O: Objective<C> + ?Sized>(
        &mut self,
        objective: &O,
        source: &mut (impl RowSource + ?Sized),
        last: bool,
    ) -> Result<usize> {
        self.check_dim("source", source.dim())?;
        let before = self.rows;
        if self.stage.staged_rows() == 0 {
            if let Some(data) = source.take_dataset() {
                let d = self.d;
                debug_assert_eq!(data.d(), d, "take_dataset arity drifted from dim()");
                objective
                    .check_rows(data.x().as_slice(), data.y(), d)
                    .map_err(FmError::Data)?;
                let n = data.n();
                let chunk_rows = self.stage.chunk_rows();
                let ys = data.y();
                let xt = if objective.columnar() {
                    data.columnar_on_reuse()
                } else {
                    None
                };
                let xs = data.x().as_slice();
                // Unless these are the last rows, only the *full* chunks
                // may enter the counter here: a later absorb must be able
                // to keep filling the final ragged chunk (continuation
                // chunking is what makes a shard split invisible), so the
                // tail goes through the ordinary stage exactly as a
                // streamed block would.
                let mapped = if last {
                    n.div_ceil(chunk_rows)
                } else {
                    n / chunk_rows
                };
                for part in map_in_order((0..mapped).collect(), |c| {
                    let (lo, hi) = (c * chunk_rows, ((c + 1) * chunk_rows).min(n));
                    let mut part = C::zero(d);
                    match xt {
                        Some(xt) => objective.accumulate_columnar(xt, ys, lo, hi, &mut part),
                        None => {
                            objective.accumulate(&xs[lo * d..hi * d], &ys[lo..hi], d, &mut part)
                        }
                    }
                    part
                }) {
                    self.counter.push(part, &C::merge);
                }
                let lo = (mapped * chunk_rows).min(n);
                self.stage.push(&xs[lo * d..], &ys[lo..], |chunks| {
                    debug_assert!(chunks.is_empty(), "the tail is shorter than a chunk");
                });
                self.rows += n;
                return Ok(self.rows - before);
            }
        }
        while self.stage.staged_rows() > 0 {
            match source
                .next_block(self.stage.rows_to_boundary())
                .map_err(FmError::Data)?
            {
                Some(block) => {
                    self.check_dim("block", block.d())?;
                    self.push_rows(objective, block.xs(), block.ys())
                        .map_err(FmError::Data)?;
                }
                None => return Ok(self.rows - before),
            }
        }
        let chunk_rows = self.stage.chunk_rows();
        let max_rows = if source.zero_copy() {
            WINDOW_CHUNKS.saturating_mul(chunk_rows)
        } else {
            chunk_rows
        };
        source
            .for_each_block(max_rows, &mut |block| {
                self.push_rows(objective, block.xs(), block.ys())
            })
            .map_err(FmError::Data)?;
        Ok(self.rows - before)
    }

    /// The fixed chunk size this core re-chunks to.
    pub(crate) fn chunk_rows(&self) -> usize {
        self.stage.chunk_rows()
    }

    /// The staged (not yet flushed) rows, for checkpointing.
    pub(crate) fn staged(&self) -> (&[f64], &[f64]) {
        self.stage.staged()
    }

    /// The merge counter's run stack, bottom → top, for checkpointing.
    pub(crate) fn partials(&self) -> &[(u32, C)] {
        self.counter.stack()
    }

    /// Chunks fully absorbed so far (the stage's partial chunk excluded).
    pub(crate) fn chunks(&self) -> usize {
        (self.rows - self.stage.staged_rows()) / self.stage.chunk_rows()
    }

    /// Absorbs a pre-merged partial covering a run of `2^rank` consecutive
    /// chunks — the merge-at-rank entry behind
    /// [`CoefficientAccumulator::push_run`]. Refuses mismatched
    /// dimensions, unaligned runs (the chunk count so far must be
    /// divisible by `2^rank`), runs pushed while rows are staged
    /// mid-chunk, and rank/row overflow — each a structural violation
    /// that would silently break bit-identity if let through.
    pub(crate) fn push_run(&mut self, rank: u32, part: C) -> Result<()> {
        let invalid = |reason: String| FmError::InvalidConfig {
            name: "run",
            reason,
        };
        if part.dim() != self.d {
            return Err(invalid(format!(
                "run partial has d = {}, accumulator expects {}",
                part.dim(),
                self.d
            )));
        }
        if self.stage.staged_rows() != 0 {
            return Err(invalid(format!(
                "cannot merge a chunk run while {} rows are staged mid-chunk",
                self.stage.staged_rows()
            )));
        }
        if rank >= usize::BITS {
            return Err(invalid(format!("run rank {rank} overflows the chunk grid")));
        }
        let run_chunks = 1usize << rank;
        let chunks = self.chunks();
        if chunks % run_chunks != 0 {
            return Err(invalid(format!(
                "run of 2^{rank} chunks is not aligned at chunk {chunks}: \
                 merging it would regroup sums the single-machine tree never groups"
            )));
        }
        let run_rows = run_chunks
            .checked_mul(self.stage.chunk_rows())
            .and_then(|r| r.checked_add(self.rows))
            .ok_or_else(|| invalid("run row count overflows".to_string()))?;
        self.counter.push_run(rank, part, &C::merge);
        self.rows = run_rows;
        Ok(())
    }

    /// Rebuilds a core from checkpointed state. Structural invariants
    /// (shapes, rank ordering) must already be verified by the caller —
    /// the checkpoint parser, which turns violations into typed errors.
    pub(crate) fn restore(
        d: usize,
        chunk_rows: usize,
        rows: usize,
        staged_xs: Vec<f64>,
        staged_ys: Vec<f64>,
        stack: Vec<(u32, C)>,
    ) -> Self {
        StreamCore {
            d,
            stage: ChunkStage::restore(d, chunk_rows, staged_xs, staged_ys),
            counter: TreeCounter::restore(stack),
            rows,
        }
    }

    /// Flushes the final ragged chunk and merges all partials; `None` if
    /// nothing was pushed.
    pub(crate) fn finish<O: Objective<C> + ?Sized>(self, objective: &O) -> Option<C> {
        let StreamCore {
            d,
            stage,
            mut counter,
            ..
        } = self;
        stage.finish(&mut |cx, cy| {
            counter.push(chunk(objective, cx, cy, d), &C::merge);
        });
        counter.finish(&C::merge)
    }
}

/// Assembles the exact objective `f_D(ω) = Σ_i f(t_i, ω)` through the
/// batched chunk pipeline at the default chunk size. This is what
/// [`PolynomialObjective::assemble`] calls.
#[must_use]
pub fn assemble<O>(objective: &O, data: &Dataset) -> QuadraticForm
where
    O: PolynomialObjective + ?Sized,
{
    assemble_with_chunk_rows(objective, data, DEFAULT_CHUNK_ROWS)
}

/// [`assemble`] with an explicit chunk size (equivalence/property tests
/// and tuning hooks; results for different chunk sizes agree to
/// floating-point regrouping, ~1e-15 relative).
#[must_use]
pub fn assemble_with_chunk_rows<O>(
    objective: &O,
    data: &Dataset,
    chunk_rows: usize,
) -> QuadraticForm
where
    O: PolynomialObjective + ?Sized,
{
    let (d, xs, ys) = (data.d(), data.x().as_slice(), data.y());
    // Columnar objectives read the dataset's cached `d × n` transpose
    // instead of re-packing each row chunk into column panels.
    // `columnar_on_reuse` only materialises it from a dataset's second
    // assembly pass onward, so one-shot fits skip the `n·d` allocation
    // while repeat workloads amortize it. The columnar kernels replicate
    // the row-major kernels' floating-point grouping, so the layout can
    // never perturb coefficients.
    let xt = if objective.supports_columnar() {
        data.columnar_on_reuse()
    } else {
        None
    };
    assemble_chunks(data, chunk_rows, |lo, hi, q: &mut QuadraticForm| match xt {
        Some(xt) => objective.accumulate_batch_columnar(xt, ys, lo, hi, q),
        None => objective.accumulate_batch(&xs[lo * d..hi * d], &ys[lo..hi], d, q),
    })
}

/// The clean sum over `data` on the `chunk_rows` grid: `kernel(lo, hi,
/// part)` accumulates rows `[lo, hi)` into each chunk's fresh zero
/// coefficients, and [`map_reduce_chunks`] merges them — the in-memory
/// assembly of both objective families.
pub(crate) fn assemble_chunks<C: Coefficients>(
    data: &Dataset,
    chunk_rows: usize,
    kernel: impl Fn(usize, usize, &mut C) + Sync,
) -> C {
    let d = data.d();
    let map = |lo, hi| {
        let mut part = C::zero(d);
        kernel(lo, hi, &mut part);
        part
    };
    map_reduce_chunks(data.n(), chunk_rows, map, C::merge).unwrap_or_else(|| C::zero(d))
}

/// Assembles each shard's exact objective **independently** — one
/// [`CoefficientAccumulator`] per shard, run concurrently under the
/// `parallel` cargo feature — returning `(rows, coefficients)` per shard,
/// in shard order (`None` coefficients for an empty shard).
///
/// Each shard is validated and re-chunked from its own first row, so the
/// per-shard results are exactly what a serial
/// `CoefficientAccumulator::absorb` + `finish` per shard produces — the
/// parallel and sequential builds are **bit-identical** by construction
/// (per-shard merge trees touch only their own chunks; nothing crosses a
/// shard boundary until the caller merges the returned partials, in
/// whatever order it chooses — shard order, for the built-in callers).
///
/// Shards may have different dimensionalities (each is its own
/// accumulation); callers that merge the partials enforce equal dims
/// themselves.
///
/// # Errors
/// The first shard error in shard order — [`FmError::Data`] for contract
/// violations or transport errors (under `parallel` every shard is still
/// assembled; error selection stays deterministic).
pub fn assemble_shards<O, C, S>(
    objective: &O,
    shards: &mut [S],
    chunk_rows: usize,
) -> Result<Vec<(usize, Option<C>)>>
where
    O: Objective<C> + ?Sized,
    C: Coefficients,
    S: RowSource + Send,
{
    map_in_order(shards.iter_mut().collect(), |shard: &mut S| {
        let mut acc = CoefficientAccumulator::with_chunk_rows(objective, shard.dim(), chunk_rows);
        let rows = acc.absorb(shard)?;
        Ok((rows, acc.finish()))
    })
    .into_iter()
    .collect()
}

/// Refuses shard lists whose members disagree on dimensionality — the
/// shared pre-check of every caller that merges per-shard partials.
pub(crate) fn check_shard_dims<S: RowSource>(shards: &[S]) -> Result<()> {
    if let Some(first) = shards.first() {
        let d = first.dim();
        if let Some(bad) = shards.iter().position(|s| s.dim() != d) {
            return Err(FmError::Data(DataError::InvalidParameter {
                name: "shards",
                reason: format!(
                    "shard {bad} has dimensionality {}, shard 0 has {d}",
                    shards[bad].dim()
                ),
            }));
        }
    }
    Ok(())
}

/// The pre-batching reference path: one [`PolynomialObjective::accumulate_tuple`]
/// call per row into a single accumulator. Kept for equivalence tests and
/// as the baseline of `fm-experiments --figure kernels`; real callers go
/// through [`assemble`].
#[must_use]
pub fn assemble_per_tuple<O>(objective: &O, data: &Dataset) -> QuadraticForm
where
    O: PolynomialObjective + ?Sized,
{
    let mut q = QuadraticForm::zero(data.d());
    for (x, y) in data.tuples() {
        objective.accumulate_tuple(x, y, &mut q);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-based pairwise reduction in chunk order — neighbours `(0,1),
    /// (2,3), …` merge each round — the reference merge tree that
    /// [`TreeCounter`] reproduces incrementally; `None` on empty input.
    fn tree_reduce<T>(mut parts: Vec<T>, merge: impl Fn(&mut T, T)) -> Option<T> {
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(mut left) = it.next() {
                if let Some(right) = it.next() {
                    merge(&mut left, right);
                }
                next.push(left);
            }
            parts = next;
        }
        parts.pop()
    }

    #[test]
    fn tree_reduce_handles_all_sizes() {
        for n in 0usize..20 {
            let parts: Vec<usize> = (0..n).collect();
            let total = tree_reduce(parts, |a, b| *a += b);
            match n {
                0 => assert!(total.is_none()),
                _ => assert_eq!(total.unwrap(), n * (n - 1) / 2),
            }
        }
    }

    #[test]
    fn map_reduce_covers_every_row_exactly_once() {
        for n in [1usize, 5, 4096, 4097, 10_000] {
            for chunk in [1usize, 7, 4096] {
                let got = map_reduce_chunks(
                    n,
                    chunk,
                    |lo, hi| (hi - lo, lo * 2 + 1), // (count, witness)
                    |a, b| *a = (a.0 + b.0, a.1.min(b.1)),
                )
                .unwrap();
                assert_eq!(got.0, n, "n={n} chunk={chunk}");
                assert_eq!(got.1, 1, "first chunk must start at row 0");
            }
        }
    }

    #[test]
    fn zero_chunk_rows_is_clamped() {
        let got = map_reduce_chunks(3, 0, |lo, hi| hi - lo, |a, b| *a += b).unwrap();
        assert_eq!(got, 3);
    }

    #[test]
    fn counter_merge_is_bit_identical_to_tree_reduce() {
        // The load-bearing equivalence behind streaming bit-identity: for
        // every chunk count, the incremental binary-counter merge must
        // reproduce the round-based pairwise reduction's floating-point
        // grouping exactly.
        let merge = |a: &mut f64, b: f64| *a += b;
        for m in 0usize..=260 {
            let parts: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin() / 3.0).collect();
            let reference = tree_reduce(parts.clone(), merge);
            let mut counter = TreeCounter::new();
            for p in parts {
                counter.push(p, &merge);
            }
            let streamed = counter.finish(&merge);
            match (streamed, reference) {
                (None, None) => assert_eq!(m, 0),
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "m={m}: {a} vs {b}");
                }
                other => panic!("m={m}: {other:?}"),
            }
        }
    }

    /// Greedy aligned-dyadic segmentation of the chunk range `[c, c+m)`:
    /// each segment's length is the largest power of two that both
    /// divides its start chunk and fits the remaining range — the
    /// decomposition a federated client uses so its pre-merged runs
    /// replay onto the global counter without regrouping any sum.
    fn dyadic_segments(mut c: usize, mut m: usize) -> Vec<(usize, u32)> {
        let mut segs = Vec::new();
        while m > 0 {
            let align = if c == 0 {
                usize::MAX
            } else {
                1usize << c.trailing_zeros()
            };
            let mut len = 1usize;
            while len * 2 <= m && len * 2 <= align {
                len *= 2;
            }
            segs.push((c, len.trailing_zeros()));
            c += len;
            m -= len;
        }
        segs
    }

    #[test]
    fn run_replay_is_bit_identical_to_sequential_counter() {
        // The load-bearing federated equivalence: splitting the chunk
        // stream at arbitrary chunk boundaries, pre-merging each side's
        // aligned dyadic segments locally, and replaying the runs through
        // push_run reproduces the sequential counter's floating-point
        // grouping exactly — for every chunk count and every split point.
        let merge = |a: &mut f64, b: f64| *a += b;
        for m in 1usize..=80 {
            let parts: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin() / 3.0).collect();
            let mut seq = TreeCounter::new();
            for &p in &parts {
                seq.push(p, &merge);
            }
            let reference = seq.finish(&merge).unwrap();
            for split in 0..=m {
                let mut replay = TreeCounter::new();
                for (range_lo, range_hi) in [(0usize, split), (split, m)] {
                    for (c, rank) in dyadic_segments(range_lo, range_hi - range_lo) {
                        // A client pre-merges the segment with its own
                        // local counter; a 2^rank-chunk segment collapses
                        // to exactly one stack entry at that rank.
                        let mut seg = TreeCounter::new();
                        for &p in &parts[c..c + (1usize << rank)] {
                            seg.push(p, &merge);
                        }
                        assert_eq!(seg.stack.len(), 1);
                        let (r, part) = seg.stack.pop().unwrap();
                        assert_eq!(r, rank);
                        replay.push_run(rank, part, &merge);
                    }
                }
                let replayed = replay.finish(&merge).unwrap();
                assert_eq!(
                    replayed.to_bits(),
                    reference.to_bits(),
                    "m={m} split={split}"
                );
            }
        }
    }

    #[test]
    fn accumulator_push_run_refuses_structural_violations() {
        use crate::linreg::LinearObjective;
        let d = 2;
        let chunk = 4;
        let rows_for = |n: usize| {
            let xs: Vec<f64> = (0..n * d).map(|i| ((i as f64) * 0.3).sin() * 0.1).collect();
            let ys: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.2).cos() * 0.5).collect();
            (xs, ys)
        };
        let part = QuadraticForm::zero(d);

        // Dimension mismatch.
        let mut acc = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, chunk);
        assert!(acc.push_run(0, QuadraticForm::zero(d + 1)).is_err());

        // Mid-chunk staged rows refuse any run.
        let (xs, ys) = rows_for(3);
        acc.push_rows(&xs, &ys).unwrap();
        assert!(acc.push_run(0, part.clone()).is_err());

        // Unaligned run: one chunk absorbed, then a rank-1 (2-chunk) run
        // would merge across a grouping boundary.
        let mut acc = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, chunk);
        let (xs, ys) = rows_for(chunk);
        acc.push_rows(&xs, &ys).unwrap();
        assert_eq!(acc.chunks(), 1);
        assert!(acc.push_run(1, part.clone()).is_err());
        // An aligned rank-0 run at the same position is fine.
        acc.push_run(0, part.clone()).unwrap();
        assert_eq!(acc.chunks(), 2);
        assert_eq!(acc.rows(), 2 * chunk);

        // Rank overflow.
        let mut acc = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, chunk);
        assert!(acc.push_run(usize::BITS, part).is_err());
    }

    #[test]
    fn accumulator_run_replay_matches_single_machine_assembly() {
        use crate::linreg::LinearObjective;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(406);
        let chunk = 8;
        // 13 full chunks plus a ragged tail — the case where greedy
        // balanced splits go wrong and dyadic segmentation is required.
        let n = 13 * chunk + 5;
        let data = fm_data::synth::linear_dataset(&mut rng, n, 3, 0.1);
        let d = data.d();
        let xs = data.x().as_slice();
        let ys = data.y();
        let reference = assemble_with_chunk_rows(&LinearObjective, &data, chunk);

        for split_chunk in [0usize, 1, 5, 8, 13] {
            // Each "client" accumulates its contiguous chunk range as
            // aligned dyadic segments; the final client also stages the
            // ragged tail rows.
            let mut coord = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, chunk);
            let ranges = [(0usize, split_chunk), (split_chunk, 13)];
            for (i, &(lo_c, hi_c)) in ranges.iter().enumerate() {
                for (c, rank) in dyadic_segments(lo_c, hi_c - lo_c) {
                    let seg_rows = (1usize << rank) * chunk;
                    let lo = c * chunk;
                    let mut seg =
                        CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, chunk);
                    seg.push_rows(&xs[lo * d..(lo + seg_rows) * d], &ys[lo..lo + seg_rows])
                        .unwrap();
                    let mut runs = seg.partial_runs().to_vec();
                    assert_eq!(runs.len(), 1, "2^{rank} chunks collapse to one run");
                    let (r, part) = runs.pop().unwrap();
                    assert_eq!(r, rank);
                    coord.push_run(r, part).unwrap();
                }
                if i == 1 {
                    // Ragged tail rows travel as raw staged rows.
                    coord
                        .push_rows(&xs[13 * chunk * d..], &ys[13 * chunk..])
                        .unwrap();
                }
            }
            assert_eq!(coord.rows(), n);
            let merged = coord.finish().unwrap();
            assert_eq!(merged, reference, "split at chunk {split_chunk}");
        }
    }

    #[test]
    fn chunk_stage_reproduces_fixed_chunk_boundaries() {
        // Whatever block split feeds the stage, flushed chunks must be the
        // [c·chunk, (c+1)·chunk) ranges of the concatenation.
        let d = 2;
        let n = 23;
        let xs: Vec<f64> = (0..n * d).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
        for chunk in [1usize, 4, 7, 23, 64] {
            for split in [vec![n], vec![1; n], vec![5, 1, 9, 8], vec![10, 13]] {
                let mut stage = ChunkStage::new(d, chunk);
                let mut got: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
                let mut pos = 0usize;
                for take in split {
                    let hi = (pos + take).min(n);
                    stage.push(&xs[pos * d..hi * d], &ys[pos..hi], |chunks| {
                        got.extend(chunks.iter().map(|(cx, cy)| (cx.to_vec(), cy.to_vec())));
                    });
                    pos = hi;
                }
                stage.finish(&mut |cx, cy| got.push((cx.to_vec(), cy.to_vec())));
                let expected: Vec<(Vec<f64>, Vec<f64>)> = (0..n.div_ceil(chunk))
                    .map(|c| {
                        let lo = c * chunk;
                        let hi = ((c + 1) * chunk).min(n);
                        (xs[lo * d..hi * d].to_vec(), ys[lo..hi].to_vec())
                    })
                    .collect();
                assert_eq!(got, expected, "chunk={chunk}");
            }
        }
    }

    #[test]
    fn accumulator_is_bit_identical_to_batched_assembly() {
        use crate::linreg::LinearObjective;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        let data = fm_data::synth::linear_dataset(&mut rng, 1_500, 3, 0.1);
        let d = data.d();
        let xs = data.x().as_slice();
        let ys = data.y();
        for chunk in [64usize, 257, 4096] {
            let reference = assemble_with_chunk_rows(&LinearObjective, &data, chunk);
            // Feed the same rows in awkward block sizes.
            for block in [1usize, 37, 64, 500, 1_500] {
                let mut acc = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, chunk);
                let mut pos = 0usize;
                while pos < data.n() {
                    let hi = (pos + block).min(data.n());
                    acc.push_rows(&xs[pos * d..hi * d], &ys[pos..hi]).unwrap();
                    pos = hi;
                }
                assert_eq!(acc.rows(), data.n());
                let streamed = acc.finish().expect("rows were absorbed");
                assert_eq!(streamed, reference, "chunk={chunk} block={block}");
            }
        }
        // Empty accumulator yields nothing.
        assert!(CoefficientAccumulator::new(&LinearObjective, d)
            .finish()
            .is_none());
    }

    #[test]
    fn accumulator_absorbs_sources_and_validates() {
        use crate::linreg::LinearObjective;
        use fm_data::stream::InMemorySource;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(405);
        let data = fm_data::synth::linear_dataset(&mut rng, 300, 2, 0.1);
        let mut acc = CoefficientAccumulator::new(&LinearObjective, 2);
        let absorbed = acc.absorb(&mut InMemorySource::new(&data)).unwrap();
        assert_eq!(absorbed, 300);
        let streamed = acc.finish().unwrap();
        assert_eq!(streamed, assemble(&LinearObjective, &data));

        // Contract violations surface as data errors.
        let bad = fm_data::Dataset::new(
            fm_linalg::Matrix::from_rows(&[&[3.0, 0.0]]).unwrap(),
            vec![0.5],
        )
        .unwrap();
        let mut acc = CoefficientAccumulator::new(&LinearObjective, 2);
        assert!(matches!(
            acc.absorb(&mut InMemorySource::new(&bad)),
            Err(FmError::Data(_))
        ));

        // Arity mismatches are refused up front.
        let mut acc = CoefficientAccumulator::new(&LinearObjective, 3);
        assert!(acc.absorb(&mut InMemorySource::new(&data)).is_err());
        assert!(acc.push_rows(&[0.1, 0.2], &[0.5]).is_err());
    }
}
