//! Streaming row ingestion: [`RowSource`] and friends.
//!
//! The Functional Mechanism's only interaction with data is the one-pass
//! accumulation of polynomial coefficients (Algorithm 1) — a sum over
//! tuples that never needs the dataset in memory. This module provides the
//! ingestion surface that matches that shape: a [`RowSource`] yields the
//! logical dataset as a sequence of bounded [`RowBlock`]s, so a fit can
//! run out-of-core (CSV files larger than RAM via [`CsvStreamSource`]),
//! across shards ([`ShardedSource`], or shard-at-a-time through the
//! estimators' `partial_fit` API in `fm-core`), or over a plain
//! materialized [`Dataset`] ([`InMemorySource`]) — all through one trait.
//!
//! Sources are *transport*, not semantics: the chunking a source happens
//! to deliver never influences results. `fm-core`'s streaming accumulator
//! re-chunks every stream to its own fixed chunk size, so the released
//! coefficients are bit-identical for any block sizing or shard split (the
//! facade's `tests/streaming_equivalence.rs` pins this).
//!
//! ## Zero-copy ingestion
//!
//! [`RowSource`] has two data paths:
//!
//! * [`RowSource::next_block`] yields **owned** [`RowBlock`]s — the
//!   simple, dyn-compatible pull API every source must implement;
//! * [`RowSource::for_each_block`] drains the source through a visitor
//!   that receives **borrowed** [`RowBlockRef`]s, one
//!   [`RowSource::lend_block`] step at a time by default. Both default to
//!   wrapping `next_block`, but sources with a stable backing store
//!   override them to hand out views with no per-block allocation or
//!   copy: [`InMemorySource`] lends slices of the backing [`Dataset`]
//!   directly, [`CsvStreamSource`] and [`InterceptAugmentSource`]
//!   parse/augment into buffers reused across blocks, and
//!   [`ShardedSource`] and [`ProvenancedSource`] forward both paths of
//!   what they wrap, [`TakeRows`] its `lend_block`.
//!
//! `fm-core`'s accumulators drain sources through the visitor, which is
//! what lets in-memory data fitted *through the streaming entry points*
//! (CV folds, `fit_in_session`, `fit_stream`) run at batched-kernel speed
//! instead of paying one block copy per chunk. A source whose visitor
//! lends views into stable storage says so through
//! [`RowSource::zero_copy`]; the accumulator then asks it for windows of
//! many chunks per block and maps their chunks across cores, while
//! copying sources keep one chunk per block as their memory cap. Every
//! path feeds the same fixed re-chunking stage, so which one a source
//! takes can never perturb released coefficients.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use fm_linalg::Matrix;

use crate::dataset::{check_shape, Dataset};
use crate::normalize::Normalizer;
use crate::{DataError, Result};

/// A bounded, owned block of rows: the unit a [`RowSource`] yields.
///
/// `xs` is a row-major `rows × d` feature block, `ys` the matching labels.
/// Blocks are plain data — validation against an objective's normalized-
/// domain contract happens where they are consumed (see
/// `fm_data::dataset::check_rows_normalized_linear` and friends).
#[derive(Debug, Clone, PartialEq)]
pub struct RowBlock {
    xs: Vec<f64>,
    ys: Vec<f64>,
    d: usize,
}

impl RowBlock {
    /// Builds a block from a row-major feature buffer and labels.
    ///
    /// # Errors
    /// * [`DataError::InvalidParameter`] for `d = 0`.
    /// * [`DataError::LengthMismatch`] unless `xs.len() == ys.len()·d`.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, d: usize) -> Result<Self> {
        check_shape(&xs, &ys, d)?;
        Ok(RowBlock { xs, ys, d })
    }

    /// The row-major `rows × d` feature buffer.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The labels, one per row.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The feature dimensionality `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of rows in this block.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ys.len()
    }

    /// A borrowed view of this block.
    #[must_use]
    pub fn as_ref(&self) -> RowBlockRef<'_> {
        RowBlockRef {
            xs: &self.xs,
            ys: &self.ys,
            d: self.d,
        }
    }

    /// The footnote-2 intercept augmentation of this block: each row maps
    /// to `(x/√2, 1/√2)` at dimension `d + 1`, operation-for-operation the
    /// same arithmetic as [`Dataset::augment_for_intercept`], so a
    /// streamed fit with an intercept stays **bit-identical** to the
    /// in-memory one.
    #[must_use]
    pub fn augment_for_intercept(&self) -> RowBlock {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let d = self.d;
        let mut xs = Vec::with_capacity(self.rows() * (d + 1));
        for row in self.xs.chunks_exact(d) {
            for &v in row {
                xs.push(v * inv_sqrt2);
            }
            xs.push(inv_sqrt2);
        }
        RowBlock {
            xs,
            ys: self.ys.clone(),
            d: d + 1,
        }
    }
}

/// A borrowed, row-major view of a block of rows — the zero-copy unit of
/// the [`RowSource::for_each_block`] visitor path. Same shape contract as
/// [`RowBlock`], but the buffers belong to the source (or its backing
/// store) and are only valid for the duration of one visit.
#[derive(Debug, Clone, Copy)]
pub struct RowBlockRef<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    d: usize,
}

impl<'a> RowBlockRef<'a> {
    /// Builds a borrowed block view over a row-major feature slice and
    /// matching labels.
    ///
    /// # Errors
    /// * [`DataError::InvalidParameter`] for `d = 0`.
    /// * [`DataError::LengthMismatch`] unless `xs.len() == ys.len()·d`.
    pub fn new(xs: &'a [f64], ys: &'a [f64], d: usize) -> Result<Self> {
        check_shape(xs, ys, d)?;
        Ok(RowBlockRef { xs, ys, d })
    }

    /// The row-major `rows × d` feature slice.
    #[must_use]
    pub fn xs(&self) -> &'a [f64] {
        self.xs
    }

    /// The labels, one per row.
    #[must_use]
    pub fn ys(&self) -> &'a [f64] {
        self.ys
    }

    /// The feature dimensionality `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of rows in this view.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ys.len()
    }

    /// Copies this view into an owned [`RowBlock`].
    #[must_use]
    pub fn to_owned(&self) -> RowBlock {
        RowBlock {
            xs: self.xs.to_vec(),
            ys: self.ys.to_vec(),
            d: self.d,
        }
    }
}

/// The visitor type [`RowSource::for_each_block`] drives: receives each
/// remaining block as a borrowed view; returning an error stops the drain.
pub type BlockVisitor<'v> = dyn FnMut(RowBlockRef<'_>) -> Result<()> + 'v;

/// An iterator-of-chunks over a logical dataset: the streaming ingestion
/// trait every fit entry point can consume.
///
/// Contract for implementors:
///
/// * [`RowSource::next_block`] yields **at most** `max_rows` rows per call
///   (callers size their staging buffers by it — for every source that
///   is not [`RowSource::zero_copy`] this is the out-of-core memory cap),
///   never an empty block, and `None` exactly once the source is
///   exhausted;
/// * every yielded block has dimensionality [`RowSource::dim`];
/// * the concatenation of all yielded blocks, in order, is the logical
///   dataset;
/// * [`RowSource::for_each_block`], when overridden, must visit exactly
///   the rows `next_block` would have yielded, in the same order, under
///   the same `max_rows` cap — it is an alternative *transport*, never an
///   alternative semantics.
/// * [`RowSource::lend_block`], when overridden, must lend exactly the
///   next block `next_block` would have yielded.
/// * [`RowSource::zero_copy`] may return `true` only when
///   `for_each_block` and `lend_block` both lend views into storage that
///   outlives the drain, so that asking for more rows per block
///   allocates and copies nothing.
///
/// The trait is dyn-compatible: `&mut dyn RowSource` is what the
/// estimator-level `fit_stream` entry points accept.
pub trait RowSource {
    /// Feature dimensionality `d` of every block this source yields.
    fn dim(&self) -> usize;

    /// Exact number of rows still to come, when the source knows it
    /// (in-memory and sharded-in-memory sources do; a CSV stream does
    /// not). Purely advisory.
    fn hint_rows(&self) -> Option<usize> {
        None
    }

    /// Yields the next block of at most `max_rows.max(1)` rows, or `None`
    /// once exhausted.
    ///
    /// # Errors
    /// Transport errors — I/O, parse failures — as [`DataError`].
    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>>;

    /// Hands over the **entire remaining** logical dataset as a borrowed,
    /// materialized [`Dataset`] — when this source is nothing but a
    /// fully-unconsumed in-memory dataset — marking the source exhausted
    /// in the same call. Consumers with a random-access fast path (cached
    /// columnar transposes, in-place chunking) use this to skip streaming
    /// transport altogether; since `fm-core`'s accumulator chunks the
    /// handed-over dataset on exactly the grid it would have re-chunked
    /// the stream to, results are **bit-identical** either way.
    ///
    /// The default returns `None` (stream normally). Only sources whose
    /// remaining rows *are* a materialized dataset may return it — and only
    /// while still at their first row. An adapter may satisfy that by
    /// materializing its transformation at handoff time
    /// ([`InterceptAugmentSource`] hands over the inner dataset's cached
    /// augmentation); adapters that cannot (shard concatenation) return
    /// `None` and stream.
    fn take_dataset(&mut self) -> Option<&Dataset> {
        None
    }

    /// Lends the next block of at most `max_rows.max(1)` rows to `f` as a
    /// **borrowed** [`RowBlockRef`] and returns `Ok(true)`, or returns
    /// `Ok(false)` once exhausted: one step of
    /// [`RowSource::for_each_block`], for a consumer that must stop
    /// between blocks ([`TakeRows`] stops at its row cap this way).
    ///
    /// The default pulls one owned block from [`RowSource::next_block`]
    /// and lends it; sources backed by stable storage override it to
    /// lend a view with no copy. It must lend exactly the block
    /// `next_block` would have yielded.
    ///
    /// # Errors
    /// Transport errors from the source, or the error `f` returns.
    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        match self.next_block(max_rows)? {
            Some(block) => f(block.as_ref()).map(|()| true),
            None => Ok(false),
        }
    }

    /// Drains the remaining rows through `f` as **borrowed**
    /// [`RowBlockRef`]s of at most `max_rows.max(1)` rows each — the
    /// zero-copy fast path of the streaming pipeline.
    ///
    /// The default lends block after block through
    /// [`RowSource::lend_block`], so every implementor gets the visitor
    /// for free and a source that lends views without a copy drains
    /// without one; sources that reuse buffers across blocks override it
    /// (see the module docs). After an `Ok(())` return the source is
    /// exhausted; if `f` returns an error the drain stops immediately and
    /// the error propagates (how many rows were consumed at that point is
    /// source-specific).
    ///
    /// # Errors
    /// Transport errors from the source, or the first error `f` returns.
    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        while self.lend_block(max_rows, f)? {}
        Ok(())
    }

    /// Whether [`RowSource::for_each_block`] lends views into stable
    /// storage, so a larger `max_rows` costs no memory. A consumer may
    /// then ask such a source for blocks many chunks long — `fm-core`'s
    /// accumulator maps a window of chunks across cores per block —
    /// while every other source keeps `max_rows` as its memory cap.
    ///
    /// The default is `false`. [`InMemorySource`] is zero-copy, and so
    /// are a [`ShardedSource`] whose shards all are and a [`TakeRows`] or
    /// [`ProvenancedSource`] over a zero-copy source; sources that parse,
    /// copy or transform rows ([`CsvStreamSource`],
    /// [`InterceptAugmentSource`], the prefetch and queue sources) are
    /// not.
    fn zero_copy(&self) -> bool {
        false
    }
}

impl<S: RowSource + ?Sized> RowSource for &mut S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn zero_copy(&self) -> bool {
        (**self).zero_copy()
    }
    fn hint_rows(&self) -> Option<usize> {
        (**self).hint_rows()
    }
    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        (**self).next_block(max_rows)
    }
    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        (**self).lend_block(max_rows, f)
    }
    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        (**self).for_each_block(max_rows, f)
    }
    fn take_dataset(&mut self) -> Option<&Dataset> {
        (**self).take_dataset()
    }
}

impl<S: RowSource + ?Sized> RowSource for Box<S> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn zero_copy(&self) -> bool {
        (**self).zero_copy()
    }
    fn hint_rows(&self) -> Option<usize> {
        (**self).hint_rows()
    }
    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        (**self).next_block(max_rows)
    }
    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        (**self).lend_block(max_rows, f)
    }
    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        (**self).for_each_block(max_rows, f)
    }
    fn take_dataset(&mut self) -> Option<&Dataset> {
        (**self).take_dataset()
    }
}

/// A [`RowSource`] over a materialized [`Dataset`]: the adapter that makes
/// `fit(&Dataset)` a special case of `fit_stream`.
///
/// The visitor path ([`RowSource::for_each_block`]) lends slices of the
/// backing dataset directly — **zero copies, zero allocations** — so
/// in-memory data dispatched through the streaming entry points (CV
/// folds, `PrivacySession::fit_stream`, the bench harness) assembles at
/// the same rate as a direct `fit()`.
#[derive(Debug)]
pub struct InMemorySource<'a> {
    data: &'a Dataset,
    pos: usize,
}

impl<'a> InMemorySource<'a> {
    /// Streams `data` from its first row.
    #[must_use]
    pub fn new(data: &'a Dataset) -> Self {
        InMemorySource { data, pos: 0 }
    }

    /// Rewinds to the first row (sources are single-pass; reuse needs an
    /// explicit reset).
    pub fn reset(&mut self) {
        self.pos = 0;
    }
}

impl RowSource for InMemorySource<'_> {
    fn dim(&self) -> usize {
        self.data.d()
    }

    fn hint_rows(&self) -> Option<usize> {
        Some(self.data.n() - self.pos)
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        let n = self.data.n();
        if self.pos >= n {
            return Ok(None);
        }
        let d = self.data.d();
        let hi = (self.pos + max_rows.max(1)).min(n);
        let xs = self.data.x().as_slice()[self.pos * d..hi * d].to_vec();
        let ys = self.data.y()[self.pos..hi].to_vec();
        self.pos = hi;
        Ok(Some(RowBlock { xs, ys, d }))
    }

    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        let n = self.data.n();
        if self.pos >= n {
            return Ok(false);
        }
        let d = self.data.d();
        let (lo, hi) = (self.pos, (self.pos + max_rows.max(1)).min(n));
        // Advance before the visit so an error from `f` leaves the cursor
        // past the rows it already saw.
        self.pos = hi;
        f(RowBlockRef {
            xs: &self.data.x().as_slice()[lo * d..hi * d],
            ys: &self.data.y()[lo..hi],
            d,
        })
        .map(|()| true)
    }

    fn take_dataset(&mut self) -> Option<&Dataset> {
        if self.pos == 0 {
            self.pos = self.data.n();
            Some(self.data)
        } else {
            None
        }
    }

    fn zero_copy(&self) -> bool {
        true
    }
}

/// How [`CsvStreamSource`] maps the raw label column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LabelTransform {
    /// Pass the parsed label through unchanged.
    Raw,
    /// The Definition-1 affine map of the label domain onto `[−1, 1]`
    /// (requires a [`Normalizer`]).
    Linear,
    /// Threshold into `{0, 1}` at the given raw-unit cutoff (Definition 2).
    Binarize {
        /// Labels strictly above this raw value become `1.0`.
        threshold: f64,
    },
}

impl LabelTransform {
    /// Maps one raw label, with the label bounds of `norm`.
    fn apply(self, norm: &Normalizer, y_raw: f64) -> f64 {
        match self {
            LabelTransform::Raw => y_raw,
            LabelTransform::Linear => norm.normalize_label(y_raw),
            LabelTransform::Binarize { threshold } => {
                if y_raw > threshold {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// The value of one selected CSV field, or why it has none. A NaN or an
/// infinity would pass the normalizer's clamp and break the row contract
/// later, so a field that parses to one is refused like text.
fn field_value(v: &str) -> std::result::Result<f64, &'static str> {
    match v.trim().parse::<f64>() {
        Ok(parsed) if parsed.is_finite() => Ok(parsed),
        Ok(_) => Err("is not a finite number"),
        Err(_) => Err("is not a number"),
    }
}

/// Parses one data line of the default dialect (`row.len()` feature
/// fields, then the label) into `row` and returns the label. `lineno` is
/// the 1-based file line for error reporting; after an error `row` holds
/// whatever was parsed before it.
fn parse_numeric_row(line: &str, lineno: usize, row: &mut [f64]) -> Result<f64> {
    // Single pass: parse while counting, so no line is scanned twice.
    let d = row.len();
    let mut label = 0.0;
    let mut fields = 0usize;
    let mut it = line.split(',');
    for v in it.by_ref() {
        if fields == d + 1 {
            let total = fields + 1 + it.count();
            return Err(DataError::Parse {
                line: lineno,
                detail: format!("expected {} fields, found {total}", d + 1),
            });
        }
        let parsed = field_value(v).map_err(|reason| DataError::Parse {
            line: lineno,
            detail: format!("`{v}` {reason}"),
        })?;
        if fields < d {
            row[fields] = parsed;
        } else {
            label = parsed;
        }
        fields += 1;
    }
    if fields != d + 1 {
        return Err(DataError::Parse {
            line: lineno,
            detail: format!("expected {} fields, found {fields}", d + 1),
        });
    }
    Ok(label)
}

/// What a raw CSV field position contributes to the mapped row.
#[derive(Debug, Clone, Copy)]
enum ColumnRole {
    /// Feature column, landing at this output slot.
    Feature(usize),
    /// The label column.
    Label,
    /// Present in the file, not selected: skipped without parsing (so
    /// foreign CSVs may carry non-numeric columns alongside the data).
    Skip,
}

/// A header-driven column mapping (see
/// [`CsvStreamSource::select_columns`]): which raw field feeds which
/// output slot.
#[derive(Debug, Clone)]
struct ColumnMap {
    /// One role per raw CSV field position.
    roles: Vec<ColumnRole>,
}

impl ColumnMap {
    /// Parses one data line under this mapping: selected features land in
    /// `row` (output order), the label is returned, unselected fields are
    /// skipped without parsing.
    fn parse_row(&self, line: &str, lineno: usize, row: &mut [f64]) -> Result<f64> {
        let mut label = 0.0;
        let mut fields = 0usize;
        for v in line.split(',') {
            if fields == self.roles.len() {
                return Err(DataError::Parse {
                    line: lineno,
                    detail: format!(
                        "expected {} fields, found {}",
                        self.roles.len(),
                        line.split(',').count()
                    ),
                });
            }
            let role = self.roles[fields];
            if !matches!(role, ColumnRole::Skip) {
                let parsed = field_value(v).map_err(|reason| DataError::Parse {
                    line: lineno,
                    detail: format!("field {}: `{v}` {reason}", fields + 1),
                })?;
                match role {
                    ColumnRole::Feature(slot) => row[slot] = parsed,
                    ColumnRole::Label => label = parsed,
                    ColumnRole::Skip => unreachable!("skip handled above"),
                }
            }
            fields += 1;
        }
        if fields != self.roles.len() {
            return Err(DataError::Parse {
                line: lineno,
                detail: format!("expected {} fields, found {fields}", self.roles.len()),
            });
        }
        Ok(label)
    }
}

/// Most lines one parse window holds, so the byte window stays bounded
/// whatever `max_rows` a caller asks for; a larger block takes several
/// windows.
const WINDOW_LINES: usize = 8_192;

/// Fewest lines a parse range holds. A window shorter than two ranges is
/// parsed on the calling thread, so small blocks spawn no thread: a
/// spawned range must parse long enough to repay the thread the vendored
/// rayon starts for it. Draining a 370,000-line census CSV (d = 13) on a
/// 2-vCPU x86 host, blocks split into two ranges of 512 lines parsed no
/// faster than whole (232 vs 226 ms a drain), two of 1,024 gained 13%
/// (193 vs 222 ms) and two of 2,048 gained 23% (177 vs 230 ms).
#[cfg(feature = "parallel")]
const MIN_RANGE_LINES: usize = 1_024;

/// One data line in the parse window: its bytes (line ending stripped)
/// and its 1-based line number.
#[derive(Debug, Clone, Copy)]
struct WindowLine {
    start: usize,
    end: usize,
    no: usize,
}

/// The lines a [`CsvStreamSource`] has read but not yet consumed: data
/// lines only (blank ones are counted and dropped), back to back in one
/// byte buffer reused across blocks.
#[derive(Debug, Default)]
struct LineWindow {
    bytes: Vec<u8>,
    lines: Vec<WindowLine>,
    /// Index of the first line not yet consumed.
    next: usize,
    /// A reader error met while filling, reported once every line read
    /// before it is consumed.
    error: Option<io::Error>,
}

impl LineWindow {
    /// The lines read but not yet consumed.
    fn pending(&self) -> &[WindowLine] {
        &self.lines[self.next..]
    }

    /// Drops the consumed lines, then reads until `need` lines are
    /// pending, the reader is exhausted or it fails. `line_no` counts
    /// every line read, blank or not.
    fn fill<R: Read>(&mut self, reader: &mut BufReader<R>, line_no: &mut usize, need: usize) {
        let kept_from = self
            .lines
            .get(self.next)
            .map_or(self.bytes.len(), |l| l.start);
        self.bytes.drain(..kept_from);
        self.lines.drain(..self.next);
        for line in &mut self.lines {
            line.start -= kept_from;
            line.end -= kept_from;
        }
        self.next = 0;
        while self.lines.len() < need && self.error.is_none() {
            let start = self.bytes.len();
            match reader.read_until(b'\n', &mut self.bytes) {
                Ok(0) => break,
                Ok(_) => *line_no += 1,
                Err(e) => {
                    // `BufRead::lines` drops a line its reader fails in.
                    self.bytes.truncate(start);
                    self.error = Some(e);
                    break;
                }
            }
            strip_line_ending(&mut self.bytes, start);
            if is_blank(&self.bytes[start..]) {
                self.bytes.truncate(start);
            } else {
                self.lines.push(WindowLine {
                    start,
                    end: self.bytes.len(),
                    no: *line_no,
                });
            }
        }
    }
}

/// Strips what `BufRead::lines` strips from the line that starts at
/// `start`: a `\n`, then one `\r` before it.
fn strip_line_ending(bytes: &mut Vec<u8>, start: usize) {
    if bytes.len() > start && bytes.last() == Some(&b'\n') {
        bytes.pop();
        if bytes.len() > start && bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
    }
}

/// Whether a line is empty or whitespace as `str::trim` sees it. Only a
/// line whose first non-blank byte is not ASCII is decoded to decide.
fn is_blank(line: &[u8]) -> bool {
    match line.iter().find(|b| !matches!(b, b'\t'..=b'\r' | b' ')) {
        None => true,
        Some(b) if b.is_ascii() => false,
        Some(_) => std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty()),
    }
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn invalid_utf8() -> DataError {
    DataError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// A parsed line that yields no row: its index in the window batch and
/// why.
type FailedLine = (usize, DataError);

/// The per-line parse, shared read-only by the ranges of a window.
#[derive(Clone, Copy)]
struct LineParser<'a> {
    d: usize,
    map: Option<&'a ColumnMap>,
    normalizer: Option<&'a (Normalizer, LabelTransform)>,
}

impl LineParser<'_> {
    /// Parses one line into `row` and returns its label: UTF-8 decoding,
    /// the field parse, then the normalizer.
    fn parse(&self, bytes: &[u8], lineno: usize, row: &mut [f64]) -> Result<f64> {
        let line = std::str::from_utf8(bytes).map_err(|_| invalid_utf8())?;
        let y = match self.map {
            None => parse_numeric_row(line, lineno, row)?,
            Some(map) => map.parse_row(line, lineno, row)?,
        };
        match self.normalizer {
            None => Ok(y),
            Some((norm, label)) => {
                norm.normalize_features_in_place(row)?;
                Ok(label.apply(norm, y))
            }
        }
    }

    /// Parses `lines` into the rows of `xs`/`ys` and returns the failed
    /// ones, numbered from `offset`, in order. It stops after `budget`
    /// failures or at a line that is not UTF-8: resolving the failures in
    /// file order aborts there at the latest.
    fn parse_range(
        &self,
        bytes: &[u8],
        lines: &[WindowLine],
        xs: &mut [f64],
        ys: &mut [f64],
        budget: usize,
        offset: usize,
    ) -> Vec<FailedLine> {
        let mut failed = Vec::new();
        let rows = xs.chunks_exact_mut(self.d).zip(ys);
        for (i, (line, (row, y))) in lines.iter().zip(rows).enumerate() {
            match self.parse(&bytes[line.start..line.end], line.no, row) {
                Ok(label) => *y = label,
                Err(e) => {
                    let aborts = matches!(e, DataError::Io(_));
                    failed.push((offset + i, e));
                    if aborts || failed.len() == budget {
                        break;
                    }
                }
            }
        }
        failed
    }

    /// Parses a batch of lines into the rows of `xs`/`ys` and returns the
    /// failed lines in file order. Under the `parallel` feature a batch of
    /// at least two `MIN_RANGE_LINES` is cut into contiguous ranges, at
    /// most one per worker, mapped in order on rayon.
    fn parse_lines(
        &self,
        bytes: &[u8],
        lines: &[WindowLine],
        xs: &mut [f64],
        ys: &mut [f64],
        budget: usize,
    ) -> Vec<FailedLine> {
        #[cfg(feature = "parallel")]
        {
            let ranges = (lines.len() / MIN_RANGE_LINES).min(rayon::current_num_threads());
            if ranges > 1 {
                use rayon::prelude::*;
                let len = lines.len().div_ceil(ranges);
                let work: Vec<_> = lines
                    .chunks(len)
                    .zip(xs.chunks_mut(len * self.d))
                    .zip(ys.chunks_mut(len))
                    .enumerate()
                    .collect();
                let failed: Vec<Vec<FailedLine>> = work
                    .into_par_iter()
                    .map(|(r, ((lines, xs), ys))| {
                        self.parse_range(bytes, lines, xs, ys, budget, r * len)
                    })
                    .collect();
                return failed.into_iter().flatten().collect();
            }
        }
        self.parse_range(bytes, lines, xs, ys, budget, 0)
    }
}

/// Moves the block rows `rows` down to start at row `to`.
fn close_up(xs: &mut [f64], ys: &mut [f64], d: usize, rows: std::ops::Range<usize>, to: usize) {
    if to != rows.start {
        xs.copy_within(rows.start * d..rows.end * d, to * d);
        ys.copy_within(rows, to);
    }
}

/// A [`RowSource`] that reads, normalizes and clamps rows straight out of
/// a numeric CSV (same dialect as [`crate::csv::read_dataset`]: one header
/// row, label last) **without materializing the file** — the out-of-core
/// entry point. Peak memory is one [`RowBlock`] of the caller's requested
/// size plus its byte window (the text of the block's lines, at most
/// 8,192 of them), whatever the file size; the visitor path
/// ([`RowSource::for_each_block`]) reuses the block buffers and the window
/// across blocks, so a whole-file drain allocates no rows or text per
/// block.
///
/// Each block's lines are read on the calling thread, then parsed in
/// contiguous ranges — across cores under the `parallel` feature, for
/// blocks long enough to repay a thread. Row errors are resolved in file
/// order after the parse, so the rows, the quarantine report and the
/// error lines never depend on how the lines were split.
///
/// Foreign CSVs whose columns are named but not laid out in the expected
/// order (or that carry extra columns) can be re-keyed by header name
/// with [`CsvStreamSource::select_columns`] — no rewrite pass needed.
///
/// With a [`Normalizer`] attached ([`CsvStreamSource::with_normalizer`]),
/// each row passes through the paper's footnote-1 feature map (clamp to
/// the declared domain, then scale into the `1/√d` box) and the chosen
/// [`LabelTransform`] as it is read — arithmetic identical to the
/// materialized [`Normalizer::normalize_linear`] path, so streamed and
/// in-memory pipelines release bit-identical coefficients.
///
/// Dirty files can degrade gracefully instead of failing on the first bad
/// row: see [`CsvStreamSource::with_row_error_policy`] and the
/// [`RowErrorPolicy`] docs for the Strict / SkipUpTo semantics and the
/// quarantine report.
#[derive(Debug)]
pub struct CsvStreamSource<R> {
    reader: BufReader<R>,
    /// Lines read ahead of the parse.
    window: LineWindow,
    /// The full header, in file order (features *and* label columns).
    header: Vec<String>,
    /// Selected feature names, in output order.
    names: Vec<String>,
    d: usize,
    /// 1-based line number of the last line read (the header is line 1).
    line: usize,
    normalizer: Option<(Normalizer, LabelTransform)>,
    /// Header-driven column mapping; `None` = the default dialect (every
    /// column a feature in file order, label last).
    map: Option<ColumnMap>,
    /// Block buffers reused across blocks by the visitor path.
    block_xs: Vec<f64>,
    block_ys: Vec<f64>,
    /// What to do with rows that fail to parse or normalize.
    policy: RowErrorPolicy,
    /// Rows skipped so far under [`RowErrorPolicy::SkipUpTo`].
    quarantine: Vec<QuarantinedRow>,
}

/// What a [`CsvStreamSource`] does with a row that fails to parse or
/// normalize (a *row error*: malformed field, wrong arity, a selected
/// field that is not a finite number). Transport failures — the
/// underlying reader erroring out, a line that is not UTF-8 — are never
/// skippable; they abort the stream under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowErrorPolicy {
    /// Fail the stream on the first bad row (the default).
    #[default]
    Strict,
    /// Skip up to `n` bad rows, recording each in the quarantine report
    /// ([`CsvStreamSource::quarantine`]); the `n + 1`-th bad row fails the
    /// stream. A bounded cap keeps a systematically-corrupt file from
    /// silently degrading into an empty (or heavily biased) dataset.
    SkipUpTo(usize),
}

/// One row skipped under [`RowErrorPolicy::SkipUpTo`], for the quarantine
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line number of the skipped row (the header is line 1).
    pub line: usize,
    /// Why the row was rejected.
    pub reason: String,
}

/// Applies the row-error policy to one bad row: `Ok(())` means "skipped,
/// keep reading"; `Err` aborts the stream.
fn quarantine_row(
    policy: RowErrorPolicy,
    quarantine: &mut Vec<QuarantinedRow>,
    line: usize,
    err: DataError,
) -> Result<()> {
    match policy {
        RowErrorPolicy::Strict => Err(err),
        RowErrorPolicy::SkipUpTo(cap) => {
            if quarantine.len() < cap {
                quarantine.push(QuarantinedRow {
                    line,
                    reason: err.to_string(),
                });
                Ok(())
            } else {
                Err(DataError::Parse {
                    line,
                    detail: format!(
                        "row-error quarantine full ({cap} rows already skipped): {err}"
                    ),
                })
            }
        }
    }
}

impl CsvStreamSource<File> {
    /// Opens a CSV file for streaming.
    ///
    /// # Errors
    /// [`DataError::Io`] / [`DataError::Parse`] on open or header failure.
    pub fn open(path: &Path) -> Result<Self> {
        CsvStreamSource::from_reader(File::open(path)?)
    }
}

impl<R: Read> CsvStreamSource<R> {
    /// Streams CSV rows from any reader; the header row is consumed
    /// immediately to fix the dimensionality. A leading byte-order mark
    /// is not part of the first column's name.
    ///
    /// # Errors
    /// [`DataError::Io`] / [`DataError::Parse`] on a missing or too-narrow
    /// header.
    pub fn from_reader(r: R) -> Result<Self> {
        let mut reader = BufReader::new(r);
        let mut bytes = Vec::new();
        if reader.read_until(b'\n', &mut bytes)? == 0 {
            return Err(DataError::Parse {
                line: 1,
                detail: "empty file".to_string(),
            });
        }
        strip_line_ending(&mut bytes, 0);
        let header = std::str::from_utf8(&bytes).map_err(|_| invalid_utf8())?;
        let header = header.strip_prefix('\u{feff}').unwrap_or(header);
        let columns: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
        if columns.len() < 2 {
            return Err(DataError::Parse {
                line: 1,
                detail: "need at least one feature column and a label column".to_string(),
            });
        }
        let d = columns.len() - 1;
        Ok(CsvStreamSource {
            reader,
            window: LineWindow {
                bytes,
                ..LineWindow::default()
            },
            names: columns[..d].to_vec(),
            header: columns,
            d,
            line: 1,
            normalizer: None,
            map: None,
            block_xs: Vec::new(),
            block_ys: Vec::new(),
            policy: RowErrorPolicy::Strict,
            quarantine: Vec::new(),
        })
    }

    /// Sets the [`RowErrorPolicy`] (default: [`RowErrorPolicy::Strict`]).
    ///
    /// Under [`RowErrorPolicy::SkipUpTo`], rows that fail to parse or
    /// normalize are dropped and recorded in the quarantine report instead
    /// of failing the stream; inspect them with
    /// [`CsvStreamSource::quarantine`] after the drain.
    #[must_use]
    pub fn with_row_error_policy(mut self, policy: RowErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Rows skipped so far under [`RowErrorPolicy::SkipUpTo`], in file
    /// order. Empty under [`RowErrorPolicy::Strict`].
    #[must_use]
    pub fn quarantine(&self) -> &[QuarantinedRow] {
        &self.quarantine
    }

    /// Re-keys the stream by header name: the yielded rows carry exactly
    /// the named `features`, in the order given, labelled by the `label`
    /// column — wherever those columns sit in the file, and regardless of
    /// any extra columns (which are skipped without being parsed, so they
    /// may be non-numeric). This is what makes a foreign CSV ingestible
    /// without a rewrite pass.
    ///
    /// Must be called before any rows are read, and before
    /// [`CsvStreamSource::with_normalizer`] (the normalizer's arity is
    /// checked against the *selected* features).
    ///
    /// # Errors
    /// * [`DataError::UnknownAttribute`] when a requested column is not in
    ///   the header.
    /// * [`DataError::Parse`] when the header lists a requested column
    ///   more than once (the mapping would be ambiguous).
    /// * [`DataError::InvalidParameter`] for an empty feature list, a
    ///   feature requested twice, the label doubling as a feature, rows
    ///   already read, or a previously attached normalizer of foreign
    ///   arity.
    pub fn select_columns(mut self, features: &[&str], label: &str) -> Result<Self> {
        if self.line != 1 {
            return Err(DataError::InvalidParameter {
                name: "select_columns",
                reason: "columns must be selected before any rows are read".to_string(),
            });
        }
        if features.is_empty() {
            return Err(DataError::InvalidParameter {
                name: "features",
                reason: "need at least one feature column".to_string(),
            });
        }
        if let Some((i, dup)) = features
            .iter()
            .enumerate()
            .find(|&(i, name)| features[..i].contains(name))
            .map(|(i, name)| (i, *name))
        {
            return Err(DataError::InvalidParameter {
                name: "features",
                reason: format!("column `{dup}` requested twice (positions {i} and earlier)"),
            });
        }
        if features.contains(&label) {
            return Err(DataError::InvalidParameter {
                name: "label",
                reason: format!("`{label}` cannot be both a feature and the label"),
            });
        }
        let position_of = |want: &str| -> Result<usize> {
            let mut hits = self.header.iter().enumerate().filter(|(_, h)| *h == want);
            let Some((pos, _)) = hits.next() else {
                return Err(DataError::UnknownAttribute {
                    name: want.to_string(),
                });
            };
            if hits.next().is_some() {
                return Err(DataError::Parse {
                    line: 1,
                    detail: format!("header lists column `{want}` more than once"),
                });
            }
            Ok(pos)
        };
        let mut roles = vec![ColumnRole::Skip; self.header.len()];
        for (slot, name) in features.iter().enumerate() {
            roles[position_of(name)?] = ColumnRole::Feature(slot);
        }
        roles[position_of(label)?] = ColumnRole::Label;
        if let Some((norm, _)) = &self.normalizer {
            if norm.d() != features.len() {
                return Err(DataError::InvalidParameter {
                    name: "normalizer",
                    reason: format!(
                        "normalizer expects {} features, {} were selected",
                        norm.d(),
                        features.len()
                    ),
                });
            }
        }
        self.d = features.len();
        self.names = features.iter().map(|s| (*s).to_string()).collect();
        self.map = Some(ColumnMap { roles });
        Ok(self)
    }

    /// Attaches per-row normalization: footnote-1 feature scaling plus the
    /// chosen label transform.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when the normalizer's feature count
    /// differs from the CSV's, or [`LabelTransform::Linear`] is requested —
    /// it needs the normalizer's label bounds, which are part of it, so
    /// this can only fail on the arity.
    pub fn with_normalizer(
        mut self,
        normalizer: Normalizer,
        label: LabelTransform,
    ) -> Result<Self> {
        if normalizer.d() != self.d {
            return Err(DataError::InvalidParameter {
                name: "normalizer",
                reason: format!(
                    "normalizer expects {} features, CSV has {}",
                    normalizer.d(),
                    self.d
                ),
            });
        }
        self.normalizer = Some((normalizer, label));
        Ok(self)
    }

    /// The feature names this stream yields, in column (output) order.
    #[must_use]
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// The full CSV header, in file order — what
    /// [`CsvStreamSource::select_columns`] selects from.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Reads one block of up to `want` rows into `xs`/`ys` (appending) —
    /// the single row loop of the owned and borrowed block paths, so the
    /// two can never drift on dialect, mapping or normalization details.
    ///
    /// Each round reads the lines the block still lacks into the window
    /// on this thread and parses them into the block in ranges (see
    /// [`LineParser::parse_lines`]). It then resolves the failed lines in
    /// file order: the row-error policy skips or aborts line by line, kept
    /// rows close up over skipped ones, and a block that skips left short
    /// takes another round. An abort consumes the lines up to the failing
    /// one, so the next call resumes after it.
    fn read_block(&mut self, want: usize, xs: &mut Vec<f64>, ys: &mut Vec<f64>) -> Result<()> {
        let d = self.d;
        let parser = LineParser {
            d,
            map: self.map.as_ref(),
            normalizer: self.normalizer.as_ref(),
        };
        while ys.len() < want {
            let need = (want - ys.len()).min(WINDOW_LINES);
            self.window.fill(&mut self.reader, &mut self.line, need);
            let batch = self.window.pending().len().min(need);
            if batch == 0 {
                return self.window.error.take().map_or(Ok(()), |e| Err(e.into()));
            }
            let base = ys.len();
            xs.resize((base + batch) * d, 0.0);
            ys.resize(base + batch, 0.0);
            // Failures a range may stop after: at most this many can be
            // resolved before one aborts.
            let budget = match self.policy {
                RowErrorPolicy::Strict => 1,
                RowErrorPolicy::SkipUpTo(cap) => {
                    cap.saturating_sub(self.quarantine.len()).saturating_add(1)
                }
            };
            let lines = &self.window.pending()[..batch];
            let failed = parser.parse_lines(
                &self.window.bytes,
                lines,
                &mut xs[base * d..],
                &mut ys[base..],
                budget,
            );
            let mut kept = base;
            let mut from = 0;
            for (i, e) in failed {
                let skipped = match e {
                    DataError::Io(_) => Err(e),
                    e => quarantine_row(self.policy, &mut self.quarantine, lines[i].no, e),
                };
                if let Err(e) = skipped {
                    self.window.next += i + 1;
                    if matches!(e, DataError::Io(_)) {
                        // `BufRead::lines` does not count a line it
                        // cannot decode; neither do the numbers after it.
                        self.line -= 1;
                        for line in &mut self.window.lines[self.window.next..] {
                            line.no -= 1;
                        }
                    }
                    return Err(e);
                }
                close_up(xs, ys, d, base + from..base + i, kept);
                kept += i - from;
                from = i + 1;
            }
            close_up(xs, ys, d, base + from..base + batch, kept);
            kept += batch - from;
            xs.truncate(kept * d);
            ys.truncate(kept);
            self.window.next += batch;
        }
        Ok(())
    }

    /// The visitor loop of [`RowSource::for_each_block`], over the block
    /// buffers `xs`/`ys`.
    fn visit_blocks(
        &mut self,
        want: usize,
        xs: &mut Vec<f64>,
        ys: &mut Vec<f64>,
        f: &mut BlockVisitor<'_>,
    ) -> Result<()> {
        loop {
            xs.clear();
            ys.clear();
            self.read_block(want, xs, ys)?;
            if ys.is_empty() {
                return Ok(());
            }
            f(RowBlockRef { xs, ys, d: self.d })?;
        }
    }
}

impl<R: Read> RowSource for CsvStreamSource<R> {
    fn dim(&self) -> usize {
        self.d
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        let want = max_rows.max(1);
        let d = self.d;
        let mut xs = Vec::with_capacity(want * d);
        let mut ys = Vec::with_capacity(want);
        self.read_block(want, &mut xs, &mut ys)?;
        Ok((!ys.is_empty()).then_some(RowBlock { xs, ys, d }))
    }

    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        let mut xs = std::mem::take(&mut self.block_xs);
        let mut ys = std::mem::take(&mut self.block_ys);
        let drained = self.visit_blocks(max_rows.max(1), &mut xs, &mut ys, f);
        self.block_xs = xs;
        self.block_ys = ys;
        drained
    }
}

/// A [`RowSource`] that concatenates several sources of equal
/// dimensionality — disjoint shards presented as one logical dataset.
/// Blocks are drawn from the shards in order; shard boundaries are
/// invisible to the consumer (and, because `fm-core`'s accumulator
/// re-chunks anyway, can never perturb released coefficients). The
/// visitor path forwards each shard's own zero-copy fast path.
///
/// Errors raised while draining a shard — transport failures from the
/// shard itself *and* row-contract violations surfaced by the consumer's
/// visitor — come back wrapped in [`DataError::InShard`] carrying the
/// shard's label (default `shard-<index>`, overridable with
/// [`ShardedSource::with_labels`]) and the 0-based index of the failing
/// block within that shard, so a bad row in a hundred-shard ingest is
/// attributable at a glance.
#[derive(Debug)]
pub struct ShardedSource<S> {
    shards: Vec<S>,
    labels: Vec<String>,
    current: usize,
    /// Blocks already yielded by the current shard (resets per shard):
    /// the 0-based index of the *next* block, i.e. of a failing one.
    blocks_in_current: usize,
}

impl<S: RowSource> ShardedSource<S> {
    /// Concatenates `shards`, labelling them `shard-0`, `shard-1`, ….
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] for an empty shard list or
    /// mismatched dimensionalities.
    pub fn new(shards: Vec<S>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(DataError::InvalidParameter {
                name: "shards",
                reason: "need at least one shard".to_string(),
            });
        };
        let d = first.dim();
        if let Some(bad) = shards.iter().position(|s| s.dim() != d) {
            return Err(DataError::InvalidParameter {
                name: "shards",
                reason: format!(
                    "shard {bad} has dimensionality {}, shard 0 has {d}",
                    shards[bad].dim()
                ),
            });
        }
        let labels = (0..shards.len()).map(|i| format!("shard-{i}")).collect();
        Ok(ShardedSource {
            shards,
            labels,
            current: 0,
            blocks_in_current: 0,
        })
    }

    /// Replaces the default `shard-<index>` labels with caller-provided
    /// ones (e.g. file names), used in [`DataError::InShard`] errors.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when the label count differs from
    /// the shard count.
    pub fn with_labels(mut self, labels: Vec<String>) -> Result<Self> {
        if labels.len() != self.shards.len() {
            return Err(DataError::InvalidParameter {
                name: "labels",
                reason: format!("{} labels for {} shards", labels.len(), self.shards.len()),
            });
        }
        self.labels = labels;
        Ok(self)
    }

    /// The shard labels, in shard order.
    #[must_use]
    pub fn shard_labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Moves on to the next shard.
    fn advance(&mut self) {
        self.current += 1;
        self.blocks_in_current = 0;
    }
}

/// `e`, attributed to block `block` of the origin labelled `label`.
fn in_shard(label: &str, block: usize, e: DataError) -> DataError {
    DataError::InShard {
        shard: label.to_string(),
        block,
        source: Box::new(e),
    }
}

/// Runs a visitor drain `drive` with `f` wrapped so that every error is
/// attributed to the origin `label` and the 0-based index of the block it
/// stopped at: a visitor error inside the wrapper, where the failing
/// block's index is known, and a transport error of the source after
/// the fact. `blocks` counts the blocks `f` accepted.
fn attributed<R>(
    label: &str,
    blocks: &mut usize,
    f: &mut BlockVisitor<'_>,
    drive: impl FnOnce(&mut BlockVisitor<'_>) -> Result<R>,
) -> Result<R> {
    let mut wrapped_by_visitor = false;
    let result = drive(&mut |block| match f(block) {
        Ok(()) => {
            *blocks += 1;
            Ok(())
        }
        Err(e) => {
            wrapped_by_visitor = true;
            Err(in_shard(label, *blocks, e))
        }
    });
    match result {
        Err(e) if !wrapped_by_visitor => Err(in_shard(label, *blocks, e)),
        other => other,
    }
}

impl<S: RowSource> RowSource for ShardedSource<S> {
    fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    fn zero_copy(&self) -> bool {
        self.shards.iter().all(RowSource::zero_copy)
    }

    fn hint_rows(&self) -> Option<usize> {
        self.shards[self.current..]
            .iter()
            .map(RowSource::hint_rows)
            .sum()
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        while self.current < self.shards.len() {
            match self.shards[self.current].next_block(max_rows) {
                Ok(Some(block)) => {
                    self.blocks_in_current += 1;
                    return Ok(Some(block));
                }
                Ok(None) => self.advance(),
                Err(e) => {
                    return Err(in_shard(
                        &self.labels[self.current],
                        self.blocks_in_current,
                        e,
                    ))
                }
            }
        }
        Ok(None)
    }

    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        while self.current < self.shards.len() {
            let shard = &mut self.shards[self.current];
            let label = &self.labels[self.current];
            if attributed(label, &mut self.blocks_in_current, f, |g| {
                shard.lend_block(max_rows, g)
            })? {
                return Ok(true);
            }
            self.advance();
        }
        Ok(false)
    }

    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        while self.current < self.shards.len() {
            let shard = &mut self.shards[self.current];
            let label = &self.labels[self.current];
            attributed(label, &mut self.blocks_in_current, f, |g| {
                shard.for_each_block(max_rows, g)
            })?;
            self.advance();
        }
        Ok(())
    }
}

/// A [`RowSource`] adapter applying the footnote-2 intercept augmentation
/// to every block (dimensionality `d + 1`): what `fm-core`'s streaming fit
/// pipeline wraps a source in when `fit_intercept` is on. The visitor path
/// writes the augmented rows into a buffer reused across blocks, so the
/// adapter adds no per-block allocation on top of the inner source.
#[derive(Debug)]
pub struct InterceptAugmentSource<S> {
    inner: S,
    /// Augmented-feature scratch reused across blocks by the visitor path.
    scratch: Vec<f64>,
}

impl<S: RowSource> InterceptAugmentSource<S> {
    /// Wraps `inner`, augmenting every block it yields.
    #[must_use]
    pub fn new(inner: S) -> Self {
        InterceptAugmentSource {
            inner,
            scratch: Vec::new(),
        }
    }

    /// The wrapped source.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RowSource> RowSource for InterceptAugmentSource<S> {
    fn dim(&self) -> usize {
        self.inner.dim() + 1
    }

    fn hint_rows(&self) -> Option<usize> {
        self.inner.hint_rows()
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        Ok(self
            .inner
            .next_block(max_rows)?
            .map(|b| b.augment_for_intercept()))
    }

    fn take_dataset(&mut self) -> Option<&Dataset> {
        // When the inner source can hand over its whole dataset, hand over
        // that dataset's *cached* augmentation instead of streaming: the
        // cache performs the same elementwise `x·(1/√2)` arithmetic as the
        // per-block path (bit-identical coefficients), lives as long as the
        // inner dataset, and — because one instance serves every intercept
        // fit on that data — accumulates the scan count that unlocks the
        // columnar assembly kernels from the second fit onward.
        self.inner
            .take_dataset()
            .map(Dataset::augmented_for_intercept_cached)
    }

    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        let InterceptAugmentSource { inner, scratch } = self;
        inner.for_each_block(max_rows, &mut |b| {
            // Same arithmetic, in the same order, as
            // `RowBlock::augment_for_intercept` — bit-identity with the
            // materialized `Dataset::augment_for_intercept` is part of the
            // streaming contract.
            let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
            let d = b.d();
            scratch.clear();
            scratch.reserve(b.rows() * (d + 1));
            for row in b.xs().chunks_exact(d) {
                for &v in row {
                    scratch.push(v * inv_sqrt2);
                }
                scratch.push(inv_sqrt2);
            }
            f(RowBlockRef {
                xs: scratch,
                ys: b.ys(),
                d: d + 1,
            })
        })
    }
}

/// A [`RowSource`] adapter yielding at most the first `rows` rows of the
/// inner source, then reporting exhaustion — the inner source keeps its
/// position, so successive `TakeRows` wrappers around the same `&mut`
/// source cut one stream into consecutive bounded segments. That is how a
/// federated client feeds exactly its assigned row range of a shared
/// ingest stream into a partial fit without the stream knowing about the
/// shard plan.
///
/// Block boundaries are re-capped, never split retroactively: each pull —
/// owned through [`RowSource::next_block`] or borrowed through
/// [`RowSource::lend_block`] — asks the inner source for
/// `min(max_rows, remaining)` rows, so the inner source is never asked
/// for a row beyond the cap, its cursor stops exactly there, and the
/// concatenation of segments replays the stream byte-for-byte.
///
/// The adapter is as zero-copy as its inner source: its visitor lends
/// the inner source's own borrowed blocks one at a time, so a segment of
/// an in-memory stream reaches the accumulator in windows of many chunks
/// without a copy, while a copying inner source is pulled block by block
/// through `next_block` as before. It never hands over the inner source's
/// dataset ([`RowSource::take_dataset`]): a segment is not the whole
/// dataset.
#[derive(Debug)]
pub struct TakeRows<S> {
    inner: S,
    remaining: usize,
}

impl<S: RowSource> TakeRows<S> {
    /// Caps `inner` at its next `rows` rows.
    #[must_use]
    pub fn new(inner: S, rows: usize) -> Self {
        TakeRows {
            inner,
            remaining: rows,
        }
    }

    /// Rows still available under the cap.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The wrapped source (wherever its cursor now stands).
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RowSource> RowSource for TakeRows<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn hint_rows(&self) -> Option<usize> {
        self.inner.hint_rows().map(|h| h.min(self.remaining))
    }

    fn zero_copy(&self) -> bool {
        self.inner.zero_copy()
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let cap = max_rows.max(1).min(self.remaining);
        match self.inner.next_block(cap)? {
            Some(block) => {
                self.remaining -= block.rows().min(self.remaining);
                Ok(Some(block))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }

    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        if self.remaining == 0 {
            return Ok(false);
        }
        let cap = max_rows.max(1).min(self.remaining);
        let TakeRows { inner, remaining } = self;
        let lent = inner.lend_block(cap, &mut |block| {
            *remaining -= block.rows().min(*remaining);
            f(block)
        })?;
        if !lent {
            self.remaining = 0;
        }
        Ok(lent)
    }
}

/// A [`RowSource`] adapter that attributes every transport error of the
/// inner source to a named origin — wrapping it in [`DataError::InShard`]
/// with the origin's label and the 0-based index of the failing block,
/// exactly as [`ShardedSource`] does for its shards. A federated
/// coordinator wraps each client's ingest in one of these so a parse
/// failure three machines away still names the client and block at fault.
#[derive(Debug)]
pub struct ProvenancedSource<S> {
    inner: S,
    label: String,
    /// Blocks already yielded, i.e. the 0-based index of a failing one.
    blocks: usize,
}

impl<S: RowSource> ProvenancedSource<S> {
    /// Wraps `inner`, attributing its errors to `label`.
    #[must_use]
    pub fn new(inner: S, label: impl Into<String>) -> Self {
        ProvenancedSource {
            inner,
            label: label.into(),
            blocks: 0,
        }
    }

    /// The origin label used in error attribution.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The wrapped source.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RowSource> RowSource for ProvenancedSource<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn zero_copy(&self) -> bool {
        self.inner.zero_copy()
    }

    fn hint_rows(&self) -> Option<usize> {
        self.inner.hint_rows()
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        match self.inner.next_block(max_rows) {
            Ok(Some(block)) => {
                self.blocks += 1;
                Ok(Some(block))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(in_shard(&self.label, self.blocks, e)),
        }
    }

    fn take_dataset(&mut self) -> Option<&Dataset> {
        // A fully-unconsumed in-memory inner source cannot fail mid-drain,
        // so handing it over loses no attribution.
        self.inner.take_dataset()
    }

    fn lend_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<bool> {
        let inner = &mut self.inner;
        attributed(&self.label, &mut self.blocks, f, |g| {
            inner.lend_block(max_rows, g)
        })
    }

    fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
        let inner = &mut self.inner;
        attributed(&self.label, &mut self.blocks, f, |g| {
            inner.for_each_block(max_rows, g)
        })
    }
}

/// Outcome of a bounded-wait receive on a [`ChannelConsumer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refill {
    /// A block arrived and is now pending.
    Ready,
    /// Nothing arrived within the wait; the producer is still connected.
    TimedOut,
    /// The producer hung up cleanly; the stream is exhausted.
    Finished,
}

/// Consumer-side state shared by every channel-fed [`RowSource`] — the
/// prefetch adapters here and [`crate::queue::QueueSource`]: owns the
/// receiving end of a bounded block channel plus the partially-served
/// block, and re-slices arriving blocks to whatever cap the consumer
/// asks for. Producer-agnostic: it neither knows nor cares whether the
/// sender is a read-ahead worker thread or a tenant pushing rows.
#[derive(Debug)]
pub(crate) struct ChannelConsumer {
    d: usize,
    hint0: Option<usize>,
    served: usize,
    rx: Option<std::sync::mpsc::Receiver<Result<RowBlock>>>,
    /// The block currently being served, plus how many of its rows have
    /// already been yielded.
    pending: Option<(RowBlock, usize)>,
}

impl ChannelConsumer {
    pub(crate) fn new(
        d: usize,
        hint0: Option<usize>,
        rx: std::sync::mpsc::Receiver<Result<RowBlock>>,
    ) -> Self {
        ChannelConsumer {
            d,
            hint0,
            served: 0,
            rx: Some(rx),
            pending: None,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.d
    }

    pub(crate) fn hint_rows(&self) -> Option<usize> {
        self.hint0.map(|h| h.saturating_sub(self.served))
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Drops the receiver so a producer blocked on a full channel sees the
    /// hangup and can stop.
    pub(crate) fn disconnect(&mut self) {
        self.rx = None;
    }

    /// Receives the next block into `pending`, blocking; `Ok(false)` once
    /// the producer is done.
    pub(crate) fn refill(&mut self) -> Result<bool> {
        debug_assert!(self.pending.is_none(), "refill with a block pending");
        let Some(rx) = &self.rx else { return Ok(false) };
        match rx.recv() {
            Ok(Ok(block)) => {
                self.pending = Some((block, 0));
                Ok(true)
            }
            Ok(Err(e)) => {
                self.rx = None;
                Err(e)
            }
            Err(_) => {
                // Producer hung up. (An erroring producer sends its error
                // before hanging up, so a bare disconnect really is clean
                // exhaustion.)
                self.rx = None;
                Ok(false)
            }
        }
    }

    /// Like [`ChannelConsumer::refill`], but waits at most `timeout` —
    /// what a consumer that must stay responsive (checking a shutdown
    /// flag between blocks) polls with.
    pub(crate) fn refill_timeout(&mut self, timeout: std::time::Duration) -> Result<Refill> {
        debug_assert!(self.pending.is_none(), "refill with a block pending");
        let Some(rx) = &self.rx else {
            return Ok(Refill::Finished);
        };
        match rx.recv_timeout(timeout) {
            Ok(Ok(block)) => {
                self.pending = Some((block, 0));
                Ok(Refill::Ready)
            }
            Ok(Err(e)) => {
                self.rx = None;
                Err(e)
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Ok(Refill::TimedOut),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                self.rx = None;
                Ok(Refill::Finished)
            }
        }
    }

    /// Serves at most `want` rows from the pending block: whole-block
    /// handoff (no copy) when it fits, else a copied sub-range with the
    /// rest kept pending. `None` when nothing is pending.
    pub(crate) fn serve(&mut self, want: usize) -> Option<RowBlock> {
        let (block, offset) = self.pending.take()?;
        let remaining = block.rows() - offset;
        if offset == 0 && remaining <= want {
            self.served += remaining;
            return Some(block);
        }
        let take = want.min(remaining);
        let d = block.d();
        let sub = RowBlock {
            xs: block.xs()[offset * d..(offset + take) * d].to_vec(),
            ys: block.ys()[offset..offset + take].to_vec(),
            d,
        };
        if offset + take < block.rows() {
            self.pending = Some((block, offset + take));
        }
        self.served += take;
        Some(sub)
    }

    pub(crate) fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        let want = max_rows.max(1);
        if self.pending.is_none() && !self.refill()? {
            return Ok(None);
        }
        Ok(self.serve(want))
    }

    pub(crate) fn for_each_block(
        &mut self,
        max_rows: usize,
        f: &mut BlockVisitor<'_>,
    ) -> Result<()> {
        let want = max_rows.max(1);
        loop {
            if self.pending.is_none() && !self.refill()? {
                return Ok(());
            }
            let (block, offset) = self.pending.as_mut().expect("refilled above");
            let d = block.d();
            let lo = *offset;
            let take = want.min(block.rows() - lo);
            *offset += take;
            let done = *offset >= block.rows();
            let (block, _) = self.pending.as_ref().expect("still pending");
            let view = RowBlockRef {
                xs: &block.xs()[lo * d..(lo + take) * d],
                ys: &block.ys()[lo..lo + take],
                d,
            };
            f(view)?;
            self.served += take;
            if done {
                self.pending = None;
            }
        }
    }
}

#[cfg(feature = "parallel")]
pub use self::prefetch::PrefetchSource;

#[cfg(feature = "parallel")]
mod prefetch {
    use std::sync::mpsc::SyncSender;
    use std::thread::JoinHandle;

    use super::{BlockVisitor, ChannelConsumer, Result, RowBlock, RowSource};

    /// A double-buffering [`RowSource`] adapter: a worker thread pulls
    /// (parses, clamps, normalizes) blocks from the inner source while the
    /// consumer runs its kernels on the previous ones, overlapping
    /// transport latency — CSV parse, file I/O — with accumulation.
    ///
    /// Blocks flow through a bounded channel of `depth` blocks, so peak
    /// memory is `(depth + 1) · block_rows` staged rows. Ordering is
    /// preserved exactly (single worker, FIFO channel), and `fm-core`'s
    /// accumulator re-chunks every stream anyway, so wrapping a source in
    /// a `PrefetchSource` can never perturb released coefficients — at
    /// any `block_rows` or `depth` (`tests/streaming_equivalence.rs` pins
    /// this).
    ///
    /// Worth it when the inner source does real per-row work
    /// ([`super::CsvStreamSource`]): the worker reads and parses the next
    /// blocks while the consumer runs its kernels on the previous ones.
    /// A CSV source parses each long block on every core by itself, so
    /// the worker borrows the consumer's core while it parses; the
    /// overlap pays most where reading or the consumer's kernels are
    /// slow. An already-in-memory source gains nothing and pays the
    /// channel hop. Available with the `parallel` cargo feature.
    ///
    /// A panic in the worker (i.e. in the inner source) is caught and
    /// surfaced to the consumer as [`crate::DataError::WorkerPanic`] — never a
    /// hang, and never a silent early EOF masquerading as a short dataset.
    #[derive(Debug)]
    pub struct PrefetchSource {
        feed: ChannelConsumer,
        worker: Option<JoinHandle<()>>,
    }

    /// The read-ahead loop of the worker thread: pull blocks from the
    /// inner source and push them down the bounded channel until
    /// exhaustion, error, or consumer hangup.
    ///
    /// A panicking inner source must not turn into a silent early EOF on
    /// the consumer side (the channel hanging up is otherwise
    /// indistinguishable from clean exhaustion): catch it and forward a
    /// typed error instead.
    fn run_worker<S: RowSource>(
        mut source: S,
        block_rows: usize,
        tx: SyncSender<Result<RowBlock>>,
    ) {
        let panic_tx = tx.clone();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            match source.next_block(block_rows) {
                Ok(Some(block)) => {
                    if tx.send(Ok(block)).is_err() {
                        return; // consumer dropped: stop reading ahead
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }));
        if let Err(payload) = run {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic payload was not a string".to_string());
            let _ = panic_tx.send(Err(super::DataError::WorkerPanic { detail }));
        }
    }

    impl PrefetchSource {
        /// Moves `source` to a worker thread that reads ahead blocks of
        /// `block_rows` rows, buffering at most `depth` parsed blocks
        /// (both clamped to ≥ 1).
        pub fn spawn<S>(source: S, block_rows: usize, depth: usize) -> Self
        where
            S: RowSource + Send + 'static,
        {
            let d = source.dim();
            let hint0 = source.hint_rows();
            let block_rows = block_rows.max(1);
            let (tx, rx) = std::sync::mpsc::sync_channel(depth.max(1));
            let worker = std::thread::spawn(move || run_worker(source, block_rows, tx));
            PrefetchSource {
                feed: ChannelConsumer::new(d, hint0, rx),
                worker: Some(worker),
            }
        }
    }

    impl RowSource for PrefetchSource {
        fn dim(&self) -> usize {
            self.feed.dim()
        }

        fn hint_rows(&self) -> Option<usize> {
            self.feed.hint_rows()
        }

        fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
            self.feed.next_block(max_rows)
        }

        fn for_each_block(&mut self, max_rows: usize, f: &mut BlockVisitor<'_>) -> Result<()> {
            self.feed.for_each_block(max_rows, f)
        }
    }

    impl Drop for PrefetchSource {
        fn drop(&mut self) {
            // Hang up first so a worker blocked on a full channel exits,
            // then reap it.
            self.feed.disconnect();
            if let Some(worker) = self.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// Rows per block [`materialize`] requests while draining a source.
const MATERIALIZE_BLOCK_ROWS: usize = 8_192;

/// Drains a source into a materialized [`Dataset`] (default feature
/// names) — the fallback estimators without a native streaming path use,
/// and the bridge back from the streaming world for anything that still
/// needs random access. Runs through the borrowed-block visitor, so the
/// only allocation is the destination buffers themselves (sized up front
/// when the source hints its row count).
///
/// # Errors
/// Transport errors from the source; [`DataError::EmptyDataset`] when the
/// source yields no rows.
pub fn materialize<S: RowSource + ?Sized>(source: &mut S) -> Result<Dataset> {
    let (x, y) = drain(source)?;
    Dataset::new(x, y)
}

/// The rows of [`materialize`], before they are named.
pub(crate) fn drain<S: RowSource + ?Sized>(source: &mut S) -> Result<(Matrix, Vec<f64>)> {
    /// Preallocation ceiling: `hint_rows` is advisory, so a buggy (or
    /// hostile) hint must not trigger an unbounded up-front allocation —
    /// growth past this is amortized doubling, same as no hint at all.
    const PREALLOC_ROWS_MAX: usize = 1 << 20;
    let d = source.dim();
    let hint = source.hint_rows().unwrap_or(0).min(PREALLOC_ROWS_MAX);
    let mut xs: Vec<f64> = Vec::with_capacity(hint.saturating_mul(d));
    let mut ys: Vec<f64> = Vec::with_capacity(hint);
    source.for_each_block(MATERIALIZE_BLOCK_ROWS, &mut |block| {
        debug_assert_eq!(block.d(), d, "source yielded a block of foreign arity");
        xs.extend_from_slice(block.xs());
        ys.extend_from_slice(block.ys());
        Ok(())
    })?;
    if ys.is_empty() {
        return Err(DataError::EmptyDataset);
    }
    Ok((Matrix::from_vec(ys.len(), d, xs)?, ys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeKind;
    use crate::Schema;

    fn small() -> Dataset {
        let x = Matrix::from_rows(&[
            &[0.1, 0.2],
            &[0.3, 0.4],
            &[0.5, 0.6],
            &[0.0, -0.1],
            &[0.2, -0.3],
        ])
        .unwrap();
        Dataset::new(x, vec![1.0, 0.0, 1.0, -0.5, 0.25]).unwrap()
    }

    /// Drains `source` through the borrowed-block visitor, concatenating
    /// everything it yields and checking the per-block contract.
    fn drain_visitor<S: RowSource + ?Sized>(
        source: &mut S,
        max_rows: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let d = source.dim();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        source
            .for_each_block(max_rows, &mut |b| {
                assert!(b.rows() > 0 && b.rows() <= max_rows.max(1));
                assert_eq!(b.d(), d);
                assert_eq!(b.xs().len(), b.rows() * d);
                xs.extend_from_slice(b.xs());
                ys.extend_from_slice(b.ys());
                Ok(())
            })
            .unwrap();
        (xs, ys)
    }

    #[test]
    fn row_block_validates_shapes() {
        assert!(RowBlock::new(vec![1.0, 2.0], vec![0.5], 2).is_ok());
        assert!(matches!(
            RowBlock::new(vec![1.0], vec![0.5], 2),
            Err(DataError::LengthMismatch { .. })
        ));
        assert!(RowBlock::new(vec![], vec![], 0).is_err());
        // Borrowed views share the contract; round-trips are exact.
        let owned = RowBlock::new(vec![1.0, 2.0], vec![0.5], 2).unwrap();
        let view = owned.as_ref();
        assert_eq!(view.rows(), 1);
        assert_eq!(view.to_owned(), owned);
        assert!(RowBlockRef::new(&[1.0], &[0.5], 2).is_err());
        assert!(RowBlockRef::new(&[], &[], 0).is_err());
    }

    #[test]
    fn in_memory_source_streams_every_row_in_order() {
        let data = small();
        for max_rows in [1usize, 2, 3, 5, 100] {
            let mut src = InMemorySource::new(&data);
            assert_eq!(src.dim(), 2);
            assert_eq!(src.hint_rows(), Some(5));
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            while let Some(b) = src.next_block(max_rows).unwrap() {
                assert!(b.rows() <= max_rows && b.rows() > 0);
                assert_eq!(b.d(), 2);
                xs.extend_from_slice(b.xs());
                ys.extend_from_slice(b.ys());
            }
            assert_eq!(xs, data.x().as_slice());
            assert_eq!(ys, data.y());
            assert_eq!(src.hint_rows(), Some(0));
            // Exhausted stays exhausted; reset rewinds.
            assert!(src.next_block(4).unwrap().is_none());
            src.reset();
            assert!(src.next_block(4).unwrap().is_some());
        }
    }

    #[test]
    fn in_memory_visitor_matches_owned_blocks_and_shares_the_cursor() {
        let data = small();
        for max_rows in [1usize, 2, 3, 5, 100] {
            let mut src = InMemorySource::new(&data);
            let (xs, ys) = drain_visitor(&mut src, max_rows);
            assert_eq!(xs, data.x().as_slice());
            assert_eq!(ys, data.y());
            // Visitor drains fully: the owned path sees nothing after.
            assert!(src.next_block(4).unwrap().is_none());
            // Mixed consumption: pull one owned block, visit the rest.
            src.reset();
            let first = src.next_block(2).unwrap().unwrap();
            let (xs_rest, ys_rest) = drain_visitor(&mut src, 2);
            let mut all = first.ys().to_vec();
            all.extend_from_slice(&ys_rest);
            assert_eq!(all, data.y());
            assert_eq!(xs_rest.len(), (data.n() - 2) * data.d());
        }
    }

    #[test]
    fn take_dataset_hands_over_only_a_fresh_source() {
        let data = small();
        let mut src = InMemorySource::new(&data);
        let handed = src.take_dataset().expect("fresh source hands over");
        assert!(std::ptr::eq(handed, &data));
        // The handoff consumed the source.
        assert_eq!(src.hint_rows(), Some(0));
        assert!(src.next_block(8).unwrap().is_none());
        assert!(src.take_dataset().is_none());
        // A partially consumed source refuses.
        let mut src = InMemorySource::new(&data);
        let _ = src.next_block(2).unwrap();
        assert!(src.take_dataset().is_none());
        // Adapters with pending *concatenation* never hand over.
        let mut sharded = ShardedSource::new(vec![InMemorySource::new(&data)]).unwrap();
        assert!(sharded.take_dataset().is_none());
    }

    #[test]
    fn intercept_adapter_hands_over_the_cached_augmentation() {
        let data = small();
        // A fresh wrapped source hands over the augmented dataset …
        let mut src = InterceptAugmentSource::new(InMemorySource::new(&data));
        let handed = src
            .take_dataset()
            .expect("fresh intercept source hands over");
        assert!(std::ptr::eq(handed, data.augmented_for_intercept_cached()));
        assert_eq!(handed.d(), data.d() + 1);
        // … matching the streamed augmentation bit for bit.
        let fresh = data.augment_for_intercept();
        assert_eq!(handed.x().as_slice(), fresh.x().as_slice());
        assert_eq!(handed.y(), fresh.y());
        // The handoff consumed the inner source.
        assert!(src.next_block(8).unwrap().is_none());
        assert!(src.take_dataset().is_none());
        // A partially consumed inner source still refuses.
        let mut src = InterceptAugmentSource::new(InMemorySource::new(&data));
        let _ = src.next_block(2).unwrap();
        assert!(src.take_dataset().is_none());
    }

    #[test]
    fn visitor_error_stops_the_drain() {
        let data = small();
        let mut src = InMemorySource::new(&data);
        let mut seen = 0usize;
        let err = src.for_each_block(1, &mut |_| {
            seen += 1;
            if seen == 2 {
                Err(DataError::EmptyDataset)
            } else {
                Ok(())
            }
        });
        assert!(matches!(err, Err(DataError::EmptyDataset)));
        assert_eq!(seen, 2, "drain must stop at the first callback error");
    }

    #[test]
    fn materialize_roundtrips_in_memory() {
        let data = small();
        let back = materialize(&mut InMemorySource::new(&data)).unwrap();
        assert_eq!(back.x().as_slice(), data.x().as_slice());
        assert_eq!(back.y(), data.y());
        // Empty source is refused.
        let mut drained = InMemorySource::new(&data);
        while drained.next_block(64).unwrap().is_some() {}
        assert!(matches!(
            materialize(&mut drained),
            Err(DataError::EmptyDataset)
        ));
    }

    #[test]
    fn sharded_source_concatenates_in_order() {
        let data = small();
        let (a, b) = (
            data.subset(&[0, 1]).unwrap(),
            data.subset(&[2, 3, 4]).unwrap(),
        );
        let mut sharded =
            ShardedSource::new(vec![InMemorySource::new(&a), InMemorySource::new(&b)]).unwrap();
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.hint_rows(), Some(5));
        let merged = materialize(&mut sharded).unwrap();
        assert_eq!(merged.x().as_slice(), data.x().as_slice());
        assert_eq!(merged.y(), data.y());
        // The visitor path crosses shard boundaries in order too.
        let mut sharded =
            ShardedSource::new(vec![InMemorySource::new(&a), InMemorySource::new(&b)]).unwrap();
        let (xs, ys) = drain_visitor(&mut sharded, 2);
        assert_eq!(xs, data.x().as_slice());
        assert_eq!(ys, data.y());
    }

    #[test]
    fn sharded_source_rejects_bad_shards() {
        assert!(ShardedSource::<InMemorySource>::new(vec![]).is_err());
        let two = small();
        let one_col = two.select_features(&["x0"]).unwrap();
        assert!(ShardedSource::new(vec![
            InMemorySource::new(&two),
            InMemorySource::new(&one_col)
        ])
        .is_err());
    }

    #[test]
    fn boxed_dyn_sources_compose() {
        let data = small();
        let shards: Vec<Box<dyn RowSource>> = vec![
            Box::new(InMemorySource::new(&data)),
            Box::new(InMemorySource::new(&data)),
        ];
        let mut sharded = ShardedSource::new(shards).unwrap();
        assert_eq!(materialize(&mut sharded).unwrap().n(), 10);
    }

    #[test]
    fn intercept_augment_matches_dataset_augmentation_bitwise() {
        let data = small();
        let aug = data.augment_for_intercept();
        let mut src = InterceptAugmentSource::new(InMemorySource::new(&data));
        assert_eq!(src.dim(), 3);
        let streamed = materialize(&mut src).unwrap();
        for (a, b) in streamed.x().as_slice().iter().zip(aug.x().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(streamed.y(), aug.y());
        // The owned-block path produces the same bits (it augments each
        // owned block instead of reusing the visitor scratch).
        let mut src = InterceptAugmentSource::new(InMemorySource::new(&data));
        let mut owned_xs = Vec::new();
        while let Some(b) = src.next_block(2).unwrap() {
            owned_xs.extend_from_slice(b.xs());
        }
        for (a, b) in owned_xs.iter().zip(aug.x().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn csv_stream_matches_materialized_reader() {
        let data = small();
        let mut buf = Vec::new();
        crate::csv::write_dataset_to(&data, &mut buf).unwrap();
        let mut src = CsvStreamSource::from_reader(&buf[..]).unwrap();
        assert_eq!(src.dim(), 2);
        assert_eq!(src.feature_names(), data.feature_names());
        assert_eq!(src.header().last().map(String::as_str), Some("label"));
        let streamed = materialize(&mut src).unwrap();
        let direct = crate::csv::read_dataset_from(&buf[..]).unwrap();
        assert_eq!(streamed.x().as_slice(), direct.x().as_slice());
        assert_eq!(streamed.y(), direct.y());
        // The owned-block path reads the same rows.
        let mut src = CsvStreamSource::from_reader(&buf[..]).unwrap();
        let mut ys = Vec::new();
        while let Some(b) = src.next_block(2).unwrap() {
            assert!(b.rows() <= 2);
            ys.extend_from_slice(b.ys());
        }
        assert_eq!(ys, direct.y());
    }

    #[test]
    fn csv_stream_reports_parse_errors_with_line_numbers() {
        let csv = b"a,b,label\n0.1,0.2,0.3\n\n0.1,broken,0.3\n";
        let mut src = CsvStreamSource::from_reader(&csv[..]).unwrap();
        // First block parses the good row; the bad one (file line 4) errors.
        let got = src.next_block(1).unwrap().unwrap();
        assert_eq!(got.rows(), 1);
        match src.next_block(1) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
        // The visitor path surfaces the same transport errors.
        let mut src = CsvStreamSource::from_reader(&csv[..]).unwrap();
        let err = src.for_each_block(8, &mut |_| Ok(()));
        assert!(matches!(err, Err(DataError::Parse { line: 4, .. })));
        // Header failures.
        assert!(CsvStreamSource::from_reader(&b""[..]).is_err());
        assert!(CsvStreamSource::from_reader(&b"only\n"[..]).is_err());
    }

    #[test]
    fn csv_select_columns_reorders_by_header_name() {
        // File order: junk, b, label-ish extra, a, y — the mapper must
        // pick (a, b) as features and y as the label, skipping the rest
        // (including the non-numeric junk column, unparsed).
        let csv = b"junk,b,extra,a,y\n\
                    hello,2.0,9.0,1.0,0.5\n\
                    world,4.0,9.0,3.0,-0.5\n";
        let mut src = CsvStreamSource::from_reader(&csv[..])
            .unwrap()
            .select_columns(&["a", "b"], "y")
            .unwrap();
        assert_eq!(src.dim(), 2);
        assert_eq!(src.feature_names(), &["a".to_string(), "b".to_string()]);
        let got = materialize(&mut src).unwrap();
        assert_eq!(got.x().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(got.y(), &[0.5, -0.5]);

        // Ragged mapped rows are reported with their line number.
        let bad = b"a,b,y\n1.0,2.0,0.1\n1.0,2.0\n";
        let mut src = CsvStreamSource::from_reader(&bad[..])
            .unwrap()
            .select_columns(&["b"], "y")
            .unwrap();
        assert_eq!(src.next_block(1).unwrap().unwrap().xs(), &[2.0]);
        assert!(matches!(
            src.next_block(1),
            Err(DataError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn csv_select_columns_rejects_bad_requests() {
        let csv = b"a,b,a,y\n1.0,2.0,3.0,0.5\n";
        let open = || CsvStreamSource::from_reader(&csv[..]).unwrap();
        // Missing column.
        assert!(matches!(
            open().select_columns(&["nope"], "y"),
            Err(DataError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            open().select_columns(&["b"], "nope"),
            Err(DataError::UnknownAttribute { .. })
        ));
        // A requested column that the header lists twice is ambiguous.
        assert!(matches!(
            open().select_columns(&["a"], "y"),
            Err(DataError::Parse { line: 1, .. })
        ));
        // Duplicate request / label doubling as feature / empty request.
        assert!(open().select_columns(&["b", "b"], "y").is_err());
        assert!(open().select_columns(&["y"], "y").is_err());
        assert!(open().select_columns(&[], "y").is_err());
        // Selecting after rows were read is refused.
        let mut started = open();
        let _ = started.next_block(1).unwrap();
        assert!(started.select_columns(&["b"], "y").is_err());
    }

    #[test]
    fn csv_select_columns_composes_with_normalization() {
        let schema = Schema::new()
            .with("age", AttributeKind::Integer { min: 0, max: 100 })
            .with("hours", AttributeKind::Integer { min: 0, max: 50 })
            .with(
                "income",
                AttributeKind::Continuous {
                    min: 0.0,
                    max: 1000.0,
                },
            );
        let norm = Normalizer::from_schema(&schema, "income").unwrap();
        // A foreign layout: label first, features reversed, plus noise.
        let csv = b"income,noise,hours,age\n500.0,x,25.0,50.0\n0.0,y,50.0,0.0\n";
        let mut src = CsvStreamSource::from_reader(&csv[..])
            .unwrap()
            .select_columns(&["age", "hours"], "income")
            .unwrap()
            .with_normalizer(norm.clone(), LabelTransform::Linear)
            .unwrap();
        let streamed = materialize(&mut src).unwrap();

        // Reference: the same rows through the canonical layout.
        let x = Matrix::from_rows(&[&[50.0, 25.0], &[0.0, 50.0]]).unwrap();
        let raw =
            Dataset::with_names(x, vec![500.0, 0.0], vec!["age".into(), "hours".into()]).unwrap();
        let reference = norm.normalize_linear(&raw).unwrap();
        for (a, b) in streamed.x().as_slice().iter().zip(reference.x().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(streamed.y(), reference.y());

        // Arity check runs against the *selected* width.
        let narrow = Normalizer::from_bounds(vec![(0.0, 1.0)], (0.0, 1.0)).unwrap();
        assert!(CsvStreamSource::from_reader(&csv[..])
            .unwrap()
            .select_columns(&["age", "hours"], "income")
            .unwrap()
            .with_normalizer(narrow.clone(), LabelTransform::Raw)
            .is_err());
        // And select_columns re-checks a previously attached normalizer.
        assert!(CsvStreamSource::from_reader(&csv[..])
            .unwrap()
            .with_normalizer(narrow, LabelTransform::Raw)
            .is_err()); // wrong arity for the unselected layout already
    }

    #[test]
    fn csv_stream_normalizes_rows_identically_to_the_matrix_path() {
        let schema = Schema::new()
            .with("age", AttributeKind::Integer { min: 0, max: 100 })
            .with("hours", AttributeKind::Integer { min: 0, max: 50 })
            .with(
                "income",
                AttributeKind::Continuous {
                    min: 0.0,
                    max: 1000.0,
                },
            );
        let norm = Normalizer::from_schema(&schema, "income").unwrap();
        let x = Matrix::from_rows(&[&[50.0, 25.0], &[150.0, -10.0], &[0.0, 50.0]]).unwrap();
        let raw = Dataset::with_names(
            x,
            vec![500.0, 2000.0, 0.0],
            vec!["age".into(), "hours".into()],
        )
        .unwrap();
        let mut buf = Vec::new();
        crate::csv::write_dataset_to(&raw, &mut buf).unwrap();

        // Linear label map.
        let mut src = CsvStreamSource::from_reader(&buf[..])
            .unwrap()
            .with_normalizer(norm.clone(), LabelTransform::Linear)
            .unwrap();
        let streamed = materialize(&mut src).unwrap();
        let reference = norm.normalize_linear(&raw).unwrap();
        for (a, b) in streamed.x().as_slice().iter().zip(reference.x().as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "feature map must be bit-identical"
            );
        }
        assert_eq!(streamed.y(), reference.y());
        streamed.check_normalized_linear().unwrap();

        // Binarized label map.
        let mut src = CsvStreamSource::from_reader(&buf[..])
            .unwrap()
            .with_normalizer(norm.clone(), LabelTransform::Binarize { threshold: 400.0 })
            .unwrap();
        let streamed = materialize(&mut src).unwrap();
        let reference = norm.normalize_logistic(&raw, 400.0).unwrap();
        assert_eq!(streamed.y(), reference.y());

        // Arity mismatch refused up front.
        let narrow = Normalizer::from_bounds(vec![(0.0, 1.0)], (0.0, 1.0)).unwrap();
        assert!(CsvStreamSource::from_reader(&buf[..])
            .unwrap()
            .with_normalizer(narrow, LabelTransform::Raw)
            .is_err());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn prefetch_source_preserves_order_and_contract() {
        let data = small();
        let mut buf = Vec::new();
        crate::csv::write_dataset_to(&data, &mut buf).unwrap();
        for block_rows in [1usize, 2, 4, 64] {
            for depth in [1usize, 2, 8] {
                // Owned-block path.
                let inner =
                    CsvStreamSource::from_reader(std::io::Cursor::new(buf.clone())).unwrap();
                let mut pf = PrefetchSource::spawn(inner, block_rows, depth);
                assert_eq!(pf.dim(), 2);
                let got = materialize(&mut pf).unwrap();
                assert_eq!(got.x().as_slice(), data.x().as_slice());
                assert_eq!(got.y(), data.y());
                // Borrowed path at a cap below the read-ahead size.
                let inner =
                    CsvStreamSource::from_reader(std::io::Cursor::new(buf.clone())).unwrap();
                let mut pf = PrefetchSource::spawn(inner, block_rows, depth);
                let (xs, ys) = drain_visitor(&mut pf, 1);
                assert_eq!(xs, data.x().as_slice());
                assert_eq!(ys, data.y());
                // Sub-range serving when the consumer asks for fewer rows
                // than the worker read ahead.
                let inner =
                    CsvStreamSource::from_reader(std::io::Cursor::new(buf.clone())).unwrap();
                let mut pf = PrefetchSource::spawn(inner, block_rows, depth);
                let mut ys = Vec::new();
                while let Some(b) = pf.next_block(1).unwrap() {
                    assert_eq!(b.rows(), 1);
                    ys.extend_from_slice(b.ys());
                }
                assert_eq!(ys, data.y());
            }
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn prefetch_source_propagates_worker_errors_and_drops_cleanly() {
        let csv = b"a,b,label\n0.1,0.2,0.3\nbad,row,here\n";
        let inner = CsvStreamSource::from_reader(std::io::Cursor::new(csv.to_vec())).unwrap();
        let mut pf = PrefetchSource::spawn(inner, 1, 1);
        assert_eq!(pf.next_block(8).unwrap().unwrap().rows(), 1);
        assert!(matches!(
            pf.next_block(8),
            Err(DataError::Parse { line: 3, .. })
        ));
        assert!(pf.next_block(8).unwrap().is_none(), "errored stream ends");
        // Dropping with the worker mid-stream (full channel) must not hang.
        let data = small();
        let mut buf = Vec::new();
        crate::csv::write_dataset_to(&data, &mut buf).unwrap();
        let inner = CsvStreamSource::from_reader(std::io::Cursor::new(buf)).unwrap();
        let pf = PrefetchSource::spawn(inner, 1, 1);
        drop(pf);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn prefetch_source_surfaces_worker_panics_as_typed_errors() {
        /// A source whose transport panics after one good block.
        #[derive(Debug)]
        struct PanickySource {
            blocks: usize,
        }
        impl RowSource for PanickySource {
            fn dim(&self) -> usize {
                2
            }
            fn next_block(&mut self, _max_rows: usize) -> Result<Option<RowBlock>> {
                assert!(self.blocks != 1, "simulated bug in the inner source");
                self.blocks += 1;
                Ok(Some(RowBlock::new(vec![0.1, 0.2], vec![1.0], 2).unwrap()))
            }
        }

        let mut pf = PrefetchSource::spawn(PanickySource { blocks: 0 }, 4, 2);
        assert_eq!(pf.next_block(8).unwrap().unwrap().rows(), 1);
        match pf.next_block(8) {
            Err(DataError::WorkerPanic { detail }) => {
                assert!(detail.contains("simulated bug"), "payload lost: {detail}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // After the panic the stream is over, not wedged.
        assert!(pf.next_block(8).unwrap().is_none());
    }

    #[test]
    fn csv_row_error_policy_quarantines_up_to_the_cap() {
        let csv = "a,b,label\n0.1,0.2,1.0\nbad,0.3,0.0\n0.4,0.5,2.0\n0.6,oops,3.0\n0.7,0.8,4.0\n";
        // Strict: first bad row kills the stream.
        let mut strict = CsvStreamSource::from_reader(std::io::Cursor::new(csv)).unwrap();
        assert!(matches!(
            materialize(&mut strict),
            Err(DataError::Parse { line: 3, .. })
        ));
        // SkipUpTo(2): both bad rows quarantined, clean rows survive.
        let mut lax = CsvStreamSource::from_reader(std::io::Cursor::new(csv))
            .unwrap()
            .with_row_error_policy(RowErrorPolicy::SkipUpTo(2));
        let data = materialize(&mut lax).unwrap();
        assert_eq!(data.n(), 3);
        assert_eq!(data.y(), &[1.0, 2.0, 4.0]);
        let report = lax.quarantine();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].line, 3);
        assert_eq!(report[1].line, 5);
        assert!(report[0].reason.contains("not a number"));
        // SkipUpTo(1): the second bad row exceeds the cap and fails.
        let mut capped = CsvStreamSource::from_reader(std::io::Cursor::new(csv))
            .unwrap()
            .with_row_error_policy(RowErrorPolicy::SkipUpTo(1));
        assert!(matches!(
            materialize(&mut capped),
            Err(DataError::Parse { line: 5, .. })
        ));
        assert_eq!(capped.quarantine().len(), 1);
    }

    #[test]
    fn csv_row_error_policy_covers_both_block_paths_identically() {
        let csv = "a,b,label\n0.1,0.2,1.0\nbad,0.3,0.0\n0.4,0.5,2.0\n";
        let mut owned = CsvStreamSource::from_reader(std::io::Cursor::new(csv))
            .unwrap()
            .with_row_error_policy(RowErrorPolicy::SkipUpTo(8));
        let mut ys_owned = Vec::new();
        while let Some(b) = owned.next_block(2).unwrap() {
            ys_owned.extend_from_slice(b.ys());
        }
        let mut visited = CsvStreamSource::from_reader(std::io::Cursor::new(csv))
            .unwrap()
            .with_row_error_policy(RowErrorPolicy::SkipUpTo(8));
        let (_, ys_visited) = drain_visitor(&mut visited, 2);
        assert_eq!(ys_owned, vec![1.0, 2.0]);
        assert_eq!(ys_owned, ys_visited);
        assert_eq!(owned.quarantine(), visited.quarantine());
    }

    #[test]
    fn sharded_source_attributes_errors_to_the_failing_shard() {
        let good = "a,b,label\n0.1,0.2,1.0\n0.3,0.4,2.0\n";
        let bad = "a,b,label\n0.5,0.6,3.0\nbroken,0.7,4.0\n";
        let make = |text: &str| {
            CsvStreamSource::from_reader(std::io::Cursor::new(text.to_string())).unwrap()
        };

        // Default labels, owned-block path: the parse error in the second
        // shard is wrapped with `shard-1` and the failing block's index.
        let mut src = ShardedSource::new(vec![make(good), make(bad)]).unwrap();
        let mut err = None;
        loop {
            match src.next_block(1) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        match err.expect("the bad shard must fail") {
            DataError::InShard {
                shard,
                block,
                source,
            } => {
                assert_eq!(shard, "shard-1");
                assert_eq!(block, 1, "one good block preceded the failure");
                assert!(matches!(*source, DataError::Parse { line: 3, .. }));
            }
            other => panic!("expected InShard, got {other}"),
        }

        // Custom labels, visitor path, *visitor-raised* (row-contract
        // style) error: same attribution.
        let mut src = ShardedSource::new(vec![make(good), make(good)])
            .unwrap()
            .with_labels(vec!["us-census".into(), "brazil-census".into()])
            .unwrap();
        let mut blocks = 0usize;
        let err = src
            .for_each_block(1, &mut |_b| {
                blocks += 1;
                if blocks == 3 {
                    Err(DataError::NotNormalized {
                        detail: "‖x‖₂ > 1".to_string(),
                    })
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        match err {
            DataError::InShard {
                shard,
                block,
                source,
            } => {
                assert_eq!(shard, "brazil-census");
                assert_eq!(block, 0, "first block of the second shard");
                assert!(matches!(*source, DataError::NotNormalized { .. }));
                // std::error::Error::source exposes the cause chain.
                use std::error::Error as _;
                let err = DataError::InShard {
                    shard,
                    block,
                    source,
                };
                assert!(err.source().is_some());
            }
            other => panic!("expected InShard, got {other}"),
        }
    }

    #[test]
    fn take_rows_cuts_a_shared_stream_into_consecutive_segments() {
        let data = small();
        let mut src = InMemorySource::new(&data);
        // Segment the 5-row stream as 2 + 2 + 1 through the same cursor.
        let mut all_xs = Vec::new();
        let mut all_ys = Vec::new();
        for len in [2usize, 2, 1] {
            let mut seg = TakeRows::new(&mut src, len);
            assert_eq!(seg.dim(), 2);
            assert_eq!(seg.hint_rows(), Some(len));
            let mut got = 0usize;
            while let Some(b) = seg.next_block(100).unwrap() {
                got += b.rows();
                all_xs.extend_from_slice(b.xs());
                all_ys.extend_from_slice(b.ys());
            }
            assert_eq!(got, len, "segment must stop exactly at its cap");
            assert_eq!(seg.remaining(), 0);
            // Exhausted stays exhausted without touching the inner cursor.
            assert!(seg.next_block(100).unwrap().is_none());
        }
        assert_eq!(all_xs, data.x().as_slice());
        assert_eq!(all_ys, data.y());
        assert!(src.next_block(4).unwrap().is_none());

        // A cap beyond the stream just drains it.
        let mut src = InMemorySource::new(&data);
        let mut over = TakeRows::new(&mut src, 100);
        let (xs, _ys) = drain_visitor(&mut over, 3);
        assert_eq!(xs, data.x().as_slice());
        assert!(over.next_block(4).unwrap().is_none());
    }

    /// `n` distinct rows at d = 2, every value exact in shortest decimal.
    fn numbered(n: usize) -> Dataset {
        let xs: Vec<f64> = (0..n)
            .flat_map(|i| [i as f64 / 64.0 / n as f64, -(i as f64) / 128.0 / n as f64])
            .collect();
        let ys = (0..n).map(|i| i as f64 / 8.0).collect();
        Dataset::new(Matrix::from_vec(n, 2, xs).unwrap(), ys).unwrap()
    }

    /// `data` as a CSV stream: the same rows through a copying source.
    fn csv_of(data: &Dataset) -> CsvStreamSource<std::io::Cursor<String>> {
        let mut text = "a,b,label\n".to_string();
        for (row, y) in data.x().as_slice().chunks_exact(2).zip(data.y()) {
            text.push_str(&format!("{},{},{y}\n", row[0], row[1]));
        }
        CsvStreamSource::from_reader(std::io::Cursor::new(text)).unwrap()
    }

    /// `data` cut into consecutive datasets of the given sizes.
    fn cut(data: &Dataset, sizes: &[usize]) -> Vec<Dataset> {
        let mut lo = 0;
        sizes
            .iter()
            .map(|&k| {
                let idx: Vec<usize> = (lo..lo + k).collect();
                lo += k;
                data.subset(&idx).unwrap()
            })
            .collect()
    }

    /// Every block `source` yields, pulled owned or lent through the
    /// visitor.
    fn blocks_of(source: &mut impl RowSource, max_rows: usize, visit: bool) -> Vec<RowBlock> {
        let mut blocks = Vec::new();
        if visit {
            source
                .for_each_block(max_rows, &mut |b| {
                    blocks.push(b.to_owned());
                    Ok(())
                })
                .unwrap();
        } else {
            while let Some(b) = source.next_block(max_rows).unwrap() {
                blocks.push(b);
            }
        }
        blocks
    }

    #[test]
    fn take_rows_is_zero_copy_exactly_when_its_inner_source_is() {
        let data = numbered(12);
        let parts = cut(&data, &[5, 7]);
        let mut mem = InMemorySource::new(&data);
        assert!(TakeRows::new(&mut mem, 4).zero_copy());
        let sharded = ShardedSource::new(parts.iter().map(InMemorySource::new).collect()).unwrap();
        assert!(TakeRows::new(sharded, 4).zero_copy());
        assert!(!TakeRows::new(csv_of(&data), 4).zero_copy());
        assert!(!TakeRows::new(InterceptAugmentSource::new(mem), 4).zero_copy());
        // A segment is never the whole dataset, so it never hands one
        // over, even at the stream's first row.
        let mut fresh = InMemorySource::new(&data);
        let mut seg = TakeRows::new(&mut fresh, 12);
        assert!(seg.take_dataset().is_none());
        assert_eq!(blocks_of(&mut seg, 100, true).len(), 1);
    }

    #[test]
    fn take_rows_visitor_yields_exactly_the_owned_blocks_at_every_cap() {
        let data = numbered(37);
        let parts = cut(&data, &[9, 20, 8]);
        // A cap of one row, of one 4-row chunk, and of more than the
        // segment holds; segments that start mid-shard and span shards.
        for max_rows in [1usize, 4, 100] {
            for (skip, len) in [(0usize, 37usize), (3, 10), (7, 25), (30, 7), (36, 5)] {
                let mut per_path = Vec::new();
                for visit in [false, true] {
                    let mem = InMemorySource::new(&data);
                    let sharded =
                        ShardedSource::new(parts.iter().map(InMemorySource::new).collect())
                            .unwrap();
                    let sources: Vec<Box<dyn RowSource + '_>> =
                        vec![Box::new(mem), Box::new(sharded), Box::new(csv_of(&data))];
                    for mut src in sources {
                        drain_visitor(&mut TakeRows::new(&mut src, skip), 100);
                        let mut seg = TakeRows::new(&mut src, len);
                        let blocks = blocks_of(&mut seg, max_rows, visit);
                        assert!(blocks.iter().all(|b| b.rows() <= max_rows));
                        assert_eq!(seg.remaining(), 0);
                        // The inner cursor stops exactly at the cap.
                        let next = src.next_block(1).unwrap();
                        let at = (skip + len).min(37);
                        assert_eq!(next.map(|b| b.ys()[0]), data.y().get(at).copied());
                        let ys: Vec<f64> = blocks.iter().flat_map(|b| b.ys().to_vec()).collect();
                        assert_eq!(ys, data.y()[skip..at]);
                        per_path.push(blocks);
                    }
                }
                let (owned, lent) = per_path.split_at(3);
                assert_eq!(owned, lent, "max_rows {max_rows}, segment {skip}+{len}");
            }
        }
    }

    #[test]
    fn take_rows_segments_replay_the_stream_byte_for_byte() {
        let data = numbered(41);
        let parts = cut(&data, &[6, 1, 30, 4]);
        let segments = [3usize, 8, 1, 13, 12, 4];
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for max_rows in [1usize, 5, 64] {
            let mem = InMemorySource::new(&data);
            let sharded =
                ShardedSource::new(parts.iter().map(InMemorySource::new).collect()).unwrap();
            let sources: Vec<Box<dyn RowSource + '_>> =
                vec![Box::new(mem), Box::new(sharded), Box::new(csv_of(&data))];
            for mut src in sources {
                let (mut xs, mut ys) = (Vec::new(), Vec::new());
                for &len in &segments {
                    let (sx, sy) = drain_visitor(&mut TakeRows::new(&mut src, len), max_rows);
                    assert_eq!(sy.len(), len);
                    xs.extend(bits(&sx));
                    ys.extend(bits(&sy));
                }
                assert_eq!(xs, bits(data.x().as_slice()), "max_rows {max_rows}");
                assert_eq!(ys, bits(data.y()), "max_rows {max_rows}");
                assert!(src.next_block(1).unwrap().is_none());
            }
        }
    }

    #[test]
    fn take_rows_keeps_the_in_shard_attribution_of_a_sharded_source() {
        let data = numbered(30);
        let parts = cut(&data, &[7, 11, 12]);
        // Row 21 (the 4th of shard 2, so in its second 3-row block) fails
        // the consumer's row check.
        let bad_label = data.y()[21];
        let drain = |src: &mut dyn RowSource| {
            src.for_each_block(3, &mut |b| {
                if b.ys().contains(&bad_label) {
                    Err(DataError::NotNormalized {
                        detail: "‖x‖₂ > 1".to_string(),
                    })
                } else {
                    Ok(())
                }
            })
            .unwrap_err()
        };
        let make = || ShardedSource::new(parts.iter().map(InMemorySource::new).collect()).unwrap();
        let bare = drain(&mut make());
        let capped = drain(&mut TakeRows::new(make(), 30));
        for err in [&bare, &capped] {
            assert!(
                matches!(err, DataError::InShard { shard, block: 1, .. } if shard == "shard-2"),
                "{err}"
            );
        }
        assert_eq!(bare.to_string(), capped.to_string());

        // A transport error of a copying shard keeps its attribution too.
        let bad_csv = "a,b,label\n0.1,0.2,1.0\n0.3,0.1,2.0\n0.0,oops,0.0\n";
        let make = || {
            let shards = vec![
                csv_of(&parts[0]),
                CsvStreamSource::from_reader(std::io::Cursor::new(bad_csv.to_string())).unwrap(),
            ];
            ShardedSource::new(shards).unwrap()
        };
        let bare = make().for_each_block(2, &mut |_| Ok(())).unwrap_err();
        let capped = TakeRows::new(make(), 100)
            .for_each_block(2, &mut |_| Ok(()))
            .unwrap_err();
        assert!(
            matches!(&bare, DataError::InShard { shard, block: 1, .. } if shard == "shard-1"),
            "{bare}"
        );
        assert_eq!(bare.to_string(), capped.to_string());
    }

    #[test]
    fn provenanced_source_attributes_errors_and_passes_rows_through() {
        let data = small();
        // Pass-through: identical rows, identical hints, handoff intact.
        let mut src = ProvenancedSource::new(InMemorySource::new(&data), "client-2");
        assert_eq!(src.label(), "client-2");
        assert_eq!(src.hint_rows(), Some(5));
        let (xs, ys) = drain_visitor(&mut src, 2);
        assert_eq!(xs, data.x().as_slice());
        assert_eq!(ys, data.y());
        let mut fresh = ProvenancedSource::new(InMemorySource::new(&data), "client-2");
        assert!(fresh.take_dataset().is_some());

        // A visitor (consumer-side) error is attributed to the label and
        // the failing block's index.
        let mut src = ProvenancedSource::new(InMemorySource::new(&data), "client-7");
        let mut blocks = 0usize;
        let err = src
            .for_each_block(2, &mut |_b| {
                blocks += 1;
                if blocks == 2 {
                    Err(DataError::NotNormalized {
                        detail: "‖x‖₂ > 1".to_string(),
                    })
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        match err {
            DataError::InShard { shard, block, .. } => {
                assert_eq!(shard, "client-7");
                assert_eq!(block, 1);
            }
            other => panic!("expected InShard, got {other}"),
        }

        // A transport error from the wrapped source gets the same wrap on
        // the owned-block path.
        let csv = CsvStreamSource::from_reader(std::io::Cursor::new(
            "a,b,y\n0.1,0.2,1.0\n0.3,not-a-number,0.0\n",
        ))
        .unwrap();
        let mut src = ProvenancedSource::new(csv, "client-9");
        let first = src.next_block(1).unwrap();
        assert!(first.is_some());
        let err = src.next_block(1).unwrap_err();
        match err {
            DataError::InShard { shard, block, .. } => {
                assert_eq!(shard, "client-9");
                assert_eq!(block, 1);
            }
            other => panic!("expected InShard, got {other}"),
        }
    }

    #[test]
    fn csv_non_finite_fields_are_row_errors() {
        let csv = "a,b,label\nNaN,0.3,0.0\n0.4,inf,2.0\n0.5,0.6,1.0\n0.1,0.2,-infinity\n";
        let mut lax = CsvStreamSource::from_reader(csv.as_bytes())
            .unwrap()
            .with_row_error_policy(RowErrorPolicy::SkipUpTo(5));
        assert_eq!(materialize(&mut lax).unwrap().y(), &[1.0]);
        let lines: Vec<usize> = lax.quarantine().iter().map(|q| q.line).collect();
        assert_eq!(lines, [2, 3, 5]);
        assert!(lax.quarantine()[0]
            .reason
            .contains("`NaN` is not a finite number"));
        // Header-keyed columns: selected fields are checked, skipped ones
        // are not parsed at all.
        let csv = "junk,b,a,label\nhello,NaN,0.1,0.0\ninf,0.2,0.3,-inf\nnan,0.2,0.3,1.0\n";
        let mut lax = CsvStreamSource::from_reader(csv.as_bytes())
            .unwrap()
            .select_columns(&["a", "b"], "label")
            .unwrap()
            .with_row_error_policy(RowErrorPolicy::SkipUpTo(5));
        assert_eq!(materialize(&mut lax).unwrap().x().as_slice(), &[0.3, 0.2]);
        let lines: Vec<usize> = lax.quarantine().iter().map(|q| q.line).collect();
        assert_eq!(lines, [2, 3]);
        assert!(lax.quarantine()[1].reason.contains("field 4: `-inf`"));
        // A NaN no longer slips past the normalizer's clamp.
        let norm = Normalizer::from_bounds(vec![(0.0, 1.0); 2], (0.0, 1.0)).unwrap();
        let mut strict = CsvStreamSource::from_reader("a,b,label\n0.5,NaN,0.5\n".as_bytes())
            .unwrap()
            .with_normalizer(norm, LabelTransform::Linear)
            .unwrap();
        assert!(matches!(
            strict.next_block(8),
            Err(DataError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn csv_header_byte_order_mark_is_not_part_of_a_name() {
        let csv = "\u{feff}a,b,label\n0.1,0.2,1.0\n";
        let src = CsvStreamSource::from_reader(csv.as_bytes()).unwrap();
        assert_eq!(src.feature_names(), ["a", "b"]);
        assert_eq!(src.header(), ["a", "b", "label"]);
        let mut src = src.select_columns(&["a", "b"], "label").unwrap();
        assert_eq!(materialize(&mut src).unwrap().y(), &[1.0]);
        let read = crate::csv::read_dataset_from(csv.as_bytes()).unwrap();
        assert_eq!(read.feature_names(), ["a", "b"]);
    }
}
