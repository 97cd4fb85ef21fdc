//! The [`Dataset`] type: an `n × d` feature matrix with labels.

use fm_linalg::{vecops, Matrix};

use crate::{DataError, Result};

/// Slack allowed on the `‖x‖₂ ≤ 1` check; normalization is exact up to
/// floating-point rounding.
const NORM_TOL: f64 = 1e-9;

/// A regression dataset `D = {t_i = (x_i, y_i)}` (paper Section 3).
///
/// `x` is `n × d` (one row per tuple), `y` has length `n`. Feature names
/// are carried for experiment reporting and attribute-subset selection;
/// they are optional semantics, not part of equality.
#[derive(Debug)]
pub struct Dataset {
    x: Matrix,
    y: Vec<f64>,
    feature_names: Vec<String>,
    /// Lazily-built column-major view of `x` (the `d × n` transpose),
    /// shared by every fit on this dataset — see [`Dataset::columnar`].
    xt: std::sync::OnceLock<Matrix>,
    /// How many coefficient-assembly passes this dataset has served —
    /// the reuse signal behind [`Dataset::columnar_on_reuse`].
    scans: std::sync::atomic::AtomicU32,
    /// Lazily-built intercept augmentation (`x' = (x/√2, 1/√2)`), shared by
    /// every intercept fit on this dataset — see
    /// [`Dataset::augmented_for_intercept_cached`]. Boxed so the type can
    /// refer to itself.
    aug: std::sync::OnceLock<Box<Dataset>>,
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Dataset {
            x: self.x.clone(),
            y: self.y.clone(),
            feature_names: self.feature_names.clone(),
            xt: self.xt.clone(),
            scans: std::sync::atomic::AtomicU32::new(
                self.scans.load(std::sync::atomic::Ordering::Relaxed),
            ),
            aug: self.aug.clone(),
        }
    }
}

impl Dataset {
    /// Creates a dataset, validating that shapes line up.
    ///
    /// # Errors
    /// * [`DataError::LengthMismatch`] when `x.rows() != y.len()`.
    /// * [`DataError::EmptyDataset`] for zero rows or zero columns.
    pub fn new(x: Matrix, y: Vec<f64>) -> Result<Self> {
        if x.rows() != y.len() {
            return Err(DataError::LengthMismatch {
                rows: x.rows(),
                labels: y.len(),
            });
        }
        if x.rows() == 0 || x.cols() == 0 {
            return Err(DataError::EmptyDataset);
        }
        let feature_names = (0..x.cols()).map(|j| format!("x{j}")).collect();
        Ok(Dataset {
            x,
            y,
            feature_names,
            xt: std::sync::OnceLock::new(),
            scans: std::sync::atomic::AtomicU32::new(0),
            aug: std::sync::OnceLock::new(),
        })
    }

    /// Creates a dataset with explicit feature names.
    ///
    /// # Errors
    /// As [`Dataset::new`], plus [`DataError::InvalidParameter`] when the
    /// name count differs from the column count.
    pub fn with_names(x: Matrix, y: Vec<f64>, names: Vec<String>) -> Result<Self> {
        if names.len() != x.cols() {
            return Err(DataError::InvalidParameter {
                name: "names",
                reason: format!("{} names for {} columns", names.len(), x.cols()),
            });
        }
        let mut ds = Dataset::new(x, y)?;
        ds.feature_names = names;
        Ok(ds)
    }

    /// Number of tuples `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.y.len()
    }

    /// Number of features `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.x.cols()
    }

    /// The feature matrix.
    #[must_use]
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The label vector.
    #[must_use]
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// The cached column-major view of the feature block: the `d × n`
    /// transpose of [`Dataset::x`], built on first use and reused by every
    /// subsequent call — row `j` of the returned matrix is feature column
    /// `j`, stored contiguously.
    ///
    /// This is what lets repeated fits on the same dataset (the paper's 50
    /// repeats × 5 folds protocol, ε-sweeps, error-vs-budget averaging)
    /// amortize the transpose that coefficient assembly otherwise re-does
    /// per call: the Gram kernels (`XᵀX`, `Xᵀy`, `Σx`) read these
    /// contiguous columns directly instead of packing row-major chunks
    /// into column panels every time. The view costs one extra `n·d` block
    /// of memory and is only materialised when something asks for it.
    #[must_use]
    pub fn columnar(&self) -> &Matrix {
        self.xt.get_or_init(|| self.x.transpose())
    }

    /// The columnar view, but only once this dataset is demonstrably
    /// *reused*: returns the cache when it is already built, or builds it
    /// from the second assembly pass onward; the very first pass over a
    /// fresh dataset gets `None`.
    ///
    /// This is the policy coefficient assembly consults. A one-shot fit
    /// (a CV fold's training split, an intercept-augmented copy) never
    /// pays the `n·d` transpose allocation; repeat workloads — the
    /// paper's 50-repeats protocol on the same split, ε-sweeps, bench
    /// loops — amortize it automatically from the second fit on. Since
    /// the columnar and row-major kernels are bit-identical, which branch
    /// a given pass takes can never perturb assembled coefficients.
    #[must_use]
    pub fn columnar_on_reuse(&self) -> Option<&Matrix> {
        if let Some(xt) = self.xt.get() {
            return Some(xt);
        }
        if self
            .scans
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            > 0
        {
            Some(self.columnar())
        } else {
            None
        }
    }

    /// Feature names, in column order.
    #[must_use]
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The `i`-th tuple `(x_i, y_i)`. Panics on out-of-bounds `i` (mirrors
    /// slice indexing).
    #[must_use]
    pub fn tuple(&self, i: usize) -> (&[f64], f64) {
        (self.x.row(i), self.y[i])
    }

    /// Iterates over `(x_i, y_i)` pairs.
    pub fn tuples(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        (0..self.n()).map(move |i| self.tuple(i))
    }

    /// Builds a new dataset from the rows at `indices` (duplicates allowed —
    /// this is what bootstap-style samplers need).
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] if any index is out of range;
    /// [`DataError::EmptyDataset`] for an empty selection.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        if indices.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.n()) {
            return Err(DataError::InvalidParameter {
                name: "indices",
                reason: format!("row {bad} out of range for n = {}", self.n()),
            });
        }
        let d = self.d();
        let mut data = Vec::with_capacity(indices.len() * d);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.x.row(i));
            y.push(self.y[i]);
        }
        let x = Matrix::from_vec(indices.len(), d, data)?;
        Dataset::with_names(x, y, self.feature_names.clone())
    }

    /// Builds a new dataset keeping only the named feature columns, in the
    /// order given — the paper's attribute-subset experiments (Figure 4).
    ///
    /// # Errors
    /// [`DataError::UnknownAttribute`] for an unmatched name.
    pub fn select_features(&self, names: &[&str]) -> Result<Dataset> {
        let cols: Vec<usize> = names
            .iter()
            .map(|&want| {
                self.feature_names
                    .iter()
                    .position(|have| have == want)
                    .ok_or_else(|| DataError::UnknownAttribute {
                        name: want.to_string(),
                    })
            })
            .collect::<Result<_>>()?;
        if cols.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        let n = self.n();
        let x = Matrix::from_fn(n, cols.len(), |r, c| self.x[(r, cols[c])]);
        Dataset::with_names(
            x,
            self.y.clone(),
            names.iter().map(|s| s.to_string()).collect(),
        )
    }

    /// Verifies the paper's linear-regression input contract:
    /// `‖x_i‖₂ ≤ 1` and `y_i ∈ [−1, 1]` (Definition 1).
    ///
    /// # Errors
    /// [`DataError::NotNormalized`] naming the first violating tuple.
    pub fn check_normalized_linear(&self) -> Result<()> {
        check_rows_normalized_linear(self.x.as_slice(), &self.y, self.d())
    }

    /// Verifies the logistic-regression input contract: `‖x_i‖₂ ≤ 1` and
    /// `y_i ∈ {0, 1}` (Definition 2).
    ///
    /// # Errors
    /// [`DataError::NotNormalized`] naming the first violating tuple.
    pub fn check_normalized_logistic(&self) -> Result<()> {
        check_rows_normalized_logistic(self.x.as_slice(), &self.y, self.d())
    }

    /// Verifies the count-regression (Poisson) input contract:
    /// `‖x_i‖₂ ≤ 1` and `y_i ∈ [0, y_max]` — the bounded-label condition DP
    /// Poisson regression needs for a finite, data-independent sensitivity.
    ///
    /// # Errors
    /// [`DataError::NotNormalized`] naming the first violating tuple, or
    /// [`DataError::InvalidParameter`] for a non-positive/non-finite cap.
    pub fn check_normalized_counts(&self, y_max: f64) -> Result<()> {
        check_rows_normalized_counts(self.x.as_slice(), &self.y, self.d(), y_max)
    }

    /// The maximum `‖x_i‖₂` over all tuples (diagnostics).
    #[must_use]
    pub fn max_feature_norm(&self) -> f64 {
        self.tuples()
            .map(|(x, _)| vecops::norm2(x))
            .fold(0.0, f64::max)
    }

    /// The intercept-model reduction of the paper's footnote 2: maps each
    /// row to `x' = (x/√2, 1/√2)`, so that fitting a plain `d+1`-dimensional
    /// model on the result is equivalent to fitting
    /// `argmin_{ω, b} Σ f(y_i, x_iᵀω + b)` on the original data.
    ///
    /// The `1/√2` scaling keeps the normalized-domain contract intact:
    /// `‖x'‖₂² = ‖x‖₂²/2 + 1/2 ≤ 1` whenever `‖x‖₂ ≤ 1`, so the augmented
    /// dataset is directly consumable by the Functional Mechanism with the
    /// standard sensitivity bound at dimension `d+1`. The fitted augmented
    /// weights `ω'` map back as `ω_j = ω'_j/√2` and `b = ω'_d/√2` (the
    /// regression front-ends do this automatically).
    #[must_use]
    pub fn augment_for_intercept(&self) -> Dataset {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let d = self.d();
        let x = Matrix::from_fn(self.n(), d + 1, |r, c| {
            if c < d {
                self.x[(r, c)] * inv_sqrt2
            } else {
                inv_sqrt2
            }
        });
        let mut names = self.feature_names.clone();
        names.push("(intercept)".to_string());
        Dataset::with_names(x, self.y.clone(), names)
            .expect("augmented shapes are valid by construction")
    }

    /// The cached intercept augmentation of this dataset, built on first
    /// use and shared by every subsequent intercept fit.
    ///
    /// Semantically identical to [`Dataset::augment_for_intercept`] (same
    /// elementwise `x·(1/√2)` arithmetic, so fitted coefficients are
    /// bit-identical either way); the difference is amortization. Because
    /// one augmented `Dataset` instance now serves *all* intercept fits on
    /// this data, its scan counter accumulates across fits and its own
    /// columnar cache ([`Dataset::columnar_on_reuse`]) unlocks from the
    /// second intercept fit onward — including fits entering through the
    /// streaming entry points, which previously re-augmented per call and
    /// therefore never left the row-major visitor rate.
    #[must_use]
    pub fn augmented_for_intercept_cached(&self) -> &Dataset {
        self.aug
            .get_or_init(|| Box::new(self.augment_for_intercept()))
    }
}

/// The squared norm bound the row checks compare against. Validation is
/// on the hot streaming path (every absorbed block runs it before the
/// Gram kernels), so the per-row check compares **squared** norms — no
/// per-row `sqrt` — against this constant;
/// `‖x‖₂ ≤ 1 + NORM_TOL  ⟺  ‖x‖₂² ≤ (1 + NORM_TOL)²` exactly, for any
/// non-negative finite value. The `sqrt` is only taken on the error path,
/// to report the offending norm in the units the contract states.
const NORM_SQ_MAX: f64 = (1.0 + NORM_TOL) * (1.0 + NORM_TOL);

/// Squared row norm with two independent accumulators, halving the
/// floating-point dependency chain the plain `dot(x, x)` would serialise
/// on — validation arithmetic only, never part of released coefficients.
#[inline]
fn sq_norm(x: &[f64]) -> f64 {
    let mut a0 = 0.0_f64;
    let mut a1 = 0.0_f64;
    let mut chunks = x.chunks_exact(2);
    for c in &mut chunks {
        a0 += c[0] * c[0];
        a1 += c[1] * c[1];
    }
    if let [v] = chunks.remainder() {
        a0 += v * v;
    }
    a0 + a1
}

/// Rows per range of the contract scan. An input of at most one range —
/// every chunk-sized streamed block — is scanned on the calling thread;
/// a longer one (an in-memory dataset, a zero-copy window of chunks) is
/// split into ranges of this many rows whose counts are summed on rayon
/// under the `parallel` feature. Fixed, so which ranges a row falls in
/// never depends on the worker count.
const SCAN_RANGE_ROWS: usize = 16_384;

/// The branchless bulk scan behind the three contract checks: counts
/// violating rows (norm or label) without any per-row branch, so the
/// common all-clean case pipelines across rows. NaNs count as violations
/// (every comparison with them is false) — which is exactly why the check
/// is the negated `<=` rather than a `>` or a `partial_cmp`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn count_range(xs: &[f64], ys: &[f64], d: usize, y_ok: &impl Fn(f64) -> bool) -> usize {
    let mut bad = 0usize;
    for (x, &y) in xs.chunks_exact(d).zip(ys) {
        bad += usize::from(!(sq_norm(x) <= NORM_SQ_MAX)) + usize::from(!y_ok(y));
    }
    bad
}

/// [`count_range`] over the whole input in [`SCAN_RANGE_ROWS`] ranges,
/// scanned in parallel when the `parallel` feature is on and there is
/// more than one. The counts are integers, so the sum is the same in any
/// order.
fn count_violations(xs: &[f64], ys: &[f64], d: usize, y_ok: impl Fn(f64) -> bool + Sync) -> usize {
    let ranges = ys.len().div_ceil(SCAN_RANGE_ROWS);
    let count = |r: usize| {
        let lo = r * SCAN_RANGE_ROWS;
        let hi = (lo + SCAN_RANGE_ROWS).min(ys.len());
        count_range(&xs[lo * d..hi * d], &ys[lo..hi], d, &y_ok)
    };
    #[cfg(feature = "parallel")]
    if ranges > 1 {
        use rayon::prelude::*;
        let counts: Vec<usize> = (0..ranges).into_par_iter().map(count).collect();
        return counts.into_iter().sum();
    }
    (0..ranges).map(count).sum()
}

/// Refuses a row-major block that is not `k × d` with `d ≥ 1`,
/// `k = ys.len()` — the shape every block consumer walks `xs` in: the
/// contract scans below zip `d`-wide rows with `ys`, so a longer `ys`
/// would go unchecked, and `d = 0` has no rows to walk.
///
/// # Errors
/// * [`DataError::InvalidParameter`] for `d = 0`.
/// * [`DataError::LengthMismatch`] unless `xs.len() == ys.len()·d`.
pub fn check_shape(xs: &[f64], ys: &[f64], d: usize) -> Result<()> {
    if d == 0 {
        return Err(DataError::InvalidParameter {
            name: "d",
            reason: "a row block needs at least one feature column".to_string(),
        });
    }
    if ys.len().checked_mul(d) != Some(xs.len()) {
        return Err(DataError::LengthMismatch {
            rows: xs.len() / d,
            labels: ys.len(),
        });
    }
    Ok(())
}

/// The cold path: re-scans to name the first violating tuple (the scan is
/// deterministic, so a counted violation is always found).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // negated `<=` so NaN fails
fn locate_violation(
    xs: &[f64],
    ys: &[f64],
    d: usize,
    y_ok: impl Fn(f64) -> bool,
    y_err: impl Fn(usize, f64) -> DataError,
) -> DataError {
    for (i, (x, &y)) in xs.chunks_exact(d).zip(ys).enumerate() {
        let norm_sq = sq_norm(x);
        if !(norm_sq <= NORM_SQ_MAX) {
            return DataError::NotNormalized {
                detail: format!("‖x_{i}‖₂ = {} > 1", norm_sq.sqrt()),
            };
        }
        if !y_ok(y) {
            return y_err(i, y);
        }
    }
    unreachable!("a counted contract violation must be locatable")
}

/// Verifies the linear-regression contract (`‖x_i‖₂ ≤ 1`, `y_i ∈ [−1, 1]`,
/// Definition 1) over a row-major `k × d` block — the per-block form
/// streaming ingestion validates without materializing a [`Dataset`].
/// Tuple indices in error messages are block-local.
///
/// # Errors
/// * [`DataError::NotNormalized`] naming the first violating tuple.
/// * [`DataError::InvalidParameter`] for `d = 0`, and
///   [`DataError::LengthMismatch`] unless `xs.len() == ys.len()·d`.
pub fn check_rows_normalized_linear(xs: &[f64], ys: &[f64], d: usize) -> Result<()> {
    check_shape(xs, ys, d)?;
    let y_ok = |y: f64| (-1.0 - NORM_TOL..=1.0 + NORM_TOL).contains(&y);
    if count_violations(xs, ys, d, y_ok) == 0 {
        return Ok(());
    }
    Err(locate_violation(xs, ys, d, y_ok, |i, y| {
        DataError::NotNormalized {
            detail: format!("y_{i} = {y} outside [−1, 1]"),
        }
    }))
}

/// Verifies the logistic-regression contract (`‖x_i‖₂ ≤ 1`, `y_i ∈ {0, 1}`,
/// Definition 2) over a row-major block; see
/// [`check_rows_normalized_linear`].
///
/// # Errors
/// As [`check_rows_normalized_linear`].
pub fn check_rows_normalized_logistic(xs: &[f64], ys: &[f64], d: usize) -> Result<()> {
    check_shape(xs, ys, d)?;
    let y_ok = |y: f64| y == 0.0 || y == 1.0;
    if count_violations(xs, ys, d, y_ok) == 0 {
        return Ok(());
    }
    Err(locate_violation(xs, ys, d, y_ok, |i, y| {
        DataError::NotNormalized {
            detail: format!("y_{i} = {y} not in {{0, 1}}"),
        }
    }))
}

/// Verifies the bounded-count contract (`‖x_i‖₂ ≤ 1`, `y_i ∈ [0, y_max]`)
/// over a row-major block; see [`check_rows_normalized_linear`].
///
/// # Errors
/// As [`check_rows_normalized_linear`], plus
/// [`DataError::InvalidParameter`] for a non-positive/non-finite cap.
pub fn check_rows_normalized_counts(xs: &[f64], ys: &[f64], d: usize, y_max: f64) -> Result<()> {
    if !y_max.is_finite() || y_max <= 0.0 {
        return Err(DataError::InvalidParameter {
            name: "y_max",
            reason: format!("{y_max} must be finite and > 0"),
        });
    }
    check_shape(xs, ys, d)?;
    let y_ok = |y: f64| (0.0..=y_max + NORM_TOL).contains(&y);
    if count_violations(xs, ys, d, y_ok) == 0 {
        return Ok(());
    }
    Err(locate_violation(xs, ys, d, y_ok, |i, y| {
        DataError::NotNormalized {
            detail: format!("y_{i} = {y} outside [0, {y_max}]"),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let x = Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6]]).unwrap();
        Dataset::new(x, vec![1.0, 0.0, 1.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let ds = small();
        assert_eq!(ds.n(), 3);
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.tuple(1), (&[0.3, 0.4][..], 0.0));
        assert_eq!(ds.feature_names(), &["x0".to_string(), "x1".to_string()]);
        assert_eq!(ds.tuples().count(), 3);
    }

    #[test]
    fn validation_errors() {
        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(matches!(
            Dataset::new(x.clone(), vec![1.0, 2.0]),
            Err(DataError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(Matrix::zeros(0, 2), vec![]),
            Err(DataError::EmptyDataset)
        ));
        assert!(Dataset::with_names(x, vec![1.0], vec!["a".into(), "b".into()]).is_err());
    }

    #[test]
    fn subset_selects_rows() {
        let ds = small();
        let sub = ds.subset(&[2, 0]).unwrap();
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.tuple(0), (&[0.5, 0.6][..], 1.0));
        assert_eq!(sub.tuple(1), (&[0.1, 0.2][..], 1.0));
        // Duplicates are allowed.
        assert_eq!(ds.subset(&[1, 1, 1]).unwrap().n(), 3);
        // Bad index rejected.
        assert!(ds.subset(&[3]).is_err());
        assert!(matches!(ds.subset(&[]), Err(DataError::EmptyDataset)));
    }

    #[test]
    fn select_features_reorders_columns() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let ds =
            Dataset::with_names(x, vec![0.5], vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let sel = ds.select_features(&["c", "a"]).unwrap();
        assert_eq!(sel.d(), 2);
        assert_eq!(sel.tuple(0).0, &[3.0, 1.0]);
        assert_eq!(sel.feature_names(), &["c".to_string(), "a".to_string()]);
        assert!(matches!(
            ds.select_features(&["nope"]),
            Err(DataError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn linear_normalization_contract() {
        let ds = small();
        ds.check_normalized_linear().unwrap();

        let big_x = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let bad = Dataset::new(big_x, vec![0.0]).unwrap();
        assert!(matches!(
            bad.check_normalized_linear(),
            Err(DataError::NotNormalized { .. })
        ));

        let ok_x = Matrix::from_rows(&[&[0.5, 0.5]]).unwrap();
        let bad_y = Dataset::new(ok_x, vec![2.0]).unwrap();
        assert!(bad_y.check_normalized_linear().is_err());
    }

    #[test]
    fn logistic_normalization_contract() {
        let ds = small();
        ds.check_normalized_logistic().unwrap();

        let x = Matrix::from_rows(&[&[0.5, 0.5]]).unwrap();
        let bad = Dataset::new(x, vec![0.5]).unwrap();
        assert!(matches!(
            bad.check_normalized_logistic(),
            Err(DataError::NotNormalized { .. })
        ));
    }

    #[test]
    fn columnar_view_is_exact_transpose_and_cached() {
        let ds = small();
        let xt = ds.columnar();
        assert_eq!(xt.rows(), ds.d());
        assert_eq!(xt.cols(), ds.n());
        for r in 0..ds.n() {
            for c in 0..ds.d() {
                assert_eq!(xt[(c, r)], ds.x()[(r, c)], "bit-exact transpose");
            }
        }
        // Repeated calls return the same cached allocation, not a rebuild.
        assert!(std::ptr::eq(ds.columnar(), xt));
    }

    #[test]
    fn columnar_on_reuse_waits_for_a_second_pass() {
        let ds = small();
        // First pass: no cache yet — the one-shot case stays row-major.
        assert!(ds.columnar_on_reuse().is_none());
        // Second pass: the reuse signal fires and the cache materialises.
        let xt = ds.columnar_on_reuse().expect("built on reuse");
        assert_eq!(xt.rows(), ds.d());
        // Once built, every pass gets the same cached view.
        assert!(std::ptr::eq(ds.columnar_on_reuse().unwrap(), xt));
        // An explicitly warmed dataset serves the view from pass one.
        let warm = small();
        let _ = warm.columnar();
        assert!(warm.columnar_on_reuse().is_some());
        // A clone carries the warmed cache along.
        assert!(warm.clone().columnar_on_reuse().is_some());
    }

    #[test]
    fn max_feature_norm_reports_worst_row() {
        let x = Matrix::from_rows(&[&[0.0, 0.1], &[0.6, 0.8]]).unwrap();
        let ds = Dataset::new(x, vec![0.0, 0.0]).unwrap();
        assert!((ds.max_feature_norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_normalization_contract() {
        let x = Matrix::from_rows(&[&[0.5, 0.5], &[0.1, 0.0]]).unwrap();
        let ds = Dataset::new(x, vec![3.0, 0.0]).unwrap();
        ds.check_normalized_counts(8.0).unwrap();
        // Over the cap.
        assert!(ds.check_normalized_counts(2.0).is_err());
        // Negative counts rejected.
        let x2 = Matrix::from_rows(&[&[0.1, 0.1]]).unwrap();
        let neg = Dataset::new(x2, vec![-1.0]).unwrap();
        assert!(matches!(
            neg.check_normalized_counts(8.0),
            Err(DataError::NotNormalized { .. })
        ));
        // Bad cap rejected.
        assert!(matches!(
            ds.check_normalized_counts(0.0),
            Err(DataError::InvalidParameter { .. })
        ));
        assert!(ds.check_normalized_counts(f64::INFINITY).is_err());
    }

    #[test]
    fn row_checks_refuse_mis_shaped_blocks() {
        // One feature for two labels: the out-of-contract second label
        // must not slip past the row walk.
        assert!(matches!(
            check_rows_normalized_linear(&[0.1], &[0.5, 9.0], 1),
            Err(DataError::LengthMismatch { rows: 1, labels: 2 })
        ));
        assert!(matches!(
            check_rows_normalized_logistic(&[], &[1.0], 0),
            Err(DataError::InvalidParameter { name: "d", .. })
        ));
        assert!(matches!(
            check_rows_normalized_counts(&[0.1, 0.2, 0.3], &[1.0], 2, 4.0),
            Err(DataError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn the_range_split_scan_finds_violations_in_every_range() {
        let d = 2;
        // Three full ranges and a short last one.
        let n = 3 * SCAN_RANGE_ROWS + 17;
        let xs: Vec<f64> = (0..n * d).map(|i| (i % 7) as f64 * 0.05).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.2 - 0.4).collect();
        check_rows_normalized_linear(&xs, &ys, d).unwrap();
        let linear = |xs: &[f64], ys: &[f64]| {
            check_rows_normalized_linear(xs, ys, d)
                .unwrap_err()
                .to_string()
        };
        let not_normalized = |detail: String| DataError::NotNormalized { detail }.to_string();

        for range in 0..4 {
            let i = range * SCAN_RANGE_ROWS + 11;
            let mut bad_x = xs.clone();
            bad_x[i * d..(i + 1) * d].copy_from_slice(&[3.0, 4.0]);
            assert_eq!(
                linear(&bad_x, &ys),
                not_normalized(format!("‖x_{i}‖₂ = 5 > 1"))
            );
            let mut bad_y = ys.clone();
            bad_y[i] = 2.0;
            assert_eq!(
                linear(&xs, &bad_y),
                not_normalized(format!("y_{i} = 2 outside [−1, 1]"))
            );
        }

        // NaN in the very last row.
        let mut nan = xs.clone();
        nan[(n - 1) * d] = f64::NAN;
        assert_eq!(
            linear(&nan, &ys),
            not_normalized(format!("‖x_{}‖₂ = NaN > 1", n - 1))
        );

        // Two violations in different ranges: both are counted, and the
        // error names the first.
        let mut two = ys.clone();
        two[2 * SCAN_RANGE_ROWS + 5] = -3.0;
        two[SCAN_RANGE_ROWS + 9] = 1.5;
        let y_ok = |y: f64| (-1.0..=1.0).contains(&y);
        assert_eq!(count_violations(&xs, &two, d, y_ok), 2);
        assert_eq!(
            linear(&xs, &two),
            not_normalized(format!("y_{} = 1.5 outside [−1, 1]", SCAN_RANGE_ROWS + 9))
        );
    }

    #[test]
    fn augment_for_intercept_preserves_contract() {
        // Worst case: a unit-norm row must stay inside the ball.
        let x = Matrix::from_rows(&[&[0.6, 0.8], &[0.0, 0.0]]).unwrap();
        let ds = Dataset::new(x, vec![1.0, 0.0]).unwrap();
        let aug = ds.augment_for_intercept();
        assert_eq!(aug.d(), 3);
        assert_eq!(aug.n(), 2);
        aug.check_normalized_logistic().unwrap();
        assert!((aug.max_feature_norm() - 1.0).abs() < 1e-12);
        // The appended coordinate is constant 1/√2.
        let c = std::f64::consts::FRAC_1_SQRT_2;
        assert!((aug.tuple(0).0[2] - c).abs() < 1e-15);
        assert!((aug.tuple(1).0[2] - c).abs() < 1e-15);
        // Labels and names carried through.
        assert_eq!(aug.y(), ds.y());
        assert_eq!(aug.feature_names()[2], "(intercept)");
    }

    #[test]
    fn augmented_cache_is_shared_and_matches_fresh_augmentation() {
        let x = Matrix::from_rows(&[&[0.6, 0.8], &[0.0, 0.0]]).unwrap();
        let ds = Dataset::new(x, vec![1.0, 0.0]).unwrap();
        let a1: *const Dataset = ds.augmented_for_intercept_cached();
        let a2: *const Dataset = ds.augmented_for_intercept_cached();
        assert_eq!(a1, a2, "cache must hand out one shared instance");
        let cached = ds.augmented_for_intercept_cached();
        let fresh = ds.augment_for_intercept();
        assert_eq!(cached.x().as_slice(), fresh.x().as_slice());
        assert_eq!(cached.y(), fresh.y());
        assert_eq!(cached.feature_names(), fresh.feature_names());
        // The shared instance accumulates scans, so its columnar kernel
        // unlocks on reuse; a fresh augmentation never would.
        assert!(cached.columnar_on_reuse().is_none());
        assert!(cached.columnar_on_reuse().is_some());
    }

    #[test]
    fn augment_is_prediction_equivalent() {
        // x'ᵀω' with ω' = √2·(ω, b) equals xᵀω + b.
        let x = Matrix::from_rows(&[&[0.3, -0.2]]).unwrap();
        let ds = Dataset::new(x, vec![0.0]).unwrap();
        let aug = ds.augment_for_intercept();
        let (omega, b) = (vec![0.7, -0.4], 0.25);
        let mut omega_aug: Vec<f64> = omega.iter().map(|w| w * std::f64::consts::SQRT_2).collect();
        omega_aug.push(b * std::f64::consts::SQRT_2);
        let lhs = vecops::dot(aug.tuple(0).0, &omega_aug);
        let rhs = vecops::dot(ds.tuple(0).0, &omega) + b;
        assert!((lhs - rhs).abs() < 1e-12);
    }
}
