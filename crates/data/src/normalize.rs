//! The paper's preprocessing (footnote 1 and Definitions 1–2).
//!
//! *Features:* each attribute `X_j` with domain `[α_j, β_j]` is mapped by
//! `x_ij ← (x_ij − α_j) / ((β_j − α_j)·√d)`, which puts every coordinate in
//! `[0, 1/√d]` and therefore guarantees `‖x_i‖₂ ≤ 1` — the assumption all
//! of the paper's sensitivity bounds (`Δ = 2(d+1)²`, `Δ = d²/4 + 3d`) rest
//! on.
//!
//! *Labels:* linear regression assumes `Y ∈ [−1, 1]` (Definition 1), so the
//! label domain `[α_y, β_y]` is mapped affinely onto `[−1, 1]`; predictions
//! can be mapped back for reporting in original units. Logistic regression
//! assumes `Y ∈ {0, 1}` (Definition 2); Section 7 derives the label by
//! thresholding Annual Income, which [`Normalizer::binarize_labels`]
//! reproduces.
//!
//! Bounds come from the [`Schema`] (the declared attribute domains), *not*
//! from the data: a data-dependent map would itself leak information and
//! break the ε-DP guarantee of downstream mechanisms.

use fm_linalg::Matrix;

use crate::dataset::Dataset;
use crate::schema::Schema;
use crate::{DataError, Result};

/// A fitted feature/label normalizer.
#[derive(Debug, Clone)]
pub struct Normalizer {
    /// Per-feature `(α_j, β_j)` domain bounds.
    feature_bounds: Vec<(f64, f64)>,
    /// Label domain `(α_y, β_y)` for the linear-regression map.
    label_bounds: (f64, f64),
}

impl Normalizer {
    /// Builds a normalizer from a schema: every attribute except `label` is
    /// treated as a feature (in schema order), `label` supplies the label
    /// bounds.
    ///
    /// # Errors
    /// * [`DataError::UnknownAttribute`] if `label` is absent.
    /// * [`DataError::InvalidParameter`] for degenerate domains
    ///   (`β_j ≤ α_j`).
    pub fn from_schema(schema: &Schema, label: &str) -> Result<Self> {
        let label_attr = schema.attribute(label)?;
        let label_bounds = label_attr.kind.bounds();
        let mut feature_bounds = Vec::with_capacity(schema.len().saturating_sub(1));
        for attr in schema.attributes() {
            if attr.name == label {
                continue;
            }
            let (lo, hi) = attr.kind.bounds();
            if hi <= lo {
                return Err(DataError::InvalidParameter {
                    name: "schema",
                    reason: format!("degenerate domain for `{}`: [{lo}, {hi}]", attr.name),
                });
            }
            feature_bounds.push((lo, hi));
        }
        if label_bounds.1 <= label_bounds.0 {
            return Err(DataError::InvalidParameter {
                name: "schema",
                reason: format!(
                    "degenerate label domain [{}, {}]",
                    label_bounds.0, label_bounds.1
                ),
            });
        }
        Ok(Normalizer {
            feature_bounds,
            label_bounds,
        })
    }

    /// Builds a normalizer with explicit per-feature and label bounds.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] for degenerate bounds.
    pub fn from_bounds(feature_bounds: Vec<(f64, f64)>, label_bounds: (f64, f64)) -> Result<Self> {
        if feature_bounds.iter().any(|&(lo, hi)| hi <= lo) || label_bounds.1 <= label_bounds.0 {
            return Err(DataError::InvalidParameter {
                name: "bounds",
                reason: "every domain must satisfy max > min".to_string(),
            });
        }
        Ok(Normalizer {
            feature_bounds,
            label_bounds,
        })
    }

    /// Number of features `d` this normalizer expects.
    #[must_use]
    pub fn d(&self) -> usize {
        self.feature_bounds.len()
    }

    /// Applies the footnote-1 feature map and the `[−1, 1]` label map,
    /// producing a dataset satisfying Definition 1's contract. Values are
    /// clamped to their declared domains first, so a stray out-of-domain
    /// record cannot break the sensitivity analysis.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when `raw.d()` differs from the
    /// normalizer's feature count.
    pub fn normalize_linear(&self, raw: &Dataset) -> Result<Dataset> {
        let x = self.normalize_features(raw)?;
        let (lo, hi) = self.label_bounds;
        let y = raw
            .y()
            .iter()
            .map(|&v| {
                let clamped = v.clamp(lo, hi);
                2.0 * (clamped - lo) / (hi - lo) - 1.0
            })
            .collect();
        Dataset::with_names(x, y, raw.feature_names().to_vec())
    }

    /// Applies the feature map and thresholds labels into `{0, 1}` at
    /// `threshold` (in raw label units), producing Definition 2's contract.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] on feature-count mismatch.
    pub fn normalize_logistic(&self, raw: &Dataset, threshold: f64) -> Result<Dataset> {
        let x = self.normalize_features(raw)?;
        let y = raw
            .y()
            .iter()
            .map(|&v| if v > threshold { 1.0 } else { 0.0 })
            .collect();
        Dataset::with_names(x, y, raw.feature_names().to_vec())
    }

    /// Binarizes a raw label vector at `threshold` without touching features.
    #[must_use]
    pub fn binarize_labels(y: &[f64], threshold: f64) -> Vec<f64> {
        y.iter()
            .map(|&v| if v > threshold { 1.0 } else { 0.0 })
            .collect()
    }

    /// Maps a normalized label prediction back to raw units (inverse of the
    /// linear-regression label map).
    #[must_use]
    pub fn denormalize_label(&self, y_norm: f64) -> f64 {
        let (lo, hi) = self.label_bounds;
        (y_norm + 1.0) / 2.0 * (hi - lo) + lo
    }

    /// Maps a raw label into the normalized `[−1, 1]` scale.
    #[must_use]
    pub fn normalize_label(&self, y_raw: f64) -> f64 {
        let (lo, hi) = self.label_bounds;
        2.0 * (y_raw.clamp(lo, hi) - lo) / (hi - lo) - 1.0
    }

    /// Applies the footnote-1 feature map to a single raw row, appending
    /// the `d` normalized coordinates to `out` — the per-row form of the
    /// map, which streaming ingestion applies in place to each parsed row
    /// so a CSV never has to be materialized before normalization. Values are clamped to their declared domains first,
    /// exactly as [`Normalizer::normalize_linear`] does; the arithmetic is
    /// identical operation for operation, so a streamed row is
    /// **bit-identical** to the same row of the matrix path.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when `raw.len()` differs from the
    /// normalizer's feature count.
    pub fn normalize_features_row(&self, raw: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let start = out.len();
        out.extend_from_slice(raw);
        self.normalize_features_in_place(&mut out[start..])
            .map_err(|e| {
                out.truncate(start);
                e
            })
    }

    /// [`Normalizer::normalize_features_row`] in place: replaces the `d`
    /// raw values of `row` by their normalized coordinates, with the same
    /// arithmetic.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when `row.len()` differs from the
    /// normalizer's feature count.
    pub(crate) fn normalize_features_in_place(&self, row: &mut [f64]) -> Result<()> {
        let d = self.d();
        if row.len() != d {
            return Err(DataError::InvalidParameter {
                name: "row",
                reason: format!("row has {} features, normalizer expects {d}", row.len()),
            });
        }
        let sqrt_d = (d as f64).sqrt();
        for (v, &(lo, hi)) in row.iter_mut().zip(&self.feature_bounds) {
            *v = (v.clamp(lo, hi) - lo) / ((hi - lo) * sqrt_d);
        }
        Ok(())
    }

    fn normalize_features(&self, raw: &Dataset) -> Result<Matrix> {
        let d = self.d();
        if raw.d() != d {
            return Err(DataError::InvalidParameter {
                name: "dataset",
                reason: format!("dataset has {} features, normalizer expects {d}", raw.d()),
            });
        }
        let sqrt_d = (d as f64).sqrt();
        Ok(Matrix::from_fn(raw.n(), d, |r, c| {
            let (lo, hi) = self.feature_bounds[c];
            let v = raw.x()[(r, c)].clamp(lo, hi);
            (v - lo) / ((hi - lo) * sqrt_d)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeKind;

    fn schema() -> Schema {
        Schema::new()
            .with("age", AttributeKind::Integer { min: 0, max: 100 })
            .with("hours", AttributeKind::Integer { min: 0, max: 50 })
            .with(
                "income",
                AttributeKind::Continuous {
                    min: 0.0,
                    max: 1000.0,
                },
            )
    }

    fn raw() -> Dataset {
        let x = Matrix::from_rows(&[&[50.0, 25.0], &[100.0, 0.0], &[0.0, 50.0]]).unwrap();
        Dataset::with_names(
            x,
            vec![500.0, 1000.0, 0.0],
            vec!["age".into(), "hours".into()],
        )
        .unwrap()
    }

    #[test]
    fn from_schema_excludes_label() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        assert_eq!(n.d(), 2);
    }

    #[test]
    fn from_schema_unknown_label() {
        assert!(Normalizer::from_schema(&schema(), "nope").is_err());
    }

    #[test]
    fn degenerate_domains_rejected() {
        let bad = Schema::new()
            .with("x", AttributeKind::Continuous { min: 1.0, max: 1.0 })
            .with("income", AttributeKind::Continuous { min: 0.0, max: 1.0 });
        assert!(Normalizer::from_schema(&bad, "income").is_err());
        assert!(Normalizer::from_bounds(vec![(0.0, 0.0)], (0.0, 1.0)).is_err());
        assert!(Normalizer::from_bounds(vec![(0.0, 1.0)], (1.0, 1.0)).is_err());
    }

    #[test]
    fn footnote1_map_is_exact() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        let norm = n.normalize_linear(&raw()).unwrap();
        let sqrt2 = 2.0_f64.sqrt();
        // Row 0: age 50/100 → 0.5/√2; hours 25/50 → 0.5/√2.
        assert!((norm.x()[(0, 0)] - 0.5 / sqrt2).abs() < 1e-12);
        assert!((norm.x()[(0, 1)] - 0.5 / sqrt2).abs() < 1e-12);
        // Row 1: age at max → 1/√2, hours at min → 0.
        assert!((norm.x()[(1, 0)] - 1.0 / sqrt2).abs() < 1e-12);
        assert_eq!(norm.x()[(1, 1)], 0.0);
    }

    #[test]
    fn unit_sphere_guarantee_holds_at_extremes() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        // Every feature at its max → ‖x‖₂ = 1 exactly.
        let x = Matrix::from_rows(&[&[100.0, 50.0]]).unwrap();
        let ds = Dataset::with_names(x, vec![1000.0], vec!["age".into(), "hours".into()]).unwrap();
        let norm = n.normalize_linear(&ds).unwrap();
        assert!((norm.max_feature_norm() - 1.0).abs() < 1e-12);
        norm.check_normalized_linear().unwrap();
    }

    #[test]
    fn label_map_to_unit_interval() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        let norm = n.normalize_linear(&raw()).unwrap();
        assert_eq!(norm.y(), &[0.0, 1.0, -1.0]);
        norm.check_normalized_linear().unwrap();
    }

    #[test]
    fn label_roundtrip() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        for &v in &[0.0, 123.0, 999.0, 1000.0] {
            let back = n.denormalize_label(n.normalize_label(v));
            assert!((back - v).abs() < 1e-9, "roundtrip failed at {v}");
        }
    }

    #[test]
    fn out_of_domain_values_are_clamped() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        let x = Matrix::from_rows(&[&[150.0, -10.0]]).unwrap();
        let ds = Dataset::with_names(x, vec![2000.0], vec!["age".into(), "hours".into()]).unwrap();
        let norm = n.normalize_linear(&ds).unwrap();
        // Clamped to domain edges: still normalized.
        norm.check_normalized_linear().unwrap();
        assert_eq!(norm.y(), &[1.0]);
    }

    #[test]
    fn logistic_thresholding() {
        let n = Normalizer::from_schema(&schema(), "income").unwrap();
        let norm = n.normalize_logistic(&raw(), 400.0).unwrap();
        assert_eq!(norm.y(), &[1.0, 1.0, 0.0]);
        norm.check_normalized_logistic().unwrap();
    }

    #[test]
    fn binarize_labels_static_helper() {
        assert_eq!(
            Normalizer::binarize_labels(&[1.0, 5.0, 3.0], 3.0),
            vec![0.0, 1.0, 0.0]
        );
    }

    #[test]
    fn feature_count_mismatch_rejected() {
        let n = Normalizer::from_bounds(vec![(0.0, 1.0)], (0.0, 1.0)).unwrap();
        assert!(n.normalize_linear(&raw()).is_err());
    }
}
