//! Model persistence: a small, dependency-free text format for shipping
//! fitted models out of the data silo.
//!
//! The released artefact of a DP fit is the parameter vector plus its
//! privacy metadata — by the post-processing property, writing it to disk
//! and loading it elsewhere preserves the (ε[, δ]) guarantee. The format
//! is line-oriented `key value` pairs:
//!
//! ```text
//! fm-model v1
//! kind linear
//! epsilon 0.8
//! intercept 0.25
//! weights 0.5 -0.25 0.125
//! ```
//!
//! Floats are serialised with `f64::to_string`'s shortest-roundtrip
//! representation, so a write → read cycle is **bit-exact**. `epsilon
//! none` marks non-private baselines. Unknown keys are rejected (a model
//! file is a security-relevant artefact; silent tolerance invites
//! mix-ups), as are NaN/infinite parameters.

use std::fmt::Write as _;
use std::path::Path;

use crate::model::{LinearModel, LogisticModel, Model, PersistableModel, PoissonModel};
use crate::{FmError, Result};

pub use crate::model::ModelKind;

/// Format magic + version line.
const HEADER: &str = "fm-model v1";

fn parse_kind(s: &str) -> Result<ModelKind> {
    match s {
        "linear" => Ok(ModelKind::Linear),
        "logistic" => Ok(ModelKind::Logistic),
        "poisson" => Ok(ModelKind::Poisson),
        other => Err(parse_error(format!("unknown model kind `{other}`"))),
    }
}

/// The family-agnostic payload of a serialised model.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedModel {
    /// The model family.
    pub kind: ModelKind,
    /// The parameter vector ω.
    pub weights: Vec<f64>,
    /// The intercept `b` (0 when fitted without one).
    pub intercept: f64,
    /// The privacy budget recorded at fit time, if any.
    pub epsilon: Option<f64>,
}

impl SavedModel {
    /// Serialises to the `fm-model v1` text format.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] if any parameter is non-finite (a
    /// non-finite model must never be shipped) or there are no weights
    /// (a `weights` line without values does not parse back).
    pub fn to_text(&self) -> Result<String> {
        if self.weights.is_empty()
            || !self.intercept.is_finite()
            || self.weights.iter().any(|w| !w.is_finite())
            || self.epsilon.is_some_and(|e| !e.is_finite())
        {
            return Err(FmError::InvalidConfig {
                name: "model",
                reason: "refusing to serialise empty or non-finite parameters".to_string(),
            });
        }
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "kind {}", self.kind.as_str());
        match self.epsilon {
            Some(e) => {
                let _ = writeln!(out, "epsilon {e}");
            }
            None => {
                let _ = writeln!(out, "epsilon none");
            }
        }
        let _ = writeln!(out, "intercept {}", self.intercept);
        let _ = write!(out, "weights");
        for w in &self.weights {
            let _ = write!(out, " {w}");
        }
        out.push('\n');
        Ok(out)
    }

    /// Parses the `fm-model v1` text format.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] describing the first malformed line;
    /// non-finite values, duplicate or missing keys, and unknown keys are
    /// all rejected.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(parse_error(format!("missing `{HEADER}` header")));
        }
        let mut kind = None;
        let mut epsilon: Option<Option<f64>> = None;
        let mut intercept = None;
        let mut weights = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| parse_error(format!("malformed line `{line}`")))?;
            match key {
                "kind" => set_once(&mut kind, parse_kind(value)?, "kind")?,
                "epsilon" => {
                    let v = if value == "none" {
                        None
                    } else {
                        Some(parse_finite(value, "epsilon")?)
                    };
                    set_once(&mut epsilon, v, "epsilon")?;
                }
                "intercept" => {
                    set_once(
                        &mut intercept,
                        parse_finite(value, "intercept")?,
                        "intercept",
                    )?;
                }
                "weights" => {
                    let ws: Vec<f64> = value
                        .split_whitespace()
                        .map(|t| parse_finite(t, "weights"))
                        .collect::<Result<_>>()?;
                    if ws.is_empty() {
                        return Err(parse_error("empty weight vector".to_string()));
                    }
                    set_once(&mut weights, ws, "weights")?;
                }
                other => return Err(parse_error(format!("unknown key `{other}`"))),
            }
        }
        Ok(SavedModel {
            kind: kind.ok_or_else(|| parse_error("missing `kind`".to_string()))?,
            weights: weights.ok_or_else(|| parse_error("missing `weights`".to_string()))?,
            intercept: intercept.ok_or_else(|| parse_error("missing `intercept`".to_string()))?,
            epsilon: epsilon.ok_or_else(|| parse_error("missing `epsilon`".to_string()))?,
        })
    }

    /// Writes the model to `path`.
    ///
    /// # Errors
    /// Serialisation failures ([`SavedModel::to_text`]) or I/O errors
    /// wrapped as [`FmError::InvalidConfig`].
    pub fn save(&self, path: &Path) -> Result<()> {
        let text = self.to_text()?;
        std::fs::write(path, text).map_err(|e| FmError::InvalidConfig {
            name: "model file",
            reason: format!("write {}: {e}", path.display()),
        })
    }

    /// Reads a model from `path`.
    ///
    /// # Errors
    /// I/O errors or parse failures, as [`SavedModel::from_text`].
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| FmError::InvalidConfig {
            name: "model file",
            reason: format!("read {}: {e}", path.display()),
        })?;
        Self::from_text(&text)
    }

    /// Captures any [`Model`] (including a `dyn Model`) as a serialisable
    /// payload — the generic form of the `From<&M>` conversions.
    pub fn from_model<M: Model + ?Sized>(m: &M) -> Self {
        SavedModel {
            kind: m.kind(),
            weights: m.weights().to_vec(),
            intercept: m.intercept(),
            epsilon: m.epsilon(),
        }
    }

    /// Converts into any [`PersistableModel`] family, checking the stored
    /// kind tag against the requested type's `KIND` — the one generic
    /// round-trip the per-family `into_*` helpers forward to.
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] when the file holds a different family.
    pub fn into_model<M: PersistableModel>(self) -> Result<M> {
        self.expect_kind(M::KIND)?;
        Ok(M::from_parts(self.weights, self.intercept, self.epsilon))
    }

    /// Converts into a [`LinearModel`].
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] when the file holds a different family.
    pub fn into_linear(self) -> Result<LinearModel> {
        self.into_model()
    }

    /// Converts into a [`LogisticModel`].
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] when the file holds a different family.
    pub fn into_logistic(self) -> Result<LogisticModel> {
        self.into_model()
    }

    /// Converts into a [`PoissonModel`].
    ///
    /// # Errors
    /// [`FmError::InvalidConfig`] when the file holds a different family.
    pub fn into_poisson(self) -> Result<PoissonModel> {
        self.into_model()
    }

    fn expect_kind(&self, want: ModelKind) -> Result<()> {
        if self.kind == want {
            Ok(())
        } else {
            Err(FmError::InvalidConfig {
                name: "model kind",
                reason: format!(
                    "file holds a {} model, expected {}",
                    self.kind.as_str(),
                    want.as_str()
                ),
            })
        }
    }
}

impl<M: Model> From<&M> for SavedModel {
    fn from(m: &M) -> Self {
        SavedModel::from_model(m)
    }
}

fn parse_error(reason: String) -> FmError {
    FmError::InvalidConfig {
        name: "model file",
        reason,
    }
}

fn parse_finite(token: &str, field: &str) -> Result<f64> {
    let v: f64 = token
        .parse()
        .map_err(|e| parse_error(format!("{field}: `{token}`: {e}")))?;
    if !v.is_finite() {
        return Err(parse_error(format!("{field}: `{token}` is not finite")));
    }
    Ok(v)
}

fn set_once<T>(slot: &mut Option<T>, value: T, key: &str) -> Result<()> {
    if slot.is_some() {
        return Err(parse_error(format!("duplicate key `{key}`")));
    }
    *slot = Some(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> LinearModel {
        LinearModel::with_intercept(vec![0.5, -0.25, 0.1], 0.125, Some(0.8))
    }

    #[test]
    fn linear_roundtrip_is_bit_exact() {
        let m = linear();
        let saved = SavedModel::from(&m);
        let text = saved.to_text().unwrap();
        let back = SavedModel::from_text(&text).unwrap().into_linear().unwrap();
        assert_eq!(back, m); // PartialEq on f64 ⇒ bit-exact round trip
    }

    #[test]
    fn roundtrip_preserves_awkward_floats() {
        // Shortest-roundtrip float formatting must survive non-dyadic
        // values and extremes.
        let m = LinearModel::with_intercept(
            vec![0.1 + 0.2, 1e-300, -1e300, f64::MIN_POSITIVE],
            std::f64::consts::PI,
            Some(0.1),
        );
        let text = SavedModel::from(&m).to_text().unwrap();
        let back = SavedModel::from_text(&text).unwrap().into_linear().unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn logistic_and_poisson_roundtrip() {
        let lm = LogisticModel::with_intercept(vec![1.0, 2.0], -0.5, None);
        let text = SavedModel::from(&lm).to_text().unwrap();
        assert!(text.contains("epsilon none"));
        let back = SavedModel::from_text(&text)
            .unwrap()
            .into_logistic()
            .unwrap();
        assert_eq!(back, lm);

        let pm = PoissonModel::with_intercept(vec![0.3], 0.7, Some(1.6));
        let text = SavedModel::from(&pm).to_text().unwrap();
        let back = SavedModel::from_text(&text)
            .unwrap()
            .into_poisson()
            .unwrap();
        assert_eq!(back, pm);
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let text = SavedModel::from(&linear()).to_text().unwrap();
        let saved = SavedModel::from_text(&text).unwrap();
        assert!(saved.clone().into_logistic().is_err());
        assert!(saved.clone().into_poisson().is_err());
        assert!(saved.into_linear().is_ok());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",                         // no header
            "fm-model v2\nkind linear", // wrong version
            "fm-model v1\nkind martian\nepsilon none\nintercept 0\nweights 1",
            "fm-model v1\nepsilon none\nintercept 0\nweights 1", // missing kind
            "fm-model v1\nkind linear\nepsilon none\nintercept 0\nweights", // malformed line
            "fm-model v1\nkind linear\nepsilon none\nintercept 0\nweights 1 nan",
            "fm-model v1\nkind linear\nepsilon inf\nintercept 0\nweights 1",
            "fm-model v1\nkind linear\nkind linear\nepsilon none\nintercept 0\nweights 1",
            "fm-model v1\nkind linear\nepsilon none\nintercept 0\nweights 1\nsecret 5",
        ] {
            assert!(SavedModel::from_text(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn non_finite_models_refuse_to_serialise() {
        let m = LinearModel::new(vec![f64::NAN], Some(0.5));
        assert!(SavedModel::from(&m).to_text().is_err());
        let m = LinearModel::with_intercept(vec![1.0], f64::INFINITY, None);
        assert!(SavedModel::from(&m).to_text().is_err());
        // An empty weight vector would write a `weights` line that
        // `from_text` refuses, so it is refused on the way out.
        let m = LinearModel::new(Vec::new(), Some(0.5));
        assert!(matches!(
            SavedModel::from(&m).to_text(),
            Err(FmError::InvalidConfig { name: "model", .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fm_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fm");
        let m = linear();
        SavedModel::from(&m).save(&path).unwrap();
        let back = SavedModel::load(&path).unwrap().into_linear().unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_clean_error() {
        let err = SavedModel::load(Path::new("/nonexistent/fm-model")).unwrap_err();
        assert!(matches!(err, FmError::InvalidConfig { .. }));
    }

    #[test]
    fn blank_lines_tolerated() {
        let text = "fm-model v1\n\nkind linear\nepsilon 0.5\n\nintercept 0\nweights 1 2\n\n";
        let saved = SavedModel::from_text(text).unwrap();
        assert_eq!(saved.weights, vec![1.0, 2.0]);
        assert_eq!(saved.epsilon, Some(0.5));
    }
}
