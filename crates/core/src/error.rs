use std::fmt;

/// Errors produced by the functional mechanism.
#[derive(Debug)]
pub enum FmError {
    /// The input dataset violates the normalized-domain contract the
    /// sensitivity analysis requires (`‖x‖₂ ≤ 1`, labels in range).
    Data(fm_data::DataError),
    /// A privacy-parameter or budget failure.
    Privacy(fm_privacy::PrivacyError),
    /// Optimisation failure (unbounded noisy objective that post-processing
    /// was disabled from fixing, or solver breakdown).
    Optim(fm_optim::OptimError),
    /// Linear-algebra failure (eigendecomposition, solves).
    Linalg(fm_linalg::LinalgError),
    /// The Lemma-5 resample loop exhausted its attempt budget without
    /// producing a bounded objective.
    ResampleExhausted {
        /// Attempts made.
        attempts: usize,
    },
    /// Spectral trimming removed every eigenvalue — the noisy Hessian had no
    /// positive spectrum at all, so no informative model exists at this ε.
    EmptySpectrum,
    /// Invalid configuration (ε ≤ 0, zero attempts, …).
    InvalidConfig {
        /// Which parameter.
        name: &'static str,
        /// Why it is invalid.
        reason: String,
    },
    /// A streaming-fit checkpoint could not be produced or restored
    /// (corrupt/truncated file, version mismatch, structural violation).
    Checkpoint {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for FmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmError::Data(e) => write!(f, "data error: {e}"),
            FmError::Privacy(e) => write!(f, "privacy error: {e}"),
            FmError::Optim(e) => write!(f, "optimisation error: {e}"),
            FmError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            FmError::ResampleExhausted { attempts } => {
                write!(
                    f,
                    "noisy objective unbounded after {attempts} resampling attempts"
                )
            }
            FmError::EmptySpectrum => {
                write!(
                    f,
                    "spectral trimming removed all eigenvalues; ε is too small for this data"
                )
            }
            FmError::InvalidConfig { name, reason } => {
                write!(f, "invalid configuration `{name}`: {reason}")
            }
            FmError::Checkpoint { reason } => {
                write!(f, "checkpoint error: {reason}")
            }
        }
    }
}

impl std::error::Error for FmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FmError::Data(e) => Some(e),
            FmError::Privacy(e) => Some(e),
            FmError::Optim(e) => Some(e),
            FmError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fm_data::DataError> for FmError {
    fn from(e: fm_data::DataError) -> Self {
        FmError::Data(e)
    }
}

impl From<fm_privacy::PrivacyError> for FmError {
    fn from(e: fm_privacy::PrivacyError) -> Self {
        FmError::Privacy(e)
    }
}

impl From<fm_optim::OptimError> for FmError {
    fn from(e: fm_optim::OptimError) -> Self {
        FmError::Optim(e)
    }
}

impl From<fm_linalg::LinalgError> for FmError {
    fn from(e: fm_linalg::LinalgError) -> Self {
        FmError::Linalg(e)
    }
}

/// Checkpoint parsing is the crate's only decoder of
/// [`crate::codec`] frames.
impl From<crate::codec::CodecError> for FmError {
    fn from(e: crate::codec::CodecError) -> Self {
        FmError::Checkpoint { reason: e.0 }
    }
}
