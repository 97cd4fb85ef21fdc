//! Data substrate for the `functional-mechanism` workspace: datasets,
//! normalization, synthetic census generation, sampling, cross-validation
//! and accuracy metrics.
//!
//! Section 7 of *Functional Mechanism* (Zhang et al., VLDB 2012) evaluates
//! on two IPUMS census extracts (US, Brazil) that cannot be redistributed;
//! this crate provides everything around them:
//!
//! * [`dataset::Dataset`] — an `n × d` feature matrix plus a label vector,
//!   the object every mechanism in the workspace consumes.
//! * [`schema::Schema`] — per-attribute domain metadata. The DPME and
//!   Filter-Priority baselines discretize attribute domains into histogram
//!   cells, so domains are first-class here.
//! * [`normalize::Normalizer`] — the paper's exact preprocessing
//!   (footnote 1): `x_ij ← (x_ij − α_j) / ((β_j − α_j)·√d)` which guarantees
//!   `‖x_i‖₂ ≤ 1`, plus the `[−1, 1]` rescaling of `Y` for linear
//!   regression (Definition 1) and thresholding of `Y` into `{0, 1}` for
//!   logistic regression (Section 7's income classification).
//! * [`census`] — seeded synthetic census generators standing in for the
//!   IPUMS US (370k rows) and Brazil (190k rows) datasets, with the same 13
//!   attributes (Marital Status one-hot expanded to 14), realistic marginal
//!   distributions, and a ground-truth income process so regression has
//!   signal to find. The [`census`] module docs give the substitution
//!   argument.
//! * [`synth`] — minimal synthetic regression/classification generators
//!   with known ground-truth parameters, for tests and convergence checks.
//! * [`sampling`] / [`cv`] — seeded subsampling (Table 2's sampling-rate
//!   axis) and k-fold cross-validation (the paper's 5-fold × 50 repeats).
//! * [`metrics`] — mean squared error and misclassification rate, the
//!   paper's two accuracy measures.
//! * [`csv`] — plain-text persistence for datasets and experiment output.
//! * [`stream`] — **streaming ingestion**: the [`stream::RowSource`]
//!   trait yields the logical dataset as bounded [`stream::RowBlock`]s,
//!   with [`stream::InMemorySource`] wrapping a [`Dataset`],
//!   [`stream::CsvStreamSource`] reading/normalizing/clamping CSV rows
//!   without materializing the file, and [`stream::ShardedSource`]
//!   concatenating disjoint shards — the surface `fm-core`'s
//!   `fit_stream`/`partial_fit` entry points consume to run Algorithm 1
//!   out-of-core.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod census;
pub mod csv;
pub mod cv;
pub mod dataset;
pub mod fault;
pub mod metrics;
pub mod normalize;
pub mod queue;
pub mod sampling;
pub mod schema;
pub mod stream;
pub mod synth;

mod error;

pub use dataset::Dataset;
pub use error::DataError;
pub use schema::{AttributeKind, Schema};

/// Result alias for fallible data operations.
pub type Result<T> = std::result::Result<T, DataError>;
