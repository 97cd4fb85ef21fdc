//! # functional-mechanism
//!
//! A from-scratch Rust implementation of **"Functional Mechanism: Regression
//! Analysis under Differential Privacy"** (Zhang, Zhang, Xiao, Yang,
//! Winslett — PVLDB 5(11), 2012), together with every substrate the paper
//! depends on and every baseline it is evaluated against.
//!
//! This crate is a facade: it re-exports the workspace member crates under
//! stable module names so downstream users depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `fm-core` | the Functional Mechanism (Algorithms 1 & 2), DP linear / logistic / Poisson regression, §6 post-processing, (ε, δ) Gaussian variant |
//! | [`baselines`] | `fm-baselines` | NoPrivacy, Truncated, DPME, Filter-Priority, objective perturbation |
//! | [`serve`] | `fm-serve` | multi-tenant fitting service: admission over the WAL ledger, bounded block queues, checkpointing shutdown/resume, WAL compaction |
//! | [`federated`] | `fm-federated` | cross-process federated fitting: `fm-accum v2` wire format, chunk-aligned merge-tree replay, central vs local noise, quorum dropout salvage, deadline/retry transports + fault injection |
//! | [`data`] | `fm-data` | datasets, normalization, synthetic census, cross-validation, metrics |
//! | [`privacy`] | `fm-privacy` | Laplace / Gaussian / exponential mechanisms, privacy budget accounting |
//! | [`poly`] | `fm-poly` | multivariate polynomials, quadratic forms, Taylor & Chebyshev machinery |
//! | [`optim`] | `fm-optim` | quadratic minimiser, gradient descent, Newton's method |
//! | [`linalg`] | `fm-linalg` | dense matrices, LU/Cholesky/QR, Jacobi and tridiagonal eigendecomposition, batched Gram kernels |
//!
//! ## Batched coefficient assembly (the hot path)
//!
//! Algorithm 1's wall-clock cost is dominated by assembling the
//! objective's polynomial coefficients `λ_φ = Σ_i λ_{φ t_i}` over the full
//! dataset — `O(n·d²)` at the paper's census scale (370,000 rows × 5-fold
//! × 50 repeats). The workspace runs this through a chunked map-reduce
//! pipeline ([`core::assembly`]):
//!
//! 1. the row-major feature block is split into fixed-size row chunks;
//! 2. each chunk is accumulated into a partial
//!    [`poly::QuadraticForm`] via
//!    [`core::PolynomialObjective::accumulate_batch`], which the built-in
//!    objectives override with blocked Gram kernels — `yᵀy`
//!    ([`linalg::vecops::sum_squares`]), `Xᵀy`
//!    ([`linalg::vecops::gemv_t_acc`]) and a pack-and-dot `XᵀX`
//!    ([`linalg::Matrix::syrk_acc`]) — instead of per-tuple rank-1
//!    updates;
//! 3. the partials are merged in chunk order by a deterministic pairwise
//!    merge tree ([`poly::QuadraticForm::merge`]), the one the streaming
//!    accumulator builds.
//!
//! ### The `parallel` feature
//!
//! `--features parallel` maps step 2 across worker threads (rayon). The
//! chunk boundaries are a pure function of `(n, chunk_rows)` and the
//! reduction order a pure function of the chunk count, so assembled
//! coefficients are **bit-identical for every worker count**, including
//! the sequential build — reproducibility of experiments never depends on
//! the machine's core count. The equivalence suite
//! (`tests/batched_assembly.rs`) pins batched-vs-per-tuple agreement
//! (≤ 1e-12 relative), chunk-size invariance, and bit-exact determinism in
//! both configurations.
//!
//! Custom objectives keep working unchanged: the default
//! `accumulate_batch` delegates to `accumulate_tuple` row by row and still
//! rides the same chunked (and optionally parallel) pipeline.
//!
//! ## One estimator API
//!
//! Every regression — the paper's linear and logistic case studies, the §8
//! Poisson extension, and any user-supplied polynomial loss — runs through
//! **one generic core** ([`core::estimator`]):
//!
//! * [`core::estimator::FitConfig`] owns the knobs every fit shares
//!   (ε, sensitivity bound, §6 strategy, intercept, noise distribution);
//! * [`core::estimator::FmEstimator`]`<O>` is Algorithm 1 over any
//!   [`core::estimator::RegressionObjective`] `O` —
//!   `DpLinearRegression` *is* `FmEstimator<LinearObjective>`, and the
//!   logistic, Poisson, median, quantile and Huber estimators are aliases
//!   of one [`core::estimator::FamilyEstimator`]`<F>`, which builds the
//!   family's objective from its knobs at fit time and runs the same
//!   core;
//! * the dyn-compatible [`core::estimator::DpEstimator`] trait is
//!   implemented by the private estimators **and** every `fm-baselines`
//!   comparator, so method line-ups, cross-validation and experiment
//!   harnesses hold `&dyn DpEstimator` instead of matching per method;
//! * fitted models share the [`core::model::Model`] trait (weights /
//!   intercept / spent ε / task-natural predictions), which persistence
//!   ([`core::persist::SavedModel`]) and generic scoring consume;
//! * [`core::session::PrivacySession`] debits every fit, before it runs,
//!   against one WAL-less [`core::session::SharedPrivacySession`] — the
//!   single accounting core, counting in the integer ε quanta of
//!   [`privacy::budget`] — and reports the honest composed (ε, δ) —
//!   basic, advanced and moments-accountant composition — for multi-fit
//!   workloads like the paper's 50×5-fold protocol.
//!
//! The long-standing `builder()` entry points (`DpLinearRegression::builder()`
//! and friends) are kept as thin forwarding shims over `FitConfig` +
//! `FmEstimator` (or `FamilyEstimator`), so existing code migrates
//! without breaking; new code can construct
//! `FmEstimator::new(objective, config)` directly. The shims are
//! not going away soon — they are one `build()` away from the generic
//! core — but new *capabilities* (budget sessions, generic CV, mixed
//! line-ups) land on the trait surface only.
//!
//! ## Streaming & sharded ingestion
//!
//! Because Algorithm 1 touches the data only through one accumulation
//! pass, every estimator also fits from a stream
//! ([`data::stream::RowSource`]): [`data::stream::InMemorySource`] wraps
//! a [`data::Dataset`], [`data::stream::CsvStreamSource`] reads, clamps
//! and normalizes CSV rows without materializing the file, and
//! [`data::stream::ShardedSource`] concatenates disjoint shards.
//! `fit_stream` (and the two-phase `partial_fit` → `absorb` → `finalize`
//! protocol for shard-at-a-time fitting) releases coefficients
//! **bit-identical** to `fit` on the materialized dataset at the same
//! seed, for any block sizing or shard split — pinned by
//! `tests/streaming_equivalence.rs`. [`core::session::PrivacySession`]
//! adds an opt-in parallel-composition scope: k fits on disjoint shards
//! debit `max(εᵢ)` instead of `Σεᵢ`.
//!
//! Streaming is also **zero-copy**: the accumulator drains sources
//! through a borrowed-block visitor
//! ([`data::stream::RowSource::for_each_block`]) and accepts a
//! whole-dataset handoff from in-memory sources
//! ([`data::stream::RowSource::take_dataset`]), so in-memory data routed
//! through the streaming entry points (CV folds, sessions, the bench
//! harness) assembles at the batched kernels' rate — no per-block
//! allocation or copy anywhere (`BENCH_assembly.json`, run `pr5-…`).
//! With `--features parallel`, `data::stream::PrefetchSource` overlaps
//! CSV parsing with accumulation on a second thread, and
//! `FmEstimator::fit_sharded` /
//! `PrivacySession::fit_disjoint_shards_parallel` assemble disjoint
//! shards concurrently — with released models bit-identical to the
//! serial build in every case.
//!
//! ## Quickstart
//!
//! Both entry points — the materialized [`data::Dataset`] and a streaming
//! [`data::stream::RowSource`] — drive the same budget-aware pipeline and
//! release identical coefficients under the same seed:
//!
//! ```
//! use functional_mechanism::prelude::*;
//! use rand::SeedableRng;
//!
//! // A small synthetic regression dataset, already normalized to the
//! // paper's domain (‖x‖₂ ≤ 1, y ∈ [−1, 1]).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let data = functional_mechanism::data::synth::linear_dataset(&mut rng, 2_000, 5, 0.1);
//!
//! // ε-differentially private linear regression (ε = 0.8 per fit),
//! // drawn through a budget-aware session (total ε = 2.0).
//! let estimator = DpLinearRegression::builder()
//!     .config(FitConfig::new().epsilon(0.8))
//!     .build();
//! let mut session = PrivacySession::with_budget(2.0).expect("valid budget");
//!
//! // Entry point 1: the materialized dataset.
//! let mut fit_rng = rand::rngs::StdRng::seed_from_u64(42);
//! let model = session
//!     .fit(&estimator, &data, &mut fit_rng)
//!     .expect("fit succeeds on a well-formed dataset");
//! assert!(model.predict(data.x().row(0)).is_finite());
//!
//! // Entry point 2: the same rows as a stream (here an in-memory source;
//! // a `CsvStreamSource` fits files larger than RAM the same way). Same
//! // seed ⇒ bit-identical released weights.
//! let mut fit_rng = rand::rngs::StdRng::seed_from_u64(42);
//! let streamed = session
//!     .fit_stream(&estimator, &mut InMemorySource::new(&data), &mut fit_rng)
//!     .expect("streamed fit");
//! assert_eq!(model, streamed);
//!
//! // Both fits were debited: 2 × 0.8 spent, and a third ε = 0.8 fit
//! // would overdraw — the session refuses *before* the mechanism
//! // touches the data.
//! assert_eq!(session.spent_epsilon(), 1.6);
//! assert!(session.fit(&estimator, &data, &mut rng).is_err());
//! ```

pub use fm_baselines as baselines;
pub use fm_core as core;
pub use fm_data as data;
pub use fm_federated as federated;
pub use fm_linalg as linalg;
pub use fm_optim as optim;
pub use fm_poly as poly;
pub use fm_privacy as privacy;
pub use fm_serve as serve;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use fm_baselines::{
        dpme::Dpme,
        estimators::{DpmeLinear, DpmeLogistic, FpLinear, FpLogistic},
        fp::FilterPriority,
        noprivacy::{LinearRegression, LogisticRegression},
        truncated::TruncatedLogistic,
    };
    pub use fm_core::{
        estimator::{DpEstimator, FitConfig, FmEstimator, RegressionObjective},
        generic::QuarticObjective,
        linreg::DpLinearRegression,
        logreg::{Approximation, DpLogisticRegression},
        model::{LinearModel, LogisticModel, Model, ModelKind, PersistableModel, PoissonModel},
        persist::SavedModel,
        poisson::DpPoissonRegression,
        robust::{DpHuberRegression, DpMedianRegression, DpQuantileRegression},
        session::{FitPermit, PrivacySession, SharedPrivacySession},
        sparse::{SparseFmEstimator, SparseRegressionObjective},
        FmError, NoiseDistribution, SensitivityBound, Strategy,
    };
    #[cfg(feature = "parallel")]
    pub use fm_data::stream::PrefetchSource;
    pub use fm_data::{
        cv::KFold,
        dataset::Dataset,
        fault::{Fault, FaultInjectingSource},
        metrics,
        normalize::Normalizer,
        stream::{
            CsvStreamSource, InMemorySource, LabelTransform, RowBlock, RowBlockRef, RowErrorPolicy,
            RowSource, ShardedSource,
        },
    };
    pub use fm_federated::{
        Coordinator, FaultInjectingTransport, FederatedClient, FederatedError, InMemoryTransport,
        NoiseMode, QuorumPolicy, RetryPolicy, RoundReport, ShardPlan, StreamTransport, Transport,
        TransportFault,
    };
    pub use fm_linalg::Matrix;
    pub use fm_privacy::{
        budget::{EpsDeltaLedger, PrivacyBudget},
        exponential::ExponentialMechanism,
        laplace::Laplace,
        rdp::{MomentsAccount, RdpLedger, RenyiMechanism},
        wal::{CompactionPolicy, RecoveryReport, WalLedger, WalStats},
    };
    pub use fm_serve::service::{
        FitOutcome, FitRequest, FitService, JobHandle, ServeConfig, ServeError, SuspendedFit,
    };
}
