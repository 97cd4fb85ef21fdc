//! Experiment harness for regenerating every table and figure of the
//! paper's evaluation (Section 7), plus the repo's own ablations.
//!
//! The binary `fm-experiments` (see `src/bin/fm_experiments.rs`) drives
//! everything:
//!
//! ```text
//! cargo run --release -p fm-bench --bin fm-experiments -- --figure fig4
//! cargo run --release -p fm-bench --bin fm-experiments -- --figure all --rows 370000 --repeats 50
//! ```
//!
//! | `--figure` | Paper artefact | Series printed |
//! |------------|----------------|----------------|
//! | `fig2`  | Fig. 2 — linear objective vs FM-noised version (worked example §4.2) | coefficients + minimisers |
//! | `fig3`  | Fig. 3 — logistic objective vs Taylor approximation (§5.2 example) | sampled curves |
//! | `fig4`  | Fig. 4a–d — accuracy vs dimensionality {5, 8, 11, 14} | per-method MSE / misclassification |
//! | `fig5`  | Fig. 5a–d — accuracy vs sampling rate {0.1 … 1.0} | per-method MSE / misclassification |
//! | `fig6`  | Fig. 6a–d — accuracy vs ε {0.1 … 3.2} | per-method MSE / misclassification |
//! | `fig7`  | Fig. 7a–b — training time vs dimensionality (logistic) | per-method seconds |
//! | `fig8`  | Fig. 8a–b — training time vs sampling rate (logistic) | per-method seconds |
//! | `fig9`  | Fig. 9a–b — training time vs ε (logistic) | per-method seconds |
//! | `ablation` | repo-specific design ablations | post-processing / sensitivity-bound sweeps |
//! | `ablation-approx` | §8 extension — Taylor vs Chebyshev surrogate | per-surrogate misclassification vs ε |
//! | `ablation-noise` | §2 extension — ε-DP Laplace vs (ε, δ) Gaussian | per-noise MSE vs dimensionality |
//! | `poisson` | §8 extension — DP Poisson regression | MAE vs ε; count-cap trade-off |
//! | `accounting` | composition under T releases — naive vs advanced vs moments accountant | composed ε per accountant |
//! | `kernels` | §4 Algorithm 1's assembly pass — per-tuple loop vs batched Gram kernels at d ∈ {4, 13, 32} | rows/s per path |
//!
//! End-to-end throughput of fits, streamed CSV ingest, the fitting
//! service and federated rounds is measured by the separate `perfbench`
//! package, not by this crate.
//!
//! Defaults are scaled down (40k/20k rows, 2 CV repeats) so a full figure
//! regenerates in minutes on a laptop; `--rows`/`--repeats`/`--full`
//! restore the paper's 370k/190k × 50-repeat protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod methods;
pub mod params;
pub mod report;
pub mod runner;
pub mod workload;
