//! Budget-aware fitting with exact composition accounting: one
//! accounting core behind two faces.
//!
//! The paper's evaluation protocol fits *many* models on the same data —
//! 50 repeats × 5-fold cross-validation per method, ε-sweeps, model
//! selection — and every one of those fits spends privacy budget on the
//! same individuals. A 250-fold experiment that advertised its per-fit ε
//! as if the fits were free to compose would silently overstate its
//! privacy; this module debits every fit and reports the honest total.
//!
//! * [`SharedPrivacySession`] is the core. Admission is a lock-free CAS
//!   on an integer counter of [`fm_privacy::budget::EPS_QUANTUM`] quanta
//!   against an optional hard cap; every debit is a two-phase
//!   [`BudgetPermit`] (reserve, then commit or abort), optionally made
//!   durable through a write-ahead log first; one
//!   [`SharedParallelScope`] implements parallel composition; and one
//!   [`CompositionReport`] path answers basic, advanced and
//!   moments-accountant composition.
//! * [`PrivacySession`] is its single-owner face for experiment
//!   harnesses: it owns one WAL-less `SharedPrivacySession`, turns every
//!   fit drawn through it into `begin(…)?.commit()` **before the data is
//!   touched** (an over-budget fit errors without running), and opens its
//!   [`ParallelFits`] scopes on the same [`SharedParallelScope`]. It
//!   holds no accounting state of its own.
//!
//! Non-private baselines (`epsilon() == None`) pass through without a
//! debit, so one harness loop can run FM, DPME, FP *and* NoPrivacy while
//! the ledger tracks only the mechanisms that actually spend.
//!
//! ```
//! use fm_core::linreg::DpLinearRegression;
//! use fm_core::session::PrivacySession;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(4);
//! let data = fm_data::synth::linear_dataset(&mut rng, 4_000, 2, 0.1);
//! let est = DpLinearRegression::builder().epsilon(0.2).build();
//!
//! let mut session = PrivacySession::with_budget(1.0).unwrap();
//! for _ in 0..5 {
//!     session.fit(&est, &data, &mut rng).unwrap();
//! }
//! assert!((session.spent_epsilon() - 1.0).abs() < 1e-9);
//! assert!(session.fit(&est, &data, &mut rng).is_err()); // budget exhausted
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::Rng;

use fm_data::cv::KFold;
use fm_data::stream::RowSource;
use fm_data::Dataset;
use fm_privacy::budget::{
    cap_to_units, eps_to_units, units_to_eps, EpsDeltaEntry, EpsDeltaLedger, PrivacyBudget,
    EPS_QUANTUM,
};
use fm_privacy::rdp::{MomentsAccount, RdpLedger, RenyiMechanism};
use fm_privacy::wal::{CompactionPolicy, RecoveryReport, WalLedger, WalStats};

use crate::estimator::{DpEstimator, FmEstimator, RegressionObjective};
use crate::{FmError, Result};

/// The tenant a [`PrivacySession`] books its fits under on its core.
const SESSION_TENANT: &str = "session";

/// A budget-aware fitting session: every [`DpEstimator::fit`] drawn
/// through it is debited against an optional hard ε cap and recorded in an
/// (ε, δ) audit ledger — a single-owner wrapper over one WAL-less
/// [`SharedPrivacySession`], so both APIs share one admission arithmetic,
/// one parallel scope and one report path.
#[derive(Debug, Default)]
pub struct PrivacySession {
    shared: SharedPrivacySession,
}

/// The composed guarantee of everything a session has fitted, in the
/// forms an auditor asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositionReport {
    /// Number of budget-consuming releases recorded (a parallel scope is
    /// one release).
    pub fits: usize,
    /// Basic (sequential) composition `(Σεᵢ, Σδᵢ)`.
    pub basic: (f64, f64),
    /// The advanced-composition bound at the report's slack δ′.
    pub advanced: (f64, f64),
    /// The tighter of basic and advanced (same δ-accounting as those two).
    pub best: (f64, f64),
    /// The moments accountant's (ε, δ) at target δ = the report's slack
    /// δ′ — per-mechanism Rényi curves composed additively and converted
    /// at the optimal order. Its δ is **not** comparable to `best`'s
    /// (Gaussian calibration δs are folded into the curves, not summed),
    /// which is exactly why it is usually far tighter for many releases.
    pub rdp: MomentsAccount,
}

/// Maps a validated (ε, δ) debit onto the tightest *sound* Rényi curve
/// the session can claim without mechanism-specific metadata:
///
/// * `δ = 0` — the release is pure ε-DP; the Bun–Steinke
///   [`RenyiMechanism::PureDp`] curve holds for **any** pure mechanism
///   (Laplace vectors, Lemma-5 resample loops, exponential mechanism).
/// * `δ > 0` — every (ε, δ) release in this workspace is a classically
///   calibrated Gaussian ([`fm_privacy::mechanism::GaussianMechanism`],
///   σ = Δ·√(2 ln(1.25/δ))/ε), whose exact curve is α/(2σ̃²).
/// * `δ > 0` outside the classical calibration range (ε ≥ 1) — no curve
///   is known; the debit enters as an opaque record, composed basically.
fn record_renyi(rdp: &mut RdpLedger, epsilon: f64, delta: f64) {
    let recorded = if delta == 0.0 {
        rdp.record(RenyiMechanism::PureDp { epsilon })
    } else if let Ok(mechanism) = RenyiMechanism::gaussian_from_calibration(epsilon, delta) {
        rdp.record(mechanism)
    } else {
        rdp.record_opaque(epsilon, delta)
    };
    debug_assert!(recorded.is_ok(), "validated (ε, δ) entries always record");
}

impl PrivacySession {
    /// A session with no hard cap: fits always run, and the ledger answers
    /// *what did all of this compose to?* after the fact.
    #[must_use]
    pub fn new() -> Self {
        PrivacySession {
            shared: SharedPrivacySession::new(),
        }
    }

    /// A session enforcing a total ε budget: a fit whose advertised ε
    /// exceeds what remains errors with
    /// [`fm_privacy::PrivacyError::BudgetExhausted`] *before* running.
    ///
    /// # Errors
    /// [`FmError::Privacy`] unless `total_epsilon` is finite and > 0.
    pub fn with_budget(total_epsilon: f64) -> Result<Self> {
        Ok(PrivacySession {
            shared: SharedPrivacySession::with_cap(total_epsilon)?,
        })
    }

    /// Whether `estimator`'s advertised (ε, δ) would be accepted right
    /// now: its metadata is well-formed and the remaining budget (if any)
    /// covers its ε. A pre-flight for harnesses that want to plan a
    /// line-up before spending anything.
    #[must_use]
    pub fn can_fit<E: DpEstimator + ?Sized>(&self, estimator: &E) -> bool {
        let Some(epsilon) = estimator.epsilon() else {
            return true; // non-private: never debited
        };
        EpsDeltaEntry::validated(epsilon, estimator.delta().unwrap_or(0.0)).is_ok()
            && self
                .shared
                .within_cap(
                    self.shared.spent_units.load(Ordering::Acquire),
                    eps_to_units(epsilon),
                )
                .is_some()
    }

    /// Fits `estimator` on `data`, debiting its advertised (ε, δ) first.
    ///
    /// The debit is atomic: the (ε, δ) metadata is validated and the cap
    /// checked before anything is committed, so the budget and the audit
    /// ledger can never diverge. Once debited, the spend is kept even if
    /// the fit subsequently fails: a mechanism run that may have touched
    /// the data must be paid for whether or not it produced a usable
    /// model (its failure mode may itself be data-dependent — this is
    /// deliberately conservative for failures that precede data access,
    /// e.g. a bad surrogate interval). Non-private estimators
    /// (`epsilon() == None`) are not debited.
    ///
    /// # Errors
    /// * [`FmError::Privacy`] for malformed (ε, δ) metadata or when the
    ///   debit would exceed the remaining budget (the fit is **not** run
    ///   and nothing is recorded).
    /// * Whatever the estimator's own `fit` returns.
    pub fn fit<E, R>(&mut self, estimator: &E, data: &Dataset, rng: &mut R) -> Result<E::Model>
    where
        E: DpEstimator + ?Sized,
        R: Rng,
    {
        self.debit(estimator)?;
        estimator.fit(data, rng)
    }

    /// Fits `estimator` from a streaming [`RowSource`], debiting exactly
    /// as [`PrivacySession::fit`] does. Estimators with a native streaming
    /// pipeline (the Functional-Mechanism family) run out-of-core; others
    /// fall back to materializing via the [`DpEstimator::fit_stream`]
    /// default.
    ///
    /// # Errors
    /// As [`PrivacySession::fit`], plus transport errors from the source.
    pub fn fit_stream<E, R>(
        &mut self,
        estimator: &E,
        source: &mut dyn RowSource,
        rng: &mut R,
    ) -> Result<E::Model>
    where
        E: DpEstimator + ?Sized,
        R: Rng,
    {
        self.debit(estimator)?;
        estimator.fit_stream(source, rng)
    }

    /// Opens an opt-in **parallel-composition** scope: a group of fits on
    /// provably **disjoint** shards of one population, debited as a single
    /// release costing `(max εᵢ, max δᵢ)` instead of the sequential
    /// `(Σεᵢ, Σδᵢ)`.
    ///
    /// Parallel composition is the natural budget model for partitioned
    /// data (Wu et al.'s privacy-first design analysis): each individual's
    /// tuple lives in exactly one shard, so only one of the k mechanisms
    /// ever touches it and the worst-case privacy loss is the *maximum*
    /// per-shard ε, not the sum. That premise is also exactly what the
    /// scope enforces as far as code can: every shard fit carries a label,
    /// and fitting the **same label twice within one scope is refused** —
    /// re-touching a shard breaks disjointness and would need sequential
    /// accounting. (Code cannot verify that differently-labelled sources
    /// really cover disjoint individuals; the caller owns that claim,
    /// which is why the mode is opt-in and labelled. Note k-fold CV
    /// *training* splits overlap — each tuple appears in k−1 of them — so
    /// [`PrivacySession::cross_validate`] deliberately stays sequential.)
    ///
    /// The scope is a [`SharedParallelScope`] on the session's core, so
    /// the budget mechanics are that scope's: each shard debits only the
    /// amount by which it raises the running maximum, checked against the
    /// cap *before* the fit runs, and closing the scope
    /// ([`ParallelFits::finish`] or drop) records one release.
    #[must_use]
    pub fn parallel_fits(&mut self) -> ParallelFits<'_> {
        ParallelFits {
            scope: self.shared.parallel_scope(SESSION_TENANT),
        }
    }

    /// Fits one model per disjoint shard under parallel composition —
    /// the partitioned-data workhorse: `k` models for `max εᵢ = ε` total,
    /// shards auto-labelled by index. Returns the released models in
    /// shard order.
    ///
    /// # Errors
    /// As [`ParallelFits::fit_shard_stream`].
    pub fn fit_disjoint_shards<E, S, R>(
        &mut self,
        estimator: &E,
        shards: &mut [S],
        rng: &mut R,
    ) -> Result<Vec<E::Model>>
    where
        E: DpEstimator + ?Sized,
        S: RowSource,
        R: Rng,
    {
        let mut scope = self.parallel_fits();
        let mut models = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter_mut().enumerate() {
            models.push(scope.fit_shard_stream(&format!("shard-{i}"), estimator, shard, rng)?);
        }
        scope.finish();
        Ok(models)
    }

    /// Fits **one** model over the union of disjoint shards through
    /// [`FmEstimator::fit_sharded`] — the bits of `fit` on the
    /// concatenated rows — debiting the estimator's (ε, δ) once. The
    /// union is a single release, so this is ordinary sequential
    /// accounting (no parallel-composition scope involved); use
    /// [`PrivacySession::fit_disjoint_shards`] when each shard should get
    /// its *own* model at `max ε` total.
    ///
    /// # Errors
    /// As [`PrivacySession::fit`], plus shard/transport errors from
    /// [`FmEstimator::fit_sharded`].
    pub fn fit_sharded<O, S, R>(
        &mut self,
        estimator: &FmEstimator<O>,
        shards: &mut [S],
        rng: &mut R,
    ) -> Result<O::Model>
    where
        O: RegressionObjective,
        S: RowSource + Send,
        R: Rng,
    {
        self.debit(estimator)?;
        estimator.fit_sharded(shards, rng)
    }

    /// [`PrivacySession::fit_sharded`] for **any** [`DpEstimator`] —
    /// baselines included — through the trait-level
    /// [`DpEstimator::fit_sharded`] hook: one model over the shard union,
    /// debited once. FM estimators stream the union through one
    /// accumulator (the release of [`FmEstimator::fit_sharded`]);
    /// estimators without a streaming pipeline materialize the union and
    /// fit — same release either way, so a mixed line-up shares this one
    /// call site.
    ///
    /// # Errors
    /// As [`PrivacySession::fit_sharded`].
    pub fn fit_sharded_dyn<E, R>(
        &mut self,
        estimator: &E,
        shards: &mut [&mut (dyn RowSource + Send)],
        rng: &mut R,
    ) -> Result<E::Model>
    where
        E: DpEstimator + ?Sized,
        R: Rng,
    {
        self.debit(estimator)?;
        estimator.fit_sharded(shards, rng)
    }

    /// The debit every fitting entry point shares: reserve the advertised
    /// (ε, δ) on the core and commit it at once — the wrapper's fits run
    /// after their debit has become history.
    fn debit<E: DpEstimator + ?Sized>(&mut self, estimator: &E) -> Result<()> {
        if let Some(epsilon) = estimator.epsilon() {
            let delta = estimator.delta().unwrap_or(0.0);
            self.shared
                .begin(SESSION_TENANT, "fit", epsilon, delta)?
                .commit()?;
        }
        Ok(())
    }

    /// Runs the paper's k-fold protocol through the session: one fit per
    /// fold (each debited individually, so the session's total is the
    /// honest `k·ε` of sequential composition), scored on the held-out
    /// fold by `score`.
    ///
    /// Fold fits dispatch through the streaming entry point (an
    /// [`fm_data::stream::InMemorySource`] per training split), so FM
    /// estimators exercise their out-of-core pipeline — bit-identical
    /// released coefficients, see [`crate::estimator::FmEstimator::fit_stream`]
    /// — while baselines materialize via the trait default.
    ///
    /// Accounting stays **sequential** on purpose: the k training splits
    /// *overlap* (every tuple appears in k−1 of them), so the
    /// parallel-composition discount of
    /// [`PrivacySession::parallel_fits`] does not apply here. For
    /// shard-partitioned fitting at `max(ε)` cost, use
    /// [`PrivacySession::fit_disjoint_shards`].
    ///
    /// Generic over `dyn`/`impl` [`DpEstimator`], so the same call drives
    /// FM, the baselines, or a mixed line-up.
    ///
    /// # Errors
    /// Fold-construction errors, budget exhaustion, or fit failures.
    pub fn cross_validate<E, R>(
        &mut self,
        estimator: &E,
        data: &Dataset,
        k: usize,
        rng: &mut R,
        mut score: impl FnMut(&E::Model, &Dataset) -> f64,
    ) -> Result<Vec<f64>>
    where
        E: DpEstimator + ?Sized,
        R: Rng,
    {
        let kfold = KFold::new(data.n(), k, rng).map_err(FmError::Data)?;
        let mut scores = Vec::with_capacity(k);
        for f in 0..k {
            let (train, test) = kfold.split(data, f).map_err(FmError::Data)?;
            let model = self.fit_stream(
                estimator,
                &mut fm_data::stream::InMemorySource::new(&train),
                rng,
            )?;
            scores.push(score(&model, &test));
        }
        Ok(scores)
    }

    /// Number of budget-consuming releases recorded so far (a parallel
    /// scope is one).
    #[must_use]
    pub fn num_fits(&self) -> usize {
        self.shared.committed_fits()
    }

    /// Total ε spent under basic composition: the core's `Σεᵢ` over the
    /// recorded releases, summed in the order they were recorded (the
    /// cap itself is enforced in integer quanta).
    #[must_use]
    pub fn spent_epsilon(&self) -> f64 {
        self.shared.spent_for(SESSION_TENANT).0
    }

    /// Total δ accumulated under basic composition.
    #[must_use]
    pub fn spent_delta(&self) -> f64 {
        self.shared.spent_for(SESSION_TENANT).1
    }

    /// ε still available under the hard cap (`None` when the session is
    /// uncapped).
    #[must_use]
    pub fn remaining_epsilon(&self) -> Option<f64> {
        self.shared.remaining_epsilon()
    }

    /// A snapshot of the (ε, δ) audit ledger.
    #[must_use]
    pub fn ledger(&self) -> EpsDeltaLedger {
        self.shared.lock().ledger.clone()
    }

    /// The composed guarantee at advanced-composition slack `delta_prime`
    /// (see [`SharedPrivacySession::report`]), which doubles as the
    /// moments accountant's target δ for the report's
    /// [`CompositionReport::rdp`] column: δ = 0 debits enter as pure-DP
    /// curves, classically calibrated (ε, δ) debits as Gaussian curves,
    /// and anything else — including parallel-composition scopes — as
    /// opaque basic-composed records.
    ///
    /// # Errors
    /// [`FmError::Privacy`] unless `delta_prime ∈ (0, 1)`.
    pub fn report(&self, delta_prime: f64) -> Result<CompositionReport> {
        self.shared.report(delta_prime)
    }
}

/// An open parallel-composition scope on a [`PrivacySession`] (see
/// [`PrivacySession::parallel_fits`]): a [`SharedParallelScope`] on the
/// session's core that also runs the shard fits. Shard fits recorded here
/// debit the session `max(εᵢ)` in total, and shard labels enforce the
/// only disjointness property code can check — no shard is fitted twice.
///
/// The scope records its single `(max ε, max δ)` release when it closes,
/// via [`ParallelFits::finish`] or implicitly on drop (the cap was already
/// debited incrementally, so early exits can never under-count the
/// budget).
pub struct ParallelFits<'s> {
    scope: SharedParallelScope<'s>,
}

impl ParallelFits<'_> {
    /// Fits `estimator` on the shard identified by `label`, debiting only
    /// the amount by which its ε raises the scope's running maximum —
    /// checked against the hard cap *before* the fit runs.
    ///
    /// # Errors
    /// * [`FmError::InvalidConfig`] when `label` was already fitted in
    ///   this scope (overlapping shards — parallel composition is
    ///   unsound; use sequential [`PrivacySession::fit`] instead).
    /// * [`FmError::Privacy`] for malformed (ε, δ) metadata or an
    ///   exhausted budget (nothing is committed and the fit is not run).
    /// * Whatever the estimator's own fit returns.
    pub fn fit_shard<E, R>(
        &mut self,
        label: &str,
        estimator: &E,
        shard: &Dataset,
        rng: &mut R,
    ) -> Result<E::Model>
    where
        E: DpEstimator + ?Sized,
        R: Rng,
    {
        self.admit(label, estimator)?;
        estimator.fit(shard, rng)
    }

    /// As [`ParallelFits::fit_shard`], over a streaming [`RowSource`].
    ///
    /// # Errors
    /// As [`ParallelFits::fit_shard`], plus transport errors.
    pub fn fit_shard_stream<E, R>(
        &mut self,
        label: &str,
        estimator: &E,
        shard: &mut dyn RowSource,
        rng: &mut R,
    ) -> Result<E::Model>
    where
        E: DpEstimator + ?Sized,
        R: Rng,
    {
        self.admit(label, estimator)?;
        estimator.fit_stream(shard, rng)
    }

    /// The scope's running `(max ε, max δ)` — what closing it will record.
    #[must_use]
    pub fn composed(&self) -> (f64, f64) {
        self.scope.composed()
    }

    /// Number of shard fits recorded in this scope.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.scope.num_shards()
    }

    /// Closes the scope, recording its `(max ε, max δ)` release (a scope
    /// with no private shard fits records nothing).
    pub fn finish(self) {
        // Settling a WAL-less reservation cannot fail.
        let _ = self.scope.finish();
    }

    /// Admits a shard fit on the scope; non-private estimators are neither
    /// debited nor labelled.
    fn admit<E: DpEstimator + ?Sized>(&mut self, label: &str, estimator: &E) -> Result<()> {
        match estimator.epsilon() {
            Some(epsilon) => self
                .scope
                .admit(label, epsilon, estimator.delta().unwrap_or(0.0)),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// The accounting core: shared (concurrent, optionally WAL-backed) sessions
// ---------------------------------------------------------------------------

/// How a reservation enters the audit trail when it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    /// One release with the Rényi curve [`record_renyi`] assigns.
    Curve,
    /// One release of lost provenance (crash-recovered): an opaque,
    /// basic-composed record in the moments account.
    Opaque,
    /// One ε increment of a [`SharedParallelScope`]: committed through the
    /// WAL on its own, but recorded only as part of the scope's single
    /// `(max ε, max δ)` release.
    ScopePart,
    /// A [`Release::ScopePart`] whose scope closed while its WAL commit
    /// failed: the scope's release already counts it, so it stays open
    /// only until the WAL records the commit — sealed, and never counted
    /// again.
    Recorded,
}

/// A reservation the session is tracking but has not yet settled —
/// in-flight budget, counted as **spent** until committed or aborted.
#[derive(Debug)]
struct OpenReservation {
    tenant: String,
    epsilon: f64,
    delta: f64,
    /// The exact quanta this reservation debited from the running total
    /// — an abort refunds precisely this, restoring the pre-reserve
    /// counter bit-for-bit.
    units: u64,
    /// Recovered-dangling reservations are permanently spent
    /// (fail-closed): resumable and committable, never abortable.
    sealed: bool,
    release: Release,
}

#[derive(Debug)]
struct SharedInner {
    ledger: EpsDeltaLedger,
    /// Rényi curves of every **committed** release (see [`record_renyi`]).
    rdp: RdpLedger,
    wal: Option<WalLedger>,
    /// Committed `(Σε, Σδ)` per tenant.
    tenants: BTreeMap<String, (f64, f64)>,
    /// In-flight reservations, by id (mirrors the WAL's open set; the
    /// only store for WAL-less sessions).
    open: BTreeMap<u64, OpenReservation>,
    /// Ids currently held by a live [`BudgetPermit`] or
    /// [`SharedParallelScope`] — refuses double-attach.
    attached: BTreeSet<u64>,
    /// Id source for WAL-less sessions (the WAL allocates its own).
    next_local_id: u64,
    fits: usize,
}

/// A [`fm_privacy::PrivacyError::Durability`] error for settlement and
/// reconciliation failures.
fn durability(op: &'static str, detail: String) -> FmError {
    FmError::Privacy(fm_privacy::PrivacyError::Durability { op, detail })
}

impl SharedInner {
    /// The moments account over committed history **plus** in-flight
    /// reservations (fail-closed, like the spent counter) and an
    /// optional candidate debit — what RDP admission checks against the
    /// cap. Open reservations are folded in on the fly from their
    /// (ε, δ), so an abort simply stops contributing; nothing is ever
    /// subtracted from a curve total.
    fn projected_rdp(
        &self,
        candidate: Option<(f64, f64)>,
        target_delta: f64,
    ) -> Result<MomentsAccount> {
        let mut projected = self.rdp.clone();
        for r in self.open.values() {
            match r.release {
                Release::Curve => record_renyi(&mut projected, r.epsilon, r.delta),
                Release::Opaque | Release::ScopePart => {
                    let _ = projected.record_opaque(r.epsilon, r.delta);
                }
                Release::Recorded => {}
            }
        }
        if let Some((epsilon, delta)) = candidate {
            record_renyi(&mut projected, epsilon, delta);
        }
        Ok(projected.convert(target_delta)?)
    }

    /// Books one committed release: tenant totals, the (ε, δ) ledger, the
    /// moments account and the fit count.
    fn record(&mut self, tenant: String, epsilon: f64, delta: f64, opaque: bool) {
        let slot = self.tenants.entry(tenant).or_insert((0.0, 0.0));
        slot.0 += epsilon;
        slot.1 += delta;
        if let Ok(entry) = EpsDeltaEntry::validated(epsilon, delta) {
            self.ledger.record_entry(entry);
        }
        if opaque {
            let _ = self.rdp.record_opaque(epsilon, delta);
        } else {
            record_renyi(&mut self.rdp, epsilon, delta);
        }
        self.fits = self.fits.saturating_add(1);
    }

    /// Settles reservation `id` **exactly once**, returning the quanta
    /// the caller must refund to the spent counter (0 for a commit).
    /// Abort is refused for sealed reservations; a second settlement of
    /// the same id errors (the open-set entry is gone), so a double
    /// refund cannot occur. On failure the reservation stays open — still
    /// counted spent — and a later resume can settle it.
    fn settle(&mut self, id: u64, commit: bool) -> Result<u64> {
        // The caller's permit or scope is consumed whatever happens below,
        // so the id is no longer attached.
        self.attached.remove(&id);
        let op = if commit { "commit" } else { "abort" };
        let Some(open) = self.open.remove(&id) else {
            return Err(durability(
                op,
                format!("reservation {id} is unknown or already settled"),
            ));
        };
        if !commit && open.sealed {
            self.open.insert(id, open);
            return Err(durability(
                op,
                format!(
                    "reservation {id} is sealed (recovered from a crash, or part of \
                     a closed parallel scope): its fit may have touched data, so \
                     its budget is permanently spent (commit or resume instead)"
                ),
            ));
        }
        let logged = match &mut self.wal {
            Some(wal) if commit => wal.commit(id),
            Some(wal) => wal.abort(id),
            None => Ok(()),
        };
        if let Err(e) = logged {
            self.open.insert(id, open);
            return Err(e.into());
        }
        if !commit {
            return Ok(open.units);
        }
        match open.release {
            Release::Curve => self.record(open.tenant, open.epsilon, open.delta, false),
            Release::Opaque => self.record(open.tenant, open.epsilon, open.delta, true),
            Release::ScopePart | Release::Recorded => {}
        }
        Ok(0)
    }
}

/// A **concurrent, crash-safe** privacy session — the one accounting
/// core: many tenants × many threads admit or refuse fits against one
/// shared budget without a global `&mut`, and (optionally) every debit is
/// made durable through a [`WalLedger`] *before* any data is scanned.
/// [`PrivacySession`] is its single-owner face for experiment harnesses.
///
/// * **Admission is lock-free and exact**: the running ε total lives in
///   an [`AtomicU64`] counting integer quanta of 10⁻¹² ε
///   ([`fm_privacy::budget::eps_to_units`], CAS loop), so concurrent
///   [`SharedPrivacySession::begin`] calls race on a compare-exchange,
///   not a lock — the cap can never be oversubscribed (strictly: admitted
///   quanta never exceed the cap's; each debit is truncated to whole
///   quanta, so a cap of k·ε holds k fits at ε, and every admission
///   debits at least one quantum), refusal happens *before* any scan or noise draw, and a
///   reserve→abort round-trip restores the exact pre-reserve total
///   bit-for-bit.
/// * **Two-phase debits**: `begin` reserves (fsync'd to the WAL when one
///   is attached), the returned [`BudgetPermit`] settles —
///   [`BudgetPermit::commit`] after the release is published,
///   [`BudgetPermit::abort`] only if the fit provably never touched data.
///   **Dropping a permit commits it**: losing track of an in-flight fit
///   must never refund budget that a mechanism may have spent
///   (fail-closed).
/// * **Crash-safe**: reopening the WAL replays history; reservations that
///   were in flight at the crash come back **sealed** — still counted
///   spent, resumable via [`SharedPrivacySession::resume_reservation`]
///   (which never re-debits), but not abortable. Recovery can therefore
///   only ever *over*-count spent ε, never under-count it.
///
/// ```
/// use fm_core::session::SharedPrivacySession;
///
/// let session = SharedPrivacySession::with_cap(1.0).unwrap();
/// let permit = session.begin("census-us", "fit-a", 0.6, 0.0).unwrap();
/// // … run the fit under `permit` …
/// permit.commit().unwrap();
/// assert!(session.begin("census-us", "fit-b", 0.6, 0.0).is_err()); // 0.4 left
/// ```
#[derive(Debug)]
pub struct SharedPrivacySession {
    cap: Option<f64>,
    /// The cap in whole quanta (pre-rounded once, so every admission
    /// compares integers).
    cap_units: Option<u64>,
    /// Admit against the moments accountant instead of the naive Σε:
    /// `Some(target δ)` checks the RDP-converted ε (committed +
    /// in-flight + candidate) against the cap under the session lock.
    rdp_admission: Option<f64>,
    /// Running ε total (committed + in-flight), in integer quanta of
    /// [`EPS_QUANTUM`].
    spent_units: AtomicU64,
    inner: Mutex<SharedInner>,
}

impl Default for SharedPrivacySession {
    fn default() -> Self {
        SharedPrivacySession::new()
    }
}

impl SharedPrivacySession {
    /// An uncapped, in-memory shared session (audit ledger only).
    #[must_use]
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A shared session enforcing a total ε cap across every tenant and
    /// thread.
    ///
    /// # Errors
    /// [`FmError::Privacy`] unless `total_epsilon` is finite and > 0.
    pub fn with_cap(total_epsilon: f64) -> Result<Self> {
        // Reuse PrivacyBudget's validation so the constraint can't drift.
        PrivacyBudget::new(total_epsilon)?;
        Ok(Self::build(Some(total_epsilon), None))
    }

    /// A shared session whose every debit is made **durable** through a
    /// write-ahead log at `path` (created if absent, replayed if present).
    /// Returns the session plus the WAL's [`RecoveryReport`]; after a
    /// crash, `report.sealed_dangling` reservations come back counted as
    /// spent and resumable via
    /// [`SharedPrivacySession::resume_reservation`].
    ///
    /// # Errors
    /// [`FmError::Privacy`] for an invalid cap or a WAL that cannot be
    /// opened/replayed ([`fm_privacy::PrivacyError::Durability`] — a
    /// corrupt log is refused, not silently reset).
    pub fn with_wal(
        path: impl AsRef<std::path::Path>,
        cap: Option<f64>,
    ) -> Result<(Self, RecoveryReport)> {
        if let Some(total) = cap {
            PrivacyBudget::new(total)?;
        }
        let (wal, report) = WalLedger::open(path)?;
        let session = Self::build(cap, Some(wal));
        Ok((session, report))
    }

    fn build(cap: Option<f64>, wal: Option<WalLedger>) -> Self {
        let mut inner = SharedInner {
            ledger: EpsDeltaLedger::new(),
            rdp: RdpLedger::new(),
            wal: None,
            tenants: BTreeMap::new(),
            open: BTreeMap::new(),
            attached: BTreeSet::new(),
            next_local_id: 1,
            fits: 0,
        };
        let mut spent_units: u64 = 0;
        if let Some(wal) = wal {
            // Preload everything the log already knows. Committed history
            // lands as one aggregate ledger entry per tenant — Σε is
            // preserved exactly, and the advanced-composition bound only
            // gets *more* conservative under aggregation ((Σε)² ≥ Σε²).
            // The moments account gets the same aggregates as opaque
            // records: the per-release curves are gone, so basic
            // composition is all the recovered history can claim.
            for (tenant, eps, delta, fits) in wal.committed_by_tenant() {
                if let Ok(entry) = EpsDeltaEntry::validated(eps, delta) {
                    inner.ledger.record_entry(entry);
                }
                let _ = inner.rdp.record_opaque(eps, delta);
                inner.tenants.insert(tenant.to_string(), (eps, delta));
                inner.fits = inner.fits.saturating_add(fits);
                spent_units = spent_units.saturating_add(eps_to_units(eps));
            }
            for r in wal.open_reservations() {
                let units = eps_to_units(r.epsilon);
                spent_units = spent_units.saturating_add(units);
                inner.open.insert(
                    r.id,
                    OpenReservation {
                        tenant: r.tenant.clone(),
                        epsilon: r.epsilon,
                        delta: r.delta,
                        units,
                        sealed: r.sealed,
                        release: Release::Opaque,
                    },
                );
            }
            inner.wal = Some(wal);
        }
        SharedPrivacySession {
            cap,
            cap_units: cap.map(cap_to_units),
            rdp_admission: None,
            spent_units: AtomicU64::new(spent_units),
            inner: Mutex::new(inner),
        }
    }

    /// The session lock. The spent counter is raised before a
    /// reservation enters the books and lowered only after an abort has
    /// left them, so a thread that panicked under the lock can leave the
    /// books short of a ledger entry but never the counter short of a
    /// debit: a poisoned lock is entered, not propagated.
    fn lock(&self) -> MutexGuard<'_, SharedInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Switches cap admission from the naive running Σε to the **moments
    /// accountant**: a [`SharedPrivacySession::begin`] is admitted iff
    /// the RDP-converted ε at target `delta` — over committed history,
    /// in-flight reservations, and the candidate — stays within the cap.
    /// For many-release workloads this admits far more fits under the
    /// same cap (the naive sum over-counts by the full composition gap).
    /// No-op on an uncapped session. The RDP check runs under the
    /// session lock; the lock-free counter keeps tracking the naive Σε
    /// for [`SharedPrivacySession::spent_epsilon`] but no longer refuses
    /// on it.
    ///
    /// # Errors
    /// [`FmError::Privacy`] unless `delta ∈ (0, 1)`.
    pub fn admit_by_rdp(mut self, delta: f64) -> Result<Self> {
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
            return Err(FmError::Privacy(
                fm_privacy::PrivacyError::InvalidParameter {
                    name: "delta",
                    value: delta,
                    constraint: "RDP admission target must satisfy 0 < delta < 1",
                },
            ));
        }
        self.rdp_admission = Some(delta);
        Ok(self)
    }

    /// The one naive-cap comparison: the running total after debiting
    /// `units` more quanta on top of `spent`, or `None` when that would
    /// pass the cap (or overflow the counter).
    fn within_cap(&self, spent: u64, units: u64) -> Option<u64> {
        spent
            .checked_add(units)
            .filter(|&total| self.cap_units.map_or(true, |cap| total <= cap))
    }

    /// Lock-free cap admission: atomically raises the running total by
    /// `units` quanta, refusing (without side effects) when the integer
    /// cap would be exceeded. Under RDP admission the naive cap check is
    /// skipped — the moments-accountant check in
    /// [`SharedPrivacySession::begin`] is the admission criterion — but
    /// the counter still tracks the fail-closed Σε.
    fn try_spend(&self, units: u64) -> Result<()> {
        let mut cur = self.spent_units.load(Ordering::Acquire);
        loop {
            let admitted = if self.rdp_admission.is_none() {
                self.within_cap(cur, units)
            } else {
                cur.checked_add(units)
            };
            let Some(new) = admitted else {
                return Err(FmError::Privacy(
                    fm_privacy::PrivacyError::BudgetExhausted {
                        requested: units_to_eps(units),
                        remaining: self
                            .cap
                            .map_or(0.0, |cap| (cap - units_to_eps(cur)).max(0.0)),
                    },
                ));
            };
            match self.spent_units.compare_exchange_weak(
                cur,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically lowers the running total by exactly the quanta a
    /// reservation debited — integer subtraction, so the pre-reserve
    /// value is restored bit-for-bit. Underflow is structurally
    /// impossible (every refund comes from settling an open reservation
    /// exactly once; double-settlement errors upstream), so it is only
    /// debug-asserted, and saturates rather than wraps in release.
    fn unspend(&self, units: u64) {
        let mut cur = self.spent_units.load(Ordering::Acquire);
        loop {
            debug_assert!(cur >= units, "refunded more quanta than were spent");
            // Saturate: a (buggy) over-refund must not wrap into an
            // astronomically large spent total and brick admission.
            let new = cur.saturating_sub(units);
            match self.spent_units.compare_exchange_weak(
                cur,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reserves `(ε, δ)` for one fit by `tenant` under `label`, returning
    /// the [`FitPermit`] that must settle it. The debit is counted (and,
    /// with a WAL, fsync'd) **before** this returns — refuse-before-scan:
    /// a caller that cannot get a permit has spent nothing and must not
    /// touch the data.
    ///
    /// # Errors
    /// * [`FmError::Privacy`] for malformed (ε, δ), an exhausted cap
    ///   (nothing is committed), or a WAL append failure (the atomic
    ///   admission is rolled back — a debit that isn't durable doesn't
    ///   count as granted).
    pub fn begin(
        &self,
        tenant: &str,
        label: &str,
        epsilon: f64,
        delta: f64,
    ) -> Result<FitPermit<'_>> {
        let (id, epsilon) = self.admit_fit(tenant, label, epsilon, delta)?;
        Ok(BudgetPermit::new(self, id, epsilon))
    }

    /// [`SharedPrivacySession::begin`] for sessions shared behind an
    /// [`Arc`]: identical admission (same lock-free CAS, same
    /// refuse-before-scan durability), but the returned
    /// [`OwnedFitPermit`] carries its own session handle instead of a
    /// borrow — what a service hands to a worker thread along with the
    /// job.
    ///
    /// # Errors
    /// As [`SharedPrivacySession::begin`].
    pub fn begin_owned(
        self: &Arc<Self>,
        tenant: &str,
        label: &str,
        epsilon: f64,
        delta: f64,
    ) -> Result<OwnedFitPermit> {
        let (id, epsilon) = self.admit_fit(tenant, label, epsilon, delta)?;
        Ok(BudgetPermit::new(Arc::clone(self), id, epsilon))
    }

    /// The admission both `begin` flavours share: validate, then reserve
    /// the ε truncated to quanta. Returns the reservation id and its ε.
    fn admit_fit(&self, tenant: &str, label: &str, epsilon: f64, delta: f64) -> Result<(u64, f64)> {
        let entry = EpsDeltaEntry::validated(epsilon, delta)?;
        let id = self.reserve(
            tenant,
            label,
            entry,
            eps_to_units(entry.epsilon),
            Release::Curve,
        )?;
        Ok((id, entry.epsilon))
    }

    /// Debits `units` quanta for a validated `entry` and opens its
    /// reservation (WAL-fsync'd when a log is attached), attached to the
    /// caller. Every failure rolls the atomic admission back.
    fn reserve(
        &self,
        tenant: &str,
        label: &str,
        entry: EpsDeltaEntry,
        units: u64,
        release: Release,
    ) -> Result<u64> {
        self.try_spend(units)?;
        let mut inner = self.lock();
        if let (Some(target_delta), Some(cap)) = (self.rdp_admission, self.cap) {
            // Moments-accountant admission: the converted ε over committed
            // + in-flight + this candidate must stay within the cap.
            let projected = inner
                .projected_rdp(Some((entry.epsilon, entry.delta)), target_delta)
                .map(|account| account.epsilon);
            match projected {
                Ok(projected) if projected <= cap => {}
                Ok(_) => {
                    let current = inner
                        .projected_rdp(None, target_delta)
                        .map_or(0.0, |account| account.epsilon);
                    drop(inner);
                    self.unspend(units);
                    return Err(FmError::Privacy(
                        fm_privacy::PrivacyError::BudgetExhausted {
                            requested: entry.epsilon,
                            remaining: (cap - current).max(0.0),
                        },
                    ));
                }
                Err(e) => {
                    drop(inner);
                    self.unspend(units);
                    return Err(e);
                }
            }
        }
        let id = match &mut inner.wal {
            Some(wal) => match wal.reserve(tenant, label, entry.epsilon, entry.delta) {
                Ok(id) => id,
                Err(e) => {
                    drop(inner);
                    self.unspend(units);
                    return Err(e.into());
                }
            },
            None => {
                let id = inner.next_local_id;
                inner.next_local_id += 1;
                id
            }
        };
        inner.open.insert(
            id,
            OpenReservation {
                tenant: tenant.to_string(),
                epsilon: entry.epsilon,
                delta: entry.delta,
                units,
                sealed: false,
                release,
            },
        );
        inner.attached.insert(id);
        Ok(id)
    }

    /// Re-attaches to a reservation that is already counted as spent —
    /// typically one recovery found dangling (sealed) after a crash, with
    /// its id carried in a [`crate::estimator::PartialFit::checkpoint`]
    /// snapshot. **Never re-debits**: the budget was spent when the
    /// original `begin` ran; the permit returned here merely lets the
    /// resumed fit settle it. Sealed reservations refuse
    /// [`BudgetPermit::abort`] (the interrupted fit may have touched
    /// data).
    ///
    /// # Errors
    /// [`FmError::Privacy`] ([`fm_privacy::PrivacyError::Durability`])
    /// when `id` is unknown, already settled, or already attached to a
    /// live permit.
    pub fn resume_reservation(&self, id: u64) -> Result<FitPermit<'_>> {
        let epsilon = self.attach(id)?;
        Ok(BudgetPermit::new(self, id, epsilon))
    }

    /// [`SharedPrivacySession::resume_reservation`], owned-permit flavour
    /// (see [`SharedPrivacySession::begin_owned`]). Never re-debits.
    ///
    /// # Errors
    /// As [`SharedPrivacySession::resume_reservation`].
    pub fn resume_reservation_owned(self: &Arc<Self>, id: u64) -> Result<OwnedFitPermit> {
        let epsilon = self.attach(id)?;
        Ok(BudgetPermit::new(Arc::clone(self), id, epsilon))
    }

    /// Attaches open reservation `id` to a new permit, returning its ε.
    fn attach(&self, id: u64) -> Result<f64> {
        let mut inner = self.lock();
        let Some(epsilon) = inner.open.get(&id).map(|open| open.epsilon) else {
            return Err(durability(
                "resume",
                format!("reservation {id} is unknown or already settled"),
            ));
        };
        if !inner.attached.insert(id) {
            return Err(durability(
                "resume",
                format!("reservation {id} is already attached to a live permit"),
            ));
        }
        Ok(epsilon)
    }

    /// Settles a permit's reservation (see [`SharedInner::settle`]),
    /// refunding an abort's quanta to the spent counter.
    fn settle(&self, id: u64, commit: bool) -> Result<()> {
        let refund = self.lock().settle(id, commit)?;
        if refund > 0 {
            self.unspend(refund);
        }
        Ok(())
    }

    /// Releases `id` from its live permit without settling it (see
    /// [`BudgetPermit::detach`]).
    fn detach_reservation(&self, id: u64) {
        self.lock().attached.remove(&id);
    }

    /// Total ε currently counted as spent — committed releases **plus**
    /// in-flight reservations (fail-closed: budget is spent the moment it
    /// is granted, reclaimed only by an explicit, legal abort). The value
    /// is the integer quanta counter scaled back to ε: each debit was
    /// quantized to 10⁻¹² once, and everything after that is exact —
    /// reserve→abort round-trips return this to bit-for-bit the prior
    /// value.
    #[must_use]
    pub fn spent_epsilon(&self) -> f64 {
        units_to_eps(self.spent_units.load(Ordering::Acquire))
    }

    /// ε still grantable under the cap (`None` when uncapped).
    #[must_use]
    pub fn remaining_epsilon(&self) -> Option<f64> {
        self.cap.map(|c| (c - self.spent_epsilon()).max(0.0))
    }

    /// Committed releases so far (in-flight permits are not yet fits; a
    /// closed parallel scope is one).
    #[must_use]
    pub fn committed_fits(&self) -> usize {
        self.lock().fits
    }

    /// `(Σε, Σδ)` counted against `tenant`: committed history plus
    /// in-flight reservations (fail-closed, like
    /// [`SharedPrivacySession::spent_epsilon`]).
    #[must_use]
    pub fn spent_for(&self, tenant: &str) -> (f64, f64) {
        let inner = self.lock();
        let (mut eps, mut delta) = inner.tenants.get(tenant).copied().unwrap_or((0.0, 0.0));
        for open in inner.open.values() {
            if open.tenant == tenant && open.release != Release::Recorded {
                eps += open.epsilon;
                delta += open.delta;
            }
        }
        (eps, delta)
    }

    /// The composed guarantee of every **committed** release at
    /// advanced-composition slack `delta_prime`. In-flight reservations
    /// are excluded (they have not released anything yet) — use
    /// [`SharedPrivacySession::spent_epsilon`] for the fail-closed total.
    /// A closed parallel scope is one `(max ε, max δ)` release. After a
    /// WAL recovery, pre-crash history enters as one aggregate entry per
    /// tenant: Σε is exact and the advanced bound is conservative (never
    /// tighter than the per-fit bound would be).
    ///
    /// # Errors
    /// [`FmError::Privacy`] unless `delta_prime ∈ (0, 1)`.
    pub fn report(&self, delta_prime: f64) -> Result<CompositionReport> {
        let inner = self.lock();
        let basic = inner.ledger.basic_composition();
        let advanced = inner.ledger.advanced_composition(delta_prime)?;
        let best = inner.ledger.best_composition(delta_prime)?;
        let rdp = inner.rdp.convert(delta_prime)?;
        Ok(CompositionReport {
            fits: inner.fits,
            basic,
            advanced,
            best,
            rdp,
        })
    }

    /// Reconciles the session's integer spent counter against the WAL's
    /// own (float-summed) totals — the drift check that motivated the
    /// integer counter in the first place. The two are computed by
    /// different arithmetic over the same records, so they agree only up
    /// to one quantization step per WAL record (a parallel scope logs one
    /// record per ε increment); any larger divergence means the admission
    /// counter and the durable log have genuinely come apart. Call at
    /// quiescence: an admission concurrently between its counter update
    /// and its WAL append shows up as transient drift. No-op without a
    /// WAL.
    ///
    /// # Errors
    /// [`FmError::Privacy`] ([`fm_privacy::PrivacyError::Durability`])
    /// when the totals diverge beyond per-record quantization error.
    pub fn reconcile_wal(&self) -> Result<()> {
        let inner = self.lock();
        let Some(wal) = &inner.wal else {
            return Ok(());
        };
        let (wal_epsilon, records) = (wal.spent().0, wal.fits());
        drop(inner);
        let session_epsilon = self.spent_epsilon();
        #[allow(clippy::cast_precision_loss)]
        let tolerance = (records as f64 + 1.0) * EPS_QUANTUM;
        if (wal_epsilon - session_epsilon).abs() > tolerance {
            return Err(durability(
                "reconcile",
                format!(
                    "session spent counter {session_epsilon} and WAL total {wal_epsilon} \
                     diverge beyond quantization tolerance {tolerance}"
                ),
            ));
        }
        Ok(())
    }

    /// Compacts the attached WAL (no-op without one): rewrites the log as
    /// per-tenant committed totals plus the still-open reservations, so
    /// the file stops growing with fit count.
    ///
    /// # Errors
    /// [`FmError::Privacy`] on WAL I/O failure.
    pub fn compact_wal(&self) -> Result<()> {
        if let Some(wal) = &mut self.lock().wal {
            wal.compact()?;
        }
        Ok(())
    }

    /// Size/garbage statistics of the attached WAL (`None` without one) —
    /// what a background [`CompactionPolicy`] consults.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.lock().wal.as_ref().map(WalLedger::stats)
    }

    /// Open reservations **not** attached to a live permit: sealed
    /// reservations (crash-recovered, or increments of a closed parallel
    /// scope whose WAL commit failed) awaiting
    /// [`SharedPrivacySession::resume_reservation`], plus reservations a
    /// checkpointing shutdown detached ([`BudgetPermit::detach`]). All
    /// still counted as spent.
    #[must_use]
    pub fn dangling_reservations(&self) -> usize {
        let inner = self.lock();
        inner
            .open
            .keys()
            .filter(|id| !inner.attached.contains(id))
            .count()
    }

    /// Compacts the attached WAL **iff** `policy` says it is due *and* no
    /// reservation is dangling; returns whether a compaction ran. The call
    /// a serving loop makes after every settle: cheap when not due (one
    /// stats read under the session lock), and deliberately conservative —
    /// a dangling reservation is one some checkpoint snapshot may
    /// reference, and while compaction preserves reservation ids, a log
    /// that is about to be resumed against is left byte-for-byte alone.
    ///
    /// No-op (`Ok(false)`) without a WAL.
    ///
    /// # Errors
    /// [`FmError::Privacy`] on WAL I/O failure during the rewrite (the
    /// original log is untouched on failure).
    pub fn maybe_compact_wal(&self, policy: &CompactionPolicy) -> Result<bool> {
        let mut inner = self.lock();
        let SharedInner {
            wal,
            open,
            attached,
            ..
        } = &mut *inner;
        let Some(wal) = wal.as_mut() else {
            return Ok(false);
        };
        if !policy.due(&wal.stats()) {
            return Ok(false);
        }
        if open.keys().any(|id| !attached.contains(id)) {
            return Ok(false);
        }
        wal.compact()?;
        Ok(true)
    }

    /// Opens a **parallel-composition** scope for `tenant`: fits on
    /// provably disjoint shards admitted through it cost `max εᵢ` in
    /// total. This is the one scope implementation — a
    /// [`PrivacySession::parallel_fits`] scope is one of these. Labels
    /// enforce the code-checkable half of disjointness (no label twice);
    /// see [`SharedParallelScope`] for the debit and report mechanics.
    #[must_use]
    pub fn parallel_scope(&self, tenant: &str) -> SharedParallelScope<'_> {
        SharedParallelScope {
            session: self,
            tenant: tenant.to_string(),
            max_epsilon: 0.0,
            max_delta: 0.0,
            max_units: 0,
            labels: Vec::new(),
            increments: Vec::new(),
            closed: false,
        }
    }
}

/// A granted, unsettled budget reservation (see
/// [`SharedPrivacySession::begin`]), generic over how it holds its
/// session: [`FitPermit`] borrows it, [`OwnedFitPermit`] shares it through
/// an [`Arc`] so a service can move the permit into a worker-thread job
/// that outlives the submitting stack frame. Exactly one of four things
/// happens to it:
///
/// * [`BudgetPermit::commit`] — the fit released a model; the spend
///   becomes committed history.
/// * [`BudgetPermit::abort`] — the fit provably never touched data (e.g.
///   its source failed before the first block); the budget is reclaimed.
///   Refused for sealed reservations (crash-recovered, or increments of
///   a closed parallel scope).
/// * [`BudgetPermit::detach`] — a checkpointing shutdown leaves the
///   reservation open and resumable.
/// * **Drop** — treated as commit. Losing a permit must never refund
///   budget a mechanism may have spent (fail-closed).
#[derive(Debug)]
#[must_use = "a dropped permit commits its debit; settle it explicitly"]
pub struct BudgetPermit<S: Deref<Target = SharedPrivacySession>> {
    session: S,
    id: u64,
    epsilon: f64,
    settled: bool,
}

/// A [`BudgetPermit`] that borrows its session.
pub type FitPermit<'s> = BudgetPermit<&'s SharedPrivacySession>;

/// A [`BudgetPermit`] that owns a handle to a session shared behind an
/// [`Arc`] (see [`SharedPrivacySession::begin_owned`]).
pub type OwnedFitPermit = BudgetPermit<Arc<SharedPrivacySession>>;

impl<S: Deref<Target = SharedPrivacySession>> BudgetPermit<S> {
    fn new(session: S, id: u64, epsilon: f64) -> Self {
        BudgetPermit {
            session,
            id,
            epsilon,
            settled: false,
        }
    }

    /// The reservation id — durable across crashes when the session has a
    /// WAL; carry it in streaming-fit checkpoints
    /// ([`crate::estimator::PartialFit::with_reservation`]) so a resumed
    /// fit re-attaches instead of re-debiting.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The ε this permit reserved.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Settles the reservation as spent-and-released.
    ///
    /// # Errors
    /// [`FmError::Privacy`] on WAL I/O failure (the reservation stays
    /// open — still counted spent — and the permit is consumed; recovery
    /// or a later [`SharedPrivacySession::resume_reservation`] can settle
    /// it).
    pub fn commit(mut self) -> Result<()> {
        self.settled = true;
        self.session.settle(self.id, true)
    }

    /// Reclaims the reservation — legal **only** when the fit never
    /// touched data.
    ///
    /// # Errors
    /// [`FmError::Privacy`] when the reservation is sealed (crash-
    /// recovered: permanently spent) or on WAL I/O failure. Either way
    /// the budget stays debited.
    pub fn abort(mut self) -> Result<()> {
        self.settled = true;
        self.session.settle(self.id, false)
    }

    /// Consumes the permit **without settling**: the reservation stays
    /// open — still counted as spent, exactly as durable as `begin` made
    /// it — and immediately becomes re-attachable via
    /// [`SharedPrivacySession::resume_reservation`], in this process or
    /// (with a WAL) the next one. Returns the reservation id.
    ///
    /// This is the graceful-shutdown half of checkpointing: snapshot the
    /// partial fit (which embeds this id), detach, exit. Unlike drop,
    /// nothing is committed — a resumed fit must be able to finish and
    /// commit under the *same* reservation, debiting exactly once.
    #[must_use = "carry the returned id (or a checkpoint embedding it) to resume later"]
    pub fn detach(mut self) -> u64 {
        self.settled = true;
        self.session.detach_reservation(self.id);
        self.id
    }
}

impl<S: Deref<Target = SharedPrivacySession>> Drop for BudgetPermit<S> {
    fn drop(&mut self) {
        if !self.settled {
            // Fail-closed: an abandoned permit commits. Errors are
            // swallowed — the reservation then stays open, which still
            // counts as spent.
            let _ = self.session.settle(self.id, true);
        }
    }
}

/// An open parallel-composition scope on a [`SharedPrivacySession`] (see
/// [`SharedPrivacySession::parallel_scope`]) — the one scope both session
/// APIs use.
///
/// * **Debits**: a shard admission debits only the quanta by which its ε
///   raises the scope's running maximum. Each such increment is reserved
///   on its own (atomically admitted and WAL-fsync'd) *before* the shard
///   runs, and committed through the WAL on its own when the scope
///   closes, so the committed increments sum to exactly the quanta of
///   `max ε`.
/// * **Report**: closing the scope — [`SharedParallelScope::finish`] or
///   drop — records exactly one release: one `(max ε, max δ)` ledger
///   entry, one opaque moments-account record (shards may mix mechanism
///   families, so no single Rényi curve is sound) and one fit. The
///   increments are never reported as separate releases: they are pieces
///   of one max-ε release, and composing them would understate its cost.
/// * **Fail-closed**: dropping the scope commits too; increments are
///   never refunded.
pub struct SharedParallelScope<'s> {
    session: &'s SharedPrivacySession,
    tenant: String,
    max_epsilon: f64,
    max_delta: f64,
    /// `max_epsilon` in quanta — the sum of the reserved increments.
    max_units: u64,
    labels: Vec<String>,
    /// Open increment reservation ids awaiting scope close.
    increments: Vec<u64>,
    closed: bool,
}

impl SharedParallelScope<'_> {
    /// Admits a shard fit at `(ε, δ)` under `label`, debiting (and
    /// WAL-reserving) only the increase over the scope's running maximum.
    /// Must be called — and must succeed — *before* the shard fit touches
    /// data.
    ///
    /// # Errors
    /// * [`FmError::InvalidConfig`] when `label` was already admitted in
    ///   this scope (overlapping shards compose sequentially).
    /// * [`FmError::Privacy`] for malformed (ε, δ), an exhausted cap, or
    ///   a WAL failure (the atomic admission is rolled back).
    pub fn admit(&mut self, label: &str, epsilon: f64, delta: f64) -> Result<()> {
        let entry = EpsDeltaEntry::validated(epsilon, delta)?;
        if self.labels.iter().any(|l| l == label) {
            return Err(FmError::InvalidConfig {
                name: "shard",
                reason: format!(
                    "shard `{label}` was already admitted in this parallel-composition scope; \
                     overlapping shards must compose sequentially"
                ),
            });
        }
        let units = eps_to_units(entry.epsilon);
        if units > self.max_units {
            // Quanta are monotone in ε, so a larger count means a larger ε
            // and the increment below is positive.
            let increment = EpsDeltaEntry {
                epsilon: entry.epsilon - self.max_epsilon,
                delta: entry.delta.max(self.max_delta) - self.max_delta,
            };
            let id = self.session.reserve(
                &self.tenant,
                &format!("{}+{label}", self.labels.len()),
                increment,
                units - self.max_units,
                Release::ScopePart,
            )?;
            self.increments.push(id);
            self.max_units = units;
        }
        self.max_epsilon = self.max_epsilon.max(entry.epsilon);
        self.max_delta = self.max_delta.max(entry.delta);
        self.labels.push(label.to_string());
        Ok(())
    }

    /// The scope's running `(max ε, max δ)`.
    #[must_use]
    pub fn composed(&self) -> (f64, f64) {
        (self.max_epsilon, self.max_delta)
    }

    /// Number of shards admitted so far.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.labels.len()
    }

    /// The shard labels admitted so far, in admission order — an audit
    /// hook for callers that must prove *who* was debited (a federated
    /// coordinator asserting that dropped clients never reached the
    /// scope, for example).
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Closes the scope: commits every increment reservation through the
    /// WAL and records the scope's one `(max ε, max δ)` release.
    ///
    /// # Errors
    /// [`FmError::Privacy`] on WAL I/O failure; unsettled increments stay
    /// open, which still counts as spent (fail-closed), and the release
    /// is recorded regardless. Those increments are sealed: a later
    /// [`SharedPrivacySession::resume_reservation`] can commit them to
    /// the WAL, but never abort them.
    pub fn finish(mut self) -> Result<()> {
        self.close()
    }

    fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        let mut inner = self.session.lock();
        let mut first_err = None;
        for id in self.increments.drain(..) {
            if let Err(e) = inner.settle(id, true) {
                // The release below counts this increment: it stays open
                // (and spent) only for the WAL, and can never be refunded.
                if let Some(open) = inner.open.get_mut(&id) {
                    open.sealed = true;
                    open.release = Release::Recorded;
                }
                first_err.get_or_insert(e);
            }
        }
        if !self.labels.is_empty() {
            let tenant = std::mem::take(&mut self.tenant);
            inner.record(tenant, self.max_epsilon, self.max_delta, true);
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for SharedParallelScope<'_> {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::DpLinearRegression;
    use fm_data::metrics;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(808)
    }

    #[test]
    fn session_debits_every_fit() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 2_000, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.3).build();
        let mut session = PrivacySession::new();
        for _ in 0..4 {
            session.fit(&est, &data, &mut r).unwrap();
        }
        assert_eq!(session.num_fits(), 4);
        assert!((session.spent_epsilon() - 1.2).abs() < 1e-12);
        assert_eq!(session.spent_delta(), 0.0);
        assert_eq!(session.remaining_epsilon(), None);
    }

    #[test]
    fn over_budget_fit_errors_before_running() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 1_000, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.6).build();
        let mut session = PrivacySession::with_budget(1.0).unwrap();
        session.fit(&est, &data, &mut r).unwrap();
        let err = session.fit(&est, &data, &mut r).unwrap_err();
        assert!(matches!(err, FmError::Privacy(_)), "{err}");
        // The refused fit must not be recorded.
        assert_eq!(session.num_fits(), 1);
        assert!((session.spent_epsilon() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn malformed_delta_is_refused_without_touching_budget_or_ledger() {
        // An estimator advertising an invalid δ must be rejected *before*
        // anything is committed: budget and ledger stay in lock-step.
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 2, 0.1);
        let est = DpLinearRegression::builder()
            .epsilon(0.5)
            .noise(crate::NoiseDistribution::Gaussian { delta: 1.0 })
            .build();
        let mut session = PrivacySession::with_budget(1.0).unwrap();
        assert!(!session.can_fit(&est));
        let err = session.fit(&est, &data, &mut r).unwrap_err();
        assert!(matches!(err, FmError::Privacy(_)), "{err}");
        assert_eq!(session.num_fits(), 0);
        assert_eq!(session.spent_epsilon(), 0.0);
        assert_eq!(session.remaining_epsilon(), Some(1.0));
    }

    #[test]
    fn can_fit_preflight_tracks_the_budget() {
        // A non-private stand-in: never debited, always passes pre-flight.
        struct Free;
        impl DpEstimator for Free {
            type Model = ();
            fn fit(&self, _: &Dataset, _: &mut dyn rand::RngCore) -> Result<()> {
                Ok(())
            }
            fn epsilon(&self) -> Option<f64> {
                None
            }
            fn task(&self) -> crate::ModelKind {
                crate::ModelKind::Linear
            }
        }

        let est = DpLinearRegression::builder().epsilon(0.6).build();
        let mut session = PrivacySession::with_budget(1.0).unwrap();
        assert!(session.can_fit(&est));
        assert!(session.can_fit(&Free));
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 2, 0.1);
        session.fit(&est, &data, &mut r).unwrap();
        assert!(!session.can_fit(&est), "0.4 left < 0.6 asked");
        assert!(session.can_fit(&Free), "non-private is never refused");
    }

    #[test]
    fn parallel_scope_debits_max_not_sum() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 3_000, 2, 0.1);
        let idx: Vec<usize> = (0..data.n()).collect();
        let shards = [
            data.subset(&idx[..1_000]).unwrap(),
            data.subset(&idx[1_000..2_000]).unwrap(),
            data.subset(&idx[2_000..]).unwrap(),
        ];
        let small = DpLinearRegression::builder().epsilon(0.3).build();
        let large = DpLinearRegression::builder().epsilon(0.5).build();

        let mut session = PrivacySession::with_budget(1.0).unwrap();
        let mut scope = session.parallel_fits();
        scope.fit_shard("a", &small, &shards[0], &mut r).unwrap();
        scope.fit_shard("b", &large, &shards[1], &mut r).unwrap();
        scope.fit_shard("c", &small, &shards[2], &mut r).unwrap();
        assert_eq!(scope.num_shards(), 3);
        assert_eq!(scope.composed(), (0.5, 0.0));
        scope.finish();

        // One release at max(ε) = 0.5, not Σε = 1.1 (which would overdraw
        // the 1.0 cap).
        assert_eq!(session.num_fits(), 1);
        assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
        assert!((session.remaining_epsilon().unwrap() - 0.5).abs() < 1e-12);
        let report = session.report(1e-6).unwrap();
        assert!((report.basic.0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_scope_refuses_overlapping_shards() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.2).build();
        let mut session = PrivacySession::new();
        let mut scope = session.parallel_fits();
        scope.fit_shard("east", &est, &data, &mut r).unwrap();
        // Touching the same shard again breaks disjointness: refused
        // before the mechanism runs, nothing additional debited.
        let err = scope.fit_shard("east", &est, &data, &mut r).unwrap_err();
        assert!(matches!(err, FmError::InvalidConfig { .. }), "{err}");
        assert_eq!(scope.num_shards(), 1);
        scope.finish();
        assert!((session.spent_epsilon() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn parallel_scope_commits_on_drop_and_respects_the_cap() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.6).build();
        let over = DpLinearRegression::builder().epsilon(0.9).build();
        let mut session = PrivacySession::with_budget(0.7).unwrap();
        {
            let mut scope = session.parallel_fits();
            scope.fit_shard("a", &est, &data, &mut r).unwrap();
            // Raising the max to 0.9 needs 0.3 more than the 0.1 left:
            // refused before running, scope keeps its 0.6 max.
            assert!(scope.fit_shard("b", &over, &data, &mut r).is_err());
            // Dropped without finish(): the ledger entry must still land.
        }
        assert_eq!(session.num_fits(), 1);
        assert!((session.spent_epsilon() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fit_disjoint_shards_releases_one_model_per_shard() {
        use fm_data::stream::InMemorySource;
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 3_000, 2, 0.1);
        let idx: Vec<usize> = (0..data.n()).collect();
        let parts = [
            data.subset(&idx[..1_500]).unwrap(),
            data.subset(&idx[1_500..]).unwrap(),
        ];
        let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
        let est = DpLinearRegression::builder().epsilon(0.4).build();
        let mut session = PrivacySession::with_budget(0.5).unwrap();
        let models = session
            .fit_disjoint_shards(&est, &mut shards, &mut r)
            .unwrap();
        assert_eq!(models.len(), 2);
        assert!((session.spent_epsilon() - 0.4).abs() < 1e-12);
        assert_eq!(session.num_fits(), 1);
    }

    #[test]
    fn session_fit_stream_debits_like_fit() {
        use fm_data::stream::InMemorySource;
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 2_000, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.3).build();
        let mut session = PrivacySession::with_budget(0.5).unwrap();
        session
            .fit_stream(&est, &mut InMemorySource::new(&data), &mut r)
            .unwrap();
        assert!((session.spent_epsilon() - 0.3).abs() < 1e-12);
        // Second stream fit would overdraw: refused before touching data.
        assert!(session
            .fit_stream(&est, &mut InMemorySource::new(&data), &mut r)
            .is_err());
    }

    #[test]
    fn cross_validate_composes_k_times_epsilon() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 2_500, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.2).build();
        let mut session = PrivacySession::new();
        let scores = session
            .cross_validate(&est, &data, 5, &mut r, |m, test| {
                metrics::mse(&m.predict_batch(test.x()), test.y())
            })
            .unwrap();
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(session.num_fits(), 5);
        assert!((session.spent_epsilon() - 1.0).abs() < 1e-12);
        let report = session.report(1e-6).unwrap();
        assert_eq!(report.fits, 5);
        assert!((report.basic.0 - 1.0).abs() < 1e-12);
        assert!(report.best.0 <= report.basic.0 + 1e-12);
    }

    #[test]
    fn shared_session_commit_abort_and_drop_semantics() {
        let session = SharedPrivacySession::with_cap(1.0).unwrap();

        // Commit: spend becomes committed history.
        let p = session.begin("t1", "a", 0.3, 0.0).unwrap();
        assert!(
            (session.spent_epsilon() - 0.3).abs() < 1e-12,
            "in-flight counts as spent"
        );
        p.commit().unwrap();
        assert!((session.spent_epsilon() - 0.3).abs() < 1e-12);
        assert_eq!(session.committed_fits(), 1);

        // Abort: budget reclaimed.
        let p = session.begin("t1", "b", 0.5, 0.0).unwrap();
        assert!((session.spent_epsilon() - 0.8).abs() < 1e-12);
        p.abort().unwrap();
        assert!((session.spent_epsilon() - 0.3).abs() < 1e-12);

        // Drop: fail-closed commit.
        {
            let _p = session.begin("t2", "c", 0.2, 0.0).unwrap();
        }
        assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
        assert_eq!(session.committed_fits(), 2);
        assert!((session.spent_for("t2").0 - 0.2).abs() < 1e-12);

        // Cap refusal happens before anything is committed.
        let err = session.begin("t3", "d", 0.6, 0.0).unwrap_err();
        assert!(matches!(err, FmError::Privacy(_)), "{err}");
        assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
        let report = session.report(1e-6).unwrap();
        assert_eq!(report.fits, 2);
        assert!((report.basic.0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_session_never_oversubscribes_under_contention() {
        // 8 threads × 50 attempts at ε = 0.01 against a 0.25 cap: exactly
        // 25-ish grants can land; the committed total must never exceed
        // the cap no matter the interleaving.
        let session = SharedPrivacySession::with_cap(0.25).unwrap();
        let granted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let session = &session;
                let granted = &granted;
                s.spawn(move || {
                    for i in 0..50 {
                        match session.begin(&format!("tenant-{t}"), &format!("fit-{i}"), 0.01, 0.0)
                        {
                            Ok(p) => {
                                granted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                p.commit().unwrap();
                            }
                            Err(FmError::Privacy(fm_privacy::PrivacyError::BudgetExhausted {
                                ..
                            })) => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        let n = granted.load(std::sync::atomic::Ordering::Relaxed);
        assert!(n >= 25, "cap admits 25 grants, {n} landed");
        assert!(session.spent_epsilon() <= 0.25 + 1e-9, "oversubscribed");
        assert_eq!(session.committed_fits(), n);
    }

    #[test]
    fn shared_session_wal_recovery_is_fail_closed() {
        let dir = std::env::temp_dir().join(format!("fm-shared-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.wal");
        let _ = std::fs::remove_file(&path);

        let (committed_id, dangling_id);
        {
            let (session, report) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
            assert!(report.fresh);
            let p = session.begin("census", "done", 0.4, 0.0).unwrap();
            committed_id = p.id();
            p.commit().unwrap();
            let p = session.begin("census", "in-flight", 0.3, 0.0).unwrap();
            dangling_id = p.id();
            std::mem::forget(p); // simulate a crash: never settled
        }
        assert_ne!(committed_id, dangling_id);

        let (session, report) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
        assert!(!report.fresh);
        assert_eq!(report.sealed_dangling, 1);
        // Fail-closed: the dangling reservation still counts as spent.
        assert!((session.spent_epsilon() - 0.7).abs() < 1e-12);
        assert!((session.spent_for("census").0 - 0.7).abs() < 1e-12);

        // Resume never re-debits…
        let p = session.resume_reservation(dangling_id).unwrap();
        assert!((session.spent_epsilon() - 0.7).abs() < 1e-12);
        // …double-attach is refused…
        assert!(session.resume_reservation(dangling_id).is_err());
        // …abort of a sealed reservation is refused (budget stays spent)…
        let err = p.abort().unwrap_err();
        assert!(matches!(err, FmError::Privacy(_)), "{err}");
        assert!((session.spent_epsilon() - 0.7).abs() < 1e-12);
        // …but commit settles it for good.
        let p = session.resume_reservation(dangling_id).unwrap();
        p.commit().unwrap();
        assert!((session.spent_epsilon() - 0.7).abs() < 1e-12);
        assert_eq!(session.committed_fits(), 2);
        // Unknown / settled ids are refused.
        assert!(session.resume_reservation(dangling_id).is_err());
        assert!(session.resume_reservation(999).is_err());

        // Compaction preserves the totals.
        session.compact_wal().unwrap();
        drop(session);
        let (session, _) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
        assert!((session.spent_epsilon() - 0.7).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_parallel_scope_debits_max_not_sum() {
        let session = SharedPrivacySession::with_cap(1.0).unwrap();
        let mut scope = session.parallel_scope("census");
        scope.admit("east", 0.3, 0.0).unwrap();
        scope.admit("west", 0.5, 0.0).unwrap();
        scope.admit("north", 0.2, 0.0).unwrap();
        // Duplicate labels break disjointness.
        assert!(matches!(
            scope.admit("east", 0.1, 0.0),
            Err(FmError::InvalidConfig { .. })
        ));
        assert_eq!(scope.composed(), (0.5, 0.0));
        assert_eq!(scope.num_shards(), 3);
        // Incremental debits: 0.3 + 0.2 = max ε = 0.5, not Σε = 1.0.
        assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
        scope.finish().unwrap();
        assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
        assert!((session.remaining_epsilon().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(session.committed_fits(), 1);
    }

    /// A private stand-in with a fixed ε whose fit never touches data, so
    /// accounting tests can admit many shards cheaply.
    struct FixedEpsilon(f64);

    impl DpEstimator for FixedEpsilon {
        type Model = ();
        fn fit(&self, _: &Dataset, _: &mut dyn rand::RngCore) -> Result<()> {
            Ok(())
        }
        fn epsilon(&self) -> Option<f64> {
            Some(self.0)
        }
        fn task(&self) -> crate::ModelKind {
            crate::ModelKind::Linear
        }
    }

    #[test]
    fn exhausted_shared_session_refuses_sub_quantum_admissions() {
        // Every admission debits at least one quantum: an ε that would
        // truncate to zero quanta must not slip through a spent cap.
        let session = SharedPrivacySession::with_cap(1.0).unwrap();
        session
            .begin("t", "all", 1.0, 0.0)
            .unwrap()
            .commit()
            .unwrap();
        for i in 0..1_000 {
            let admitted = session.begin("t", &format!("dust-{i}"), 4e-13, 0.0);
            assert!(matches!(
                admitted,
                Err(FmError::Privacy(
                    fm_privacy::PrivacyError::BudgetExhausted { .. }
                ))
            ));
        }
        assert_eq!(session.report(1e-6).unwrap().basic.0, 1.0);
        assert_eq!(session.spent_epsilon(), 1.0);
        assert_eq!(session.committed_fits(), 1);

        // The wrapper admits through the same arithmetic.
        let mut wrapper = PrivacySession::with_budget(1.0).unwrap();
        let data = fm_data::synth::linear_dataset(&mut rng(), 10, 2, 0.1);
        wrapper.fit(&FixedEpsilon(1.0), &data, &mut rng()).unwrap();
        assert!(!wrapper.can_fit(&FixedEpsilon(4e-13)));
        assert!(wrapper
            .fit(&FixedEpsilon(4e-13), &data, &mut rng())
            .is_err());
        assert_eq!(wrapper.report(1e-6).unwrap().basic.0, 1.0);
    }

    #[test]
    fn cap_of_k_epsilon_admits_k_fits_of_uneven_quanta() {
        // 1/6 and 2/3 are not whole quanta: rounding each debit to the
        // nearest quantum would refuse the last fit under a cap of
        // exactly k·ε.
        let data = fm_data::synth::linear_dataset(&mut rng(), 10, 2, 0.1);
        let mut session = PrivacySession::with_budget(1.0).unwrap();
        for _ in 0..6 {
            session
                .fit(&FixedEpsilon(1.0 / 6.0), &data, &mut rng())
                .unwrap();
        }
        assert_eq!(session.num_fits(), 6);
        assert!(!session.can_fit(&FixedEpsilon(1e-11)));

        // Lemma 5: a 2ε cap holds the mechanism and its retry premium.
        let shared = SharedPrivacySession::with_cap(4.0 / 3.0).unwrap();
        for label in ["mechanism", "retry"] {
            shared
                .begin("t", label, 2.0 / 3.0, 0.0)
                .unwrap()
                .commit()
                .unwrap();
        }
        assert_eq!(shared.committed_fits(), 2);
        assert!(shared.begin("t", "more", 1e-11, 0.0).is_err());
    }

    #[test]
    fn closed_scope_increments_whose_commit_failed_count_once_and_never_refund() {
        let dir = std::env::temp_dir().join(format!("fm-scope-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, stray) = (dir.join("scope.wal"), dir.join("stray.wal"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&stray);

        let (session, _) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
        let mut scope = session.parallel_scope("census");
        scope.admit("east", 0.3, 0.0).unwrap();
        scope.admit("west", 0.5, 0.0).unwrap();
        let ids = scope.increments.clone();
        assert_eq!(ids.len(), 2);
        // Inject the commit failure: close the scope against a log that
        // never saw its increments.
        let (stray_wal, _) = WalLedger::open(&stray).unwrap();
        let wal = session.lock().wal.replace(stray_wal);
        assert!(scope.finish().is_err());
        session.lock().wal = wal;

        // The scope's one release is recorded, and its increments are not
        // counted a second time as in flight.
        assert_eq!(session.committed_fits(), 1);
        assert_eq!(session.spent_for("census"), (0.5, 0.0));
        assert_eq!(session.spent_epsilon(), 0.5);
        assert_eq!(session.dangling_reservations(), 2);
        // The released increments can never be refunded…
        for &id in &ids {
            let err = session.resume_reservation(id).unwrap().abort().unwrap_err();
            assert!(matches!(err, FmError::Privacy(_)), "{err}");
        }
        assert_eq!(session.spent_epsilon(), 0.5);
        // …but the WAL can still record their commits, with no second
        // release.
        for &id in &ids {
            session.resume_reservation(id).unwrap().commit().unwrap();
        }
        assert_eq!(session.dangling_reservations(), 0);
        assert_eq!(session.committed_fits(), 1);
        assert_eq!(session.report(1e-6).unwrap().basic, (0.5, 0.0));
        assert_eq!(session.spent_for("census"), (0.5, 0.0));
        session.reconcile_wal().unwrap();
        drop(session);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&stray);
    }

    #[test]
    fn parallel_scope_reports_one_max_epsilon_release_through_both_apis() {
        // 1,000 disjoint shards at ε = 0.001·i are one 1.0-DP release;
        // composing its increments as separate fits would understate it.
        let epsilons: Vec<f64> = (1..=1_000).map(|i| 0.001 * f64::from(i)).collect();

        let shared = SharedPrivacySession::with_cap(1.0).unwrap();
        let mut scope = shared.parallel_scope("census");
        for (i, &epsilon) in epsilons.iter().enumerate() {
            scope.admit(&format!("shard-{i}"), epsilon, 0.0).unwrap();
        }
        scope.finish().unwrap();
        let report = shared.report(1e-5).unwrap();
        assert!(report.best.0 >= 1.0, "best {:?}", report.best);
        assert_eq!(report.fits, 1);
        assert_eq!(shared.committed_fits(), 1);
        assert_eq!(shared.spent_epsilon(), 1.0);

        let data = fm_data::synth::linear_dataset(&mut rng(), 10, 2, 0.1);
        let mut session = PrivacySession::with_budget(1.0).unwrap();
        let mut scope = session.parallel_fits();
        for (i, &epsilon) in epsilons.iter().enumerate() {
            scope
                .fit_shard(
                    &format!("shard-{i}"),
                    &FixedEpsilon(epsilon),
                    &data,
                    &mut rng(),
                )
                .unwrap();
        }
        scope.finish();
        let report = session.report(1e-5).unwrap();
        assert!(report.best.0 >= 1.0, "best {:?}", report.best);
        assert_eq!(report.fits, 1);
        assert_eq!(session.num_fits(), 1);
        assert_eq!(session.ledger().len(), 1);
        assert_eq!(session.spent_epsilon(), 1.0);
    }

    #[test]
    fn reconcile_wal_accepts_a_reopened_scope_of_rising_increments() {
        let dir = std::env::temp_dir().join(format!("fm-scope-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scope.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (session, _) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
            let mut scope = session.parallel_scope("census");
            // 64 rising shards, each raising the max by an uneven amount,
            // so the scope logs 64 increment records.
            for i in 1..=64u32 {
                let epsilon = 0.01 * f64::from(i) + 1e-13 * f64::from(i * i);
                scope.admit(&format!("shard-{i}"), epsilon, 0.0).unwrap();
            }
            scope.finish().unwrap();
            assert_eq!(session.committed_fits(), 1);
            assert_eq!(session.wal_stats().unwrap().open_reservations, 0);
            session.reconcile_wal().unwrap();
        }
        let (session, report) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
        assert_eq!(report.sealed_dangling, 0);
        session.reconcile_wal().unwrap();
        assert!((session.spent_epsilon() - 0.64).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_prefers_advanced_composition_for_many_small_fits() {
        let mut r = rng();
        let data = fm_data::synth::linear_dataset(&mut r, 500, 2, 0.1);
        let est = DpLinearRegression::builder().epsilon(0.05).build();
        let mut session = PrivacySession::new();
        for _ in 0..100 {
            // At ε = 0.05 some draws leave no positive spectrum and the fit
            // fails — but the mechanism ran, so the debit stands either way.
            let _ = session.fit(&est, &data, &mut r);
        }
        assert_eq!(session.num_fits(), 100);
        let report = session.report(1e-6).unwrap();
        assert!((report.basic.0 - 5.0).abs() < 1e-9);
        assert!(
            report.best.0 < report.basic.0,
            "√k regime: advanced ({}) must beat basic ({})",
            report.advanced.0,
            report.basic.0
        );
        assert_eq!(report.best, report.advanced);
    }

    #[test]
    fn reopen_refuses_infinite_totals_and_saturates_fit_counts() {
        use fm_privacy::wal::{frame, WAL_MAGIC};
        let dir = std::env::temp_dir().join(format!("fm-wal-totals-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("totals.wal");
        let write_log = |records: &[&str]| {
            let mut text = frame(WAL_MAGIC) + "\n";
            for record in records {
                text.push_str(&(frame(record) + "\n"));
            }
            std::fs::write(&path, text).unwrap();
        };

        // An ε total that overflows to ∞ is refused, not dropped from the
        // ledger.
        write_log(&["spent 1e308 0 1 t", "spent 1e308 0 1 t"]);
        assert!(SharedPrivacySession::with_wal(&path, None).is_err());

        // Per-tenant fit counts in range still sum past usize::MAX across
        // tenants; the session's count saturates.
        let max = usize::MAX;
        write_log(&[&format!("spent 0.5 0 {max} a"), "spent 0.5 0 1 b"]);
        let (session, _) = SharedPrivacySession::with_wal(&path, None).unwrap();
        assert_eq!(session.committed_fits(), usize::MAX);
        let _ = std::fs::remove_file(&path);
    }
}
