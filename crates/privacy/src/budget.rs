//! Privacy-budget accounting: sequential composition, the
//! advanced-composition bound, and the integer ε arithmetic every cap in
//! the workspace admits with.
//!
//! ε-DP composes additively: running an ε₁-DP algorithm followed by an
//! ε₂-DP algorithm on the same data is (ε₁+ε₂)-DP. The paper leans on this
//! twice: Lemma 5 shows that re-running Algorithm 1 until the noisy
//! objective is bounded costs `2ε`, and the experiment harness must ensure
//! each method consumes exactly its advertised budget.
//!
//! **One ε arithmetic.** Caps are enforced in whole quanta of
//! [`EPS_QUANTUM`] = 10⁻¹² ε. A cap is rounded to the nearest quantum
//! once ([`cap_to_units`]); each debit is truncated to whole quanta once
//! ([`eps_to_units`]); everything after that is `u64` addition and
//! comparison, so no float slack accumulates and a refund restores the
//! prior total bit-for-bit. Truncation keeps equal splits admissible:
//! `k · eps_to_units(T / k) ≤ cap_to_units(T)` for every `k`, so a cap of
//! exactly `k·ε` holds `k` fits at ε even when `T / k` is not a whole
//! number of quanta. A debit is undercounted by less than one quantum,
//! and never to zero: any positive ε debits at least one quantum, so no
//! admission is free. [`PrivacyBudget`] and `fm_core`'s shared session
//! both count this way.
//!
//! Two ledgers are provided:
//!
//! * [`PrivacyBudget`] — the strict-ε ledger: construct with a total ε,
//!   [`PrivacyBudget::spend`] draws down, and over-spending is an error
//!   rather than a silent privacy violation.
//! * [`EpsDeltaLedger`] — an (ε, δ) audit trail for workloads mixing the
//!   Laplace and Gaussian variants; reports both **basic** composition
//!   `(Σεᵢ, Σδᵢ)` and the **advanced** composition bound of Dwork,
//!   Rothblum & Vadhan, which pays an extra δ′ to shrink the ε total from
//!   `Σεᵢ` to `√(2 ln(1/δ′)·Σεᵢ²) + Σεᵢ(e^{εᵢ} − 1)` — a large saving
//!   when many small-ε queries compose.

use crate::{PrivacyError, Result};

/// One unit of the integer budget counter: 10⁻¹² ε, far below any
/// meaningful privacy resolution.
pub const EPS_QUANTUM: f64 = 1e-12;

/// The quanta a debit of `epsilon` costs: truncated to whole quanta, but
/// **never below one** for a positive ε — an admission that cost zero
/// would let arbitrarily many tiny debits through a spent cap. Values so
/// large they would overflow the counter saturate (and then fail cap
/// checks and `checked_add`, refusing the admission rather than
/// wrapping).
#[must_use]
pub fn eps_to_units(epsilon: f64) -> u64 {
    quanta((epsilon / EPS_QUANTUM).floor()).max(u64::from(epsilon > 0.0))
}

/// The quanta a cap of `total` ε holds: rounded to the nearest quantum.
/// Paired with the truncating [`eps_to_units`], a cap of `T` admits `k`
/// debits of `T / k` for every `k`.
#[must_use]
pub fn cap_to_units(total: f64) -> u64 {
    quanta((total / EPS_QUANTUM).round())
}

/// A whole, non-negative quanta count as the counter's integer,
/// saturating far below `u64::MAX` so sums of saturated values still
/// compare as exhausted rather than wrap.
fn quanta(units: f64) -> u64 {
    if units >= 9.0e18 {
        9_000_000_000_000_000_000
    } else {
        units as u64
    }
}

/// The ε an integer quanta count represents.
#[must_use]
pub fn units_to_eps(units: u64) -> f64 {
    // u64 → f64 rounds above 2⁵³ quanta (ε > ~9000); still monotone.
    #[allow(clippy::cast_precision_loss)]
    let units = units as f64;
    units * EPS_QUANTUM
}

/// A sequential-composition ε ledger, counting in integer quanta (see the
/// [module docs](self)).
///
/// ```
/// use fm_privacy::budget::PrivacyBudget;
///
/// let mut budget = PrivacyBudget::new(1.0).unwrap();
/// budget.spend(0.4).unwrap();
/// budget.spend(0.6).unwrap();
/// assert!(budget.spend(0.1).is_err()); // exhausted
/// assert!(budget.remaining() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PrivacyBudget {
    total: f64,
    total_units: u64,
    spent_units: u64,
    /// Individual spends, for auditing.
    ledger: Vec<f64>,
}

impl PrivacyBudget {
    /// Creates a budget with `total` ε available.
    ///
    /// # Errors
    /// [`PrivacyError::InvalidParameter`] unless `total` is finite and > 0.
    pub fn new(total: f64) -> Result<Self> {
        if !total.is_finite() || total <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "total epsilon",
                value: total,
                constraint: "finite and > 0",
            });
        }
        Ok(PrivacyBudget {
            total,
            total_units: cap_to_units(total),
            spent_units: 0,
            ledger: Vec::new(),
        })
    }

    /// Total ε this budget started with.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ε consumed so far.
    #[must_use]
    pub fn spent(&self) -> f64 {
        units_to_eps(self.spent_units)
    }

    /// ε still available (never negative).
    #[must_use]
    pub fn remaining(&self) -> f64 {
        units_to_eps(self.remaining_units())
    }

    fn remaining_units(&self) -> u64 {
        self.total_units.saturating_sub(self.spent_units)
    }

    /// Number of recorded spends.
    #[must_use]
    pub fn num_operations(&self) -> usize {
        self.ledger.len()
    }

    /// The audit trail of individual spends, in order.
    #[must_use]
    pub fn ledger(&self) -> &[f64] {
        &self.ledger
    }

    /// Whether a spend of `epsilon` would be accepted right now — the
    /// pre-flight check estimator sessions use to refuse a fit *before*
    /// any mechanism touches the data.
    #[must_use]
    pub fn can_spend(&self, epsilon: f64) -> bool {
        epsilon.is_finite() && epsilon > 0.0 && eps_to_units(epsilon) <= self.remaining_units()
    }

    /// Records a spend of `epsilon`.
    ///
    /// # Errors
    /// * [`PrivacyError::InvalidParameter`] for non-positive/non-finite ε.
    /// * [`PrivacyError::BudgetExhausted`] when the spend, in quanta,
    ///   would exceed what remains.
    pub fn spend(&mut self, epsilon: f64) -> Result<()> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                constraint: "finite and > 0",
            });
        }
        self.debit(epsilon, eps_to_units(epsilon))
    }

    fn debit(&mut self, epsilon: f64, units: u64) -> Result<()> {
        if units > self.remaining_units() {
            return Err(PrivacyError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent_units += units;
        self.ledger.push(epsilon);
        Ok(())
    }

    /// Splits the *remaining* budget into `parts` equal spends of whole
    /// quanta, recording and returning the per-part ε. The fewer than
    /// `parts` quanta that do not divide evenly stay unspent.
    ///
    /// Useful for mechanisms that make a known number of sequential noisy
    /// queries (e.g. DPME noising each histogram cell would instead use
    /// parallel composition; this helper is for genuinely sequential steps).
    ///
    /// # Errors
    /// * [`PrivacyError::InvalidParameter`] when `parts == 0`.
    /// * [`PrivacyError::BudgetExhausted`] when less than one quantum per
    ///   part remains.
    pub fn split_remaining(&mut self, parts: usize) -> Result<f64> {
        if parts == 0 {
            return Err(PrivacyError::InvalidParameter {
                name: "parts",
                value: 0.0,
                constraint: "at least 1",
            });
        }
        let per_units = self.remaining_units() / parts as u64;
        if per_units == 0 {
            return Err(PrivacyError::BudgetExhausted {
                requested: 0.0,
                remaining: self.remaining(),
            });
        }
        let per_part = units_to_eps(per_units);
        for _ in 0..parts {
            self.debit(per_part, per_units)?;
        }
        Ok(per_part)
    }
}

/// One recorded (ε, δ) mechanism invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsDeltaEntry {
    /// The invocation's ε.
    pub epsilon: f64,
    /// The invocation's δ (0 for pure ε-DP mechanisms such as Laplace).
    pub delta: f64,
}

impl EpsDeltaEntry {
    /// Validates an (ε, δ) pair *without* committing it anywhere — the
    /// hook budget-aware sessions use to check a fit's advertised cost
    /// before debiting any ledger, so a malformed δ can never leave a
    /// budget and an audit trail disagreeing.
    ///
    /// # Errors
    /// [`PrivacyError::InvalidParameter`] for ε ≤ 0, non-finite values,
    /// or δ outside `[0, 1)`.
    pub fn validated(epsilon: f64, delta: f64) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                constraint: "finite and > 0",
            });
        }
        if !delta.is_finite() || !(0.0..1.0).contains(&delta) {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: delta,
                constraint: "in [0, 1)",
            });
        }
        Ok(EpsDeltaEntry { epsilon, delta })
    }
}

/// An append-only (ε, δ) audit ledger with basic and advanced composition
/// reports.
///
/// Unlike [`PrivacyBudget`] this ledger does not enforce a cap — mixing
/// pure-ε and (ε, δ) mechanisms has no single scalar budget to enforce.
/// Instead it answers the question an auditor asks after the fact: *what
/// total guarantee do these invocations compose to?*
///
/// ```
/// use fm_privacy::budget::EpsDeltaLedger;
///
/// let mut ledger = EpsDeltaLedger::new();
/// for _ in 0..100 {
///     ledger.record(0.05, 1e-8).unwrap(); // 100 small Gaussian queries
/// }
/// let (eps_basic, _) = ledger.basic_composition();    // 5.0
/// let (eps_adv, _) = ledger.advanced_composition(1e-6).unwrap(); // ≈ 2.9
/// assert!(eps_adv < eps_basic); // the √k regime: advanced wins
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpsDeltaLedger {
    entries: Vec<EpsDeltaEntry>,
}

impl EpsDeltaLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        EpsDeltaLedger::default()
    }

    /// Records an (ε, δ)-DP invocation (`δ = 0` for pure ε-DP).
    ///
    /// # Errors
    /// [`PrivacyError::InvalidParameter`] for ε ≤ 0, non-finite values, or
    /// δ outside `[0, 1)`.
    pub fn record(&mut self, epsilon: f64, delta: f64) -> Result<()> {
        self.record_entry(EpsDeltaEntry::validated(epsilon, delta)?);
        Ok(())
    }

    /// Appends an already-validated entry (see
    /// [`EpsDeltaEntry::validated`]) — infallible, so callers that must
    /// keep several ledgers in lock-step can validate first, commit
    /// everywhere second.
    pub fn record_entry(&mut self, entry: EpsDeltaEntry) {
        self.entries.push(entry);
    }

    /// The recorded invocations, in order.
    #[must_use]
    pub fn entries(&self) -> &[EpsDeltaEntry] {
        &self.entries
    }

    /// Number of recorded invocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Basic (sequential) composition: the invocations jointly satisfy
    /// `(Σεᵢ, Σδᵢ)`-DP.
    #[must_use]
    pub fn basic_composition(&self) -> (f64, f64) {
        let eps: f64 = self.entries.iter().map(|e| e.epsilon).sum();
        let delta: f64 = self.entries.iter().map(|e| e.delta).sum();
        (eps, delta)
    }

    /// Advanced composition (Dwork–Rothblum–Vadhan, heterogeneous form):
    /// for any slack `δ′ > 0` the invocations jointly satisfy
    /// `(ε*, Σδᵢ + δ′)`-DP with
    ///
    /// ```text
    /// ε* = √(2 ln(1/δ′) · Σεᵢ²)  +  Σ εᵢ·(e^{εᵢ} − 1)
    /// ```
    ///
    /// The bound beats basic composition when many small-ε invocations
    /// compose (the `√k` regime) and loses to it for a few large-ε ones —
    /// use [`EpsDeltaLedger::best_composition`] to always report the
    /// tighter of the two.
    ///
    /// An empty ledger composes to exactly `(0, 0)` — no invocations
    /// means no privacy loss, so no δ′ slack is charged. A single
    /// large ε (≳ 700) overflows the `εᵢ·(e^{εᵢ} − 1)` term to
    /// infinity; rather than poisoning the report (and through it
    /// [`EpsDeltaLedger::best_composition`]), the bound falls back to
    /// basic composition, which always holds.
    ///
    /// # Errors
    /// [`PrivacyError::InvalidParameter`] unless `δ′ ∈ (0, 1)`.
    pub fn advanced_composition(&self, delta_prime: f64) -> Result<(f64, f64)> {
        if !delta_prime.is_finite() || delta_prime <= 0.0 || delta_prime >= 1.0 {
            return Err(PrivacyError::InvalidParameter {
                name: "delta_prime",
                value: delta_prime,
                constraint: "in (0, 1)",
            });
        }
        if self.entries.is_empty() {
            return Ok((0.0, 0.0));
        }
        let sum_sq: f64 = self.entries.iter().map(|e| e.epsilon * e.epsilon).sum();
        let linear: f64 = self
            .entries
            .iter()
            .map(|e| e.epsilon * (e.epsilon.exp_m1()))
            .sum();
        let eps = (2.0 * (1.0 / delta_prime).ln() * sum_sq).sqrt() + linear;
        if !eps.is_finite() {
            // The advanced bound degenerated numerically; the basic
            // bound is always valid (and here certainly tighter).
            return Ok(self.basic_composition());
        }
        let delta: f64 = self.entries.iter().map(|e| e.delta).sum::<f64>() + delta_prime;
        Ok((eps, delta))
    }

    /// The tighter of basic and advanced composition at slack `δ′`:
    /// returns whichever pair has the smaller ε (basic is reported with its
    /// original `Σδᵢ`, i.e. without paying δ′ it does not need).
    ///
    /// # Errors
    /// As [`EpsDeltaLedger::advanced_composition`].
    pub fn best_composition(&self, delta_prime: f64) -> Result<(f64, f64)> {
        let basic = self.basic_composition();
        let advanced = self.advanced_composition(delta_prime)?;
        Ok(if advanced.0 < basic.0 {
            advanced
        } else {
            basic
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(-1.0).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
        assert!(PrivacyBudget::new(0.8).is_ok());
    }

    #[test]
    fn sequential_composition_adds_up() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.spend(0.3).unwrap();
        b.spend(0.2).unwrap();
        assert!((b.spent() - 0.5).abs() < 1e-15);
        assert!((b.remaining() - 0.5).abs() < 1e-15);
        assert_eq!(b.num_operations(), 2);
        assert_eq!(b.ledger(), &[0.3, 0.2]);
    }

    #[test]
    fn overspend_is_rejected_and_not_recorded() {
        let mut b = PrivacyBudget::new(0.5).unwrap();
        b.spend(0.4).unwrap();
        let err = b.spend(0.2).unwrap_err();
        assert!(matches!(err, PrivacyError::BudgetExhausted { .. }));
        assert_eq!(b.num_operations(), 1);
        assert!((b.remaining() - 0.1).abs() < 1e-15);
    }

    #[test]
    fn exact_exhaustion_allowed() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.spend(1.0).unwrap();
        assert!(b.remaining() < 1e-15);
        assert!(b.spend(1e-6).is_err());
    }

    #[test]
    fn floating_point_slack_tolerated() {
        let mut b = PrivacyBudget::new(0.3).unwrap();
        b.spend(0.1).unwrap();
        b.spend(0.1).unwrap();
        // 0.3 - 0.2 leaves 0.09999999999999998; spending "0.1" must work.
        b.spend(0.1).unwrap();
    }

    #[test]
    fn exhausted_budget_refuses_sub_quantum_spends() {
        // Every positive ε debits at least one quantum, so a spent budget
        // stays spent however small the request.
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.spend(1.0).unwrap();
        for _ in 0..1_000 {
            assert!(matches!(
                b.spend(9e-13),
                Err(PrivacyError::BudgetExhausted { .. })
            ));
            assert!(!b.can_spend(4e-13));
        }
        assert_eq!(b.spent(), 1.0);
        assert_eq!(b.num_operations(), 1);
    }

    #[test]
    fn quantisation_truncates_debits_and_rounds_caps() {
        assert_eq!(eps_to_units(0.3), 300_000_000_000);
        assert_eq!(eps_to_units(4e-13), 1);
        assert_eq!(eps_to_units(1.6e-12), 1);
        assert_eq!(eps_to_units(0.0), 0);
        assert_eq!(eps_to_units(1e30), 9_000_000_000_000_000_000);
        assert_eq!(units_to_eps(eps_to_units(0.5)), 0.5);
        assert_eq!(cap_to_units(1.6e-12), 2);
        assert_eq!(cap_to_units(1.0 / 3.0), 333_333_333_333);
        // An equal split never overfills its cap.
        for total in [1.0, 4.0 / 3.0, 0.7, 2.0 / 3.0, 5.0, 1e-9] {
            for k in 1..=64u32 {
                let per = eps_to_units(total / f64::from(k));
                assert!(u64::from(k) * per <= cap_to_units(total), "{total}/{k}");
            }
        }
    }

    #[test]
    fn cap_of_k_epsilon_admits_k_spends_of_uneven_quanta() {
        // 1/6 and 2/3 are not whole quanta: rounding each spend to the
        // nearest quantum would overfill a cap of exactly k·ε.
        let mut b = PrivacyBudget::new(1.0).unwrap();
        for _ in 0..6 {
            b.spend(1.0 / 6.0).unwrap();
        }
        // Truncation leaves the few quanta that did not divide evenly.
        assert!(b.remaining() < 1e-11);
        assert!(b.spend(1e-11).is_err());

        let eps = 2.0 / 3.0;
        let mut b = PrivacyBudget::new(4.0 / 3.0).unwrap();
        b.spend(eps).unwrap(); // the (possibly repeated) mechanism
        b.spend(eps).unwrap(); // Lemma 5's retry premium
        assert!(b.remaining() < 1e-11);
    }

    #[test]
    fn invalid_spends_rejected() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert!(b.spend(0.0).is_err());
        assert!(b.spend(-0.1).is_err());
        assert!(b.spend(f64::NAN).is_err());
        assert_eq!(b.num_operations(), 0);
    }

    #[test]
    fn split_remaining_even_parts() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.spend(0.2).unwrap();
        let per = b.split_remaining(4).unwrap();
        assert!((per - 0.2).abs() < 1e-12);
        assert!(b.remaining() < 1e-9);
        assert_eq!(b.num_operations(), 5);
    }

    #[test]
    fn split_remaining_validation() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert!(b.split_remaining(0).is_err());
        b.spend(1.0).unwrap();
        assert!(b.split_remaining(2).is_err());
    }

    #[test]
    fn lemma5_retry_costs_double() {
        // Lemma 5: repeating an ε-DP mechanism until its output satisfies a
        // data-independent predicate is 2ε-DP. The accountant models this as
        // two spends of ε.
        let eps = 0.8;
        let mut b = PrivacyBudget::new(2.0 * eps).unwrap();
        b.spend(eps).unwrap(); // the (possibly repeated) mechanism
        b.spend(eps).unwrap(); // the retry premium
        assert!(b.remaining() < 1e-12);
    }

    #[test]
    fn can_spend_preflight_matches_spend() {
        let mut b = PrivacyBudget::new(0.5).unwrap();
        assert!(b.can_spend(0.5));
        assert!(!b.can_spend(0.6));
        assert!(!b.can_spend(0.0));
        assert!(!b.can_spend(f64::NAN));
        b.spend(0.4).unwrap();
        assert!(b.can_spend(0.1));
        assert!(!b.can_spend(0.2));
    }

    #[test]
    fn validated_entry_checks_without_committing() {
        assert!(EpsDeltaEntry::validated(0.7, 0.0).is_ok());
        assert!(EpsDeltaEntry::validated(-1.0, 0.0).is_err());
        assert!(EpsDeltaEntry::validated(0.5, 1.0).is_err());
        assert!(EpsDeltaEntry::validated(0.5, f64::NAN).is_err());
        // record_entry is the infallible commit of a validated entry.
        let mut l = EpsDeltaLedger::new();
        l.record_entry(EpsDeltaEntry::validated(0.7, 0.0).unwrap());
        assert_eq!(
            l.entries(),
            &[EpsDeltaEntry {
                epsilon: 0.7,
                delta: 0.0
            }]
        );
    }

    #[test]
    fn eps_delta_ledger_records_and_validates() {
        let mut l = EpsDeltaLedger::new();
        assert!(l.is_empty());
        l.record(0.5, 0.0).unwrap();
        l.record(0.3, 1e-6).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.entries()[1].delta, 1e-6);
        assert!(l.record(0.0, 0.0).is_err());
        assert!(l.record(0.1, -0.1).is_err());
        assert!(l.record(0.1, 1.0).is_err());
        assert!(l.record(f64::NAN, 0.0).is_err());
        assert_eq!(l.len(), 2, "rejected records must not be stored");
    }

    #[test]
    fn basic_composition_sums() {
        let mut l = EpsDeltaLedger::new();
        l.record(0.5, 1e-6).unwrap();
        l.record(0.3, 2e-6).unwrap();
        let (eps, delta) = l.basic_composition();
        assert!((eps - 0.8).abs() < 1e-15);
        assert!((delta - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn advanced_composition_matches_drv_formula_homogeneous() {
        // k identical (ε, 0) entries: ε* = ε√(2k ln(1/δ′)) + kε(e^ε − 1).
        let (k, eps, dp) = (20usize, 0.1, 1e-6);
        let mut l = EpsDeltaLedger::new();
        for _ in 0..k {
            l.record(eps, 0.0).unwrap();
        }
        let (e_adv, d_adv) = l.advanced_composition(dp).unwrap();
        let expected = eps * (2.0 * (k as f64) * (1.0f64 / dp).ln()).sqrt()
            + k as f64 * eps * (eps.exp() - 1.0);
        assert!((e_adv - expected).abs() < 1e-12, "{e_adv} vs {expected}");
        assert!((d_adv - dp).abs() < 1e-18);
    }

    #[test]
    fn advanced_beats_basic_for_many_small_queries() {
        let mut l = EpsDeltaLedger::new();
        for _ in 0..100 {
            l.record(0.05, 0.0).unwrap();
        }
        let (basic, _) = l.basic_composition();
        let (adv, _) = l.advanced_composition(1e-6).unwrap();
        assert!(adv < basic, "advanced {adv} should beat basic {basic} = 5");
        let (best, best_d) = l.best_composition(1e-6).unwrap();
        assert_eq!(best, adv);
        assert!((best_d - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn basic_beats_advanced_for_one_large_query() {
        let mut l = EpsDeltaLedger::new();
        l.record(2.0, 0.0).unwrap();
        let (basic, basic_d) = l.basic_composition();
        let (adv, _) = l.advanced_composition(1e-6).unwrap();
        assert!(basic < adv);
        let best = l.best_composition(1e-6).unwrap();
        assert_eq!(best, (basic, basic_d), "best must fall back to basic");
    }

    #[test]
    fn advanced_composition_validates_slack() {
        let mut l = EpsDeltaLedger::new();
        l.record(0.1, 0.0).unwrap();
        assert!(l.advanced_composition(0.0).is_err());
        assert!(l.advanced_composition(1.0).is_err());
        assert!(l.advanced_composition(f64::NAN).is_err());
    }

    #[test]
    fn empty_ledger_composes_to_zero() {
        let l = EpsDeltaLedger::new();
        assert_eq!(l.basic_composition(), (0.0, 0.0));
        // No invocations ⇒ exactly (0, 0): the δ′ slack buys nothing and
        // must not be charged.
        assert_eq!(l.advanced_composition(1e-6).unwrap(), (0.0, 0.0));
        assert_eq!(l.best_composition(1e-6).unwrap(), (0.0, 0.0));
    }

    #[test]
    fn huge_epsilon_falls_back_to_basic_instead_of_infinity() {
        // ε ≈ 710 overflows εᵢ·(e^{εᵢ}−1) to inf; the advanced bound must
        // degrade to the (always valid) basic bound, not poison
        // best_composition with a non-finite ε.
        let mut l = EpsDeltaLedger::new();
        l.record(710.0, 0.0).unwrap();
        l.record(0.1, 1e-7).unwrap();
        let basic = l.basic_composition();
        let adv = l.advanced_composition(1e-6).unwrap();
        assert!(adv.0.is_finite(), "advanced ε must stay finite");
        assert_eq!(adv, basic);
        let best = l.best_composition(1e-6).unwrap();
        assert!(best.0.is_finite());
        assert_eq!(best, basic);
    }

    #[test]
    fn mixed_laplace_gaussian_workload_audit() {
        // The repo's own mixed workload: 5 Laplace fits at ε = 0.2 and
        // 5 Gaussian fits at (0.2, 1e−7). Basic: (2.0, 5e−7).
        let mut l = EpsDeltaLedger::new();
        for _ in 0..5 {
            l.record(0.2, 0.0).unwrap();
            l.record(0.2, 1e-7).unwrap();
        }
        let (eps_b, delta_b) = l.basic_composition();
        assert!((eps_b - 2.0).abs() < 1e-12);
        assert!((delta_b - 5e-7).abs() < 1e-18);
        // At k = 10 invocations of ε = 0.2, the √k saving does not yet pay
        // for the √(2 ln(1/δ′)) factor — best_composition must fall back to
        // basic rather than report the looser advanced bound.
        let (eps_a, _) = l.advanced_composition(1e-6).unwrap();
        assert!(eps_a > eps_b, "advanced {eps_a} only wins at larger k");
        let best = l.best_composition(1e-6).unwrap();
        assert_eq!(best, (eps_b, delta_b));
    }
}
