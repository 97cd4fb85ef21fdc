//! The coordinator half of a federated round: collect one upload per
//! registered client, validate every payload against the round's
//! protocol, debit each client's ε **exactly once** through a
//! parallel-composition scope on the shared privacy ledger, and release
//! one model.
//!
//! # Trust models
//!
//! * [`NoiseMode::Central`] — clients upload exact partials; the
//!   coordinator replays their pre-merged runs at matching ranks on the
//!   shared chunk grid (reproducing the single-machine merge tree **bit
//!   for bit**) and draws the mechanism's noise once at release. Same
//!   utility as a single-machine fit; the coordinator is trusted with
//!   per-client aggregates.
//! * [`NoiseMode::Local`] — every client perturbs its own Δ-scaled
//!   contribution before upload; the coordinator sums already-released
//!   objectives (pure post-processing) and never sees clean state. The
//!   summed noise has `√K`× the standard deviation of one central draw
//!   at the same ε — the utility price of not trusting the coordinator.
//!
//! Either way the round's privacy accounting is identical: the clients
//! hold disjoint rows, so the scope composes their (ε, δ) in parallel —
//! the tenant is debited the **maximum**, not the sum, and each client
//! label appears exactly once.
//!
//! # Fault tolerance
//!
//! [`Coordinator::run_round`] is all-or-nothing: one missing or torn
//! upload refuses the whole round (typed, debit-free).
//! [`Coordinator::run_round_with_quorum`] instead survives what a real
//! network does: deadlines bound every receive, transient failures are
//! retried, retransmits are deduped by their `(round, client, checksum)`
//! identity, and dropped clients' grid ranges are re-planned onto the
//! survivors in recovery sub-rounds — the salvaged release is
//! bit-identical to a fresh round over the survivor geometry at the same
//! seed, and only survivors are ever debited.

use std::collections::HashMap;
use std::time::Duration;

use fm_core::codec::checksum64;
use fm_core::session::SharedPrivacySession;
use fm_core::{
    CoefficientAccumulator, FmEstimator, FunctionalMechanism, NoisyQuadratic, RegressionObjective,
};
use fm_poly::QuadraticForm;
use rand::Rng;

use crate::error::{protocol, FederatedError, Result};
use crate::plan::{ClientShare, ShardPlan};
use crate::transport::{RetryPolicy, Transport};
use crate::wire::{AccumUpload, ControlMsg, PayloadMode};

/// Where a round's noise is drawn — see the module docs for the trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseMode {
    /// Clients upload exact partials; the coordinator draws noise once.
    Central,
    /// Clients perturb locally; the coordinator only post-processes.
    Local,
}

impl NoiseMode {
    /// The payload mode this round accepts from clients.
    #[must_use]
    pub fn expected_payload(self) -> PayloadMode {
        match self {
            NoiseMode::Central => PayloadMode::Clean,
            NoiseMode::Local => PayloadMode::Noisy,
        }
    }
}

/// Dropout tolerance for a round: how many clients must survive for a
/// release, how long a blocking receive may wait for each of them, and
/// the retry schedule for transient failures in between. Without a
/// policy ([`Coordinator::run_round`]) a round is all-or-nothing: any
/// missing, torn, or hostile upload refuses the whole round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    /// Minimum clients whose data must enter the release (at least 1).
    pub min_clients: usize,
    /// Per-receive deadline — how long a silent client is presumed
    /// alive. Applied to every transport via [`Transport::set_deadline`].
    pub deadline: Duration,
    /// Retry schedule for transient failures (timeouts, torn frames,
    /// corrupt payloads awaiting a retransmit).
    pub retry: RetryPolicy,
}

impl QuorumPolicy {
    /// A policy requiring `min_clients` survivors, waiting at most
    /// `deadline` per receive, with the default [`RetryPolicy`].
    #[must_use]
    pub fn new(min_clients: usize, deadline: Duration) -> Self {
        QuorumPolicy {
            min_clients,
            deadline,
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the retry schedule.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// What actually happened in a fault-tolerant round (see
/// [`Coordinator::run_round_with_quorum`]): who made it into the
/// release, who was dropped, and how much fault machinery fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Budget labels of the clients whose data entered the release —
    /// exactly the labels debited, in transport order.
    pub survivors: Vec<String>,
    /// Transport indices of clients dropped from the round (debited
    /// nothing), in drop order.
    pub dropped: Vec<usize>,
    /// Recovery sub-rounds run to close dropped clients' grid holes.
    pub recovery_subrounds: usize,
    /// Retransmitted frames recognized by their `(round, client,
    /// checksum)` identity and deduped exactly-once.
    pub deduped_frames: usize,
}

/// What the coordinator expects a recovery re-upload to look like: the
/// same client, at the re-assigned grid position.
struct ExpectedReplacement {
    client: String,
    share: ClientShare,
}

/// Idempotency state for one round: every `(client, payload checksum)`
/// identity accepted so far. A frame matching a known identity is a
/// retransmit — deduped, never an error; a frame reusing a known label
/// with *new* content outside an expected replacement is equivocation.
struct DedupLedger {
    seen: HashMap<String, Vec<u64>>,
    deduped_frames: usize,
}

/// Ignored frames (dedups, stale rounds, stale re-uploads) a single
/// receive slot will absorb before giving up — bounds hostile chatter
/// without counting benign retransmits against the retry budget.
const MAX_IGNORED_FRAMES: u32 = 32;

/// A federated round's coordinator, bound to the shared estimator
/// configuration, chunk grid, and round id every client agreed on.
pub struct Coordinator<'a, O: RegressionObjective> {
    estimator: &'a FmEstimator<O>,
    mode: NoiseMode,
    chunk_rows: usize,
    round: u64,
}

impl<'a, O: RegressionObjective> Coordinator<'a, O> {
    /// A coordinator for `mode` under the round's shared estimator, at
    /// the default chunk size.
    pub fn new(estimator: &'a FmEstimator<O>, mode: NoiseMode) -> Self {
        Self::with_chunk_rows(estimator, mode, fm_core::assembly::DEFAULT_CHUNK_ROWS)
    }

    /// As [`Coordinator::new`] with an explicit shared chunk size.
    pub fn with_chunk_rows(
        estimator: &'a FmEstimator<O>,
        mode: NoiseMode,
        chunk_rows: usize,
    ) -> Self {
        Coordinator {
            estimator,
            mode,
            chunk_rows: chunk_rows.max(1),
            round: 0,
        }
    }

    /// Sets the round id (default 0). Uploads stamped with any other
    /// round are refused by validation and ignored by the quorum
    /// collector — stale frames from an earlier round can never leak
    /// into this one.
    #[must_use]
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// The round id clients must stamp into their uploads.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The shared chunk-grid size of this round.
    #[must_use]
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The round's noise placement.
    #[must_use]
    pub fn mode(&self) -> NoiseMode {
        self.mode
    }

    /// Plans the round's row partition: contiguous, chunk-aligned,
    /// balanced shares for `clients` participants over `total_rows` rows.
    ///
    /// # Errors
    /// As [`ShardPlan::new`].
    pub fn plan(&self, total_rows: usize, clients: usize) -> Result<ShardPlan> {
        ShardPlan::new(total_rows, clients, self.chunk_rows)
    }

    /// Receives and decodes one upload per transport, in registration
    /// order.
    ///
    /// # Errors
    /// [`crate::FederatedError::Transport`] for channel failures;
    /// [`crate::FederatedError::Wire`] for payloads that fail `fm-accum
    /// v2` validation (corruption, truncation, version skew).
    pub fn collect(
        &self,
        transports: &mut [impl Transport],
    ) -> Result<Vec<AccumUpload<QuadraticForm>>> {
        transports
            .iter_mut()
            .map(|t| {
                let bytes = t.recv()?;
                let text = String::from_utf8(bytes)
                    .map_err(|_| crate::error::wire("payload is not UTF-8"))?;
                AccumUpload::decode(&text)
            })
            .collect()
    }

    /// Validates the collected uploads against the round's protocol,
    /// debits each client's (ε, δ) exactly once through a
    /// parallel-composition scope on `session` under `tenant`, and
    /// releases the round's model.
    ///
    /// Validation happens **before** the debit (a malformed round costs
    /// no budget); a release failure after the debit leaves the budget
    /// spent — fail closed, never under-count.
    ///
    /// # Errors
    /// [`crate::FederatedError::Protocol`] for duplicate client labels,
    /// mismatched dimensionality/chunk grid/mode, or non-contiguous grid
    /// coverage; [`crate::FederatedError::Fm`] for budget refusals and
    /// release failures.
    pub fn release(
        &self,
        uploads: Vec<AccumUpload<QuadraticForm>>,
        session: &SharedPrivacySession,
        tenant: &str,
        rng: &mut impl Rng,
    ) -> Result<O::Model> {
        let d = self.validate(&uploads)?;

        // Disjoint client shards compose in parallel: debit each label
        // once; the tenant pays the max ε across clients, not the sum.
        let config = self.estimator.config();
        let delta = config.delta().unwrap_or(0.0);
        let mut scope = session.parallel_scope(tenant);
        for upload in &uploads {
            scope.admit(&upload.client, config.epsilon, delta)?;
        }
        scope.finish()?;

        match self.mode {
            NoiseMode::Central => self.release_central(uploads, d, rng),
            NoiseMode::Local => self.release_local(uploads, d),
        }
    }

    /// One-call round: collect every client's upload, then
    /// [`Coordinator::release`].
    ///
    /// # Errors
    /// As [`Coordinator::collect`] and [`Coordinator::release`].
    pub fn run_round(
        &self,
        transports: &mut [impl Transport],
        session: &SharedPrivacySession,
        tenant: &str,
        rng: &mut impl Rng,
    ) -> Result<O::Model> {
        let uploads = self.collect(transports)?;
        self.release(uploads, session, tenant, rng)
    }

    /// Fault-tolerant round: collect one upload per transport under
    /// `policy`'s deadline and retry schedule, **salvage** the round
    /// when clients drop, and release over the survivors.
    ///
    /// * Transient failures (timeouts, torn frames, corrupt payloads)
    ///   are retried; retransmitted frames are recognized by their
    ///   `(round, client, checksum)` identity and deduped exactly-once.
    /// * A client that disconnects or exhausts its retries is
    ///   **dropped**: in a central-noise round its grid range is
    ///   re-planned onto the survivors — each shifted survivor receives
    ///   a [`ControlMsg::Assign`] and re-contributes its *own* rows at
    ///   the new chunk position, so the salvaged release is
    ///   **bit-identical** to a fresh round planned over the same
    ///   survivor geometry at the same seed. Clients that drop *during*
    ///   recovery trigger another re-plan.
    /// * Only survivors are debited: dropped clients never reach the
    ///   parallel-composition scope, so their ε cost is exactly zero.
    /// * When fewer than `policy.min_clients` survive, the round refuses
    ///   with [`FederatedError::Quorum`] — nothing debited.
    ///
    /// Survivors are told the round is over with a [`ControlMsg::Done`]
    /// (best-effort), so [`FederatedClient::participate`] loops
    /// terminate cleanly.
    ///
    /// [`FederatedClient::participate`]: crate::FederatedClient::participate
    ///
    /// # Errors
    /// [`FederatedError::Quorum`] below quorum;
    /// [`crate::FederatedError::Protocol`] for hostile uploads (a client
    /// equivocating — same label, same round, different payloads outside
    /// an expected replacement — a frame on another chunk grid, a
    /// replacement at the wrong position, or a survivor geometry that
    /// overflows the grid) and for protocol violations at release;
    /// [`crate::FederatedError::Fm`] for budget refusals and release
    /// failures.
    pub fn run_round_with_quorum(
        &self,
        transports: &mut [impl Transport],
        policy: &QuorumPolicy,
        session: &SharedPrivacySession,
        tenant: &str,
        rng: &mut impl Rng,
    ) -> Result<(O::Model, RoundReport)> {
        for t in transports.iter_mut() {
            t.set_deadline(Some(policy.deadline))?;
        }
        let mut dedup = DedupLedger {
            seen: HashMap::new(),
            deduped_frames: 0,
        };

        // Phase 1: one upload per transport, faults tolerated per-slot.
        let mut slots: Vec<Option<AccumUpload<QuadraticForm>>> = Vec::new();
        let mut dropped: Vec<usize> = Vec::new();
        for (i, t) in transports.iter_mut().enumerate() {
            match self.recv_upload(t, &policy.retry, &mut dedup, None)? {
                Some(u) => slots.push(Some(u)),
                None => {
                    slots.push(None);
                    dropped.push(i);
                }
            }
        }

        // Phase 2 (central rounds): close dropped clients' grid holes by
        // re-planning the survivors' own geometry contiguously from
        // chunk 0 and re-collecting from every survivor whose position
        // moved. Every iteration either reaches a contiguous grid or
        // drops at least one more client, so the loop terminates.
        let min_clients = policy.min_clients.max(1);
        let mut recovery_subrounds = 0usize;
        loop {
            let survivors: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
            if survivors.len() < min_clients {
                return Err(FederatedError::Quorum {
                    survivors: survivors.len(),
                    min_clients,
                });
            }
            if self.mode != NoiseMode::Central {
                // Local-noise uploads carry no grid position — dropping
                // a client needs no re-planning at all.
                break;
            }
            let geometry: Vec<(usize, usize)> = survivors
                .iter()
                .map(|&i| {
                    let u = slots[i].as_ref().expect("survivor slot holds an upload");
                    (run_chunks(u), u.staged_ys.len())
                })
                .collect();
            let desired = ShardPlan::from_client_geometry(self.chunk_rows, &geometry)?;

            // Which survivors sit at the wrong position under the
            // re-packed plan?
            let mut moved: Vec<(usize, ClientShare)> = Vec::new();
            for (&slot, share) in survivors.iter().zip(&desired.shares) {
                let current = slots[slot].as_ref().expect("survivor slot holds an upload");
                if current.start_chunk != share.start_chunk {
                    moved.push((slot, *share));
                }
            }
            if moved.is_empty() {
                break;
            }
            recovery_subrounds += 1;

            // Re-assign, then re-collect. A client unreachable at either
            // step is dropped, and the next iteration re-plans again.
            let mut assigned: Vec<(usize, ClientShare)> = Vec::new();
            for (slot, share) in moved {
                let msg = ControlMsg::Assign {
                    round: self.round,
                    share,
                };
                let encoded = msg.encode();
                match policy
                    .retry
                    .run(|_| transports[slot].send(encoded.as_bytes()))
                {
                    Ok(()) => assigned.push((slot, share)),
                    Err(_) => {
                        slots[slot] = None;
                        dropped.push(slot);
                    }
                }
            }
            for (slot, share) in assigned {
                let expected = ExpectedReplacement {
                    client: slots[slot]
                        .as_ref()
                        .expect("assigned slot holds an upload")
                        .client
                        .clone(),
                    share,
                };
                match self.recv_upload(
                    &mut transports[slot],
                    &policy.retry,
                    &mut dedup,
                    Some(&expected),
                )? {
                    Some(u) => slots[slot] = Some(u),
                    None => {
                        slots[slot] = None;
                        dropped.push(slot);
                    }
                }
            }
        }

        // Release the survivors from the round before releasing the
        // model — best-effort: a client that misses its Done hits its
        // own deadline instead of hanging.
        let done = ControlMsg::Done { round: self.round }.encode();
        for (i, t) in transports.iter_mut().enumerate() {
            if slots[i].is_some() {
                let _ = t.send(done.as_bytes());
            }
        }

        let uploads: Vec<AccumUpload<QuadraticForm>> = slots.into_iter().flatten().collect();
        let report = RoundReport {
            survivors: uploads.iter().map(|u| u.client.clone()).collect(),
            dropped,
            recovery_subrounds,
            deduped_frames: dedup.deduped_frames,
        };
        let model = self.release(uploads, session, tenant, rng)?;
        Ok((model, report))
    }

    /// Receives one valid upload from `transport`, absorbing transient
    /// faults: retryable failures burn the retry budget, recognized
    /// retransmits/stale frames are ignored (up to
    /// [`MAX_IGNORED_FRAMES`]), and `Ok(None)` means the client is
    /// dropped — disconnected or out of patience. Only hostile behavior
    /// (equivocation, a frame on another chunk grid, a replacement from
    /// the wrong client or at the wrong position) is a hard error: it
    /// aborts the round before any debit.
    fn recv_upload(
        &self,
        transport: &mut impl Transport,
        retry: &RetryPolicy,
        dedup: &mut DedupLedger,
        expected: Option<&ExpectedReplacement>,
    ) -> Result<Option<AccumUpload<QuadraticForm>>> {
        let max_attempts = retry.max_attempts.max(1);
        let mut failures = 0u32;
        let mut ignored = 0u32;
        loop {
            let bytes = match transport.recv() {
                Ok(bytes) => bytes,
                Err(FederatedError::Disconnected { .. }) => return Ok(None),
                Err(e) if e.is_retryable() => {
                    failures += 1;
                    if failures >= max_attempts {
                        return Ok(None);
                    }
                    let pause = retry.backoff(failures);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    continue;
                }
                // Terminal transport failure (e.g. an oversized frame):
                // this client cannot be salvaged, but the round can.
                Err(_) => return Ok(None),
            };
            let fingerprint = checksum64(&bytes);
            let upload = match String::from_utf8(bytes)
                .map_err(|_| crate::error::wire("payload is not UTF-8"))
                .and_then(|text| AccumUpload::<QuadraticForm>::decode(&text))
            {
                Ok(upload) => upload,
                Err(_) => {
                    // A torn or corrupt frame; the peer may retransmit.
                    failures += 1;
                    if failures >= max_attempts {
                        return Ok(None);
                    }
                    let pause = retry.backoff(failures);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    continue;
                }
            };

            // Stale round: a frame from an earlier round on a reused
            // transport. Ignore — it can never enter this release.
            if upload.round != self.round {
                ignored += 1;
                if ignored >= MAX_IGNORED_FRAMES {
                    return Ok(None);
                }
                continue;
            }
            // A frame on another chunk grid can never enter this release,
            // and its geometry must not reach the re-planner, whose grid
            // arithmetic assumes the round's chunk size.
            if upload.chunk_rows != self.chunk_rows {
                return Err(protocol(format!(
                    "client {:?} chunked at {} rows, the round's grid is {}",
                    upload.client, upload.chunk_rows, self.chunk_rows
                )));
            }
            // Idempotency: an already-accepted identity is a retransmit.
            if dedup
                .seen
                .get(&upload.client)
                .is_some_and(|fps| fps.contains(&fingerprint))
            {
                dedup.deduped_frames += 1;
                ignored += 1;
                if ignored >= MAX_IGNORED_FRAMES {
                    return Ok(None);
                }
                continue;
            }

            match expected {
                None => {
                    // First contact in this round may not reuse a label
                    // already accepted with different content.
                    if dedup.seen.contains_key(&upload.client) {
                        return Err(protocol(format!(
                            "client {:?} uploaded two different payloads in round {} \
                             (equivocation)",
                            upload.client, self.round
                        )));
                    }
                }
                Some(exp) => {
                    if upload.client != exp.client {
                        return Err(protocol(format!(
                            "recovery upload from {:?} on a channel owned by {:?}",
                            upload.client, exp.client
                        )));
                    }
                    if upload.start_chunk != exp.share.start_chunk
                        || run_chunks(&upload) != exp.share.chunks
                        || upload.staged_ys.len() != exp.share.tail_rows
                    {
                        // A re-upload under a superseded assignment (the
                        // plan moved again while it was in flight):
                        // ignore and keep waiting for the current one.
                        ignored += 1;
                        if ignored >= MAX_IGNORED_FRAMES {
                            return Ok(None);
                        }
                        continue;
                    }
                }
            }

            dedup
                .seen
                .entry(upload.client.clone())
                .or_default()
                .push(fingerprint);
            return Ok(Some(upload));
        }
    }

    /// Protocol validation over the whole round — everything checkable
    /// without touching the budget or the accumulator. Returns the
    /// round's working dimensionality.
    fn validate(&self, uploads: &[AccumUpload<QuadraticForm>]) -> Result<usize> {
        if uploads.is_empty() {
            return Err(protocol("a round needs at least one client upload"));
        }
        let mut labels: Vec<&str> = uploads.iter().map(|u| u.client.as_str()).collect();
        labels.sort_unstable();
        if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(protocol(format!(
                "client {:?} uploaded more than once; a label is debited exactly once per round",
                dup[0]
            )));
        }
        let d = uploads[0].d;
        let expected = self.mode.expected_payload();
        let last = uploads.len() - 1;
        let mut frontier = 0usize;
        for (i, u) in uploads.iter().enumerate() {
            if u.round != self.round {
                return Err(protocol(format!(
                    "client {:?} uploaded into round {}, this round is {}",
                    u.client, u.round, self.round
                )));
            }
            if u.d != d {
                return Err(protocol(format!(
                    "client {:?} uploaded d = {}, the round runs at d = {d}",
                    u.client, u.d
                )));
            }
            if u.chunk_rows != self.chunk_rows {
                return Err(protocol(format!(
                    "client {:?} chunked at {} rows, the round's grid is {}",
                    u.client, u.chunk_rows, self.chunk_rows
                )));
            }
            if u.mode != expected {
                return Err(protocol(format!(
                    "client {:?} uploaded a {:?} payload into a {:?} round",
                    u.client, u.mode, self.mode
                )));
            }
            if self.mode == NoiseMode::Central {
                if u.start_chunk != frontier {
                    return Err(protocol(format!(
                        "client {:?} starts at chunk {}, but the grid frontier is {frontier}",
                        u.client, u.start_chunk
                    )));
                }
                if i != last && !u.staged_ys.is_empty() {
                    return Err(protocol(format!(
                        "client {:?} uploaded ragged-tail rows mid-round; only the final \
                         client may carry a partial chunk",
                        u.client
                    )));
                }
                for &(rank, _) in &u.runs {
                    frontier = frontier
                        .checked_add(1usize << rank)
                        .ok_or_else(|| protocol("round chunk count overflows"))?;
                }
            }
        }
        Ok(d)
    }

    /// Central-noise release: replay every client's pre-merged runs at
    /// matching ranks on the shared grid, absorb the final ragged tail,
    /// and draw the mechanism's noise once over the merged exact
    /// coefficients — bit-identical to a single-machine fit over the
    /// concatenated rows at the same chunk size and RNG state.
    fn release_central(
        &self,
        uploads: Vec<AccumUpload<QuadraticForm>>,
        d: usize,
        rng: &mut impl Rng,
    ) -> Result<O::Model> {
        let objective = self.estimator.objective();
        let mut acc = CoefficientAccumulator::with_chunk_rows(objective, d, self.chunk_rows);
        for upload in uploads {
            for (rank, part) in upload.runs {
                acc.push_run(rank, part)?;
            }
            if !upload.staged_ys.is_empty() {
                // Raw tail rows go through full contract validation, like
                // any other ingested block.
                acc.push_rows(&upload.staged_xs, &upload.staged_ys)?;
            }
        }
        let clean = acc
            .finish()
            .ok_or_else(|| protocol("the round covered no rows"))?;
        Ok(self.estimator.release_clean(&clean, rng)?)
    }

    /// Local-noise release: sum the already-perturbed client objectives
    /// in upload order (pure post-processing — no further noise, no
    /// further budget) and solve under the round's strategy. The noise
    /// calibration handed to post-processing is derived from the round's
    /// own mechanism configuration, never from the network.
    fn release_local(
        &self,
        uploads: Vec<AccumUpload<QuadraticForm>>,
        _d: usize,
    ) -> Result<O::Model> {
        let contributors = uploads.len();
        let mut total: Option<QuadraticForm> = None;
        for upload in uploads {
            for (_, part) in upload.runs {
                match &mut total {
                    None => total = Some(part),
                    Some(t) => t.merge(part),
                }
            }
        }
        let total = total.ok_or_else(|| protocol("the round carried no contributions"))?;
        let config = self.estimator.config();
        let mechanism =
            FunctionalMechanism::with_config(config.epsilon, config.bound, config.noise)?;
        let noisy = NoisyQuadratic::from_federated_sum(
            total,
            contributors,
            &mechanism,
            self.estimator.objective(),
        )?;
        Ok(self.estimator.release_noisy(noisy)?)
    }
}

/// Whole chunks covered by an upload's pre-merged runs.
fn run_chunks(upload: &AccumUpload<QuadraticForm>) -> usize {
    upload.runs.iter().map(|(rank, _)| 1usize << *rank).sum()
}
