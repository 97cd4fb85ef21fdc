//! The client half of a federated round: accumulate a contiguous,
//! chunk-aligned slice of the dataset locally, pre-merge it into aligned
//! dyadic runs, and upload the result as one `fm-accum v2` payload.
//! [`FederatedClient::participate`] is the fault-tolerant loop on top:
//! upload with retries, then serve the coordinator's recovery
//! re-assignments until the round completes.
//!
//! In **central-noise** mode the upload carries exact coefficient
//! partials — the client trusts the coordinator with its aggregate (not
//! its rows: only the final client's sub-chunk ragged tail ever travels
//! as raw rows). In **local-noise** mode the client runs the functional
//! mechanism on its own contribution before upload, so not even the
//! aggregate leaves the machine un-noised; the coordinator merely sums
//! already-released objectives (pure post-processing).

use fm_core::{CoefficientAccumulator, FmEstimator, FunctionalMechanism, RegressionObjective};
use fm_data::stream::{InterceptAugmentSource, RowSource, TakeRows};
use fm_poly::QuadraticForm;
use rand::Rng;

use crate::error::{protocol, Result};
use crate::plan::{dyadic_segments, ClientShare};
use crate::transport::{RetryPolicy, Transport};
use crate::wire::{AccumUpload, ControlMsg, PayloadMode};

/// One participant of a federated round, bound to the round's shared
/// estimator configuration (objective, ε, sensitivity bound, noise
/// distribution, intercept handling), chunk grid, and round id.
pub struct FederatedClient<'a, O: RegressionObjective> {
    estimator: &'a FmEstimator<O>,
    name: String,
    chunk_rows: usize,
    round: u64,
}

impl<'a, O: RegressionObjective> FederatedClient<'a, O> {
    /// A client named `name` (its budget label on the coordinator's
    /// ledger) under the round's shared estimator, at the default chunk
    /// size, in round 0.
    pub fn new(estimator: &'a FmEstimator<O>, name: impl Into<String>) -> Self {
        Self::with_chunk_rows(estimator, name, fm_core::assembly::DEFAULT_CHUNK_ROWS)
    }

    /// As [`FederatedClient::new`] with an explicit shared chunk size
    /// (every party of a round must agree on it).
    pub fn with_chunk_rows(
        estimator: &'a FmEstimator<O>,
        name: impl Into<String>,
        chunk_rows: usize,
    ) -> Self {
        FederatedClient {
            estimator,
            name: name.into(),
            chunk_rows: chunk_rows.max(1),
            round: 0,
        }
    }

    /// Sets the round id stamped into this client's uploads (every party
    /// of a round must agree on it — the coordinator ignores frames from
    /// other rounds).
    #[must_use]
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// The client's budget label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The round id stamped into this client's uploads.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Accumulates this client's share from `source` (which must deliver
    /// exactly the share's rows, in order) into a **clean** upload: one
    /// pre-merged partial per aligned dyadic segment of the share's chunk
    /// range, plus the raw ragged-tail rows when the share carries them.
    /// Replayed at the coordinator, these runs reproduce the
    /// single-machine merge tree bit for bit.
    ///
    /// # Errors
    /// [`crate::FederatedError::Fm`] for contract violations in the rows;
    /// [`crate::FederatedError::Protocol`] when `source` runs dry before
    /// the share is covered.
    pub fn contribute_clean(
        &self,
        source: &mut (impl RowSource + ?Sized),
        share: &ClientShare,
    ) -> Result<AccumUpload<QuadraticForm>> {
        if self.estimator.config().fit_intercept {
            self.clean_upload(&mut InterceptAugmentSource::new(source), share)
        } else {
            self.clean_upload(source, share)
        }
    }

    fn clean_upload(
        &self,
        work: &mut (impl RowSource + ?Sized),
        share: &ClientShare,
    ) -> Result<AccumUpload<QuadraticForm>> {
        let d = work.dim();
        let objective = self.estimator.objective();
        let mut runs = Vec::new();
        // Each segment is a row cap on the one stream, stopping its
        // cursor at the segment's last row. The cap is as zero-copy as
        // the stream: over in-memory rows it lends the stream's own
        // slices, so each segment's chunks are mapped across cores in
        // windows, while a copying stream is read one chunk per block.
        for (c, rank) in dyadic_segments(share.start_chunk, share.chunks) {
            let seg_rows = (1usize << rank) * self.chunk_rows;
            let mut acc = CoefficientAccumulator::with_chunk_rows(objective, d, self.chunk_rows);
            let got = acc.absorb(&mut TakeRows::new(&mut *work, seg_rows))?;
            if got != seg_rows {
                return Err(protocol(format!(
                    "client {}: source delivered {got} of {seg_rows} rows for the \
                     2^{rank}-chunk segment at chunk {c}",
                    self.name
                )));
            }
            // 2^rank consecutive chunks from a fresh accumulator collapse
            // to exactly one counter run at that rank.
            let mut stack = acc.partial_runs().to_vec();
            debug_assert_eq!(stack.len(), 1);
            let (r, part) = stack.pop().expect("segment produced no run");
            debug_assert_eq!(r, rank);
            runs.push((r, part));
        }
        let (staged_xs, staged_ys) = if share.tail_rows > 0 {
            let mut acc = CoefficientAccumulator::with_chunk_rows(objective, d, self.chunk_rows);
            let got = acc.absorb(&mut TakeRows::new(&mut *work, share.tail_rows))?;
            if got != share.tail_rows {
                return Err(protocol(format!(
                    "client {}: source delivered {got} of {} ragged-tail rows",
                    self.name, share.tail_rows
                )));
            }
            let (xs, ys) = acc.staged();
            (xs.to_vec(), ys.to_vec())
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(AccumUpload {
            client: self.name.clone(),
            round: self.round,
            mode: PayloadMode::Clean,
            d,
            chunk_rows: self.chunk_rows,
            start_chunk: share.start_chunk,
            rows: share.rows,
            runs,
            staged_xs,
            staged_ys,
        })
    }

    /// Accumulates this client's entire `source` and perturbs the result
    /// with the round's mechanism **before** it leaves the machine — the
    /// local-noise trust model. The upload carries one noisy objective
    /// and no raw rows; the client's own ε is spent here, at its own RNG.
    ///
    /// # Errors
    /// [`crate::FederatedError::Fm`] for contract violations or an
    /// invalid mechanism configuration;
    /// [`crate::FederatedError::Protocol`] for an empty source.
    pub fn contribute_noisy(
        &self,
        source: &mut (impl RowSource + ?Sized),
        rng: &mut impl Rng,
    ) -> Result<AccumUpload<QuadraticForm>> {
        if self.estimator.config().fit_intercept {
            self.noisy_upload(&mut InterceptAugmentSource::new(source), rng)
        } else {
            self.noisy_upload(source, rng)
        }
    }

    fn noisy_upload(
        &self,
        work: &mut (impl RowSource + ?Sized),
        rng: &mut impl Rng,
    ) -> Result<AccumUpload<QuadraticForm>> {
        let d = work.dim();
        let objective = self.estimator.objective();
        let mut acc = CoefficientAccumulator::with_chunk_rows(objective, d, self.chunk_rows);
        let rows = acc.absorb(work)?;
        let Some(clean) = acc.finish() else {
            return Err(protocol(format!(
                "client {}: a noisy contribution needs at least one row",
                self.name
            )));
        };
        let config = self.estimator.config();
        let mechanism =
            FunctionalMechanism::with_config(config.epsilon, config.bound, config.noise)?;
        let noisy = mechanism.perturb_assembled(&clean, objective, rng)?;
        Ok(AccumUpload {
            client: self.name.clone(),
            round: self.round,
            mode: PayloadMode::Noisy,
            d,
            chunk_rows: self.chunk_rows,
            start_chunk: 0,
            rows,
            runs: vec![(0, noisy.into_objective())],
            staged_xs: Vec::new(),
            staged_ys: Vec::new(),
        })
    }

    /// Encodes `upload` and sends it to the coordinator.
    ///
    /// # Errors
    /// [`crate::FederatedError::Transport`] when the send fails.
    pub fn upload(
        &self,
        transport: &mut impl Transport,
        upload: &AccumUpload<QuadraticForm>,
    ) -> Result<()> {
        transport.send(upload.encode().as_bytes())
    }

    /// As [`FederatedClient::upload`], retrying transient send failures
    /// under `retry`. Safe to over-send: the payload's `(round, client,
    /// checksum)` identity makes a duplicate delivery after an ambiguous
    /// failure a dedup at the coordinator, never a refused round.
    ///
    /// # Errors
    /// The last transport error once `retry` is exhausted.
    pub fn upload_with_retry(
        &self,
        transport: &mut impl Transport,
        upload: &AccumUpload<QuadraticForm>,
        retry: &RetryPolicy,
    ) -> Result<()> {
        let encoded = upload.encode();
        retry.run(|_| transport.send(encoded.as_bytes()))
    }

    /// Full fault-tolerant participation in a central-noise round:
    /// contribute `share` from a fresh source, upload it (with retries),
    /// then serve the coordinator's control messages — re-contributing
    /// under each [`ControlMsg::Assign`] (a dropped peer's range was
    /// re-planned, moving this client's grid position) until a
    /// [`ControlMsg::Done`] releases the client. `source` is called once
    /// per contribution and must yield the client's local rows from the
    /// start each time.
    ///
    /// Returns the number of re-assignments served.
    ///
    /// # Errors
    /// As [`FederatedClient::contribute_clean`] and the transport's
    /// `recv`/`send`; [`crate::FederatedError::Wire`] for a corrupt
    /// control message; [`crate::FederatedError::Protocol`] for a
    /// control message from a different round.
    pub fn participate<S: RowSource>(
        &self,
        transport: &mut impl Transport,
        share: &ClientShare,
        mut source: impl FnMut() -> S,
        retry: &RetryPolicy,
    ) -> Result<usize> {
        let upload = self.contribute_clean(&mut source(), share)?;
        self.upload_with_retry(transport, &upload, retry)?;
        let mut reassignments = 0usize;
        loop {
            let bytes = transport.recv()?;
            let text = String::from_utf8(bytes)
                .map_err(|_| crate::error::wire("control message is not UTF-8"))?;
            match ControlMsg::decode(&text)? {
                ControlMsg::Done { round } if round == self.round => return Ok(reassignments),
                ControlMsg::Assign { round, share } if round == self.round => {
                    let upload = self.contribute_clean(&mut source(), &share)?;
                    self.upload_with_retry(transport, &upload, retry)?;
                    reassignments += 1;
                }
                ControlMsg::Done { round } | ControlMsg::Assign { round, .. } => {
                    return Err(protocol(format!(
                        "control message for round {round} arrived in round {}",
                        self.round
                    )));
                }
            }
        }
    }
}
