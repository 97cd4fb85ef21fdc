//! Federated fitting ≡ single-machine fitting: the integration suite for
//! `fm-federated`'s tentpole guarantees.
//!
//! * a K-client **central-noise** round over real byte-stream transports
//!   (a Unix socket pair per client, clients on their own threads)
//!   releases a model **bit-identical** to `fit` over the concatenated
//!   rows at the same seed — including under the intercept augmentation
//!   and a non-default chunk grid;
//! * each client's ε is debited **exactly once** through a
//!   parallel-composition scope (the tenant pays the max, not the sum),
//!   over-cap rounds are refused before any release, and duplicate
//!   client labels are refused before any debit;
//! * corrupted, truncated, version-skewed and wrong-mode payloads are
//!   refused with typed errors — and the `fm-accum v2` codec round-trips
//!   real accumulator state bit-exactly for arbitrary shard geometry
//!   (property-tested), with **every** strict byte-prefix of a payload
//!   refused, never accepted and never a panic;
//! * dropout under a [`QuorumPolicy`] **salvages** the round: the
//!   survivors' grid is re-planned, the salvaged release is bit-identical
//!   to a fresh fit over the survivors' pooled rows at the same seed
//!   (property-tested over arbitrary dropout geometry), exactly the
//!   survivors are debited — and the same dropout *without* a policy
//!   still refuses cleanly, debit-free.

use std::os::unix::net::UnixStream;
use std::time::Duration;

use functional_mechanism::core::estimator::{FitConfig, FmEstimator};
use functional_mechanism::core::linreg::{DpLinearRegression, LinearObjective};
use functional_mechanism::core::session::SharedPrivacySession;
use functional_mechanism::data::stream::{BlockVisitor, InMemorySource, RowBlock, RowSource};
use functional_mechanism::data::{synth, Dataset};
use functional_mechanism::federated::{
    dyadic_segments, AccumUpload, Coordinator, FederatedClient, FederatedError, InMemoryTransport,
    NoiseMode, QuorumPolicy, RetryPolicy, ShardPlan, Transport,
};
use functional_mechanism::linalg::Matrix;
use functional_mechanism::privacy::wal::checksum64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The contiguous row range `[start, start + rows)` of `data` as its own
/// dataset — one client's local shard.
fn slice_dataset(data: &Dataset, start: usize, rows: usize) -> Dataset {
    let d = data.x().cols();
    let mut xs = Vec::with_capacity(rows * d);
    for r in start..start + rows {
        xs.extend_from_slice(data.x().row(r));
    }
    let ys = data.y()[start..start + rows].to_vec();
    Dataset::new(Matrix::from_vec(rows, d, xs).unwrap(), ys).unwrap()
}

/// A central round: K clients on their own threads, each streaming its
/// share into an upload and sending it over a real byte-stream transport
/// (one Unix socket pair per client). The released model must be
/// bit-identical to a single-machine `fit` at the same seed, and the
/// tenant must be debited the parallel composition (max ε) exactly once.
#[test]
fn central_round_over_unix_sockets_matches_single_machine_fit() {
    let rows = 5 * 4096 + 100;
    let data = {
        let mut rng = StdRng::seed_from_u64(11);
        synth::linear_dataset(&mut rng, rows, 3, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(0.9).build();
    let coordinator = Coordinator::new(&estimator, NoiseMode::Central);
    let plan = coordinator.plan(rows, 3).unwrap();

    let mut coord_ends = Vec::new();
    let mut client_ends = Vec::new();
    for _ in 0..3 {
        let (a, b) = UnixStream::pair().unwrap();
        coord_ends.push(functional_mechanism::federated::StreamTransport::new(
            a.try_clone().unwrap(),
            a,
        ));
        client_ends.push(Some(functional_mechanism::federated::StreamTransport::new(
            b.try_clone().unwrap(),
            b,
        )));
    }

    let session = SharedPrivacySession::new();
    let released = std::thread::scope(|scope| {
        for (i, (share, transport)) in plan.shares.iter().zip(client_ends.iter_mut()).enumerate() {
            let shard = slice_dataset(&data, share.start_row, share.rows);
            let estimator = &estimator;
            let mut transport = transport.take().unwrap();
            scope.spawn(move || {
                let client = FederatedClient::new(estimator, format!("hospital-{i}"));
                let upload = client
                    .contribute_clean(&mut InMemorySource::new(&shard), share)
                    .unwrap();
                client.upload(&mut transport, &upload).unwrap();
            });
        }
        let mut rng = StdRng::seed_from_u64(424_242);
        coordinator
            .run_round(&mut coord_ends, &session, "study", &mut rng)
            .unwrap()
    });

    let mut rng = StdRng::seed_from_u64(424_242);
    let reference = estimator.fit(&data, &mut rng).unwrap();
    assert_eq!(
        released, reference,
        "central round must replay fit() bit for bit"
    );

    // Three disjoint clients at ε = 0.9 compose in parallel: the tenant
    // pays 0.9 once, not 2.7.
    assert_eq!(session.spent_for("study"), (0.9, 0.0));
    assert_eq!(session.spent_epsilon(), 0.9);
}

/// The same bit-identity under the intercept augmentation and a
/// non-default chunk grid, against the two-phase `partial_fit` protocol
/// at the same chunk size.
#[test]
fn intercept_round_on_custom_grid_matches_partial_fit() {
    let rows = 199; // 24 chunks of 8 + a 7-row ragged tail
    let data = {
        let mut rng = StdRng::seed_from_u64(23);
        synth::linear_dataset(&mut rng, rows, 4, 0.1)
    };
    let estimator = FmEstimator::new(
        LinearObjective,
        FitConfig::new().epsilon(1.1).fit_intercept(true),
    );
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8);
    let plan = coordinator.plan(rows, 3).unwrap();

    let mut coord_ends = Vec::new();
    for (i, share) in plan.shares.iter().enumerate() {
        let client = FederatedClient::with_chunk_rows(&estimator, format!("site-{i}"), 8);
        let shard = slice_dataset(&data, share.start_row, share.rows);
        let upload = client
            .contribute_clean(&mut InMemorySource::new(&shard), share)
            .unwrap();
        let (mut tx, rx) = InMemoryTransport::pair();
        client.upload(&mut tx, &upload).unwrap();
        coord_ends.push(rx);
    }
    let session = SharedPrivacySession::new();
    let mut rng = StdRng::seed_from_u64(77);
    let released = coordinator
        .run_round(&mut coord_ends, &session, "grid", &mut rng)
        .unwrap();

    let mut direct = estimator.partial_fit().chunk_rows(8);
    direct.absorb(&mut InMemorySource::new(&data)).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let reference = direct.finalize(&mut rng).unwrap();
    assert_eq!(released, reference);
}

/// Forwards the owned and borrowed-block paths but not `zero_copy`, so a
/// client's accumulator reads its segments one chunk per block: the
/// transport every copying source gets.
struct ChunkSized<S>(S);

impl<S: RowSource> RowSource for ChunkSized<S> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn next_block(
        &mut self,
        max_rows: usize,
    ) -> functional_mechanism::data::Result<Option<RowBlock>> {
        self.0.next_block(max_rows)
    }
    fn for_each_block(
        &mut self,
        max_rows: usize,
        f: &mut BlockVisitor<'_>,
    ) -> functional_mechanism::data::Result<()> {
        self.0.for_each_block(max_rows, f)
    }
}

/// Shares cut into many dyadic segments upload the same bits whether a
/// client's in-memory rows reach its accumulator in windows of chunks
/// (zero-copy) or one chunk per block, and the round replays the
/// single-machine fit. The geometry covers a share whose chunk count is
/// not a power of two, an odd `start_chunk`, a ragged tail, and a
/// 128-chunk segment, four times the accumulator's 32-chunk window.
#[test]
fn multi_segment_shares_upload_the_same_bits_from_windowed_and_chunk_sized_reads() {
    let chunk = 8;
    let plan = ShardPlan::from_client_geometry(chunk, &[(67, 0), (198, 0), (3, 5)]).unwrap();
    assert_eq!(plan.shares[2].start_chunk, 265);
    assert!(
        dyadic_segments(plan.shares[1].start_chunk, plan.shares[1].chunks)
            .iter()
            .any(|&(_, rank)| rank == 7)
    );
    let rows = plan.total_rows;
    let data = {
        let mut rng = StdRng::seed_from_u64(31);
        synth::linear_dataset(&mut rng, rows, 3, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(0.7).build();
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, chunk);

    let mut coord_ends = Vec::new();
    for (i, share) in plan.shares.iter().enumerate() {
        let client = FederatedClient::with_chunk_rows(&estimator, format!("site-{i}"), chunk);
        let shard = slice_dataset(&data, share.start_row, share.rows);
        let windowed = client
            .contribute_clean(&mut InMemorySource::new(&shard), share)
            .unwrap();
        let chunked = client
            .contribute_clean(&mut ChunkSized(InMemorySource::new(&shard)), share)
            .unwrap();
        assert_eq!(
            windowed.runs.len(),
            dyadic_segments(share.start_chunk, share.chunks).len()
        );
        assert_eq!(windowed.staged_ys.len(), share.tail_rows);
        assert_eq!(windowed.encode(), chunked.encode(), "share {i}");
        let (mut tx, rx) = InMemoryTransport::pair();
        client.upload(&mut tx, &windowed).unwrap();
        coord_ends.push(rx);
    }
    let session = SharedPrivacySession::new();
    let mut rng = StdRng::seed_from_u64(505);
    let released = coordinator
        .run_round(&mut coord_ends, &session, "segments", &mut rng)
        .unwrap();

    // The in-memory fit over the pooled rows on the same chunk grid.
    let mut direct = estimator.partial_fit().chunk_rows(chunk);
    direct.absorb(&mut InMemorySource::new(&data)).unwrap();
    let mut rng = StdRng::seed_from_u64(505);
    assert_eq!(released, direct.finalize(&mut rng).unwrap());
}

/// Budget arithmetic across rounds: a capped session admits the first
/// round (debiting max ε across clients), refuses the round that would
/// overdraw, and refuses duplicate client labels before any debit.
#[test]
fn budget_caps_and_duplicate_labels_are_enforced() {
    let rows = 64;
    let data = {
        let mut rng = StdRng::seed_from_u64(5);
        synth::linear_dataset(&mut rng, rows, 2, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(1.0).build();
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8);
    let plan = coordinator.plan(rows, 2).unwrap();
    let uploads = |names: [&str; 2]| -> Vec<AccumUpload> {
        plan.shares
            .iter()
            .zip(names)
            .map(|(share, name)| {
                let shard = slice_dataset(&data, share.start_row, share.rows);
                FederatedClient::with_chunk_rows(&estimator, name, 8)
                    .contribute_clean(&mut InMemorySource::new(&shard), share)
                    .unwrap()
            })
            .collect()
    };

    let session = SharedPrivacySession::with_cap(1.5).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    coordinator
        .release(uploads(["a", "b"]), &session, "t", &mut rng)
        .unwrap();
    assert_eq!(
        session.spent_epsilon(),
        1.0,
        "two disjoint clients pay max ε once"
    );

    // A duplicate label is a protocol violation, caught before the debit.
    let err = coordinator
        .release(uploads(["a", "a"]), &session, "t", &mut rng)
        .unwrap_err();
    assert!(matches!(err, FederatedError::Protocol { .. }), "{err}");
    assert_eq!(
        session.spent_epsilon(),
        1.0,
        "a malformed round costs nothing"
    );

    // A well-formed second round would need another 1.0 over a 1.5 cap.
    let err = coordinator
        .release(uploads(["a", "b"]), &session, "t", &mut rng)
        .unwrap_err();
    assert!(matches!(err, FederatedError::Fm(_)), "{err}");
    assert_eq!(
        session.spent_epsilon(),
        1.0,
        "a refused round costs nothing"
    );
}

/// Hostile payloads are refused with typed errors: corruption, torn
/// tails, version skew, non-UTF-8 frames (all `Wire`), and a wrong-mode
/// upload (`Protocol`) — none of them cost budget.
#[test]
fn hostile_payloads_are_refused_with_typed_errors() {
    let rows = 48;
    let data = {
        let mut rng = StdRng::seed_from_u64(9);
        synth::linear_dataset(&mut rng, rows, 2, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(0.5).build();
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8);
    let plan = coordinator.plan(rows, 1).unwrap();
    let client = FederatedClient::with_chunk_rows(&estimator, "c", 8);
    let good = client
        .contribute_clean(&mut InMemorySource::new(&data), &plan.shares[0])
        .unwrap()
        .encode();

    let expect_wire = |bytes: Vec<u8>| {
        let (mut tx, mut rx) = InMemoryTransport::pair();
        tx.send(&bytes).unwrap();
        let err = coordinator
            .collect(std::slice::from_mut(&mut rx))
            .unwrap_err();
        assert!(matches!(err, FederatedError::Wire { .. }), "{err}");
    };

    // Mid-payload corruption: flip one byte; the checksum refuses it.
    let mut flipped = good.clone().into_bytes();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    expect_wire(flipped);

    // Truncation: a torn tail (here 60%) never decodes.
    expect_wire(good.as_bytes()[..good.len() * 6 / 10].to_vec());

    // Version skew: a well-checksummed v3 payload is refused up front.
    let (body, _) = good.rsplit_once("checksum ").unwrap();
    let skewed_body = body.replacen("fm-accum v2", "fm-accum v3", 1);
    let skewed = format!(
        "{skewed_body}checksum {:016x}\n",
        checksum64(skewed_body.as_bytes())
    );
    expect_wire(skewed.into_bytes());

    // Frames must be UTF-8 text.
    expect_wire(vec![0xFF, 0xFE, 0x00]);

    // A noisy payload in a central round decodes fine but violates the
    // round's protocol.
    let mut rng = StdRng::seed_from_u64(3);
    let noisy = client
        .contribute_noisy(&mut InMemorySource::new(&data), &mut rng)
        .unwrap();
    let session = SharedPrivacySession::new();
    let err = coordinator
        .release(vec![noisy], &session, "t", &mut rng)
        .unwrap_err();
    assert!(matches!(err, FederatedError::Protocol { .. }), "{err}");
    assert_eq!(session.spent_epsilon(), 0.0, "refused rounds cost nothing");
}

/// Frames that decode cleanly but claim a grid no round can hold are
/// refused by the quorum collector with a typed protocol error, before
/// any debit. In debug builds they used to overflow the re-planner's
/// row arithmetic and panic; in release they wrapped.
#[test]
fn hostile_frame_geometry_is_refused_with_a_typed_error() {
    let rows = 48;
    let data = {
        let mut rng = StdRng::seed_from_u64(9);
        synth::linear_dataset(&mut rng, rows, 2, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(0.5).build();
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8);
    let plan = coordinator.plan(rows, 1).unwrap();
    let client = FederatedClient::with_chunk_rows(&estimator, "c", 8);
    let good = client
        .contribute_clean(&mut InMemorySource::new(&data), &plan.shares[0])
        .unwrap();
    let part = good.runs[0].1.clone();
    // A frame of `rows` rows covered by one run of 2^rank chunks of
    // `chunk_rows` rows each, at chunk `start_chunk`.
    let forge = |client: &str, chunk_rows: usize, rank: u32, start_chunk: usize| {
        let mut upload = good.clone();
        upload.client = client.to_string();
        upload.chunk_rows = chunk_rows;
        upload.start_chunk = start_chunk;
        upload.rows = (1usize << rank) * chunk_rows;
        upload.runs = vec![(rank, part.clone())];
        upload.encode()
    };
    let policy = QuorumPolicy::new(1, Duration::from_secs(5));
    let refuse = |frames: Vec<String>| {
        let mut coord_ends = Vec::new();
        for frame in frames {
            let (mut tx, rx) = InMemoryTransport::pair();
            tx.send(frame.as_bytes()).unwrap();
            coord_ends.push(rx);
        }
        let session = SharedPrivacySession::new();
        let mut rng = StdRng::seed_from_u64(1);
        let err = coordinator
            .run_round_with_quorum(&mut coord_ends, &policy, &session, "t", &mut rng)
            .unwrap_err();
        assert!(matches!(err, FederatedError::Protocol { .. }), "{err}");
        assert_eq!(session.spent_epsilon(), 0.0, "refused rounds cost nothing");
    };

    // One rank-62 run of 1-row chunks: 2^62 rows on its own grid, but
    // 2^65 rows on the round's 8-row grid.
    let hostile = forge("c", 1, 62, 0);
    assert!(hostile.len() < 400, "a {}-byte frame", hostile.len());
    refuse(vec![hostile]);
    // On the round's grid, each frame fits but their sum does not.
    refuse(vec![forge("a", 8, 60, 0), forge("b", 8, 60, 1 << 60)]);
}

/// The row ranges `ranges` of `data`, concatenated in order, as one
/// dataset — the survivors' pooled rows after a dropout.
fn concat_slices(data: &Dataset, ranges: &[(usize, usize)]) -> Dataset {
    let d = data.x().cols();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &(start, rows) in ranges {
        for r in start..start + rows {
            xs.extend_from_slice(data.x().row(r));
        }
        ys.extend_from_slice(&data.y()[start..start + rows]);
    }
    let rows = ys.len();
    Dataset::new(Matrix::from_vec(rows, d, xs).unwrap(), ys).unwrap()
}

/// The tentpole dropout guarantee, scripted: a 3-client round in which
/// the middle client vanishes before uploading. Under a
/// [`QuorumPolicy`] the coordinator drops it, re-plans its grid range
/// onto the survivors (one recovery sub-round: the third client
/// re-contributes its own rows at the closed-up chunk position), and the
/// salvaged release is **bit-identical** to a fresh fit over the two
/// survivors' pooled rows at the same seed. Exactly the survivors are
/// debited — the dropped client's label never reaches the ledger.
#[test]
fn dropout_salvage_is_bit_identical_and_debits_only_survivors() {
    let rows = 199; // 24 chunks of 8 + a 7-row ragged tail, split 3 ways
    let data = {
        let mut rng = StdRng::seed_from_u64(41);
        synth::linear_dataset(&mut rng, rows, 3, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(0.9).build();
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8).with_round(7);
    let plan = coordinator.plan(rows, 3).unwrap();

    let mut coord_ends = Vec::new();
    let mut client_ends = Vec::new();
    for _ in 0..3 {
        let (a, b) = InMemoryTransport::pair();
        coord_ends.push(a);
        client_ends.push(Some(b));
    }
    // Client 1 is gone before it ever uploads.
    client_ends[1] = None;

    let session = SharedPrivacySession::new();
    let policy = QuorumPolicy::new(2, Duration::from_secs(5));
    let ((released, report), reassignments) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in [0usize, 2] {
            let share = plan.shares[i];
            let shard = slice_dataset(&data, share.start_row, share.rows);
            let estimator = &estimator;
            let mut transport = client_ends[i].take().unwrap();
            handles.push((
                i,
                scope.spawn(move || {
                    let client =
                        FederatedClient::with_chunk_rows(estimator, format!("site-{i}"), 8)
                            .with_round(7);
                    client.participate(
                        &mut transport,
                        &share,
                        || InMemorySource::new(&shard),
                        &RetryPolicy::default(),
                    )
                }),
            ));
        }
        let mut rng = StdRng::seed_from_u64(4242);
        let out = coordinator
            .run_round_with_quorum(&mut coord_ends, &policy, &session, "study", &mut rng)
            .unwrap();
        let reassignments: Vec<(usize, usize)> = handles
            .into_iter()
            .map(|(i, h)| (i, h.join().unwrap().unwrap()))
            .collect();
        (out, reassignments)
    });

    // Client 0's grid position never moved; client 2 re-contributed once
    // to close the hole.
    assert_eq!(reassignments, vec![(0, 0), (2, 1)]);
    assert_eq!(report.survivors, vec!["site-0", "site-2"]);
    assert_eq!(report.dropped, vec![1]);
    assert_eq!(report.recovery_subrounds, 1);
    assert_eq!(report.deduped_frames, 0);

    // Bit-identity: the salvaged model equals a streaming fit over the
    // survivors' pooled rows on the same chunk grid at the same seed.
    let survivors = concat_slices(
        &data,
        &[
            (plan.shares[0].start_row, plan.shares[0].rows),
            (plan.shares[2].start_row, plan.shares[2].rows),
        ],
    );
    let mut direct = estimator.partial_fit().chunk_rows(8);
    direct.absorb(&mut InMemorySource::new(&survivors)).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let reference = direct.finalize(&mut rng).unwrap();
    assert_eq!(
        released, reference,
        "salvage must replay a fresh survivor round bit for bit"
    );

    // One parallel debit over the survivors — the dropped client costs
    // nothing and the tenant pays max ε once.
    assert_eq!(session.spent_for("study"), (0.9, 0.0));
    assert_eq!(session.spent_epsilon(), 0.9);
}

/// The same dropout **without** a quorum policy refuses the whole round
/// with a typed error and debits nothing — all-or-nothing stays the
/// default contract.
#[test]
fn dropout_without_quorum_policy_refuses_cleanly() {
    let rows = 199;
    let data = {
        let mut rng = StdRng::seed_from_u64(41);
        synth::linear_dataset(&mut rng, rows, 3, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(0.9).build();
    let coordinator = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8);
    let plan = coordinator.plan(rows, 3).unwrap();

    let mut coord_ends = Vec::new();
    for (i, share) in plan.shares.iter().enumerate() {
        let (mut tx, rx) = InMemoryTransport::pair();
        if i != 1 {
            let client = FederatedClient::with_chunk_rows(&estimator, format!("site-{i}"), 8);
            let shard = slice_dataset(&data, share.start_row, share.rows);
            let upload = client
                .contribute_clean(&mut InMemorySource::new(&shard), share)
                .unwrap();
            client.upload(&mut tx, &upload).unwrap();
        }
        // Client 1 hangs up without uploading.
        drop(tx);
        coord_ends.push(rx);
    }

    let session = SharedPrivacySession::new();
    let mut rng = StdRng::seed_from_u64(4242);
    let err = coordinator
        .run_round(&mut coord_ends, &session, "study", &mut rng)
        .unwrap_err();
    assert!(
        matches!(err, FederatedError::Disconnected { op: "recv" }),
        "{err}"
    );
    assert_eq!(
        session.spent_epsilon(),
        0.0,
        "a refused round costs nothing"
    );
}

/// A local-noise round: every client perturbs before upload, the
/// coordinator post-processes to a finite model, and the tenant's debit
/// is identical to the central round's (same ε, same parallel scope).
#[test]
fn local_noise_round_releases_finite_model_with_same_debit() {
    let rows = 600;
    let data = {
        let mut rng = StdRng::seed_from_u64(31);
        synth::linear_dataset(&mut rng, rows, 3, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(2.0).build();
    let coordinator = Coordinator::new(&estimator, NoiseMode::Local);

    let mut coord_ends = Vec::new();
    for (i, (start, share_rows)) in [(0, rows / 2), (rows / 2, rows - rows / 2)]
        .into_iter()
        .enumerate()
    {
        let client = FederatedClient::new(&estimator, format!("phone-{i}"));
        // Local mode never needs the chunk grid — the whole shard is one
        // noisy contribution, so any row split works.
        let shard = slice_dataset(&data, start, share_rows);
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let upload = client
            .contribute_noisy(&mut InMemorySource::new(&shard), &mut rng)
            .unwrap();
        let (mut tx, rx) = InMemoryTransport::pair();
        client.upload(&mut tx, &upload).unwrap();
        coord_ends.push(rx);
    }
    let session = SharedPrivacySession::new();
    let mut rng = StdRng::seed_from_u64(1);
    let model = coordinator
        .run_round(&mut coord_ends, &session, "fleet", &mut rng)
        .unwrap();
    assert!(model.weights().iter().all(|w| w.is_finite()));
    assert_eq!(session.spent_for("fleet"), (2.0, 0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The codec round-trips real accumulator state bit-exactly for
    /// arbitrary shard geometry: decode(encode(u)) re-encodes to the
    /// identical byte string, for every client of a random plan.
    #[test]
    fn wire_round_trip_is_bit_identical(
        rows in 1usize..400,
        d in 1usize..5,
        clients in 1usize..4,
        chunk_rows in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let data = {
            let mut rng = StdRng::seed_from_u64(seed);
            synth::linear_dataset(&mut rng, rows, d, 0.1)
        };
        let estimator = DpLinearRegression::builder().epsilon(1.0).build();
        let coordinator =
            Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, chunk_rows);
        let plan = coordinator.plan(rows, clients).unwrap();
        for (i, share) in plan.shares.iter().enumerate() {
            let shard = slice_dataset(&data, share.start_row, share.rows);
            let upload = FederatedClient::with_chunk_rows(&estimator, format!("p{i}"), chunk_rows)
                .contribute_clean(&mut InMemorySource::new(&shard), share)
                .unwrap();
            let text = upload.encode();
            let decoded: AccumUpload = AccumUpload::decode(&text).unwrap();
            prop_assert_eq!(decoded.encode(), text);
        }
    }

    /// Salvage ≡ fresh round, over **arbitrary dropout geometry**: for a
    /// random plan and a random subset of vanished clients, the quorum
    /// round's release is bit-identical to a streaming fit over the
    /// survivors' pooled rows at the same seed, the report names exactly
    /// the dropped transports, and the ledger debits exactly one
    /// parallel composition over the survivors.
    #[test]
    fn dropout_salvage_matches_survivor_fit(
        rows in 16usize..220,
        d in 1usize..4,
        clients in 2usize..5,
        chunk_rows in 2usize..10,
        drop_mask in 0u16..16,
        seed in 0u64..1_000,
    ) {
        let mask = drop_mask & ((1u16 << clients) - 1);
        let dropped_idx: Vec<usize> =
            (0..clients).filter(|i| mask >> i & 1 == 1).collect();
        let survivor_idx: Vec<usize> =
            (0..clients).filter(|i| mask >> i & 1 == 0).collect();
        prop_assume!(!survivor_idx.is_empty());
        let data = {
            let mut rng = StdRng::seed_from_u64(seed);
            synth::linear_dataset(&mut rng, rows, d, 0.1)
        };
        let estimator = DpLinearRegression::builder().epsilon(1.0).build();
        let coordinator =
            Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, chunk_rows)
                .with_round(3);
        let plan = coordinator.plan(rows, clients).unwrap();
        let pooled: Vec<(usize, usize)> = survivor_idx
            .iter()
            .map(|&i| (plan.shares[i].start_row, plan.shares[i].rows))
            .collect();
        prop_assume!(pooled.iter().map(|&(_, r)| r).sum::<usize>() > 0);

        let mut coord_ends = Vec::new();
        let mut client_ends = Vec::new();
        for i in 0..clients {
            let (a, b) = InMemoryTransport::pair();
            coord_ends.push(a);
            // Dropped clients hang up before uploading anything.
            client_ends.push((mask >> i & 1 == 0).then_some(b));
        }

        let session = SharedPrivacySession::new();
        let policy = QuorumPolicy::new(1, Duration::from_secs(5));
        let (released, report) = std::thread::scope(|scope| {
            for &i in &survivor_idx {
                let share = plan.shares[i];
                let shard = slice_dataset(&data, share.start_row, share.rows);
                let estimator = &estimator;
                let mut transport = client_ends[i].take().unwrap();
                scope.spawn(move || {
                    let client =
                        FederatedClient::with_chunk_rows(estimator, format!("c{i}"), chunk_rows)
                            .with_round(3);
                    client
                        .participate(
                            &mut transport,
                            &share,
                            || InMemorySource::new(&shard),
                            &RetryPolicy::default(),
                        )
                        .unwrap();
                });
            }
            let mut rng = StdRng::seed_from_u64(9_000 + seed);
            coordinator
                .run_round_with_quorum(&mut coord_ends, &policy, &session, "t", &mut rng)
                .unwrap()
        });

        prop_assert_eq!(report.dropped, dropped_idx);
        let labels: Vec<String> = survivor_idx.iter().map(|i| format!("c{i}")).collect();
        prop_assert_eq!(report.survivors, labels);
        prop_assert_eq!(session.spent_for("t"), (1.0, 0.0));

        let survivors = concat_slices(&data, &pooled);
        let mut direct = estimator.partial_fit().chunk_rows(chunk_rows);
        direct.absorb(&mut InMemorySource::new(&survivors)).unwrap();
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let reference = direct.finalize(&mut rng).unwrap();
        prop_assert_eq!(released, reference);
    }

    /// Crash-sweep: every strict byte prefix of a valid payload is
    /// refused — a torn upload can never decode, and never panics.
    #[test]
    fn every_byte_prefix_of_a_payload_is_refused(
        rows in 1usize..40,
        d in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let data = {
            let mut rng = StdRng::seed_from_u64(seed);
            synth::linear_dataset(&mut rng, rows, d, 0.1)
        };
        let estimator = DpLinearRegression::builder().epsilon(1.0).build();
        let plan = Coordinator::with_chunk_rows(&estimator, NoiseMode::Central, 8)
            .plan(rows, 1)
            .unwrap();
        let text = FederatedClient::with_chunk_rows(&estimator, "p", 8)
            .contribute_clean(&mut InMemorySource::new(&data), &plan.shares[0])
            .unwrap()
            .encode();
        for cut in 0..text.len() {
            let prefix = &text[..cut];
            prop_assert!(
                AccumUpload::<functional_mechanism::poly::QuadraticForm>::decode(prefix).is_err(),
                "prefix of {cut}/{} bytes decoded",
                text.len()
            );
        }
    }
}
