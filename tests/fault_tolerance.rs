//! Fault-injection and crash-recovery suite: the durability contracts of
//! the WAL-backed privacy ledger and the checkpointable streaming fits.
//!
//! Two properties are load-bearing and pinned here:
//!
//! 1. **Fail-closed ε accounting.** For *every* byte prefix of a
//!    write-ahead log — i.e. a crash at any point inside any record —
//!    recovery succeeds and the recovered spent ε never under-reports
//!    what the pre-crash process had durably committed. Reservations
//!    that were in flight come back sealed (spent, unabortable).
//! 2. **Bit-identical resume.** A streaming `partial_fit` checkpointed
//!    at any block boundary and resumed in a fresh process state
//!    releases a model bit-identical to the uninterrupted fit at the
//!    same seed.
//!
//! Plus the data-layer fault surface: injected I/O errors, truncation,
//! and malformed rows all surface as typed errors that leave the privacy
//! accounting consistent (abort-before-scan refunds, fail-closed
//! otherwise).

use functional_mechanism::data::synth::linear_dataset;
use functional_mechanism::prelude::Strategy as FitStrategy;
use functional_mechanism::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A unique temp path per test (+ discriminator), cleaned by the caller.
fn temp_wal(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fm-fault-{}-{tag}-{:?}.wal",
        std::process::id(),
        std::thread::current().id()
    ))
}

// ---------------------------------------------------------------------------
// 1. Crash-point sweep over every WAL write boundary
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum WalOp {
    Reserve(f64),
    Commit,
    Abort,
}

/// Replays a scripted op sequence against a fresh WAL, capturing the log
/// bytes and the expected spent ε at every write boundary; then recovers
/// from **every byte prefix** and checks the fail-closed invariant.
fn crash_sweep(ops: &[WalOp]) {
    let path = temp_wal("sweep");
    let _ = std::fs::remove_file(&path);

    // Boundaries: (byte length of the log, expected spent ε, committed ε).
    // `committed` is the never-reclaimable floor — ε whose commit record
    // is durable can never drop out of a recovery, whatever else tears.
    // The (0, 0, 0) entry covers cuts inside the magic header line, where
    // recovery re-initialises a fresh log.
    let mut boundaries: Vec<(usize, f64, f64)> = vec![(0, 0.0, 0.0)];
    let mut ids: Vec<(u64, f64)> = Vec::new(); // open (id, ε), newest last
    {
        let (mut wal, report) = WalLedger::open(&path).expect("fresh open");
        assert!(report.fresh);
        let log_len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len() as usize;
        let mut committed = 0.0f64;
        boundaries.push((log_len(&path), 0.0, 0.0));
        for op in ops {
            match *op {
                WalOp::Reserve(eps) => {
                    let id = wal.reserve("tenant", "fit", eps, 0.0).unwrap();
                    ids.push((id, eps));
                }
                WalOp::Commit => {
                    if let Some((id, eps)) = ids.pop() {
                        wal.commit(id).unwrap();
                        committed += eps;
                    }
                }
                WalOp::Abort => {
                    if let Some((id, _)) = ids.pop() {
                        wal.abort(id).unwrap();
                    }
                }
            }
            boundaries.push((log_len(&path), wal.spent().0, committed));
        }
    }

    let full = std::fs::read(&path).expect("read full log");
    assert_eq!(full.len(), boundaries.last().unwrap().0);

    let crash_path = temp_wal("sweep-crash");
    for cut in 0..=full.len() {
        let _ = std::fs::remove_file(&crash_path);
        std::fs::write(&crash_path, &full[..cut]).unwrap();

        // Recovery must never fail on a pure prefix: a crash mid-append
        // is a torn tail, not corruption.
        let (wal, _report) = WalLedger::open(&crash_path)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}/{}: {e}", full.len()));

        // The last boundary fully contained in the prefix. A cut that
        // keeps a whole record but drops only its trailing newline is
        // legal too (the checksum proves the record complete, so recovery
        // re-terminates it) — then the *next* boundary's state holds.
        let i = boundaries
            .iter()
            .rposition(|&(len, _, _)| len <= cut)
            .expect("the zero-length boundary always matches");
        let (spent, _) = wal.spent();
        let at = boundaries[i].1;
        let reterminated = boundaries
            .get(i + 1)
            .filter(|&&(len, _, _)| cut + 1 == len)
            .map(|&(_, s, _)| s);
        let ok =
            (spent - at).abs() < 1e-12 || reterminated.is_some_and(|s| (spent - s).abs() < 1e-12);
        assert!(
            ok,
            "cut {cut}: recovered spent {spent}, boundary {i} expected {at} \
             (re-terminated: {reterminated:?})"
        );
        // Fail-closed floor: durably committed ε can never be lost.
        let committed_floor = boundaries[i].2;
        assert!(
            spent + 1e-12 >= committed_floor,
            "cut {cut}: recovered spent {spent} under-reports committed {committed_floor}"
        );
        // Dangling reservations come back sealed.
        assert!(wal.open_reservations().all(|r| r.sealed));
        drop(wal);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&crash_path);
}

#[test]
fn crash_point_sweep_never_underreports_spent_epsilon() {
    use WalOp::{Abort, Commit, Reserve};
    crash_sweep(&[
        Reserve(0.25),
        Commit,
        Reserve(0.5),
        Reserve(0.125),
        Abort,
        Commit,
        Reserve(1.0),
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random op sequences: the sweep invariant holds for any history,
    /// not just the scripted one.
    #[test]
    fn crash_point_sweep_holds_for_random_histories(
        script in proptest::collection::vec(0u8..4, 1..8),
    ) {
        let ops: Vec<WalOp> = script
            .iter()
            .enumerate()
            .map(|(i, &b)| match b {
                0 | 3 => WalOp::Reserve(0.0625 * (i + 1) as f64),
                1 => WalOp::Commit,
                _ => WalOp::Abort,
            })
            .collect();
        crash_sweep(&ops);
    }
}

#[test]
fn mid_log_corruption_is_refused_not_repaired() {
    let path = temp_wal("corrupt");
    let _ = std::fs::remove_file(&path);
    {
        let (mut wal, _) = WalLedger::open(&path).unwrap();
        let id = wal.reserve("tenant", "fit", 0.5, 0.0).unwrap();
        wal.commit(id).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte in the *middle* of the log (inside the reserve record,
    // which is not the tail) — this is corruption, not a crash artefact.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        WalLedger::open(&path).is_err(),
        "a checksum failure before the tail must refuse to open"
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// 2. Checkpointed streaming fits resume bit-identical
// ---------------------------------------------------------------------------

/// Feeds a seeded dataset into a partial fit in `block`-row pushes,
/// interrupting with a checkpoint/resume round-trip after `kill_after`
/// blocks, and checks the released model against the uninterrupted fit.
fn resume_matches_uninterrupted(n: usize, block: usize, kill_after: usize, seed: u64) {
    let mut r = rng(seed);
    let data = linear_dataset(&mut r, n, 3, 0.1);
    let est = DpLinearRegression::builder().epsilon(1.0).build();

    let reference = {
        let mut fit_rng = rng(seed + 1);
        est.fit(&data, &mut fit_rng).unwrap()
    };

    // Interrupted run: absorb `kill_after` blocks, checkpoint, "crash",
    // resume from the snapshot text alone, absorb the rest, finalize.
    let xs = data.x().as_slice();
    let ys = data.y();
    let d = data.d();
    let mut partial = est.partial_fit().with_reservation(7);
    let mut pos = 0usize;
    for _ in 0..kill_after {
        let hi = (pos + block).min(n);
        let blk = RowBlock::new(xs[pos * d..hi * d].to_vec(), ys[pos..hi].to_vec(), d).unwrap();
        partial.push_block(&blk).unwrap();
        pos = hi;
    }
    let snapshot = partial.checkpoint().unwrap();
    drop(partial); // the "crash"

    let mut resumed = est.resume_partial_fit(&snapshot).unwrap();
    assert_eq!(
        resumed.reservation(),
        Some(7),
        "reservation tag must survive"
    );
    assert_eq!(resumed.rows(), pos);
    while pos < n {
        let hi = (pos + block).min(n);
        let blk = RowBlock::new(xs[pos * d..hi * d].to_vec(), ys[pos..hi].to_vec(), d).unwrap();
        resumed.push_block(&blk).unwrap();
        pos = hi;
    }
    let mut fit_rng = rng(seed + 1);
    let model = resumed.finalize(&mut fit_rng).unwrap();
    assert_eq!(
        model, reference,
        "n={n} block={block} kill_after={kill_after}: resumed release must be bit-identical"
    );
}

#[test]
fn checkpointed_linear_fit_resumes_bit_identical() {
    // Kill points landing mid-chunk, ragged blocks, and a stream long
    // enough that the resumed run crosses the default 4096-row chunk
    // boundary (flushing a chunk into the merge tree after resume).
    for (n, block, kill_after) in [
        (500usize, 100usize, 2usize),
        (500, 137, 1),
        (500, 137, 3),
        (4_500, 1_000, 4),
    ] {
        resume_matches_uninterrupted(n, block, kill_after, 9_000 + n as u64);
    }
}

#[test]
fn checkpoint_of_an_empty_fit_is_refused() {
    let est = DpLinearRegression::builder().epsilon(1.0).build();
    let partial = est.partial_fit();
    assert!(matches!(
        partial.checkpoint(),
        Err(FmError::Checkpoint { .. })
    ));
}

#[test]
fn checkpointed_sparse_fit_resumes_bit_identical() {
    let mut r = rng(77);
    let data = linear_dataset(&mut r, 1_500, 2, 0.05);
    let est = SparseFmEstimator::new(
        QuarticObjective,
        FitConfig::new()
            .epsilon(64.0)
            .strategy(FitStrategy::Resample { max_attempts: 8 }),
    );

    let reference = {
        let mut fit_rng = rng(78);
        est.fit(&data, &mut fit_rng).unwrap()
    };

    let mut partial = est.partial_fit();
    let idx: Vec<usize> = (0..data.n()).collect();
    let first = data.subset(&idx[..600]).unwrap();
    let rest = data.subset(&idx[600..]).unwrap();
    partial.absorb(&mut InMemorySource::new(&first)).unwrap();
    let snapshot = partial.checkpoint().unwrap();
    drop(partial);

    let mut resumed = est.resume_partial_fit(&snapshot).unwrap();
    assert_eq!(resumed.reservation(), None);
    resumed.absorb(&mut InMemorySource::new(&rest)).unwrap();
    let mut fit_rng = rng(78);
    let model = resumed.finalize(&mut fit_rng).unwrap();
    assert_eq!(
        model, reference,
        "sparse resumed release must be bit-identical"
    );
}

#[test]
fn corrupted_checkpoints_are_refused() {
    let mut r = rng(55);
    let data = linear_dataset(&mut r, 200, 2, 0.1);
    let est = DpLinearRegression::builder().epsilon(1.0).build();
    let mut partial = est.partial_fit();
    partial.absorb(&mut InMemorySource::new(&data)).unwrap();
    let snapshot = partial.checkpoint().unwrap();

    // Pristine round-trips; any flipped byte or truncation is refused.
    // (The snapshot is pure ASCII, so byte surgery stays valid UTF-8.)
    assert!(est.resume_partial_fit(&snapshot).is_ok());
    for cut in [
        0,
        snapshot.len() / 3,
        snapshot.len() - 2,
        snapshot.len() - 1,
    ] {
        assert!(
            matches!(
                est.resume_partial_fit(&snapshot[..cut]),
                Err(FmError::Checkpoint { .. })
            ),
            "truncation at {cut} accepted"
        );
        let mut evil = snapshot.clone().into_bytes();
        evil[cut] ^= 0x01;
        let evil = String::from_utf8(evil).unwrap();
        assert!(
            est.resume_partial_fit(&evil).is_err(),
            "byte flip at {cut} accepted"
        );
    }
}

#[test]
fn resample_with_gaussian_noise_is_refused_before_any_row_is_read() {
    // Lemma 5 is only sound under pure ε-DP: the dense partial fit must
    // refuse the configuration at its first absorb, not after the scan.
    let mut r = rng(56);
    let data = linear_dataset(&mut r, 200, 2, 0.1);
    let est = DpLinearRegression::builder()
        .epsilon(0.5)
        .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
        .strategy(FitStrategy::Resample { max_attempts: 4 })
        .build();
    let mut partial = est.partial_fit();
    assert!(matches!(
        partial.absorb(&mut InMemorySource::new(&data)),
        Err(FmError::InvalidConfig { .. })
    ));
    assert_eq!(partial.rows(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The bit-identity property at random sizes, block shapes and kill
    /// points — including kill points landing mid-chunk.
    #[test]
    fn resume_bit_identity_holds_for_random_kill_points(
        n in 50usize..400,
        block in 1usize..120,
        kill_frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let blocks_total = n.div_ceil(block);
        let kill_after = ((blocks_total as f64) * kill_frac) as usize;
        prop_assume!(kill_after > 0 && kill_after <= blocks_total);
        resume_matches_uninterrupted(n, block, kill_after, seed);
    }
}

// ---------------------------------------------------------------------------
// 3. Injected data faults × privacy accounting
// ---------------------------------------------------------------------------

#[test]
fn abort_before_scan_refunds_while_later_faults_stay_spent() {
    let path = temp_wal("faults");
    let _ = std::fs::remove_file(&path);
    let (session, _) = SharedPrivacySession::with_wal(&path, Some(2.0)).unwrap();
    let mut r = rng(31);
    let data = linear_dataset(&mut r, 600, 2, 0.1);
    let est = DpLinearRegression::builder().epsilon(0.5).build();

    // Fault before the first block: the fit provably never saw data, so
    // aborting the permit reclaims the budget.
    {
        let permit = session.begin("census", "io-at-0", 0.5, 0.0).unwrap();
        let mut source = FaultInjectingSource::new(InMemorySource::new(&data), Fault::Io, 0);
        let mut partial = est.partial_fit().with_reservation(permit.id());
        let err = partial.absorb(&mut source).unwrap_err();
        assert!(matches!(err, FmError::Data(_)), "{err}");
        permit.abort().unwrap();
    }
    assert!(
        session.spent_epsilon().abs() < 1e-12,
        "pre-scan abort refunds"
    );

    // Fault mid-stream: blocks were already scanned, so the budget is
    // spent whatever became of the fit (fail-closed commit).
    {
        let permit = session.begin("census", "io-at-2", 0.5, 0.0).unwrap();
        let mut source = FaultInjectingSource::new(InMemorySource::new(&data), Fault::Io, 2);
        let mut partial = est
            .partial_fit()
            .chunk_rows(100)
            .with_reservation(permit.id());
        assert!(partial.absorb(&mut source).is_err());
        assert!(source.fired());
        permit.commit().unwrap();
    }
    assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_rows_and_truncation_surface_as_typed_outcomes() {
    let mut r = rng(32);
    let data = linear_dataset(&mut r, 400, 2, 0.1);
    let est = DpLinearRegression::builder().epsilon(1.0).build();

    // Malformed rows (contract-violating features) are refused by
    // validation, not silently absorbed.
    let mut source = FaultInjectingSource::new(InMemorySource::new(&data), Fault::MalformedRows, 1);
    let mut partial = est.partial_fit().chunk_rows(100);
    let err = partial.absorb(&mut source).unwrap_err();
    assert!(matches!(err, FmError::Data(_)), "{err}");

    // Truncation is a silent early EOF: fewer rows, but a well-formed
    // fit. The released model equals a fit over exactly the surviving
    // prefix — truncation can never corrupt accumulation state.
    let mut source = FaultInjectingSource::new(InMemorySource::new(&data), Fault::Truncate, 2);
    let mut partial = est.partial_fit().chunk_rows(100);
    partial.absorb(&mut source).unwrap();
    assert_eq!(partial.rows(), 200, "2 × 100-row blocks before the cut");
    let mut fit_rng = rng(33);
    let truncated_model = partial.finalize(&mut fit_rng).unwrap();

    let idx: Vec<usize> = (0..200).collect();
    let prefix = data.subset(&idx).unwrap();
    let mut partial = est.partial_fit().chunk_rows(100);
    partial.absorb(&mut InMemorySource::new(&prefix)).unwrap();
    let mut fit_rng = rng(33);
    let prefix_model = partial.finalize(&mut fit_rng).unwrap();
    assert_eq!(truncated_model, prefix_model);
}

#[test]
fn checkpoint_resume_with_wal_never_redebits() {
    let path = temp_wal("resume");
    let _ = std::fs::remove_file(&path);
    let mut r = rng(41);
    let data = linear_dataset(&mut r, 300, 2, 0.1);
    let est = DpLinearRegression::builder().epsilon(0.5).build();

    // Session 1: reserve, absorb half, checkpoint (carrying the WAL
    // reservation id), then crash without settling.
    let snapshot;
    {
        let (session, _) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
        let permit = session.begin("census", "resumable", 0.5, 0.0).unwrap();
        let idx: Vec<usize> = (0..150).collect();
        let first = data.subset(&idx).unwrap();
        let mut partial = est.partial_fit().with_reservation(permit.id());
        partial.absorb(&mut InMemorySource::new(&first)).unwrap();
        snapshot = partial.checkpoint().unwrap();
        std::mem::forget(permit); // crash: reservation left dangling
    }

    // Session 2: recovery seals the reservation (still spent), the
    // checkpoint re-attaches to it, and finishing the fit costs nothing
    // new.
    let (session, report) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
    assert_eq!(report.sealed_dangling, 1);
    assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);

    let mut resumed = est.resume_partial_fit(&snapshot).unwrap();
    let id = resumed.reservation().expect("snapshot carries the id");
    let permit = session.resume_reservation(id).unwrap();
    assert!(
        (session.spent_epsilon() - 0.5).abs() < 1e-12,
        "resume must not re-debit"
    );
    let idx: Vec<usize> = (150..300).collect();
    let rest = data.subset(&idx).unwrap();
    resumed.absorb(&mut InMemorySource::new(&rest)).unwrap();
    let mut fit_rng = rng(42);
    let model = resumed.finalize(&mut fit_rng).unwrap();
    permit.commit().unwrap();
    assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);

    // And the release is bit-identical to the uninterrupted fit.
    let mut partial = est.partial_fit();
    partial.absorb(&mut InMemorySource::new(&data)).unwrap();
    let mut fit_rng = rng(42);
    let reference = partial.finalize(&mut fit_rng).unwrap();
    assert_eq!(model, reference);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn detached_permits_resume_in_process_and_block_compaction_until_settled() {
    use functional_mechanism::privacy::wal::CompactionPolicy;
    let path = temp_wal("detach");
    let _ = std::fs::remove_file(&path);
    let mut r = rng(51);
    let data = linear_dataset(&mut r, 300, 2, 0.1);
    let est = DpLinearRegression::builder().epsilon(0.5).build();

    let (session, _) = SharedPrivacySession::with_wal(&path, Some(2.0)).unwrap();
    let session = std::sync::Arc::new(session);
    let aggressive = CompactionPolicy::default().settled_records(1).file_bytes(1);

    // A settled fit leaves garbage; with nothing dangling the policy fires.
    session
        .begin("t0", "warm", 0.25, 0.0)
        .unwrap()
        .commit()
        .unwrap();
    assert_eq!(session.wal_stats().unwrap().settled_records, 1);
    assert!(session.maybe_compact_wal(&aggressive).unwrap());
    assert_eq!(session.wal_stats().unwrap().settled_records, 0);

    // Graceful shutdown: absorb half, checkpoint, detach. The reservation
    // stays open (and spent) but is no longer attached to a live permit.
    let permit = session
        .begin_owned("census", "resumable", 0.5, 0.0)
        .unwrap();
    let first = data.subset(&(0..150).collect::<Vec<_>>()).unwrap();
    let mut partial = est.partial_fit().with_reservation(permit.id());
    partial.absorb(&mut InMemorySource::new(&first)).unwrap();
    let snapshot = partial.checkpoint().unwrap();
    let id = permit.detach();
    assert_eq!(session.dangling_reservations(), 1);
    assert!((session.spent_epsilon() - 0.75).abs() < 1e-12);

    // Compaction must refuse while the checkpointed reservation dangles,
    // even though the policy is overdue again.
    session
        .begin("t0", "warm2", 0.25, 0.0)
        .unwrap()
        .commit()
        .unwrap();
    assert!(!session.maybe_compact_wal(&aggressive).unwrap());
    assert_eq!(session.wal_stats().unwrap().open_reservations, 1);

    // Resume in-process: re-attach without re-debiting, finish, commit.
    let mut resumed = est.resume_partial_fit(&snapshot).unwrap();
    assert_eq!(resumed.reservation(), Some(id));
    let permit = session.resume_reservation_owned(id).unwrap();
    assert_eq!(session.dangling_reservations(), 0);
    assert!(
        (session.spent_epsilon() - 1.0).abs() < 1e-12,
        "resume must not re-debit"
    );
    let rest = data.subset(&(150..300).collect::<Vec<_>>()).unwrap();
    resumed.absorb(&mut InMemorySource::new(&rest)).unwrap();
    let mut fit_rng = rng(52);
    let model = resumed.finalize(&mut fit_rng).unwrap();
    permit.commit().unwrap();
    assert!((session.spent_epsilon() - 1.0).abs() < 1e-12);

    // Nothing dangles any more: the deferred compaction goes through.
    assert!(session.maybe_compact_wal(&aggressive).unwrap());
    let stats = session.wal_stats().unwrap();
    assert_eq!(stats.settled_records, 0);
    assert_eq!(stats.open_reservations, 0);

    // The detach/resume release is bit-identical to the uninterrupted fit.
    let mut partial = est.partial_fit();
    partial.absorb(&mut InMemorySource::new(&data)).unwrap();
    let mut fit_rng = rng(52);
    assert_eq!(model, partial.finalize(&mut fit_rng).unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn age_due_compaction_still_refuses_while_a_reservation_dangles() {
    use functional_mechanism::privacy::wal::CompactionPolicy;
    use std::time::Duration;
    let path = temp_wal("age-dangle");
    let _ = std::fs::remove_file(&path);
    let (session, _) = SharedPrivacySession::with_wal(&path, Some(2.0)).unwrap();
    let session = std::sync::Arc::new(session);
    // Age-only policy: record/byte thresholds can never fire.
    let aged = CompactionPolicy::default()
        .settled_records(usize::MAX)
        .file_bytes(u64::MAX)
        .age(Duration::ZERO);

    // Quiet ledger, zero settled garbage: age alone makes it due.
    session
        .begin("t0", "warm", 0.25, 0.0)
        .unwrap()
        .commit()
        .unwrap();
    assert!(session.maybe_compact_wal(&aged).unwrap());
    assert_eq!(session.wal_stats().unwrap().settled_records, 0);

    // A detached (dangling) reservation must veto even an overdue clock.
    let permit = session
        .begin_owned("census", "resumable", 0.5, 0.0)
        .unwrap();
    let id = permit.detach();
    assert_eq!(session.dangling_reservations(), 1);
    assert!(!session.maybe_compact_wal(&aged).unwrap());

    // Re-attach and settle: the deferred compaction goes through again.
    session
        .resume_reservation_owned(id)
        .unwrap()
        .commit()
        .unwrap();
    assert!(session.maybe_compact_wal(&aged).unwrap());
    let _ = std::fs::remove_file(&path);
}
