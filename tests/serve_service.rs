//! fm-serve integration suite: the service's three load-bearing promises.
//!
//! 1. **Bounded ingestion** — a full block queue rejects (`try_send`) or
//!    blocks (`send`) the producer; memory never grows unboundedly.
//! 2. **Checkpointing shutdown** — killing the service mid-stream
//!    suspends the fit; a restarted service over the same WAL finishes it
//!    **bit-identical** to the uninterrupted direct fit, with ε debited
//!    exactly once across the whole interruption.
//! 3. **Compaction under load** — background WAL compaction never runs
//!    while a checkpointed reservation dangles, and the deferred
//!    compaction after resume keeps the accounting intact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use functional_mechanism::data::queue::SendRejected;
use functional_mechanism::data::stream::RowSource;
use functional_mechanism::data::synth::linear_dataset;
use functional_mechanism::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_wal(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fm_serve_test_{}_{tag}.wal", std::process::id()))
}

/// Streams `data` through `sender` in `block_rows`-sized blocks.
fn send_all(
    data: &Dataset,
    block_rows: usize,
    sender: &functional_mechanism::data::queue::BlockSender,
) {
    let mut source = InMemorySource::new(data);
    while let Some(block) = source.next_block(block_rows).unwrap() {
        sender.send(block).unwrap();
    }
}

#[test]
fn full_queue_rejects_try_send_and_blocks_send_until_drained() {
    let path = temp_wal("backpressure");
    let _ = std::fs::remove_file(&path);
    let (session, _) = SharedPrivacySession::with_wal(&path, None).unwrap();
    let session = Arc::new(session);
    // One worker, one-block queues: job A occupies the worker, so job B's
    // queue is admitted but never drained.
    let service = FitService::new(
        Arc::clone(&session),
        ServeConfig::new().workers(1).queue_blocks(1),
    );
    // Large ε: this test is about queue mechanics, so keep the noise far
    // from the degenerate-spectrum regime of a 2-row fit.
    let est = || DpLinearRegression::builder().epsilon(100.0).build();
    let block = |i: usize| {
        let x = 0.2 + 0.3 * i as f64;
        RowBlock::new(vec![x], vec![0.5 * x], 1).unwrap()
    };

    let (handle_a, sender_a) = service
        .submit(est(), FitRequest::new("t0", "occupier", 1))
        .unwrap();
    let (handle_b, sender_b) = service
        .submit(est(), FitRequest::new("t1", "starved", 1))
        .unwrap();
    // Give the single worker a moment to claim job A.
    std::thread::sleep(Duration::from_millis(50));

    // B's queue holds exactly one block; the second is rejected — and the
    // rejected block comes back, nothing is silently dropped.
    sender_b.send(block(0)).unwrap();
    match sender_b.try_send(block(1)) {
        Err(SendRejected::Full(returned)) => assert_eq!(returned.rows(), 1),
        other => panic!("expected Full rejection, got {other:?}"),
    }

    // A blocking send parks the producer instead of buffering.
    let unblocked = Arc::new(AtomicBool::new(false));
    let producer = {
        let sender_b = sender_b.clone();
        let unblocked = Arc::clone(&unblocked);
        std::thread::spawn(move || {
            sender_b.send(block(2)).unwrap();
            unblocked.store(true, Ordering::Release);
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !unblocked.load(Ordering::Acquire),
        "send into a full queue of an unscheduled job must block"
    );

    // Finishing A frees the worker: it drains B's queue, unblocking the
    // producer. A saw zero rows, so its reservation is refunded.
    sender_a.finish();
    assert!(matches!(handle_a.wait().unwrap(), FitOutcome::Cancelled));
    producer.join().unwrap();
    assert!(unblocked.load(Ordering::Acquire));
    drop(sender_b);
    assert!(matches!(handle_b.wait().unwrap(), FitOutcome::Released(_)));

    // Exactly one ε = 100 release was committed (A refunded).
    assert!((session.spent_epsilon() - 100.0).abs() < 1e-12);
    drop(service);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resample_with_gaussian_noise_is_refunded_before_any_row_is_scanned() {
    // Admission debits the tenant, then the worker refuses the unsound
    // Lemma-5 + Gaussian configuration at the first block: no row was
    // scanned, so the reservation is refunded, not committed.
    let path = temp_wal("resample_gauss");
    let _ = std::fs::remove_file(&path);
    let (session, _) = SharedPrivacySession::with_wal(&path, None).unwrap();
    let session = Arc::new(session);
    let service = FitService::new(Arc::clone(&session), ServeConfig::new().workers(1));
    let before = session.spent_for("t0");
    let est = DpLinearRegression::builder()
        .epsilon(0.5)
        .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
        .strategy(Strategy::Resample { max_attempts: 4 })
        .build();
    let data = linear_dataset(&mut StdRng::seed_from_u64(7), 64, 2, 0.1);
    let (handle, sender) = service
        .submit(est, FitRequest::new("t0", "unsound", 2))
        .unwrap();
    send_all(&data, 64, &sender);
    drop(sender);
    assert!(matches!(
        handle.wait(),
        Err(ServeError::Fm(FmError::InvalidConfig { .. }))
    ));
    assert_eq!(session.spent_for("t0"), before);
    drop(service);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_mid_fit_resumes_bit_identical_on_a_restarted_service() {
    let path = temp_wal("restart");
    let _ = std::fs::remove_file(&path);
    let mut r = StdRng::seed_from_u64(71);
    let data = linear_dataset(&mut r, 300, 2, 0.1);
    let est = || DpLinearRegression::builder().epsilon(0.5).build();

    // Incarnation 1: feed the first half in odd-sized blocks, then shut
    // down with the producer still live.
    let suspended = {
        let (session, _) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
        let session = Arc::new(session);
        let service = FitService::new(Arc::clone(&session), ServeConfig::new().workers(1));
        let (handle, sender) = service
            .submit(est(), FitRequest::new("census", "resumable", 2).seed(77))
            .unwrap();
        let first = data.subset(&(0..150).collect::<Vec<_>>()).unwrap();
        send_all(&first, 64, &sender);

        let mut suspended = service.shutdown();
        assert_eq!(suspended.len(), 1, "the in-flight fit must be checkpointed");
        let suspended = suspended.pop().unwrap();
        assert!(matches!(handle.wait().unwrap(), FitOutcome::Suspended(_)));
        assert_eq!(
            suspended.rows, 150,
            "every queued block is absorbed before suspending"
        );
        // ε was debited at admission and survives the shutdown un-refunded.
        assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
        assert_eq!(session.dangling_reservations(), 1);
        drop(sender);
        suspended
    };

    // Incarnation 2: recovery seals the dangling reservation as spent;
    // resume re-attaches it with no second debit.
    let (session, report) = SharedPrivacySession::with_wal(&path, Some(1.0)).unwrap();
    assert_eq!(report.sealed_dangling, 1);
    let session = Arc::new(session);
    assert!((session.spent_epsilon() - 0.5).abs() < 1e-12);
    let service = FitService::new(Arc::clone(&session), ServeConfig::new().workers(1));
    let rows_done = suspended.rows;
    let (handle, sender) = service.resume(est(), suspended, 77).unwrap();
    assert!(
        (session.spent_epsilon() - 0.5).abs() < 1e-12,
        "resume must not re-debit"
    );
    let rest = data.subset(&(rows_done..300).collect::<Vec<_>>()).unwrap();
    send_all(&rest, 64, &sender);
    sender.finish();
    let model = match handle.wait().unwrap() {
        FitOutcome::Released(model) => model,
        other => panic!("expected a release, got {other:?}"),
    };
    assert!(
        (session.spent_epsilon() - 0.5).abs() < 1e-12,
        "debited exactly once"
    );
    assert_eq!(session.dangling_reservations(), 0);
    drop(service);

    // The interrupted, re-served fit releases the uninterrupted direct
    // fit's exact bits.
    let est = est();
    let mut direct = est.partial_fit();
    direct.absorb(&mut InMemorySource::new(&data)).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    assert_eq!(model, direct.finalize(&mut rng).unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compaction_under_load_waits_for_dangling_reservations() {
    let path = temp_wal("compaction");
    let _ = std::fs::remove_file(&path);
    let mut r = StdRng::seed_from_u64(72);
    let data = linear_dataset(&mut r, 200, 2, 0.1);
    let est = || DpLinearRegression::builder().epsilon(0.05).build();
    let aggressive = CompactionPolicy::default().settled_records(1).file_bytes(1);

    let (session, _) = SharedPrivacySession::with_wal(&path, None).unwrap();
    let session = Arc::new(session);

    // Suspend one fit so its reservation dangles.
    let service = FitService::new(
        Arc::clone(&session),
        ServeConfig::new().workers(1).compaction(aggressive),
    );
    let (handle, sender) = service
        .submit(est(), FitRequest::new("sleeper", "parked", 2).seed(5))
        .unwrap();
    send_all(
        &data.subset(&(0..100).collect::<Vec<_>>()).unwrap(),
        32,
        &sender,
    );
    let suspended = service.shutdown().pop().unwrap();
    assert!(matches!(handle.wait().unwrap(), FitOutcome::Suspended(_)));
    drop(sender);
    assert_eq!(session.dangling_reservations(), 1);

    // A second service hammers commits; every one offers the overdue
    // policy a compaction, and every one must be refused.
    let service = FitService::new(
        Arc::clone(&session),
        ServeConfig::new().workers(2).compaction(aggressive),
    );
    for fit in 0..3 {
        let (handle, sender) = service
            .submit(
                est(),
                FitRequest::new("busy", format!("fit-{fit}"), 2).seed(fit as u64),
            )
            .unwrap();
        send_all(&data, 64, &sender);
        sender.finish();
        assert!(matches!(handle.wait().unwrap(), FitOutcome::Released(_)));
    }
    let stats = session.wal_stats().unwrap();
    assert!(
        stats.settled_records >= 3,
        "settled garbage must pile up while the reservation dangles (got {})",
        stats.settled_records
    );
    assert_eq!(
        session.dangling_reservations(),
        1,
        "the parked reservation survives the load"
    );
    let spent_before = session.spent_epsilon();

    // Resuming and committing the parked fit clears the dangle; the very
    // same commit's compaction offer now goes through — with the ledger
    // totals intact.
    let rows_done = suspended.rows;
    let (handle, sender) = service.resume(est(), suspended, 5).unwrap();
    send_all(
        &data.subset(&(rows_done..200).collect::<Vec<_>>()).unwrap(),
        32,
        &sender,
    );
    sender.finish();
    let model = match handle.wait().unwrap() {
        FitOutcome::Released(model) => model,
        other => panic!("expected a release, got {other:?}"),
    };
    assert_eq!(
        session.wal_stats().unwrap().settled_records,
        0,
        "deferred compaction ran"
    );
    assert_eq!(session.dangling_reservations(), 0);
    assert!(
        (session.spent_epsilon() - spent_before).abs() < 1e-12,
        "resume + compaction must not change spending"
    );

    // And the parked fit still released the direct fit's exact bits.
    let est = est();
    let mut direct = est.partial_fit();
    direct.absorb(&mut InMemorySource::new(&data)).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    assert_eq!(model, direct.finalize(&mut rng).unwrap());
    drop(service);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rdp_admission_outlives_the_naive_cap() {
    // A moments-accountant session admits a many-release Gaussian
    // workload far past the naive Σε cap, while the converted ε stays
    // inside it: with cap = 1.0 and ε = 0.1 per fit, naive admission
    // refuses at fit 11, but the RDP conversion of 20 such classically
    // calibrated Gaussians at δ = 1e-6 is ≈ 0.45.
    let session = Arc::new(
        SharedPrivacySession::with_cap(1.0)
            .unwrap()
            .admit_by_rdp(1e-6)
            .unwrap(),
    );
    let service = FitService::new(Arc::clone(&session), ServeConfig::new().workers(1));
    let mut r = StdRng::seed_from_u64(7);
    let data = linear_dataset(&mut r, 64, 1, 0.05);
    for i in 0..20u64 {
        // Ridge-only resolution: at ε = 0.1 the Gaussian noise dwarfs a
        // 64-row Gram matrix, and spectral trimming would legitimately
        // reject most draws; this test is about admission, not accuracy.
        let est = DpLinearRegression::builder()
            .epsilon(0.1)
            .noise(NoiseDistribution::Gaussian { delta: 1e-6 })
            .strategy(Strategy::RegularizeOnly)
            .build();
        let (handle, sender) = service
            .submit(est, FitRequest::new("t", format!("fit-{i}"), 1).seed(i))
            .unwrap();
        send_all(&data, 16, &sender);
        sender.finish();
        assert!(matches!(handle.wait().unwrap(), FitOutcome::Released(_)));
    }
    // The naive running total is double the cap — inadmissible under the
    // default Σε criterion — yet the composed moments-accountant ε
    // honours the cap with plenty of room.
    assert!((session.spent_epsilon() - 2.0).abs() < 1e-9);
    let report = session.report(1e-6).unwrap();
    assert_eq!(report.fits, 20);
    assert!(report.rdp.epsilon <= 1.0, "rdp ε = {}", report.rdp.epsilon);
    assert!(report.rdp.epsilon < report.best.0);
    drop(service);
}

#[test]
fn spawn_job_runs_on_the_pool_and_drains_before_shutdown() {
    let path = temp_wal("spawn-job");
    let _ = std::fs::remove_file(&path);
    let (session, _) = SharedPrivacySession::with_wal(&path, None).unwrap();
    let session = Arc::new(session);
    let service = FitService::new(Arc::clone(&session), ServeConfig::new().workers(1));

    // An ad-hoc job shares the workers and can reach the session.
    let ran = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&ran);
    let shared = Arc::clone(service.session());
    let (tx, rx) = std::sync::mpsc::channel();
    service
        .spawn_job(move || {
            flag.store(shared.spent_epsilon() == 0.0, Ordering::Release);
            let _ = tx.send(());
        })
        .unwrap();
    rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(ran.load(Ordering::Acquire));

    // A queued job still runs to completion across shutdown's join.
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    service
        .spawn_job(move || flag.store(true, Ordering::Release))
        .unwrap();
    let suspended = service.shutdown();
    assert!(suspended.is_empty());
    assert!(
        done.load(Ordering::Acquire),
        "shutdown must drain the queue"
    );
    let _ = std::fs::remove_file(&path);
}
