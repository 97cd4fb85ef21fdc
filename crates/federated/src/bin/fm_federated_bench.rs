//! `fm-federated-bench` — federated-round throughput and the
//! central-vs-local utility gap at equal ε.
//!
//! Plans a `clients`-way chunk-aligned shard split of `rows × d`
//! synthetic rows, runs one **central-noise** round and one
//! **local-noise** round over in-memory transports, and measures:
//!
//! * **bit_identical** — the central round's released model is compared
//!   against a single-machine `fit` over the concatenated rows at the
//!   same seed (the crate's core invariant; the run aborts on mismatch);
//! * **merge throughput** — rows/sec through the coordinator's
//!   validate → debit → replay-runs → release path alone (uploads
//!   already collected);
//! * **client encode throughput** — rows/sec through the client-side
//!   accumulate + pre-merge + `fm-accum v2` encode path;
//! * **central vs local MSE** — prediction error of both modes' models
//!   on the training rows at the same per-client ε, averaged over
//!   several noise draws: the measured utility price of not trusting
//!   the coordinator with exact aggregates;
//! * **fault overhead** — wall time of the same central round through
//!   the quorum path ([`Coordinator::run_round_with_quorum`]): clean,
//!   with every client's first frame torn mid-payload (checksum
//!   refusal, retry and dedup machinery), and with the first client
//!   dropped (a recovery sub-round re-plans the grid onto the
//!   survivors, who re-contribute). Faulted releases are still checked bit-identical
//!   to their fault-free references before timing is reported.
//!
//! [`Coordinator::run_round_with_quorum`]: fm_federated::Coordinator::run_round_with_quorum
//!
//! ```text
//! cargo run --release -p fm-federated --bin fm-federated-bench
//! cargo run --release -p fm-federated --bin fm-federated-bench -- \
//!     --clients 8 --rows 100000 --d 8 --out BENCH_federated.json
//! ```
//!
//! The record is appended to the `--out` JSON array (default
//! `BENCH_federated.json`), creating it when absent.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fm_core::linreg::DpLinearRegression;
use fm_core::session::SharedPrivacySession;
use fm_data::dataset::Dataset;
use fm_data::stream::InMemorySource;
use fm_data::{metrics, synth};
use fm_federated::{
    Coordinator, FaultInjectingTransport, FederatedClient, InMemoryTransport, NoiseMode,
    QuorumPolicy, RetryPolicy, Transport, TransportFault,
};
use fm_linalg::Matrix;

struct Args {
    clients: usize,
    rows: usize,
    d: usize,
    epsilon: f64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 4,
        rows: 40_000,
        d: 8,
        epsilon: 1.0,
        out: "BENCH_federated.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--clients" => args.clients = parse(&value("--clients")?)?,
            "--rows" => args.rows = parse(&value("--rows")?)?,
            "--d" => args.d = parse(&value("--d")?)?,
            "--epsilon" => {
                args.epsilon = value("--epsilon")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad epsilon: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.clients == 0 || args.rows == 0 || args.d == 0 {
        return Err("--clients/--rows/--d must be positive".to_string());
    }
    if !args.epsilon.is_finite() || args.epsilon <= 0.0 {
        return Err("--epsilon must be positive".to_string());
    }
    Ok(args)
}

fn parse(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|e| format!("bad number {s}: {e}"))
}

/// Materializes the contiguous row range `[start, start + rows)` of
/// `data` as its own dataset — one federated client's local shard.
fn slice_dataset(data: &Dataset, start: usize, rows: usize) -> Result<Dataset, String> {
    let d = data.x().cols();
    let mut xs = Vec::with_capacity(rows * d);
    for r in start..start + rows {
        xs.extend_from_slice(data.x().row(r));
    }
    let ys = data.y()[start..start + rows].to_vec();
    let x = Matrix::from_vec(rows, d, xs).map_err(|e| e.to_string())?;
    Dataset::new(x, ys).map_err(|e| e.to_string())
}

fn run(args: &Args) -> Result<String, String> {
    let data = {
        let mut rng = StdRng::seed_from_u64(7_001);
        synth::linear_dataset(&mut rng, args.rows, args.d, 0.1)
    };
    let estimator = DpLinearRegression::builder().epsilon(args.epsilon).build();
    let coordinator = Coordinator::new(&estimator, NoiseMode::Central);
    let plan = coordinator
        .plan(args.rows, args.clients)
        .map_err(|e| e.to_string())?;
    let shards: Vec<Dataset> = plan
        .shares
        .iter()
        .map(|s| slice_dataset(&data, s.start_row, s.rows))
        .collect::<Result<_, _>>()?;

    // Client path: accumulate + pre-merge + encode, timed across all
    // clients (they run sequentially here, so rows/s is per-core).
    let encode_started = Instant::now();
    let mut coord_ends = Vec::with_capacity(args.clients);
    for (i, (share, shard)) in plan.shares.iter().zip(&shards).enumerate() {
        let client = FederatedClient::new(&estimator, format!("client-{i}"));
        let upload = client
            .contribute_clean(&mut InMemorySource::new(shard), share)
            .map_err(|e| e.to_string())?;
        let (mut tx, rx) = InMemoryTransport::pair();
        client.upload(&mut tx, &upload).map_err(|e| e.to_string())?;
        coord_ends.push(rx);
    }
    let encode_wall = encode_started.elapsed().as_secs_f64();
    let encode_rows_per_sec = args.rows as f64 / encode_wall;

    // Coordinator path: collect, then time validate → debit → replay →
    // release alone. The gate: the released model must be bit-identical
    // to a single-machine fit over the concatenated rows at the same
    // seed.
    let session = SharedPrivacySession::new();
    let uploads = coordinator
        .collect(&mut coord_ends)
        .map_err(|e| e.to_string())?;
    let merge_started = Instant::now();
    let mut rng = StdRng::seed_from_u64(42);
    let central = coordinator
        .release(uploads, &session, "bench-central", &mut rng)
        .map_err(|e| e.to_string())?;
    let merge_wall = merge_started.elapsed().as_secs_f64();
    let merge_rows_per_sec = args.rows as f64 / merge_wall;

    let mut rng = StdRng::seed_from_u64(42);
    let reference = estimator.fit(&data, &mut rng).map_err(|e| e.to_string())?;
    if central != reference {
        return Err(
            "central federated release is not bit-identical to the single-machine fit".to_string(),
        );
    }
    let (eps_central, _) = session.spent_for("bench-central");

    // Fault-tolerance overhead: the same central round through the
    // quorum path — clean, with every first frame torn mid-payload, and
    // with the first client dropped into a recovery sub-round.
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let policy = QuorumPolicy::new(1, Duration::from_secs(5)).with_retry(retry);
    let frames: Vec<String> = plan
        .shares
        .iter()
        .zip(&shards)
        .enumerate()
        .map(|(i, (share, shard))| {
            FederatedClient::new(&estimator, format!("client-{i}"))
                .contribute_clean(&mut InMemorySource::new(shard), share)
                .map(|u| u.encode())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let preloaded = |fault: &dyn Fn(&str) -> (TransportFault, usize)| -> Result<
        Vec<FaultInjectingTransport<InMemoryTransport>>,
        String,
    > {
        frames
            .iter()
            .map(|f| {
                let (mut tx, rx) = InMemoryTransport::pair();
                tx.send(f.as_bytes()).map_err(|e| e.to_string())?;
                let (kind, at) = fault(f);
                Ok(FaultInjectingTransport::new(rx, kind, at))
            })
            .collect()
    };

    // (a) Clean round, quorum machinery on: deadlines, fingerprinting,
    // re-plan check — the price of fault tolerance when nothing fails.
    let mut ends = preloaded(&|_| (TransportFault::Drop, usize::MAX))?;
    let quorum_session = SharedPrivacySession::new();
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(42);
    let (quorum_clean, _) = coordinator
        .run_round_with_quorum(
            &mut ends,
            &policy,
            &quorum_session,
            "bench-quorum",
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    let quorum_clean_ms = started.elapsed().as_secs_f64() * 1e3;
    if quorum_clean != reference {
        return Err("clean quorum round is not bit-identical to fit()".to_string());
    }

    // (b) Every client's first frame torn mid-payload: K checksum
    // refusals, K retries served from the intact retransmit.
    let mut ends = preloaded(&|f| (TransportFault::Torn(f.len() / 2), 0))?;
    let torn_session = SharedPrivacySession::new();
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(42);
    let (torn_model, _) = coordinator
        .run_round_with_quorum(&mut ends, &policy, &torn_session, "bench-torn", &mut rng)
        .map_err(|e| e.to_string())?;
    let torn_retry_ms = started.elapsed().as_secs_f64() * 1e3;
    if torn_model != reference {
        return Err("torn-and-retried round is not bit-identical to fit()".to_string());
    }

    // (c) The first client never uploads: every survivor's grid position
    // moves, so the round pays one full recovery sub-round (survivors
    // re-accumulate and re-upload at their new chunk positions).
    let survivor_rows: usize = plan.shares.iter().skip(1).map(|s| s.rows).sum();
    let salvage_session = SharedPrivacySession::new();
    let started = Instant::now();
    let (salvage_model, salvage_report) = std::thread::scope(|scope| {
        let mut ends = Vec::with_capacity(args.clients);
        for (i, share) in plan.shares.iter().enumerate() {
            let (tx, rx) = InMemoryTransport::pair();
            ends.push(FaultInjectingTransport::new(
                rx,
                TransportFault::Drop,
                usize::MAX,
            ));
            if i == 0 {
                continue; // client 0 hangs up without uploading
            }
            let estimator = &estimator;
            let shard = &shards[i];
            let share = *share;
            let mut tx = tx;
            scope.spawn(move || {
                FederatedClient::new(estimator, format!("client-{i}"))
                    .participate(
                        &mut tx,
                        &share,
                        || InMemorySource::new(shard),
                        &RetryPolicy::default(),
                    )
                    .expect("survivor participation failed");
            });
        }
        let mut rng = StdRng::seed_from_u64(44);
        coordinator
            .run_round_with_quorum(
                &mut ends,
                &policy,
                &salvage_session,
                "bench-salvage",
                &mut rng,
            )
            .map_err(|e| e.to_string())
    })?;
    let salvage_ms = started.elapsed().as_secs_f64() * 1e3;
    let survivor_pool = slice_dataset(&data, plan.shares[1].start_row, survivor_rows)?;
    let mut rng = StdRng::seed_from_u64(44);
    let salvage_reference = estimator
        .fit(&survivor_pool, &mut rng)
        .map_err(|e| e.to_string())?;
    if salvage_model != salvage_reference {
        return Err("salvaged round is not bit-identical to a fresh survivor fit".to_string());
    }
    let recovery_subrounds = salvage_report.recovery_subrounds;

    // Utility comparison at equal per-client ε, averaged over noise
    // draws (a single release is one sample of the noise — the modes
    // only separate in expectation). Central draws are taken from `fit`,
    // which the gate above just proved identical to a central round.
    const UTILITY_REPEATS: u64 = 5;
    let mut mse_central = 0.0;
    let mut mse_local = 0.0;
    let mut eps_local = 0.0;
    let local_coordinator = Coordinator::new(&estimator, NoiseMode::Local);
    for repeat in 0..UTILITY_REPEATS {
        let mut rng = StdRng::seed_from_u64(50 + repeat);
        let central = estimator.fit(&data, &mut rng).map_err(|e| e.to_string())?;
        mse_central += metrics::mse(&central.predict_batch(data.x()), data.y());

        // Local-noise round: every client perturbs before upload; the
        // coordinator only post-processes.
        let mut coord_ends = Vec::with_capacity(args.clients);
        for (i, shard) in shards.iter().enumerate() {
            let client = FederatedClient::new(&estimator, format!("client-{i}"));
            let mut client_rng = StdRng::seed_from_u64(9_000 + repeat * 100 + i as u64);
            let upload = client
                .contribute_noisy(&mut InMemorySource::new(shard), &mut client_rng)
                .map_err(|e| e.to_string())?;
            let (mut tx, rx) = InMemoryTransport::pair();
            client.upload(&mut tx, &upload).map_err(|e| e.to_string())?;
            coord_ends.push(rx);
        }
        let mut rng = StdRng::seed_from_u64(43);
        let local = local_coordinator
            .run_round(
                &mut coord_ends,
                &session,
                &format!("bench-local-{repeat}"),
                &mut rng,
            )
            .map_err(|e| e.to_string())?;
        mse_local += metrics::mse(&local.predict_batch(data.x()), data.y());
        eps_local = session.spent_for(&format!("bench-local-{repeat}")).0;
    }
    let mse_central = mse_central / UTILITY_REPEATS as f64;
    let mse_local = mse_local / UTILITY_REPEATS as f64;

    eprintln!(
        "{} clients x {} rows (d = {}): client encode {encode_rows_per_sec:.0} rows/s, \
         coordinator merge+release {merge_rows_per_sec:.0} rows/s; bit-identical to fit(); \
         quorum round clean {quorum_clean_ms:.1} ms, torn+retry {torn_retry_ms:.1} ms, \
         dropout salvage {salvage_ms:.1} ms ({recovery_subrounds} recovery sub-round(s)); \
         MSE central {mse_central:.5} vs local {mse_local:.5} at eps {} per client \
         (tenant debit: central {eps_central}, local {eps_local})",
        args.clients, args.rows, args.d, args.epsilon,
    );
    Ok(format!(
        "{{\n  \"run\": \"pr10-federated-faults\",\n  \"note\": \"K-client federated rounds over \
         in-memory transports: clean contributions pre-merged as aligned dyadic runs, \
         fm-accum v2 encode/decode, coordinator replay on the shared chunk grid; the central \
         release is checked bit-identical to a single-machine fit at the same seed before \
         measuring; quorum timings run the same round through run_round_with_quorum — clean, \
         with every first frame torn mid-payload (checksum refusal + retry), and with client 0 \
         dropped (survivors re-contribute in one recovery sub-round, threads included in the \
         wall time) — each faulted release re-checked bit-identical to its fault-free \
         reference; MSE is averaged over {UTILITY_REPEATS} noise draws per mode — the \
         local-noise rounds at the same per-client eps show the utility price of an \
         untrusted coordinator\",\n  \
         \"clients\": {},\n  \"rows\": {},\n  \"d\": {},\n  \"epsilon\": {},\n  \
         \"parallel_feature\": {},\n  \"results\": {{\"client_encode_rows_per_sec\": \
         {encode_rows_per_sec:.0}, \"coordinator_merge_rows_per_sec\": {merge_rows_per_sec:.0}, \
         \"quorum_clean_round_ms\": {quorum_clean_ms:.2}, \"torn_retry_round_ms\": \
         {torn_retry_ms:.2}, \"dropout_salvage_round_ms\": {salvage_ms:.2}, \
         \"salvage_recovery_subrounds\": {recovery_subrounds}, \
         \"mse_central\": {mse_central:.6}, \"mse_local\": {mse_local:.6}, \
         \"eps_debited_central\": {eps_central}, \"eps_debited_local\": {eps_local}, \
         \"bit_identical\": true}}\n}}",
        args.clients,
        args.rows,
        args.d,
        args.epsilon,
        cfg!(feature = "parallel"),
    ))
}

/// Appends `record` to the JSON array at `path`, creating it when absent.
fn append_record(path: &str, record: &str) -> Result<(), String> {
    let indented = record
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n");
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let Some(head) = trimmed.strip_suffix(']') else {
                return Err(format!("{path} is not a JSON array"));
            };
            let head = head.trim_end().trim_end_matches(',');
            let sep = if head.ends_with('[') { "" } else { "," };
            format!("{head}{sep}\n{indented}\n]\n")
        }
        Err(_) => format!("[\n{indented}\n]\n"),
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fm-federated-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args).and_then(|record| append_record(&args.out, &record)) {
        Ok(()) => {
            eprintln!("appended run record to {}", args.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fm-federated-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
