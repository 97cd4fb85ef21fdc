//! `federated_round`: one thread, closed loop. An op is one central-noise
//! round: 8 clients × 16,384 rows at d = 32 run in sequence, each
//! `contribute_clean` then `upload` over an `InMemoryTransport` pair; the
//! coordinator then runs `run_round_with_quorum` (fresh round id per
//! round) against a WAL-less `SharedPrivacySession`.

use std::time::{Duration, Instant};

use fm_core::assembly::CoefficientAccumulator;
use fm_core::linreg::DpLinearRegression;
use fm_core::model::LinearModel;
use fm_core::session::SharedPrivacySession;
use fm_data::stream::InMemorySource;
use fm_data::{synth, Dataset};
use fm_federated::{
    AccumUpload, ClientShare, Coordinator, FederatedClient, InMemoryTransport, NoiseMode,
    QuorumPolicy, RoundReport, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::fit_census::slice;
use super::{Ctx, Outcome, EPSILON, SEEDS};
use crate::heap;
use crate::pipeline::{self, At};
use crate::trace::Tracer;

const CLIENTS: usize = 8;
const ROWS_PER_CLIENT: usize = 16_384;
const SMOKE_ROWS_PER_CLIENT: usize = 4_096;
const D: usize = 32;
const TENANT: &str = "federated";

struct Round {
    model: LinearModel,
    report: RoundReport,
    frames: Vec<String>,
}

/// One full round. With a tracer, every client call and the coordinator
/// run inside spans, and the upload is split into its encode and send.
fn round(
    est: &DpLinearRegression,
    shares: &[ClientShare],
    shards: &[Dataset],
    session: &SharedPrivacySession,
    id: u64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Round, String> {
    let coordinator = Coordinator::new(est, NoiseMode::Central).with_round(id);
    let mut ends = Vec::with_capacity(CLIENTS);
    let mut frames = Vec::new();
    for (i, (share, shard)) in shares.iter().zip(shards).enumerate() {
        let client = FederatedClient::new(est, format!("client-{i}")).with_round(id);
        let (mut tx, rx) = InMemoryTransport::pair();
        match tracer {
            None => {
                let upload = client
                    .contribute_clean(&mut InMemorySource::new(shard), share)
                    .map_err(|e| e.to_string())?;
                client.upload(&mut tx, &upload).map_err(|e| e.to_string())?;
            }
            Some(tr) => {
                let at = At {
                    tracer: tr,
                    op: id,
                    parent: None,
                };
                let upload = at
                    .span("client.contribute", |_| {
                        client.contribute_clean(&mut InMemorySource::new(shard), share)
                    })
                    .map_err(|e| e.to_string())?;
                pipeline::count_assembly(tr, shard.n(), D);
                tr.count("wire.runs", upload.runs.len() as f64);
                let frame = at.span("wire.encode", |_| upload.encode());
                at.span("transport.send", |_| tx.send(frame.as_bytes()))
                    .map_err(|e| e.to_string())?;
                tr.count("wire.bytes", frame.len() as f64);
                tr.count("transport.frames", 1.0);
                frames.push(frame);
            }
        }
        ends.push(rx);
    }
    let policy = QuorumPolicy::new(CLIENTS, Duration::from_secs(30));
    let mut rng = StdRng::seed_from_u64(seed);
    let (model, report) = crate::trace::span(tracer, "coordinator.round", id, None, |_| {
        coordinator.run_round_with_quorum(&mut ends, &policy, session, TENANT, &mut rng)
    })
    .map_err(|e| e.to_string())?;
    Ok(Round {
        model,
        report,
        frames,
    })
}

/// The coordinator's release decomposed: decode every frame, replay the
/// runs on the chunk grid, finish, perturb, solve. Must release the
/// round's bits.
fn replay(
    est: &DpLinearRegression,
    frames: &[String],
    seed: u64,
    tracer: &Tracer,
    op: u64,
) -> Result<LinearModel, String> {
    let at = At {
        tracer,
        op,
        parent: None,
    };
    let uploads = at
        .span("wire.decode", |_| {
            frames
                .iter()
                .map(|f| AccumUpload::decode(f))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    at.span("coordinator.replay", |at| {
        let mut acc = CoefficientAccumulator::new(est.objective(), D);
        for upload in uploads {
            for (rank, part) in upload.runs {
                acc.push_run(rank, part).map_err(|e| e.to_string())?;
            }
            if !upload.staged_ys.is_empty() {
                acc.push_rows(&upload.staged_xs, &upload.staged_ys)
                    .map_err(|e| e.to_string())?;
            }
        }
        let clean = acc.finish().ok_or("the round covered no rows")?;
        pipeline::release(est, &clean, &mut StdRng::seed_from_u64(seed), at)
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let per_client = if ctx.smoke {
        SMOKE_ROWS_PER_CLIENT
    } else {
        ROWS_PER_CLIENT
    };
    let rows = CLIENTS * per_client;
    let mut out = Outcome::default();
    let est = DpLinearRegression::builder().epsilon(EPSILON).build();

    // Set-up: the pooled rows, the round's plan and each client's shard,
    // the single-machine reference at every seed, and one warm-up round.
    let (shares, shards, references, session) = ctx.repeat_setup(&mut out, || {
        let mut rng = StdRng::seed_from_u64(ctx.seed.wrapping_mul(104_729));
        let data = synth::linear_dataset(&mut rng, rows, D, 0.1);
        let plan = Coordinator::new(&est, NoiseMode::Central)
            .plan(rows, CLIENTS)
            .map_err(|e| e.to_string())?;
        let shards = plan
            .shares
            .iter()
            .map(|s| slice(&data, s.start_row, s.start_row + s.rows))
            .collect::<Result<Vec<_>, _>>()?;
        let references = (0..SEEDS)
            .map(|k| est.fit(&data, &mut StdRng::seed_from_u64(ctx.mech_seed(k))))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let session = SharedPrivacySession::new();
        round(
            &est,
            &plan.shares,
            &shards,
            &session,
            0,
            ctx.mech_seed(0),
            None,
        )?;
        Ok((plan.shares, shards, references, session))
    })?;

    let clean_round = |r: &Round, k: u64| {
        r.model == references[(k % SEEDS) as usize]
            && r.report.dropped.is_empty()
            && r.report.recovery_subrounds == 0
            && r.report.survivors.len() == CLIENTS
    };

    let heap = heap::Window::start();
    let samples = ctx.closed_loop(ctx.untraced_seconds(), |k| {
        let t0 = Instant::now();
        let result = round(
            &est,
            &shares,
            &shards,
            &session,
            k + 1,
            ctx.mech_seed(k),
            None,
        );
        let op_s = t0.elapsed().as_secs_f64();
        match result {
            Ok(r) => {
                out.check(clean_round(&r, k), || {
                    format!(
                        "round {k}: not a clean round bit-identical to fit over the pooled rows"
                    )
                });
                Some(op_s)
            }
            Err(e) => {
                out.check(false, || format!("round {k}: {e}"));
                None
            }
        }
    });
    out.peak_heap_mb = heap.stop();
    out.record_ops(&samples, rows, "round_ms");

    if ctx.trace {
        let tracer = Tracer::new();
        let mut traced_ms = Vec::new();
        let mut dedup = 0usize;
        let started = Instant::now();
        let mut op = 0u64;
        while started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
            let id = 1_000_000 + op;
            let t0 = Instant::now();
            let result = round(
                &est,
                &shares,
                &shards,
                &session,
                id,
                ctx.mech_seed(op),
                Some(&tracer),
            );
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(r) => {
                    tracer.count(
                        "coordinator.recovery_subrounds",
                        r.report.recovery_subrounds as f64,
                    );
                    dedup += r.report.deduped_frames;
                    let replayed = replay(&est, &r.frames, ctx.mech_seed(op), &tracer, id)?;
                    out.check(clean_round(&r, op) && replayed == r.model, || {
                        format!("traced round {op}: round, replay and fit releases differ")
                    });
                }
                Err(e) => out.check(false, || format!("traced round {op}: {e}")),
            }
            op += 1;
        }
        out.roll_up(&tracer, op as usize, &traced_ms);
        let frames = tracer.counter("transport.frames");
        out.layers.insert(
            "coordinator.dedup_ratio",
            if frames > 0.0 {
                dedup as f64 / frames
            } else {
                0.0
            },
        );
        super::write_spans(ctx, "federated_round", &tracer)?;
    }
    Ok(out)
}
