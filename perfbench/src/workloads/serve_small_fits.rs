//! `serve_small_fits`: 2 producer threads, closed loop, each keeping 4
//! fits in flight and rotating over 8 tenants of its own (16 in all).
//! Each fit is linear, 4,096 rows × d = 8, fed in 4 blocks of 1,024,
//! through a `FitService` (2 workers, 4-block queues, default compaction)
//! over a fresh uncapped WAL. An op is one fit, from `submit` to
//! `JobHandle::wait` returning.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fm_core::assembly::CoefficientAccumulator;
use fm_core::linreg::DpLinearRegression;
use fm_core::model::LinearModel;
use fm_core::session::SharedPrivacySession;
use fm_core::FmError;
use fm_data::stream::{InMemorySource, RowBlock, RowSource};
use fm_data::{synth, Dataset};
use fm_privacy::wal::CompactionPolicy;
use fm_privacy::PrivacyError;
use fm_serve::{FitOutcome, FitRequest, FitService, JobHandle, ServeConfig, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Ctx, Outcome, EPSILON};
use crate::heap;
use crate::pipeline::{self, At};
use crate::stats::Slicer;
use crate::trace::Tracer;

/// Seconds the producers keep their fits in flight between two reference
/// ops. The reference op must not share the cores with the service, so
/// the producers drain before it; a slice this long keeps the drain a
/// small share of the run (`measured_serve_drain_frac` in the report).
const SLICE_S: f64 = 2.0;
const PRODUCERS: usize = 2;
const TENANTS_PER_PRODUCER: usize = 8;
const IN_FLIGHT: usize = 4;
const ROWS: usize = 4_096;
const D: usize = 8;
const BLOCK_ROWS: usize = 1_024;
const WORKERS: usize = 2;
const QUEUE_BLOCKS: usize = 4;
/// Sequential fits through the fresh service during set-up (four per
/// tenant), enough that one set-up's time is not one fsync's luck.
const WARM_UP_FITS: usize = 64;
/// Fits per producer in the window `peak_heap_mb` is measured over. The
/// session keeps every debit, so the heap grows with the fits settled; a
/// fixed count keeps a faster service from reading as a bigger one.
const HEAP_FITS_PER_PRODUCER: u64 = 1_024;
/// WAL reserve/commit probes in the traced run.
const WAL_PROBES: usize = 200;
/// The ε resolution of `SharedPrivacySession`'s counter.
const EPS_QUANTUM: f64 = 1e-12;

struct Tenant {
    name: String,
    data: Dataset,
    blocks: Vec<RowBlock>,
}

fn tenants(seed: u64) -> Result<Vec<Tenant>, String> {
    (0..PRODUCERS * TENANTS_PER_PRODUCER)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7_919).wrapping_add(t as u64));
            let data = synth::linear_dataset(&mut rng, ROWS, D, 0.1);
            let mut source = InMemorySource::new(&data);
            let mut blocks = Vec::new();
            while let Some(block) = source.next_block(BLOCK_ROWS).map_err(|e| e.to_string())? {
                blocks.push(block);
            }
            Ok(Tenant {
                name: format!("tenant-{t}"),
                data,
                blocks,
            })
        })
        .collect()
}

/// The service, its WAL-backed session, and how many fits it settled
/// during set-up.
struct Served {
    session: Arc<SharedPrivacySession>,
    service: Option<FitService>,
    wal: PathBuf,
    warm_fits: u64,
}

impl Served {
    fn service(&self) -> &FitService {
        self.service.as_ref().expect("service runs until dropped")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        let _ = std::fs::remove_file(&self.wal);
    }
}

fn estimator() -> DpLinearRegression {
    DpLinearRegression::builder().epsilon(EPSILON).build()
}

/// A submitted, not yet settled fit.
struct Job {
    handle: JobHandle<LinearModel>,
    tenant: usize,
    seed: u64,
    op: u64,
    submitted: Instant,
    finished: Instant,
}

/// A settled fit and its timings.
struct Settled {
    tenant: usize,
    seed: u64,
    op: u64,
    model: LinearModel,
    latency_ms: f64,
    admit_us: f64,
}

/// Reads back what the WAL writes during the traced window: the lines
/// appended to the log, and the compactions that rename a rewritten log
/// over it (their lines count too). It keeps the file it reads open, so
/// lines appended just before a compaction are still read from the
/// replaced file.
struct WalTail {
    path: PathBuf,
    file: File,
    ino: u64,
    records: u64,
    compactions: u64,
}

impl WalTail {
    /// Starts at the log's current end: only later lines count.
    fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::End(0))?;
        let ino = file.metadata()?.ino();
        Ok(WalTail {
            path: path.to_path_buf(),
            file,
            ino,
            records: 0,
            compactions: 0,
        })
    }

    /// Counts the lines written since the last poll.
    fn poll(&mut self) -> std::io::Result<()> {
        self.read_lines()?;
        if std::fs::metadata(&self.path)?.ino() != self.ino {
            // The replaced log takes no more appends once the rename is
            // done: read its last lines, then the new log from its start.
            self.read_lines()?;
            self.file = File::open(&self.path)?;
            self.ino = self.file.metadata()?.ino();
            self.compactions += 1;
            self.read_lines()?;
        }
        Ok(())
    }

    fn read_lines(&mut self) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        self.records += bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(())
    }
}

/// Whether a submit failed because admission refused the fit's ε.
fn refused(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Fm(FmError::Privacy(PrivacyError::BudgetExhausted { .. }))
    )
}

/// Submits one fit for `tenant` and feeds its blocks.
fn submit(
    service: &FitService,
    tenants: &[Tenant],
    tenant: usize,
    seed: u64,
    op: u64,
    tracer: Option<&Tracer>,
) -> Result<(Job, f64), String> {
    let t = &tenants[tenant];
    let request = FitRequest::new(t.name.as_str(), format!("fit-{op}"), D).seed(seed);
    let t0 = Instant::now();
    let (handle, sender) = service.submit(estimator(), request).map_err(|e| {
        if let (Some(tr), true) = (tracer, refused(&e)) {
            tr.count("session.refused", 1.0);
        }
        e.to_string()
    })?;
    let t1 = Instant::now();
    for block in &t.blocks {
        sender.send(block.clone()).map_err(|e| e.to_string())?;
    }
    let t2 = Instant::now();
    sender.finish();
    let t3 = Instant::now();
    if let Some(tr) = tracer {
        tr.record("session.admit", op, None, t0, t1);
        tr.record("queue.send", op, None, t1, t2);
        tr.count("session.admits", 1.0);
        tr.count("queue.blocks", t.blocks.len() as f64);
    }
    let job = Job {
        handle,
        tenant,
        seed,
        op,
        submitted: t0,
        finished: t3,
    };
    Ok((job, (t1 - t0).as_secs_f64() * 1e6))
}

/// What one producer, or all of them, did in one window.
#[derive(Default)]
struct Window {
    settled: Vec<Settled>,
    errors: Vec<String>,
    /// Seconds from the window's deadline until its last fit settled.
    drain_s: f64,
    wall_s: f64,
}

/// One producer's closed loop until `deadline` or until it has submitted
/// `limit` fits: keep [`IN_FLIGHT`] fits in flight over its own tenants,
/// then drain.
fn produce(
    ctx: &Ctx,
    served: &Served,
    tenants: &[Tenant],
    producer: usize,
    (deadline, limit): (Instant, u64),
    tracer: Option<&Tracer>,
    wal: Option<&Mutex<WalTail>>,
) -> Window {
    let mut settled = Vec::new();
    let mut errors = Vec::new();
    let mut in_flight: VecDeque<(Job, f64)> = VecDeque::new();
    let mut next = 0u64;
    let mut last_settled = deadline;
    loop {
        if Instant::now() < deadline
            && next < limit
            && in_flight.len() < IN_FLIGHT
            && errors.is_empty()
        {
            let tenant = producer * TENANTS_PER_PRODUCER + next as usize % TENANTS_PER_PRODUCER;
            let op = next * PRODUCERS as u64 + producer as u64;
            match submit(
                served.service(),
                tenants,
                tenant,
                ctx.mech_seed(next),
                op,
                tracer,
            ) {
                Ok(job) => in_flight.push_back(job),
                Err(e) => errors.push(format!("submit {op}: {e}")),
            }
            next += 1;
            continue;
        }
        let Some((job, admit_us)) = in_flight.pop_front() else {
            break;
        };
        let outcome = job.handle.wait();
        let done = Instant::now();
        last_settled = last_settled.max(done);
        if let Some(tr) = tracer {
            tr.record("service.settle", job.op, None, job.finished, done);
            tr.count("service.fits", 1.0);
        }
        if let Some(wal) = wal {
            if let Err(e) = wal.lock().expect("WAL reader poisoned").poll() {
                errors.push(format!("reading the WAL back: {e}"));
            }
        }
        match outcome {
            Ok(FitOutcome::Released(model)) => settled.push(Settled {
                tenant: job.tenant,
                seed: job.seed,
                op: job.op,
                model,
                latency_ms: (done - job.submitted).as_secs_f64() * 1e3,
                admit_us,
            }),
            Ok(other) => errors.push(format!("fit {} did not release: {other:?}", job.op)),
            Err(e) => errors.push(format!("fit {}: {e}", job.op)),
        }
    }
    Window {
        settled,
        errors,
        drain_s: (last_settled - deadline).as_secs_f64(),
        wall_s: 0.0,
    }
}

/// Runs every producer until `seconds` have passed or each has submitted
/// `limit` fits, and all fits drained.
fn window(
    ctx: &Ctx,
    served: &Served,
    tenants: &[Tenant],
    (seconds, limit): (f64, u64),
    tracer: Option<&Tracer>,
    wal: Option<&Mutex<WalTail>>,
) -> Window {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                scope
                    .spawn(move || produce(ctx, served, tenants, p, (deadline, limit), tracer, wal))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
    let mut all = Window {
        wall_s: started.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for w in results {
        all.settled.extend(w.settled);
        all.errors.extend(w.errors);
        all.drain_s = all.drain_s.max(w.drain_s);
    }
    all
}

/// The direct `partial_fit` a served fit must equal, cached per
/// `(tenant, seed)`.
fn reference<'c>(
    cache: &'c mut HashMap<(usize, u64), LinearModel>,
    tenants: &[Tenant],
    tenant: usize,
    seed: u64,
) -> Result<&'c LinearModel, String> {
    match cache.entry((tenant, seed)) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            let est = estimator();
            let mut direct = est.partial_fit();
            direct
                .absorb(&mut InMemorySource::new(&tenants[tenant].data))
                .map_err(|e| e.to_string())?;
            let model = direct
                .finalize(&mut StdRng::seed_from_u64(seed))
                .map_err(|e| e.to_string())?;
            Ok(e.insert(model))
        }
    }
}

/// The served fit's pipeline, decomposed and traced: the accumulator
/// absorbs the tenant's blocks (`partial_fit.absorb`, one
/// `assembly.absorb` per block), then finishes and releases
/// (`partial_fit.finalize`: `assembly.finish`, `mechanism.perturb`,
/// `postprocess.solve`).
fn traced_partial_fit(
    tenant: &Tenant,
    seed: u64,
    tracer: &Tracer,
    op: u64,
) -> Result<LinearModel, String> {
    let est = estimator();
    let root = At {
        tracer,
        op,
        parent: None,
    };
    let mut acc = CoefficientAccumulator::new(est.objective(), D);
    root.span("partial_fit.absorb", |at| {
        tenant.blocks.iter().try_for_each(|b| {
            at.span("assembly.absorb", |_| acc.push_block(b))
                .map_err(|e| e.to_string())
        })
    })?;
    pipeline::count_assembly(tracer, ROWS, D);
    root.span("partial_fit.finalize", |at| {
        let clean = at
            .span("assembly.finish", |_| acc.finish())
            .ok_or("no rows absorbed")?;
        pipeline::release(&est, &clean, &mut StdRng::seed_from_u64(seed), at)
    })
}

/// Mean seconds of `begin` and `commit` on a fresh session.
fn probe_admission(session: &SharedPrivacySession) -> Result<(f64, f64), String> {
    let (mut begin_s, mut commit_s) = (0.0, 0.0);
    for i in 0..WAL_PROBES {
        let t0 = Instant::now();
        let permit = session
            .begin("probe", &format!("probe-{i}"), EPSILON, 0.0)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        permit.commit().map_err(|e| e.to_string())?;
        begin_s += (t1 - t0).as_secs_f64();
        commit_s += t1.elapsed().as_secs_f64();
    }
    Ok((begin_s / WAL_PROBES as f64, commit_s / WAL_PROBES as f64))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wal = ctx.work.join(format!("serve-{}.wal", ctx.seed));

    // Set-up: tenant data, a fresh WAL, the service, and warm-up fits
    // through it.
    let (tenants, served) = ctx.repeat_setup(&mut out, || {
        let tenants = tenants(ctx.seed)?;
        let _ = std::fs::remove_file(&wal);
        let (session, _) = SharedPrivacySession::with_wal(&wal, None).map_err(|e| e.to_string())?;
        let session = Arc::new(session);
        let service = FitService::new(
            Arc::clone(&session),
            ServeConfig::new()
                .workers(WORKERS)
                .queue_blocks(QUEUE_BLOCKS)
                .compaction(CompactionPolicy::default()),
        );
        let mut served = Served {
            session,
            service: Some(service),
            wal: wal.clone(),
            warm_fits: 0,
        };
        for k in 0..WARM_UP_FITS {
            let t = k % tenants.len();
            let (job, _) = submit(
                served.service(),
                &tenants,
                t,
                ctx.mech_seed(k as u64),
                k as u64,
                None,
            )?;
            match job.handle.wait().map_err(|e| e.to_string())? {
                FitOutcome::Released(_) => served.warm_fits += 1,
                other => return Err(format!("warm-up fit did not release: {other:?}")),
            }
        }
        Ok((tenants, served))
    })?;
    // The heap's peak over a fixed number of fits (see
    // `HEAP_FITS_PER_PRODUCER`); a generous deadline only bounds a stall.
    let heap = heap::Window::start();
    let heap_window = window(
        ctx,
        &served,
        &tenants,
        (60.0, HEAP_FITS_PER_PRODUCER),
        None,
        None,
    );
    out.peak_heap_mb = heap.stop();

    // The measured loop, in equal slices of about `SLICE_S`: producers
    // keep their fits in flight for one slice, drain, and the reference
    // op is timed before the next (see `Slicer`).
    let mut slicer = Slicer::new(&ctx.host);
    let slices = (ctx.untraced_seconds() / SLICE_S).ceil().max(1.0);
    let (mut settled, mut errors, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall, mut scaled_wall, mut drain) = (0.0, 0.0, 0.0);
    for _ in 0..slices as usize {
        let slice = window(
            ctx,
            &served,
            &tenants,
            (ctx.untraced_seconds() / slices, u64::MAX),
            None,
            None,
        );
        let scale = slicer.scale();
        samples.extend(slice.settled.iter().map(|s| (s.latency_ms / 1e3, scale)));
        wall += slice.wall_s;
        scaled_wall += slice.wall_s * scale;
        drain += slice.drain_s;
        settled.extend(slice.settled);
        errors.extend(slice.errors);
    }
    out.extra.push((
        "measured_serve_drain_frac".into(),
        drain / wall,
        "ratio",
        slices as usize,
    ));
    let mut fits = served.warm_fits + (heap_window.settled.len() + settled.len()) as u64;
    out.op_raw_ms = samples.iter().map(|&(s, _)| s * 1e3).collect();
    out.op_ms = samples.iter().map(|&(s, scale)| s * scale * 1e3).collect();
    out.rows_per_s = (settled.len() * ROWS) as f64 / scaled_wall;
    out.extra.push((
        "measured_serve_fits_per_s".into(),
        settled.len() as f64 / wall,
        "fits/s",
        settled.len(),
    ));
    out.record_latency("serve_fit_ms");
    let admit: Vec<f64> = settled.iter().map(|s| s.admit_us).collect();
    out.latency_extra("measured_admit_us", "us", &admit);

    // Gates: every served release equals the direct partial_fit at its
    // seed; no fit failed.
    let mut cache = HashMap::new();
    for s in heap_window.settled.iter().chain(&settled) {
        let ok = reference(&mut cache, &tenants, s.tenant, s.seed)? == &s.model;
        out.check(ok, || {
            format!("fit {}: the served release differs from partial_fit", s.op)
        });
    }
    for e in heap_window.errors.into_iter().chain(errors) {
        out.check(false, || e);
    }

    if ctx.trace {
        let tracer = Tracer::new();
        let wal_tail =
            Mutex::new(WalTail::open(&wal).map_err(|e| format!("{}: {e}", wal.display()))?);
        let traced_window = window(
            ctx,
            &served,
            &tenants,
            (ctx.seconds / 2.0, u64::MAX),
            Some(&tracer),
            Some(&wal_tail),
        );
        let (traced, errors) = (traced_window.settled, traced_window.errors);
        let wal_tail = wal_tail.into_inner().expect("WAL reader poisoned");
        fits += traced.len() as u64;
        let traced_ms: Vec<f64> = traced.iter().map(|s| s.latency_ms).collect();
        for s in &traced {
            let direct = traced_partial_fit(&tenants[s.tenant], s.seed, &tracer, s.op)?;
            let ok =
                direct == s.model && reference(&mut cache, &tenants, s.tenant, s.seed)? == &s.model;
            out.check(ok, || {
                format!(
                    "traced fit {}: served, decomposed and direct releases differ",
                    s.op
                )
            });
        }
        for e in errors {
            out.check(false, || e);
        }
        out.roll_up(&tracer, traced.len(), &traced_ms);

        // The WAL's share of admission: `begin` on a WAL-backed session
        // minus `begin` on a WAL-less one.
        let probe_wal = ctx.work.join(format!("probe-{}.wal", ctx.seed));
        let _ = std::fs::remove_file(&probe_wal);
        let (with_wal, _) =
            SharedPrivacySession::with_wal(&probe_wal, None).map_err(|e| e.to_string())?;
        let (wal_begin, wal_commit) = probe_admission(&with_wal)?;
        let (mem_begin, _) = probe_admission(&SharedPrivacySession::new())?;
        drop(with_wal);
        let _ = std::fs::remove_file(&probe_wal);
        let layers = &mut out.layers;
        layers.insert("wal.reserve_s", wal_begin - mem_begin);
        layers.insert("session.commit_s", wal_commit);
        layers.insert("wal.records", wal_tail.records as f64);
        layers.insert(
            "wal.file_bytes",
            served
                .session
                .wal_stats()
                .map_or(0.0, |s| s.file_bytes as f64),
        );
        layers.insert("wal.compactions", wal_tail.compactions as f64);
        super::write_spans(ctx, "serve_small_fits", &tracer)?;
    }

    // Ledger gates: exactly one ε debit per settled fit, and the WAL
    // agrees with the session's counter. The session counts ε in whole
    // quanta of 1e-12, so the expected total is formed the same way and
    // the drift is exactly 0.
    let quanta_per_fit = (EPSILON / EPS_QUANTUM).round() as u64;
    let expected = (fits * quanta_per_fit) as f64 * EPS_QUANTUM;
    let drift = served.session.spent_epsilon() - expected;
    out.check(drift == 0.0, || {
        format!(
            "ledger drift: spent {} for {fits} fits",
            served.session.spent_epsilon()
        )
    });
    out.check(served.session.reconcile_wal().is_ok(), || {
        "reconcile_wal found the WAL and the session apart".to_string()
    });
    if ctx.trace {
        out.layers.insert("session.eps_drift", drift);
    }
    Ok(out)
}
