//! The four workloads and what they share: run context, outcome record,
//! set-up repetition and the per-layer roll-up of a traced window.

mod federated_round;
mod fit_census;
mod ingest_csv;
mod serve_small_fits;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{self, HostSpeed, Slicer};
use crate::trace::Tracer;

/// The ε every workload's fits run at (the paper's default).
pub const EPSILON: f64 = 0.8;

/// Mechanism seeds rotate over this many values per workload, so each
/// release can be checked against a reference computed once per seed.
pub const SEEDS: u64 = 4;

/// Spans whose self time is coefficient assembly: the in-memory pass, the
/// accumulator's visitor calls and final flush, and a federated client's
/// contribution (its shard's chunk partials, pre-merged into runs).
const ASSEMBLY_SPANS: [&str; 4] = [
    "assembly.assemble",
    "assembly.absorb",
    "assembly.finish",
    "client.contribute",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Seconds of work between two reference ops (see [`Slicer`]): short
/// against the host's speed swings, long against the reference op.
pub const SLICE_S: f64 = 0.25;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory for files the workloads write (CSV, WAL, spans).
    pub work: PathBuf,
    pub host: HostSpeed,
}

impl Ctx {
    /// Seconds of the untraced closed loop: the whole run untraced, half
    /// of it when a traced half follows.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// The mechanism seed of op `k`.
    pub fn mech_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(k % SEEDS)
    }

    /// Runs `build` [`SETUPS`] times (once in the smoke test), timing each
    /// as a slice of its own, and keeps the last state.
    pub fn repeat_setup<T>(
        &self,
        out: &mut Outcome,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let repeats = if self.smoke { 1 } else { SETUPS };
        let mut state = None;
        for _ in 0..repeats {
            drop(state.take());
            let mut slicer = Slicer::new(&self.host);
            let t0 = Instant::now();
            state = Some(build()?);
            let raw = t0.elapsed().as_secs_f64();
            out.setup_raw_s.push(raw);
            out.setup_s.push(raw * slicer.scale());
        }
        Ok(state.expect("at least one set-up ran"))
    }

    /// Runs `op` (given its index) in a closed loop for `seconds`, in
    /// slices of [`SLICE_S`] scaled by the reference op. `op` returns its
    /// measured seconds, or `None` when it failed. Returns each op's
    /// `(measured seconds, scale)`.
    pub fn closed_loop(
        &self,
        seconds: f64,
        mut op: impl FnMut(u64) -> Option<f64>,
    ) -> Vec<(f64, f64)> {
        let mut samples = Vec::new();
        let mut slicer = Slicer::new(&self.host);
        let started = Instant::now();
        let mut k = 0u64;
        while started.elapsed().as_secs_f64() < seconds {
            let slice_started = Instant::now();
            let mut slice = Vec::new();
            while slice_started.elapsed().as_secs_f64() < SLICE_S
                && started.elapsed().as_secs_f64() < seconds
            {
                slice.extend(op(k));
                k += 1;
            }
            let scale = slicer.scale();
            samples.extend(slice.into_iter().map(|s| (s, scale)));
        }
        samples
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Set-up times at nominal host speed, and as measured.
    pub setup_s: Vec<f64>,
    pub setup_raw_s: Vec<f64>,
    /// Untraced op latencies at nominal host speed, and as measured.
    pub op_ms: Vec<f64>,
    pub op_raw_ms: Vec<f64>,
    /// Rows through the ops per second at nominal host speed.
    pub rows_per_s: f64,
    /// Peak heap in use while the untraced loop runs (see [`crate::heap`]).
    pub peak_heap_mb: f64,
    /// Ops (and whole-run checks) attempted, and those that failed or
    /// mismatched their reference.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Workload-specific figures for the human-readable report:
    /// `(name, value, unit, samples)`.
    pub extra: Vec<(String, f64, &'static str, usize)>,
    /// Per-layer metrics of the traced window.
    pub layers: BTreeMap<&'static str, f64>,
    pub traced_ops: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records one checked op or whole-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records the untraced ops, each `(measured seconds, scale)` with
    /// `rows` rows per op, and their human-readable summary.
    pub fn record_ops(&mut self, samples: &[(f64, f64)], rows: usize, latency: &str) {
        self.op_raw_ms = samples.iter().map(|&(s, _)| s * 1e3).collect();
        self.op_ms = samples.iter().map(|&(s, scale)| s * scale * 1e3).collect();
        let scaled: f64 = samples.iter().map(|&(s, scale)| s * scale).sum();
        let raw: f64 = samples.iter().map(|&(s, _)| s).sum();
        let total_rows = (rows * samples.len()) as f64;
        self.rows_per_s = total_rows / scaled;
        self.extra.push((
            "measured_rows_per_s".into(),
            total_rows / raw,
            "rows/s",
            samples.len(),
        ));
        self.record_latency(latency);
    }

    /// Adds the human-readable latency figures: the highest tail with ten
    /// samples beyond it at nominal host speed (its median is
    /// `op_ms_p50`), and median plus tail as measured.
    pub fn record_latency(&mut self, name: &str) {
        if let Some((label, value)) = stats::tail(&self.op_ms) {
            let n = self.op_ms.len();
            self.extra.push((format!("{name}_{label}"), value, "ms", n));
        }
        let raw = self.op_raw_ms.clone();
        self.latency_extra(&format!("measured_{name}"), "ms", &raw);
    }

    /// Adds a human-readable latency summary: median plus the highest tail
    /// with at least ten samples beyond it.
    pub fn latency_extra(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let n = samples.len();
        self.extra
            .push((format!("{name}_p50"), stats::median(samples), unit, n));
        if let Some((label, value)) = stats::tail(samples) {
            self.extra.push((format!("{name}_{label}"), value, unit, n));
        }
    }

    /// Rolls a traced window up into the per-layer metrics: self times
    /// per op for every layer span, the counters, the assembly rate
    /// against the per-core FMA ceiling, and the tracing overhead.
    pub fn roll_up(&mut self, tracer: &Tracer, ops: usize, traced_op_ms: &[f64]) {
        let selfs = tracer.self_seconds();
        let per_op = |names: &[&str]| -> f64 {
            // `0.0 +` turns the empty sum's -0.0 into 0.
            0.0 + names.iter().filter_map(|n| selfs.get(n)).sum::<f64>() / ops.max(1) as f64
        };
        let layers = &mut self.layers;
        for (metric, spans) in [
            ("dataset.validate_s", &["dataset.validate"][..]),
            ("stream.source_s", &["stream.source"]),
            ("stream.prefetch_wait_s", &["stream.prefetch_wait"]),
            ("assembly.busy_s", &ASSEMBLY_SPANS[..]),
            ("mechanism.perturb_s", &["mechanism.perturb"]),
            ("postprocess.solve_s", &["postprocess.solve"]),
            ("session.admit_s", &["session.admit"]),
            ("queue.send_wait_s", &["queue.send"]),
            ("service.settle_s", &["service.settle"]),
            ("client.contribute_s", &["client.contribute"]),
            ("wire.encode_s", &["wire.encode"]),
            ("wire.decode_s", &["wire.decode"]),
            ("transport.send_s", &["transport.send"]),
            ("coordinator.round_s", &["coordinator.round"]),
        ] {
            layers.insert(metric, per_op(spans));
        }
        // A partial fit's two calls are composites (assembly; finish,
        // perturb and solve): report their whole duration.
        for (metric, span) in [
            ("partial_fit.absorb_s", "partial_fit.absorb"),
            ("partial_fit.finalize_s", "partial_fit.finalize"),
        ] {
            layers.insert(metric, tracer.wall_seconds(span) / ops.max(1) as f64);
        }
        for name in [
            "dataset.rows",
            "stream.rows",
            "stream.blocks",
            "stream.csv_bytes",
            "assembly.rows",
            "assembly.chunks",
            "assembly.flops",
            "mechanism.draws",
            "postprocess.solves",
            "session.admits",
            "session.refused",
            "queue.blocks",
            "service.fits",
            "wire.bytes",
            "wire.runs",
            "transport.frames",
            "coordinator.recovery_subrounds",
        ] {
            layers.insert(name, tracer.counter(name));
        }

        // The assembly rate, against the per-core ceiling times the
        // threads assembly may use (so the fraction cannot pass 1).
        let assembly_busy: f64 = ASSEMBLY_SPANS.iter().filter_map(|n| selfs.get(n)).sum();
        let per_core = stats::fma_ceiling_gflops_per_core(0.25);
        let threads = rayon::current_num_threads() as f64;
        let gflops = if assembly_busy > 0.0 {
            tracer.counter("assembly.flops") / assembly_busy / 1e9
        } else {
            0.0
        };
        layers.insert("assembly.gflops_per_s", gflops);
        layers.insert("assembly.threads", threads);
        layers.insert("host.fma_gflops_per_core", per_core);
        layers.insert("assembly.ceiling_frac", gflops / (per_core * threads));

        let untraced = stats::median(&self.op_raw_ms);
        let traced = stats::median(traced_op_ms);
        layers.insert(
            "trace.overhead_frac",
            if untraced > 0.0 {
                traced / untraced - 1.0
            } else {
                0.0
            },
        );
        layers.insert("trace.spans", tracer.spans() as f64);
        layers.insert("trace.ops", ops as f64);
        self.traced_ops = ops;
    }
}

/// Runs the named workload.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = match workload {
        "fit_census" => fit_census::run(ctx),
        "ingest_csv" => ingest_csv::run(ctx),
        "serve_small_fits" => serve_small_fits::run(ctx),
        "federated_round" => federated_round::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }?;
    if let Some(hwm) = crate::heap::vm_hwm_mib() {
        out.extra.push(("measured_vm_hwm_mb".into(), hwm, "MiB", 1));
    }
    Ok(out)
}

/// Writes the traced window's spans next to the workload's other files.
pub fn write_spans(ctx: &Ctx, workload: &str, tracer: &Tracer) -> Result<(), String> {
    let path = ctx.work.join(format!("spans-{workload}-{}.tsv", ctx.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
