//! `ingest_csv`: one caller, closed loop. Each op is one linear
//! `fit_stream` over `PrefetchSource(CsvStreamSource)` of a 370,000 × 13
//! census CSV written during set-up (4,096-row blocks, depth 2, file warm
//! in page cache). The in-memory dataset is dropped after set-up, so the
//! measured memory is what the stream holds.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fm_bench::workload::{self, Country, Task};
use fm_core::linreg::DpLinearRegression;
use fm_data::stream::{CsvStreamSource, PrefetchSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Ctx, Outcome, EPSILON, SEEDS};
use crate::heap;
use crate::pipeline::{self, At, Role, TimedSource};
use crate::trace::Tracer;

const ROWS: usize = 370_000;
const SMOKE_ROWS: usize = 20_000;
const BLOCK_ROWS: usize = 4_096;
const DEPTH: usize = 2;

fn open(path: &Path) -> Result<CsvStreamSource<std::fs::File>, String> {
    CsvStreamSource::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Deletes the CSV when the run ends, however it ends: one extract per
/// seed would otherwise pile up in the work directory.
struct RemoveOnDrop<'p>(&'p Path);

impl Drop for RemoveOnDrop<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.0);
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let rows = if ctx.smoke { SMOKE_ROWS } else { ROWS };
    let mut out = Outcome::default();
    let path = ctx.work.join(format!("census-{}.csv", ctx.seed));
    let _cleanup = RemoveOnDrop(&path);
    let est = DpLinearRegression::builder().epsilon(EPSILON).build();

    // Set-up: generate the extract, write it (shortest-round-trip
    // floats), compute the in-memory reference release at every seed,
    // drop the dataset, and warm the page cache with one streamed fit.
    let references = ctx.repeat_setup(&mut out, || {
        let data = workload::build(Country::Us, Task::Linear, rows, 14, ctx.seed).data;
        fm_data::csv::write_dataset(&data, &path).map_err(|e| e.to_string())?;
        let references = (0..SEEDS)
            .map(|k| est.fit(&data, &mut StdRng::seed_from_u64(ctx.mech_seed(k))))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        drop(data);
        let mut source = PrefetchSource::spawn(open(&path)?, BLOCK_ROWS, DEPTH);
        est.fit_stream(&mut source, &mut StdRng::seed_from_u64(ctx.mech_seed(0)))
            .map_err(|e| e.to_string())?;
        Ok(references)
    })?;
    let csv_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;

    let heap = heap::Window::start();
    let samples = ctx.closed_loop(ctx.untraced_seconds(), |k| {
        let t0 = Instant::now();
        let model = open(&path).and_then(|csv| {
            let mut source = PrefetchSource::spawn(csv, BLOCK_ROWS, DEPTH);
            est.fit_stream(&mut source, &mut StdRng::seed_from_u64(ctx.mech_seed(k)))
                .map_err(|e| e.to_string())
        });
        let op_s = t0.elapsed().as_secs_f64();
        match model {
            Ok(model) => {
                let ok = model == references[(k % SEEDS) as usize];
                out.check(ok, || {
                    format!("op {k}: the CSV release differs from the in-memory fit")
                });
                Some(op_s)
            }
            Err(e) => {
                out.check(false, || format!("op {k}: {e}"));
                None
            }
        }
    });
    out.peak_heap_mb = heap.stop();
    out.record_ops(&samples, rows, "op_ms");

    if ctx.trace {
        let tracer = Arc::new(Tracer::new());
        let mut traced_ms = Vec::new();
        let started = Instant::now();
        let mut op = 0u64;
        while started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
            let t0 = Instant::now();
            let root = At {
                tracer: &tracer,
                op,
                parent: None,
            };
            let model = root.span("fit_stream", |at| {
                // The parser runs on the prefetch worker: its spans are
                // roots of their own there.
                let csv =
                    TimedSource::new(open(&path)?, Arc::clone(&tracer), op, None, Role::Source);
                let mut source = TimedSource::new(
                    PrefetchSource::spawn(csv, BLOCK_ROWS, DEPTH),
                    Arc::clone(&tracer),
                    op,
                    at.parent,
                    Role::PrefetchConsumer,
                );
                pipeline::fit_stream(
                    &est,
                    &mut source,
                    &mut StdRng::seed_from_u64(ctx.mech_seed(op)),
                    at,
                )
            });
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tracer.count("stream.csv_bytes", csv_bytes);
            match model {
                Ok(model) => {
                    let ok = model == references[(op % SEEDS) as usize];
                    out.check(ok, || {
                        format!("traced op {op}: the decomposed calls released other bits")
                    });
                }
                Err(e) => out.check(false, || format!("traced op {op}: {e}")),
            }
            op += 1;
        }
        out.roll_up(&tracer, op as usize, &traced_ms);
        super::write_spans(ctx, "ingest_csv", &tracer)?;
    }
    Ok(out)
}
