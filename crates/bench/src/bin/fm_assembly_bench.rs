//! `fm-assembly-bench` — measures coefficient-assembly throughput and
//! emits the machine-readable `BENCH_assembly.json` that seeds the
//! repository's performance trajectory.
//!
//! For each dimensionality `d ∈ {4, 13, 32}` at the paper's census scale
//! (`n = 370,000` rows) it times, on the linear-regression objective:
//!
//! * `per_tuple` — the pre-batching reference loop
//!   (`fm_core::assembly::assemble_per_tuple`);
//! * `batched` — the blocked Gram-kernel pipeline
//!   (`PolynomialObjective::assemble`), single-threaded unless the binary
//!   was built with `--features parallel`;
//! * `streamed` — the streaming accumulator fed **owned** blocks (the
//!   default `next_block` visitor fallback: one block copy per chunk —
//!   the pre-zero-copy transport, kept for trajectory continuity with the
//!   `pr4-streaming-ingestion` run);
//! * `streamed_zero_copy` — the streaming accumulator draining an
//!   `InMemorySource` through the borrowed-block visitor: no block copy,
//!   no per-block allocation; includes the per-block contract validation
//!   a real streamed fit performs.
//!
//! A CSV scenario then measures the out-of-core transport itself: rows/s
//! of `CsvStreamSource` parse+absorb, and (with `--features parallel`)
//! the same stream wrapped in a `PrefetchSource` so parsing overlaps
//! accumulation.
//!
//! ```text
//! cargo run --release -p fm-bench --bin fm-assembly-bench            # writes BENCH_assembly.json
//! cargo run --release -p fm-bench --bin fm-assembly-bench -- --rows 50000 --out /tmp/a.json
//! ```
//!
//! The binary emits one run record; the committed `BENCH_assembly.json`
//! is a JSON *array* of such records, each tagged with a `"run"` label —
//! append the new record there to extend the performance trajectory.
//!
//! The per-run JSON schema (stable; append-only across PRs):
//!
//! ```json
//! {
//!   "n": 370000,
//!   "parallel_feature": false,
//!   "results": [
//!     {"d": 13, "per_tuple_rows_per_sec": ..., "batched_rows_per_sec": ..., "speedup": ...}
//!   ]
//! }
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fm_core::assembly::{assemble_per_tuple, CoefficientAccumulator};
use fm_core::linreg::LinearObjective;
use fm_core::PolynomialObjective;
use fm_data::stream::{InMemorySource, RowBlock, RowSource};
use fm_data::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIMS: [usize; 3] = [4, 13, 32];

/// Forwards `next_block` only, hiding the inner source's borrowed-block
/// fast path *and* its materialized-dataset handoff: the accumulator then
/// drains it through the default owned-block visitor — exactly the
/// pre-zero-copy transport (one block allocation + copy per chunk) the
/// `pr4-streaming-ingestion` run measured, so `streamed_rows_per_sec`
/// stays comparable across runs.
struct OwnedBlocks<S>(S);

impl<S: RowSource> RowSource for OwnedBlocks<S> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn hint_rows(&self) -> Option<usize> {
        self.0.hint_rows()
    }
    fn next_block(&mut self, max_rows: usize) -> fm_data::Result<Option<RowBlock>> {
        self.0.next_block(max_rows)
    }
}

/// Forwards the borrowed-block visitor but hides the dataset handoff:
/// measures the pure zero-copy *streaming* transport (what sharded /
/// adapted in-memory sources take), without the in-place chunking +
/// columnar reuse an unwrapped `InMemorySource` gets.
struct BorrowedBlocks<S>(S);

impl<S: RowSource> RowSource for BorrowedBlocks<S> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn hint_rows(&self) -> Option<usize> {
        self.0.hint_rows()
    }
    fn next_block(&mut self, max_rows: usize) -> fm_data::Result<Option<RowBlock>> {
        self.0.next_block(max_rows)
    }
    fn for_each_block(
        &mut self,
        max_rows: usize,
        f: &mut fm_data::stream::BlockVisitor<'_>,
    ) -> fm_data::Result<()> {
        self.0.for_each_block(max_rows, f)
    }
}

/// Measures one core's practical FMA ceiling (GFLOP/s) with a pure
/// register-resident kernel: 16 independent 8-lane `mul_add` chains, no
/// memory traffic. Speedup numbers are only interpretable relative to
/// this — on a 2×256-bit-FMA desktop core the ceiling is 30-50 GFLOP/s
/// and the batched path clears 5×; on throttled shared vCPUs the ceiling
/// can sit near the per-tuple path's own FLOP rate, capping any
/// reformulation's headroom.
fn host_fma_ceiling_gflops() -> f64 {
    // Eight named 8-lane accumulators: few enough to live in registers
    // (an array of arrays iterated by reference gets spilled to memory
    // and measures the store ports instead).
    let mut a0 = [1.0_f64; 8];
    let mut a1 = [1.1_f64; 8];
    let mut a2 = [1.2_f64; 8];
    let mut a3 = [1.3_f64; 8];
    let mut a4 = [1.4_f64; 8];
    let mut a5 = [1.5_f64; 8];
    let mut a6 = [1.6_f64; 8];
    let mut a7 = [1.7_f64; 8];
    let x = std::hint::black_box(1.000_000_1_f64);
    let y = std::hint::black_box(1e-9_f64);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < 0.3 {
        for _ in 0..100_000 {
            for l in 0..8 {
                a0[l] = x.mul_add(a0[l], y);
                a1[l] = x.mul_add(a1[l], y);
                a2[l] = x.mul_add(a2[l], y);
                a3[l] = x.mul_add(a3[l], y);
                a4[l] = x.mul_add(a4[l], y);
                a5[l] = x.mul_add(a5[l], y);
                a6[l] = x.mul_add(a6[l], y);
                a7[l] = x.mul_add(a7[l], y);
            }
        }
        iters += 100_000;
    }
    let flops = iters as f64 * 8.0 * 8.0 * 2.0;
    let total: f64 = [a0, a1, a2, a3, a4, a5, a6, a7].iter().flatten().sum();
    assert!(std::hint::black_box(total).is_finite());
    flops / start.elapsed().as_secs_f64() / 1e9
}

/// Times the out-of-core CSV transport at a census-like width: rows/s of
/// `CsvStreamSource` parse+clamp+absorb into the streaming accumulator,
/// and — with `--features parallel` — the same stream wrapped in a
/// `PrefetchSource` so a worker thread parses the next block while the
/// consumer runs the Gram kernels. Returns the scenario's JSON object.
fn bench_csv_scenario(rows: usize) -> String {
    const CSV_D: usize = 13;
    let mut rng = StdRng::seed_from_u64(99);
    let data = synth::linear_dataset(&mut rng, rows, CSV_D, 0.05);
    // Per-process fixture name: concurrent bench invocations on one host
    // (a dev run next to CI's bench-smoke) must not clobber each other's
    // file mid-measurement.
    let path = std::env::temp_dir().join(format!(
        "fm_assembly_bench_ingest_{}.csv",
        std::process::id()
    ));
    fm_data::csv::write_dataset(&data, &path).expect("write bench csv");

    let mut direct: f64 = 0.0;
    for _ in 0..ROUNDS {
        direct = direct.max(time_rows_per_sec(rows, || {
            let mut src = fm_data::stream::CsvStreamSource::open(&path).expect("open bench csv");
            let mut acc = CoefficientAccumulator::new(&LinearObjective, CSV_D);
            acc.absorb(&mut src).expect("absorb csv");
            acc.finish().expect("non-empty").beta()
        }));
    }

    #[cfg(feature = "parallel")]
    let prefetch_json = {
        let mut prefetch: f64 = 0.0;
        for _ in 0..ROUNDS {
            prefetch = prefetch.max(time_rows_per_sec(rows, || {
                let src = fm_data::stream::CsvStreamSource::open(&path).expect("open bench csv");
                let mut pf = fm_data::stream::PrefetchSource::spawn(src, 4096, 2);
                let mut acc = CoefficientAccumulator::new(&LinearObjective, CSV_D);
                acc.absorb(&mut pf).expect("absorb prefetched csv");
                acc.finish().expect("non-empty").beta()
            }));
        }
        eprintln!(
            "csv d={CSV_D}: direct {direct:>12.0} rows/s | prefetched {prefetch:>12.0} rows/s ({:.2}x)",
            prefetch / direct
        );
        format!(
            ", \"prefetch_rows_per_sec\": {prefetch:.0}, \"prefetch_vs_direct\": {:.3}",
            prefetch / direct
        )
    };
    #[cfg(not(feature = "parallel"))]
    let prefetch_json = {
        eprintln!("csv d={CSV_D}: direct {direct:>12.0} rows/s (build with --features parallel for the prefetch column)");
        String::new()
    };

    let _ = std::fs::remove_file(&path);
    format!(
        "{{\"d\": {CSV_D}, \"rows\": {rows}, \"csv_rows_per_sec\": {direct:.0}{prefetch_json}}}"
    )
}

/// Measurement rounds per leg. Shared vCPUs throttle on multi-second
/// scales, which can hit one leg of a comparison and not another; every
/// leg is therefore measured `ROUNDS` times in interleaved order and the
/// per-leg **peak** is reported — peak throughput is the number the
/// hardware supports, and interleaving keeps a throttling event from
/// biasing any single ratio.
const ROUNDS: usize = 3;

fn time_rows_per_sec(n: usize, mut run: impl FnMut() -> f64) -> f64 {
    // Warm-up, then enough repetitions to spend ~0.5 s per measurement.
    let mut sink = run();
    let start = Instant::now();
    let mut reps = 0u32;
    while start.elapsed().as_secs_f64() < 0.5 {
        sink += run();
        reps += 1;
    }
    assert!(sink.is_finite(), "benchmark result must stay finite");
    n as f64 * f64::from(reps) / start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let mut rows = 370_000usize;
    let mut out = "BENCH_assembly.json".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--rows" => rows = argv.next().and_then(|v| v.parse().ok()).unwrap_or(rows),
            "--out" => out = argv.next().unwrap_or(out),
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let ceiling = host_fma_ceiling_gflops();
    // Under `parallel` the batched path maps chunks on one thread per
    // available core (a count that follows CPU affinity), so its rate is
    // held against the per-core ceiling times that many threads.
    let threads = if cfg!(feature = "parallel") {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        1
    };
    let ceiling_all = ceiling * threads as f64;
    eprintln!("host FMA ceiling: {ceiling:.1} GFLOP/s per core x {threads} threads");

    let mut results = String::new();
    for (i, &d) in DIMS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(42 + d as u64);
        let data = synth::linear_dataset(&mut rng, rows, d, 0.05);

        let mut per_tuple: f64 = 0.0;
        let mut batched: f64 = 0.0;
        let mut batched_fit: f64 = 0.0;
        let mut streamed: f64 = 0.0;
        let mut borrowed: f64 = 0.0;
        let mut zero_copy: f64 = 0.0;
        for _ in 0..ROUNDS {
            per_tuple = per_tuple.max(time_rows_per_sec(rows, || {
                assemble_per_tuple(&LinearObjective, &data).beta()
            }));
            batched = batched.max(time_rows_per_sec(rows, || {
                LinearObjective.assemble(&data).beta()
            }));
            // What an in-memory `fit()` actually runs before the noise
            // draw: the contract validation pass *plus* assembly. This is
            // the like-for-like baseline for the streamed legs below,
            // which all validate inline (earlier runs compared
            // streamed-with-validation against bare assembly — a baseline
            // no real fit can take).
            batched_fit = batched_fit.max(time_rows_per_sec(rows, || {
                data.check_normalized_linear().expect("bench data valid");
                LinearObjective.assemble(&data).beta()
            }));
            // The owned-block streaming path at the default chunk size:
            // one block allocation + row-copy per chunk (the default
            // visitor over `next_block`) plus validation and the same
            // Gram kernels — `streamed_vs_batched` is the transport tax a
            // source *without* a borrowed-block fast path still pays.
            streamed = streamed.max(time_rows_per_sec(rows, || {
                let mut acc = CoefficientAccumulator::new(&LinearObjective, d);
                acc.absorb(&mut OwnedBlocks(InMemorySource::new(&data)))
                    .expect("in-memory stream");
                acc.finish().expect("non-empty").beta()
            }));
            // The borrowed-block visitor: dataset slices lent straight to
            // the kernels, no block copy or per-block allocation — the
            // zero-copy *streaming* transport shard/adapter sources ride.
            borrowed = borrowed.max(time_rows_per_sec(rows, || {
                let mut acc = CoefficientAccumulator::new(&LinearObjective, d);
                acc.absorb(&mut BorrowedBlocks(InMemorySource::new(&data)))
                    .expect("in-memory stream");
                acc.finish().expect("non-empty").beta()
            }));
            // The full in-memory fast path: `InMemorySource` hands its
            // backing dataset over whole (`take_dataset`) and the
            // accumulator chunks it in place, reusing the cached columnar
            // transpose — what CV folds, `fit_in_session` and
            // `fit_stream` over in-memory data pay now.
            zero_copy = zero_copy.max(time_rows_per_sec(rows, || {
                let mut acc = CoefficientAccumulator::new(&LinearObjective, d);
                acc.absorb(&mut InMemorySource::new(&data))
                    .expect("in-memory stream");
                acc.finish().expect("non-empty").beta()
            }));
        }
        let speedup = batched / per_tuple;
        let streamed_ratio = streamed / batched;
        let borrowed_ratio = borrowed / batched_fit;
        let zero_copy_ratio = zero_copy / batched_fit;
        // Fused-FLOP rate of the batched path's Gram triangle (the
        // irreducible work): d(d+1)/2 + d + 1 multiply-adds per row.
        let flops_per_row = (d * (d + 1) / 2 + d + 1) as f64 * 2.0;
        let batched_gflops = batched * flops_per_row / 1e9;
        eprintln!(
            "d={d:>2}: per-tuple {per_tuple:>11.0} | batched {batched:>11.0} | batched+validate {batched_fit:>11.0} | owned {streamed:>11.0} ({streamed_ratio:>4.2}x of batched) | borrowed {borrowed:>11.0} ({borrowed_ratio:>4.2}x of fit) | zero-copy {zero_copy:>11.0} ({zero_copy_ratio:>4.2}x of fit) | {batched_gflops:>5.1} GFLOP/s ({:>3.0}% of ceiling)",
            batched_gflops / ceiling_all * 100.0
        );
        let separator = if i == 0 { "" } else { ",\n" };
        let fraction = batched_gflops / ceiling_all;
        let _ = write!(
            results,
            "{separator}    {{\"d\": {d}, \"per_tuple_rows_per_sec\": {per_tuple:.0}, \"batched_rows_per_sec\": {batched:.0}, \"batched_fit_rows_per_sec\": {batched_fit:.0}, \"streamed_rows_per_sec\": {streamed:.0}, \"streamed_vs_batched\": {streamed_ratio:.3}, \"streamed_borrowed_rows_per_sec\": {borrowed:.0}, \"streamed_borrowed_vs_batched_fit\": {borrowed_ratio:.3}, \"streamed_zero_copy_rows_per_sec\": {zero_copy:.0}, \"streamed_zero_copy_vs_batched_fit\": {zero_copy_ratio:.3}, \"speedup\": {speedup:.3}, \"batched_gflops\": {batched_gflops:.2}, \"batched_fraction_of_ceiling\": {fraction:.3}}}"
        );
    }

    let csv_ingest = bench_csv_scenario(rows);

    let dims_json = DIMS.map(|d| d.to_string()).join(", ");
    let json = format!(
        "{{\n  \"n\": {rows},\n  \"d\": [{dims_json}],\n  \"objective\": \"linreg\",\n  \"parallel_feature\": {},\n  \"threads\": {threads},\n  \"host_fma_ceiling_gflops\": {ceiling:.2},\n  \"results\": [\n{results}\n  ],\n  \"csv_ingest\": {csv_ingest}\n}}\n",
        cfg!(feature = "parallel")
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}
