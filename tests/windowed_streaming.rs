//! The windowed chunk map: a zero-copy source lends the accumulator many
//! chunks per block, which it validates once and maps across cores. Every
//! pin here holds that path to the one-chunk-per-block transport and to
//! the in-memory assembly `fit` runs, bit for bit, at shard splits that
//! leave the stage empty, mid-chunk and one row short of a chunk, for
//! both coefficient types. Run with and without `--features parallel`.

use functional_mechanism::core::assembly::{assemble_with_chunk_rows, CoefficientAccumulator};
use functional_mechanism::core::estimator::{FitConfig, FmEstimator};
use functional_mechanism::core::generic::QuarticObjective;
use functional_mechanism::core::linreg::LinearObjective;
use functional_mechanism::core::sparse::SparseFmEstimator;
use functional_mechanism::core::{FmError, Objective, Strategy};
use functional_mechanism::data::stream::{
    BlockVisitor, InMemorySource, RowBlock, RowSource, ShardedSource, TakeRows,
};
use functional_mechanism::data::{synth, DataError, Dataset};
use functional_mechanism::poly::Polynomial;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small chunk, so a test-sized stream spans many windows.
const CHUNK: usize = 8;

/// Shard sizes after which the stage sits at 0, mid-chunk, and at
/// `CHUNK − 1` rows. Each list mixes shards that complete no chunk, one
/// chunk, and many windows of chunks.
const SPLITS: [&[usize]; 3] = [
    &[16, 8, 1_000, 256, 24],
    &[5, 3, 1_003, 12, 2, 300],
    &[7, 7, 1_007, 7, 263, 1],
];

/// Forwards the borrowed-block visitor but not `zero_copy`, so the
/// accumulator asks for one chunk per block: the same rows through the
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

/// `data` cut into consecutive datasets of the given sizes.
fn cut(data: &Dataset, sizes: &[usize]) -> Vec<Dataset> {
    let mut lo = 0;
    sizes
        .iter()
        .map(|&k| {
            let idx: Vec<usize> = (lo..lo + k).collect();
            lo += k;
            data.subset(&idx).expect("sizes sum to n")
        })
        .collect()
}

fn sharded(parts: &[Dataset]) -> ShardedSource<InMemorySource<'_>> {
    ShardedSource::new(parts.iter().map(InMemorySource::new).collect()).expect("equal dims")
}

#[test]
fn sharded_in_memory_sources_are_zero_copy_and_wrappers_are_not() {
    let mut r = StdRng::seed_from_u64(1);
    let data = synth::linear_dataset(&mut r, 20, 2, 0.1);
    let parts = cut(&data, &[12, 8]);
    assert!(InMemorySource::new(&data).zero_copy());
    assert!(sharded(&parts).zero_copy());
    fn forwarded(source: impl RowSource) -> bool {
        source.zero_copy()
    }
    assert!(forwarded(&mut sharded(&parts)));
    assert!(!ChunkSized(sharded(&parts)).zero_copy());
    // A row cap lends its inner source's blocks, so it is as zero-copy
    // as what it wraps.
    let mut mem = InMemorySource::new(&data);
    assert!(TakeRows::new(&mut mem, 5).zero_copy());
    assert!(!TakeRows::new(ChunkSized(&mut mem), 5).zero_copy());
    let mixed = ShardedSource::new(vec![
        Box::new(InMemorySource::new(&parts[0])) as Box<dyn RowSource>,
        Box::new(ChunkSized(InMemorySource::new(&parts[1]))),
    ])
    .unwrap();
    assert!(
        !mixed.zero_copy(),
        "one copying shard makes the whole copying"
    );
}

#[test]
fn windows_match_chunk_sized_reads_and_the_in_memory_assembly() {
    let d = 3;
    for (k, sizes) in SPLITS.iter().enumerate() {
        let n: usize = sizes.iter().sum();
        let mut r = StdRng::seed_from_u64(700 + k as u64);
        let data = synth::linear_dataset(&mut r, n, d, 0.1);
        let parts = cut(&data, sizes);
        let reference = assemble_with_chunk_rows(&LinearObjective, &data, CHUNK);

        // One drain over every shard: stage carries cross shard
        // boundaries inside the visitor, so a window's first chunk is
        // often the staged head.
        let mut windowed = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
        assert_eq!(windowed.absorb(&mut sharded(&parts)).unwrap(), n);
        let mut chunked = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
        assert_eq!(chunked.absorb(&mut ChunkSized(sharded(&parts))).unwrap(), n);
        assert_eq!(
            windowed.checkpoint(None),
            chunked.checkpoint(None),
            "{sizes:?}"
        );
        assert_eq!(windowed.finish().unwrap(), reference, "{sizes:?}");
        assert_eq!(chunked.finish().unwrap(), reference, "{sizes:?}");

        // Shard at a time: the state after every shard is the same bytes
        // either way, whatever the stage holds.
        let mut windowed = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
        let mut chunked = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
        for (i, part) in parts.iter().enumerate() {
            windowed
                .absorb(&mut sharded(std::slice::from_ref(part)))
                .unwrap();
            chunked
                .absorb(&mut ChunkSized(sharded(std::slice::from_ref(part))))
                .unwrap();
            assert_eq!(
                windowed.checkpoint(None),
                chunked.checkpoint(None),
                "{sizes:?} after shard {i}"
            );
        }
        assert_eq!(windowed.finish().unwrap(), reference, "{sizes:?}");
    }
}

#[test]
fn zero_copy_fit_stream_is_bit_identical_to_fit_at_the_default_chunk_size() {
    // Shards of 4095 and 4097 rows leave the stage one row short of a
    // chunk and one row into the next; 9000 rows span several chunks.
    let mut r = StdRng::seed_from_u64(808);
    let data = synth::linear_dataset(&mut r, 4_095 + 9_000 + 4_097 + 8_192, 3, 0.1);
    let parts = cut(&data, &[4_095, 9_000, 4_097, 8_192]);
    for intercept in [false, true] {
        let est = FmEstimator::new(
            LinearObjective,
            FitConfig::new().epsilon(1.0).fit_intercept(intercept),
        );
        let reference = est.fit(&data, &mut StdRng::seed_from_u64(3)).unwrap();
        let windowed = est
            .fit_stream(&mut sharded(&parts), &mut StdRng::seed_from_u64(3))
            .unwrap();
        let chunked = est
            .fit_stream(
                &mut ChunkSized(sharded(&parts)),
                &mut StdRng::seed_from_u64(3),
            )
            .unwrap();
        assert_eq!(windowed, reference, "intercept={intercept}");
        assert_eq!(chunked, reference, "intercept={intercept}");
    }
}

#[test]
fn quartic_windows_match_chunk_sized_reads_and_fit() {
    let d = 2;
    for (k, sizes) in SPLITS.iter().enumerate() {
        let n: usize = sizes.iter().sum();
        let mut r = StdRng::seed_from_u64(900 + k as u64);
        let data = synth::linear_dataset(&mut r, n, d, 0.05);
        let parts = cut(&data, sizes);
        let mut windowed: CoefficientAccumulator<'_, _, Polynomial> =
            CoefficientAccumulator::with_chunk_rows(&QuarticObjective, d, CHUNK);
        windowed.absorb(&mut sharded(&parts)).unwrap();
        let mut chunked: CoefficientAccumulator<'_, _, Polynomial> =
            CoefficientAccumulator::with_chunk_rows(&QuarticObjective, d, CHUNK);
        chunked.absorb(&mut ChunkSized(sharded(&parts))).unwrap();
        // Row at a time: every chunk goes through the stage.
        let mut rowwise: CoefficientAccumulator<'_, _, Polynomial> =
            CoefficientAccumulator::with_chunk_rows(&QuarticObjective, d, CHUNK);
        for (x, y) in data.tuples() {
            rowwise.push_rows(x, &[y]).unwrap();
        }
        assert_eq!(
            windowed.checkpoint(None),
            chunked.checkpoint(None),
            "{sizes:?}"
        );
        assert_eq!(
            windowed.checkpoint(None),
            rowwise.checkpoint(None),
            "{sizes:?}"
        );
        assert_eq!(windowed.finish(), chunked.finish(), "{sizes:?}");
    }

    // And at the default chunk size: the clean coefficients `fit`
    // assembles, and the released model.
    let mut r = StdRng::seed_from_u64(901);
    let data = synth::linear_dataset(&mut r, 4_095 + 6_000, d, 0.05);
    let parts = cut(&data, &[4_095, 6_000]);
    let clean = Objective::<Polynomial>::assemble_data(&QuarticObjective, &data);
    let mut windowed: CoefficientAccumulator<'_, _, Polynomial> =
        CoefficientAccumulator::new(&QuarticObjective, d);
    windowed.absorb(&mut sharded(&parts)).unwrap();
    assert_eq!(windowed.finish().unwrap(), clean);
    let est = SparseFmEstimator::new(
        QuarticObjective,
        FitConfig::new()
            .epsilon(64.0)
            .strategy(Strategy::FailIfUnbounded),
    );
    let reference = est.fit(&data, &mut StdRng::seed_from_u64(5));
    let windowed = est.fit_stream(&mut sharded(&parts), &mut StdRng::seed_from_u64(5));
    let chunked = est.fit_stream(
        &mut ChunkSized(sharded(&parts)),
        &mut StdRng::seed_from_u64(5),
    );
    let reference = reference.expect("the quartic release exists at ε = 64");
    assert_eq!(windowed.unwrap(), reference);
    assert_eq!(chunked.unwrap(), reference);
}

/// A dataset whose row `bad` breaks the linear contract (a NaN feature).
fn with_bad_row(seed: u64, n: usize, d: usize, bad: usize) -> Dataset {
    let mut r = StdRng::seed_from_u64(seed);
    let clean = synth::linear_dataset(&mut r, n, d, 0.1);
    let mut xs = clean.x().as_slice().to_vec();
    xs[bad * d] = f64::NAN;
    let x = functional_mechanism::linalg::Matrix::from_vec(n, d, xs).unwrap();
    Dataset::new(x, clean.y().to_vec()).unwrap()
}

#[test]
fn a_violation_inside_a_window_leaves_the_accumulator_untouched() {
    let d = 2;
    let mut r = StdRng::seed_from_u64(11);
    let head = synth::linear_dataset(&mut r, 13, d, 0.1);
    // Row 20 sits in the third chunk of the shard: a window of more than
    // two chunks holds it, so the chunks before it must not merge either.
    let bad = with_bad_row(12, 500, d, 20);

    for staged in [false, true] {
        // With `head` first, five rows are staged when the bad shard
        // starts: the failing window's first chunk is the staged head,
        // topped up from the window.
        let shards = if staged {
            vec![head.clone(), bad.clone()]
        } else {
            vec![bad.clone()]
        };
        let mut before = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
        if staged {
            before.push_rows(head.x().as_slice(), head.y()).unwrap();
        }
        let mut acc = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
        let err = acc.absorb(&mut sharded(&shards));
        assert!(matches!(err, Err(FmError::Data(_))), "{err:?}");
        assert_eq!(acc.rows(), before.rows(), "staged={staged}");
        assert_eq!(
            acc.checkpoint(None),
            before.checkpoint(None),
            "staged={staged}"
        );

        // The same block through push_rows directly.
        let err = acc.push_rows(bad.x().as_slice(), bad.y());
        assert!(matches!(err, Err(FmError::Data(_))), "{err:?}");
        assert_eq!(acc.rows(), before.rows(), "staged={staged}");
        assert_eq!(
            acc.checkpoint(None),
            before.checkpoint(None),
            "staged={staged}"
        );
    }

    // Chunk-sized reads absorb the chunks before the bad row, so the
    // window path is the one that kept the state above intact.
    let mut acc = CoefficientAccumulator::with_chunk_rows(&LinearObjective, d, CHUNK);
    assert!(acc
        .absorb(&mut ChunkSized(sharded(std::slice::from_ref(&bad))))
        .is_err());
    assert_eq!(acc.rows(), 16);
}

#[test]
fn a_zero_width_accumulator_refuses_rows_with_a_typed_error() {
    let mut acc = CoefficientAccumulator::new(&LinearObjective, 0);
    let err = acc.push_rows(&[], &[0.5]);
    assert!(
        matches!(
            err,
            Err(FmError::Data(DataError::InvalidParameter { name: "d", .. }))
        ),
        "{err:?}"
    );
    assert_eq!(acc.rows(), 0);
}
