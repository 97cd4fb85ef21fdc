//! Streaming ≡ in-memory: the property suite pinning the tentpole
//! guarantee of the ingestion redesign.
//!
//! For every supported family — linear, logistic, median, and the
//! general-degree sparse quartic — `fit_stream` over **any** chunking and
//! **any** shard split of a dataset must release coefficients
//! **bit-identical** to `fit` on the materialized `Dataset` under the same
//! seed, and the two-phase `partial_fit`/`finalize` protocol must match as
//! well. The streaming pipeline earns this by construction (fixed
//! re-chunking + a merge tree provably equal to the in-memory reduction);
//! this suite is the machine check that no refactor silently breaks it.

use functional_mechanism::core::estimator::{
    DpEstimator, Family, FamilyEstimator, FitConfig, FmEstimator, RegressionObjective,
};
use functional_mechanism::core::generic::QuarticObjective;
use functional_mechanism::core::linreg::{DpLinearRegression, LinearObjective};
use functional_mechanism::core::logreg::{Approximation, DpLogisticRegression};
use functional_mechanism::core::poisson::DpPoissonRegression;
use functional_mechanism::core::robust::{DpMedianRegression, DpQuantileRegression};
use functional_mechanism::core::session::PrivacySession;
use functional_mechanism::core::sparse::SparseFmEstimator;
use functional_mechanism::core::{FmError, Strategy};
use functional_mechanism::data::stream::{
    BlockVisitor, CsvStreamSource, InMemorySource, RowBlock, RowSource, ShardedSource,
};
use functional_mechanism::data::{synth, DataError, Dataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards only `next_block`: the inner source's borrowed-block visitor
/// and dataset handoff are hidden, so consumers take the owned-block
/// fallback — the pre-zero-copy transport.
struct OwnedBlocks<S>(S);

impl<S: RowSource> RowSource for OwnedBlocks<S> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn next_block(
        &mut self,
        max_rows: usize,
    ) -> functional_mechanism::data::Result<Option<RowBlock>> {
        self.0.next_block(max_rows)
    }
}

/// Forwards the borrowed-block visitor but hides the dataset handoff:
/// the pure zero-copy streaming transport.
struct BorrowedBlocks<S>(S);

impl<S: RowSource> RowSource for BorrowedBlocks<S> {
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

/// A [`RowSource`] that yields a row range of a dataset in pseudo-random
/// jagged block sizes — the adversarial transport the equivalence claim
/// quantifies over.
struct JaggedSource<'a> {
    data: &'a Dataset,
    pos: usize,
    end: usize,
    state: u64,
}

impl<'a> JaggedSource<'a> {
    fn new(data: &'a Dataset, lo: usize, hi: usize, seed: u64) -> Self {
        JaggedSource {
            data,
            pos: lo,
            end: hi,
            state: seed | 1,
        }
    }
}

impl RowSource for JaggedSource<'_> {
    fn dim(&self) -> usize {
        self.data.d()
    }

    fn next_block(
        &mut self,
        max_rows: usize,
    ) -> functional_mechanism::data::Result<Option<RowBlock>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        // xorshift: deliberately ignores the requested boundary except as
        // an upper bound, so blocks land wherever they land.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let cap = max_rows.max(1).min(self.end - self.pos);
        let take = 1 + (self.state as usize) % cap;
        let d = self.data.d();
        let hi = self.pos + take;
        let xs = self.data.x().as_slice()[self.pos * d..hi * d].to_vec();
        let ys = self.data.y()[self.pos..hi].to_vec();
        self.pos = hi;
        Ok(Some(RowBlock::new(xs, ys, d).expect("consistent shapes")))
    }
}

/// Splits `[0, n)` at the fractional cut points into at most 3 shards.
fn shard_bounds(n: usize, cuts: (f64, f64)) -> Vec<(usize, usize)> {
    let mut points = vec![
        0usize,
        ((n as f64) * cuts.0.min(cuts.1)) as usize,
        ((n as f64) * cuts.0.max(cuts.1)) as usize,
        n,
    ];
    points.dedup();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Runs one family through all three entry points and asserts exact
/// agreement of the released models (or of the failure outcome — at these
/// sizes a hostile draw can legitimately leave no positive spectrum; the
/// deterministic pipelines must then fail *together*).
#[allow(clippy::type_complexity)]
fn assert_stream_matches_fit<M, E>(
    what: &str,
    data: &Dataset,
    seed: u64,
    cuts: (f64, f64),
    fit: impl Fn(&Dataset, &mut StdRng) -> Result<M, E>,
    fit_stream: impl Fn(&mut dyn RowSource, &mut StdRng) -> Result<M, E>,
    partial: Option<&dyn Fn(&mut [JaggedSource], &mut StdRng) -> Result<M, E>>,
) where
    M: PartialEq + std::fmt::Debug,
    E: std::fmt::Debug,
{
    let mut r1 = StdRng::seed_from_u64(seed);
    let in_memory = fit(data, &mut r1);

    // One sharded, jagged-blocked source over the same rows.
    let shards: Vec<JaggedSource> = shard_bounds(data.n(), cuts)
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| JaggedSource::new(data, lo, hi, seed ^ (i as u64 + 0x9E37)))
        .collect();
    let mut sharded = ShardedSource::new(shards).expect("non-empty, equal dims");
    let mut r2 = StdRng::seed_from_u64(seed);
    let streamed = fit_stream(&mut sharded, &mut r2);

    match (&in_memory, &streamed) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: fit_stream drifted from fit"),
        (Err(_), Err(_)) => {}
        other => panic!("{what}: outcome mismatch {other:?}"),
    }

    if let Some(partial_fit) = partial {
        let mut shards: Vec<JaggedSource> = shard_bounds(data.n(), cuts)
            .into_iter()
            .enumerate()
            .map(|(i, (lo, hi))| JaggedSource::new(data, lo, hi, seed ^ (i as u64 + 0x51DE)))
            .collect();
        let mut r3 = StdRng::seed_from_u64(seed);
        let sharded = partial_fit(&mut shards, &mut r3);
        match (&in_memory, &sharded) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: partial_fit drifted from fit"),
            (Err(_), Err(_)) => {}
            other => panic!("{what}: partial outcome mismatch {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linear regression: `fit` ≡ `fit_stream` ≡ `partial_fit`+`finalize`
    /// over arbitrary chunking/shard splits, with and without intercept.
    #[test]
    fn linreg_streaming_equivalence(
        seed in 0u64..10_000,
        n in 1usize..400,
        d in 1usize..6,
        intercept in proptest::bool::ANY,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let data = synth::linear_dataset(&mut r, n, d, 0.1);
        let est = FmEstimator::new(
            LinearObjective,
            FitConfig::new().epsilon(1.0).fit_intercept(intercept),
        );
        let partial = |shards: &mut [JaggedSource], rng: &mut StdRng| {
            let mut pf = est.partial_fit();
            for s in shards {
                pf.absorb(s)?;
            }
            pf.finalize(rng)
        };
        assert_stream_matches_fit(
            "linreg",
            &data,
            seed,
            (cut_a, cut_b),
            |data, rng| est.fit(data, rng),
            |src, rng| est.fit_stream(src, rng),
            Some(&partial),
        );
    }

    /// Logistic regression (Algorithm 2's Taylor surrogate) through the
    /// wrapper estimator.
    #[test]
    fn logistic_streaming_equivalence(
        seed in 0u64..10_000,
        n in 1usize..400,
        d in 1usize..6,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let data = synth::logistic_dataset(&mut r, n, d, 4.0);
        let est = DpLogisticRegression::builder().epsilon(1.0).build();
        assert_stream_matches_fit(
            "logreg",
            &data,
            seed,
            (cut_a, cut_b),
            |data, rng| est.fit(data, rng),
            |src, rng| est.fit_stream(src, rng),
            None,
        );
    }

    /// Median and general-τ quantile regression (weighted Gram kernels).
    #[test]
    fn median_and_quantile_streaming_equivalence(
        seed in 0u64..10_000,
        n in 1usize..300,
        d in 1usize..5,
        tau_idx in 0usize..3,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let data = synth::linear_dataset(&mut r, n, d, 0.1);
        let med = DpMedianRegression::builder().epsilon(1.0).build();
        assert_stream_matches_fit(
            "median",
            &data,
            seed,
            (cut_a, cut_b),
            |data, rng| med.fit(data, rng),
            |src, rng| med.fit_stream(src, rng),
            None,
        );
        let tau = [0.2, 0.5, 0.85][tau_idx];
        let quant = DpQuantileRegression::builder().epsilon(1.0).tau(tau).build();
        assert_stream_matches_fit(
            "quantile",
            &data,
            seed,
            (cut_a, cut_b),
            |data, rng| quant.fit(data, rng),
            |src, rng| quant.fit_stream(src, rng),
            None,
        );
    }

    /// The sparse general-degree path (quartic loss): polynomial
    /// accumulator + generic mechanism, including the two-phase protocol.
    #[test]
    fn sparse_quartic_streaming_equivalence(
        seed in 0u64..10_000,
        n in 1usize..200,
        d in 1usize..4,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let data = synth::linear_dataset(&mut r, n, d, 0.05);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(64.0)
                .strategy(Strategy::FailIfUnbounded),
        );
        let partial = |shards: &mut [JaggedSource], rng: &mut StdRng| {
            let mut pf = est.partial_fit();
            for s in shards {
                pf.absorb(s)?;
            }
            pf.finalize(rng)
        };
        assert_stream_matches_fit(
            "sparse-quartic",
            &data,
            seed,
            (cut_a, cut_b),
            |data, rng| est.fit(data, rng),
            |src, rng| est.fit_stream(src, rng),
            Some(&partial),
        );
    }
}

#[test]
fn csv_stream_fit_matches_materialized_fit_bitwise() {
    // End-to-end out-of-core path: write a CSV, fit once from the file
    // stream and once from the materialized reader — identical releases.
    let mut r = StdRng::seed_from_u64(2_024);
    let data = synth::linear_dataset(&mut r, 2_000, 3, 0.1);
    let dir = std::env::temp_dir().join("fm_streaming_equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream_fit.csv");
    functional_mechanism::data::csv::write_dataset(&data, &path).unwrap();

    let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(1.0));
    let mut r1 = StdRng::seed_from_u64(7);
    let from_file = {
        let mut src = CsvStreamSource::open(&path).unwrap();
        est.fit_stream(&mut src, &mut r1).unwrap()
    };
    let mut r2 = StdRng::seed_from_u64(7);
    let materialized = {
        let back = functional_mechanism::data::csv::read_dataset(&path).unwrap();
        est.fit(&back, &mut r2).unwrap()
    };
    assert_eq!(from_file, materialized);
    std::fs::remove_file(&path).ok();
}

#[test]
fn owned_borrowed_and_handoff_transports_release_identical_bits() {
    // The three in-memory transports — owned-block fallback, borrowed-
    // block visitor, and the whole-dataset handoff — must be pure
    // transport: same released model, bit for bit, as fit().
    let mut r = StdRng::seed_from_u64(77);
    let data = synth::linear_dataset(&mut r, 2_000, 4, 0.1);
    for intercept in [false, true] {
        let est = FmEstimator::new(
            LinearObjective,
            FitConfig::new().epsilon(1.0).fit_intercept(intercept),
        );
        let fit = |rng_seed: u64| {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            est.fit(&data, &mut rng).unwrap()
        };
        let reference = fit(5);
        let mut rng = StdRng::seed_from_u64(5);
        let handoff = est
            .fit_stream(&mut InMemorySource::new(&data), &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let borrowed = est
            .fit_stream(&mut BorrowedBlocks(InMemorySource::new(&data)), &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let owned = est
            .fit_stream(&mut OwnedBlocks(InMemorySource::new(&data)), &mut rng)
            .unwrap();
        assert_eq!(reference, handoff, "handoff transport drifted");
        assert_eq!(reference, borrowed, "borrowed transport drifted");
        assert_eq!(reference, owned, "owned transport drifted");
    }
}

#[test]
fn dataset_handoff_preserves_continuation_chunking_across_shards() {
    // Regression pin: a mid-chunk shard split absorbed through the
    // whole-dataset handoff (`InMemorySource` per shard) must keep the
    // *concatenation's* chunk grid — the handoff may push only full
    // chunks into the merge counter and must stage the ragged tail for
    // the next shard to continue. Shard splits sit both below and above
    // the 4096-row chunk size, and deliberately off any boundary.
    let mut r = StdRng::seed_from_u64(86_420);
    let data = synth::linear_dataset(&mut r, 11_000, 3, 0.1);
    let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(1.0));
    let mut rng = StdRng::seed_from_u64(4);
    let whole = est.fit(&data, &mut rng).unwrap();
    let idx: Vec<usize> = (0..data.n()).collect();
    for cuts in [[1_111usize, 5_000], [4_096, 8_192], [100, 10_999]] {
        let parts = [
            data.subset(&idx[..cuts[0]]).unwrap(),
            data.subset(&idx[cuts[0]..cuts[1]]).unwrap(),
            data.subset(&idx[cuts[1]..]).unwrap(),
        ];
        let mut partial = est.partial_fit();
        for p in &parts {
            partial.absorb(&mut InMemorySource::new(p)).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(4);
        let sharded = partial.finalize(&mut rng).unwrap();
        assert_eq!(whole, sharded, "cuts={cuts:?}");
    }
}

#[test]
fn fit_sharded_is_transport_invariant_and_single_shard_matches_fit() {
    let mut r = StdRng::seed_from_u64(31_337);
    let data = synth::linear_dataset(&mut r, 2_500, 3, 0.1);
    for intercept in [false, true] {
        let est = FmEstimator::new(
            LinearObjective,
            FitConfig::new().epsilon(1.0).fit_intercept(intercept),
        );
        // One shard: fit_sharded ≡ fit_stream ≡ fit, bit for bit.
        let mut rng = StdRng::seed_from_u64(8);
        let whole = est.fit(&data, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut one = [InMemorySource::new(&data)];
        assert_eq!(whole, est.fit_sharded(&mut one, &mut rng).unwrap());

        // Several shards: the released model depends only on the shard
        // rows, never on each shard's block transport.
        let idx: Vec<usize> = (0..data.n()).collect();
        let parts = [
            data.subset(&idx[..900]).unwrap(),
            data.subset(&idx[900..2_100]).unwrap(),
            data.subset(&idx[2_100..]).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(8);
        let mut in_memory: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
        let from_memory = est.fit_sharded(&mut in_memory, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut jagged: Vec<JaggedSource> = parts
            .iter()
            .map(|p| JaggedSource::new(p, 0, p.n(), 0xFEED))
            .collect();
        assert_eq!(from_memory, est.fit_sharded(&mut jagged, &mut rng).unwrap());
    }
}

#[test]
fn session_disjoint_shards_release_each_shard_fit_in_shard_order() {
    // fit_disjoint_shards releases, for each shard i, exactly
    // `est.fit(&part_i)`, the noise drawn in shard order from one RNG,
    // and the parallel-composition scope debits what one fit costs.
    let mut r = StdRng::seed_from_u64(606);
    let data = synth::linear_dataset(&mut r, 3_000, 2, 0.1);
    let parts = cut(&data, &[1_300, 2_000]);
    let est = DpLinearRegression::builder().epsilon(0.4).build();

    let mut session = PrivacySession::with_budget(1.0).unwrap();
    let mut shards = in_memory(&parts);
    let mut rng = StdRng::seed_from_u64(9);
    let models = session
        .fit_disjoint_shards(&est, &mut shards, &mut rng)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let reference: Vec<_> = parts
        .iter()
        .map(|p| est.fit(p, &mut rng).unwrap())
        .collect();
    assert_eq!(models, reference, "released shard models drifted");

    // k disjoint shards at ε each cost exactly one ε-fit.
    let mut one_fit = PrivacySession::with_budget(1.0).unwrap();
    one_fit.fit(&est, &data, &mut rng).unwrap();
    assert_eq!(session.num_fits(), one_fit.num_fits());
    assert_eq!(session.spent_epsilon(), one_fit.spent_epsilon());
    assert_eq!(session.remaining_epsilon(), one_fit.remaining_epsilon());

    // The single-model union entry point debits once and is transport-
    // deterministic.
    let mut session = PrivacySession::with_budget(1.0).unwrap();
    let mut shards = in_memory(&parts);
    let mut rng = StdRng::seed_from_u64(9);
    let union = session.fit_sharded(&est, &mut shards, &mut rng).unwrap();
    assert_eq!(session.num_fits(), 1);
    let mut shards = in_memory(&parts);
    let mut rng = StdRng::seed_from_u64(9);
    assert_eq!(union, est.fit_sharded(&mut shards, &mut rng).unwrap());
}

/// `data` cut into consecutive shards at the row indices `cuts`.
fn cut(data: &Dataset, cuts: &[usize]) -> Vec<Dataset> {
    let idx: Vec<usize> = (0..data.n()).collect();
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(cuts.iter().copied())
        .chain(std::iter::once(data.n()))
        .collect();
    bounds
        .windows(2)
        .map(|w| data.subset(&idx[w[0]..w[1]]).unwrap())
        .collect()
}

/// One in-memory source per shard.
fn in_memory(parts: &[Dataset]) -> Vec<InMemorySource<'_>> {
    parts.iter().map(InMemorySource::new).collect()
}

/// Runs `f` over `parts` as dyn in-memory shards.
fn with_dyn_shards<R>(
    parts: &[Dataset],
    f: impl FnOnce(&mut [&mut (dyn RowSource + Send)]) -> R,
) -> R {
    let mut sources = in_memory(parts);
    let mut shards: Vec<&mut (dyn RowSource + Send)> = sources
        .iter_mut()
        .map(|s| s as &mut (dyn RowSource + Send))
        .collect();
    f(&mut shards)
}

/// The trait-level `DpEstimator::fit_sharded` over `parts` as dyn
/// in-memory shards, at `seed`.
fn fit_dyn_shards<E: DpEstimator + ?Sized>(
    est: &E,
    parts: &[Dataset],
    seed: u64,
) -> Result<E::Model, FmError> {
    with_dyn_shards(parts, |shards| {
        DpEstimator::fit_sharded(est, shards, &mut StdRng::seed_from_u64(seed))
    })
}

/// Yields a row range of a dataset shared through an `Rc`, so it is not
/// `Send`.
struct RcShard {
    data: std::rc::Rc<Dataset>,
    rows: std::ops::Range<usize>,
}

impl RowSource for RcShard {
    fn dim(&self) -> usize {
        self.data.d()
    }

    fn next_block(
        &mut self,
        max_rows: usize,
    ) -> functional_mechanism::data::Result<Option<RowBlock>> {
        if self.rows.is_empty() {
            return Ok(None);
        }
        let d = self.data.d();
        let lo = self.rows.start;
        let hi = self.rows.end.min(lo + max_rows.max(1));
        self.rows.start = hi;
        let xs = self.data.x().as_slice()[lo * d..hi * d].to_vec();
        let ys = self.data.y()[lo..hi].to_vec();
        Ok(Some(RowBlock::new(xs, ys, d).expect("consistent shapes")))
    }
}

#[test]
fn fit_sharded_takes_shards_that_are_not_send() {
    // The shards are drained on the calling thread, so `fit_sharded`
    // asks for no `Send`.
    let mut r = StdRng::seed_from_u64(22_022);
    let data = std::rc::Rc::new(synth::linear_dataset(&mut r, 9_000, 3, 0.1));
    let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(0.5));
    let whole = est.fit(&data, &mut StdRng::seed_from_u64(5)).unwrap();
    let mut shards: Vec<RcShard> = [0..2_500, 2_500..7_000, 7_000..9_000]
        .into_iter()
        .map(|rows| RcShard {
            data: std::rc::Rc::clone(&data),
            rows,
        })
        .collect();
    let union = est.fit_sharded(&mut shards, &mut StdRng::seed_from_u64(5));
    assert_eq!(whole, union.unwrap());
}

#[test]
fn fit_sharded_releases_the_bits_of_fit_on_the_concatenation() {
    // Algorithm 1 reads the data through one sum, so every union entry
    // point releases exactly what `fit` releases on the concatenated
    // rows. The cuts leave a shard shorter than a chunk, end shards on
    // the 4,096-row chunk boundaries and split others mid-chunk.
    let mut r = StdRng::seed_from_u64(21_021);
    let data = synth::linear_dataset(&mut r, 11_000, 3, 0.1);
    let logistic = synth::logistic_dataset(&mut r, 11_000, 3, 8.0);
    let quartic_data = synth::linear_dataset(&mut r, 9_000, 2, 0.05);
    for cuts in [[1_000, 4_096, 6_000], [100, 8_192, 10_999]] {
        let parts = cut(&data, &cuts);
        let logistic_parts = cut(&logistic, &cuts);
        for intercept in [false, true] {
            let what = format!("cuts={cuts:?} intercept={intercept}");
            let config = FitConfig::new().epsilon(0.5).fit_intercept(intercept);
            let est = FmEstimator::new(LinearObjective, config);
            let whole = est.fit(&data, &mut StdRng::seed_from_u64(3)).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let sharded = est.fit_sharded(&mut in_memory(&parts), &mut rng);
            assert_eq!(whole, sharded.unwrap(), "FmEstimator {what}");
            assert_eq!(
                whole,
                fit_dyn_shards(&est, &parts, 3).unwrap(),
                "dyn {what}"
            );

            // Each session entry point debits once.
            let mut session = PrivacySession::with_budget(2.0).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let union = session.fit_sharded(&est, &mut in_memory(&parts), &mut rng);
            assert_eq!(whole, union.unwrap(), "session {what}");
            assert_eq!(session.num_fits(), 1);
            let mut rng = StdRng::seed_from_u64(3);
            let union = with_dyn_shards(&parts, |shards| {
                session.fit_sharded_dyn(&est, shards, &mut rng)
            });
            assert_eq!(whole, union.unwrap(), "session dyn {what}");
            assert_eq!(session.num_fits(), 2);

            let taylor = DpLogisticRegression::builder()
                .epsilon(0.5)
                .fit_intercept(intercept)
                .build();
            let whole = taylor
                .fit(&logistic, &mut StdRng::seed_from_u64(4))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(4);
            let sharded = taylor.fit_sharded(&mut in_memory(&logistic_parts), &mut rng);
            assert_eq!(whole, sharded.unwrap(), "logistic {what}");
            let via_trait = fit_dyn_shards(&taylor, &logistic_parts, 4).unwrap();
            assert_eq!(whole, via_trait, "logistic dyn {what}");
        }

        // The quartic release may legitimately fail at this size; the
        // union must then fail with it.
        let parts = cut(&quartic_data, &cuts[..2]);
        let est = SparseFmEstimator::new(
            QuarticObjective,
            FitConfig::new()
                .epsilon(64.0)
                .strategy(Strategy::FailIfUnbounded),
        );
        let whole = est.fit(&quartic_data, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(5);
        match (whole, est.fit_sharded(&mut in_memory(&parts), &mut rng)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "quartic cuts={cuts:?}"),
            (Err(_), Err(_)) => {}
            other => panic!("quartic outcome mismatch {other:?}"),
        }
    }
}

#[test]
fn fit_sharded_reports_errors_as_fit_stream_over_a_sharded_source_does() {
    let mut r = StdRng::seed_from_u64(21_022);
    let data = synth::linear_dataset(&mut r, 6_000, 3, 0.1);
    let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(0.5));
    for bad_shard in 0..3 {
        // A feature outside the normalized domain, mid-chunk in shard k.
        let mut parts = cut(&data, &[1_000, 4_500]);
        let bad = &parts[bad_shard];
        let mut xs = bad.x().as_slice().to_vec();
        xs[(bad.n() / 2) * bad.d()] = 2.0;
        let x = functional_mechanism::linalg::Matrix::from_vec(bad.n(), bad.d(), xs).unwrap();
        parts[bad_shard] = Dataset::new(x, bad.y().to_vec()).unwrap();

        let mut rng = StdRng::seed_from_u64(6);
        let sharded = est
            .fit_sharded(&mut in_memory(&parts), &mut rng)
            .unwrap_err();
        let label = format!("shard-{bad_shard}");
        assert!(
            matches!(&sharded, FmError::Data(DataError::InShard { shard, .. }) if *shard == label),
            "{sharded:?}"
        );
        let mut union = ShardedSource::new(in_memory(&parts)).unwrap();
        let streamed = est.fit_stream(&mut union, &mut rng).unwrap_err();
        assert_eq!(format!("{sharded:?}"), format!("{streamed:?}"));
        let via_trait = fit_dyn_shards(&est, &parts, 6).unwrap_err();
        assert_eq!(format!("{sharded:?}"), format!("{via_trait:?}"));
    }

    // An empty shard list is a typed data error on every entry point.
    let mut none: [InMemorySource; 0] = [];
    let mut rng = StdRng::seed_from_u64(6);
    let err = est.fit_sharded(&mut none, &mut rng).unwrap_err();
    assert!(
        matches!(err, FmError::Data(DataError::InvalidParameter { .. })),
        "{err:?}"
    );
    let err = fit_dyn_shards(&est, &[], 6).unwrap_err();
    assert!(
        matches!(err, FmError::Data(DataError::InvalidParameter { .. })),
        "{err:?}"
    );
}

#[test]
fn sparse_fit_sharded_single_shard_matches_fit() {
    let mut r = StdRng::seed_from_u64(2_718);
    let data = synth::linear_dataset(&mut r, 400, 2, 0.05);
    let est = SparseFmEstimator::new(
        QuarticObjective,
        FitConfig::new()
            .epsilon(64.0)
            .strategy(Strategy::FailIfUnbounded),
    );
    let mut rng = StdRng::seed_from_u64(12);
    let whole = est.fit(&data, &mut rng);
    let mut rng = StdRng::seed_from_u64(12);
    let mut one = [InMemorySource::new(&data)];
    let sharded = est.fit_sharded(&mut one, &mut rng);
    match (whole, sharded) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        other => panic!("outcome mismatch {other:?}"),
    }
    // Multi-shard: transport-invariant across jagged vs in-memory shards.
    let idx: Vec<usize> = (0..data.n()).collect();
    let parts = [
        data.subset(&idx[..150]).unwrap(),
        data.subset(&idx[150..]).unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(12);
    let mut a: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let from_memory = est.fit_sharded(&mut a, &mut rng);
    let mut rng = StdRng::seed_from_u64(12);
    let mut b: Vec<JaggedSource> = parts
        .iter()
        .map(|p| JaggedSource::new(p, 0, p.n(), 0xBEEF))
        .collect();
    let from_jagged = est.fit_sharded(&mut b, &mut rng);
    match (from_memory, from_jagged) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        other => panic!("outcome mismatch {other:?}"),
    }
}

#[test]
fn trait_level_fit_sharded_matches_the_inherent_assembly_path() {
    // The DpEstimator-level assembled-fit hook: dispatching through the
    // trait object surface (dyn shards, dyn RNG) must stream the union
    // through the same accumulator as the inherent fit_sharded and
    // release exactly its coefficients.
    let mut r = StdRng::seed_from_u64(77_001);
    let data = synth::linear_dataset(&mut r, 2_000, 3, 0.1);
    let idx: Vec<usize> = (0..data.n()).collect();
    let parts = [
        data.subset(&idx[..700]).unwrap(),
        data.subset(&idx[700..1_500]).unwrap(),
        data.subset(&idx[1_500..]).unwrap(),
    ];
    for intercept in [false, true] {
        let est = FmEstimator::new(
            LinearObjective,
            FitConfig::new().epsilon(1.0).fit_intercept(intercept),
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
        let inherent = est.fit_sharded(&mut shards, &mut rng).unwrap();

        let mut rng = StdRng::seed_from_u64(8);
        let mut a = InMemorySource::new(&parts[0]);
        let mut b = InMemorySource::new(&parts[1]);
        let mut c = InMemorySource::new(&parts[2]);
        let mut dyn_shards: Vec<&mut (dyn RowSource + Send)> = vec![&mut a, &mut b, &mut c];
        let via_trait = DpEstimator::fit_sharded(&est, &mut dyn_shards, &mut rng).unwrap();
        assert_eq!(inherent, via_trait, "intercept={intercept}");
    }

    // Same pin for the general-degree estimator.
    let est = SparseFmEstimator::new(
        QuarticObjective,
        FitConfig::new()
            .epsilon(64.0)
            .strategy(Strategy::FailIfUnbounded),
    );
    let mut rng = StdRng::seed_from_u64(12);
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let inherent = est.fit_sharded(&mut shards, &mut rng);
    let mut rng = StdRng::seed_from_u64(12);
    let mut a = InMemorySource::new(&parts[0]);
    let mut b = InMemorySource::new(&parts[1]);
    let mut c = InMemorySource::new(&parts[2]);
    let mut dyn_shards: Vec<&mut (dyn RowSource + Send)> = vec![&mut a, &mut b, &mut c];
    let via_trait = DpEstimator::fit_sharded(&est, &mut dyn_shards, &mut rng);
    match (inherent, via_trait) {
        (Ok(x), Ok(y)) => assert_eq!(x, y),
        (Err(_), Err(_)) => {}
        other => panic!("outcome mismatch {other:?}"),
    }

    // And for the families behind FamilyEstimator: the trait call must
    // group the sums exactly as the inherent call does.
    let logistic = synth::logistic_dataset(&mut r, 2_000, 3, 8.0);
    let counts = synth::poisson_dataset(&mut r, 2_000, 3, 8.0);
    for intercept in [false, true] {
        let taylor = DpLogisticRegression::builder()
            .fit_intercept(intercept)
            .build();
        assert_family_dyn_sharding_matches("logistic taylor", &taylor, &logistic);
        let chebyshev = DpLogisticRegression::builder()
            .approximation(Approximation::Chebyshev { half_width: 1.0 })
            .fit_intercept(intercept)
            .build();
        assert_family_dyn_sharding_matches("logistic chebyshev", &chebyshev, &logistic);
        let poisson = DpPoissonRegression::builder()
            .fit_intercept(intercept)
            .build();
        assert_family_dyn_sharding_matches("poisson", &poisson, &counts);
        let median = DpMedianRegression::builder()
            .fit_intercept(intercept)
            .build();
        assert_family_dyn_sharding_matches("median", &median, &data);
    }
}

/// Asserts that a family estimator's dyn `DpEstimator::fit_sharded`
/// releases exactly what its inherent `fit_sharded` releases, over
/// 700/800/500-row shards of `data`.
fn assert_family_dyn_sharding_matches<F: Family>(
    what: &str,
    est: &FamilyEstimator<F>,
    data: &Dataset,
) where
    <F::Objective as RegressionObjective>::Model: PartialEq + std::fmt::Debug,
{
    let idx: Vec<usize> = (0..data.n()).collect();
    let parts = [
        data.subset(&idx[..700]).unwrap(),
        data.subset(&idx[700..1_500]).unwrap(),
        data.subset(&idx[1_500..]).unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(8);
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let inherent = est.fit_sharded(&mut shards, &mut rng).unwrap();

    let mut rng = StdRng::seed_from_u64(8);
    let mut a = InMemorySource::new(&parts[0]);
    let mut b = InMemorySource::new(&parts[1]);
    let mut c = InMemorySource::new(&parts[2]);
    let mut dyn_shards: Vec<&mut (dyn RowSource + Send)> = vec![&mut a, &mut b, &mut c];
    let via_trait = DpEstimator::fit_sharded(est, &mut dyn_shards, &mut rng).unwrap();
    assert_eq!(
        inherent,
        via_trait,
        "{what} intercept={}",
        est.config().fit_intercept
    );
}

#[test]
fn baselines_join_the_sharded_path_through_fit_sharded_dyn() {
    // Estimators without a native streaming pipeline fall back to the
    // trait default (materialize the shard union, fit once) — so a
    // baseline fitted through the session's dyn entry point must match
    // its direct fit on the concatenated dataset exactly.
    use functional_mechanism::baselines::noprivacy::LinearRegression;
    let mut r = StdRng::seed_from_u64(77_002);
    let data = synth::linear_dataset(&mut r, 1_200, 2, 0.05);
    let idx: Vec<usize> = (0..data.n()).collect();
    let parts = [
        data.subset(&idx[..500]).unwrap(),
        data.subset(&idx[500..]).unwrap(),
    ];

    let ols = LinearRegression::new();
    let direct = ols.fit(&data).unwrap();

    let mut session = PrivacySession::with_budget(1.0).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut a = InMemorySource::new(&parts[0]);
    let mut b = InMemorySource::new(&parts[1]);
    let mut shards: Vec<&mut (dyn RowSource + Send)> = vec![&mut a, &mut b];
    let union = session
        .fit_sharded_dyn(&ols, &mut shards, &mut rng)
        .unwrap();
    assert_eq!(direct, union);
    // Non-private baseline: the session debits nothing.
    assert_eq!(session.num_fits(), 0);
    assert_eq!(session.spent_epsilon(), 0.0);

    // A private FM estimator through the same dyn call site debits once
    // and matches its inherent sharded fit.
    let est = DpLinearRegression::builder().epsilon(0.4).build();
    let mut rng = StdRng::seed_from_u64(9);
    let mut a = InMemorySource::new(&parts[0]);
    let mut b = InMemorySource::new(&parts[1]);
    let mut shards: Vec<&mut (dyn RowSource + Send)> = vec![&mut a, &mut b];
    let dp_union = session
        .fit_sharded_dyn(&est, &mut shards, &mut rng)
        .unwrap();
    assert_eq!(session.num_fits(), 1);
    let mut rng = StdRng::seed_from_u64(9);
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    assert_eq!(dp_union, est.fit_sharded(&mut shards, &mut rng).unwrap());
}

#[cfg(feature = "parallel")]
#[test]
fn prefetched_source_is_bit_identical_at_any_depth_and_block_size() {
    use functional_mechanism::data::stream::PrefetchSource;
    // PrefetchSource is pure transport: a fit over a prefetched CSV
    // stream must release the exact bits of the materialized fit, at any
    // read-ahead block size and channel depth.
    let mut r = StdRng::seed_from_u64(1_234);
    let data = synth::linear_dataset(&mut r, 1_500, 3, 0.1);
    let mut csv = Vec::new();
    functional_mechanism::data::csv::write_dataset_to(&data, &mut csv).unwrap();
    let materialized = functional_mechanism::data::csv::read_dataset_from(&csv[..]).unwrap();
    let est = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(1.0));
    let mut rng = StdRng::seed_from_u64(21);
    let reference = est.fit(&materialized, &mut rng).unwrap();
    for block_rows in [7usize, 256, 4096, 10_000] {
        for depth in [1usize, 2, 8] {
            let inner = CsvStreamSource::from_reader(std::io::Cursor::new(csv.clone())).unwrap();
            let mut pf = PrefetchSource::spawn(inner, block_rows, depth);
            let mut rng = StdRng::seed_from_u64(21);
            let streamed = est.fit_stream(&mut pf, &mut rng).unwrap();
            assert_eq!(reference, streamed, "block_rows={block_rows} depth={depth}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CSV header mapper is equivalent to reading a pre-permuted
    /// file: for any column permutation (and an injected non-numeric junk
    /// column), `select_columns` over the shuffled layout yields the
    /// canonical dataset bit for bit.
    #[test]
    fn csv_header_mapper_equivalent_to_pre_permuted_csv(
        seed in 0u64..10_000,
        n in 1usize..60,
        d in 1usize..5,
        junk_slot in 0usize..6,
    ) {
        let mut r = StdRng::seed_from_u64(seed);
        let data = synth::linear_dataset(&mut r, n, d, 0.1);

        // Canonical layout (features in order, label last) through the
        // plain reader: the reference.
        let mut canonical = Vec::new();
        functional_mechanism::data::csv::write_dataset_to(&data, &mut canonical).unwrap();
        let mut src = CsvStreamSource::from_reader(&canonical[..]).unwrap();
        let reference = functional_mechanism::data::stream::materialize(&mut src).unwrap();

        // Shuffled layout: permute the d+1 data columns by a seeded
        // Fisher–Yates and insert one non-numeric junk column.
        let mut order: Vec<usize> = (0..=d).collect(); // d = label column
        let mut state = seed | 1;
        let mut rand_below = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as usize) % m
        };
        for i in (1..order.len()).rev() {
            order.swap(i, rand_below(i + 1));
        }
        let junk_at = junk_slot % (d + 2);
        let names = data.feature_names();
        let mut header: Vec<String> = order
            .iter()
            .map(|&c| if c == d { "label".to_string() } else { names[c].clone() })
            .collect();
        header.insert(junk_at, "junk".to_string());
        let mut shuffled = header.join(",");
        shuffled.push('\n');
        for (x, y) in data.tuples() {
            let mut fields: Vec<String> = order
                .iter()
                .map(|&c| if c == d { format!("{y}") } else { format!("{}", x[c]) })
                .collect();
            fields.insert(junk_at, "not-a-number".to_string());
            shuffled.push_str(&fields.join(","));
            shuffled.push('\n');
        }

        let feature_names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut src = CsvStreamSource::from_reader(shuffled.as_bytes())
            .unwrap()
            .select_columns(&feature_names, "label")
            .unwrap();
        prop_assert_eq!(src.dim(), d);
        let mapped = functional_mechanism::data::stream::materialize(&mut src).unwrap();

        prop_assert_eq!(mapped.y(), reference.y());
        for (a, b) in mapped.x().as_slice().iter().zip(reference.x().as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn in_memory_source_round_trip_is_bit_identical_for_every_family() {
    // The plainest statement of the tentpole: wrapping the dataset in an
    // InMemorySource and streaming it is indistinguishable from fit().
    let mut r = StdRng::seed_from_u64(515);
    let linear = synth::linear_dataset(&mut r, 1_000, 4, 0.1);
    let logistic = synth::logistic_dataset(&mut r, 1_000, 4, 4.0);

    let lin = FmEstimator::new(LinearObjective, FitConfig::new().epsilon(1.0));
    let mut a = StdRng::seed_from_u64(1);
    let mut b = StdRng::seed_from_u64(1);
    assert_eq!(
        lin.fit(&linear, &mut a).unwrap(),
        lin.fit_stream(&mut InMemorySource::new(&linear), &mut b)
            .unwrap()
    );

    let log = DpLogisticRegression::builder().epsilon(1.0).build();
    let mut a = StdRng::seed_from_u64(2);
    let mut b = StdRng::seed_from_u64(2);
    assert_eq!(
        log.fit(&logistic, &mut a).unwrap(),
        log.fit_stream(&mut InMemorySource::new(&logistic), &mut b)
            .unwrap()
    );

    let med = DpMedianRegression::builder().epsilon(1.0).build();
    let mut a = StdRng::seed_from_u64(3);
    let mut b = StdRng::seed_from_u64(3);
    assert_eq!(
        med.fit(&linear, &mut a).unwrap(),
        med.fit_stream(&mut InMemorySource::new(&linear), &mut b)
            .unwrap()
    );
}
