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

use functional_mechanism::core::assembly::{assemble_shards, CoefficientAccumulator};
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
use functional_mechanism::core::Strategy;
use functional_mechanism::data::stream::{
    BlockVisitor, CsvStreamSource, InMemorySource, RowBlock, RowSource, ShardedSource,
};
use functional_mechanism::data::{synth, Dataset};
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
fn sharded_assembly_matches_per_shard_serial_reference() {
    // `assemble_shards` (concurrent under the `parallel` feature) must
    // equal one serial CoefficientAccumulator per shard, exactly — the
    // reference is feature-independent, so running this suite ± parallel
    // pins serial ≡ parallel bit-identity of the shard partials.
    let mut r = StdRng::seed_from_u64(4_242);
    let data = synth::linear_dataset(&mut r, 3_000, 3, 0.1);
    let idx: Vec<usize> = (0..data.n()).collect();
    let parts = [
        data.subset(&idx[..1_000]).unwrap(),
        data.subset(&idx[1_000..1_024]).unwrap(), // deliberately ragged
        data.subset(&idx[1_024..]).unwrap(),
    ];
    for chunk_rows in [64usize, 4096] {
        let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
        let got = assemble_shards(&LinearObjective, &mut shards, chunk_rows).unwrap();
        assert_eq!(got.len(), parts.len());
        for (shard, (rows, q)) in parts.iter().zip(&got) {
            assert_eq!(*rows, shard.n());
            // Serial reference over jagged blocks: the transport must not
            // matter, only the shard's rows and the chunk grid.
            let mut acc =
                CoefficientAccumulator::with_chunk_rows(&LinearObjective, shard.d(), chunk_rows);
            acc.absorb(&mut JaggedSource::new(shard, 0, shard.n(), 99))
                .unwrap();
            let reference = acc.finish().unwrap();
            assert_eq!(q.as_ref(), Some(&reference), "chunk_rows={chunk_rows}");
        }
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
fn session_parallel_disjoint_shards_match_the_serial_path_bitwise() {
    // The flagship parallel-shard pin: fit_disjoint_shards_parallel
    // (concurrent assembly, serial releases) must release exactly the
    // models of the serial fit_disjoint_shards at the same seed — in both
    // builds — and keep the same parallel-composition accounting.
    let mut r = StdRng::seed_from_u64(606);
    let data = synth::linear_dataset(&mut r, 3_000, 2, 0.1);
    let idx: Vec<usize> = (0..data.n()).collect();
    let parts = [
        data.subset(&idx[..1_300]).unwrap(),
        data.subset(&idx[1_300..2_000]).unwrap(),
        data.subset(&idx[2_000..]).unwrap(),
    ];
    let est = DpLinearRegression::builder().epsilon(0.4).build();

    let mut serial_session = PrivacySession::with_budget(1.0).unwrap();
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let serial = serial_session
        .fit_disjoint_shards(&est, &mut shards, &mut rng)
        .unwrap();

    let mut parallel_session = PrivacySession::with_budget(1.0).unwrap();
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let parallel = parallel_session
        .fit_disjoint_shards_parallel(&est, &mut shards, &mut rng)
        .unwrap();

    assert_eq!(serial, parallel, "released shard models drifted");
    assert_eq!(serial_session.num_fits(), parallel_session.num_fits());
    assert_eq!(
        serial_session.spent_epsilon(),
        parallel_session.spent_epsilon()
    );
    assert_eq!(
        serial_session.remaining_epsilon(),
        parallel_session.remaining_epsilon()
    );

    // The single-model union entry point debits once and is transport-
    // deterministic.
    let mut session = PrivacySession::with_budget(1.0).unwrap();
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let union = session.fit_sharded(&est, &mut shards, &mut rng).unwrap();
    assert_eq!(session.num_fits(), 1);
    let mut shards: Vec<InMemorySource> = parts.iter().map(InMemorySource::new).collect();
    let mut rng = StdRng::seed_from_u64(9);
    assert_eq!(union, est.fit_sharded(&mut shards, &mut rng).unwrap());
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
    // trait object surface (dyn shards, dyn RNG) must take the native
    // per-shard assembly path for FM estimators and release exactly the
    // inherent fit_sharded's coefficients.
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

    // Same pin for the general-degree override.
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
    // assemble per shard, not regroup the sums over the shard union.
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
