//! Property-based tests for the data substrate: the normalization contract
//! (which the entire privacy argument rests on), CV partition laws, CSV
//! round-trips, and metric identities.

use fm_data::cv::KFold;
use fm_data::normalize::Normalizer;
use fm_data::{csv, metrics, sampling, Dataset};
use fm_linalg::Matrix;
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A random raw dataset with per-feature domains, for normalizer fuzzing.
fn raw_dataset() -> impl Strategy<Value = (Dataset, Vec<(f64, f64)>, (f64, f64))> {
    (1usize..6, 1usize..30).prop_flat_map(|(d, n)| {
        let bounds = proptest::collection::vec((-100.0..0.0f64, 1.0..100.0f64), d);
        let label_bounds = (-50.0..0.0f64, 1.0..50.0f64);
        (
            bounds,
            label_bounds,
            proptest::collection::vec(-200.0..200.0f64, n * (d + 1)),
        )
            .prop_map(move |(bounds, label_bounds, values)| {
                let x = Matrix::from_vec(n, d, values[..n * d].to_vec()).unwrap();
                let y = values[n * d..].to_vec();
                (Dataset::new(x, y).unwrap(), bounds, label_bounds)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Footnote 1's guarantee: *whatever* raw values arrive (even outside
    /// the declared domain — they are clamped), the normalized dataset
    /// satisfies Definition 1's contract exactly.
    #[test]
    fn normalizer_always_produces_contract_data((raw, bounds, label_bounds) in raw_dataset()) {
        let norm = Normalizer::from_bounds(bounds, label_bounds).unwrap();
        let linear = norm.normalize_linear(&raw).unwrap();
        linear.check_normalized_linear().unwrap();
        prop_assert!(linear.max_feature_norm() <= 1.0 + 1e-9);

        let logistic = norm.normalize_logistic(&raw, 0.0).unwrap();
        logistic.check_normalized_logistic().unwrap();
    }

    #[test]
    fn label_map_roundtrips_inside_domain(
        lo in -100.0..0.0f64,
        width in 1.0..200.0f64,
        t in 0.0..1.0f64,
    ) {
        let hi = lo + width;
        let norm = Normalizer::from_bounds(vec![(0.0, 1.0)], (lo, hi)).unwrap();
        let y = lo + t * width;
        let round = norm.denormalize_label(norm.normalize_label(y));
        prop_assert!((round - y).abs() <= 1e-9 * (1.0 + y.abs()));
        // Normalized values live in [−1, 1].
        let z = norm.normalize_label(y);
        prop_assert!((-1.0..=1.0).contains(&z));
    }

    #[test]
    fn kfold_is_a_partition(n in 6usize..200, k in 2usize..6, seed in 0u64..1000) {
        prop_assume!(k <= n);
        let mut r = rng(seed);
        let kf = KFold::new(n, k, &mut r).unwrap();
        let mut seen = vec![0u32; n];
        for fold in kf.folds() {
            for &i in &fold.test {
                seen[i] += 1;
            }
            // train ∪ test covers all rows exactly once per fold.
            prop_assert_eq!(fold.train.len() + fold.test.len(), n);
            let mut all: Vec<usize> = fold.train.iter().chain(&fold.test).copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
        // Every row appears in exactly one test fold.
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn subsample_sizes_and_provenance(n in 5usize..100, rate in 0.05..1.0f64, seed in 0u64..100) {
        let x = Matrix::from_fn(n, 1, |r, _| r as f64);
        let ds = Dataset::new(x, (0..n).map(|i| i as f64).collect()).unwrap();
        let mut r = rng(seed);
        let sub = sampling::subsample(&ds, rate, &mut r).unwrap();
        prop_assert_eq!(sub.n(), ((rate * n as f64).ceil() as usize).clamp(1, n));
        // Every sampled row exists in the source (content check) and rows
        // are distinct (sampling without replacement).
        let mut labels: Vec<f64> = sub.y().to_vec();
        labels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        labels.dedup();
        prop_assert_eq!(labels.len(), sub.n());
        prop_assert!(sub.y().iter().all(|&v| v >= 0.0 && v < n as f64));
    }

    #[test]
    fn csv_roundtrip_preserves_everything(
        (n, d) in (1usize..20, 1usize..5),
        seed in 0u64..100,
    ) {
        let mut r = rng(seed);
        let data = fm_data::synth::linear_dataset(&mut r, n, d, 0.1);
        let mut buf = Vec::new();
        csv::write_dataset_to(&data, &mut buf).unwrap();
        let back = csv::read_dataset_from(&buf[..]).unwrap();
        prop_assert_eq!(back.n(), data.n());
        prop_assert_eq!(back.d(), data.d());
        for (a, b) in back.y().iter().zip(data.y()) {
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()));
        }
        for (a, b) in back.x().as_slice().iter().zip(data.x().as_slice()) {
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn mse_identities(preds in proptest::collection::vec(-5.0..5.0f64, 1..32)) {
        // MSE(x, x) = 0; MSE is symmetric; shifting by c adds c².
        let targets: Vec<f64> = preds.iter().map(|v| v + 1.5).collect();
        prop_assert!(metrics::mse(&preds, &preds) == 0.0);
        let a = metrics::mse(&preds, &targets);
        let b = metrics::mse(&targets, &preds);
        prop_assert!((a - b).abs() <= 1e-12);
        prop_assert!((a - 2.25).abs() <= 1e-9);
    }

    #[test]
    fn misclassification_complements_accuracy(
        probs in proptest::collection::vec(0.0..1.0f64, 1..64),
        seed in 0u64..100,
    ) {
        let mut r = rng(seed);
        let labels: Vec<f64> = probs.iter().map(|_| f64::from(rand::Rng::gen_bool(&mut r, 0.5))).collect();
        let err = metrics::misclassification_rate(&probs, &labels);
        let acc = metrics::accuracy(&probs, &labels);
        prop_assert!((err + acc - 1.0).abs() <= 1e-12);
        prop_assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn r_squared_never_exceeds_one(
        targets in proptest::collection::vec(-5.0..5.0f64, 2..32),
        noise in proptest::collection::vec(-1.0..1.0f64, 2..32),
    ) {
        let n = targets.len().min(noise.len());
        let preds: Vec<f64> = targets[..n].iter().zip(&noise[..n]).map(|(t, e)| t + e).collect();
        let r2 = metrics::r_squared(&preds, &targets[..n]);
        prop_assert!(r2 <= 1.0 + 1e-12);
    }

    #[test]
    fn select_features_preserves_rows(
        (n, d) in (2usize..20, 2usize..5),
        seed in 0u64..100,
    ) {
        let mut r = rng(seed);
        let data = fm_data::synth::linear_dataset(&mut r, n, d, 0.1);
        let names: Vec<&str> = data.feature_names().iter().map(String::as_str).collect();
        // Reverse the column order.
        let reversed: Vec<&str> = names.iter().rev().copied().collect();
        let sel = data.select_features(&reversed).unwrap();
        prop_assert_eq!(sel.n(), data.n());
        prop_assert_eq!(sel.d(), d);
        for i in 0..n {
            for j in 0..d {
                prop_assert_eq!(sel.x()[(i, j)], data.x()[(i, d - 1 - j)]);
            }
        }
    }

    #[test]
    fn census_records_respect_their_schema(seed in 0u64..200, us in proptest::bool::ANY) {
        // Every generated attribute value must lie inside its declared
        // public domain — the property the footnote-1 normalizer (and thus
        // the whole sensitivity analysis) assumes.
        use fm_data::census::{self, CensusProfile};
        let profile = if us { CensusProfile::us() } else { CensusProfile::brazil() };
        let mut r = rng(seed);
        let data = census::generate(&profile, 50, &mut r).unwrap();
        let schema = census::schema(&profile);
        for (row, _) in data.tuples() {
            for (j, name) in data.feature_names().iter().enumerate() {
                let attr = schema.attribute(name).unwrap();
                prop_assert!(
                    attr.kind.contains(row[j]),
                    "{name} = {} outside declared domain",
                    row[j]
                );
            }
        }
        // Income is positive and finite.
        prop_assert!(data.y().iter().all(|&y| y.is_finite() && y > 0.0));
    }

    #[test]
    fn census_generation_is_seed_deterministic(seed in 0u64..200) {
        use fm_data::census::{self, CensusProfile};
        let gen = |s: u64| {
            let mut r = rng(s);
            census::generate(&CensusProfile::us(), 30, &mut r).unwrap()
        };
        let a = gen(seed);
        let b = gen(seed);
        prop_assert_eq!(a.y(), b.y());
        prop_assert!(a.x().approx_eq(b.x(), 0.0));
    }

    #[test]
    fn train_test_split_is_a_partition(
        n in 4usize..100,
        frac in 0.1..0.9f64,
        seed in 0u64..100,
    ) {
        let mut r = rng(seed);
        let data = fm_data::synth::linear_dataset(&mut r, n, 2, 0.1);
        if let Ok((train, test)) = fm_data::cv::train_test_split(&data, frac, &mut r) {
            prop_assert_eq!(train.n() + test.n(), n);
            // Multisets of labels must match the original exactly.
            let mut all: Vec<f64> = train.y().iter().chain(test.y()).copied().collect();
            let mut orig = data.y().to_vec();
            all.sort_by(f64::total_cmp);
            orig.sort_by(f64::total_cmp);
            prop_assert_eq!(all, orig);
        }
    }

    #[test]
    fn poisson_counts_within_cap(
        n in 1usize..100,
        y_max in 1.0..20.0f64,
        seed in 0u64..100,
    ) {
        let mut r = rng(seed);
        let data = fm_data::synth::poisson_dataset(&mut r, n, 3, y_max);
        prop_assert!(data.check_normalized_counts(y_max).is_ok());
        // Labels are integer counts, except where clipping hit a fractional
        // cap exactly.
        prop_assert!(data
            .y()
            .iter()
            .all(|&y| y >= 0.0 && y <= y_max && (y.fract() == 0.0 || y == y_max)));
    }

    #[test]
    fn intercept_augmentation_contract_and_equivalence(
        n in 1usize..40,
        d in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut r = rng(seed);
        let data = fm_data::synth::linear_dataset(&mut r, n, d, 0.1);
        let aug = data.augment_for_intercept();
        prop_assert_eq!(aug.d(), d + 1);
        prop_assert!(aug.check_normalized_linear().is_ok());
        // Prediction equivalence: x'ᵀ(√2 ω, √2 b) = xᵀω + b for random ω, b.
        let omega: Vec<f64> = (0..d).map(|i| ((i * 13 + 5) % 7) as f64 / 7.0 - 0.5).collect();
        let b = 0.3;
        let mut omega_aug: Vec<f64> =
            omega.iter().map(|w| w * std::f64::consts::SQRT_2).collect();
        omega_aug.push(b * std::f64::consts::SQRT_2);
        for i in 0..n {
            let lhs = fm_linalg::vecops::dot(aug.tuple(i).0, &omega_aug);
            let rhs = fm_linalg::vecops::dot(data.tuple(i).0, &omega) + b;
            prop_assert!((lhs - rhs).abs() <= 1e-12 * (1.0 + rhs.abs()));
        }
    }
}

/// Dirty-CSV line kinds the stream proptests draw from: kinds below it
/// are listed at [`dirty_line`]; it and every kind above are good rows.
const DIRTY_KINDS: u16 = 12;

/// One generated data line (without its line ending): kinds 0–4 and from
/// [`DIRTY_KINDS`] on are good rows; then blank, whitespace-only, a
/// non-numeric field, a short row, a row that is not valid UTF-8, a NaN
/// feature and an infinite label.
fn dirty_line(kind: u16, d: usize, seed: u32) -> Vec<u8> {
    let value = |j: usize| f64::from((seed + 7 * j as u32) % 40) * 0.25 - 5.0;
    let row = |fields: usize| {
        (0..fields)
            .map(|j| format!(" {}", value(j)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let line = match kind {
        5 => String::new(),
        6 => " \t ".to_string(),
        7 => row(d) + ",x",
        8 => row(d),
        9 => return b"1,\xff".to_vec(),
        10 => format!("NaN,{}", row(d)),
        11 => row(d) + ",inf",
        _ => row(d + 1),
    };
    line.into_bytes()
}

/// One block-sized read: a block's rows flattened row-major with the label
/// last (as bits), or an error token (`P<line>` parse, `U` UTF-8).
type Pull = Result<Vec<u64>, String>;

/// The reference reader: `BufRead::lines`, a plain field split and the
/// row-error policy applied line by line.
struct Reference<'a> {
    lines: std::io::Lines<&'a [u8]>,
    line: usize,
    d: usize,
    cap: Option<usize>,
    quarantine: Vec<usize>,
}

impl<'a> Reference<'a> {
    fn new(csv: &'a [u8], d: usize, cap: Option<usize>) -> Self {
        use std::io::BufRead;
        let mut lines = csv.lines();
        lines.next();
        Reference {
            lines,
            line: 1,
            d,
            cap,
            quarantine: Vec::new(),
        }
    }

    fn next_block(&mut self, k: usize) -> Option<Pull> {
        let mut rows = Vec::new();
        let mut n = 0;
        while n < k {
            let Some(line) = self.lines.next() else { break };
            let Ok(line) = line else {
                return Some(Err("U".to_string()));
            };
            self.line += 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Option<Vec<f64>> = line
                .split(',')
                .map(|f| f.trim().parse::<f64>().ok().filter(|v| v.is_finite()))
                .collect();
            match fields {
                Some(fields) if fields.len() == self.d + 1 => {
                    rows.extend(fields.iter().map(|v| v.to_bits()));
                    n += 1;
                }
                _ => match self.cap {
                    Some(cap) if self.quarantine.len() < cap => self.quarantine.push(self.line),
                    _ => return Some(Err(format!("P{}", self.line))),
                },
            }
        }
        (n > 0).then_some(Ok(rows))
    }
}

fn pull_token(e: &fm_data::DataError) -> String {
    match e {
        fm_data::DataError::Parse { line, .. } => format!("P{line}"),
        fm_data::DataError::Io(io) if io.kind() == std::io::ErrorKind::InvalidData => {
            "U".to_string()
        }
        other => panic!("unexpected error kind: {other}"),
    }
}

fn flatten(xs: &[f64], ys: &[f64], d: usize) -> Vec<u64> {
    xs.chunks_exact(d)
        .zip(ys)
        .flat_map(|(x, &y)| {
            x.iter()
                .chain([&y])
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Checks `CsvStreamSource` against the reference reader on one generated
/// file (`lines` of `(kind, seed, CRLF?)`; `policy` 0 is Strict, `n` is
/// `SkipUpTo(n − 1)`): the same rows, block sizes, errors (in file order,
/// resuming after each) and quarantine list, through `next_block` at a
/// cycle of `sizes` and through a `for_each_block` re-entered after each
/// error.
fn check_against_reference(
    d: usize,
    lines: &[(u16, u32, bool)],
    final_newline: bool,
    policy: usize,
    sizes: &[usize],
) {
    use fm_data::stream::{CsvStreamSource, RowErrorPolicy, RowSource};
    let mut csv: Vec<u8> = (0..d)
        .map(|j| format!("f{j},"))
        .collect::<String>()
        .into_bytes();
    csv.extend_from_slice(b"label\n");
    for (i, &(kind, seed, crlf)) in lines.iter().enumerate() {
        csv.extend(dirty_line(kind, d, seed));
        if i + 1 < lines.len() || final_newline {
            csv.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        }
    }
    let cap = policy.checked_sub(1);
    let open = || {
        CsvStreamSource::from_reader(&csv[..])
            .unwrap()
            .with_row_error_policy(cap.map_or(RowErrorPolicy::Strict, RowErrorPolicy::SkipUpTo))
    };
    let max_calls = 2 * lines.len() + 4;

    // Owned blocks at a cycle of sizes.
    let mut reference = Reference::new(&csv, d, cap);
    let mut src = open();
    for call in 0..max_calls {
        let k = sizes[call % sizes.len()];
        let want = reference.next_block(k);
        let got = match src.next_block(k) {
            Ok(block) => block.map(|b| Ok(flatten(b.xs(), b.ys(), d))),
            Err(e) => Some(Err(pull_token(&e))),
        };
        assert_eq!(got, want, "call {call} at {k} rows");
        if want.is_none() {
            break;
        }
    }
    let quarantined: Vec<usize> = src.quarantine().iter().map(|q| q.line).collect();
    assert_eq!(quarantined, reference.quarantine);

    // Borrowed blocks, re-entering the drain after each error.
    let k = sizes[0];
    let mut reference = Reference::new(&csv, d, cap);
    let want: Vec<Pull> = std::iter::from_fn(|| reference.next_block(k))
        .take(max_calls)
        .collect();
    let mut src = open();
    let mut got: Vec<Pull> = Vec::new();
    for _ in 0..max_calls {
        let drained = src.for_each_block(k, &mut |b| {
            got.push(Ok(flatten(b.xs(), b.ys(), d)));
            Ok(())
        });
        match drained {
            Ok(()) => break,
            Err(e) => got.push(Err(pull_token(&e))),
        }
    }
    assert_eq!(got, want);
    let quarantined: Vec<usize> = src.quarantine().iter().map(|q| q.line).collect();
    assert_eq!(quarantined, reference.quarantine);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short files, dirty on about half their lines, at small blocks.
    #[test]
    fn csv_stream_matches_a_reference_lines_reader(
        d in 1usize..4,
        lines in collection::vec((0u16..DIRTY_KINDS, 0u32..1_000, prop_bool::ANY), 0..48),
        final_newline in prop_bool::ANY,
        policy in 0usize..5,
        sizes in collection::vec(1usize..7, 1..4),
    ) {
        check_against_reference(d, &lines, final_newline, policy, &sizes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Long files, dirty on about one line in 600 (one in 4,000 not
    /// UTF-8, which aborts under every policy), at blocks long enough to
    /// be parsed in several ranges and windows.
    #[test]
    fn csv_stream_matches_a_reference_lines_reader_on_long_blocks(
        d in 1usize..4,
        lines in collection::vec(
            (0u16..4_000, 0u32..1_000, prop_bool::ANY),
            2_000..20_000,
        ),
        final_newline in prop_bool::ANY,
        policy in 0usize..200,
        sizes in collection::vec(500usize..10_000, 1..4),
    ) {
        check_against_reference(d, &lines, final_newline, policy, &sizes);
    }
}
