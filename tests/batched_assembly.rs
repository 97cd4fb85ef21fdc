//! Equivalence and determinism suite for the batched coefficient-assembly
//! pipeline (`fm_core::assembly`).
//!
//! The contract under test, for every built-in objective:
//!
//! 1. **Equivalence** — the batched Gram-kernel path produces the same
//!    `(M, α, β)` as the per-tuple reference loop, up to floating-point
//!    regrouping (≤ 1e-12 relative per coefficient).
//! 2. **Chunk-size invariance** — any chunk size yields the same
//!    coefficients to the same tolerance.
//! 3. **Determinism** — re-running assembly is bit-identical, and the
//!    result equals a hand-rolled *sequential* chunked tree reduction
//!    bit-for-bit. Since the parallel build produces exactly the same
//!    per-chunk partials and merges them in the same order, this pins the
//!    worker-count independence guarantee for both feature configurations
//!    (CI runs this suite with and without `--features parallel`).

use functional_mechanism::core::assembly::{
    assemble_per_tuple, assemble_with_chunk_rows, map_reduce_chunks, DEFAULT_CHUNK_ROWS,
};
use functional_mechanism::core::generic::{GeneralLinearObjective, GeneralObjective};
use functional_mechanism::core::linreg::LinearObjective;
use functional_mechanism::core::logreg::{ChebyshevLogisticObjective, LogisticObjective};
use functional_mechanism::core::poisson::PoissonObjective;
use functional_mechanism::core::robust::{HuberObjective, MedianObjective};
use functional_mechanism::core::PolynomialObjective;
use functional_mechanism::data::{synth, Dataset};
use functional_mechanism::poly::QuadraticForm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 3_000;
const D: usize = 13;
/// Relative per-coefficient tolerance for regrouped floating-point sums.
const TOL: f64 = 1e-12;

/// A dataset satisfying the linear contract (‖x‖₂ ≤ 1, y ∈ [−1, 1]).
fn linear_data(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    synth::linear_dataset(&mut rng, N, D, 0.1)
}

/// A dataset with {0, 1} labels on the same feature distribution.
fn logistic_data(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    synth::logistic_dataset(&mut rng, N, D, 4.0)
}

/// A dataset with bounded counts y ∈ [0, 8].
fn count_data(seed: u64) -> Dataset {
    let base = linear_data(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let y: Vec<f64> = (0..base.n())
        .map(|_| f64::from(rng.gen_range(0u32..=8)))
        .collect();
    Dataset::new(base.x().clone(), y).expect("shapes preserved")
}

fn assert_close(batched: &QuadraticForm, reference: &QuadraticForm, what: &str) {
    let db = (batched.beta() - reference.beta()).abs();
    assert!(
        db <= TOL * (1.0 + reference.beta().abs()),
        "{what}: β differs by {db:e}"
    );
    for (j, (a, b)) in batched.alpha().iter().zip(reference.alpha()).enumerate() {
        assert!(
            (a - b).abs() <= TOL * (1.0 + b.abs()),
            "{what}: α[{j}] {a} vs {b}"
        );
    }
    for i in 0..reference.dim() {
        for j in 0..reference.dim() {
            let (a, b) = (batched.m()[(i, j)], reference.m()[(i, j)]);
            assert!(
                (a - b).abs() <= TOL * (1.0 + b.abs()),
                "{what}: M[({i},{j})] {a} vs {b}"
            );
        }
    }
}

fn check_objective(objective: &impl PolynomialObjective, data: &Dataset, what: &str) {
    let reference = assemble_per_tuple(objective, data);

    // 1. The trait's default assemble (batched, default chunking) matches
    //    the per-tuple reference.
    let batched = objective.assemble(data);
    assert_close(&batched, &reference, what);

    // 2. Chunk-size invariance, including degenerate and off-boundary
    //    sizes.
    for chunk in [1usize, 7, 64, 1000, 4096, N, N + 13] {
        let q = assemble_with_chunk_rows(objective, data, chunk);
        assert_close(&q, &reference, &format!("{what} chunk={chunk}"));
    }

    // 3. Bit-exact determinism of the shipped path: re-running assembly
    //    and hand-rolling the same chunking + in-order pairwise tree
    //    reduction sequentially must reproduce the result exactly. The
    //    parallel build computes identical partials and merges them in the
    //    identical order, so equality here is what makes the result
    //    independent of worker count.
    let again = objective.assemble(data);
    assert_eq!(batched, again, "{what}: assembly must be deterministic");

    let d = data.d();
    let xs = data.x().as_slice();
    let ys = data.y();
    let mut partials: Vec<QuadraticForm> = (0..data.n().div_ceil(DEFAULT_CHUNK_ROWS))
        .map(|c| {
            let lo = c * DEFAULT_CHUNK_ROWS;
            let hi = ((c + 1) * DEFAULT_CHUNK_ROWS).min(data.n());
            let mut q = QuadraticForm::zero(d);
            objective.accumulate_batch(&xs[lo * d..hi * d], &ys[lo..hi], d, &mut q);
            q
        })
        .collect();
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(mut left) = it.next() {
            if let Some(right) = it.next() {
                left.merge(right);
            }
            next.push(left);
        }
        partials = next;
    }
    let sequential = partials.pop().expect("non-empty dataset");
    assert_eq!(
        batched, sequential,
        "{what}: shipped assembly must equal the sequential chunked reduction bit-for-bit"
    );
}

#[test]
fn linear_batched_assembly_matches_per_tuple() {
    check_objective(&LinearObjective, &linear_data(11), "linreg");
}

#[test]
fn logistic_batched_assembly_matches_per_tuple() {
    check_objective(&LogisticObjective, &logistic_data(13), "logreg");
}

#[test]
fn chebyshev_batched_assembly_matches_per_tuple() {
    let objective = ChebyshevLogisticObjective::new(1.0).expect("valid width");
    check_objective(&objective, &logistic_data(17), "chebyshev-logreg");
}

#[test]
fn poisson_batched_assembly_matches_per_tuple() {
    let objective = PoissonObjective::taylor(8.0).expect("valid cap");
    check_objective(&objective, &count_data(19), "poisson");
}

#[test]
fn median_batched_assembly_matches_per_tuple() {
    let objective = MedianObjective::new(0.25).expect("valid smoothing");
    check_objective(&objective, &linear_data(21), "median");
}

#[test]
fn huber_batched_assembly_matches_per_tuple() {
    let objective = HuberObjective::new(0.5).expect("valid threshold");
    check_objective(&objective, &linear_data(27), "huber");
}

#[test]
fn columnar_assembly_is_bit_identical_to_row_major() {
    // The shipped assemble path reads the dataset's cached column-major
    // view (`Dataset::columnar()`) for the built-in objectives; its
    // kernels replicate the row-major kernels' floating-point grouping
    // exactly, so accumulating the same row range from either layout must
    // agree bit-for-bit — layout choice can never perturb an experiment.
    fn check(objective: &impl PolynomialObjective, data: &Dataset, what: &str) {
        assert!(objective.supports_columnar(), "{what} must opt in");
        let d = data.d();
        let xs = data.x().as_slice();
        let ys = data.y();
        let xt = data.columnar();
        for (lo, hi) in [(0usize, data.n()), (0, 1), (5, 4096.min(data.n())), (7, 7)] {
            let mut row_major = QuadraticForm::zero(d);
            objective.accumulate_batch(&xs[lo * d..hi * d], &ys[lo..hi], d, &mut row_major);
            let mut columnar = QuadraticForm::zero(d);
            objective.accumulate_batch_columnar(xt, ys, lo, hi, &mut columnar);
            assert_eq!(row_major, columnar, "{what} rows [{lo}, {hi})");
        }
    }
    check(&LinearObjective, &linear_data(41), "linreg");
    check(&LogisticObjective, &logistic_data(43), "logreg");
    check(
        &ChebyshevLogisticObjective::new(1.0).expect("valid width"),
        &logistic_data(47),
        "chebyshev-logreg",
    );
    check(
        &PoissonObjective::taylor(8.0).expect("valid cap"),
        &count_data(53),
        "poisson",
    );
    check(
        &MedianObjective::new(0.25).expect("valid smoothing"),
        &linear_data(61),
        "median",
    );
    check(
        &HuberObjective::new(0.5).expect("valid threshold"),
        &linear_data(67),
        "huber",
    );
}

#[test]
fn default_columnar_hook_matches_accumulate_batch_bit_for_bit() {
    // A custom objective that overrides accumulate_batch (blocked kernels)
    // and opts into the columnar path WITHOUT overriding the columnar
    // hook: the default must materialise rows and delegate to
    // accumulate_batch, so both layouts still agree bit-for-bit and the
    // assembly branch choice cannot perturb repeated fits.
    struct BlockedOnly;
    impl PolynomialObjective for BlockedOnly {
        fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
            LinearObjective.accumulate_tuple(x, y, q);
        }
        fn accumulate_batch(&self, xs: &[f64], ys: &[f64], d: usize, q: &mut QuadraticForm) {
            LinearObjective.accumulate_batch(xs, ys, d, q);
        }
        fn supports_columnar(&self) -> bool {
            true
        }
        fn sensitivity(
            &self,
            d: usize,
            bound: functional_mechanism::core::SensitivityBound,
        ) -> f64 {
            LinearObjective.sensitivity(d, bound)
        }
        fn sensitivity_l2(&self, d: usize) -> f64 {
            LinearObjective.sensitivity_l2(d)
        }
        fn validate_rows(
            &self,
            xs: &[f64],
            ys: &[f64],
            d: usize,
        ) -> functional_mechanism::data::Result<()> {
            LinearObjective.validate_rows(xs, ys, d)
        }
    }
    let data = linear_data(59);
    let d = data.d();
    let xs = data.x().as_slice();
    let ys = data.y();
    let xt = data.columnar();
    for (lo, hi) in [(0usize, data.n()), (3, 2048)] {
        let mut row_major = QuadraticForm::zero(d);
        BlockedOnly.accumulate_batch(&xs[lo * d..hi * d], &ys[lo..hi], d, &mut row_major);
        let mut columnar = QuadraticForm::zero(d);
        BlockedOnly.accumulate_batch_columnar(xt, ys, lo, hi, &mut columnar);
        assert_eq!(row_major, columnar, "rows [{lo}, {hi})");
    }
}

#[test]
fn default_batch_hook_delegates_to_per_tuple() {
    // An objective that does NOT override accumulate_batch must still go
    // through the chunked pipeline unchanged: the default hook is the
    // per-tuple loop, so the only difference is merge grouping.
    struct Plain;
    impl PolynomialObjective for Plain {
        fn accumulate_tuple(&self, x: &[f64], y: f64, q: &mut QuadraticForm) {
            LinearObjective.accumulate_tuple(x, y, q);
        }
        fn sensitivity(
            &self,
            d: usize,
            bound: functional_mechanism::core::SensitivityBound,
        ) -> f64 {
            LinearObjective.sensitivity(d, bound)
        }
        fn sensitivity_l2(&self, d: usize) -> f64 {
            LinearObjective.sensitivity_l2(d)
        }
        fn validate_rows(
            &self,
            xs: &[f64],
            ys: &[f64],
            d: usize,
        ) -> functional_mechanism::data::Result<()> {
            LinearObjective.validate_rows(xs, ys, d)
        }
    }
    let data = linear_data(23);
    assert_close(
        &Plain.assemble(&data),
        &assemble_per_tuple(&Plain, &data),
        "default-hook",
    );
}

#[test]
fn generic_chunked_assembly_matches_per_tuple_polynomials() {
    let data = linear_data(29);
    let chunked = GeneralLinearObjective.assemble(&data);
    // Reference: the pre-batching per-tuple polynomial sum.
    let mut reference = functional_mechanism::poly::Polynomial::zero(data.d());
    for (x, y) in data.tuples() {
        reference.add_assign(&GeneralLinearObjective.tuple_polynomial(x, y, data.d()));
    }
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..20 {
        let omega = synth::sample_in_ball(&mut rng, data.d(), 1.5);
        let (a, b) = (chunked.eval(&omega), reference.eval(&omega));
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
            "generic objectives disagree at {omega:?}: {a} vs {b}"
        );
    }
}

#[test]
fn map_reduce_grouping_is_a_pure_function_of_chunk_count() {
    // The reduction grouping must depend only on (n, chunk_rows): summing
    // f64 indices twice is bit-identical, whatever the worker count.
    for n in [1usize, 100, 8192, 10_001] {
        let run = || {
            map_reduce_chunks(
                n,
                512,
                |lo, hi| (lo..hi).map(|i| (i as f64).sin()).sum::<f64>(),
                |a, b| *a += b,
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert!(a.to_bits() == b.to_bits(), "n={n}: {a} vs {b}");
    }
}
