//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise the algebraic laws the rest of the workspace silently
//! relies on: factor-reconstruct round-trips, solver correctness against
//! residuals, orthonormality of eigenbases, and norm inequalities.

use fm_linalg::{qr, vecops, Cholesky, Lu, Matrix, SymmetricEigen, TridiagonalEigen};
use proptest::prelude::*;

const DIM_RANGE: std::ops::Range<usize> = 1..7;

fn finite_entry() -> impl Strategy<Value = f64> {
    // Moderate magnitudes keep condition numbers testable.
    -10.0..10.0
}

fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(finite_entry(), n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized data"))
}

fn symmetric_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(|mut m| {
        m.symmetrize().expect("square");
        m
    })
}

/// SPD by construction: `AᵀA + I`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(|a| {
        let mut g = a.transpose().matmul(&a).expect("square");
        g.add_diagonal(1.0);
        g.symmetrize().expect("square");
        g
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(finite_entry(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(n in DIM_RANGE, m in DIM_RANGE) {
        let mat = Matrix::from_fn(n, m, |r, c| (r * 31 + c * 7) as f64);
        prop_assert!(mat.transpose().transpose().approx_eq(&mat, 0.0));
    }

    #[test]
    fn matmul_associative((a, b, c) in (2..5usize).prop_flat_map(|n| {
        (square_matrix(n), square_matrix(n), square_matrix(n))
    })) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        // Tolerance scales with magnitudes involved.
        let tol = 1e-9 * (1.0 + left.max_abs().max(right.max_abs()));
        prop_assert!(left.approx_eq(&right, tol));
    }

    #[test]
    fn matvec_agrees_with_matmul(m in (1..6usize).prop_flat_map(square_matrix), seed in 0u64..1000) {
        let n = m.rows();
        let x: Vec<f64> = (0..n).map(|i| ((seed as usize + i * 13) % 17) as f64 - 8.0).collect();
        let xm = Matrix::from_vec(n, 1, x.clone()).unwrap();
        let via_matmul = m.matmul(&xm).unwrap();
        let via_matvec = m.matvec(&x).unwrap();
        prop_assert!(vecops::approx_eq(&via_matvec, &via_matmul.col(0).collect::<Vec<f64>>(), 1e-9));
    }

    #[test]
    fn cauchy_schwarz(x in vector(5), y in vector(5)) {
        let lhs = vecops::dot(&x, &y).abs();
        let rhs = vecops::norm2(&x) * vecops::norm2(&y);
        prop_assert!(lhs <= rhs + 1e-9);
    }

    #[test]
    fn triangle_inequality(x in vector(6), y in vector(6)) {
        let sum = vecops::add(&x, &y);
        prop_assert!(vecops::norm2(&sum) <= vecops::norm2(&x) + vecops::norm2(&y) + 1e-9);
    }

    #[test]
    fn norm_ordering(x in vector(6)) {
        // ‖x‖∞ ≤ ‖x‖₂ ≤ ‖x‖₁
        let (n1, n2, ninf) = (vecops::norm1(&x), vecops::norm2(&x), vecops::norm_inf(&x));
        prop_assert!(ninf <= n2 + 1e-9);
        prop_assert!(n2 <= n1 + 1e-9);
    }

    #[test]
    fn lu_solve_has_zero_residual(
        (a, b) in (2..6usize).prop_flat_map(|n| (square_matrix(n), vector(n)))
    ) {
        // Skip singular draws; Lu reports them.
        if let Ok(lu) = Lu::new(&a) {
            let x = lu.solve(&b).unwrap();
            let ax = a.matvec(&x).unwrap();
            let scale = 1.0 + vecops::norm_inf(&b) + a.max_abs() * vecops::norm_inf(&x);
            prop_assert!(vecops::dist2(&ax, &b) <= 1e-7 * scale);
        }
    }

    #[test]
    fn lu_determinant_multiplicative(
        (a, b) in (2..5usize).prop_flat_map(|n| (square_matrix(n), square_matrix(n)))
    ) {
        if let (Ok(lua), Ok(lub)) = (Lu::new(&a), Lu::new(&b)) {
            let ab = a.matmul(&b).unwrap();
            if let Ok(luab) = Lu::new(&ab) {
                let lhs = luab.determinant();
                let rhs = lua.determinant() * lub.determinant();
                prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + lhs.abs().max(rhs.abs())));
            }
        }
    }

    #[test]
    fn cholesky_reconstructs(m in (1..6usize).prop_flat_map(spd_matrix)) {
        let chol = Cholesky::new(&m).expect("SPD by construction");
        let l = chol.l();
        let llt = l.matmul(&l.transpose()).unwrap();
        prop_assert!(llt.approx_eq(&m, 1e-7 * (1.0 + m.max_abs())));
    }

    #[test]
    fn cholesky_solve_matches_lu(
        (m, b) in (1..6usize).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        let xc = Cholesky::new(&m).unwrap().solve(&b).unwrap();
        let xl = Lu::new(&m).unwrap().solve(&b).unwrap();
        let tol = 1e-6 * (1.0 + vecops::norm_inf(&xl));
        prop_assert!(vecops::approx_eq(&xc, &xl, tol));
    }

    #[test]
    fn spd_quadratic_form_positive(
        (m, x) in (1..6usize).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        // xᵀMx ≥ ‖x‖² because M = AᵀA + I.
        let q = m.quadratic_form(&x).unwrap();
        let nx = vecops::dot(&x, &x);
        prop_assert!(q >= nx - 1e-7 * (1.0 + q.abs()));
    }

    #[test]
    fn eigen_reconstructs_symmetric(m in (1..6usize).prop_flat_map(symmetric_matrix)) {
        let e = SymmetricEigen::new(&m).expect("symmetric by construction");
        let tol = 1e-7 * (1.0 + m.max_abs());
        prop_assert!(e.reconstruct().approx_eq(&m, tol));
    }

    #[test]
    fn eigenbasis_orthonormal(m in (1..6usize).prop_flat_map(symmetric_matrix)) {
        let e = SymmetricEigen::new(&m).unwrap();
        let v = e.vectors();
        let vtv = v.transpose().matmul(v).unwrap();
        prop_assert!(vtv.approx_eq(&Matrix::identity(m.rows()), 1e-8));
    }

    #[test]
    fn eigenvalues_sorted_and_sum_to_trace(m in (1..6usize).prop_flat_map(symmetric_matrix)) {
        let e = SymmetricEigen::new(&m).unwrap();
        for w in e.values().windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        let sum: f64 = e.values().iter().sum();
        prop_assert!((sum - m.trace()).abs() <= 1e-7 * (1.0 + m.trace().abs()));
    }

    #[test]
    fn spd_matrices_have_positive_spectrum(m in (1..6usize).prop_flat_map(spd_matrix)) {
        let e = SymmetricEigen::new(&m).unwrap();
        // M = AᵀA + I ⇒ every eigenvalue ≥ 1.
        prop_assert!(e.values().iter().all(|&v| v >= 1.0 - 1e-7));
    }

    #[test]
    fn qr_least_squares_residual_orthogonal(
        (a, b) in (2..5usize).prop_flat_map(|n| {
            (proptest::collection::vec(finite_entry(), (n + 3) * n), vector(n + 3))
                .prop_map(move |(data, b)| {
                    (Matrix::from_vec(n + 3, n, data).unwrap(), b)
                })
        })
    ) {
        if let Ok(x) = qr::lstsq(&a, &b) {
            // Residual must be orthogonal to every column of A.
            let ax = a.matvec(&x).unwrap();
            let r = vecops::sub(&b, &ax);
            let atr = a.matvec_transposed(&r).unwrap();
            let scale = 1.0 + a.max_abs() * vecops::norm_inf(&r);
            prop_assert!(vecops::norm_inf(&atr) <= 1e-6 * scale);
        }
    }

    #[test]
    fn rank1_update_matches_outer_product(x in vector(4), a in -3.0..3.0f64) {
        let mut m = Matrix::zeros(4, 4);
        m.rank1_update(a, &x).unwrap();
        let expected = Matrix::from_fn(4, 4, |r, c| a * x[r] * x[c]);
        prop_assert!(m.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn tridiagonal_and_jacobi_eigensolvers_agree(
        m in (1..8usize).prop_flat_map(symmetric_matrix)
    ) {
        // The two engines must compute the same spectrum, and both bases
        // must reconstruct the input.
        let ql = TridiagonalEigen::new(&m).unwrap();
        let jac = SymmetricEigen::new(&m).unwrap();
        let tol = 1e-7 * (1.0 + m.max_abs());
        prop_assert!(vecops::approx_eq(ql.values(), jac.values(), tol));
        prop_assert!(ql.reconstruct().approx_eq(&m, tol));
        let v = ql.vectors();
        let vtv = v.transpose().matmul(v).unwrap();
        prop_assert!(vtv.approx_eq(&Matrix::identity(m.rows()), 1e-8));
    }
}
