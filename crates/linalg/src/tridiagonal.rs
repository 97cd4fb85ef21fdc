// The Householder/QL recurrences are index-heavy by nature; explicit
// indices follow the classical presentation (Golub & Van Loan §8.3).
#![allow(clippy::needless_range_loop)]

use crate::{LinalgError, Matrix, Result};

/// Maximum implicit-QL iterations per eigenvalue. Convergence is cubic;
/// 50 is the classical safety margin (Numerical Recipes uses 30).
const MAX_QL_ITERS: usize = 50;

/// Full eigendecomposition `A = V·Λ·Vᵀ` of a symmetric matrix via
/// **Householder tridiagonalization followed by the implicit-shift QL
/// algorithm** — the `O(d³)`-total classic that scales past the regime
/// where cyclic Jacobi (`O(d³)` *per sweep*) stays competitive.
///
/// [`crate::SymmetricEigen`] (Jacobi) remains the default engine for the
/// paper's experiments: at `d ≤ 14` both run in microseconds and Jacobi's
/// eigenvectors are orthonormal to machine precision by construction. This
/// solver exists for the production regime beyond the paper — DP-ERM
/// workloads with hundreds of features, where the §6.2 spectral-trimming
/// step would otherwise dominate the fit.
///
/// The API mirrors [`crate::SymmetricEigen`]: eigenvalues **descending**,
/// eigenvectors as matrix columns aligned with the values.
#[derive(Debug, Clone)]
pub struct TridiagonalEigen {
    values: Vec<f64>,
    vectors: Matrix,
}

impl TridiagonalEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] on bad shape.
    /// * [`LinalgError::NotSymmetric`] when symmetry is violated beyond
    ///   `1e-9` absolute.
    /// * [`LinalgError::NoConvergence`] if any eigenvalue fails to settle
    ///   within the iteration cap (non-finite input is the practical cause).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_symmetric(1e-9) {
            return Err(LinalgError::NotSymmetric);
        }

        let mut z = a.clone();
        z.symmetrize()?;
        let (mut d, mut e) = householder_tridiagonalize(&mut z);
        ql_implicit_shifts(&mut d, &mut e, &mut z)?;

        // Sort descending, permuting eigenvector columns along.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("finite eigenvalues"));
        let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
        let vectors = Matrix::from_fn(n, n, |r, c| z[(r, order[c])]);
        Ok(TridiagonalEigen { values, vectors })
    }

    /// Eigenvalues in descending order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Orthonormal eigenvectors as matrix columns, ordered to match
    /// [`TridiagonalEigen::values`].
    #[must_use]
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Number of eigenvalues strictly greater than `threshold`.
    #[must_use]
    pub fn count_above(&self, threshold: f64) -> usize {
        self.values.iter().filter(|&&v| v > threshold).count()
    }

    /// Reconstructs `V·Λ·Vᵀ` — used by the validation tests.
    #[must_use]
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let col: Vec<f64> = self.vectors.col(k).collect();
            out.rank1_update(self.values[k], &col)
                .expect("eigenvector length equals dimension");
        }
        out
    }
}

/// Householder reduction of the symmetric matrix in `z` to tridiagonal
/// form (classical `tred2`), accumulating the orthogonal transformation
/// into `z` itself. Returns `(diagonal, sub-diagonal)`; the sub-diagonal
/// entry `e[i]` couples rows `i−1` and `i` (`e[0]` is unused and zero).
fn householder_tridiagonalize(z: &mut Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = z.rows();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                // Row already reduced.
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    // Store u/H in column i for the later accumulation pass.
                    z[(j, i)] = z[(i, j)] / h;
                    // g = (A·u)_j restricted to the active block.
                    let mut g_sum = 0.0;
                    for k in 0..=j {
                        g_sum += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g_sum += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g_sum / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                // Rank-2 update A ← A − u·qᵀ − q·uᵀ.
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let delta = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate the Householder transformations into z.
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let delta = g * z[(k, i)];
                    z[(k, j)] -= delta;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
    (d, e)
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` (classical
/// `tqli`), rotating the eigenvector columns of `z` along.
fn ql_implicit_shifts(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<()> {
    let n = d.len();
    // Renumber the sub-diagonal for the QL convention.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first negligible sub-diagonal element at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] converged
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "implicit-shift QL",
                    iterations: iter,
                });
            }

            // Form the implicit Wilkinson-style shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;

            let mut i = m;
            while i > l {
                i -= 1;
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Deflate: skip the rotation chain and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Apply the rotation to the eigenvector columns.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
                if i == l {
                    d[l] -= p;
                    e[l] = g;
                    e[m] = 0.0;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vecops, SymmetricEigen};

    fn deterministic_symmetric(n: usize) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |r, c| (((r * 7 + c * 13) % 19) as f64 - 9.0) / 9.0);
        m.symmetrize().unwrap();
        m
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let m = Matrix::from_diagonal(&[1.0, 5.0, 3.0]);
        let e = TridiagonalEigen::new(&m).unwrap();
        assert!(vecops::approx_eq(e.values(), &[5.0, 3.0, 1.0], 1e-12));
    }

    #[test]
    fn known_2x2_spectrum() {
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = TridiagonalEigen::new(&m).unwrap();
        assert!(vecops::approx_eq(e.values(), &[3.0, 1.0], 1e-12));
    }

    #[test]
    fn indefinite_matrix_negative_eigenvalue() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let e = TridiagonalEigen::new(&m).unwrap();
        assert!(vecops::approx_eq(e.values(), &[3.0, -1.0], 1e-12));
        assert_eq!(e.count_above(0.0), 1);
    }

    #[test]
    fn matches_jacobi_on_random_matrices() {
        for n in [1usize, 2, 3, 5, 8, 14, 20] {
            let m = deterministic_symmetric(n);
            let ql = TridiagonalEigen::new(&m).unwrap();
            let jac = SymmetricEigen::new(&m).unwrap();
            assert!(
                vecops::approx_eq(ql.values(), jac.values(), 1e-8 * (1.0 + m.max_abs())),
                "n={n}: {:?} vs {:?}",
                ql.values(),
                jac.values()
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = deterministic_symmetric(12);
        let e = TridiagonalEigen::new(&m).unwrap();
        let v = e.vectors();
        let vtv = v.transpose().matmul(v).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(12), 1e-9));
    }

    #[test]
    fn reconstruction_matches_input() {
        for n in [1usize, 3, 7, 16] {
            let m = deterministic_symmetric(n);
            let e = TridiagonalEigen::new(&m).unwrap();
            assert!(e.reconstruct().approx_eq(&m, 1e-8), "n={n}");
        }
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let m = deterministic_symmetric(9);
        let e = TridiagonalEigen::new(&m).unwrap();
        for k in 0..9 {
            let vk: Vec<f64> = e.vectors().col(k).collect();
            let mv = m.matvec(&vk).unwrap();
            let lv = vecops::scaled(e.values()[k], &vk);
            assert!(vecops::approx_eq(&mv, &lv, 1e-8), "eigenpair {k} violated");
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = deterministic_symmetric(11);
        let e = TridiagonalEigen::new(&m).unwrap();
        let sum: f64 = e.values().iter().sum();
        assert!((sum - m.trace()).abs() < 1e-8 * (1.0 + m.trace().abs()));
    }

    #[test]
    fn repeated_eigenvalues_handled() {
        // 3·I has a triple eigenvalue; the basis must still be orthonormal.
        let m = Matrix::from_diagonal(&[3.0, 3.0, 3.0]);
        let e = TridiagonalEigen::new(&m).unwrap();
        assert!(vecops::approx_eq(e.values(), &[3.0, 3.0, 3.0], 1e-12));
        let vtv = e.vectors().transpose().matmul(e.vectors()).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(TridiagonalEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            TridiagonalEigen::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            TridiagonalEigen::new(&asym),
            Err(LinalgError::NotSymmetric)
        ));
    }

    #[test]
    fn handles_1x1_and_zero() {
        let e = TridiagonalEigen::new(&Matrix::from_diagonal(&[-7.5])).unwrap();
        assert_eq!(e.values(), &[-7.5]);
        let z = TridiagonalEigen::new(&Matrix::zeros(4, 4)).unwrap();
        assert!(z.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn large_matrix_converges_and_matches_jacobi() {
        let n = 60;
        let m = deterministic_symmetric(n);
        let ql = TridiagonalEigen::new(&m).unwrap();
        let jac = SymmetricEigen::new(&m).unwrap();
        assert!(vecops::approx_eq(
            ql.values(),
            jac.values(),
            1e-7 * (1.0 + m.max_abs())
        ));
        assert!(ql.reconstruct().approx_eq(&m, 1e-7));
    }
}
