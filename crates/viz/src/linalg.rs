//! Small dense linear algebra: just enough for LDA/PCA on demographic
//! feature spaces (tens of dimensions), implemented from scratch per the
//! dependency policy.

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Frobenius norm of the off-diagonal part (Jacobi convergence check).
    fn off_diagonal_norm(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    s += self[(i, j)] * self[(i, j)];
                }
            }
        }
        s.sqrt()
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in i + 1..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Eigen-decomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by **descending**
/// eigenvalue; eigenvector `k` is column `k` of the returned matrix.
///
/// # Panics
/// Panics if the matrix is not square/symmetric.
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> (Vec<f64>, Matrix) {
    assert!(
        a.is_symmetric(1e-8),
        "jacobi_eigen requires a symmetric matrix"
    );
    let n = a.n_rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    for _ in 0..max_sweeps {
        if m.off_diagonal_norm() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation R(p,q,θ) on both sides.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite eigenvalues"));
    let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    (values, vectors)
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix. Returns `None` if the matrix is not positive definite.
pub fn cholesky(a: &Matrix) -> Option<Matrix> {
    if a.n_rows() != a.n_cols() {
        return None;
    }
    let n = a.n_rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Solve `L·x = b` for lower-triangular `L` (forward substitution).
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.n_rows();
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[(i, j)] * x[j];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Solve `Lᵀ·x = b` for lower-triangular `L` (backward substitution).
pub fn solve_lower_transpose(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.n_rows();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in i + 1..n {
            sum -= l[(j, i)] * x[j];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Constructors and products only the checks below use.
    impl Matrix {
        /// Build from row slices.
        ///
        /// # Panics
        /// Panics on ragged input.
        fn from_rows(rows: &[&[f64]]) -> Self {
            let r = rows.len();
            let c = rows.first().map_or(0, |x| x.len());
            assert!(rows.iter().all(|x| x.len() == c), "ragged rows");
            let mut data = Vec::with_capacity(r * c);
            for row in rows {
                data.extend_from_slice(row);
            }
            Self {
                rows: r,
                cols: c,
                data,
            }
        }

        /// Matrix product `self * other`.
        ///
        /// # Panics
        /// Panics on dimension mismatch.
        fn matmul(&self, other: &Matrix) -> Matrix {
            assert_eq!(self.cols, other.rows, "dimension mismatch");
            let mut out = Matrix::zeros(self.rows, other.cols);
            for i in 0..self.rows {
                for k in 0..self.cols {
                    let a = self[(i, k)];
                    if a == 0.0 {
                        continue;
                    }
                    for j in 0..other.cols {
                        out[(i, j)] += a * other[(k, j)];
                    }
                }
            }
            out
        }

        /// Matrix-vector product.
        fn matvec(&self, x: &[f64]) -> Vec<f64> {
            assert_eq!(self.cols, x.len());
            (0..self.rows)
                .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
                .collect()
        }
    }

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        assert_eq!(
            a.transpose(),
            Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]])
        );
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 32);
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 1.0, 1e-10));
        // First eigenvector = e1 (up to sign).
        assert!(approx(vecs[(0, 0)].abs(), 1.0, 1e-10));
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 64);
        assert!(approx(vals[0], 3.0, 1e-9));
        assert!(approx(vals[1], 1.0, 1e-9));
        // Verify A v = λ v for both.
        for k in 0..2 {
            let v: Vec<f64> = (0..2).map(|r| vecs[(r, k)]).collect();
            let av = a.matvec(&v);
            for r in 0..2 {
                assert!(approx(av[r], vals[k] * v[r], 1e-8));
            }
        }
    }

    #[test]
    fn cholesky_round_trip() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose());
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(back[(i, j)], a[(i, j)], 1e-10));
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn triangular_solves() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        // Solve A x = b via L (L^T x) = b.
        let b = [10.0, 8.0];
        let y = solve_lower(&l, &b);
        let x = solve_lower_transpose(&l, &y);
        let ax = a.matvec(&x);
        assert!(approx(ax[0], 10.0, 1e-10));
        assert!(approx(ax[1], 8.0, 1e-10));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn jacobi_rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        jacobi_eigen(&a, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_jacobi_reconstructs(symvals in proptest::collection::vec(-5.0f64..5.0, 9)) {
            // Build a random symmetric 3x3: S = B + B^T.
            let b = Matrix::from_rows(&[
                &symvals[0..3], &symvals[3..6], &symvals[6..9],
            ]);
            let mut s = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    s[(i, j)] = b[(i, j)] + b[(j, i)];
                }
            }
            let (vals, vecs) = jacobi_eigen(&s, 64);
            // Eigenvalues descending.
            prop_assert!(vals.windows(2).all(|w| w[0] >= w[1] - 1e-9));
            // Reconstruct: S ≈ V diag(vals) V^T.
            let mut d = Matrix::zeros(3, 3);
            for i in 0..3 {
                d[(i, i)] = vals[i];
            }
            let rec = vecs.matmul(&d).matmul(&vecs.transpose());
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!(approx(rec[(i, j)], s[(i, j)], 1e-7),
                        "reconstruction mismatch at ({i},{j})");
                }
            }
            // Eigenvectors orthonormal.
            let vtv = vecs.transpose().matmul(&vecs);
            for i in 0..3 {
                for j in 0..3 {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    prop_assert!(approx(vtv[(i, j)], expect, 1e-8));
                }
            }
        }

        #[test]
        fn prop_cholesky_solves_spd_systems(
            diag in proptest::collection::vec(0.5f64..4.0, 3),
            off in proptest::collection::vec(-0.4f64..0.4, 3),
            b in proptest::collection::vec(-10.0f64..10.0, 3)
        ) {
            // Diagonally-dominant symmetric => SPD.
            let a = Matrix::from_rows(&[
                &[diag[0] + 2.0, off[0], off[1]],
                &[off[0], diag[1] + 2.0, off[2]],
                &[off[1], off[2], diag[2] + 2.0],
            ]);
            let l = cholesky(&a).expect("SPD by construction");
            let y = solve_lower(&l, &b);
            let x = solve_lower_transpose(&l, &y);
            let ax = a.matvec(&x);
            for i in 0..3 {
                prop_assert!(approx(ax[i], b[i], 1e-8));
            }
        }
    }
}
