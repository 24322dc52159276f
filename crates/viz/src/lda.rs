//! Fisher Linear Discriminant Analysis — the Focus view's projection.
//!
//! "VEXUS employs Linear Discriminant Analysis \[8\] as a dimensionality
//! reduction approach to obtain a 2D projection of members of a desired
//! group. Members whose profiles are more similar appear closer to each
//! other."
//!
//! LDA maximizes between-class over within-class scatter: find `w`
//! maximizing `wᵀ S_b w / wᵀ S_w w`. We solve the generalized eigenproblem
//! by Cholesky whitening: with `S_w = L·Lᵀ`, the problem becomes the
//! ordinary symmetric eigenproblem `L⁻¹ S_b L⁻ᵀ u = λ u`, solved with the
//! Jacobi method from [`crate::linalg`], and `w = L⁻ᵀ u`. `S_w` is ridge-
//! regularized (`+ εI`) so degenerate demographic features (constant
//! columns) cannot break the factorization.
//!
//! When no labels are available the Focus view uses [`crate::pca`]; labels
//! in VEXUS come from any categorical attribute of choice (the same
//! attribute used for color coding).

use crate::linalg::{cholesky, jacobi_eigen, solve_lower, solve_lower_transpose, Matrix};

/// A fitted LDA projection.
#[derive(Debug, Clone)]
pub struct Lda {
    mean: Vec<f64>,
    /// `directions[k]` = k-th discriminant direction in input space.
    directions: Vec<Vec<f64>>,
}

impl Lda {
    /// Fit an LDA with `k` discriminant directions on labeled samples.
    ///
    /// `k` is clamped to `min(dim, n_classes - 1)` (LDA's rank limit).
    ///
    /// # Panics
    /// Panics on empty/ragged input, mismatched label length, or fewer than
    /// two classes.
    pub fn fit(points: &[Vec<f64>], labels: &[u32], k: usize) -> Self {
        assert!(!points.is_empty(), "LDA needs samples");
        assert_eq!(points.len(), labels.len(), "one label per sample");
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim), "ragged samples");
        let classes: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
        assert!(classes.len() >= 2, "LDA needs at least two classes");
        let k = k.min(dim).min(classes.len() - 1).max(1);

        let n = points.len() as f64;
        let mut global_mean = vec![0.0; dim];
        for p in points {
            for (m, x) in global_mean.iter_mut().zip(p) {
                *m += x;
            }
        }
        for m in &mut global_mean {
            *m /= n;
        }

        // Per-class means and counts.
        let mut class_stats: std::collections::BTreeMap<u32, (Vec<f64>, usize)> = classes
            .iter()
            .map(|&c| (c, (vec![0.0; dim], 0usize)))
            .collect();
        for (p, &l) in points.iter().zip(labels) {
            let (sum, cnt) = class_stats.get_mut(&l).expect("class present");
            for (s, x) in sum.iter_mut().zip(p) {
                *s += x;
            }
            *cnt += 1;
        }

        // Scatter matrices.
        let mut sw = Matrix::zeros(dim, dim);
        let mut sb = Matrix::zeros(dim, dim);
        for (p, &l) in points.iter().zip(labels) {
            let (sum, cnt) = &class_stats[&l];
            for i in 0..dim {
                let di = p[i] - sum[i] / *cnt as f64;
                for j in i..dim {
                    let dj = p[j] - sum[j] / *cnt as f64;
                    sw[(i, j)] += di * dj;
                }
            }
        }
        for (sum, cnt) in class_stats.values() {
            let w = *cnt as f64;
            for i in 0..dim {
                let di = sum[i] / w - global_mean[i];
                for j in i..dim {
                    let dj = sum[j] / w - global_mean[j];
                    sb[(i, j)] += w * di * dj;
                }
            }
        }
        for i in 0..dim {
            for j in i..dim {
                let w = sw[(i, j)];
                sw[(j, i)] = w;
                let b = sb[(i, j)];
                sb[(j, i)] = b;
            }
        }
        // Ridge regularization keeps S_w positive definite.
        let trace: f64 = (0..dim).map(|i| sw[(i, i)]).sum();
        let eps = (trace / dim as f64).max(1e-6) * 1e-4 + 1e-9;
        for i in 0..dim {
            sw[(i, i)] += eps;
        }

        // Whiten: M = L^{-1} S_b L^{-T}, symmetric.
        let l = cholesky(&sw).expect("ridge-regularized S_w is SPD");
        // Compute L^{-1} S_b column by column, then L^{-1} (…)^T again.
        let mut linv_sb = Matrix::zeros(dim, dim);
        for c in 0..dim {
            let col: Vec<f64> = (0..dim).map(|r| sb[(r, c)]).collect();
            let solved = solve_lower(&l, &col);
            for r in 0..dim {
                linv_sb[(r, c)] = solved[r];
            }
        }
        let mut m = Matrix::zeros(dim, dim);
        // M = (L^{-1} (L^{-1} S_b)^T)^T; row r of linv_sb^T is column r.
        let linv_sb_t = linv_sb.transpose();
        for c in 0..dim {
            let col: Vec<f64> = (0..dim).map(|r| linv_sb_t[(r, c)]).collect();
            let solved = solve_lower(&l, &col);
            for r in 0..dim {
                m[(r, c)] = solved[r];
            }
        }
        // Symmetrize against round-off before Jacobi.
        for i in 0..dim {
            for j in i + 1..dim {
                let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                m[(i, j)] = avg;
                m[(j, i)] = avg;
            }
        }
        let (_, vecs) = jacobi_eigen(&m, 64);

        let mut directions = Vec::with_capacity(k);
        for c in 0..k {
            let u: Vec<f64> = (0..dim).map(|r| vecs[(r, c)]).collect();
            let mut w = solve_lower_transpose(&l, &u);
            // Normalize for stable rendering scales.
            let norm: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for x in &mut w {
                    *x /= norm;
                }
            }
            directions.push(w);
        }
        Self {
            mean: global_mean,
            directions,
        }
    }

    /// Project one sample.
    pub fn project(&self, point: &[f64]) -> Vec<f64> {
        self.directions
            .iter()
            .map(|w| {
                point
                    .iter()
                    .zip(&self.mean)
                    .zip(w)
                    .map(|((&x, &m), &wi)| (x - m) * wi)
                    .sum()
            })
            .collect()
    }

    /// Project many samples.
    pub fn project_all(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        points.iter().map(|p| self.project(p)).collect()
    }
}

/// One-hot + numeric featurization of arbitrary mixed feature rows is left
/// to callers; the exploration engine builds demographic feature vectors in
/// `vexus-mining::features`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::{silhouette, Pca};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two elongated classes separated along y but overlapping along x —
    /// the classic case where PCA picks the wrong axis and LDA wins.
    fn tricky_blobs() -> (Vec<Vec<f64>>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let x = rng.gen::<f64>() * 40.0; // high-variance nuisance axis
            let class = (i % 2) as u32;
            let y = class as f64 * 2.0 + rng.gen::<f64>() * 0.5;
            pts.push(vec![x, y]);
            labels.push(class);
        }
        (pts, labels)
    }

    #[test]
    fn separates_classes_pca_cannot() {
        let (pts, labels) = tricky_blobs();
        let lda = Lda::fit(&pts, &labels, 1);
        let lda_proj = lda.project_all(&pts);
        let pca = Pca::fit(&pts, 1);
        let pca_proj = pca.project_all(&pts);
        let s_lda = silhouette(&lda_proj, &labels);
        let s_pca = silhouette(&pca_proj, &labels);
        assert!(s_lda > 0.5, "LDA silhouette {s_lda}");
        assert!(s_lda > s_pca + 0.3, "LDA {s_lda} should beat PCA {s_pca}");
    }

    #[test]
    fn direction_aligns_with_class_axis() {
        let (pts, labels) = tricky_blobs();
        let lda = Lda::fit(&pts, &labels, 1);
        // Discriminant should be ~(0, ±1): ignore x, separate on y.
        let w = &lda.directions[0];
        assert!(w[1].abs() > 0.95, "direction {w:?}");
        assert!(w[0].abs() < 0.3, "direction {w:?}");
    }

    #[test]
    fn rank_limit_clamps_components() {
        let (pts, labels) = tricky_blobs(); // 2 classes -> at most 1 direction
        let lda = Lda::fit(&pts, &labels, 5);
        assert_eq!(lda.directions.len(), 1);
    }

    #[test]
    fn three_classes_two_directions() {
        let mut rng = StdRng::seed_from_u64(4);
        let centers = [(0.0, 0.0, 0.0), (5.0, 0.0, 1.0), (0.0, 5.0, 2.0)];
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let (cx, cy, cz) = centers[i % 3];
            pts.push(vec![
                cx + rng.gen::<f64>() * 0.3,
                cy + rng.gen::<f64>() * 0.3,
                cz + rng.gen::<f64>() * 0.3,
            ]);
            labels.push((i % 3) as u32);
        }
        let lda = Lda::fit(&pts, &labels, 2);
        assert_eq!(lda.directions.len(), 2);
        let proj = lda.project_all(&pts);
        assert!(silhouette(&proj, &labels) > 0.8);
    }

    #[test]
    fn constant_feature_does_not_break_fit() {
        // Third feature constant: S_w singular without regularization.
        let pts = vec![
            vec![0.0, 0.0, 7.0],
            vec![0.1, 0.0, 7.0],
            vec![5.0, 1.0, 7.0],
            vec![5.1, 1.0, 7.0],
        ];
        let labels = vec![0, 0, 1, 1];
        let lda = Lda::fit(&pts, &labels, 1);
        let proj = lda.project_all(&pts);
        // Classes still separate.
        assert!((proj[0][0] - proj[1][0]).abs() < (proj[0][0] - proj[2][0]).abs());
    }

    #[test]
    fn projection_centers_global_mean() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![2.0, 2.0],
            vec![4.0, 0.0],
            vec![6.0, 2.0],
        ];
        let labels = vec![0, 0, 1, 1];
        let lda = Lda::fit(&pts, &labels, 1);
        let p = lda.project(&[3.0, 1.0]); // global mean
        assert!(p[0].abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn single_class_panics() {
        Lda::fit(&[vec![0.0], vec![1.0]], &[0, 0], 1);
    }

    #[test]
    fn projections_are_finite_for_tiny_classes() {
        // Two classes of two points each in 3-D: rank-deficient scatter.
        let pts = vec![
            vec![0.0, 0.0, 1.0],
            vec![0.1, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![1.1, 1.0, 1.0],
        ];
        let lda = Lda::fit(&pts, &[0, 0, 1, 1], 2);
        for p in lda.project_all(&pts) {
            assert!(p.iter().all(|x| x.is_finite()));
        }
    }
}
