//! Principal Component Analysis — the unsupervised baseline the C10
//! experiment compares LDA against.

use crate::linalg::{jacobi_eigen, Matrix};

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `components[(d, k)]`: loading of input dim `d` on component `k`.
    components: Matrix,
}

impl Pca {
    /// Fit a `k`-component PCA on row-vector samples.
    ///
    /// # Panics
    /// Panics if `points` is empty or ragged, or `k` exceeds the input
    /// dimensionality.
    pub fn fit(points: &[Vec<f64>], k: usize) -> Self {
        assert!(!points.is_empty(), "PCA needs at least one sample");
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim), "ragged samples");
        assert!(k <= dim, "cannot retain more components than dimensions");
        let n = points.len() as f64;
        let mut mean = vec![0.0; dim];
        for p in points {
            for (m, x) in mean.iter_mut().zip(p) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        // Covariance.
        let mut cov = Matrix::zeros(dim, dim);
        for p in points {
            for i in 0..dim {
                let di = p[i] - mean[i];
                for j in i..dim {
                    let dj = p[j] - mean[j];
                    cov[(i, j)] += di * dj;
                }
            }
        }
        for i in 0..dim {
            for j in i..dim {
                let v = cov[(i, j)] / n.max(1.0);
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        let (_, vecs) = jacobi_eigen(&cov, 64);
        let mut components = Matrix::zeros(dim, k);
        for c in 0..k {
            for d in 0..dim {
                components[(d, c)] = vecs[(d, c)];
            }
        }
        Self { mean, components }
    }

    /// Project one sample.
    pub fn project(&self, point: &[f64]) -> Vec<f64> {
        let k = self.components.n_cols();
        let mut out = vec![0.0; k];
        for (d, (&x, &m)) in point.iter().zip(&self.mean).enumerate() {
            let centered = x - m;
            for (c, o) in out.iter_mut().enumerate() {
                *o += centered * self.components[(d, c)];
            }
        }
        out
    }

    /// Project many samples.
    pub fn project_all(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        points.iter().map(|p| self.project(p)).collect()
    }

    /// The fitted per-dimension mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }
}

/// Mean silhouette score of a labeled 2-D (or any-D) embedding — the
/// separation metric used by experiment C10. Ranges in `[-1, 1]`; higher
/// means same-label points are closer together than to other clusters.
pub fn silhouette(points: &[Vec<f64>], labels: &[u32]) -> f64 {
    assert_eq!(points.len(), labels.len());
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let classes: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..n {
        // Mean distance to own class (a) and nearest other class (b).
        let mut own_sum = 0.0;
        let mut own_n = 0usize;
        let mut others: std::collections::BTreeMap<u32, (f64, usize)> = Default::default();
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = dist(&points[i], &points[j]);
            if labels[j] == labels[i] {
                own_sum += d;
                own_n += 1;
            } else {
                let e = others.entry(labels[j]).or_insert((0.0, 0));
                e.0 += d;
                e.1 += 1;
            }
        }
        if own_n == 0 || others.is_empty() {
            continue;
        }
        let a = own_sum / own_n as f64;
        let b = others
            .values()
            .map(|(s, c)| s / *c as f64)
            .fold(f64::INFINITY, f64::min);
        let s = (b - a) / a.max(b).max(1e-12);
        total += s;
        counted += 1;
    }
    let _ = classes;
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_axis() {
        // Points along y = 2x: first component should align with (1,2)/√5.
        let points: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 * 0.1, i as f64 * 0.2])
            .collect();
        let pca = Pca::fit(&points, 1);
        // A unit step along (1, 2) from the mean projects to its full
        // length √5 on an aligned component.
        let m = pca.mean();
        let p = pca.project(&[m[0] + 1.0, m[1] + 2.0]);
        let aligned = p[0].abs() / 5.0f64.sqrt();
        assert!(aligned > 0.999, "component misaligned: {aligned}");
    }

    #[test]
    fn projection_is_mean_centered() {
        let points = vec![vec![1.0, 1.0], vec![3.0, 3.0]];
        let pca = Pca::fit(&points, 2);
        let p = pca.project(&[2.0, 2.0]); // the mean
        assert!(p.iter().all(|x| x.abs() < 1e-10));
    }

    #[test]
    fn explained_variance_descends() {
        let points: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i % 7) as f64 * 0.1, 0.0])
            .collect();
        let pca = Pca::fit(&points, 3);
        let projected = pca.project_all(&points);
        let variance = |k: usize| projected.iter().map(|p| p[k] * p[k]).sum::<f64>();
        assert!(variance(0) >= variance(1));
        assert!(variance(1) >= variance(2) - 1e-12);
        assert!(variance(2).abs() < 1e-9, "flat axis has no variance");
    }

    #[test]
    fn silhouette_separated_blobs_near_one() {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            points.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(0);
            points.push(vec![100.0 + i as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let s = silhouette(&points, &labels);
        assert!(s > 0.95, "silhouette {s}");
    }

    #[test]
    fn silhouette_mixed_blobs_near_zero() {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            points.push(vec![(i % 10) as f64, ((i * 7) % 10) as f64]);
            labels.push((i % 2) as u32);
        }
        let s = silhouette(&points, &labels);
        assert!(s.abs() < 0.3, "silhouette {s}");
    }

    #[test]
    fn silhouette_degenerate_inputs() {
        assert_eq!(silhouette(&[vec![0.0]], &[0]), 0.0);
        // Single class: no separation defined.
        let pts = vec![vec![0.0], vec![1.0]];
        assert_eq!(silhouette(&pts, &[0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_fit_panics() {
        Pca::fit(&[], 1);
    }
}
