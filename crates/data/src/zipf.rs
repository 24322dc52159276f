//! Seeded Zipf and power-law samplers used by the synthetic dataset
//! generators.
//!
//! Real user data — ratings per user, popularity per book, publications per
//! author — is heavily skewed; the paper's BOOKCROSSING snapshot has ~1M
//! ratings spread over 278k users, i.e. a long tail of near-inactive users.
//! The generators reproduce that shape with Zipf-distributed assignment.
//!
//! Implementation: inverse-CDF over a precomputed cumulative table. For the
//! universe sizes we use (≤ a few hundred thousand ranks) the table is
//! exact, cheap (one `partition_point` per sample) and deterministic.

use rand::Rng;

/// A Zipf(α) distribution over ranks `0..n` (rank 0 most probable), sampled
/// by inverse CDF over a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution over `n` ranks with exponent `alpha`.
    ///
    /// `alpha = 0` degenerates to uniform; typical user-data skew is
    /// `alpha ∈ [0.6, 1.2]`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over empty universe");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is degenerate (always returns rank 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Sample from a discrete distribution given by (unnormalized) weights.
///
/// Used for small categorical marginals (gender shares, seniority levels…).
pub fn weighted_choice<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability mass of a rank, read off the CDF.
    fn pmf(z: &Zipf, rank: usize) -> f64 {
        if rank == 0 {
            z.cdf[0]
        } else {
            z.cdf[rank] - z.cdf[rank - 1]
        }
    }

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!(
                (pmf(&z, k) - 0.25).abs() < 1e-12,
                "pmf({k}) = {}",
                pmf(&z, k)
            );
        }
    }

    #[test]
    fn rank_zero_dominates_with_skew() {
        let z = Zipf::new(1000, 1.0);
        assert!(pmf(&z, 0) > pmf(&z, 1));
        assert!(pmf(&z, 1) > pmf(&z, 100));
        // Harmonic: p(0)/p(1) == 2 for alpha=1.
        assert!((pmf(&z, 0) / pmf(&z, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - pmf(&z, k)).abs() < 0.01,
                "rank {k}: empirical {emp}, pmf {}",
                pmf(&z, k)
            );
        }
    }

    #[test]
    fn sample_is_deterministic_for_seed() {
        let z = Zipf::new(100, 0.8);
        let a: Vec<usize> = (0..50)
            .map(|_| z.sample(&mut StdRng::seed_from_u64(3)))
            .collect();
        let b: Vec<usize> = (0..50)
            .map(|_| z.sample(&mut StdRng::seed_from_u64(3)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cdf_reaches_one() {
        let z = Zipf::new(3, 1.5);
        assert_eq!(*z.cdf.last().unwrap(), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_choice(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }
}
