//! Sample statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule for tail percentiles, and the quartile spread the regression bounds
//! are sized against.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [(f64, &str); 5] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
    (0.75, "p75"),
];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `q`-quantile in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps products like 1000 × 0.99 from rounding up a rank.
    ((n as f64 * q - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an unsorted sample (NaN when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    sorted[rank(sorted.len(), q)]
}

/// Median: mean of the two middle samples for even counts (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many of `n` sorted samples lie strictly beyond the `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p75 is under-sampled.
pub fn tail_percentile(n: usize) -> Option<(f64, &'static str)> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&(q, _)| samples_beyond(n, q) >= MIN_BEYOND)
}

/// A timing as the benchmark prints it: the median, the highest valid tail
/// percentile (the maximum when none is valid) and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_label: &'static str,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let (tail, tail_label) = match tail_percentile(samples.len()) {
        Some((q, label)) => (percentile(samples, q), label),
        None => (samples.iter().copied().fold(f64::NAN, f64::max), "max"),
    };
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail,
        tail_label,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the spread every bound must stay three times above.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    /// The rule of the statistics satellite: a percentile is printed only
    /// with at least ten samples beyond it.
    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th; ten lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(1000), Some((0.99, "p99")));
        // One sample fewer and p99 no longer qualifies.
        assert_eq!(tail_percentile(999), Some((0.95, "p95")));
        assert_eq!(tail_percentile(200), Some((0.95, "p95")));
        assert_eq!(tail_percentile(199), Some((0.90, "p90")));
        assert_eq!(tail_percentile(40), Some((0.75, "p75")));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(10_000).map(|t| t.1), Some("p99.9"));
    }

    #[test]
    fn summary_falls_back_to_max_when_undersampled() {
        let s = summarize(&[4.0, 9.0, 1.0]);
        assert_eq!((s.n, s.p50, s.tail, s.tail_label), (3, 4.0, 9.0, "max"));
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail, s.tail_label), (380.0, "p95"));
    }

    /// Matches `statistics.quantiles([...], n=4)` → `[2.75, 5.5, 8.25]`.
    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }
}
