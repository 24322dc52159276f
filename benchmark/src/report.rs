//! What a workload hands back: counted operations and checks, and the
//! measured values under their metric names.

use crate::stats::{self, Summary};

/// Operations attempted and failed. Every timed call into the crates and
/// every output check is one operation; a failed check fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one operation; `what` is only rendered when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
        ok
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One value under a metric name, with how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    /// `Some` for timings: the tail that goes with the median.
    pub tail: Option<(&'static str, f64)>,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    /// Final sizes of the run, one line.
    pub sizes: String,
    /// Set-up time of each unit, seconds.
    pub setup_s: Vec<f64>,
    /// End-to-end values: the generic metrics of `BENCHMARK.json` and the
    /// workload's own named ones.
    pub end_to_end: Vec<Value>,
    /// Per-layer values (traced runs only).
    pub per_layer: Vec<Value>,
}

impl Report {
    /// Record an end-to-end value backed by `samples` samples.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(Value {
            name,
            value,
            samples,
            tail: None,
        });
    }

    /// Record an end-to-end timing from its samples: the median under
    /// `name`, scaled by `scale`, with its tail alongside.
    pub fn e2e_timing(&mut self, name: &'static str, samples: &[f64], scale: f64) -> Summary {
        let s = stats::summarize(samples);
        self.end_to_end.push(Value {
            name,
            value: s.p50 * scale,
            samples: s.n,
            tail: Some((s.tail_label, s.tail * scale)),
        });
        s
    }

    /// Record a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.per_layer.push(Value {
            name,
            value,
            samples,
            tail: None,
        });
    }

    /// Record a per-layer timing as the median of its samples × `scale`.
    pub fn layer_median(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        let value = if samples.is_empty() {
            0.0
        } else {
            stats::median(samples) * scale
        };
        self.layer(name, value, samples.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|v| v.name == name)
            .map(|v| v.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_into_the_share() {
        let mut c = Checks::default();
        assert!(c.check(true, || unreachable!()));
        assert!(!c.check(false, || "display differs".into()));
        let mut other = Checks::default();
        other.check(false, || "click refused".into());
        other.check(true, String::new);
        c.absorb(other);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.failed_share(), 0.5);
        assert_eq!(c.messages, vec!["display differs", "click refused"]);
    }

    #[test]
    fn timings_report_median_and_tail() {
        let mut r = Report::default();
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        r.e2e_timing("click_p50_ms", &samples, 1.0);
        let v = &r.end_to_end[0];
        assert_eq!(
            (v.value, v.samples, v.tail),
            (100.5, 200, Some(("p95", 190.0)))
        );
        r.layer_median("core.backtrack_us", &[], 1.0);
        assert_eq!(r.get("core.backtrack_us"), Some(0.0));
    }
}
