//! Summaries of timing samples and the failure accounting every workload
//! reports.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A timing distribution reduced to the median and the highest supported
/// tail percentile, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// The percentile actually reported as the tail, in `(0, 100]`.
    pub tail_percentile: f64,
    pub tail: f64,
}

/// Summarizes `values` by the percentile rule: the median, and the value at
/// `cap` (a fraction such as 0.99) or, when fewer than [`TAIL_SAMPLES`]
/// samples would lie beyond it, at the highest nearest-rank percentile that
/// still has [`TAIL_SAMPLES`] samples beyond it. With too few samples for
/// any such percentile above the median, the median is the tail.
/// Returns `None` for an empty input.
pub fn summarize(values: &[f64], cap: f64) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = median_sorted(&sorted);
    let median_index = (n - 1) / 2;
    let capped = ((cap * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(TAIL_SAMPLES + 1);
    let index = capped.min(supported).max(median_index);
    let (tail_percentile, tail) = if index == median_index && supported < median_index {
        (50.0, median)
    } else {
        (100.0 * (index + 1) as f64 / n as f64, sorted[index])
    };
    Some(Summary {
        samples: n,
        median,
        tail_percentile,
        tail,
    })
}

/// The median of `values` (mean of the middle pair for an even count);
/// `None` for an empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(median_sorted(&sorted))
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Counts attempted and failed operations, with the first reason seen for
/// each kind of failure. A non-2xx response, an I/O error, a timeout and a
/// failed output check all count as one failed operation.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failure kind → (count, first message).
    pub reasons: BTreeMap<String, (u64, String)>,
}

impl Tally {
    /// Records one attempted operation and its outcome; `Err((kind, msg))`
    /// counts it as failed.
    pub fn record(&mut self, outcome: Result<(), (&str, String)>) {
        self.attempted += 1;
        if let Err((kind, msg)) = outcome {
            self.fail(kind, msg);
        }
    }

    /// Marks an already-counted operation as failed (a check made after
    /// the operation completed, such as an end-of-run ledger balance).
    pub fn fail(&mut self, kind: &str, msg: String) {
        self.failed += 1;
        self.reasons
            .entry(kind.to_string())
            .and_modify(|(count, _)| *count += 1)
            .or_insert((1, msg));
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (kind, (count, msg)) in other.reasons {
            self.reasons
                .entry(kind)
                .and_modify(|(c, _)| *c += count)
                .or_insert((count, msg));
        }
    }

    /// Failed operations divided by attempted ones (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the summary must not depend on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        let s = summarize(&ramp(1000), 0.99).unwrap();
        assert_eq!(s.samples, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail_percentile, 99.0);
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the reported tail.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn tail_falls_back_to_highest_supported_percentile() {
        let s = summarize(&ramp(300), 0.99).unwrap();
        assert_eq!(s.tail, 290.0);
        assert!((s.tail_percentile - 100.0 * 290.0 / 300.0).abs() < 1e-12);
        assert_eq!(ramp(300).iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn lower_cap_is_respected_when_supported() {
        let s = summarize(&ramp(1000), 0.5).unwrap();
        assert_eq!((s.tail_percentile, s.tail), (50.0, 500.0));
    }

    #[test]
    fn too_few_samples_report_the_median_as_tail() {
        let s = summarize(&[3.0, 1.0, 2.0], 0.99).unwrap();
        assert_eq!((s.samples, s.median), (3, 2.0));
        assert_eq!((s.tail_percentile, s.tail), (50.0, 2.0));
        let s = summarize(&ramp(21), 0.99).unwrap();
        assert_eq!(s.tail, 11.0);
        assert_eq!(ramp(21).iter().filter(|&&v| v > s.tail).count(), 10);
        assert!(summarize(&[], 0.99).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err(("status", "HTTP 500".to_string())));
        t.record(Err(("status", "HTTP 503".to_string())));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.error_rate(), 0.5);
        assert_eq!(t.reasons["status"], (2, "HTTP 500".to_string()));

        // A late check fails an operation already attempted.
        t.fail("ledger", "spent mismatch".to_string());
        assert_eq!((t.attempted, t.failed), (4, 3));

        let mut other = Tally::default();
        other.record(Err(("io", "reset".to_string())));
        other.record(Ok(()));
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (6, 4));
        assert_eq!(t.reasons["io"].0, 1);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
