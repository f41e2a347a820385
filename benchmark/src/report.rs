//! What a run prints: named metrics with units, detail lines, and the final
//! result object.

use crate::stats::{median, Summary, Tally};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(key, raw JSON value)` pairs printed on one detail line.
    pub details: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }

    /// Reports per-slice timing summaries, scaled by `scale`, as the detail
    /// `name`: the medians over the slices of their medians (`p50`) and of
    /// their tails (each slice's highest percentile up to p99 with ten
    /// samples beyond it), that percentile and the sample count. Returns
    /// the `p50`, NaN without any summary.
    pub fn timing(&mut self, name: &str, slices: &[Summary], scale: f64) -> f64 {
        let of = |f: fn(&Summary) -> f64| {
            median(&slices.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let p50 = of(|s| s.median) * scale;
        self.detail(
            name,
            format!(
                "{{\"samples\":{},\"slices\":{},\"p50\":{p50},\"tail\":{},\"tail_percentile\":{}}}",
                slices.iter().map(|s| s.samples).sum::<usize>(),
                slices.len(),
                of(|s| s.tail) * scale,
                of(|s| s.tail_percentile)
            ),
        );
        p50
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, tally: &Tally) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(tally),
            tally.attempted.max(1),
            tally.failed
        )
    }

    /// Every operation succeeded, something was attempted, and every
    /// metric is a finite number.
    pub fn correct(&self, tally: &Tally) -> bool {
        tally.failed == 0 && tally.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }
}

/// Median time per call in microseconds of `f`, timed in batches of
/// `batch` calls until `budget` has passed (at least five batches).
pub fn per_call_us(batch: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(black_box(t.elapsed()).as_secs_f64() * 1e6 / batch as f64);
    }
    median(&per_call).expect("at least five batches")
}
