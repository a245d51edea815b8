//! Metric collection, operation accounting and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit and a human-readable note (sample
/// count, band, or why the figure is computed rather than measured).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// Context printed beside the value.
    pub note: String,
}

/// Failures kept verbatim for the log; the rest are only counted.
const KEPT_FAILURES: usize = 10;

/// Everything one run reports: metrics plus operations attempted/failed.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Count one operation; `what` describes it when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// Whether every output checked out and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print one line per metric and per kept failure, then the JSON result
    /// as the last line of stdout.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{:<40} {:>16} {:<8} {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.note
            );
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; `correct()` is false then.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Shortest round-tripping decimal form (Rust's `Display` for `f64`),
/// with a fraction so integral values still read as numbers with digits.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.metric("latency_ms_p50", 1.25, "ms", "n=3");
        r.metric("peak_rss_mb", 64.0, "MB", "");
        r.op(true, || unreachable!());
        r.op(false, || "step 1".into());
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"peak_rss_mb\": {\"value\": 64.0, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.metric("x", 1.0, "s", "");
        assert!(r.correct());
        r.metric("y", f64::NAN, "s", "");
        assert!(!r.correct());
        assert!(r.json().contains("\"y\": {\"value\": 0.0"));
    }

    #[test]
    fn no_operations_is_not_correct() {
        assert!(!Report::default().correct());
    }
}
