//! What one run reports: request tallies, the named metrics with their
//! units, and the result line.

use std::collections::BTreeMap;

/// Outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests that failed: error replies (overloaded,
    /// deadline_exceeded, unknown_snapshot, ...), transport errors and
    /// replies whose bytes differ from the expected ones.
    pub failed: u64,
    /// Broken workload premises and other reasons the run is invalid.
    pub violations: Vec<String>,
    /// Metrics reported on the result line, by name: (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Further measurements printed by name for the reader only.
    pub extra: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a result-line metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records a printed-only measurement.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push((name.into(), value, unit));
    }

    /// Records a broken premise; the run then reports `correct: false`.
    pub fn violation(&mut self, message: impl Into<String>) {
        self.violations.push(message.into());
    }

    /// Whether every reply verified and every premise held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The human-readable report followed by the JSON result line.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.metrics {
            out.push_str(&format!("{workload} {name} = {value:.6} {unit}\n"));
        }
        for (name, value, unit) in &self.extra {
            out.push_str(&format!("{workload} {name} = {value:.6} {unit}\n"));
        }
        let failed_ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        out.push_str(&format!(
            "{workload} failed_ratio = {failed_ratio:.6} ratio ({} of {})\n",
            self.failed, self.attempted
        ));
        for violation in &self.violations {
            out.push_str(&format!("{workload} VIOLATION: {violation}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which never come from a valid
/// run, print as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_last_line_and_lists_every_metric() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.metric("p50_ms", 1.25, "ms");
        report.metric("setup_s", 0.5, "s");
        let text = report.render("w");
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        report.violation("premise");
        assert!(!report.correct());
    }
}
