//! The benchmark's own statistics: nearest-rank percentiles with the
//! "ten samples beyond" support rule, the generator's idle gap,
//! telemetry registry deltas, span self time and the reconciliation
//! ratio. Everything here is pure so it can be unit-tested in isolation.

use isomit_telemetry::RegistrySnapshot;

/// Samples that must lie strictly above a percentile for it to be
/// reported (so a p99 needs at least 1000 samples).
pub const MIN_BEYOND: usize = 10;

/// Sorts latencies ascending (they are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// 1-based nearest rank of quantile `q` in a sample of `n`:
/// `ceil(q * n)`, at least 1.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(nearest_rank(sorted.len(), q) - 1).copied()
}

/// Samples strictly beyond the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, q)
}

/// Whether a sample of `n` supports quantile `q`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Percentile of `q` only when the sample supports it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if supports(sorted.len(), q) {
        percentile(sorted, q)
    } else {
        None
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Mean idle gap of a serial generator: the time from each reply to the
/// next send, over requests given as `(send time, latency)` in send
/// order; 0 with fewer than two requests.
pub fn mean_gap_ns(requests: &[(u64, u64)]) -> f64 {
    let gaps: Vec<f64> = requests
        .windows(2)
        .map(|w| w[1].0.saturating_sub(w[0].0 + w[0].1) as f64)
        .collect();
    mean(&gaps).unwrap_or(0.0)
}

/// Change of one histogram between two registry snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistDelta {
    /// Recordings made between the snapshots.
    pub count: u64,
    /// Sum of those recordings (nanoseconds for `*_ns` histograms).
    pub sum: u64,
}

impl HistDelta {
    /// `sum / count`, or 0 when nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// `after - before` for histogram `name`; a histogram missing from a
/// snapshot counts as empty.
pub fn hist_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> HistDelta {
    let read = |s: &RegistrySnapshot| s.histogram(name).map_or((0, 0), |h| (h.count(), h.sum()));
    let (c0, s0) = read(before);
    let (c1, s1) = read(after);
    HistDelta {
        count: c1.saturating_sub(c0),
        sum: s1.saturating_sub(s0),
    }
}

/// `after - before` for counter `name` (missing counts as 0).
pub fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    let read = |s: &RegistrySnapshot| s.counter(name).unwrap_or(0);
    read(after).saturating_sub(read(before))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One recorded span: a layer's call interval within one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `json.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children.get_mut(p)) {
            slot.push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(cursor);
                let e = e.min(span.end);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Share of the untraced end-to-end mean that the traced layers do not
/// explain: `(e2e - sum of layer self time) / e2e`. The remainder is the
/// io, queueing and scheduling share of a request.
pub fn gap_ratio(e2e_mean: f64, layer_self_sum: f64) -> f64 {
    ratio(e2e_mean - layer_self_sum, e2e_mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_telemetry::Registry;

    #[test]
    fn nearest_rank_percentiles() {
        let values = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&values, 0.50), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Nearest rank picks an observed value, never an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.51), Some(3.0));
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        let values: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_percentile(&values, 0.99), None);
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&values, 0.99), Some(989.0));
    }

    #[test]
    fn generator_gap_runs_from_reply_to_next_send() {
        // Sent at 0 and answered at 10, next sent at 13 (gap 3); that
        // one answered at 20, next sent at 20 (gap 0).
        assert_eq!(mean_gap_ns(&[(0, 10), (13, 7), (20, 5)]), 1.5);
        // Overlapping requests never count a negative gap.
        assert_eq!(mean_gap_ns(&[(0, 10), (5, 1)]), 0.0);
        assert_eq!(mean_gap_ns(&[(0, 10)]), 0.0);
    }

    #[test]
    fn registry_deltas_use_sum_and_count() {
        let registry = Registry::new();
        let hist = registry.histogram("layer.ns");
        let counter = registry.counter("layer.count");
        hist.record(100);
        counter.add(3);
        let before = registry.snapshot();
        hist.record(1_000);
        hist.record(3_000);
        counter.add(4);
        let after = registry.snapshot();
        let delta = hist_delta(&before, &after, "layer.ns");
        assert_eq!(
            delta,
            HistDelta {
                count: 2,
                sum: 4_000
            }
        );
        assert_eq!(delta.mean(), 2_000.0);
        assert_eq!(counter_delta(&before, &after, "layer.count"), 4);
        // Missing names read as empty, not as an error.
        assert_eq!(hist_delta(&before, &after, "absent").mean(), 0.0);
        assert_eq!(counter_delta(&before, &after, "absent"), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("request", 0, 100, None),
            span("extract", 10, 60, Some(0)),
            span("forest", 10, 30, Some(1)),
            span("support", 25, 50, Some(1)),
            span("query", 70, 90, Some(0)),
        ];
        let own = self_times(&spans);
        // request: 100 - (50 + 20) = 30
        assert_eq!(own[0], 30);
        // extract: 50 - union([10,30],[25,50]) = 50 - 40 = 10
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 25);
        assert_eq!(own[4], 20);
        // A child sticking out of its parent only covers the overlap.
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn reconciliation_ratio() {
        assert_eq!(gap_ratio(10.0, 7.5), 0.25);
        assert_eq!(gap_ratio(10.0, 10.0), 0.0);
        // Layers that overrun the end-to-end mean show as negative gap.
        assert!(gap_ratio(10.0, 12.0) < 0.0);
        assert_eq!(gap_ratio(0.0, 1.0), 0.0);
    }
}
