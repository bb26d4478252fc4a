//! In-memory span recorder for the traced replay. Spans are recorded
//! from the benchmark's own code around calls into each layer's public
//! functions; nothing inside the program is instrumented.

use crate::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Records spans (name, start, end, parent, request id) while enabled;
/// when disabled, [`Tracer::span`] only runs the closure, so the same
/// replay code gives the untraced baseline for the overhead ratio.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Spans recorded from here on belong to `request`.
    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(index) {
            span.end = end;
        }
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name: (summed self time in ns, spans recorded).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut tracer = Tracer::new(true);
        tracer.begin_request(7);
        let value = tracer.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let layers = tracer.self_time_by_layer();
        assert_eq!(layers["outer"].1, 1);
        assert_eq!(layers["inner"].1, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(tracer.spans().is_empty());
    }
}
