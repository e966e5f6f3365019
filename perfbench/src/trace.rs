//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions. Nothing is traced inside the program: a
//! span brackets one library call made from this crate.
//!
//! Each span keeps its name, start, end, parent and operation id; spans
//! stay in memory until the run reports. A span's self time is its
//! duration minus the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one workload operation.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in milliseconds (0 with no spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ms() * 1e3
    }
}

/// Span recorder. When disabled, [`Tracer::span`] runs the closure
/// without recording, so the same replay code measures its own
/// tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: RefCell<u64>,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled: false` makes every span a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: RefCell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&self) -> u64 {
        let mut op = self.op.borrow_mut();
        *op += 1;
        *op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let op = *self.op.borrow();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, op });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Per-name totals with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans.borrow())
    }
}

/// Per-name totals with self times: each span's self time is its
/// duration minus the durations of its direct children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns().saturating_sub(covered);
    }
    out
}

/// Summed duration of the top-level spans (no parent), ns: what the
/// replay's root calls cover of its wall time.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent.is_none()).map(Span::ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("outer", 0, 100, None),
            span("inner", 10, 40, Some(0)),
            span("inner", 50, 70, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["outer"].total_ns, 100);
        assert_eq!(t["outer"].self_ns, 50);
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["inner"].total_ns, 50);
        assert_eq!(t["inner"].self_ns, 42);
        assert_eq!(t["leaf"].self_ns, 8);
        assert_eq!(top_level_ns(&spans), 100);
    }

    #[test]
    fn nesting_and_ops_are_recorded() {
        let tracer = Tracer::new(true);
        let op = tracer.next_op();
        let v = tracer.span("a", || tracer.span("b", || 7));
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == op));
        assert!(spans[0].ns() >= spans[1].ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("a", || 3), 3);
        assert!(tracer.spans().is_empty());
    }
}
