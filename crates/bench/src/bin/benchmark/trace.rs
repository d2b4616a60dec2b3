//! In-memory span recorder for the traced (`--trace 1`) runs.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; nothing inside the engine crates is
//! instrumented.  Every span keeps its name, start, end, the span that
//! caused it and the operation it belongs to; the whole list stays in
//! memory until the run ends.
//!
//! By convention each timed operation is one root span named [`OP`] whose
//! children are the steps of that operation.  Root spans with other names
//! are probes: layer calls timed next to the workload, not inside it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of one timed operation.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Step or probe name (`layer.step`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit() matches an enter()");
        self.spans[index].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// Share of the operations' time that their step spans account for:
    /// one minus the operations' own self time over their total time.
    pub fn coverage(&self) -> f64 {
        match self.totals().get(OP) {
            Some(op) if op.total_ns > 0 => 1.0 - op.self_ns as f64 / op.total_ns as f64,
            _ => 0.0,
        }
    }

    /// Mean duration of the operation spans, in nanoseconds.
    pub fn mean_op_ns(&self) -> f64 {
        self.totals().get(OP).map_or(0.0, |op| op.mean_us() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0, 100) ⊃ a [10, 40) ⊃ a.inner [15, 25); op ⊃ b [50, 90);
        // plus an unrelated root probe.
        let tracer = Tracer {
            origin: Instant::now(),
            spans: vec![
                span(OP, 0, 100, None),
                span("a", 10, 40, Some(0)),
                span("a.inner", 15, 25, Some(1)),
                span("b", 50, 90, Some(0)),
                span("probe", 200, 205, None),
            ],
            open: Vec::new(),
        };
        let totals = tracer.totals();
        assert_eq!(
            totals[OP],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["a.inner"].self_ns, 10);
        assert_eq!(totals["b"].self_ns, 40);
        assert_eq!(totals["probe"].self_ns, 5);
        assert!((tracer.coverage() - 0.7).abs() < 1e-12);
        assert_eq!(tracer.mean_op_ns(), 100.0);
    }

    #[test]
    fn recorded_spans_nest_and_share_the_operation_id() {
        let mut tracer = Tracer::default();
        tracer.enter(OP, 7);
        let x = tracer.time("step", 7, || 41 + 1);
        tracer.exit();
        tracer.time("probe", 8, || ());
        assert_eq!(x, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(tracer.coverage() <= 1.0);
    }
}
