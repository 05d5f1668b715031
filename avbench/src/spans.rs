//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans stay in memory for the whole run and are written once, as a
//! Chrome trace, when the run ends. A disabled recorder records nothing,
//! so the untraced run pays only a branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span: layer name, host interval, the span that caused
/// it, and the operation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run_drive`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
    /// Recording thread (one recorder per thread).
    pub tid: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    tid: u32,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`; records only when
    /// `enabled`.
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Spans {
        Spans { enabled, origin, tid, op: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Appends another recorder's finished spans, keeping their parent
    /// links.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The finished spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Self time per span name, seconds: each span's duration minus the part
/// of its interval its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            child_ns[p] += hi.saturating_sub(lo);
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Total duration per span name, seconds.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 / 1e9;
    }
    out
}

/// Host cost of recording one span, nanoseconds, measured on this
/// machine with a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut probe = Spans::new(true, Instant::now(), 0);
    let started = Instant::now();
    for _ in 0..N {
        probe.enter("probe");
        probe.exit();
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// Renders spans as a Chrome trace (complete `X` events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"span\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_only_the_covered_part() {
        let spans = vec![
            span("op", 0, 1_000, None),
            span("a", 100, 400, Some(0)),
            span("b", 500, 900, Some(0)),
            span("a.leaf", 150, 250, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own["op"], 300e-9);
        assert_eq!(own["a"], 200e-9);
        assert_eq!(own["b"], 400e-9);
        assert_eq!(own["a.leaf"], 100e-9);
        // Self times of a tree add up to the root's duration.
        let sum: f64 = own.values().sum();
        assert!((sum - 1_000e-9).abs() < 1e-15);
        assert_eq!(total_times(&spans)["a"], 300e-9);
    }

    #[test]
    fn a_child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("op", 0, 100, None), span("late", 50, 150, Some(0))];
        assert_eq!(self_times(&spans)["op"], 50e-9);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut on = Spans::new(true, Instant::now(), 3);
        on.set_op(7);
        on.enter("outer");
        on.time("inner", || ());
        on.exit();
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].op, spans[1].tid), (7, 3));
        assert!(chrome_trace(&spans).contains("\"name\":\"inner\""));

        let mut off = Spans::new(false, Instant::now(), 0);
        off.enter("outer");
        off.exit();
        assert!(off.into_spans().is_empty());
    }
}
