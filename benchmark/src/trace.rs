//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced run replays every operation stage by stage on the driver
//! thread, through the crates' public functions, and records one span per
//! stage. Spans stay in memory and are written out when the run ends. Spans
//! inside the program itself are ROADMAP item 1, a later issue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// The span that caused this one; `None` for an operation's root.
    pub parent: Option<u32>,
    /// The operation both belong to.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of every operation's root span.
pub const OP: &str = "op";

/// Records spans in memory. With `enabled` false the same code runs and
/// nothing is recorded, which is how the tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Time `f` as a span named `name` of operation `op`, nested under the
    /// span that is open when it starts.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            id,
            parent,
            op,
        });
        self.open.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StageTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

impl StageTotal {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

/// A span's self time is its duration minus what its direct children cover.
pub fn stage_totals(spans: &[Span]) -> BTreeMap<&'static str, StageTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    totals
}

/// The share of the operations' time that no stage accounts for: the root
/// spans' self time over their duration, as a percentage.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    match stage_totals(spans).get(OP) {
        Some(op) if op.total_ns > 0 => 100.0 * op.self_ns as f64 / op.total_ns as f64,
        _ => 0.0,
    }
}

/// One JSON object per line: `name`, `start_ns`, `end_ns`, `id`, `parent`,
/// `op`. Span names are the benchmark's own constants and need no escaping.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, parent, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(OP, 0, None, 0, 1_000),
            span("parse", 1, Some(0), 100, 400),
            span("handle", 2, Some(0), 400, 900),
            span("verify", 3, Some(2), 450, 650),
        ];
        let t = stage_totals(&spans);
        assert_eq!(t[OP].self_ns, 1_000 - 300 - 500);
        assert_eq!(t["parse"].self_ns, 300);
        assert_eq!(t["handle"].self_ns, 500 - 200);
        assert_eq!(t["handle"].total_ns, 500);
        assert_eq!(t["verify"].self_ns, 200);
        assert!((unattributed_pct(&spans) - 20.0).abs() < 1e-9);
        // Self times of a tree add up to its root's duration.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 1_000);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span(OP, 7, |t| {
            t.span("a", 7, |_| 1) + t.span("b", 7, |t| t.span("c", 7, |_| 2))
        });
        assert_eq!(v, 3);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [(OP, None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let root = &t.spans()[0];
        assert!(t.spans()[1..]
            .iter()
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns));

        let mut off = Tracer::new(false);
        assert_eq!(off.span(OP, 0, |t| t.span("a", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_well_formed_object_per_span() {
        let text = to_jsonl(&[span(OP, 0, None, 5, 9), span("a", 1, Some(0), 6, 8)]);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"name\":\"op\",\"start_ns\":5,\"end_ns\":9,\"id\":0,\"parent\":null,\"op\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"name\":\"a\",\"start_ns\":6,\"end_ns\":8,\"id\":1,\"parent\":0,\"op\":0}"
        );
    }
}
