//! Spans recorded by the benchmark around its calls into each layer —
//! kept in memory, written out when the traced run ends. No span lives
//! inside the library; that is a later change.

use std::time::Instant;

use crate::json::{obj, Value};

/// Index of a span in its [`Trace`].
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share it.
    pub request: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.nanos()
    }

    /// Time one call into a layer as a child span of `parent`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let request = self.spans[parent as usize].request;
        let id = self.begin(name, Some(parent), request);
        let out = f();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// A span's self time: its duration minus the part of that interval
    /// its child spans cover (children of one parent never overlap here —
    /// the benchmark makes its layer calls one after another).
    pub fn self_nanos(&self, id: SpanId) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::nanos)
            .sum();
        self.spans[id as usize].nanos().saturating_sub(covered)
    }

    pub fn to_json(&self, counts: Value) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| u64::from(p).into()),
                    ),
                    ("request_id", u64::from(s.request).into()),
                ])
            })
            .collect();
        obj([("counts", counts), ("spans", Value::Array(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        let root = t.begin("request", None, 7);
        let ((), a) = t.call("a", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ((), b) = t.call("b", root, || ());
        let total = t.end(root);
        assert_eq!(t.spans()[1].request, 7);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(a >= 2_000_000 && total >= a + b);
        assert_eq!(t.self_nanos(root), total - a - b);
        assert_eq!(t.durations("a"), vec![a as f64]);
    }
}
