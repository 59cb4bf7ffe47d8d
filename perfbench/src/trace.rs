//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program (outside-in): name, start, end, parent, and the id of
//! the request they belong to. A span may stand for many calls of one
//! streaming interface (`calls > 1`); its `busy` is then the sum of the
//! per-call times. The spans are written out as JSON lines at exit.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub req: u64,
    pub start: Duration,
    pub end: Duration,
    pub busy: Duration,
    pub calls: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a finished span covering `start..end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.record_busy(name, parent, req, start, end, end - start, 1)
    }

    /// Records a span standing for `calls` calls whose times add up to
    /// `busy` within `start..end`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_busy(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
        busy: Duration,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            req,
            start: start - self.origin,
            end: end - self.origin,
            busy,
            calls,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }

    /// Fixes a span's end after its children were recorded.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end = end - self.origin;
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
            span.busy = end - span.start;
        }
    }

    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id)
    }

    pub fn busy_s(&self, id: SpanId) -> f64 {
        self.span(id).map_or(0.0, |s| s.busy.as_secs_f64())
    }

    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Sum of the busy times of `id`'s children named `name`.
    pub fn child_busy_s(&self, id: SpanId, name: &str) -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        self.children(id).filter(|c| c.name == name).map(|c| c.busy.as_secs_f64()).sum::<f64>()
            + 0.0
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                s.name,
                s.req,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.busy.as_nanos(),
                s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_add_up_by_name() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let root = t.record("query", None, 0, t0, t0 + Duration::from_millis(10));
        t.record("ita.ita", Some(root), 0, t0, t0 + Duration::from_millis(3));
        t.record("dp.size_bounded", Some(root), 0, t0, t0 + Duration::from_millis(5));
        assert!((t.busy_s(root) - 0.010).abs() < 1e-9);
        assert!((t.child_busy_s(root, "dp.size_bounded") - 0.005).abs() < 1e-9);
    }
}
