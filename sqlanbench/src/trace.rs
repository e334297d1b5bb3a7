//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span has a name, a start and an end, the span that caused it
//! and a request id; spans of one request share the id. They stay in
//! memory and are written out as JSON lines when the run ends. A tracer
//! that is off still times the call (the end-to-end figures need the
//! wall time) but records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Free-form qualifier, e.g. the outcome class of an engine submit.
    pub tag: &'static str,
    /// Request id; `0` for spans outside any request.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh span id, so a parent can be named before it completes.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a pre-allocated `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        tag: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span buffer").push(Span {
            id,
            parent,
            name,
            tag,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the span's id for its children. Returns the result and the wall
    /// seconds, timed whether or not the tracer is on.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> (T, f64) {
        self.span_tagged(name, "", parent, f)
    }

    pub fn span_tagged<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, parent, name, tag, 0, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Durations in seconds of the spans named `name` (and tagged `tag`,
    /// if given).
    pub fn seconds(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer")
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::seconds)
            .collect()
    }

    /// Sum of the durations of the direct children of span `parent`.
    pub fn children_seconds(&self, parent: u64) -> f64 {
        self.spans
            .lock()
            .expect("span buffer")
            .iter()
            .filter(|s| s.parent == parent)
            .map(Span::seconds)
            .sum()
    }

    /// Write every span as one JSON object per line; returns the count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span buffer");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.tag, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_an_off_tracer_still_times() {
        let t = Tracer::new(true);
        let ((), outer) = t.span("outer", 0, |id| {
            t.span_tagged("inner", "a", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span_tagged("inner", "b", id, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(root.parent, 0);
        assert!(t.children_seconds(root.id) <= outer);
        assert_eq!(t.seconds("inner", Some("a")).len(), 1);
        assert_eq!(t.seconds("inner", None).len(), 2);

        let off = Tracer::new(false);
        let (v, secs) = off.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
