//! In-memory spans around the benchmark's own calls into each crate's
//! public functions. Nothing inside the program is instrumented: a span
//! covers exactly one call the benchmark makes (or one wire round trip),
//! records the span that caused it and the request it belongs to, and may
//! carry counts observed at that boundary (rows, hits, paths explored).
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// The span recorder. Disabled recorders cost one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: (parent != NONE).then_some(parent),
            request,
            counts: Vec::new(),
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Closes a span, attaching the counts observed at its boundary.
    pub fn close(&self, id: SpanId, counts: &[(&'static str, f64)]) {
        if id == NONE {
            return;
        }
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let span = &mut spans[id];
        span.end_ns = end;
        span.counts.extend_from_slice(counts);
    }

    /// Times `f` as a span that carries no counts.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id, &[]);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"counts\":{{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

/// Durations in ms of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// The values of count `key` over every span called `name`.
pub fn counts(spans: &[Span], name: &str, key: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.count(key))
        .collect()
}

/// Σ count `num` over Σ count `den` across spans called `name` (NaN when
/// the denominator is zero).
pub fn ratio(spans: &[Span], name: &str, num: &str, den: &str) -> (f64, usize) {
    let n: f64 = counts(spans, name, num).iter().sum();
    let d: f64 = counts(spans, name, den).iter().sum();
    let samples = counts(spans, name, den).len();
    (if d > 0.0 { n / d } else { f64::NAN }, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_counts() {
        let t = Tracer::new(true);
        let root = t.open("request", 7, NONE);
        let child = t.open("mdw-core.search", 7, root);
        t.close(child, &[("hits", 3.0)]);
        t.close(root, &[]);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].count("hits"), Some(3.0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(counts(&spans, "mdw-core.search", "hits"), vec![3.0]);
        let off = Tracer::new(false);
        assert_eq!(off.open("x", 0, NONE), NONE);
        assert!(off.spans().is_empty());
    }
}
