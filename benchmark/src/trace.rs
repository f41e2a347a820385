//! Spans recorded around the benchmark's calls into each layer: name,
//! start, end, parent, and the id of the fit or request they belong to.
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span store, used from one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    pub fn span<R>(&mut self, trace: u64, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a span with an optional
    /// parent (a span id returned by an earlier [`Tracer::record`]).
    pub fn record(
        &mut self,
        trace: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Durations in seconds of every span with this name, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Total self time in seconds per span name: each span's duration less
    /// the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[span.id]);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_direct_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let root = t.record(1, "fit", None, at(0), at(100));
        t.record(1, "encode", Some(root), at(0), at(30));
        t.record(1, "epoch", Some(root), at(30), at(95));
        let self_times = t.self_times();
        assert!((self_times["fit"] - 0.005).abs() < 1e-9);
        assert!((self_times["encode"] - 0.030).abs() < 1e-9);
        assert_eq!(t.durations("epoch").len(), 1);
    }

    #[test]
    fn nested_spans_get_parents() {
        let mut t = Tracer::new(Instant::now());
        t.span(7, "outer", |t| t.span(7, "inner", |_| ()));
        assert_eq!((t.spans[0].parent, t.spans[1].parent), (None, Some(0)));
        assert_eq!(t.durations("inner").len(), 1);
    }
}
