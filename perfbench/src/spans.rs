//! In-memory span recording for the traced pass.
//!
//! A span is one call into a layer's public functions, timed from the
//! benchmark's side: name (`<layer>.<call>`), start, end, parent and the
//! request it belongs to.  Spans stay in memory and are written out as JSON
//! lines when the run ends.  A span's *self time* is its duration minus the
//! part of it its children cover; the layer of a span is the name's prefix
//! before the first `.` (`bench.*` spans are the harness itself).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Records a complete span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// An empty tracer with the same origin, for another thread; its spans
    /// join this one's with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends the spans of a forked tracer, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Start of span `id` (nanoseconds since the origin).
    pub fn start_ns(&self, id: SpanId) -> u64 {
        self.spans[id].start_ns
    }

    /// Self time in seconds of every span.
    fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                // Union of the children's intervals, clipped to the span.
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9
            })
            .collect()
    }

    /// Summed self time per span name (seconds), over spans whose request
    /// satisfies `keep`.
    pub fn self_by_name(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_seconds()) {
            if keep(s.request) {
                *out.entry(s.name).or_insert(0.0) += own;
            }
        }
        out
    }

    /// Summed duration of the root spans (no parent) whose request satisfies
    /// `keep`, in seconds.
    pub fn root_seconds(&self, keep: impl Fn(u64) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && keep(s.request))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Share of the root spans' time not covered by any layer's self time
    /// (the harness's own `bench.*` self time).
    pub fn unattributed_share(&self, keep: impl Fn(u64) -> bool + Copy) -> f64 {
        let total = self.root_seconds(keep);
        let layers: f64 = self
            .self_by_name(keep)
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, s)| s)
            .sum();
        if total > 0.0 {
            ((total - layers) / total).max(0.0)
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::default();
        let root = t.record("bench.pass", 0, 100, None, 1);
        let a = t.record("plan.plan", 10, 30, Some(root), 1);
        t.record("engine.run", 40, 90, Some(root), 1);
        t.record("ri.search", 50, 80, Some(a + 1), 1);
        let by = t.self_by_name(|_| true);
        assert!((by["bench.pass"] - 30e-9).abs() < 1e-15);
        assert!((by["engine.run"] - 20e-9).abs() < 1e-15);
        assert!((by["ri.search"] - 30e-9).abs() < 1e-15);
        assert!((t.unattributed_share(|_| true) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut t = Tracer::default();
        t.record("bench.pass", 0, 100, None, 1);
        let mut fork = t.fork();
        let root = fork.record("bench.request", 0, 50, None, 2);
        fork.record("wire.roundtrip", 10, 50, Some(root), 2);
        t.absorb(fork);
        let by = t.self_by_name(|r| r == 2);
        assert!((by["bench.request"] - 10e-9).abs() < 1e-15);
        assert!((by["wire.roundtrip"] - 40e-9).abs() < 1e-15);
    }
}
