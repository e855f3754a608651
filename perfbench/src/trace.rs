//! The span recorder of traced runs.
//!
//! A span holds a name (the layer-qualified function it wraps, such as
//! `core.run_round`), a tag (the protocol, world or cell the call served),
//! its start and end on the run's monotonic clock, and its parent: the
//! span that was open when it began. Spans are kept in memory and written
//! out when the run ends; a span's self time is its duration minus the
//! time its children cover. With tracing off, [`Tracer::span`] only calls
//! the wrapped closure.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name of the wrapped call.
    pub name: &'static str,
    /// What the call served (protocol, world, cell or request kind).
    pub tag: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` with `tag`; spans opened by `f`
    /// become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Records a span measured elsewhere (for example by a client thread),
    /// returning its index for use as a parent. Ignored when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of the spans named `name` whose tag is
    /// `tag` (any tag when `tag` is `None`).
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// of it its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","tag":"{}","start_ns":{},"end_ns":{},"self_ns":{},"parent":{parent}}}"#,
                s.name, s.tag, s.start_ns, s.end_ns, self_ns[i]
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", "a", |t| {
            t.span("inner", "b", |_| 1) + t.span("inner", "c", |_| 2)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let self_ns = t.self_times_ns();
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - children);
        assert_eq!(t.durations_us("inner", None).len(), 2);
        assert_eq!(t.durations_us("inner", Some("c")).len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
