//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions, and the per-layer self time they imply.
//!
//! A span's layer is the part of its name before the first `.`
//! (`engine.apply` belongs to `engine`).  Spans are kept in memory and
//! written out once, when the run ends.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span: the start instant, and its slot when recording.
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    slot: Option<usize>,
    started: Instant,
}

/// Records spans for the benchmark's one caller thread.  Timing always happens, so the untraced
/// run measures through the same calls; spans are only stored when
/// `enabled`.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new request: later spans share its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = self.enabled.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.offset_ns(started),
                end_ns: 0,
                parent: self.stack.last().copied(),
                request: self.request,
            });
            self.stack.push(slot);
            slot
        });
        Open { slot, started }
    }

    pub fn exit(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.offset_ns(ended);
            if self.stack.last() == Some(&slot) {
                self.stack.pop();
            }
        }
        ended.saturating_duration_since(open.started)
    }

    /// Adds child spans of `parent` for durations the program reports
    /// itself (for example `ApplyReport::refresh_wall`).  Their order inside
    /// the parent is not reported, so they are laid end to end from the
    /// parent's start; only their durations enter the self-time sums.
    pub fn reported_children(&mut self, parent: &Open, children: &[(&'static str, Duration)]) {
        let Some(slot) = parent.slot else { return };
        let mut at = self.spans[slot].start_ns;
        for &(name, duration) in children {
            let len = duration.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + len,
                parent: Some(slot),
                request: self.spans[slot].request,
            });
            at += len;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover.
pub fn span_self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let length = s.end_ns.saturating_sub(s.start_ns);
            length - covered_ns(kids).min(length)
        })
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(span_self_ns(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
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
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // bench.update [0, 100]
        //   engine.apply [10, 60]
        //     sketch.refresh [10, 40]
        //     engine.swap    [35, 50]   (overlaps refresh: union 10..50)
        //   engine.solve_report [70, 80]
        let spans = vec![
            span("bench.update", 0, 100, None),
            span("engine.apply", 10, 60, Some(0)),
            span("sketch.refresh", 10, 40, Some(1)),
            span("engine.swap", 35, 50, Some(1)),
            span("engine.solve_report", 70, 80, Some(0)),
        ];
        assert_eq!(span_self_ns(&spans), vec![40, 10, 30, 15, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["engine"], 35);
        assert_eq!(layers["sketch"], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("a.x", 10, 20, None), span("b.y", 5, 15, Some(0))];
        assert_eq!(span_self_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_spans() {
        let origin = Instant::now();
        let mut tr = Tracer::new(true, origin);
        tr.next_request();
        let outer = tr.enter("bench.op");
        let inner = tr.enter("engine.apply");
        tr.reported_children(&inner, &[("sketch.refresh", Duration::from_nanos(5))]);
        let _ = tr.exit(inner);
        let _ = tr.exit(outer);
        tr.next_request();
        let lone = tr.enter("engine.batch");
        let _ = tr.exit(lone);
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, None);
        assert_ne!(spans[0].request, spans[3].request);

        let mut off = Tracer::new(false, origin);
        let open = off.enter("engine.apply");
        let _ = off.exit(open);
        assert!(off.spans().is_empty());
    }
}
