//! The benchmark's span recorder: `{name, start_ns, end_ns, parent,
//! request}` records held in memory and written out once at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<u32>,
    /// Spans of one request share this number.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Per-name roll-up of a trace.
pub struct Layer {
    pub self_ns: u64,
    /// Ascending span durations, microseconds.
    pub durations_us: Vec<f64>,
}

impl Trace {
    /// Traces that will be merged share one `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u32,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Runs `work` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = work();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Opens a span whose children are recorded before it closes; the
    /// returned index is valid as their `parent` right away.
    pub fn open(&mut self, name: &'static str, request: u32) -> u32 {
        let start = Instant::now();
        self.record(name, start, start, None, request)
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.ns(Instant::now());
    }

    /// Appends another thread's trace, keeping its parent links and
    /// giving its requests numbers of their own.
    pub fn merge(&mut self, other: Trace) {
        let span_base = self.spans.len() as u32;
        let request_base = self.spans.iter().map(|s| s.request + 1).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + span_base);
            s.request += request_base;
            s
        }));
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover. Overlapping children count
    /// once; a child reaching outside its parent is clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if start < end {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Summed self time and sorted durations per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let layer = layers.entry(span.name).or_insert(Layer {
                self_ns: 0,
                durations_us: Vec::new(),
            });
            layer.self_ns += self_ns;
            layer.durations_us.push(span.duration_ns() as f64 / 1e3);
        }
        for layer in layers.values_mut() {
            layer.durations_us.sort_by(f64::total_cmp);
        }
        layers
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(spans: &[(u64, u64, Option<u32>)]) -> Trace {
        let mut t = Trace::new(Instant::now());
        for &(start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name: "s",
                start_ns,
                end_ns,
                parent,
                request: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let t = trace(&[
            (0, 100, None),
            (10, 40, Some(0)),
            (30, 60, Some(0)), // overlaps the previous child by 10
            (70, 80, Some(0)),
            (35, 38, Some(2)), // grandchild: shortens span 2, not the root
        ]);
        // Children cover [10, 60) and [70, 80): 60 of the root's 100.
        assert_eq!(t.self_times_ns(), [40, 30, 27, 10, 3]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let t = trace(&[
            (50, 100, None),
            (40, 60, Some(0)),
            (90, 130, Some(0)),
            (0, 10, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 30);
    }

    #[test]
    fn merge_keeps_parent_links_and_separates_requests() {
        let mut a = trace(&[(0, 10, None), (1, 2, Some(0))]);
        let mut b = trace(&[(5, 9, None), (6, 7, Some(0))]);
        b.spans[0].request = 3;
        b.spans[1].request = 3;
        a.merge(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].request, 4);
        assert_eq!(a.self_times_ns(), [9, 1, 3, 1]);
    }

    #[test]
    fn open_spans_enclose_children_recorded_before_close() {
        let mut t = Trace::new(Instant::now());
        let root = t.open("root", 0);
        t.scope("child", Some(root), 0, || std::hint::black_box(1 + 1));
        t.close(root);
        let root_span = &t.spans[root as usize];
        let child = &t.spans[1];
        assert!(root_span.start_ns <= child.start_ns && child.end_ns <= root_span.end_ns);
        let layers = t.layers();
        assert_eq!(layers["root"].durations_us.len(), 1);
        assert_eq!(layers["child"].durations_us.len(), 1);
    }
}
