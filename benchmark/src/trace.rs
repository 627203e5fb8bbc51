//! Spans recorded by the benchmark around calls into each layer.
//!
//! No timer lives inside a product crate: the replay calls the layers'
//! public functions from the benchmark's own files and brackets each call
//! with [`Tracer::begin`]/[`Tracer::end`]. Spans stay in memory and are
//! written once, at exit, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's origin, the
/// span that caused it, and the replayed frame it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; must be passed back to
/// [`Tracer::end`] in LIFO order.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    frame: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            frame: 0,
        }
    }

    /// Sets the frame id stamped on every span opened from now on.
    pub fn set_frame(&mut self, frame: usize) {
        self.frame = frame;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            frame: self.frame,
        });
        self.stack.push(id);
        // Read the clock last, so bookkeeping is charged to the parent.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id.0), "spans must close LIFO");
        self.spans[id.0].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of a well-formed trace nest inside their
/// parent and do not overlap each other, so this never underflows; a
/// malformed trace saturates at zero instead of wrapping.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per span name, one value per frame: the summed duration (or self
/// time) in milliseconds of that name's spans within the frame.
pub fn per_frame_ms(spans: &[Span], values_ns: &[u64]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<(&'static str, usize), u64> = BTreeMap::new();
    for (s, v) in spans.iter().zip(values_ns) {
        *by.entry((s.name, s.frame)).or_default() += v;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in by {
        out.entry(name).or_default().push(ns as f64 / 1e6);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the frame id and
/// parent span index in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{},\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.frame,
            i,
            parent
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // frame ⊃ preproc ⊃ {build, ois}; frame ⊃ infer.
        let spans = vec![
            span("frame", 0, 100, None),
            span("preproc", 5, 60, Some(0)),
            span("build", 10, 30, Some(1)),
            span("ois", 30, 55, Some(1)),
            span("infer", 60, 98, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![7, 10, 20, 25, 38]);
        // Telescoping: selfs sum back to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn zero_length_spans_are_harmless() {
        let spans = vec![
            span("frame", 10, 10, None),
            span("child", 10, 10, Some(0)),
            span("other", 20, 25, None),
            span("instant", 22, 22, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 0, 5, 0]);
    }

    #[test]
    fn malformed_overlap_saturates_instead_of_wrapping() {
        let spans = vec![
            span("p", 0, 10, None),
            span("a", 0, 8, Some(0)),
            span("b", 2, 10, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_and_stamps_frames() {
        let mut t = Tracer::new();
        t.set_frame(7);
        let outer = t.begin("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|x| x.frame == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn per_frame_sums_repeated_names() {
        let mut spans = vec![
            span("sa", 0, 4_000_000, None),
            span("sa", 5_000_000, 7_000_000, None),
        ];
        spans.push(Span {
            frame: 1,
            ..span("sa", 0, 1_000_000, None)
        });
        let durs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        assert_eq!(per_frame_ms(&spans, &durs)["sa"], vec![6.0, 1.0]);
    }

    #[test]
    fn chrome_json_parses() {
        let spans = vec![span("octree.build", 1_000, 3_500, None)];
        let doc = minihttp::json::parse(&chrome_json(&spans)).expect("valid JSON");
        let ev = &doc.arr("traceEvents").unwrap()[0];
        assert_eq!(ev.str_at("name"), Some("octree.build"));
        assert_eq!(ev.str_at("cat"), Some("octree"));
        assert_eq!(ev.num("dur"), Some(2.5));
    }
}
