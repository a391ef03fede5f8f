//! In-memory spans recorded around the benchmark's calls into each
//! layer. Spans are kept in memory and written out once the run ends;
//! self time and coverage are derived afterwards, never while timing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `sched.validate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (instance, HTTP body or stream run) the span serves.
    pub request: u64,
    /// Outcome flag where the layer has one (a dual probe's accept).
    pub ok: bool,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// A span recorder. A disabled tracer runs the wrapped calls without
/// recording anything, so traced and untraced passes share one code
/// path and their wall-time difference is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn spans_enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking layer")
    }

    /// Tag the spans opened from now on with request id `request`.
    pub fn set_request(&self, request: u64) {
        if self.enabled {
            self.lock().request = request;
        }
    }

    fn open(&self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut st = self.lock();
        let id = st.spans.len();
        let span = Span {
            name,
            start: 0,
            end: 0,
            parent: st.open.last().copied(),
            request: st.request,
            ok: true,
        };
        st.spans.push(span);
        st.open.push(id);
        drop(st);
        let start = self.now();
        self.lock().spans[id].start = start;
        Some(id)
    }

    fn close(&self, id: Option<usize>, ok: bool) {
        if let Some(id) = id {
            let end = self.now();
            let mut st = self.lock();
            let popped = st.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must close in LIFO order");
            st.spans[id].end = end;
            st.spans[id].ok = ok;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, true);
        out
    }

    /// Run `f` inside a span whose outcome flag is `ok(&result)`.
    pub fn span_flagged<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        ok: impl FnOnce(&T) -> bool,
    ) -> T {
        let id = self.open(name);
        let out = f();
        let flag = ok(&out);
        self.close(id, flag);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"ok\":{}}}",
                s.name, s.start, s.end, s.request, s.ok
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals derived from a span list.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Spans with this name.
    pub count: u64,
    /// Spans with the outcome flag set.
    pub ok: u64,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the time its child spans
    /// cover), in seconds.
    pub self_s: f64,
    /// Each span's duration, in seconds.
    pub durations: Vec<f64>,
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children (children never overlap, since
/// the harness calls layers one at a time).
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.nanos();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.nanos().saturating_sub(c))
        .collect()
}

/// Group spans by layer name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_nanos(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.ok += s.ok as u64;
        l.total_s += s.nanos() as f64 * 1e-9;
        l.self_s += self_ns as f64 * 1e-9;
        l.durations.push(s.nanos() as f64 * 1e-9);
    }
    out
}

/// Share of the spans named `root` that their direct children cover.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let (mut total, mut covered) = (0u64, 0u64);
    for s in spans {
        if s.name == root {
            total += s.nanos();
        } else if s.parent.is_some_and(|p| spans[p].name == root) {
            covered += s.nanos();
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            ok: true,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_nanos(&spans), vec![60, 10, 20, 10]);
        assert!((coverage(&spans, "root") - 0.4).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_and_tag_requests() {
        let t = Tracer::new(true);
        t.set_request(7);
        t.span("outer", || t.span_flagged("inner", || 3, |v| *v > 5));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(!spans[1].ok);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
