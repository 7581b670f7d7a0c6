//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. `open` pushes a span whose parent
//! is the innermost open span, `close` stamps its end; nothing is
//! written until the run is over. A disabled tracer records nothing and
//! reads no clock, so the untraced run executes the same code paths
//! without the cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Most spans written to a trace file; the rest are counted in its last
/// line. Aggregates always use every span.
pub const FILE_SPAN_CAP: usize = 100_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The operation (request index, epoch number, pass number) this span
    /// belongs to: spans of one operation share it.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    dropped: u64,
}

/// Handle to an open span; `None` inside when the tracer is off or full.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl Open {
    /// No span: closing it does nothing and reads no clock.
    pub const NONE: Open = Open(None);
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recording tracer with room for `cap` spans, reserved up front so
    /// a timed loop never reallocates; spans past `cap` are counted as
    /// dropped. All tracers of one run share `origin`.
    pub fn on(origin: Instant, cap: usize) -> Tracer {
        Tracer::new(true, origin, cap)
    }

    fn new(enabled: bool, origin: Instant, cap: usize) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::with_capacity(cap),
            open: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Closes a span whose name depends on what the call turned out to do
    /// (a cache lookup is a hit or a miss only once it returns).
    pub fn close_as(&mut self, span: Open, name: &'static str) {
        if let Some(id) = span.0 {
            self.spans[id as usize].name = name;
        }
        self.close(span);
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, op);
        let out = f();
        self.close(span);
        out
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Joins the spans of several tracers into one id space.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        let base = all.len() as u32;
        all.extend(part.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Self time per span, indexed like `spans`: its duration minus the part
/// of that interval its children cover. Children of one span come from
/// one thread and so never overlap each other; each is clipped to the
/// parent's interval before it is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if child.parent == NO_PARENT {
            continue;
        }
        let parent = &spans[child.parent as usize];
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        let slot = &mut out[child.parent as usize];
        *slot = slot.saturating_sub(end.saturating_sub(start));
    }
    out
}

/// Every span's self time, grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        by_name.entry(span.name).or_default().push(own);
    }
    by_name
}

/// Median duration of an empty span: what each span adds to its parent.
pub fn span_cost_ns(origin: Instant) -> f64 {
    let mut t = Tracer::on(origin, 4096);
    for _ in 0..4096 {
        let s = t.open("trace.empty", 0);
        t.close(s);
    }
    let durations: Vec<u64> = t.into_spans().iter().map(Span::duration_ns).collect();
    crate::stats::median_u64(&durations)
}

/// Where the trace of `workload` goes, relative to the checkout root the
/// benchmark is run from.
pub fn file_for(workload: &str) -> std::path::PathBuf {
    Path::new("benchmark/out").join(format!("trace-{workload}.jsonl"))
}

/// Writes spans as JSON lines, at most [`FILE_SPAN_CAP`] of them, and a
/// closing line saying how many there were.
pub fn write_jsonl(path: &Path, spans: &[Span], dropped: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(FILE_SPAN_CAP);
    for s in &spans[..written] {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(
        out,
        "{{\"spans_recorded\":{},\"spans_written\":{},\"spans_dropped_at_capacity\":{}}}",
        spans.len(),
        written,
        dropped
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, NO_PARENT, "root", 0, 100),
            span(1, 0, "a", 10, 40), // child with its own child
            span(2, 1, "a.inner", 15, 25),
            span(3, 0, "b", 40, 70), // adjacent to `a`: shares the instant 40
            span(4, 0, "c", 90, 100), // ends with the parent
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 30, 10]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["root"], vec![30]);
        assert_eq!(by_name["a"], vec![20]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span(0, NO_PARENT, "root", 10, 20),
            span(1, 0, "late", 15, 30),
        ];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_by_open_order_and_renames_on_close() {
        let mut t = Tracer::on(Instant::now(), 8);
        let root = t.open("request", 7);
        let get = t.open("cache.get", 7);
        t.close_as(get, "cache.get_hit");
        let n = t.scope("decode", 7, || 5);
        assert_eq!(n, 5);
        t.close(root);
        let spans = t.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("request", NO_PARENT, 7),
                ("cache.get_hit", 0, 7),
                ("decode", 0, 7)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn off_and_full_tracers_record_nothing_more() {
        let mut off = Tracer::off();
        let s = off.open("x", 0);
        off.close(s);
        assert!(off.into_spans().is_empty());

        let mut full = Tracer::on(Instant::now(), 1);
        let a = full.open("kept", 0);
        let b = full.open("dropped", 0);
        full.close(b);
        full.close(a);
        assert_eq!(full.dropped(), 1);
        assert_eq!(full.into_spans().len(), 1);
    }

    #[test]
    fn merge_rebases_ids_and_parents() {
        let a = vec![span(0, NO_PARENT, "r", 0, 9), span(1, 0, "c", 1, 2)];
        let b = vec![span(0, NO_PARENT, "r", 0, 9), span(1, 0, "c", 3, 4)];
        let all = merge(vec![a, b]);
        let ids: Vec<_> = all.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, NO_PARENT), (1, 0), (2, NO_PARENT), (3, 2)]);
    }
}
