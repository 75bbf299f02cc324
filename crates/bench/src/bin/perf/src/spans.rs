//! The benchmark's own span recorder: spans are taken **outside** the
//! libraries, around calls into their public functions, kept in memory
//! and written as Chrome-trace JSON when the traced run ends. Untraced
//! reps run with the recorder off, where [`Recorder::span`] is a plain
//! call.

use std::fmt::Write as _;
use std::time::Instant;

/// Rep ids of a traced run: set-up, the traced rep, and the calls
/// repeated afterwards (alone, or under one worker).
pub const SETUP: u32 = 0;
pub const TRACED_REP: u32 = 1;
pub const EXTRAS: u32 = 2;

/// One timed interval. Spans of one rep share `rep`; `parent` is the
/// span that was open when this one started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub rep: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations (process-wide) made while the span was open.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with an open-span stack.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), rep: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags every span opened from now on with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name` (a child of the innermost
    /// open span). With the recorder off, just runs `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let allocs_before = hec_telemetry::allocations() as u64;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            rep: self.rep,
            name,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.allocs = hec_telemetry::allocations() as u64 - allocs_before;
        out
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e6
    }

    /// [`Recorder::busy_ms`] restricted to the traced rep (set-up excluded).
    pub fn rep_busy_ms(&self, name: &str) -> f64 {
        let in_rep = |s: &&Span| s.name == name && s.rep == TRACED_REP;
        self.spans.iter().filter(in_rep).map(Span::dur_ns).sum::<u64>() as f64 / 1e6
    }

    /// Total allocations made inside every span called `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.allocs).sum()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Self time of `root` plus the self times of all its descendants. Equals
/// the root's duration when the tree nests properly; the traced run
/// checks it against the rep's independently measured wall time.
pub fn tree_self_ns(spans: &[Span], root: u32) -> u64 {
    let mut total = 0u64;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        total += self_ns(spans, id);
        stack.extend(spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.id));
    }
    total
}

/// Renders spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"rep\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.rep,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, rep: 1, name: "x", start_ns, end_ns, allocs: 0 }
    }

    /// rep[0,100] → a[10,40], b[30,60] (overlaps a), c[70,90] → c1[75,80].
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 70, 90),
            span(4, Some(3), 75, 80),
        ]
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let t = tree();
        // Children cover [10,60] and [70,90]: 70 of 100.
        assert_eq!(self_ns(&t, 0), 30);
        assert_eq!(self_ns(&t, 1), 30);
        assert_eq!(self_ns(&t, 3), 15);
        assert_eq!(self_ns(&t, 4), 5);
    }

    #[test]
    fn properly_nested_tree_reconciles_to_the_root_duration() {
        let mut t = tree();
        t[2].start_ns = 40; // remove the overlap
        assert_eq!(tree_self_ns(&t, 0), 100);
        assert_eq!(tree_self_ns(&t, 3), 20);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let t = vec![span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_ns(&t, 0), 5);
    }

    #[test]
    fn recorder_nests_spans_and_is_free_when_off() {
        let mut rec = Recorder::new(true);
        rec.set_rep(3);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].rep), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(rec.busy_ms("outer") >= rec.busy_ms("inner"));
        assert!(chrome_trace(s).contains("\"name\":\"inner\""));

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
