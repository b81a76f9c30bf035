//! Harness-side spans.
//!
//! The traced run wraps each call into a layer in a span recorded from
//! the benchmark's own files (spans inside the program are a later
//! change). Spans stay in memory and are written out, as Chrome-trace
//! events, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A tracer whose clock starts at `epoch`: tracers of several client
    /// threads share one so that [`Self::absorb`] keeps their order.
    pub fn with_epoch(epoch: Instant) -> Self {
        Tracer {
            epoch,
            ..Self::default()
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Spans opened from here on belong to operation `op_id`. Spans an
    /// earlier operation left open (it failed part-way) are closed now.
    pub fn set_op(&mut self, op_id: u64) {
        while let Some(&open) = self.stack.last() {
            self.exit(open);
        }
        self.op_id = op_id;
    }

    /// Open a span named `name`, child of the span open now.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(idx);
        idx
    }

    /// Close span `idx` (and any span still open inside it).
    pub fn exit(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = end_ns;
            if open == idx {
                break;
            }
        }
    }

    /// Time `f` as a span named `name`, child of the span open now.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// Append the finished spans of `other` (same epoch), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Record a span whose duration another component measured (a
    /// daemon reports its compile and run time in its reply): it is
    /// placed at `offset_ns` inside the span open now and clipped to it.
    pub fn reported(&mut self, name: &'static str, offset_ns: u64, dur_ns: u64) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let (lo, hi) = (self.spans[parent].start_ns, self.now_ns());
        let start_ns = (lo + offset_ns).min(hi);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: (start_ns + dur_ns).min(hi),
            parent: Some(parent),
            op_id: self.op_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self_ns(&self.spans, idx)
    }

    /// Per operation, the summed time of every span called `name`:
    /// whole durations, or self times when `self_only`. Operations in
    /// which no such span ran are absent.
    pub fn per_op_ns(&self, name: &str, self_only: bool) -> Vec<f64> {
        let self_times = if self_only {
            self_ns_all(&self.spans)
        } else {
            Vec::new()
        };
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let ns = if self_only { self_times[i] } else { s.dur_ns() };
                *by_op.entry(s.op_id).or_default() += ns;
            }
        }
        by_op.into_values().map(|ns| ns as f64).collect()
    }

    /// Chrome-trace ("Trace Event Format") document: one complete event
    /// per span, `tid` = operation so each operation gets its own row.
    pub fn chrome_trace(&self) -> Value {
        let self_times = self_ns_all(&self.spans);
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("name", Value::from(s.name)),
                    ("ph", Value::from("X")),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(s.op_id)),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args",
                        obj([
                            ("span", Value::from(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                            ),
                            ("op_id", Value::from(s.op_id)),
                            ("self_us", Value::Num(self_times[i] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", Value::from("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_ns_all(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            kids[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(&mut kids)
        .map(|(parent, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = parent.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            parent.dur_ns() - covered
        })
        .collect()
}

/// Self time of `spans[idx]` (see [`self_ns_all`]).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    self_ns_all(spans)[idx]
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
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("jit", 10, 60, Some(0)),    // child of op
            span("lower", 20, 40, Some(1)),  // grandchild: not op's to subtract
            span("invoke", 70, 90, Some(0)), // sibling of jit
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 20);
        assert_eq!(self_ns(&spans, 1), 50 - 20);
        assert_eq!(self_ns(&spans, 2), 20);
        assert_eq!(self_ns(&spans, 3), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span("req", 100, 200, None),
            span("compile", 110, 160, Some(0)),
            span("run", 150, 190, Some(0)),   // overlaps compile by 10
            span("late", 195, 230, Some(0)),  // overhangs the parent by 30
            span("before", 50, 100, Some(0)), // wholly outside
        ];
        // Covered: 110..190 (80) + 195..200 (5).
        assert_eq!(self_ns(&spans, 0), 100 - 85);
    }

    #[test]
    fn tracer_links_parents_and_groups_by_operation() {
        let mut t = Tracer::new();
        for op in 0..3u64 {
            t.set_op(op);
            t.span("op", |t| {
                t.span("a", |_| std::hint::black_box(1 + 1));
                t.span("a", |t| t.span("b", |_| ()));
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].op_id, 1);
        assert_eq!(t.per_op_ns("a", false).len(), 3);
        assert_eq!(t.per_op_ns("missing", false).len(), 0);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            assert!(t.self_ns(i) <= s.dur_ns());
        }
        let events = t.chrome_trace();
        assert_eq!(
            events.get("traceEvents").unwrap().as_arr().unwrap().len(),
            12
        );
    }

    #[test]
    fn a_failed_operation_cannot_adopt_the_next_ones_spans() {
        let mut t = Tracer::new();
        t.set_op(0);
        let op = t.enter("op");
        t.enter("jit"); // the operation bails out here, both left open
        t.set_op(1);
        t.span("op", |_| ());
        let s = t.spans();
        assert_eq!(s[2].parent, None);
        // Both were closed, inner before outer, before the next op began.
        assert!(s[1].start_ns <= s[1].end_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s[0].end_ns <= s[2].start_ns);
        assert_eq!(op, 0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Tracer::new();
        a.span("op", |t| t.span("x", |_| ()));
        let mut b = Tracer::with_epoch(a.epoch());
        b.set_op(9);
        b.span("op", |t| t.span("y", |_| ()));
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[2].parent, s[3].parent), (None, Some(2)));
        assert_eq!(s[3].op_id, 9);
        assert_eq!(a.per_op_ns("op", false).len(), 2);
    }

    #[test]
    fn reported_spans_are_clipped_to_the_open_span() {
        let mut t = Tracer::new();
        t.span("request", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.reported("daemon.run", 0, 1_000_000);
            t.reported("daemon.far", u64::MAX / 4, 5);
        });
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].dur_ns(), 1_000_000);
        assert!(s[2].end_ns <= s[0].end_ns && s[2].dur_ns() == 0);
        assert!(t.self_ns(0) <= s[0].dur_ns() - 1_000_000);
    }
}
