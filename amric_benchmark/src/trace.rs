//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The crates carry no instrumentation (ROADMAP item 4 adds it), so every
//! span here is timed from outside. An end-to-end operation is a root
//! span; its first child `e2e` is the real call, the other children are
//! replays — from the benchmark's own code, on the same inputs, in the
//! order the operation makes them — of the public calls it is made of.
//! Spans stay in memory and are written out when the workload ends.

use crate::json::Value;
use std::time::Instant;

/// One timed interval. `op` groups the spans of one end-to-end operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Parent span id; `None` for a root.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one operation.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log with one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new operation and return its id.
    pub fn begin_op(&mut self, name: &'static str) -> u32 {
        let op = self.next_op;
        self.next_op += 1;
        self.open(name, None, op)
    }

    /// Open a child span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let op = self.spans[parent as usize].op;
        self.open(name, Some(parent), op)
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.seconds()
    }

    /// Time `f` as a child span of `parent`; returns its result and the
    /// span's seconds.
    pub fn child<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, parent);
        let out = f();
        let secs = self.end(id);
        (out, secs)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span log as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("id", Value::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                        ),
                        ("op", Value::Num(f64::from(s.op))),
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its interval that its direct children cover (overlapping children
/// are merged first, and a child reaching outside the parent is clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_cover() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps span 1: union is 10..60
            span(3, Some(0), 90, 130), // sticks out: clipped to 90..100
            span(4, Some(1), 10, 15),
            span(5, Some(0), 200, 300), // entirely outside: covers nothing
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 40, 5, 100]);
    }

    #[test]
    fn leaves_keep_their_whole_duration() {
        let spans = vec![span(0, None, 5, 25)];
        assert_eq!(self_times_ns(&spans), vec![20]);
    }

    #[test]
    fn tracer_nests_and_groups_by_op() {
        let mut t = Tracer::default();
        let a = t.begin_op("dump");
        let (v, secs) = t.child("e2e", a, || 7);
        t.end(a);
        let b = t.begin_op("restart");
        t.end(b);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!((s[0].op, s[1].op, s[2].op), (0, 0, 1));
        assert_eq!(s[1].parent, Some(a));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = t.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 3);
        assert_eq!(json.as_arr().unwrap()[0].get("parent"), Some(&Value::Null));
    }
}
