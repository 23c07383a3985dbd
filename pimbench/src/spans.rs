//! In-memory span recording for the traced run.
//!
//! Every request opens a root span; each public call it makes into a
//! layer opens a child span. Spans carry a name, start, end, parent and
//! request id, are kept in memory, and are summarized when the run ends.
//! A span's *self time* is its duration minus the time its children
//! cover, so the self times of one request's spans partition the root
//! span exactly (integer nanoseconds, no rounding). The root's own self
//! time is the part of the request no layer call covers.
//!
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `runtime.drain`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans; `open`/`close` must pair like brackets.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    fn now(&self) -> Option<u64> {
        self.origin.map(|o| o.elapsed().as_nanos() as u64)
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if let Some(now) = self.now() {
            self.push(name, now);
        }
    }

    fn push(&mut self, name: &'static str, start: u64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (unbalanced `open`/`close`).
    pub fn close(&mut self) {
        if let Some(now) = self.now() {
            self.pop(now);
        }
    }

    fn pop(&mut self, end: u64) {
        let idx = self.stack.pop().expect("close without a matching open");
        // One monotonic clock and a strict stack: children nest inside
        // their parent and siblings follow each other.
        debug_assert!(end >= self.spans[idx].start);
        self.spans[idx].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p]
                .checked_sub(s.dur())
                .expect("children must nest inside their parent");
        }
    }
    out
}

/// Share of the time in spans named `root` that none of their child
/// spans covers; 0 when there are none.
pub fn uncovered_share(spans: &[Span], root: &str) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.name == root {
            own += t;
            total += s.dur();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds spans from (name, start, end, parent) tuples.
    fn spans(list: &[(&'static str, u64, u64, Option<usize>)]) -> Vec<Span> {
        list.iter()
            .map(|&(name, start, end, parent)| Span {
                name,
                start,
                end,
                parent,
                request: 0,
            })
            .collect()
    }

    #[test]
    fn children_partition_the_parent() {
        let s = spans(&[
            ("request", 0, 100, None),
            ("runtime.submit", 5, 15, Some(0)),
            ("runtime.drain", 20, 90, Some(0)),
            ("inner", 30, 50, Some(2)),
        ]);
        assert_eq!(self_times(&s), vec![20, 10, 50, 20]);
        assert_eq!(self_times(&s).iter().sum::<u64>(), 100);
        let by = self_time_by_name(&s);
        assert_eq!(by["request"], 20);
        assert_eq!(by["runtime.drain"], 50);
    }

    #[test]
    fn each_request_tree_sums_separately() {
        let s = spans(&[
            ("request", 0, 10, None),
            ("a", 2, 4, Some(0)),
            ("check", 10, 12, None),
            ("request", 12, 30, None),
            ("a", 12, 30, Some(3)),
        ]);
        assert_eq!(self_times(&s), vec![8, 2, 2, 0, 18]);
    }

    #[test]
    #[should_panic(expected = "children must nest")]
    fn children_longer_than_their_parent_are_refused() {
        self_times(&spans(&[("request", 0, 10, None), ("a", 0, 20, Some(0))]));
    }

    #[test]
    fn uncovered_share_counts_only_root_self_time() {
        let s = spans(&[
            ("request", 0, 100, None),
            ("runtime.drain", 10, 90, Some(0)),
            ("bench.reference", 100, 400, None),
            ("request", 400, 500, None),
            ("runtime.drain", 400, 500, Some(3)),
        ]);
        // 20 ns of 200 ns of request time lie outside the drains; the
        // reference span is not a request.
        assert_eq!(uncovered_share(&s, "request"), 0.1);
        assert_eq!(uncovered_share(&[], "request"), 0.0);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut t = Tracer::on();
        t.set_request(7);
        t.open("request");
        t.time("runtime.submit", || std::hint::black_box(1 + 1));
        t.time("runtime.drain", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.request == 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[2].start && s[2].end <= s[0].end);
        assert_eq!(self_times(s).iter().sum::<u64>(), s[0].dur());
        assert!(s[2].dur() >= 1_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("request");
        assert_eq!(t.time("x", || 3), 3);
        t.close();
        assert!(t.spans().is_empty());
    }
}
