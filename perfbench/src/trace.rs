//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions. Nothing inside the program is
//! instrumented: a span is opened and closed here, on the caller's side.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client thread that recorded the span.
    pub thread: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            thread: self.thread,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per (thread, operation), the summed duration of each span name.
pub fn per_op(spans: &[Span]) -> BTreeMap<(usize, u64), BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<(usize, u64), BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in spans {
        *out.entry((s.thread, s.op))
            .or_default()
            .entry(s.name)
            .or_default() += s.dur_ns();
    }
    out
}

/// Summed self time per span name, over every span.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// One JSON object per span and line: name, op, parent, thread, start,
/// end and self time in microseconds since the run's epoch.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"thread":{},"start_us":{:.3},"end_us":{:.3},"self_us":{:.3}}}"#,
            s.name,
            s.op,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            own as f64 / 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ parse [10,30), mine [30,90) ⊃ check [40,80)
        let spans = vec![
            span("op", 1, None, 0, 100),
            span("parse", 1, Some(0), 10, 30),
            span("mine", 1, Some(0), 30, 90),
            span("check", 1, Some(2), 40, 80),
        ];
        assert_eq!(self_ns(&spans), vec![20, 20, 20, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["mine"], 20);
        assert_eq!(by_name["check"], 40);
    }

    #[test]
    fn per_op_sums_repeated_names() {
        let spans = vec![
            span("op", 1, None, 0, 50),
            span("cand", 1, Some(0), 0, 5),
            span("cand", 1, Some(0), 10, 17),
            span("op", 2, None, 60, 70),
        ];
        let ops = per_op(&spans);
        assert_eq!(ops[&(0, 1)]["cand"], 12);
        assert_eq!(ops[&(0, 2)]["op"], 10);
        assert!(!ops[&(0, 2)].contains_key("cand"));
    }

    #[test]
    fn tracer_nests_by_call_order_and_merge_rebases() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 0);
        let root = t.open("op", 7);
        t.span("inner", 7, || ());
        t.close(root);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        assert!(a[0].dur_ns() >= a[1].dur_ns());
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(to_jsonl(&merged).lines().count(), 4);
    }
}
