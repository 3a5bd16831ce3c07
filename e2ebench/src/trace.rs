//! In-memory spans around the calls into each layer.
//!
//! A [`Tracer`] records (name, start, end, parent, op id) per span while a
//! traced pass runs and touches no file until the pass is over. A layer's
//! self time is its span minus the part its child spans cover, so the self
//! times of one op add up to the op's root span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<usize>,
    /// Ordinal of the op the span belongs to.
    pub op: u64,
}

/// Handle of an open span, given back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: u64,
}

impl Tracer {
    /// A disabled tracer costs a branch per call and reads no clock.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; a span opened with
    /// nothing open is the root of a new op.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.ops += 1;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.ops,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span, and with it any span still open inside it (an op
    /// that bailed out on an error leaves some).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per op, the root span's duration and every layer's self time, in ns.
pub struct OpBreakdown {
    pub root_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Folds spans into one [`OpBreakdown`] per op, asserting that the self
/// times add up to the root span.
pub fn breakdown(spans: &[Span]) -> Vec<OpBreakdown> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut ops: BTreeMap<u64, OpBreakdown> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let duration = span.end_ns - span.start_ns;
        assert!(
            child_ns[i] <= duration,
            "children of span {:?} outlast it",
            span.name
        );
        let op = ops.entry(span.op).or_insert(OpBreakdown {
            root_ns: 0,
            self_ns: BTreeMap::new(),
        });
        if span.parent.is_none() {
            op.root_ns += duration;
        }
        *op.self_ns.entry(span.name).or_insert(0) += duration - child_ns[i];
    }
    let ops: Vec<OpBreakdown> = ops.into_values().collect();
    for op in &ops {
        let total: u64 = op.self_ns.values().sum();
        assert_eq!(total, op.root_ns, "self times must add up to the op span");
    }
    ops
}

/// The raw spans as tab-separated text, one line per span.
pub fn render_tsv(spans: &[Span]) -> String {
    let mut out = String::from("op\tindex\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn self_times_telescope_to_the_root() {
        // op 1: root 0..100 { parse 5..15, exec 20..90 { tag 30..50, tag 60..70 } }
        // op 2: root 200..230 { parse 205..210 }
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("parse", 5, 15, Some(0), 1),
            span("exec", 20, 90, Some(0), 1),
            span("tag", 30, 50, Some(2), 1),
            span("tag", 60, 70, Some(2), 1),
            span("op", 200, 230, None, 2),
            span("parse", 205, 210, Some(5), 2),
        ];
        let ops = breakdown(&spans);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].root_ns, 100);
        assert_eq!(ops[0].self_ns["op"], 20);
        assert_eq!(ops[0].self_ns["parse"], 10);
        assert_eq!(ops[0].self_ns["exec"], 40);
        assert_eq!(ops[0].self_ns["tag"], 30);
        assert_eq!(ops[1].root_ns, 30);
        assert_eq!(ops[1].self_ns["op"], 25);
        assert_eq!(ops[1].self_ns["parse"], 5);
    }

    #[test]
    fn recorded_spans_nest_and_add_up() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            let root = t.enter("op");
            let a = t.enter("a");
            let b = t.enter("b");
            std::hint::black_box((0..1000).sum::<u64>());
            t.exit(b);
            t.exit(a);
            let c = t.enter("a");
            t.exit(c);
            t.exit(root);
        }
        let ops = breakdown(t.spans());
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|op| op.self_ns.len() == 3));
        assert_eq!(render_tsv(t.spans()).lines().count(), 1 + 12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.enter("op");
        t.exit(root);
        assert!(t.spans().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    #[should_panic(expected = "outlast")]
    fn overlong_children_are_rejected() {
        breakdown(&[span("op", 0, 10, None, 1), span("x", 0, 20, Some(0), 1)]);
    }
}
