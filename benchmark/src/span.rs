//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! A span is `{name, start_ns, end_ns, parent, req}`: `parent` is the
//! span that was open when this one began and `req` the Coflow id, line
//! number or step index it belongs to. Spans stay in memory until the
//! traced repetition ends and are then written as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sim.engine.advance`.
    pub name: &'static str,
    /// When the call began.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans on one clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, req: u64) -> u32 {
        let now = self.now_ns();
        self.enter_at(name, req, now)
    }

    /// Close span `id`, which must be the innermost open one; returns
    /// its duration.
    pub fn exit(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        self.exit_at(id, now);
        self.spans[id as usize].dur_ns()
    }

    fn enter_at(&mut self, name: &'static str, req: u64, now: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    fn exit_at(&mut self, id: u32, now: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = now;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover (children never overlap: spans nest).
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *by_name.entry(s.name).or_insert(0) += s.dur_ns() - c;
        }
        by_name
    }

    /// Total duration per span name (children included).
    pub fn totals_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_insert(0) += s.dur_ns();
        }
        by_name
    }

    /// Write one JSON object per span, in opening order (a span's index
    /// is its zero-based line number, which `parent` refers to).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 holds a 10..40 (which holds a.x 20..30) and, right
    /// after it, b 40..70.
    fn nested_and_adjacent() -> Tracer {
        let mut t = Tracer::default();
        let root = t.enter_at("root", 0, 0);
        let a = t.enter_at("a", 1, 10);
        let ax = t.enter_at("a.x", 1, 20);
        t.exit_at(ax, 30);
        t.exit_at(a, 40);
        let b = t.enter_at("b", 2, 40);
        t.exit_at(b, 70);
        t.exit_at(root, 100);
        t
    }

    #[test]
    fn self_time_subtracts_each_child_once() {
        let t = nested_and_adjacent();
        let own = t.self_times_ns();
        // root: 100 - (a 30 + b 30); the grandchild is a's to subtract.
        assert_eq!(own["root"], 40);
        assert_eq!(own["a"], 20);
        assert_eq!(own["a.x"], 10);
        assert_eq!(own["b"], 30);
        assert_eq!(
            own.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert_eq!(t.totals_ns()["a"], 30);
    }

    #[test]
    fn parents_follow_the_open_stack() {
        let t = nested_and_adjacent();
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = Vec::new();
        nested_and_adjacent().write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"name\":\"root\",\"start_ns\":0,\"end_ns\":100,\"parent\":null,\"req\":0}"
        );
        assert_eq!(
            lines[2],
            "{\"name\":\"a.x\",\"start_ns\":20,\"end_ns\":30,\"parent\":1,\"req\":1}"
        );
    }
}
