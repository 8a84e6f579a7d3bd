//! The benchmark's own span recorder.
//!
//! A traced run wraps every call the benchmark makes into a program layer
//! in a span — name, start, end, the span that caused it, and the id of the
//! operation (solve, BFS, job) it belongs to. Spans stay in memory and are
//! written out as a Chrome trace when the run ends. Nothing in here touches
//! the program's crates: spans *inside* the layers are a later change.
//!
//! One [`Tracer`] belongs to one thread; multi-threaded workloads keep one
//! per thread and hand them all to [`chrome_trace`].

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same tracer's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` while the tracer is off.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanId(Option<u32>);

/// A per-thread span recorder. Off by default, so the same code path runs
/// the untraced rounds a traced process interleaves for comparison.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    on: bool,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by all threads
    /// of a run so their spans line up in the trace).
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            on: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts the next operation: spans entered from now on carry its id.
    pub fn begin_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Total self time (seconds) of the spans `pick` selects.
    pub fn self_secs_where(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| pick(s))
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// Total duration (seconds) of the spans `pick` selects.
    pub fn dur_secs_where(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    pub fn count_where(&self, pick: impl Fn(&Span) -> bool) -> usize {
        self.spans.iter().filter(|s| pick(s)).count()
    }
}

/// Chrome trace-event JSON (complete `X` events, microsecond timestamps) of
/// every tracer's spans; open it in Perfetto or `chrome://tracing`. Each
/// event's `args` carry the span's id, its parent's id and the op id.
pub fn chrome_trace(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for t in tracers {
        for (id, s) in t.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                t.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-made spans `(name, start, end, parent)`.
    fn tracer_with(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut t = Tracer::new(Instant::now(), 0);
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 1,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let t = tracer_with(&[
            ("solve", 0, 100, None),
            ("mg", 10, 60, Some(0)),
            ("smooth", 15, 35, Some(1)),
            ("spmv", 40, 55, Some(1)),
            ("dot", 70, 90, Some(0)),
        ]);
        // solve: 100 - (mg 50 + dot 20); mg: 50 - (smooth 20 + spmv 15).
        assert_eq!(t.self_times_ns(), vec![30, 15, 20, 15, 20]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
        assert!((t.self_secs_where(|s| s.name == "mg") - 15e-9).abs() < 1e-15);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children overlap on [30, 40) and one sticks out of the parent.
        let t = tracer_with(&[
            ("parent", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 30, 60, Some(0)),
            ("c", 90, 120, Some(0)),
        ]);
        // Covered: [10, 60) and [90, 100) = 60.
        assert_eq!(t.self_times_ns()[0], 40);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_silent_when_off() {
        let mut t = Tracer::new(Instant::now(), 3);
        let off = t.enter("ignored");
        t.exit(off);
        assert!(t.spans().is_empty());

        t.set_on(true);
        let op = t.begin_op();
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == op));
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
        assert_eq!(t.count_where(|s| s.name == "inner"), 2);

        let json = chrome_trace(&[&t]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"parent\":0"));
    }
}
