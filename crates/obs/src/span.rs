//! Thread-aware RAII spans in a lock-striped ring buffer.
//!
//! Every span records `(name, class, start_ns, dur_ns, tid, depth)` where
//! `start_ns` is measured from a process-wide epoch (the first span ever
//! opened), `tid` is a small dense thread id handed out per OS thread, and
//! `depth` is that thread's nesting level at entry. Records land in one of
//! [`STRIPES`] fixed-capacity rings selected by `tid`, so concurrent
//! threads rarely contend on the same mutex; a full ring overwrites its
//! oldest records (and counts them in [`dropped_count`]) rather than
//! growing without bound in long-running servers.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Number of independently locked rings (spans hash to one by thread id).
pub const STRIPES: usize = 16;
/// Span capacity of each stripe; the oldest records are overwritten beyond
/// this (a bounded trace, not an unbounded log).
pub const STRIPE_CAPACITY: usize = 1 << 14;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. One relaxed load — this is the entire
/// cost of an instrumented call site while tracing is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables span recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide time origin all `start_ns` values are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Operation name (e.g. `"mxv"`, `"plan.run"`).
    pub name: &'static str,
    /// Coarse class for filtering (e.g. `"spmv"`, `"fused"`, `"serve"`).
    pub class: &'static str,
    /// Start time in nanoseconds from the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense per-thread id (1-based, assigned on first span).
    pub tid: u64,
    /// Nesting depth on the recording thread at entry (0 = top level).
    pub depth: u32,
}

struct Ring {
    records: Vec<SpanRecord>,
    /// Next overwrite position once the ring is at capacity.
    head: usize,
    dropped: u64,
}

struct Stripe {
    buf: Mutex<Ring>,
}

impl Stripe {
    fn lock(&self) -> MutexGuard<'_, Ring> {
        // Span recording must never take an instrumented process down; a
        // panic mid-push leaves at worst one torn record.
        self.buf.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn stripes() -> &'static [Stripe] {
    static STRIPE_SET: OnceLock<Vec<Stripe>> = OnceLock::new();
    STRIPE_SET.get_or_init(|| {
        (0..STRIPES)
            .map(|_| Stripe {
                buf: Mutex::new(Ring {
                    records: Vec::new(),
                    head: 0,
                    dropped: 0,
                }),
            })
            .collect()
    })
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// 0 = not yet assigned; [`current_tid`] assigns lazily, [`with_tid`]
    /// overrides for a scope (how BSP nodes keep a stable track).
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// This thread's span id, assigning a fresh one on first use.
fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
            id
        }
    })
}

/// Reserves a thread id without binding it to any thread — callers hand
/// it to workers via [`with_tid`] so logically-identical threads across
/// operations (e.g. "node 3 of this cluster") share one trace track.
pub fn alloc_tid() -> u64 {
    NEXT_TID.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` with the calling thread recording spans under `tid` (normally
/// one reserved with [`alloc_tid`]), then puts the thread's own id back,
/// also if `f` panics — how a pooled thread lends itself to a logical
/// track ("node 3 of this cluster") for one superstep and no longer.
pub fn with_tid<R>(tid: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            TID.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(TID.with(|t| t.replace(tid)));
    f()
}

/// `tid → human-readable label` registry backing the Chrome trace's
/// `thread_name` metadata events.
fn labels() -> &'static Mutex<Vec<(u64, String)>> {
    static LABELS: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    LABELS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Names a thread id for trace rendering (e.g. `"node 3/8"`). Labels are
/// process-lived: they survive [`clear`] so a drained-and-refilled buffer
/// still renders named tracks.
pub fn set_thread_label(tid: u64, label: impl Into<String>) {
    let mut reg = labels().lock().unwrap_or_else(|e| e.into_inner());
    let label = label.into();
    match reg.iter_mut().find(|(t, _)| *t == tid) {
        Some((_, l)) => *l = label,
        None => reg.push((tid, label)),
    }
}

/// Registered `(tid, label)` pairs, ascending by tid.
fn thread_labels() -> Vec<(u64, String)> {
    let mut reg = labels().lock().unwrap_or_else(|e| e.into_inner()).clone();
    reg.sort_by_key(|&(t, _)| t);
    reg
}

fn push(r: SpanRecord) {
    let stripe = &stripes()[(r.tid as usize) % STRIPES];
    let ring = &mut *stripe.lock();
    if ring.records.len() < STRIPE_CAPACITY {
        ring.records.push(r);
    } else {
        let head = ring.head;
        ring.records[head] = r;
        ring.head = (head + 1) % STRIPE_CAPACITY;
        ring.dropped += 1;
    }
}

/// An open span; dropping it records the completed [`SpanRecord`].
pub struct SpanGuard {
    name: &'static str,
    class: &'static str,
    start: Instant,
    tid: u64,
    depth: u32,
}

impl SpanGuard {
    /// Opens a span unconditionally (callers normally go through
    /// [`span_enter`], which checks the enable flag first).
    pub fn enter(name: &'static str, class: &'static str) -> SpanGuard {
        let tid = current_tid();
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let _ = epoch(); // pin the origin no later than the first span
        SpanGuard {
            name,
            class,
            start: Instant::now(),
            tid,
            depth,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = Instant::now();
        push(SpanRecord {
            name: self.name,
            class: self.class,
            start_ns: self.start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: end.duration_since(self.start).as_nanos() as u64,
            tid: self.tid,
            depth: self.depth,
        });
    }
}

/// Opens a span if tracing is enabled. The disabled path is one relaxed
/// atomic load returning `None` (no TLS access, no clock read).
#[inline]
pub fn span_enter(name: &'static str, class: &'static str) -> Option<SpanGuard> {
    if enabled() {
        Some(SpanGuard::enter(name, class))
    } else {
        None
    }
}

/// Records a span retrospectively from explicit start/end instants (e.g.
/// queue wait measured across threads). Uses the *calling* thread's id and
/// current depth; a `start` before the process epoch clamps to it.
pub fn record_span(name: &'static str, class: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let tid = current_tid();
    let depth = DEPTH.with(|d| d.get());
    push(SpanRecord {
        name,
        class,
        start_ns: start.duration_since(epoch()).as_nanos() as u64,
        dur_ns: end.duration_since(start).as_nanos() as u64,
        tid,
        depth,
    });
}

/// All buffered spans, sorted by start time (then thread, then depth).
pub fn snapshot() -> Vec<SpanRecord> {
    let mut out = Vec::with_capacity(span_count());
    for stripe in stripes() {
        out.extend_from_slice(&stripe.lock().records);
    }
    out.sort_by_key(|r| (r.start_ns, r.tid, r.depth));
    out
}

/// Number of spans currently buffered.
pub fn span_count() -> usize {
    stripes().iter().map(|s| s.lock().records.len()).sum()
}

/// Number of spans overwritten because their stripe was full.
pub fn dropped_count() -> u64 {
    stripes().iter().map(|s| s.lock().dropped).sum()
}

/// Empties the span buffer (the drop counters reset too).
pub fn clear() {
    for stripe in stripes() {
        let ring = &mut *stripe.lock();
        ring.records.clear();
        ring.head = 0;
        ring.dropped = 0;
    }
}

/// Renders the buffered spans as Chrome trace-event JSON — an object with
/// a `traceEvents` array of complete (`"ph":"X"`) duration events, with
/// timestamps in microseconds, preceded by `thread_name` metadata
/// (`"ph":"M"`) events for every labeled thread that appears in the
/// buffer (see [`set_thread_label`] — how BSP worker tracks get their
/// `node 3/8` names in Perfetto). Loadable at `chrome://tracing` or
/// <https://ui.perfetto.dev>. The buffer is left intact.
pub fn chrome_trace() -> String {
    let records = snapshot();
    let mut out = String::with_capacity(64 + records.len() * 112);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, label) in thread_labels() {
        if !records.iter().any(|r| r.tid == tid) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            tid,
            crate::json_escape(&label)
        );
    }
    for r in records.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
            crate::json_escape(r.name),
            crate::json_escape(r.class),
            r.start_ns / 1_000,
            r.start_ns % 1_000,
            r.dur_ns / 1_000,
            r.dur_ns % 1_000,
            r.tid,
            r.depth
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The span buffer is process-global; tests that write to it take this
    /// lock so `cargo test`'s parallel runner cannot interleave them.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        clear();
        set_enabled(false);
        {
            crate::span!("quiet", "test");
        }
        assert_eq!(span_count(), 0);
    }

    #[test]
    fn nesting_depth_is_recorded_per_thread() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        {
            let _outer = span_enter("outer", "test").unwrap();
            {
                let _inner = span_enter("inner", "test").unwrap();
            }
            let _sibling = span_enter("sibling", "test").unwrap();
        }
        set_enabled(false);
        let spans = snapshot();
        assert_eq!(spans.len(), 3);
        let depth_of = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.depth)
                .unwrap()
        };
        assert_eq!(depth_of("outer"), 0);
        assert_eq!(depth_of("inner"), 1);
        assert_eq!(depth_of("sibling"), 1);
        // Inner spans close no later than their parents and start inside
        // them.
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(inner.start_ns >= outer.start_ns);
        // ±2 ns slack for the independent truncations of the two clocks.
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns + 2);
    }

    #[test]
    fn scoped_threads_get_distinct_tids_and_independent_depths() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _outer = span_enter("t.outer", "test").unwrap();
                    let _inner = span_enter("t.inner", "test").unwrap();
                });
            }
        });
        set_enabled(false);
        let spans = snapshot();
        assert_eq!(spans.len(), 6);
        let mut tids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "t.outer")
            .map(|s| s.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each scoped thread gets its own tid");
        for tid in tids {
            let outer = spans
                .iter()
                .find(|s| s.tid == tid && s.name == "t.outer")
                .unwrap();
            let inner = spans
                .iter()
                .find(|s| s.tid == tid && s.name == "t.inner")
                .unwrap();
            assert_eq!(outer.depth, 0);
            assert_eq!(inner.depth, 1, "depth is per-thread, not global");
        }
    }

    #[test]
    fn retrospective_record_span_lands_in_the_buffer() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let start = Instant::now();
        let end = start + Duration::from_micros(250);
        record_span("queue.wait", "serve", start, end);
        set_enabled(false);
        let spans = snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "queue.wait");
        assert_eq!(spans[0].dur_ns, 250_000);
    }

    #[test]
    fn full_stripe_overwrites_oldest_instead_of_growing() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let base = Instant::now();
        for i in 0..(STRIPE_CAPACITY + 10) {
            record_span("flood", "test", base, base + Duration::from_nanos(i as u64));
        }
        set_enabled(false);
        // This thread writes one stripe; it must cap out, not grow.
        assert_eq!(span_count(), STRIPE_CAPACITY);
        assert_eq!(dropped_count(), 10);
        clear();
        assert_eq!(span_count(), 0);
        assert_eq!(dropped_count(), 0);
    }

    #[test]
    fn lent_tids_keep_a_stable_track_across_threads() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let tid = alloc_tid();
        set_thread_label(tid, "node 1/2");
        for _ in 0..2 {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    with_tid(tid, || drop(span_enter("worker.op", "test").unwrap()));
                    // Outside the scope the thread is itself again.
                    let _s = span_enter("own.op", "test").unwrap();
                });
            });
        }
        set_enabled(false);
        let spans = snapshot();
        assert_eq!(spans.len(), 4);
        assert!(
            spans
                .iter()
                .all(|s| (s.tid == tid) == (s.name == "worker.op")),
            "both worker threads recorded on the lent tid inside the scope only"
        );
        let json = chrome_trace();
        assert!(json.contains(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"node 1/2\"}}}}"
        )));
    }

    #[test]
    fn unused_labels_emit_no_metadata_events() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let silent = alloc_tid();
        set_thread_label(silent, "never records");
        {
            let _s = span_enter("only.this", "test").unwrap();
        }
        set_enabled(false);
        assert!(!chrome_trace().contains("never records"));
    }

    #[test]
    fn chrome_trace_emits_complete_x_events() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        {
            let _s = span_enter("render me", "test").unwrap();
        }
        set_enabled(false);
        let json = chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"render me\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"depth\":0}"));
    }
}
