//! Zero-dependency observability: tracing spans and metrics.
//!
//! This crate is the workspace's measurement layer, with no dependencies
//! beyond `std` (consistent with the offline-shim constraint). It has two
//! halves:
//!
//! * [`mod@span`] — a thread-aware RAII tracer. [`span_enter`] (or the
//!   [`span!`] macro) opens a span; dropping the guard records
//!   `(name, class, start, dur, tid, depth)` into a lock-striped ring
//!   buffer. A single global [`set_enabled`] flag gates recording: the
//!   disabled path is one relaxed atomic load and returns `None`, so
//!   instrumented hot loops cost nothing measurable when tracing is off.
//!   [`chrome_trace`] renders the buffer as Chrome trace-event JSON
//!   (complete `"X"` events) loadable in `chrome://tracing` or Perfetto.
//! * [`metrics`] — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed latency [`Histogram`]s with `p50/p90/p99` readout and a
//!   compact single-line JSON dump. Metrics are always on (they are plain
//!   relaxed atomics); only spans are gated.
//!
//! ```
//! obs::set_enabled(true);
//! {
//!     obs::span!("solve", "plan");
//!     let _inner = obs::span_enter("mxv", "spmv");
//! }
//! obs::set_enabled(false);
//! let trace = obs::chrome_trace();
//! assert!(trace.contains("\"ph\":\"X\""));
//!
//! let h = obs::global().histogram("latency_ns");
//! h.record(1_000);
//! assert_eq!(h.percentile(50.0), 1_000);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{global, Counter, Gauge, Histogram, Registry};
pub use span::{
    alloc_tid, chrome_trace, clear, dropped_count, enabled, record_span, set_enabled,
    set_thread_label, snapshot, span_count, span_enter, with_tid, SpanGuard, SpanRecord,
};

use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Opens a RAII span for the rest of the enclosing scope.
///
/// Expands to a `let` binding holding an `Option<SpanGuard>`; when tracing
/// is disabled the expansion is a single relaxed load.
#[macro_export]
macro_rules! span {
    ($name:expr, $class:expr) => {
        let _obs_span = $crate::span::span_enter($name, $class);
    };
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }
}
