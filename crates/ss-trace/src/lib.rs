//! # ss-trace — observability for the ShapeShifter workspace
//!
//! A dependency-free, panic-free, lock-free tracing layer: atomic
//! counters, width and latency histograms, per-layer simulation records,
//! and scoped span timers, all collected by one [`TraceRecorder`].
//!
//! ## The installed recorder
//!
//! Hot layers live several crates below the binaries that decide whether
//! to trace, so plumbing a recorder through every signature would
//! contaminate the whole workspace API. Instead there is one process-wide
//! slot: [`install()`] puts a [`TraceRecorder`] in it (first caller wins;
//! the intended user is a binary's `--trace` flag, not library code) and
//! [`installed()`] returns it, or `None` before anything is installed.
//!
//! ## One branch when nothing is installed
//!
//! Hot paths follow one discipline — call [`installed()`] once per call,
//! accumulate into local state only when it returns a recorder, submit
//! one batch — so an untraced run pays a single predictable branch per
//! codec/simulator invocation. `perf_baseline --overhead-gate` enforces
//! this empirically.
//!
//! ```
//! use ss_trace::Counter;
//!
//! // Library code: free to call anywhere, a no-op unless a binary
//! // installed a recorder.
//! if let Some(rec) = ss_trace::installed() {
//!     rec.add(Counter::EncodeCalls, 1);
//! }
//! ```
//!
//! Everything is `Sync` and lock-free (atomics + `OnceLock` slot arrays),
//! so the codec's scoped worker threads can submit directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod collect;
mod json;
mod metric;
mod recorder;

pub use collect::{TraceRecorder, TraceSnapshot, DEFAULT_LAYER_CAPACITY, DEFAULT_SPAN_CAPACITY};
pub use json::{escape, SCHEMA};
pub use metric::{
    Counter, LatencyCounts, LatencyHist, WidthCounts, WidthHist, LATENCY_BUCKETS, WIDTH_BUCKETS,
};
pub use recorder::{LayerRecord, Span, SpanEvent};

use std::sync::OnceLock;

static GLOBAL: OnceLock<TraceRecorder> = OnceLock::new();

/// Installs `recorder` as the process-wide recorder. The first call wins;
/// returns `false` (discarding `recorder`) if one is already installed.
pub fn install(recorder: TraceRecorder) -> bool {
    GLOBAL.set(recorder).is_ok()
}

/// The process-wide recorder, or `None` before [`install()`] has been
/// called. Instrumented code checks it once per call; binaries use it at
/// exit to snapshot and export what was collected.
#[must_use]
pub fn installed() -> Option<&'static TraceRecorder> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the global slot is process-wide and tests share a process, so
    // everything about install()/installed() lives in this one test.
    #[test]
    fn installed_starts_empty_then_installs_once() {
        assert!(installed().is_none());

        assert!(install(TraceRecorder::with_capacity(4, 4)));
        let rec = installed().expect("just installed");
        rec.add(Counter::SimLayers, 2);
        assert_eq!(rec.counter(Counter::SimLayers), 2);

        // Second install is rejected, first recorder stays.
        assert!(!install(TraceRecorder::new()));
        assert_eq!(installed().map(|r| r.counter(Counter::SimLayers)), Some(2));
    }
}
