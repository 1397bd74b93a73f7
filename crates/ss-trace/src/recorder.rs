//! The event payloads hot layers submit and the scoped [`Span`] timer.
//!
//! Design rule: a hot loop asks [`crate::installed()`] **once**,
//! accumulates into plain local state ([`crate::WidthCounts`], integers)
//! only when a recorder is installed, and submits one merged batch per
//! call — so the untraced path costs a single predictable branch per
//! codec/simulator invocation, not per value.

use std::time::Instant;

use crate::collect::TraceRecorder;
use crate::metric::WidthCounts;

/// Per-layer simulation record: everything the paper's evaluation figures
/// derive from one layer, captured at simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRecord {
    /// Model display name.
    pub model: String,
    /// Accelerator display name.
    pub accel: String,
    /// Compression scheme display name.
    pub scheme: String,
    /// Layer display name.
    pub layer: String,
    /// Layer index in network order.
    pub index: usize,
    /// Datapath cycles.
    pub compute_cycles: u64,
    /// Off-chip transfer cycles.
    pub memory_cycles: u64,
    /// Cycles the datapath idled waiting for memory.
    pub stall_cycles: u64,
    /// Off-chip traffic under the active scheme, in bits.
    pub traffic_bits: u64,
    /// Off-chip traffic with no compression, in bits.
    pub base_traffic_bits: u64,
    /// Per-layer profiled activation width.
    pub act_profiled: u8,
    /// Effective activation width at the sync group.
    pub act_eff_sync: f64,
    /// Whether the Composer paired SIP columns for this layer's weights.
    pub composer_paired: bool,
    /// Per-group EOG width histogram at the sync granularity.
    pub eog_width_hist: WidthCounts,
}

/// A completed wall-clock span, in microseconds relative to the collecting
/// recorder's epoch (Chrome trace-event `ts`/`dur` semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (experiment slug, model name, phase).
    pub name: String,
    /// Category, used as the Chrome trace `cat` field.
    pub cat: &'static str,
    /// Start offset from the recorder epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Submitting thread's dense id (Chrome trace `tid`).
    pub tid: u64,
}

/// A scoped wall-clock timer: records a [`SpanEvent`] on drop.
///
/// Without a recorder the constructor does not even read the clock, so an
/// un-traced span costs one branch and no syscalls.
pub struct Span<'a> {
    /// The recorder, the start offset from its epoch and the start
    /// instant; `None` when the span was entered without a recorder.
    started: Option<(&'a TraceRecorder, u64, Instant)>,
    name: String,
    cat: &'static str,
}

impl<'a> Span<'a> {
    /// Opens a span against `rec` (usually [`crate::installed()`]).
    #[must_use]
    pub fn enter(
        rec: Option<&'a TraceRecorder>,
        cat: &'static str,
        name: impl Into<String>,
    ) -> Self {
        Self {
            started: rec.map(|rec| (rec, rec.now_us(), Instant::now())),
            name: name.into(),
            cat,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((rec, start_us, t0)) = self.started {
            rec.record_span(SpanEvent {
                name: std::mem::take(&mut self.name),
                cat: self.cat,
                start_us,
                dur_us: t0.elapsed().as_micros() as u64,
                tid: thread_tid(),
            });
        }
    }
}

/// Dense per-thread id for Chrome trace `tid` fields: threads get 0, 1, 2…
/// in first-span order, which keeps the trace viewer's lane list compact.
fn thread_tid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_one_event_on_drop() {
        let rec = TraceRecorder::with_capacity(1, 4);
        {
            let _span = Span::enter(Some(&rec), "unit", "work");
            assert!(rec.snapshot().spans.is_empty());
        }
        let spans = rec.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert_eq!(spans[0].cat, "unit");
    }

    #[test]
    fn span_without_recorder_reads_no_clock() {
        let span = Span::enter(None, "unit", "nothing");
        assert!(span.started.is_none());
        drop(span);
    }

    #[test]
    fn thread_tids_are_distinct() {
        let here = thread_tid();
        let there = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(here, there);
        // Stable within a thread.
        assert_eq!(here, thread_tid());
    }
}
