//! The trace recorder: lock-free, bounded, shareable across the scoped
//! worker threads `ss_core::par` spawns.
//!
//! Counters and histograms are flat arrays of `AtomicU64` (the schema is
//! closed, so no map is needed). Layer records and spans — which carry
//! owned strings — land in pre-sized `OnceLock` slot arrays claimed by an
//! atomic cursor; when a buffer fills, further events increment a
//! `trace_*_dropped` counter instead of blocking or reallocating, so the
//! recorder never takes a lock and never grows under load.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metric::{
    Counter, LatencyCounts, LatencyHist, WidthCounts, WidthHist, LATENCY_BUCKETS, WIDTH_BUCKETS,
};
use crate::recorder::{LayerRecord, SpanEvent};

/// Default capacity of the layer-record buffer (25 experiments × ~100
/// layers × a few schemes fits comfortably).
pub const DEFAULT_LAYER_CAPACITY: usize = 16_384;

/// Default capacity of the span buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 4_096;

/// A bounded, lock-free event slot array: an atomic cursor hands out slot
/// indices, each slot is written exactly once through its `OnceLock`.
struct SlotBuffer<T> {
    slots: Box<[OnceLock<T>]>,
    cursor: AtomicUsize,
}

impl<T> SlotBuffer<T> {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, OnceLock::new);
        Self {
            slots: slots.into_boxed_slice(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Stores `value` in the next free slot; returns `false` (dropping the
    /// value) when the buffer is full.
    fn push(&self, value: T) -> bool {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(idx) {
            Some(slot) => {
                // The cursor hands each index to exactly one caller, so
                // this `set` cannot collide; ignore the Err arm anyway.
                let _ = slot.set(value);
                true
            }
            None => false,
        }
    }

    /// Snapshot of every filled slot, in claim order.
    fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.slots.iter().filter_map(|s| s.get().cloned()).collect()
    }
}

/// The one trace recorder: everything atomic, nothing blocking. All
/// methods take `&self`, so one recorder is shared across worker threads.
pub struct TraceRecorder {
    epoch: Instant,
    counters: [AtomicU64; Counter::COUNT],
    hists: [[AtomicU64; WIDTH_BUCKETS]; WidthHist::COUNT],
    latencies: [[AtomicU64; LATENCY_BUCKETS]; LatencyHist::COUNT],
    layers: SlotBuffer<LayerRecord>,
    spans: SlotBuffer<SpanEvent>,
}

impl TraceRecorder {
    /// A recorder with the default buffer capacities.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_LAYER_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }

    /// A recorder with explicit layer/span buffer capacities.
    #[must_use]
    pub fn with_capacity(layer_capacity: usize, span_capacity: usize) -> Self {
        Self {
            // ss-lint: allow(determinism) -- the epoch anchors span timestamps, which are trace-only timing data
            epoch: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            latencies: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            layers: SlotBuffer::new(layer_capacity),
            spans: SlotBuffer::new(span_capacity),
        }
    }

    /// Current value of one counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .get(counter.index())
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current contents of one width histogram.
    #[must_use]
    pub fn hist(&self, hist: WidthHist) -> WidthCounts {
        let mut out = WidthCounts::new();
        if let Some(row) = self.hists.get(hist.index()) {
            for (width, bucket) in row.iter().enumerate() {
                // ss-lint: allow(truncating-cast) -- width < WIDTH_BUCKETS = 33
                out.observe(width as u8, bucket.load(Ordering::Relaxed));
            }
        }
        out
    }

    /// Current contents of one latency histogram.
    #[must_use]
    pub fn latency(&self, hist: LatencyHist) -> LatencyCounts {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        if let Some(row) = self.latencies.get(hist.index()) {
            for (out, bucket) in buckets.iter_mut().zip(row.iter()) {
                *out = bucket.load(Ordering::Relaxed);
            }
        }
        LatencyCounts::from(buckets)
    }

    /// Immutable copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            counters: Counter::ALL.iter().map(|&c| (c, self.counter(c))).collect(),
            hists: WidthHist::ALL.iter().map(|&h| (h, self.hist(h))).collect(),
            latencies: LatencyHist::ALL
                .iter()
                .map(|&h| (h, self.latency(h)))
                .collect(),
            layers: self.layers.collect(),
            spans: self.spans.collect(),
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(c) = self.counters.get(counter.index()) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Merges a locally-accumulated width histogram.
    pub fn record_widths(&self, hist: WidthHist, counts: &WidthCounts) {
        if let Some(row) = self.hists.get(hist.index()) {
            for (bucket, &n) in row.iter().zip(counts.buckets().iter()) {
                if n != 0 {
                    bucket.fetch_add(n, Ordering::Relaxed);
                }
            }
        }
    }

    /// Adds one latency observation (in nanoseconds) to a histogram.
    pub fn record_latency(&self, hist: LatencyHist, nanos: u64) {
        if let Some(bucket) = self
            .latencies
            .get(hist.index())
            .and_then(|row| row.get(LatencyCounts::bucket_of(nanos)))
        {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Submits one simulated layer's record (counted in
    /// [`Counter::TraceLayersDropped`] instead once the buffer is full).
    pub fn record_layer(&self, record: LayerRecord) {
        if !self.layers.push(record) {
            self.add(Counter::TraceLayersDropped, 1);
        }
    }

    /// Submits one completed span (counted in
    /// [`Counter::TraceSpansDropped`] instead once the buffer is full).
    pub fn record_span(&self, span: SpanEvent) {
        if !self.spans.push(span) {
            self.add(Counter::TraceSpansDropped, 1);
        }
    }

    /// Microseconds since this recorder's epoch.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable copy of a [`TraceRecorder`]'s state, ready for export.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Every counter with its value (export order = declaration order).
    pub counters: Vec<(Counter, u64)>,
    /// Every width histogram with its contents.
    pub hists: Vec<(WidthHist, WidthCounts)>,
    /// Every latency histogram with its contents.
    pub latencies: Vec<(LatencyHist, LatencyCounts)>,
    /// Per-layer simulation records, in submission order.
    pub layers: Vec<LayerRecord>,
    /// Completed spans, in submission order.
    pub spans: Vec<SpanEvent>,
}

impl TraceSnapshot {
    /// Value of one counter in this snapshot.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |&(_, v)| v)
    }

    /// Contents of one latency histogram in this snapshot (empty when
    /// never observed).
    #[must_use]
    pub fn latency(&self, hist: LatencyHist) -> LatencyCounts {
        self.latencies
            .iter()
            .find(|(h, _)| *h == hist)
            .map_or_else(LatencyCounts::new, |(_, counts)| counts.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists_accumulate() {
        let rec = TraceRecorder::new();
        rec.add(Counter::EncodeBits, 7);
        rec.add(Counter::EncodeBits, 3);
        let mut w = WidthCounts::new();
        w.observe(5, 2);
        rec.record_widths(WidthHist::CodecGroupWidth, &w);
        rec.record_widths(WidthHist::CodecGroupWidth, &w);
        assert_eq!(rec.counter(Counter::EncodeBits), 10);
        assert_eq!(rec.hist(WidthHist::CodecGroupWidth).buckets()[5], 4);
        assert_eq!(rec.counter(Counter::DecodeCalls), 0);
    }

    fn span(name: &str) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: "test",
            start_us: 1,
            dur_us: 2,
            tid: 0,
        }
    }

    #[test]
    fn span_buffer_bounds_and_drop_counter() {
        let rec = TraceRecorder::with_capacity(4, 2);
        rec.record_span(span("a"));
        rec.record_span(span("b"));
        rec.record_span(span("c")); // buffer full → dropped
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.counter(Counter::TraceSpansDropped), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let rec = TraceRecorder::with_capacity(64, 64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..8 {
                        rec.add(Counter::TileSteps, 1);
                        rec.record_span(span(&format!("t{t}.{i}")));
                        let mut w = WidthCounts::new();
                        w.observe(3, 1);
                        rec.record_widths(WidthHist::TileStepWidth, &w);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::TileSteps), 32);
        assert_eq!(snap.spans.len(), 32);
        assert_eq!(rec.hist(WidthHist::TileStepWidth).total(), 32);
        assert_eq!(snap.counter(Counter::TraceSpansDropped), 0);
    }

    #[test]
    fn latency_histogram_accumulates_concurrently() {
        let rec = TraceRecorder::with_capacity(4, 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..100u64 {
                        rec.record_latency(LatencyHist::ServeEncodeNanos, 1_000 + i);
                    }
                    rec.record_latency(LatencyHist::ServeEncodeNanos, 50_000_000);
                });
            }
        });
        let h = rec.latency(LatencyHist::ServeEncodeNanos);
        assert_eq!(h.total(), 404);
        // 400 of 404 observations are ~1µs; p50 lands in their bucket.
        assert_eq!(
            h.p50(),
            Some(LatencyCounts::bucket_upper(LatencyCounts::bucket_of(1_099)))
        );
        assert_eq!(
            h.p999(),
            Some(LatencyCounts::bucket_upper(LatencyCounts::bucket_of(
                50_000_000
            )))
        );
        let snap = rec.snapshot();
        assert_eq!(snap.latency(LatencyHist::ServeEncodeNanos), h);
        assert!(snap.latency(LatencyHist::ServeGetNanos).is_empty());
    }

    #[test]
    fn now_us_is_monotonic_from_epoch() {
        let rec = TraceRecorder::new();
        let a = rec.now_us();
        let b = rec.now_us();
        assert!(b >= a);
    }
}
