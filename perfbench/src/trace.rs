//! Benchmark-side spans: one per timed call into a layer, kept in
//! memory and written as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans one buffer keeps before it starts dropping (and counting) them.
pub const SPAN_CAP: usize = 400_000;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `store.get_raw`.
    pub name: &'static str,
    /// Start, nanoseconds after the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. A disabled buffer records nothing, so untraced
/// code paths pay only a branch.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    enabled: bool,
    /// Chrome-trace thread id.
    pub tid: u32,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
}

impl SpanBuf {
    /// A buffer measuring from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            tid,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Chrome trace (`chrome://tracing`, Perfetto) of every buffer's spans,
/// with the request id, parent and self time in each event's args.
#[must_use]
pub fn chrome_trace(bufs: &[&SpanBuf]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for buf in bufs {
        let selfs = self_times(&buf.spans);
        for (s, self_ns) in buf.spans.iter().zip(selfs) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                buf.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request,
                s.parent.map_or(-1, |p| p as i64),
                self_ns as f64 / 1e3
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("get", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("a.inner", 12, 14, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 18, 30, 30, 2]);
    }

    #[test]
    fn disabled_buffer_records_nothing_and_full_buffer_counts_drops() {
        let t = Instant::now();
        let mut off = SpanBuf::new(t, 1, false);
        assert_eq!(off.record("x", t, t, None, 0), None);
        assert!(off.spans.is_empty());
        let mut on = SpanBuf::new(t, 2, true);
        assert_eq!(on.record("x", t, t, None, 0), Some(0));
        on.spans.resize(SPAN_CAP, on.spans[0].clone());
        assert_eq!(on.record("y", t, t, None, 0), None);
        assert_eq!(on.dropped, 1);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let t = Instant::now();
        let mut buf = SpanBuf::new(t, 3, true);
        let p = buf.record("get", t, t, None, 9);
        buf.record("store.get_raw", t, t, p, 9);
        let json = chrome_trace(&[&buf]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"store.get_raw\""));
        assert!(json.contains("\"parent\":0"));
    }
}
