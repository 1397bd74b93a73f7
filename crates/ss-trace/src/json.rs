//! Hand-rolled JSON export — the crate is dependency-free by design, and
//! the emitted shapes are flat enough that string building is simpler and
//! more auditable than a serializer.
//!
//! Two formats:
//! * [`TraceSnapshot::to_json`] — the `ss-trace/1` analysis document
//!   (counters, width histograms, per-layer records, spans).
//! * [`TraceSnapshot::to_chrome_trace`] — Chrome trace-event JSON for
//!   `chrome://tracing` / Perfetto (`ph:"X"` complete events).

use crate::collect::TraceSnapshot;
use crate::metric::{LatencyCounts, WidthCounts};
use crate::recorder::{LayerRecord, SpanEvent};

/// Schema identifier stamped into the analysis document.
pub const SCHEMA: &str = "ss-trace/1";

/// Escapes a string for inclusion inside JSON quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn push_hist(out: &mut String, counts: &WidthCounts) {
    out.push('[');
    for (i, n) in counts.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&n.to_string());
    }
    out.push(']');
}

/// Emits a latency histogram as its summary percentiles plus the raw
/// log2 buckets (so downstream tooling can recompute any quantile).
fn push_latency(out: &mut String, counts: &LatencyCounts) {
    out.push_str(&format!(
        "{{\"total\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"log2_buckets\":[",
        counts.total(),
        counts.p50().map_or("null".into(), |v| v.to_string()),
        counts.p99().map_or("null".into(), |v| v.to_string()),
        counts.p999().map_or("null".into(), |v| v.to_string()),
    ));
    for (i, n) in counts.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&n.to_string());
    }
    out.push_str("]}");
}

fn push_f64(out: &mut String, v: f64) {
    // JSON has no NaN/Infinity; clamp to null so the document stays valid.
    if v.is_finite() {
        out.push_str(&format!("{v:.6}"));
    } else {
        out.push_str("null");
    }
}

fn push_layer(out: &mut String, l: &LayerRecord) {
    out.push_str(&format!(
        "{{\"model\":\"{}\",\"accel\":\"{}\",\"scheme\":\"{}\",\"layer\":\"{}\",\"index\":{},\
         \"compute_cycles\":{},\"memory_cycles\":{},\"stall_cycles\":{},\
         \"traffic_bits\":{},\"base_traffic_bits\":{},\"act_profiled\":{},\"act_eff_sync\":",
        escape(&l.model),
        escape(&l.accel),
        escape(&l.scheme),
        escape(&l.layer),
        l.index,
        l.compute_cycles,
        l.memory_cycles,
        l.stall_cycles,
        l.traffic_bits,
        l.base_traffic_bits,
        l.act_profiled,
    ));
    push_f64(out, l.act_eff_sync);
    out.push_str(&format!(
        ",\"composer_paired\":{},\"eog_width_hist\":",
        l.composer_paired
    ));
    push_hist(out, &l.eog_width_hist);
    out.push('}');
}

fn push_span(out: &mut String, s: &SpanEvent) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"start_us\":{},\"dur_us\":{},\"tid\":{}}}",
        escape(&s.name),
        escape(s.cat),
        s.start_us,
        s.dur_us,
        s.tid,
    ));
}

impl TraceSnapshot {
    /// Serializes the snapshot as the `ss-trace/1` analysis document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"counters\": {{"
        ));
        for (i, (c, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", c.name()));
        }
        out.push_str("\n  },\n  \"width_hists\": {");
        for (i, (h, counts)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": ", h.name()));
            push_hist(&mut out, counts);
        }
        out.push_str("\n  },\n  \"latency_hists\": {");
        for (i, (h, counts)) in self.latencies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": ", h.name()));
            push_latency(&mut out, counts);
        }
        out.push_str("\n  },\n  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_layer(&mut out, l);
        }
        out.push_str("\n  ],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_span(&mut out, s);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serializes the spans as a Chrome trace-event document (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Each span becomes
    /// a `ph:"X"` complete event; counters ride along as one final
    /// metadata-style instant event so totals are visible in the viewer.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}}}",
                escape(&s.name),
                escape(s.cat),
                s.start_us,
                s.dur_us,
                s.tid,
            ));
        }
        // Counter totals as one instant event at t=0 with args.
        if !first {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"ss-trace counters\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{");
        for (i, (c, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", c.name()));
        }
        out.push_str("}}\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceRecorder;
    use crate::metric::{Counter, WidthHist};

    /// Minimal recursive-descent JSON validator — enough to prove the
    /// exports parse without pulling in a JSON crate.
    fn validate(input: &str) -> Result<(), String> {
        let bytes: Vec<char> = input.chars().collect();
        let mut pos = 0usize;
        skip_ws(&bytes, &mut pos);
        value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[char], pos: &mut usize) {
        while b.get(*pos).is_some_and(|c| c.is_whitespace()) {
            *pos += 1;
        }
    }

    fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{c}' at {pos}", pos = *pos))
        }
    }

    fn value(b: &[char], pos: &mut usize) -> Result<(), String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some('{') => object(b, pos),
            Some('[') => array(b, pos),
            Some('"') => string(b, pos),
            Some('t') => literal(b, pos, "true"),
            Some('f') => literal(b, pos, "false"),
            Some('n') => literal(b, pos, "null"),
            Some(c) if *c == '-' || c.is_ascii_digit() => number(b, pos),
            other => Err(format!("unexpected {other:?} at {pos}", pos = *pos)),
        }
    }

    fn literal(b: &[char], pos: &mut usize, lit: &str) -> Result<(), String> {
        for c in lit.chars() {
            expect(b, pos, c)?;
        }
        Ok(())
    }

    fn number(b: &[char], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&'-') {
            *pos += 1;
        }
        while b.get(*pos).is_some_and(|c| {
            c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == 'E' || *c == '+' || *c == '-'
        }) {
            *pos += 1;
        }
        if *pos == start {
            return Err(format!("empty number at {start}"));
        }
        Ok(())
    }

    fn string(b: &[char], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, '"')?;
        loop {
            match b.get(*pos) {
                Some('"') => {
                    *pos += 1;
                    return Ok(());
                }
                Some('\\') => {
                    *pos += 2;
                }
                Some(_) => *pos += 1,
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn object(b: &[char], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, '{')?;
        skip_ws(b, pos);
        if b.get(*pos) == Some(&'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, ':')?;
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(',') => *pos += 1,
                Some('}') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object sep {other:?}")),
            }
        }
    }

    fn array(b: &[char], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, '[')?;
        skip_ws(b, pos);
        if b.get(*pos) == Some(&']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(',') => *pos += 1,
                Some(']') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array sep {other:?}")),
            }
        }
    }

    fn populated_snapshot() -> TraceSnapshot {
        let rec = TraceRecorder::with_capacity(8, 8);
        rec.add(Counter::EncodeBits, 42);
        rec.record_latency(crate::metric::LatencyHist::ServeEncodeNanos, 12_345);
        let mut w = WidthCounts::new();
        w.observe(7, 3);
        rec.record_widths(WidthHist::CodecGroupWidth, &w);
        rec.record_layer(LayerRecord {
            model: "AlexNet".into(),
            accel: "SStripes".into(),
            scheme: "Shape\"Shifter\\".into(), // exercise escaping
            layer: "conv1\n".into(),
            index: 0,
            compute_cycles: 100,
            memory_cycles: 150,
            stall_cycles: 50,
            traffic_bits: 1000,
            base_traffic_bits: 2000,
            act_profiled: 8,
            act_eff_sync: 5.25,
            composer_paired: true,
            eog_width_hist: w.clone(),
        });
        rec.record_span(SpanEvent {
            name: "fig12".into(),
            cat: "experiment",
            start_us: 10,
            dur_us: 500,
            tid: 0,
        });
        rec.snapshot()
    }

    #[test]
    fn analysis_json_is_valid_and_carries_data() {
        let json = populated_snapshot().to_json();
        validate(&json).expect("analysis JSON must parse");
        assert!(json.contains("\"schema\": \"ss-trace/1\""));
        assert!(json.contains("\"encode_bits\": 42"));
        assert!(json.contains("\"codec_group_width\""));
        assert!(json.contains("\"serve_encode_nanos\""));
        assert!(json.contains("\"p999_ns\""));
        assert!(json.contains("\"stall_cycles\":50"));
        assert!(json.contains("\\\"Shifter\\\\"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let chrome = populated_snapshot().to_chrome_trace();
        validate(&chrome).expect("chrome trace must parse");
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"dur\":500"));
        assert!(chrome.contains("\"encode_bits\":42"));
    }

    #[test]
    fn empty_snapshot_exports_are_valid() {
        let rec = TraceRecorder::with_capacity(1, 1);
        let snap = rec.snapshot();
        validate(&snap.to_json()).expect("empty analysis JSON");
        validate(&snap.to_chrome_trace()).expect("empty chrome trace");
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn nonfinite_floats_export_as_null() {
        let mut snap = populated_snapshot();
        if let Some(l) = snap.layers.first_mut() {
            l.act_eff_sync = f64::NAN;
        }
        let json = snap.to_json();
        validate(&json).expect("NaN clamped to null");
        assert!(json.contains("\"act_eff_sync\":null"));
    }
}
