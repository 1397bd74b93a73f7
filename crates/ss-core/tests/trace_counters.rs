//! Codec ↔ ss-trace integration: with a collecting recorder installed,
//! encode/measure/decode pump the counters and the group-width histogram,
//! and the counter totals agree with the codec's own accounting.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ss_core::{ExecPolicy, ShapeShifterCodec};
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::{Counter, TraceRecorder, WidthHist};

// One test function: the global recorder is process-wide, so all the
// assertions share a single install and measure deltas sequentially.
#[test]
fn codec_counters_and_width_hist() {
    assert!(ss_trace::install(TraceRecorder::new()));
    let rec = ss_trace::installed().expect("just installed");

    let vals: Vec<i32> = (0..1000).map(|i| ((i * 37) % 500) - 250).collect();
    let zero_count = vals.iter().filter(|&&v| v == 0).count() as u64;
    let tensor = Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap();
    let codec = ShapeShifterCodec::new(16);

    // --- encode ---
    let calls0 = rec.counter(Counter::EncodeCalls);
    let bits0 = rec.counter(Counter::EncodeBits);
    let zeros0 = rec.counter(Counter::EncodeZerosElided);
    let hist0 = rec.hist(WidthHist::CodecGroupWidth).total();
    let enc = codec.encode(&tensor).unwrap();
    assert_eq!(rec.counter(Counter::EncodeCalls), calls0 + 1);
    assert_eq!(rec.counter(Counter::EncodeBits), bits0 + enc.bit_len);
    assert_eq!(rec.counter(Counter::EncodeZerosElided), zeros0 + zero_count);
    // One histogram entry per encoded group.
    assert_eq!(
        rec.hist(WidthHist::CodecGroupWidth).total(),
        hist0 + enc.report.groups as u64
    );

    // --- measure agrees with encode in the trace too ---
    let mbits0 = rec.counter(Counter::MeasureBits);
    let report = codec.measure(&tensor);
    assert_eq!(report.total_bits(), enc.bit_len);
    assert_eq!(rec.counter(Counter::MeasureBits), mbits0 + enc.bit_len);
    assert_eq!(rec.counter(Counter::MeasureCalls), 1);

    // --- decode ---
    let dvals0 = rec.counter(Counter::DecodeValues);
    let back = codec.decode(&enc).unwrap();
    assert_eq!(back, tensor);
    assert_eq!(rec.counter(Counter::DecodeCalls), 1);
    assert_eq!(
        rec.counter(Counter::DecodeValues),
        dvals0 + tensor.len() as u64
    );

    // --- parallel encode records the same totals as sequential ---
    let big: Vec<i32> = (0..100_000).map(|i| ((i * 131) % 400) - 200).collect();
    let big = Tensor::from_vec(Shape::flat(big.len()), FixedType::I16, big).unwrap();
    let seq_bits = {
        let b0 = rec.counter(Counter::EncodeBits);
        codec
            .with_exec(ExecPolicy::Sequential)
            .encode(&big)
            .unwrap();
        rec.counter(Counter::EncodeBits) - b0
    };
    let par_bits = {
        let b0 = rec.counter(Counter::EncodeBits);
        codec
            .with_exec(ExecPolicy::Threads(4))
            .encode(&big)
            .unwrap();
        rec.counter(Counter::EncodeBits) - b0
    };
    assert_eq!(seq_bits, par_bits);
}
