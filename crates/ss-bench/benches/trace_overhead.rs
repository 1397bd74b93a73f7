//! Criterion comparison of the ss-trace hook cost on the codec's hot
//! measure path.
//!
//! Three variants over the same tensor:
//!
//! * `untraced-reference` — a straight width scan with no trace hooks at
//!   all, the shape of the inner loop before instrumentation;
//! * `gated-noop` — the same scan plus the exact gating pattern the codec
//!   uses (`installed()` checked once, per-group work skipped), with no
//!   recorder installed;
//! * `measure/noop` — the real `measure` path end to end with nothing
//!   installed.
//!
//! `untraced-reference` vs `gated-noop` isolates the disabled-recorder
//! cost: the two must be indistinguishable, because the branch is hoisted
//! out of the per-group loop. The `--overhead-gate` mode of the
//! `perf_baseline` binary enforces the macro version of this in
//! `scripts/analysis.sh`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ss_core::ShapeShifterCodec;
use ss_models::ValueGen;
use ss_tensor::{FixedType, Tensor};
use ss_trace::{Counter, WidthCounts, WidthHist};

const N: usize = 1 << 16;
const GROUP: usize = 16;

fn tensor() -> Tensor {
    ValueGen::from_width_target(5.0, 0.5, FixedType::U16).tensor_flat(N, 42)
}

/// The un-instrumented inner loop: per-group worst width, summed.
fn width_scan(t: &Tensor) -> u64 {
    let mut total = 0u64;
    for group in t.values().chunks(GROUP) {
        let mut worst = 0u32;
        for &v in group {
            worst = worst.max(32 - (v as u32).leading_zeros());
        }
        total += u64::from(worst);
    }
    total
}

/// The same loop with the codec's gating pattern: one `installed()`
/// check, local accumulation, one batched submit — all skipped when no
/// recorder is installed.
fn width_scan_gated(t: &Tensor) -> u64 {
    let rec = ss_trace::installed();
    let mut hist = WidthCounts::new();
    let mut total = 0u64;
    for group in t.values().chunks(GROUP) {
        let mut worst = 0u32;
        for &v in group {
            worst = worst.max(32 - (v as u32).leading_zeros());
        }
        total += u64::from(worst);
        if rec.is_some() {
            // ss-lint: allow(truncating-cast) -- width <= 32
            hist.observe(worst as u8, 1);
        }
    }
    if let Some(rec) = rec {
        rec.record_widths(WidthHist::CodecGroupWidth, &hist);
        rec.add(Counter::MeasureCalls, 1);
    }
    total
}

fn bench_trace_overhead(c: &mut Criterion) {
    let t = tensor();
    let mut g = c.benchmark_group("trace_overhead");
    g.throughput(Throughput::Elements(t.len() as u64));
    g.bench_function("untraced-reference", |b| {
        b.iter(|| width_scan(&t));
    });
    g.bench_function("gated-noop", |b| {
        b.iter(|| width_scan_gated(&t));
    });
    let codec = ShapeShifterCodec::new(GROUP);
    g.bench_function("measure/noop", |b| {
        b.iter(|| codec.measure(&t));
    });
    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
