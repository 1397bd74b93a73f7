//! Criterion micro-benchmarks of the traffic schemes on a realistic
//! layer-sized tensor, and of each registered wire scheme's stream encode
//! and decode on zoo tensors.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ss_core::scheme::{
    Base, CompressionScheme, ProfileScheme, SchemeCtx, ShapeShifterScheme, ZeroRle,
};
use ss_core::{CodecConfig, CodecSession, SchemeRegistry, SchemeStream};
use ss_models::{zoo, ValueGen};
use ss_tensor::{FixedType, Shape, Tensor};

fn bench_schemes(c: &mut Criterion) {
    let t = ValueGen::from_width_target(4.5, 0.5, FixedType::U16).tensor_flat(1 << 18, 7);
    let ctx = SchemeCtx::profiled(11);
    let mut g = c.benchmark_group("schemes");
    g.throughput(Throughput::Elements(t.len() as u64));
    let ss = ShapeShifterScheme::default();
    let rle = ZeroRle::default();
    let schemes: Vec<(&str, &dyn CompressionScheme)> = vec![
        ("base", &Base),
        ("profile", &ProfileScheme),
        ("shapeshifter", &ss),
        ("zero_rle", &rle),
    ];
    for (name, scheme) in schemes {
        g.bench_function(name, |b| b.iter(|| scheme.compressed_bits(&t, &ctx)));
    }
    g.finish();
}

/// Every weight of `resnet50` at a sixteenth of its geometry, and the
/// input activations of every sixth layer: the 16-bit half of the
/// repository benchmark's batch.
fn zoo_tensors() -> Vec<Tensor> {
    let net = zoo::resnet50().scaled_down(16);
    let mut tensors = Vec::new();
    for l in 0..net.layers().len() {
        tensors.push(net.weight_tensor(l, 1));
        if l % 6 == 0 {
            tensors.push(net.input_tensor(l, 1));
        }
    }
    tensors
}

/// Per-scheme kernel cost: one session's `encode_stream` and
/// `decode_stream` over the zoo tensors, per registered scheme. The timed
/// closures hold no answer check; the streams and decoded tensors are
/// checked once, outside them.
fn bench_scheme_codecs(c: &mut Criterion) {
    let tensors = zoo_tensors();
    let values: usize = tensors.iter().map(Tensor::len).sum();
    let registry = SchemeRegistry::global();
    let mut g = c.benchmark_group("scheme_codec");
    g.throughput(Throughput::Elements(values as u64));
    for id in registry.ids() {
        let scheme = registry.get(id).expect("registered scheme");
        let mut session = CodecSession::new(CodecConfig::new()).expect("default config");
        let mut streams: Vec<SchemeStream> =
            tensors.iter().map(|_| SchemeStream::default()).collect();
        for (t, s) in tensors.iter().zip(&mut streams) {
            session.encode_stream(scheme, t, s).expect("encode");
        }
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::U8);
        for (t, s) in tensors.iter().zip(&streams) {
            session.decode_stream(s, &mut back).expect("decode");
            assert_eq!(back.values(), t.values(), "{} round trip", scheme.name());
        }
        let name = scheme.name().to_lowercase();
        g.bench_function(format!("{name}/encode"), |b| {
            b.iter(|| {
                for (t, s) in tensors.iter().zip(&mut streams) {
                    session.encode_stream(scheme, t, s).expect("encode");
                }
                black_box(&streams);
            });
        });
        g.bench_function(format!("{name}/decode"), |b| {
            b.iter(|| {
                for s in &streams {
                    session.decode_stream(s, &mut back).expect("decode");
                }
                black_box(&back);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_schemes, bench_scheme_codecs);
criterion_main!(benches);
