//! Criterion micro-benchmarks of the ss-bitio run paths against
//! per-field calls: equal-width field packing (`pack_fields`, the
//! writer's shift-carry run store, vs a `write_bits` byte loop per
//! field) and extraction (`read_fields` vs a `read_bits` loop — both
//! take each field from one 8-byte window, but `read_fields` hoists the
//! bounds check and the mask out of its loop) at payload widths 1–16 —
//! the width range a 16-bit container's groups can declare. Emitted
//! under the existing opt-in timings convention: criterion output goes
//! to stdout, nothing checked in changes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ss_bitio::{BitReader, BitWriter};

/// Fields per run: a few thousand groups' worth, enough that the
/// shift-carry loop dominates over setup.
const FIELDS: usize = 1 << 14;

fn fields_at(bits: u32) -> Vec<u64> {
    let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
    (0..FIELDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
        .collect()
}

fn bench_pack(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitio_pack");
    g.throughput(Throughput::Elements(FIELDS as u64));
    for bits in [1u32, 2, 4, 7, 8, 11, 16] {
        let fields = fields_at(bits);
        g.bench_with_input(BenchmarkId::new("scalar", bits), &fields, |b, fields| {
            b.iter(|| {
                let mut w = BitWriter::new();
                // Odd phase so every write crosses byte boundaries, as in
                // a real stream.
                w.write_bits(0b101, 3).unwrap();
                for &f in fields {
                    w.write_bits(f, bits).unwrap();
                }
                black_box(w.bit_len())
            });
        });
        g.bench_with_input(BenchmarkId::new("bulk", bits), &fields, |b, fields| {
            b.iter(|| {
                let mut w = BitWriter::new();
                w.write_bits(0b101, 3).unwrap();
                w.pack_fields(fields, bits).unwrap();
                black_box(w.bit_len())
            });
        });
    }
    g.finish();
}

fn bench_unpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitio_unpack");
    g.throughput(Throughput::Elements(FIELDS as u64));
    for bits in [1u32, 2, 4, 7, 8, 11, 16] {
        let fields = fields_at(bits);
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap();
        w.pack_fields(&fields, bits).unwrap();
        let bit_len = w.bit_len();
        let bytes = w.into_bytes();
        g.bench_with_input(BenchmarkId::new("scalar", bits), &bytes, |b, bytes| {
            b.iter(|| {
                let mut r = BitReader::with_bit_len(bytes, bit_len);
                r.read_bits(3).unwrap();
                let mut acc = 0u64;
                for _ in 0..FIELDS {
                    acc ^= r.read_bits(bits).unwrap();
                }
                black_box(acc)
            });
        });
        let mut out = vec![0u64; FIELDS];
        g.bench_with_input(BenchmarkId::new("bulk", bits), &bytes, |b, bytes| {
            b.iter(|| {
                let mut r = BitReader::with_bit_len(bytes, bit_len);
                r.read_bits(3).unwrap();
                r.read_fields(bits, &mut out).unwrap();
                black_box(out.last().copied())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pack, bench_unpack);
criterion_main!(benches);
