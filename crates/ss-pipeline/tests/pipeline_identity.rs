// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! The engine's central contracts, end to end:
//!
//! 1. **Bit-identity** — containers out of the pool equal one-shot
//!    `ShapeShifterCodec::encode` for every tensor, at every worker count.
//! 2. **Determinism** — `BatchReport`'s accounting fields and chained
//!    `stream_hash` are identical across runs and worker counts.
//! 3. **Error routing** — per-tensor failures surface with the right
//!    submission index, and with several failures the lowest index wins
//!    at every worker count.

use ss_core::prelude::*;
use ss_pipeline::{fnv1a_64, BatchReport, Pipeline, PipelineConfig, PipelineError};
use ss_tensor::{FixedType, Shape, Tensor};

/// Deterministic skewed tensor (LCG; no RNG crate).
fn tensor(len: usize, seed: u64, dtype: FixedType) -> Tensor {
    let max = dtype.max_magnitude();
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let vals: Vec<i32> = (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            let v = match r % 10 {
                0..=3 => 0,
                4..=7 => (r % 15 + 1) as i32,
                _ => (r % 3000 + 1) as i32,
            };
            v.min(max)
        })
        .collect();
    Tensor::from_vec(Shape::flat(len), dtype, vals).unwrap()
}

/// A mixed batch: lengths from empty to multi-group, mixed dtypes.
fn mixed_batch() -> Vec<Tensor> {
    let mut batch = Vec::new();
    for (i, len) in [0usize, 1, 15, 16, 17, 333, 1024, 4096].iter().enumerate() {
        batch.push(tensor(*len, i as u64 + 1, FixedType::I16));
        batch.push(tensor(*len, i as u64 + 100, FixedType::U8));
    }
    batch
}

fn config() -> PipelineConfig {
    PipelineConfig::new().with_codec(
        CodecConfig::new()
            .with_group_size(16)
            .with_index_policy(IndexPolicy::EveryGroups(4)),
    )
}

#[test]
fn encode_batch_is_bit_identical_to_one_shot_at_every_worker_count() {
    let batch = mixed_batch();
    let codec = config().codec.build().unwrap();
    for workers in [1, 2, 4, 8] {
        let pipeline = Pipeline::new(config().with_workers(workers)).unwrap();
        let containers = pipeline.encode_batch(&batch).unwrap();
        assert_eq!(containers.len(), batch.len());
        for (i, (enc, t)) in containers.iter().zip(&batch).enumerate() {
            let one_shot = codec.encode(t).unwrap();
            assert_eq!(enc, &one_shot, "tensor {i} at {workers} workers diverged");
        }
        let decoded = pipeline.decode_batch(&containers).unwrap();
        for (i, (back, t)) in decoded.iter().zip(&batch).enumerate() {
            assert_eq!(back, t, "tensor {i} at {workers} workers round-trip");
        }
    }
}

#[test]
fn scheme_batches_are_bit_identical_at_every_worker_count() {
    // The registry path: DPRed and AdaBits batches through the pool equal
    // a single-session `encode_with_scheme` stream for stream bytes,
    // frame fields and index alike — per worker count — and a mixed-scheme
    // batch decodes back losslessly through `decode_batch_with`.
    let batch = mixed_batch();
    for id in [
        SchemeId::SHAPESHIFTER,
        SchemeId::DELTA,
        SchemeId::DPRED,
        SchemeId::ADABITS,
    ] {
        let scheme = SchemeRegistry::global().get(id).unwrap();
        let mut session = CodecSession::new(config().codec).unwrap();
        let mut reference = Vec::new();
        for t in &batch {
            let mut s = SchemeStream::default();
            session
                .encode_with_scheme(scheme, t, config().codec.index_policy, &mut s)
                .unwrap();
            reference.push(s);
        }
        for workers in [1, 2, 4, 8] {
            let pipeline = Pipeline::new(config().with_workers(workers)).unwrap();
            let streams = pipeline.encode_batch_with(id, &batch).unwrap();
            assert_eq!(streams.len(), batch.len());
            for (i, (s, r)) in streams.iter().zip(&reference).enumerate() {
                assert_eq!(s.scheme, id);
                assert_eq!(s.bytes, r.bytes, "{id} tensor {i} at {workers} workers");
                assert_eq!(s.bit_len, r.bit_len, "{id} tensor {i} at {workers} workers");
                assert_eq!(s.index, r.index, "{id} tensor {i} at {workers} workers");
            }
            let decoded = pipeline.decode_batch_with(&streams).unwrap();
            for (i, (back, t)) in decoded.iter().zip(&batch).enumerate() {
                assert_eq!(back, t, "{id} tensor {i} at {workers} workers round-trip");
            }
        }
    }
}

#[test]
fn scheme_batches_honour_an_unindexed_policy() {
    // 100 000 values span two `Auto` chunks, so an `Auto` batch would
    // index this tensor; under `None` no scheme's stream carries an index.
    let big = [tensor(100_000, 7, FixedType::I16)];
    let unindexed = PipelineConfig::new().with_codec(
        CodecConfig::new()
            .with_group_size(16)
            .with_index_policy(IndexPolicy::None),
    );
    let pipeline = Pipeline::new(unindexed).unwrap();
    for id in [
        SchemeId::SHAPESHIFTER,
        SchemeId::DELTA,
        SchemeId::DPRED,
        SchemeId::ADABITS,
    ] {
        let streams = pipeline.encode_batch_with(id, &big).unwrap();
        assert_eq!(streams[0].index, None, "{id} wrote an index");
        assert_eq!(pipeline.decode_batch_with(&streams).unwrap()[..], big[..]);
    }
}

#[test]
fn scheme_batch_rejects_unregistered_ids_typed() {
    let pipeline = Pipeline::new(config()).unwrap();
    match pipeline.encode_batch_with(SchemeId::new(200), &mixed_batch()) {
        Err(PipelineError::InvalidConfig(CodecError::UnknownScheme { id: 200 })) => {}
        other => panic!("expected UnknownScheme, got {other:?}"),
    }
    // A stream claiming an unregistered id fails per item, index-tagged.
    let bogus = SchemeStream {
        scheme: SchemeId::new(200),
        ..SchemeStream::default()
    };
    match pipeline.decode_batch_with(&[bogus]) {
        Err(PipelineError::Codec {
            index: 0,
            source: CodecError::UnknownScheme { id: 200 },
        }) => {}
        other => panic!("expected indexed UnknownScheme, got {other:?}"),
    }
}

#[test]
fn lowest_indexed_failure_wins_at_every_worker_count() {
    // Two bad streams among good ones: whichever a worker reaches first,
    // every stream is attempted and the error names index 3.
    let batch = mixed_batch();
    let pipeline = Pipeline::new(config()).unwrap();
    let mut streams = pipeline.encode_batch_with(SchemeId::DPRED, &batch).unwrap();
    for bad in [3, 9] {
        streams[bad].scheme = SchemeId::new(200);
    }
    for workers in [1, 2, 4, 8] {
        let pipeline = Pipeline::new(config().with_workers(workers)).unwrap();
        match pipeline.decode_batch_with(&streams) {
            Err(PipelineError::Codec {
                index: 3,
                source: CodecError::UnknownScheme { id: 200 },
            }) => {}
            other => panic!("{workers} workers: expected the failure at index 3, got {other:?}"),
        }
    }
}

#[test]
fn report_deterministic_fields_agree_across_runs_and_worker_counts() {
    let batch = mixed_batch();
    let reports: Vec<BatchReport> = [1, 2, 4, 8, 2]
        .iter()
        .map(|&workers| {
            Pipeline::new(config().with_workers(workers))
                .unwrap()
                .process(&batch)
                .unwrap()
        })
        .collect();
    let first = &reports[0];
    assert_eq!(first.tensors, batch.len() as u64);
    assert!(first.stream_bits > 0);
    assert_eq!(first.stream_bits, first.metadata_bits + first.payload_bits);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.tensors, first.tensors, "run {i}");
        assert_eq!(r.values, first.values, "run {i}");
        assert_eq!(r.uncompressed_bits, first.uncompressed_bits, "run {i}");
        assert_eq!(r.stream_bits, first.stream_bits, "run {i}");
        assert_eq!(r.metadata_bits, first.metadata_bits, "run {i}");
        assert_eq!(r.payload_bits, first.payload_bits, "run {i}");
        assert_eq!(r.groups, first.groups, "run {i}");
        assert_eq!(r.stream_hash, first.stream_hash, "run {i}");
        assert_eq!(r.queue_high_water, 0, "run {i}: no submission queue exists");
    }
}

#[test]
fn report_hash_matches_hand_chained_one_shot_hashes() {
    // The report's stream_hash must equal FNV-1a chained over one-shot
    // container hashes in submission order — the bench's bit-identity
    // gate relies on exactly this equivalence.
    let batch = mixed_batch();
    let codec = config().codec.build().unwrap();
    let mut expected = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for t in &batch {
        let enc = codec.encode(t).unwrap();
        let h = fnv1a_64(enc.bytes());
        for b in h.to_le_bytes() {
            expected ^= u64::from(b);
            expected = expected.wrapping_mul(0x100_0000_01b3);
        }
    }
    let report = Pipeline::new(config().with_workers(4))
        .unwrap()
        .process(&batch)
        .unwrap();
    assert_eq!(report.stream_hash, expected);
}

#[test]
fn empty_batch_yields_an_empty_report() {
    let report = Pipeline::new(config().with_workers(4))
        .unwrap()
        .process(&[])
        .unwrap();
    assert_eq!(report.tensors, 0);
    assert_eq!(report.stream_bits, 0);
    assert_eq!(report.ratio(), 1.0, "empty batch is the identity ratio");
}

#[test]
fn invalid_codec_config_fails_at_construction() {
    let bad = PipelineConfig::new().with_codec(CodecConfig::new().with_group_size(0));
    match Pipeline::new(bad) {
        Err(PipelineError::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn batch_ratio_matches_the_container_accounting() {
    // The report's ratio is total stream bits over total uncompressed
    // bits — exactly what summing every container's accounting gives.
    let batch = mixed_batch();
    let codec = config().codec.build().unwrap();
    let (mut stream, mut raw) = (0u64, 0u64);
    for t in &batch {
        let enc = codec.encode(t).unwrap();
        stream += enc.bit_len();
        raw += enc.uncompressed_bits();
    }
    let report = Pipeline::new(config()).unwrap().process(&batch).unwrap();
    assert_eq!(report.stream_bits, stream);
    assert_eq!(report.uncompressed_bits, raw);
    assert!((report.ratio() - stream as f64 / raw as f64).abs() < 1e-12);
    assert!(report.ratio() < 1.0, "skewed batch must compress");
}
