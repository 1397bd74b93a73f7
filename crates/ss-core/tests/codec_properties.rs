// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property tests for the ShapeShifter codec and schemes: losslessness,
//! the "never increases traffic" claim, and cross-checks between the
//! hardware detector model and the arithmetic width definitions.

use proptest::prelude::*;
use ss_core::scheme::{
    Base, CompressionScheme, ProfileScheme, SchemeCtx, ShapeShifterScheme, ZeroRle,
};
use ss_core::{
    ChunkIndex, CodecError, ContainerScheme, ExecPolicy, IndexPolicy, ShapeShifterCodec,
    StreamFrame, WidthDetector,
};
use ss_tensor::{width, FixedType, Shape, Signedness, Tensor, TensorStats};

/// Decodes a raw ShapeShifter stream through the scheme's `decode_into`,
/// fanning `index` out over `threads` workers when one is given.
fn decode_raw(
    bytes: &[u8],
    frame: StreamFrame,
    index: Option<&ChunkIndex>,
    threads: usize,
) -> Result<Vec<i32>, CodecError> {
    let mut out = Vec::new();
    ShapeShifterScheme::default().decode_into(bytes, &frame, index, threads, &mut out)?;
    Ok(out)
}

/// Strategy producing a tensor with a skewed (mostly-small, some zeros,
/// rare large) value distribution over an arbitrary container.
fn arb_tensor() -> impl Strategy<Value = Tensor> {
    let dtype = prop_oneof![
        Just(FixedType::I16),
        Just(FixedType::U16),
        Just(FixedType::I8),
        Just(FixedType::U8),
    ];
    (dtype, 0usize..400).prop_flat_map(|(dt, len)| {
        let max = dt.max_magnitude();
        let value = prop_oneof![
            4 => Just(0i32),
            8 => 1i32..=15.min(max),
            3 => 1i32..=max,
        ];
        let signed = dt.signedness() == Signedness::Signed;
        prop::collection::vec((value, any::<bool>()), len).prop_map(move |pairs| {
            let vals = pairs
                .into_iter()
                .map(|(v, neg)| if signed && neg { -v } else { v })
                .collect();
            Tensor::from_vec(Shape::flat(len), dt, vals).expect("values fit container")
        })
    })
}

proptest! {
    #[test]
    fn codec_roundtrips_losslessly(t in arb_tensor(), group in 1usize..=256) {
        let codec = ShapeShifterCodec::new(group);
        let enc = codec.encode(&t).unwrap();
        let back = codec.decode(&enc).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_sequential(
        t in arb_tensor(),
        group in 1usize..=256,
    ) {
        // The tentpole invariant: chunked workers + splicing must produce
        // the exact stream the sequential oracle produces — same bytes,
        // same bit length, same accounting — for every thread count the
        // harness uses (SS_THREADS in {1, 2, 8}).
        let codec = ShapeShifterCodec::new(group);
        let oracle = codec.with_exec(ExecPolicy::Sequential).encode(&t).unwrap();
        for threads in [2usize, 8] {
            let par = codec
                .with_exec(ExecPolicy::Threads(threads))
                .encode(&t)
                .unwrap();
            prop_assert_eq!(par.bytes, oracle.bytes, "threads {}", threads);
            prop_assert_eq!(par.bit_len, oracle.bit_len);
            prop_assert_eq!(par.report.metadata_bits, oracle.report.metadata_bits);
            prop_assert_eq!(par.report.payload_bits, oracle.report.payload_bits);
            prop_assert_eq!(par.report.groups, oracle.report.groups);
        }
    }

    #[test]
    fn indexed_parallel_decode_is_bit_identical_to_sequential(
        t in arb_tensor(),
        chunk_groups in 1usize..=8,
    ) {
        // The container-v2 differential: an indexed encode carries the
        // exact v1 stream bytes (the index is side metadata), and the
        // parallel decode reassembles the tensor bit-identically to the
        // sequential parse for every worker count.
        for group in [16usize, 64, 256] {
            let codec = ShapeShifterCodec::new(group)
                .with_index_policy(IndexPolicy::EveryGroups(chunk_groups));
            let enc = codec.encode(&t).unwrap();
            let v1 = ShapeShifterCodec::new(group)
                .with_index_policy(IndexPolicy::None)
                .encode(&t)
                .unwrap();
            prop_assert_eq!(enc.bytes, v1.bytes, "group {}", group);
            prop_assert_eq!(enc.bit_len, v1.bit_len);
            prop_assert!(v1.index.as_ref().is_none());
            let oracle = codec.with_exec(ExecPolicy::Sequential).decode(&enc).unwrap();
            prop_assert_eq!(&oracle, &t);
            for threads in [2usize, 4, 8] {
                let par = codec
                    .with_exec(ExecPolicy::Threads(threads))
                    .decode(&enc)
                    .unwrap();
                prop_assert_eq!(&par, &oracle, "group {} threads {}", group, threads);
            }
            // A written index survives its serialized form, and the
            // deserialized copy drives the same parallel decode.
            if let Some(index) = enc.index.as_ref() {
                let back = ChunkIndex::from_bytes(&index.to_bytes().unwrap()).unwrap();
                prop_assert_eq!(&back, index);
                prop_assert_eq!(index.serialized_bits().unwrap(), back.serialized_bits().unwrap());
                let frame = StreamFrame {
                    bit_len: enc.bit_len,
                    dtype: enc.dtype,
                    len: enc.len,
                    group_size: group,
                };
                let via = decode_raw(&enc.bytes, frame, Some(&back), 4).unwrap();
                prop_assert_eq!(&via[..], t.values());
            } else {
                prop_assert!(t.len() <= chunk_groups * group);
            }
        }
    }

    #[test]
    fn measure_matches_encode_under_parallelism(
        t in arb_tensor(),
        group in 1usize..=256,
    ) {
        let codec = ShapeShifterCodec::new(group);
        let enc = codec.with_exec(ExecPolicy::Threads(8)).encode(&t).unwrap();
        for threads in [1usize, 2, 8] {
            let report = codec.with_exec(ExecPolicy::Threads(threads)).measure(&t);
            prop_assert_eq!(report.metadata_bits, enc.report.metadata_bits, "threads {}", threads);
            prop_assert_eq!(report.payload_bits, enc.report.payload_bits);
            prop_assert_eq!(report.groups, enc.report.groups);
            prop_assert_eq!(report.total_bits(), enc.bit_len);
        }
    }

    #[test]
    fn stats_pricing_matches_tensor_pricing(t in arb_tensor(), profiled in 0u8..=20) {
        // The shared-statistics fast path must be *exact*: for every scheme
        // that answers from TensorStats, the answer equals re-scanning the
        // raw values, profiled or not.
        let stats = TensorStats::compute(&t, &[16, 256]);
        let ctxs = [SchemeCtx::unprofiled(), SchemeCtx::profiled(profiled)];
        let schemes: [&dyn CompressionScheme; 5] = [
            &Base,
            &ProfileScheme,
            &ShapeShifterScheme::default(),
            &ShapeShifterScheme::new(256),
            &ZeroRle::default(),
        ];
        for ctx in &ctxs {
            for scheme in schemes {
                let from_stats = scheme.compressed_bits_from_stats(&stats, ctx);
                prop_assert_eq!(
                    from_stats,
                    Some(scheme.compressed_bits(&t, ctx)),
                    "scheme {} ctx {:?}",
                    scheme.name(),
                    ctx
                );
            }
        }
        // A granularity the stats don't cover falls back to None.
        prop_assert_eq!(
            ShapeShifterScheme::new(64).compressed_bits_from_stats(&stats, &ctxs[0]),
            None
        );
    }

    #[test]
    fn shapeshifter_never_increases_traffic_at_group_16(t in arb_tensor()) {
        // The paper's robustness claim, now structural: the per-array
        // bypass flag guarantees compressed <= uncompressed + flag for
        // EVERY input, however hostile.
        let scheme = ShapeShifterScheme::default();
        let ctx = SchemeCtx::unprofiled();
        let ss = scheme.compressed_bits(&t, &ctx);
        let base = Base.compressed_bits(&t, &ctx);
        prop_assert!(ss <= base + 8, "ss {ss} base {base}");
    }

    #[test]
    fn encoded_length_is_metadata_plus_payload(t in arb_tensor(), group in 1usize..=64) {
        let enc = ShapeShifterCodec::new(group).encode(&t).unwrap();
        prop_assert_eq!(enc.bit_len, enc.report.metadata_bits + enc.report.payload_bits);
        prop_assert_eq!(enc.report.groups, t.len().div_ceil(group));
    }

    #[test]
    fn payload_charges_each_nonzero_the_group_width(t in arb_tensor()) {
        let enc = ShapeShifterCodec::new(16).encode(&t).unwrap();
        let expected: u64 = t
            .values()
            .chunks(16)
            .map(|g| {
                let w = u64::from(width::group_width(g, t.signedness()));
                w * g.iter().filter(|&&v| v != 0).count() as u64
            })
            .sum();
        prop_assert_eq!(enc.report.payload_bits, expected);
    }

    #[test]
    fn detector_agrees_with_arithmetic(t in arb_tensor()) {
        let det = WidthDetector::new(t.dtype().bits(), t.signedness());
        for g in t.values().chunks(16) {
            prop_assert_eq!(det.detect(g), width::group_width(g, t.signedness()));
        }
    }

    #[test]
    fn profile_scheme_is_between_base_and_per_value(t in arb_tensor()) {
        prop_assume!(!t.is_empty());
        let ctx = SchemeCtx::profiled(t.profiled_width());
        let profile = ProfileScheme.compressed_bits(&t, &ctx);
        let base = Base.compressed_bits(&t, &ctx);
        // Profile stores at the layer's worst-case width: no worse than
        // Base (plus its fixed metadata), no better than what every value
        // individually needs.
        prop_assert!(profile <= base + 8);
        let per_value_floor: u64 = t
            .values()
            .iter()
            .map(|&v| u64::from(width::value_width(v, t.signedness())))
            .sum();
        prop_assert!(profile >= per_value_floor);
    }

    #[test]
    fn zero_rle_token_count_is_consistent(t in arb_tensor()) {
        let rle = ZeroRle::default();
        let tokens = rle.token_count(t.values());
        let nonzeros = t.num_nonzero() as u64;
        // Every non-zero needs a token; zeros add at most one token per
        // max_run+1 zeros plus a trailing terminator.
        prop_assert!(tokens >= nonzeros);
        let zeros = t.num_zero() as u64;
        prop_assert!(tokens <= nonzeros + zeros / (rle.max_run() + 1) + 1);
    }

    #[test]
    fn decoder_survives_arbitrary_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        len in 0usize..600,
        group in 1usize..=64,
        bits in 1u8..=16,
        signed in any::<bool>(),
    ) {
        // Fuzz the framing surface: random bytes with random metadata must
        // produce Ok or a clean error — never a panic or runaway loop.
        let dtype = if signed {
            FixedType::signed(bits).unwrap()
        } else {
            FixedType::unsigned(bits).unwrap()
        };
        let bit_len = (bytes.len() as u64 * 8).min(4096);
        let frame = StreamFrame { bit_len, dtype, len, group_size: group };
        let _ = decode_raw(&bytes, frame, None, 1);
    }

    #[test]
    fn delta_decoder_survives_arbitrary_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        len in 0usize..600,
        group in 1usize..=64,
    ) {
        let d = ss_core::scheme::DeltaShapeShifter::default();
        let bit_len = bytes.len() as u64 * 8;
        let mut out = Vec::new();
        for dtype in [FixedType::U16, FixedType::I8] {
            let frame = StreamFrame { bit_len, dtype, len, group_size: group };
            let _ = d.decode_into(&bytes, &frame, None, 1, &mut out);
        }
    }

    #[test]
    fn bitflip_corruption_never_panics(t in arb_tensor(), flip in any::<prop::sample::Index>()) {
        prop_assume!(!t.is_empty());
        let codec = ShapeShifterCodec::new(16);
        let enc = codec.encode(&t).unwrap();
        let mut bytes = enc.bytes.to_vec();
        if bytes.is_empty() {
            return Ok(());
        }
        let i = flip.index(bytes.len() * 8);
        bytes[i / 8] ^= 1 << (i % 8);
        // A single bit flip either decodes to some tensor (possibly wrong
        // values — the stream carries no checksum, as in the paper) or
        // errors cleanly; it must never panic.
        let frame = StreamFrame {
            bit_len: enc.bit_len,
            dtype: t.dtype(),
            len: t.len(),
            group_size: 16,
        };
        let _ = decode_raw(&bytes, frame, None, 1);
    }

    #[test]
    fn group_size_sweep_monotone_payload(t in arb_tensor()) {
        // Coarser groups can only widen each group: payload bits are
        // monotone non-decreasing in group size (metadata moves the other
        // way — the paper's group-size trade-off).
        let sizes = [16usize, 32, 64, 128, 256];
        let payloads: Vec<u64> = sizes
            .iter()
            .map(|&g| ShapeShifterCodec::new(g).encode(&t).unwrap().report.payload_bits)
            .collect();
        for pair in payloads.windows(2) {
            prop_assert!(pair[0] <= pair[1], "payloads {payloads:?}");
        }
    }
}
