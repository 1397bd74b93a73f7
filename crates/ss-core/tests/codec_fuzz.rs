// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Corruption fuzzing for the container decoder: a decoder fed damaged
//! streams must return a typed [`CodecError`], never panic.
//!
//! Two damage models, each at the paper-relevant group sizes 16/64/256
//! and, for truncation and single-bit flips, under every registered
//! scheme:
//!
//! * **Truncation** at an arbitrary bit position. Decoding a canonical
//!   stream of a non-empty tensor consumes every bit, so any shorter
//!   prefix must fail — either mid-field (`UnexpectedEnd`) or at the
//!   framing checks.
//! * **Single-bit flip**. A flip may land in `Z`, `P`, or a payload;
//!   the result is either a clean decode of the declared element count
//!   (the damage produced a different well-formed stream) or a typed
//!   error. What it must never be is a panic — the `debug_assertions`-
//!   gated invariants in `ss-core` assert only decoder bookkeeping, and
//!   these tests run with debug assertions on (the test profile keeps
//!   them enabled), so a hostile-input path reaching an assert would
//!   fail here.

use proptest::prelude::*;
use ss_core::{
    ChunkIndex, CodecError, IndexPolicy, SchemeRegistry, SchemeStream, ShapeShifterCodec,
    StreamFrame,
};
use ss_tensor::{FixedType, Shape, Signedness, Tensor};

/// Decodes `bit_len` bits of `bytes` under `enc`'s framing through the
/// `decode_into` of the scheme `enc` names, fanning `index` out over
/// `threads` workers when one is given.
fn decode_raw(
    bytes: &[u8],
    bit_len: u64,
    enc: &SchemeStream,
    index: Option<&ChunkIndex>,
    threads: usize,
) -> Result<Vec<i32>, CodecError> {
    let frame = StreamFrame {
        bit_len,
        dtype: enc.dtype,
        len: enc.len,
        group_size: enc.group_size,
    };
    let mut out = Vec::new();
    SchemeRegistry::global()
        .get(enc.scheme)?
        .decode_into(bytes, &frame, index, threads, &mut out)?;
    Ok(out)
}

/// `t` encoded at `group` under every registered scheme.
fn encode_all(t: &Tensor, group: usize) -> Vec<SchemeStream> {
    let codec = ShapeShifterCodec::new(group);
    let registry = SchemeRegistry::global();
    registry
        .ids()
        .map(|id| codec.encode_with(registry.get(id).unwrap(), t).unwrap())
        .collect()
}

/// Skewed tensor strategy (mostly small values, plenty of zeros) so the
/// encoded stream exercises short and long payload fields alike.
fn arb_tensor() -> impl Strategy<Value = Tensor> {
    let dtype = prop_oneof![
        Just(FixedType::I16),
        Just(FixedType::U16),
        Just(FixedType::I8),
        Just(FixedType::U8),
    ];
    (dtype, 1usize..300).prop_flat_map(|(dt, len)| {
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

/// The group sizes the paper's evaluation sweeps (§4 / Figure 9).
const GROUP_SIZES: [usize; 3] = [16, 64, 256];

proptest! {
    #[test]
    fn truncated_stream_always_errors(t in arb_tensor(), cut in 0.0f64..1.0) {
        for group in GROUP_SIZES {
            for enc in encode_all(&t, group) {
                let bit_len = enc.bit_len;
                prop_assume!(bit_len > 0);
                // Map the unit-interval `cut` onto a strictly shorter bit
                // length so one random draw covers every group size and
                // scheme.
                let cut_bits = ((bit_len as f64) * cut) as u64;
                let cut_bytes = (cut_bits as usize).div_ceil(8);
                let truncated = &enc.bytes[..cut_bytes.min(enc.bytes.len())];
                let r = decode_raw(truncated, cut_bits, &enc, None, 1);
                prop_assert!(
                    r.is_err(),
                    "{:?}, group {}: decode of {}-of-{} bits succeeded",
                    enc.scheme,
                    group,
                    cut_bits,
                    bit_len
                );
            }
        }
    }

    #[test]
    fn bitflip_never_panics_and_lengths_agree(t in arb_tensor(), pick in 0.0f64..1.0) {
        for group in GROUP_SIZES {
            for enc in encode_all(&t, group) {
                let bit_len = enc.bit_len;
                prop_assume!(bit_len > 0);
                let flip = ((bit_len as f64) * pick) as u64;
                let mut bytes = enc.bytes.to_vec();
                bytes[(flip / 8) as usize] ^= 1 << (flip % 8);
                // Must not panic; on success the declared element count
                // holds and every value fits the container.
                if let Ok(values) = decode_raw(&bytes, bit_len, &enc, None, 1) {
                    prop_assert_eq!(values.len(), enc.len);
                    prop_assert!(values.iter().all(|&v| enc.dtype.contains(v)));
                }
            }
        }
    }

    #[test]
    fn index_blob_corruption_always_errors(t in arb_tensor(), pick in 0.0f64..1.0) {
        // The container-v2 index blob is CRC-32-guarded: any single-bit
        // flip — header, offset table, value counts or the checksum
        // itself — and any truncation must surface as a typed error,
        // never a panic and never a silently different index.
        prop_assume!(t.len() > 16);
        let codec = ShapeShifterCodec::new(16).with_index_policy(IndexPolicy::EveryGroups(1));
        let enc = codec.encode(&t).unwrap();
        let blob = enc.index.as_ref().expect("tensor spans multiple chunks").to_bytes().unwrap();
        prop_assert!(ChunkIndex::from_bytes(&blob).is_ok());
        let flip = ((blob.len() * 8) as f64 * pick) as usize;
        let mut corrupt = blob.clone();
        corrupt[flip / 8] ^= 1 << (flip % 8);
        prop_assert!(ChunkIndex::from_bytes(&corrupt).is_err(), "flip of bit {}", flip);
        let keep = (blob.len() as f64 * pick) as usize;
        prop_assert!(
            ChunkIndex::from_bytes(&blob[..keep.min(blob.len() - 1)]).is_err(),
            "truncation to {} bytes",
            keep
        );
    }

    #[test]
    fn shifted_index_offset_always_yields_typed_error(
        t in arb_tensor(),
        shift in 1u64..=5,
        threads in 1usize..=8,
    ) {
        // An index whose offset table was tampered with *after* the CRC
        // check (or rebuilt to carry a valid CRC) still cannot produce a
        // silently wrong tensor: validate() rejects out-of-bounds or
        // non-monotone offsets, and a survivor is caught by the per-chunk
        // exact-consumption check — the chunk before the shifted offset
        // no longer fills its allotted span.
        prop_assume!(t.len() > 32);
        let codec = ShapeShifterCodec::new(16).with_index_policy(IndexPolicy::EveryGroups(1));
        let enc = codec.encode(&t).unwrap();
        let index = enc.index.as_ref().expect("tensor spans multiple chunks");
        let mut entries = index.entries().to_vec();
        let last = entries.len() - 1;
        entries[last].bit_offset += shift;
        let tampered = ChunkIndex::from_parts(index.chunk_groups() as u32, entries).unwrap();
        let r = decode_raw(&enc.bytes, enc.bit_len, &enc, Some(&tampered), threads);
        prop_assert!(r.is_err(), "shift {} survived decode", shift);
    }

    #[test]
    fn stream_bitflip_under_indexed_decode_never_panics(
        t in arb_tensor(),
        pick in 0.0f64..1.0,
        threads in 2usize..=8,
    ) {
        // Damage the *stream* while the index stays intact: the parallel
        // path must behave exactly like the sequential one — a clean
        // decode of the declared element count, or a typed error.
        prop_assume!(t.len() > 16);
        let codec = ShapeShifterCodec::new(16).with_index_policy(IndexPolicy::EveryGroups(1));
        let enc = codec.encode(&t).unwrap();
        let index = enc.index.as_ref().expect("tensor spans multiple chunks");
        let bit_len = enc.bit_len;
        prop_assume!(bit_len > 0);
        let flip = ((bit_len as f64) * pick) as u64;
        let mut bytes = enc.bytes.to_vec();
        bytes[(flip / 8) as usize] ^= 1 << (flip % 8);
        if let Ok(values) = decode_raw(&bytes, bit_len, &enc, Some(index), threads) {
            prop_assert_eq!(values.len(), enc.len);
            prop_assert!(values.iter().all(|&v| enc.dtype.contains(v)));
        }
    }

    #[test]
    fn truncation_on_byte_boundaries_errors(t in arb_tensor()) {
        // The stream's framing records bit_len exactly; chopping whole
        // trailing bytes (a torn write) must also surface as an error.
        let codec = ShapeShifterCodec::new(16);
        let enc = codec.encode(&t).unwrap();
        prop_assume!(enc.bit_len > 0);
        let bytes = &enc.bytes;
        for keep in 0..bytes.len() {
            let short_bits = (keep as u64 * 8).min(enc.bit_len.saturating_sub(1));
            let r = decode_raw(&bytes[..keep], short_bits, &enc, None, 1);
            prop_assert!(r.is_err(), "kept {} of {} bytes", keep, bytes.len());
        }
    }
}
