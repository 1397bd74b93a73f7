// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property tests: any sequence of (value, width) fields written with
//! `BitWriter` reads back bit-exactly with `BitReader`, regardless of how
//! fields straddle byte boundaries. This is the foundational invariant the
//! whole ShapeShifter codec rests on.

use proptest::prelude::*;
use ss_bitio::{bits_for, BitReader, BitWriter};

/// A strategy for (value, width) pairs where the value fits the width.
fn field() -> impl Strategy<Value = (u64, u32)> {
    (0u32..=64).prop_flat_map(|bits| {
        let max = if bits == 0 {
            0
        } else if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        (0..=max, Just(bits))
    })
}

proptest! {
    #[test]
    fn roundtrip_arbitrary_fields(fields in prop::collection::vec(field(), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, b) in &fields {
            w.write_bits(v, b).unwrap();
        }
        let total: u64 = fields.iter().map(|&(_, b)| u64::from(b)).sum();
        prop_assert_eq!(w.bit_len(), total);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len() as u64, total.div_ceil(8));

        let mut r = BitReader::new(&bytes);
        for &(v, b) in &fields {
            prop_assert_eq!(r.read_bits(b).unwrap(), v);
        }
        prop_assert_eq!(r.remaining_bits(), bytes.len() as u64 * 8 - total);
    }

    #[test]
    fn roundtrip_with_interior_seeks(fields in prop::collection::vec(field(), 1..100)) {
        // Record the bit handle of every field, then read them back in
        // reverse order through a range reader opened at each handle —
        // the paper's "access handle" pattern.
        let mut w = BitWriter::new();
        let mut handles = Vec::with_capacity(fields.len());
        for &(v, b) in &fields {
            handles.push(w.bit_len());
            w.write_bits(v, b).unwrap();
        }
        let end = w.bit_len();
        let bytes = w.into_bytes();
        for (&(v, b), &h) in fields.iter().zip(&handles).rev() {
            let mut r = BitReader::with_bit_range(&bytes, h, end).unwrap();
            prop_assert_eq!(r.read_bits(b).unwrap(), v);
        }
    }

    #[test]
    fn splicing_at_arbitrary_cuts_matches_sequential(
        fields in prop::collection::vec(field(), 0..200),
        cut_a in any::<prop::sample::Index>(),
        cut_b in any::<prop::sample::Index>(),
    ) {
        // One stream written straight through...
        let mut want = BitWriter::new();
        for &(v, b) in &fields {
            want.write_bits(v, b).unwrap();
        }
        // ...must equal the same fields written as three independent chunks
        // spliced together, whatever bit phases the cut points land on.
        let (lo, hi) = if fields.is_empty() {
            (0, 0)
        } else {
            let (a, b) = (cut_a.index(fields.len() + 1), cut_b.index(fields.len() + 1));
            (a.min(b), a.max(b))
        };
        let mut got = BitWriter::new();
        for chunk in [&fields[..lo], &fields[lo..hi], &fields[hi..]] {
            let mut part = BitWriter::new();
            for &(v, b) in chunk {
                part.write_bits(v, b).unwrap();
            }
            got.append_writer(part).unwrap();
        }
        prop_assert_eq!(&got, &want);

        // The raw-slice form must agree with the writer form.
        let mut raw = BitWriter::new();
        for &(v, b) in &fields[..lo] {
            raw.write_bits(v, b).unwrap();
        }
        let rest_bits = want.bit_len() - raw.bit_len();
        let mut tail = BitWriter::new();
        for &(v, b) in &fields[lo..] {
            tail.write_bits(v, b).unwrap();
        }
        let tail_bytes = tail.into_bytes();
        raw.append_bits(&tail_bytes, rest_bits).unwrap();
        prop_assert_eq!(&raw, &want);
    }

    #[test]
    fn bits_for_matches_naive(v in any::<u64>()) {
        let mut naive = 0u32;
        let mut x = v;
        while x != 0 {
            naive += 1;
            x >>= 1;
        }
        prop_assert_eq!(bits_for(v), naive);
    }

    #[test]
    fn value_written_at_bits_for_width_roundtrips(v in any::<u64>()) {
        let b = bits_for(v).max(1);
        let mut w = BitWriter::new();
        w.write_bits(v, b).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(r.read_bits(b).unwrap(), v);
    }

    #[test]
    fn truncated_stream_errors_not_panics(
        fields in prop::collection::vec(field(), 1..50),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut w = BitWriter::new();
        for &(v, b) in &fields {
            w.write_bits(v, b).unwrap();
        }
        let bytes = w.into_bytes();
        if bytes.is_empty() {
            return Ok(());
        }
        let cut = cut.index(bytes.len());
        let truncated = &bytes[..cut];
        let mut r = BitReader::new(truncated);
        // Reading every original field must terminate with Ok or a clean
        // error — never a panic, never an infinite loop.
        for &(_, b) in &fields {
            if r.read_bits(b).is_err() {
                break;
            }
        }
    }
}
