// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Differential suite for the word-parallel hot-path kernels: every
//! u64-lane / bulk-bit kernel is pinned against the scalar reference it
//! replaced, across group sizes 16/64/256, ragged tails, all-zero and
//! max-magnitude groups, and both signedness modes.
//!
//! The scalar paths are retained in the tree *as* oracles
//! (`width::group_width_scalar`, `BitWriter::write_bits`,
//! `ZeroRle::token_count_scalar`); this suite is what makes that
//! retention load-bearing. `BitReader::read_bits` and `read_fields` share
//! their 8-byte window load, so the read side is checked against a
//! bit-at-a-time reference that lives here.

use proptest::prelude::*;
use ss_bitio::{BitReader, BitWriter};
use ss_core::kernels;
use ss_core::scheme::ZeroRle;
use ss_tensor::{width, Signedness};

/// The per-value zero-bitmap construction the fused scan replaced.
fn scalar_zero_bitmap(values: &[i32]) -> [u64; 4] {
    let mut z = [0u64; 4];
    for (i, &v) in values.iter().enumerate() {
        if v == 0 {
            z[i / 64] |= 1u64 << (i % 64);
        }
    }
    z
}

/// The per-value sign-magnitude wire encoding (zeros never assert the
/// sign bit — the codec elides them entirely).
fn scalar_encode(v: i32, signedness: Signedness) -> u32 {
    match signedness {
        Signedness::Unsigned => v as u32,
        Signedness::Signed => {
            if v == 0 {
                0
            } else {
                width::to_sign_magnitude(v)
            }
        }
    }
}

fn scalar_or(values: &[i32], signedness: Signedness) -> u32 {
    values
        .iter()
        .fold(0u32, |or, &v| or | scalar_encode(v, signedness))
}

/// Deterministic edge-case groups, per signedness: all-zero, single
/// value, ragged (non-multiple-of-64) lengths, full 256-value groups,
/// and max-magnitude members.
fn edge_groups(signedness: Signedness) -> Vec<Vec<i32>> {
    let max = match signedness {
        Signedness::Unsigned => 65_535,
        Signedness::Signed => 32_767,
    };
    let neg = |v: i32| match signedness {
        Signedness::Unsigned => v,
        Signedness::Signed => -v,
    };
    let mut groups: Vec<Vec<i32>> = vec![
        vec![],
        vec![0],
        vec![max],
        vec![neg(max)],
        vec![0; 16],
        vec![0; 256],
        vec![max; 256],
        vec![1, 0, neg(3), 0, 0, 7, max, neg(1)],
    ];
    // Ragged tails around every lane/word boundary the kernels care
    // about: pair remainder (odd lengths), 64-bit word edges, and the
    // paper's group sizes 16/64/256.
    for len in [1usize, 2, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256] {
        groups.push(
            (0..len as i32)
                .map(|i| {
                    if i % 5 == 0 {
                        0
                    } else {
                        neg(((i * 37) % (max.min(1000))).max(1))
                    }
                })
                .collect(),
        );
    }
    groups
}

#[test]
fn scan_group_matches_scalar_reference_on_edges() {
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        for group in edge_groups(signedness) {
            let scan = kernels::scan_group(&group, signedness);
            assert_eq!(
                scan.width(),
                width::group_width_scalar(&group, signedness),
                "width of {group:?} ({signedness:?})"
            );
            assert_eq!(
                scan.or,
                scalar_or(&group, signedness),
                "or of {group:?} ({signedness:?})"
            );
            assert_eq!(
                scan.z,
                scalar_zero_bitmap(&group),
                "bitmap of {group:?} ({signedness:?})"
            );
            assert_eq!(
                scan.zero_count() as usize,
                group.iter().filter(|&&v| v == 0).count(),
                "zero count of {group:?}"
            );
        }
    }
}

#[test]
fn gather_nonzero_matches_scalar_filter_on_edges() {
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        for group in edge_groups(signedness) {
            let mut out = [0u64; kernels::MAX_GROUP];
            let n = kernels::gather_nonzero(&group, signedness, &mut out);
            let expect: Vec<u64> = group
                .iter()
                .filter(|&&v| v != 0)
                .map(|&v| u64::from(scalar_encode(v, signedness)))
                .collect();
            assert_eq!(&out[..n], expect.as_slice(), "{group:?} ({signedness:?})");
        }
    }
}

#[test]
fn group_width_agrees_with_scalar_at_paper_group_sizes() {
    // The codec-facing width entry point, at the grouping granularities
    // the paper evaluates (16 default, 64, 256 max).
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        let max = match signedness {
            Signedness::Unsigned => 65_535,
            Signedness::Signed => 32_767,
        };
        let values: Vec<i32> = (0..1000)
            .map(|i: i32| {
                let m = i.wrapping_mul(2_654_435_761u32 as i32).rem_euclid(max + 1);
                if i % 4 == 0 {
                    0
                } else if signedness == Signedness::Signed && i % 3 == 0 {
                    -m
                } else {
                    m
                }
            })
            .collect();
        for group_size in [16usize, 64, 256] {
            for chunk in values.chunks(group_size) {
                assert_eq!(
                    width::group_width(chunk, signedness),
                    width::group_width_scalar(chunk, signedness),
                    "group size {group_size} ({signedness:?})"
                );
            }
        }
    }
}

/// The `bits`-wide field at absolute bit `pos`, one bit at a time — the
/// read-side oracle, sharing no code with `BitReader`.
fn bit_at_a_time(bytes: &[u8], pos: u64, bits: u32) -> u64 {
    (0..u64::from(bits)).fold(0, |acc, i| {
        let at = pos + i;
        acc | u64::from(bytes[(at / 8) as usize] >> (at % 8) & 1) << i
    })
}

/// Packs `fields` at `bits` wide via the retained scalar path, starting
/// from the same writer phase — the oracle for `pack_fields`.
fn scalar_pack(seed_bits: u32, fields: &[u64], bits: u32) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    if seed_bits > 0 {
        w.write_bits(0x5A5A & ((1u64 << seed_bits) - 1), seed_bits).unwrap();
    }
    for &f in fields {
        w.write_bits(f, bits).unwrap();
    }
    (w.as_bytes().to_vec(), w.bit_len())
}

proptest! {
    #[test]
    fn scan_group_matches_scalar_reference(
        values in prop::collection::vec(
            prop_oneof![3 => Just(0i32), 5 => 1i32..=32_767, 2 => -32_767..=-1i32],
            0..=256,
        ),
    ) {
        let scan = kernels::scan_group(&values, Signedness::Signed);
        prop_assert_eq!(scan.width(), width::group_width_scalar(&values, Signedness::Signed));
        prop_assert_eq!(scan.or, scalar_or(&values, Signedness::Signed));
        prop_assert_eq!(scan.z, scalar_zero_bitmap(&values));

        let mut out = [0u64; kernels::MAX_GROUP];
        let n = kernels::gather_nonzero(&values, Signedness::Signed, &mut out);
        prop_assert_eq!(n as u32, values.len() as u32 - scan.zero_count());

        // The fused encoder kernel must agree with both single-purpose ones.
        let mut fused = [0u64; kernels::MAX_GROUP];
        let (fscan, fn_) = kernels::scan_gather(&values, Signedness::Signed, &mut fused);
        prop_assert_eq!(fscan, scan);
        prop_assert_eq!(fn_, n);
        prop_assert_eq!(&fused[..fn_], &out[..n]);
    }

    #[test]
    fn zero_bitmap64_matches_scalar(
        values in prop::collection::vec(prop_oneof![Just(0i32), 1i32..100], 0..=64),
    ) {
        prop_assert_eq!(kernels::zero_bitmap64(&values), scalar_zero_bitmap(&values)[0]);
    }

    #[test]
    fn pack_fields_matches_scalar_write_loop(
        seed_bits in 0u32..16,
        bits in 1u32..=16,
        raw in prop::collection::vec(any::<u64>(), 0..=300),
    ) {
        // Field runs at payload widths 1..=16 against every writer phase.
        let mask = (1u64 << bits) - 1;
        let fields: Vec<u64> = raw.into_iter().map(|f| f & mask).collect();
        let (expect_bytes, expect_bits) = scalar_pack(seed_bits, &fields, bits);
        let mut w = BitWriter::new();
        if seed_bits > 0 {
            w.write_bits(0x5A5A & ((1u64 << seed_bits) - 1), seed_bits).unwrap();
        }
        w.pack_fields(&fields, bits).unwrap();
        prop_assert_eq!(w.bit_len(), expect_bits);
        prop_assert_eq!(w.as_bytes(), expect_bytes.as_slice());
    }

    #[test]
    fn write_words_matches_scalar_write_loop(
        seed_bits in 0u32..16,
        words in prop::collection::vec(any::<u64>(), 0..=8),
        trim in 0u64..64,
    ) {
        // A whole-word bit run (the Z vector path) against the scalar
        // 64-bit-chunk loop, at every phase and ragged tail length.
        let bit_len = (words.len() as u64 * 64).saturating_sub(trim);
        let mut expect = BitWriter::new();
        let mut actual = BitWriter::new();
        if seed_bits > 0 {
            let seed = 0x33CC & ((1u64 << seed_bits) - 1);
            expect.write_bits(seed, seed_bits).unwrap();
            actual.write_bits(seed, seed_bits).unwrap();
        }
        let mut remaining = bit_len;
        for &word in &words {
            let take = remaining.min(64) as u32;
            if take == 0 { break; }
            expect.write_bits(word & (u64::MAX >> (64 - take)), take).unwrap();
            remaining -= u64::from(take);
        }
        actual.write_words(&words, bit_len).unwrap();
        prop_assert_eq!(actual.bit_len(), expect.bit_len());
        prop_assert_eq!(actual.as_bytes(), expect.as_bytes());
    }

    #[test]
    fn read_fields_matches_scalar_read_loop(
        seed_bits in 0u32..16,
        bits in 0u32..=64,
        raw in prop::collection::vec(any::<u64>(), 0..=300),
    ) {
        // Field runs at every width 0..=64 from every reader phase: both
        // read paths against the bit-at-a-time oracle.
        let mask = if bits == 0 { 0 } else { u64::MAX >> (64 - bits) };
        let fields: Vec<u64> = raw.into_iter().map(|f| f & mask).collect();
        let (bytes, bit_len) = scalar_pack(seed_bits, &fields, bits);
        let at = |i: usize| u64::from(seed_bits) + i as u64 * u64::from(bits);
        let expect: Vec<u64> =
            (0..fields.len()).map(|i| bit_at_a_time(&bytes, at(i), bits)).collect();
        prop_assert_eq!(expect.as_slice(), fields.as_slice());

        // One field per call.
        let mut r = BitReader::with_bit_range(&bytes, u64::from(seed_bits), bit_len).unwrap();
        let single: Vec<u64> = (0..fields.len()).map(|_| r.read_bits(bits).unwrap()).collect();
        prop_assert_eq!(single.as_slice(), expect.as_slice());
        prop_assert!(r.is_at_end());

        // The bulk path.
        let mut r = BitReader::with_bit_range(&bytes, u64::from(seed_bits), bit_len).unwrap();
        let mut out = vec![u64::MAX; fields.len()];
        r.read_fields(bits, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), expect.as_slice());
        prop_assert!(r.is_at_end());
    }

    #[test]
    fn zero_rle_bitmap_counter_matches_scalar(
        values in prop::collection::vec(
            prop_oneof![5 => Just(0i32), 2 => 1i32..1000],
            0..=400,
        ),
        run_bits in 1u8..=8,
    ) {
        let scheme = ZeroRle::new(run_bits);
        prop_assert_eq!(
            scheme.token_count(&values),
            scheme.token_count_scalar(&values)
        );
    }
}
