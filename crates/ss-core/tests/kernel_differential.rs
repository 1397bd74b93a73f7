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
//!
//! The ShapeShifter group reader (one bit window per group, a field
//! extractor per width, a branch-free expansion of `Z`) is checked
//! against two decoders that live here: the per-field reader it replaced
//! (`read_bits` for `Z` and `P`, `read_fields` for the payload, a branch
//! per slot), and a decoder that takes every bit one at a time and shares
//! no code with `ss-bitio` or `ss-core`. All three must agree on the
//! values, and on the typed error, with its fields, for every truncation
//! point, an out-of-range `P` and a zero payload at each slot.

use proptest::prelude::*;
use ss_bitio::{BitIoError, BitReader, BitWriter};
use ss_core::kernels;
use ss_core::scheme::{ShapeShifterScheme, ZeroRle};
use ss_core::{
    ChunkIndex, CodecError, ContainerScheme, IndexPolicy, SchemeId, SchemeRegistry, StreamFrame,
};
use ss_tensor::{width, FixedType, Shape, Signedness, Tensor};

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
    for len in [
        1usize, 2, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256,
    ] {
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
        w.write_bits(0x5A5A & ((1u64 << seed_bits) - 1), seed_bits)
            .unwrap();
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

// ---------------------------------------------------------------------
// ShapeShifter decode: the window kernel against two oracles.

/// Group sizes the decode checks cover: every size up to a kernel block,
/// one past it, and the paper's 64 and 256.
const GROUP_SIZES: [usize; 19] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 256,
];

/// Bits of the `P` field for a `bits`-wide container: the fewest that
/// hold `bits - 1`, and at least one.
fn prefix_bits(bits: u8) -> u32 {
    let mut k = 1;
    while (1u32 << k) < u32::from(bits) {
        k += 1;
    }
    k
}

/// `UnexpectedEnd` as a codec error, its request saturated at `u32::MAX`.
fn end(requested: u64, available: u64) -> CodecError {
    BitIoError::UnexpectedEnd {
        requested: requested.min(u64::from(u32::MAX)) as u32,
        available,
    }
    .into()
}

/// The framing checks every decode makes before its first group.
fn check_framing(bytes: &[u8], frame: &StreamFrame) -> Result<(), CodecError> {
    if !(1..=256).contains(&frame.group_size) {
        return Err(CodecError::InvalidGroupSize);
    }
    let available = bytes.len() as u64 * 8;
    if frame.bit_len > available {
        return Err(end(u64::from(u32::MAX), available));
    }
    if frame.len as u64 > frame.bit_len {
        return Err(end(u64::from(u32::MAX), frame.bit_len));
    }
    Ok(())
}

/// Where a stream's fields sit, as [`bitwise_decode`] met them: the bit
/// offset of each group's `P` field, and of each payload field with the
/// stream index of its slot.
#[derive(Debug, Default)]
struct Layout {
    p_fields: Vec<u64>,
    payloads: Vec<(u64, usize)>,
}

/// A stream read one bit at a time.
struct Bits<'a> {
    bytes: &'a [u8],
    pos: u64,
    end: u64,
}

impl Bits<'_> {
    /// The next `n` bits, LSB first, or the error for a field that runs
    /// past the end.
    fn take(&mut self, n: u64) -> Result<u64, CodecError> {
        if n > self.end - self.pos {
            return Err(end(n, self.end - self.pos));
        }
        let mut v = 0u64;
        for i in 0..n {
            let at = self.pos + i;
            v |= u64::from(self.bytes[(at / 8) as usize] >> (at % 8) & 1) << i;
        }
        self.pos += n;
        Ok(v)
    }
}

/// The ShapeShifter stream decoded one bit at a time, from the wire
/// format alone: per group a `Z` bit per slot (read in pieces of at most
/// 64 bits), the `P` field holding the width minus one, then one field
/// of that width per slot `Z` leaves clear, sign-magnitude with the sign
/// at the LSB in a signed container. The whole payload run must fit
/// before any of it is read, a payload may not decode to zero, and the
/// stream must end where the last group does.
fn bitwise_decode(
    bytes: &[u8],
    frame: &StreamFrame,
    layout: &mut Layout,
) -> Result<Vec<i32>, CodecError> {
    check_framing(bytes, frame)?;
    let bits = frame.dtype.bits();
    let signed = frame.dtype.signedness() == Signedness::Signed;
    let mut r = Bits {
        bytes,
        pos: 0,
        end: frame.bit_len,
    };
    let mut out = Vec::with_capacity(frame.len);
    for g in 0..frame.len.div_ceil(frame.group_size) {
        let first = g * frame.group_size;
        let len = frame.group_size.min(frame.len - first);
        let mut zero = Vec::with_capacity(len);
        for start in (0..len).step_by(64) {
            let n = (len - start).min(64);
            let piece = r.take(n as u64)?;
            zero.extend((0..n).map(|i| piece >> i & 1 == 1));
        }
        layout.p_fields.push(r.pos);
        let width = r.take(u64::from(prefix_bits(bits)))? + 1;
        if width > u64::from(bits) {
            return Err(CodecError::WidthExceedsContainer {
                group: g,
                width: width as u8,
                container: bits,
            });
        }
        let run = zero.iter().filter(|&&z| !z).count() as u64 * width;
        if run > r.end - r.pos {
            return Err(end(run, r.end - r.pos));
        }
        for (slot, &z) in zero.iter().enumerate() {
            if z {
                out.push(0);
                continue;
            }
            layout.payloads.push((r.pos, first + slot));
            let raw = r.take(width)?;
            let v = if signed {
                // Sign-magnitude, arithmetically: (1 - 2 * sign) * magnitude.
                (1 - 2 * (raw & 1) as i32) * (raw >> 1) as i32
            } else {
                raw as i32
            };
            if v == 0 {
                return Err(CodecError::CorruptValue {
                    index: first + slot,
                    value: 0,
                });
            }
            out.push(v);
        }
    }
    if r.pos != r.end {
        return Err(CodecError::TrailingBits {
            remaining: r.end - r.pos,
        });
    }
    Ok(out)
}

/// The per-field reader the window kernel replaced, kept as an oracle:
/// `Z` and `P` through `BitReader::read_bits`, the payload run through
/// `read_fields`, then one pass over the slots with a branch per slot.
fn per_field_decode(bytes: &[u8], frame: &StreamFrame) -> Result<Vec<i32>, CodecError> {
    check_framing(bytes, frame)?;
    let bits = frame.dtype.bits();
    let signed = frame.dtype.signedness() == Signedness::Signed;
    let mut r = BitReader::with_bit_len(bytes, frame.bit_len);
    let mut out = Vec::with_capacity(frame.len);
    let mut fields = [0u64; 256];
    for g in 0..frame.len.div_ceil(frame.group_size) {
        let first = g * frame.group_size;
        let len = frame.group_size.min(frame.len - first);
        let mut z = [0u64; 4];
        for (word, start) in z.iter_mut().zip((0..len).step_by(64)) {
            *word = r.read_bits((len - start).min(64) as u32)?;
        }
        let zeros: u32 = z.iter().map(|w| w.count_ones()).sum();
        let width = r.read_bits(prefix_bits(bits))? as u8 + 1;
        if width > bits {
            return Err(CodecError::WidthExceedsContainer {
                group: g,
                width,
                container: bits,
            });
        }
        let run = &mut fields[..len - zeros as usize];
        r.read_fields(u32::from(width), run)?;
        let mut next = run.iter();
        for slot in 0..len {
            if z[slot / 64] >> (slot % 64) & 1 == 1 {
                out.push(0);
                continue;
            }
            let raw = *next.next().unwrap() as u32;
            let v = if signed {
                width::from_sign_magnitude(raw)
            } else {
                raw as i32
            };
            if v == 0 {
                return Err(CodecError::CorruptValue {
                    index: first + slot,
                    value: 0,
                });
            }
            out.push(v);
        }
    }
    if !r.is_at_end() {
        return Err(CodecError::TrailingBits {
            remaining: r.remaining_bits(),
        });
    }
    Ok(out)
}

/// Decodes through the registered ShapeShifter scheme, the window kernel.
fn kernel_decode(
    bytes: &[u8],
    frame: &StreamFrame,
    index: Option<&ChunkIndex>,
) -> Result<Vec<i32>, CodecError> {
    let mut out = Vec::new();
    ShapeShifterScheme::default().decode_into(bytes, frame, index, 1, &mut out)?;
    Ok(out)
}

/// Asserts that the kernel and both oracles agree on `bytes` under
/// `frame`, values or typed error alike; returns the oracle's result.
fn agree(bytes: &[u8], frame: &StreamFrame, what: &str) -> Result<Vec<i32>, CodecError> {
    let want = bitwise_decode(bytes, frame, &mut Layout::default());
    assert_eq!(per_field_decode(bytes, frame), want, "per-field: {what}");
    assert_eq!(kernel_decode(bytes, frame, None), want, "kernel: {what}");
    want
}

/// An encoded stream with its frame and, when the policy asked, its index.
struct Encoded {
    bytes: Vec<u8>,
    frame: StreamFrame,
    index: Option<ChunkIndex>,
}

fn encode(tensor: &Tensor, group_size: usize, policy: IndexPolicy) -> Encoded {
    let mut w = BitWriter::new();
    let (_, index) = ShapeShifterScheme::default()
        .encode_into(tensor, group_size, policy, 1, &mut w, &mut Vec::new())
        .unwrap();
    Encoded {
        frame: StreamFrame {
            bit_len: w.bit_len(),
            dtype: tensor.dtype(),
            len: tensor.len(),
            group_size,
        },
        bytes: w.into_bytes(),
        index,
    }
}

/// SplitMix64, for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a generated group places its zeros.
#[derive(Debug, Clone, Copy)]
enum Zeros {
    All,
    None,
    Some,
}

/// The largest magnitude a value of `width` bits has in `dtype`, if a
/// non-zero value of that width exists (a signed value needs a bit for
/// its sign).
fn width_magnitude(dtype: FixedType, width: u8) -> Option<i32> {
    let magnitude_bits = match dtype.signedness() {
        Signedness::Unsigned => width,
        Signedness::Signed => width.checked_sub(1)?,
    };
    (magnitude_bits > 0 && width <= dtype.bits()).then(|| (1 << magnitude_bits) - 1)
}

/// One group of `len` values in `dtype`, zeros placed as `zeros` says,
/// whose widest value needs exactly `width` bits when it has one.
fn group_values(dtype: FixedType, len: usize, width: u8, zeros: Zeros, rng: &mut Rng) -> Vec<i32> {
    let max = width_magnitude(dtype, width);
    let mut values: Vec<i32> = (0..len)
        .map(|_| {
            let zero = match zeros {
                Zeros::All => true,
                Zeros::None => false,
                Zeros::Some => rng.below(3) == 0,
            };
            match max {
                Some(max) if !zero => {
                    let v = 1 + rng.below(max as u64) as i32;
                    if dtype.signedness() == Signedness::Signed && rng.below(2) == 0 {
                        -v
                    } else {
                        v
                    }
                }
                _ => 0,
            }
        })
        .collect();
    // Pin the group's width: one value at the width's largest magnitude.
    if let (Some(max), Some(slot)) = (max, values.iter().position(|&v| v != 0)) {
        values[slot] = if values[slot] < 0 { -max } else { max };
    }
    values
}

/// `groups` groups of `group_size` values (the last one `tail` short)
/// with widths drawn up to the container's and every kind of group.
fn stream_values(
    dtype: FixedType,
    group_size: usize,
    groups: usize,
    tail: usize,
    rng: &mut Rng,
) -> Tensor {
    let len = groups * group_size - tail;
    let mut values = Vec::with_capacity(len);
    for g in 0..groups {
        let n = group_size.min(len - g * group_size);
        let width = 1 + rng.below(u64::from(dtype.bits())) as u8;
        let zeros = [Zeros::All, Zeros::None, Zeros::Some][rng.below(3) as usize];
        values.extend(group_values(dtype, n, width, zeros, rng));
    }
    Tensor::from_vec(Shape::flat(len), dtype, values).unwrap()
}

fn dtype(bits: u8, signed: bool) -> FixedType {
    if signed {
        FixedType::signed(bits).unwrap()
    } else {
        FixedType::unsigned(bits).unwrap()
    }
}

#[test]
fn every_container_width_and_group_size_decodes_like_the_oracles() {
    // Every container of 1-16 bits, both signednesses, every width the
    // container holds, every group size: one all-non-zero group at the
    // width, one with some zeros, one all-zero, and a ragged tail.
    let mut rng = Rng(0x5EED_0001);
    for bits in 1..=16u8 {
        for signed in [false, true] {
            let dtype = dtype(bits, signed);
            for width in 1..=bits {
                for group_size in GROUP_SIZES {
                    let tail = rng.below(group_size as u64) as usize;
                    let mut values = group_values(dtype, group_size, width, Zeros::None, &mut rng);
                    values.extend(group_values(
                        dtype,
                        group_size,
                        width,
                        Zeros::Some,
                        &mut rng,
                    ));
                    values.extend(group_values(dtype, group_size, width, Zeros::All, &mut rng));
                    values.extend(group_values(
                        dtype,
                        group_size - tail,
                        width,
                        Zeros::Some,
                        &mut rng,
                    ));
                    let tensor =
                        Tensor::from_vec(Shape::flat(values.len()), dtype, values).unwrap();
                    let enc = encode(&tensor, group_size, IndexPolicy::None);
                    let what = format!("{dtype}, width {width}, group {group_size}");
                    let got = agree(&enc.bytes, &enc.frame, &what);
                    assert_eq!(got.as_deref(), Ok(tensor.values()), "{what}");
                }
            }
        }
    }
}

#[test]
fn index_spans_starting_at_every_bit_phase_decode_like_the_oracle() {
    // One index entry per group, so spans start wherever groups end; the
    // group sizes and widths here put those starts on every bit phase.
    let mut rng = Rng(0x5EED_0002);
    let mut phases = [false; 8];
    for group_size in GROUP_SIZES {
        for (bits, signed) in [(16, true), (8, false), (5, true), (12, false)] {
            let tensor = stream_values(dtype(bits, signed), group_size, 12, 0, &mut rng);
            let enc = encode(&tensor, group_size, IndexPolicy::EveryGroups(1));
            let Some(index) = &enc.index else {
                continue;
            };
            for entry in index.entries() {
                phases[(entry.bit_offset % 8) as usize] = true;
            }
            let want = bitwise_decode(&enc.bytes, &enc.frame, &mut Layout::default());
            assert_eq!(want.as_deref(), Ok(tensor.values()));
            assert_eq!(
                kernel_decode(&enc.bytes, &enc.frame, Some(index)),
                want,
                "group {group_size}, {bits} bits"
            );
        }
    }
    assert_eq!(phases, [true; 8], "spans must start at every bit phase");
}

/// Streams for the corruption sweeps: every kind of group, several
/// containers and group sizes, ragged tails.
fn corruption_corpus() -> Vec<Encoded> {
    let mut rng = Rng(0x5EED_0003);
    let mut corpus = Vec::new();
    for (bits, signed, group_size, groups) in [
        (16, true, 16, 4),
        (16, false, 16, 3),
        (12, true, 5, 6),
        (8, false, 17, 3),
        (5, true, 64, 2),
        (3, false, 256, 1),
        (1, false, 7, 3),
        (2, true, 16, 3),
        // `Z` past the first group in more than one 64-bit piece, where
        // the framing checks no longer cover a truncation.
        (16, true, 256, 3),
        (4, false, 130, 4),
    ] {
        let tail = rng.below(group_size as u64) as usize;
        let tensor = stream_values(dtype(bits, signed), group_size, groups, tail, &mut rng);
        corpus.push(encode(&tensor, group_size, IndexPolicy::None));
    }
    corpus
}

#[test]
fn every_truncation_point_gives_the_oracles_error() {
    for enc in corruption_corpus() {
        for cut in 0..enc.frame.bit_len {
            let frame = StreamFrame {
                bit_len: cut,
                ..enc.frame
            };
            let bytes = &enc.bytes[..cut.div_ceil(8) as usize];
            let what = format!("{} cut at bit {cut}", enc.frame.dtype);
            assert!(agree(bytes, &frame, &what).is_err(), "{what}");
        }
    }
}

/// Writes the low `n` bits of `value` at bit `at`, LSB first.
fn put_bits(bytes: &mut [u8], at: u64, n: u32, value: u64) {
    for i in 0..u64::from(n) {
        let (byte, bit) = (((at + i) / 8) as usize, (at + i) % 8);
        bytes[byte] = bytes[byte] & !(1 << bit) | (((value >> i) & 1) as u8) << bit;
    }
}

#[test]
fn an_out_of_range_width_gives_the_oracles_error() {
    let mut planted = 0;
    for enc in corruption_corpus() {
        let bits = enc.frame.dtype.bits();
        let prefix = prefix_bits(bits);
        let mut layout = Layout::default();
        bitwise_decode(&enc.bytes, &enc.frame, &mut layout).unwrap();
        for (group, &at) in layout.p_fields.iter().enumerate() {
            // Every `P` value past the container's widest width.
            for field in u64::from(bits)..1 << prefix {
                let mut bytes = enc.bytes.clone();
                put_bits(&mut bytes, at, prefix, field);
                let what = format!("{}: group {group}, P = {field}", enc.frame.dtype);
                let got = agree(&bytes, &enc.frame, &what);
                assert_eq!(
                    got,
                    Err(CodecError::WidthExceedsContainer {
                        group,
                        width: field as u8 + 1,
                        container: bits,
                    }),
                    "{what}"
                );
                planted += 1;
            }
        }
    }
    assert!(
        planted > 0,
        "the corpus must hold containers with room for a wider P"
    );
}

/// Whether stream slot `index` sits in a dense block: a whole 16-slot
/// block of its group whose values are all non-zero, so that its `Z` bits
/// are all clear.
fn in_dense_block(values: &[i32], group_size: usize, index: usize) -> bool {
    let group = index / group_size * group_size;
    let start = group + (index - group) / 16 * 16;
    let group_end = (group + group_size).min(values.len());
    start + 16 <= group_end && values[start..start + 16].iter().all(|&v| v != 0)
}

#[test]
fn a_zero_payload_at_each_slot_gives_the_oracles_error() {
    let (mut planted, mut dense) = (0, 0);
    for enc in corruption_corpus() {
        let signed = enc.frame.dtype.signedness() == Signedness::Signed;
        let mut layout = Layout::default();
        let values = bitwise_decode(&enc.bytes, &enc.frame, &mut layout).unwrap();
        for (g, &p_at) in layout.p_fields.iter().enumerate() {
            let prefix = prefix_bits(enc.frame.dtype.bits());
            let mut bits = Bits {
                bytes: &enc.bytes,
                pos: p_at,
                end: enc.frame.bit_len,
            };
            let width = bits.take(u64::from(prefix)).unwrap() as u32 + 1;
            let group = g * enc.frame.group_size..(g + 1) * enc.frame.group_size;
            for &(at, index) in layout.payloads.iter().filter(|(_, i)| group.contains(i)) {
                // Zero, and in a signed container negative zero too.
                for raw in if signed { vec![0, 1] } else { vec![0] } {
                    let mut bytes = enc.bytes.clone();
                    put_bits(&mut bytes, at, width, raw);
                    let what = format!("{}: slot {index}, field {raw}", enc.frame.dtype);
                    assert_eq!(
                        agree(&bytes, &enc.frame, &what),
                        Err(CodecError::CorruptValue { index, value: 0 }),
                        "{what}"
                    );
                    planted += 1;
                    dense += usize::from(in_dense_block(&values, enc.frame.group_size, index));
                }
            }
        }
    }
    assert!(planted > 0);
    assert!(
        dense > 0,
        "the corpus must keep whole blocks without a zero, which skip the expander"
    );
}

#[test]
fn a_zero_payload_in_a_dense_block_gives_the_oracles_error() {
    // Two groups without a zero at each width of a 16-bit container, so
    // that every whole block skips the expander, and a zero and a
    // negative zero planted at each payload slot in turn. Groups of 17
    // end in a one-slot block, which does not. A signed width of 1 holds
    // no non-zero value, so signed widths start at 2.
    let mut rng = Rng(0x5EED_0004);
    let mut planted = 0;
    for signed in [false, true] {
        let dtype = dtype(16, signed);
        let raws: &[u64] = if signed { &[0, 1] } else { &[0] };
        for width in 1 + u8::from(signed)..=16 {
            for group_size in [16, 17, 32, 64, 256] {
                let mut values = group_values(dtype, group_size, width, Zeros::None, &mut rng);
                values.extend(group_values(
                    dtype,
                    group_size,
                    width,
                    Zeros::None,
                    &mut rng,
                ));
                let tensor = Tensor::from_vec(Shape::flat(values.len()), dtype, values).unwrap();
                let enc = encode(&tensor, group_size, IndexPolicy::None);
                let mut layout = Layout::default();
                let clean = bitwise_decode(&enc.bytes, &enc.frame, &mut layout);
                assert_eq!(clean.as_deref(), Ok(tensor.values()));
                assert_eq!(layout.payloads.len(), 2 * group_size);
                for &(at, index) in &layout.payloads {
                    for &raw in raws {
                        let mut bytes = enc.bytes.clone();
                        put_bits(&mut bytes, at, u32::from(width), raw);
                        let what = format!(
                            "{dtype}, width {width}, group {group_size}: slot {index}, field {raw}"
                        );
                        assert_eq!(
                            agree(&bytes, &enc.frame, &what),
                            Err(CodecError::CorruptValue { index, value: 0 }),
                            "{what}"
                        );
                        planted += 1;
                    }
                }
            }
        }
    }
    // 16 unsigned widths with one field, 15 signed widths with two.
    assert_eq!(planted, (16 + 15 * 2) * 2 * (16 + 17 + 32 + 64 + 256));
}

proptest! {
    #[test]
    fn shapeshifter_decode_matches_both_oracles(
        bits in 1u8..=16,
        signed in any::<bool>(),
        group in 0usize..GROUP_SIZES.len(),
        groups in 1usize..=5,
        tail in 0usize..256,
        every in 0usize..=3,
        seed in any::<u64>(),
    ) {
        let group_size = GROUP_SIZES[group];
        let tail = tail % group_size;
        let mut rng = Rng(seed);
        let tensor = stream_values(dtype(bits, signed), group_size, groups, tail, &mut rng);
        // Unindexed, or an index entry every 1-3 groups.
        let policy = match every {
            0 => IndexPolicy::None,
            n => IndexPolicy::EveryGroups(n),
        };
        let enc = encode(&tensor, group_size, policy);
        let want = bitwise_decode(&enc.bytes, &enc.frame, &mut Layout::default());
        prop_assert_eq!(want.as_deref(), Ok(tensor.values()));
        prop_assert_eq!(&per_field_decode(&enc.bytes, &enc.frame), &want);
        prop_assert_eq!(&kernel_decode(&enc.bytes, &enc.frame, None), &want);
        prop_assert_eq!(&kernel_decode(&enc.bytes, &enc.frame, enc.index.as_ref()), &want);
    }
}

// ---------------------------------------------------------------------
// Delta, DPRed and AdaBits decode: the window readers against a decoder
// per layout that takes every bit one at a time.

/// The three layouts read through a window and an out-of-line per-field
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Delta,
    DpRed,
    AdaBits,
}

const WIRES: [Wire; 3] = [Wire::Delta, Wire::DpRed, Wire::AdaBits];

impl Wire {
    fn id(self) -> SchemeId {
        match self {
            Wire::Delta => SchemeId::DELTA,
            Wire::DpRed => SchemeId::DPRED,
            Wire::AdaBits => SchemeId::ADABITS,
        }
    }

    fn scheme(self) -> &'static dyn ContainerScheme {
        SchemeRegistry::global().get(self.id()).unwrap()
    }

    /// Bits of the `P` field: Delta's holds widths up to the container
    /// plus one, the others' up to the container.
    fn prefix_bits(self, bits: u8) -> u32 {
        match self {
            Wire::Delta => 32 - u32::from(bits).leading_zeros(),
            Wire::DpRed | Wire::AdaBits => prefix_bits(bits),
        }
    }

    /// The widest group `P` may declare: a delta needs a sign bit more
    /// than the container, a signed DPRed field its sign bit, and an
    /// AdaBits plane count is a magnitude width.
    fn max_width(self, dtype: FixedType) -> u8 {
        let signed = dtype.signedness() == Signedness::Signed;
        match self {
            Wire::Delta => dtype.bits() + 1,
            Wire::DpRed => dtype.bits() + u8::from(signed),
            Wire::AdaBits => dtype.bits(),
        }
    }
}

/// Sign-magnitude, arithmetically: (1 - 2 * sign) * magnitude.
fn sign_magnitude(raw: u64) -> i32 {
    (1 - 2 * (raw & 1) as i32) * (raw >> 1) as i32
}

/// Whether `v` fits `dtype`: `0..2^bits` unsigned, `|v| < 2^(bits-1)`
/// signed.
fn fits(dtype: FixedType, v: i32) -> bool {
    let bits = u32::from(dtype.bits());
    if dtype.signedness() == Signedness::Signed {
        i64::from(v).abs() < 1i64 << (bits - 1)
    } else {
        (0..1i64 << bits).contains(&i64::from(v))
    }
}

/// Where a group's fields sit, as [`bitwise_wire_decode`] met them.
#[derive(Debug, Default, Clone)]
struct WireGroup {
    /// First value of the group and its length.
    first: usize,
    len: usize,
    /// Bit offset of the `P` field and the width it declared.
    p_at: u64,
    width: u64,
    /// Delta and DPRed: each payload field's offset and its slot.
    fields: Vec<(u64, usize)>,
    /// AdaBits: the sign plane's offset (signed containers) and each
    /// magnitude plane's, most significant first.
    signs_at: Option<u64>,
    planes_at: Vec<u64>,
}

/// `len` bits read as a group bit vector, in pieces of at most 64 bits.
fn take_bitvec(r: &mut Bits<'_>, len: usize) -> Result<Vec<bool>, CodecError> {
    let mut out = Vec::with_capacity(len);
    for start in (0..len).step_by(64) {
        let n = (len - start).min(64);
        let piece = r.take(n as u64)?;
        out.extend((0..n).map(|i| piece >> i & 1 == 1));
    }
    Ok(out)
}

/// The stream decoded one bit at a time from the layouts of DESIGN §16.
/// Per group:
///
/// * Delta: `Z` (bit 0 marks a zero first value, bit `i` a repeat of
///   value `i - 1`), the first value in sign-magnitude at the container's
///   bits plus one unless it is zero, `P` (the delta width minus one),
///   then one sign-magnitude delta per later slot `Z` leaves clear.
/// * DPRed: `P`, then every value at `P` bits (sign-magnitude when
///   signed).
/// * AdaBits: `P` (the plane count minus one), the sign plane (signed
///   containers only), then `P` magnitude planes, most significant first,
///   one bit per slot.
///
/// Bit vectors are read in pieces of at most 64 bits, and a run of fields
/// must fit whole before any of it is read. The values are formed once
/// the group is read, and the first one outside the container is an
/// error; the stream must end where the last group does.
fn bitwise_wire_decode(
    wire: Wire,
    bytes: &[u8],
    frame: &StreamFrame,
    groups: &mut Vec<WireGroup>,
) -> Result<Vec<i32>, CodecError> {
    check_framing(bytes, frame)?;
    let dtype = frame.dtype;
    let bits = dtype.bits();
    let signed = dtype.signedness() == Signedness::Signed;
    let mut r = Bits {
        bytes,
        pos: 0,
        end: frame.bit_len,
    };
    let mut out = Vec::with_capacity(frame.len);
    for g in 0..frame.len.div_ceil(frame.group_size) {
        let first = g * frame.group_size;
        let len = frame.group_size.min(frame.len - first);
        let mut at = WireGroup {
            first,
            len,
            ..WireGroup::default()
        };
        let values: Vec<i32> = match wire {
            Wire::Delta => {
                let repeat = take_bitvec(&mut r, len)?;
                let start = if repeat[0] {
                    0
                } else {
                    sign_magnitude(r.take(u64::from(bits) + 1)?)
                };
                at.width = take_width(wire, &mut r, dtype, g, &mut at)?;
                let run = repeat[1..].iter().filter(|&&z| !z).count() as u64 * at.width;
                if run > r.end - r.pos {
                    return Err(end(run, r.end - r.pos));
                }
                let mut values = vec![start];
                for (slot, &z) in repeat.iter().enumerate().skip(1) {
                    let prev = values[slot - 1];
                    if z {
                        values.push(prev);
                    } else {
                        at.fields.push((r.pos, first + slot));
                        values.push(prev + sign_magnitude(r.take(at.width)?));
                    }
                }
                values
            }
            Wire::DpRed => {
                at.width = take_width(wire, &mut r, dtype, g, &mut at)?;
                let run = len as u64 * at.width;
                if run > r.end - r.pos {
                    return Err(end(run, r.end - r.pos));
                }
                (0..len)
                    .map(|slot| {
                        at.fields.push((r.pos, first + slot));
                        let raw = r.take(at.width).unwrap();
                        if signed {
                            sign_magnitude(raw)
                        } else {
                            raw as i32
                        }
                    })
                    .collect()
            }
            Wire::AdaBits => {
                at.width = take_width(wire, &mut r, dtype, g, &mut at)?;
                let negative = if signed {
                    at.signs_at = Some(r.pos);
                    take_bitvec(&mut r, len)?
                } else {
                    vec![false; len]
                };
                let mut mags = vec![0i32; len];
                for k in (0..at.width).rev() {
                    at.planes_at.push(r.pos);
                    for (mag, set) in mags.iter_mut().zip(take_bitvec(&mut r, len)?) {
                        *mag += i32::from(set) << k;
                    }
                }
                mags.iter()
                    .zip(&negative)
                    .map(|(&mag, &neg)| if neg { -mag } else { mag })
                    .collect()
            }
        };
        groups.push(at);
        for (slot, &v) in values.iter().enumerate() {
            if !fits(dtype, v) {
                return Err(CodecError::CorruptValue {
                    index: first + slot,
                    value: v,
                });
            }
        }
        out.extend(values);
    }
    if r.pos != r.end {
        return Err(CodecError::TrailingBits {
            remaining: r.end - r.pos,
        });
    }
    Ok(out)
}

/// Reads group `g`'s `P` field and bounds the width it declares.
fn take_width(
    wire: Wire,
    r: &mut Bits<'_>,
    dtype: FixedType,
    g: usize,
    at: &mut WireGroup,
) -> Result<u64, CodecError> {
    at.p_at = r.pos;
    let width = r.take(u64::from(wire.prefix_bits(dtype.bits())))? + 1;
    let container = wire.max_width(dtype);
    if width > u64::from(container) {
        return Err(CodecError::WidthExceedsContainer {
            group: g,
            width: width as u8,
            container,
        });
    }
    Ok(width)
}

/// Decodes through the registered scheme: the window reader, and the
/// per-field reader it replays.
fn wire_decode(wire: Wire, bytes: &[u8], frame: &StreamFrame) -> Result<Vec<i32>, CodecError> {
    let mut out = Vec::new();
    wire.scheme().decode_into(bytes, frame, None, 1, &mut out)?;
    Ok(out)
}

/// Asserts that the scheme's reader and the bitwise decoder agree on
/// `bytes` under `frame`; returns the decoder's result.
fn wire_agree(
    wire: Wire,
    bytes: &[u8],
    frame: &StreamFrame,
    what: &str,
) -> Result<Vec<i32>, CodecError> {
    let want = bitwise_wire_decode(wire, bytes, frame, &mut Vec::new());
    assert_eq!(wire_decode(wire, bytes, frame), want, "{wire:?}: {what}");
    want
}

fn wire_encode(wire: Wire, tensor: &Tensor, group_size: usize) -> Encoded {
    let mut w = BitWriter::new();
    let (_, index) = wire
        .scheme()
        .encode_into(
            tensor,
            group_size,
            IndexPolicy::None,
            1,
            &mut w,
            &mut Vec::new(),
        )
        .unwrap();
    assert!(index.is_none());
    Encoded {
        frame: StreamFrame {
            bit_len: w.bit_len(),
            dtype: tensor.dtype(),
            len: tensor.len(),
            group_size,
        },
        bytes: w.into_bytes(),
        index,
    }
}

/// Values for the three layouts: [`stream_values`]' groups of every
/// width, with, for Delta, runs of repeats and slow ramps between them,
/// and steps across the whole range (deltas one bit wider than the
/// container).
fn wire_values(
    wire: Wire,
    dtype: FixedType,
    group_size: usize,
    groups: usize,
    tail: usize,
    rng: &mut Rng,
) -> Tensor {
    let tensor = stream_values(dtype, group_size, groups, tail, rng);
    if wire != Wire::Delta {
        return tensor;
    }
    let (lo, hi) = match dtype.signedness() {
        Signedness::Unsigned => (0, dtype.max_magnitude()),
        Signedness::Signed => (-dtype.max_magnitude(), dtype.max_magnitude()),
    };
    let mut values = tensor.values().to_vec();
    let mut i = 0;
    while i < values.len() {
        let run = 1 + rng.below(8) as usize;
        match rng.below(4) {
            0 => {
                let v = values[i];
                for slot in values.iter_mut().skip(i).take(run) {
                    *slot = v;
                }
            }
            1 => {
                let mut v = values[i];
                for slot in values.iter_mut().skip(i).take(run) {
                    v = (v + rng.below(3) as i32 - 1).clamp(lo, hi);
                    *slot = v;
                }
            }
            2 => {
                values[i] = if rng.below(2) == 0 { lo } else { hi };
            }
            _ => {}
        }
        i += run;
    }
    Tensor::from_vec(Shape::flat(values.len()), dtype, values).unwrap()
}

#[test]
fn every_layout_container_and_group_size_decodes_like_the_bitwise_decoder() {
    // Every container of 1-16 bits, both signednesses, every group size
    // up to a block past 16, 64 and 256, a ragged tail: the stream
    // decodes to its tensor, and the scheme's reader agrees with the
    // bitwise decoder.
    let mut rng = Rng(0x5EED_0101);
    let mut widest = 0;
    for wire in WIRES {
        for bits in 1..=16u8 {
            for signed in [false, true] {
                let dtype = dtype(bits, signed);
                for group_size in GROUP_SIZES {
                    let tail = rng.below(group_size as u64) as usize;
                    let groups = if group_size > 64 { 2 } else { 4 };
                    let tensor = wire_values(wire, dtype, group_size, groups, tail, &mut rng);
                    let enc = wire_encode(wire, &tensor, group_size);
                    let what = format!("{dtype}, group {group_size}");
                    let mut groups = Vec::new();
                    let want = bitwise_wire_decode(wire, &enc.bytes, &enc.frame, &mut groups);
                    assert_eq!(want.as_deref(), Ok(tensor.values()), "{wire:?}: {what}");
                    assert_eq!(
                        wire_decode(wire, &enc.bytes, &enc.frame),
                        want,
                        "{wire:?}: {what}"
                    );
                    widest += groups
                        .iter()
                        .filter(|g| g.width == u64::from(wire.max_width(dtype)))
                        .count();
                }
            }
        }
    }
    assert!(
        widest > 0,
        "some group must declare its layout's widest width"
    );
}

/// Streams for the corruption sweeps of one layout: several containers
/// and group sizes, ragged tails, groups of every width.
fn wire_corpus(wire: Wire) -> Vec<Encoded> {
    let mut rng = Rng(0x5EED_0103 ^ wire.id().as_byte() as u64);
    let mut corpus = Vec::new();
    for (bits, signed, group_size, groups) in [
        (16, true, 16, 4),
        (16, false, 16, 3),
        (12, true, 5, 6),
        (8, false, 17, 3),
        (8, true, 16, 3),
        (5, true, 64, 2),
        (3, false, 256, 1),
        (1, false, 7, 3),
        (1, true, 9, 2),
        (2, true, 16, 3),
        (16, true, 130, 2),
    ] {
        let tail = rng.below(group_size as u64) as usize;
        let tensor = wire_values(
            wire,
            dtype(bits, signed),
            group_size,
            groups,
            tail,
            &mut rng,
        );
        corpus.push(wire_encode(wire, &tensor, group_size));
    }
    corpus
}

#[test]
fn every_layout_truncation_point_gives_the_bitwise_error() {
    for wire in WIRES {
        for enc in wire_corpus(wire) {
            for cut in 0..enc.frame.bit_len {
                let frame = StreamFrame {
                    bit_len: cut,
                    ..enc.frame
                };
                let bytes = &enc.bytes[..cut.div_ceil(8) as usize];
                let what = format!("{} cut at bit {cut}", enc.frame.dtype);
                assert!(wire_agree(wire, bytes, &frame, &what).is_err(), "{what}");
            }
        }
    }
}

#[test]
fn every_layout_width_past_and_at_its_bound_gives_the_bitwise_result() {
    // Every `P` past the layout's bound is refused with the group's
    // index; a `P` one above the container, which Delta and a signed
    // DPRed allow but no encoder writes for in-range values, reads its
    // fields at that width (or fails) exactly as the bitwise decoder does.
    let mut refused = 0;
    let mut above = 0;
    for wire in WIRES {
        for enc in wire_corpus(wire) {
            let dtype = enc.frame.dtype;
            let prefix = wire.prefix_bits(dtype.bits());
            let bound = u64::from(wire.max_width(dtype));
            let mut groups = Vec::new();
            bitwise_wire_decode(wire, &enc.bytes, &enc.frame, &mut groups).unwrap();
            for (g, group) in groups.iter().enumerate() {
                for field in 0..1u64 << prefix {
                    let width = field + 1;
                    if width <= u64::from(dtype.bits()) {
                        continue;
                    }
                    let mut bytes = enc.bytes.clone();
                    put_bits(&mut bytes, group.p_at, prefix, field);
                    let what = format!("{dtype}: group {g}, P = {field}");
                    let got = wire_agree(wire, &bytes, &enc.frame, &what);
                    if width > bound {
                        assert_eq!(
                            got,
                            Err(CodecError::WidthExceedsContainer {
                                group: g,
                                width: width as u8,
                                container: bound as u8,
                            }),
                            "{wire:?}: {what}"
                        );
                        refused += 1;
                    } else {
                        above += 1;
                    }
                }
            }
        }
    }
    assert!(refused > 0 && above > 0, "{refused} refused, {above} above");
}

#[test]
fn zero_payloads_at_each_slot_give_the_bitwise_result() {
    // Delta: a delta field of zero or negative zero (a repeat the encoder
    // would have put in `Z`). DPRed: a zero or negative-zero field. AdaBits:
    // a slot whose magnitude planes are all clear, with its sign set and
    // clear.
    let mut planted = 0;
    for wire in WIRES {
        for enc in wire_corpus(wire) {
            let signed = enc.frame.dtype.signedness() == Signedness::Signed;
            let mut groups = Vec::new();
            bitwise_wire_decode(wire, &enc.bytes, &enc.frame, &mut groups).unwrap();
            for group in &groups {
                if wire == Wire::AdaBits {
                    for slot in 0..group.len {
                        for sign in [false, true] {
                            let mut bytes = enc.bytes.clone();
                            for &plane in &group.planes_at {
                                put_bits(&mut bytes, plane + slot as u64, 1, 0);
                            }
                            if let Some(signs) = group.signs_at {
                                put_bits(&mut bytes, signs + slot as u64, 1, u64::from(sign));
                            }
                            let what = format!(
                                "{}: slot {}, sign {sign}",
                                enc.frame.dtype,
                                group.first + slot
                            );
                            assert!(wire_agree(wire, &bytes, &enc.frame, &what).is_ok());
                            planted += 1;
                        }
                    }
                    continue;
                }
                let raws: &[u64] = if signed || wire == Wire::Delta {
                    &[0, 1]
                } else {
                    &[0]
                };
                for &(at, index) in &group.fields {
                    for &raw in raws {
                        let mut bytes = enc.bytes.clone();
                        put_bits(&mut bytes, at, group.width as u32, raw);
                        let what = format!("{}: slot {index}, field {raw}", enc.frame.dtype);
                        wire_agree(wire, &bytes, &enc.frame, &what).ok();
                        planted += 1;
                    }
                }
            }
        }
    }
    assert!(planted > 0);
}

#[test]
fn values_that_leave_the_container_give_the_bitwise_error() {
    // Delta: the largest delta of the group's width added to each slot,
    // which can carry a sum out of the container. AdaBits: hand-built
    // groups in signed containers whose planes make magnitudes past the
    // signed range (no encoder writes them: a signed magnitude needs one
    // plane less than the container).
    let mut refused = 0;
    for enc in wire_corpus(Wire::Delta) {
        let mut groups = Vec::new();
        bitwise_wire_decode(Wire::Delta, &enc.bytes, &enc.frame, &mut groups).unwrap();
        for group in &groups {
            let max = (1u64 << group.width) - 1;
            for &(at, _) in &group.fields {
                // The largest magnitude, both signs.
                for value in [max, max - 1] {
                    let mut bytes = enc.bytes.clone();
                    put_bits(&mut bytes, at, group.width as u32, value);
                    let what = format!("{}: bit {at} = {value:#x}", enc.frame.dtype);
                    let got = wire_agree(Wire::Delta, &bytes, &enc.frame, &what);
                    refused += usize::from(matches!(got, Err(CodecError::CorruptValue { .. })));
                }
            }
        }
    }
    let mut rng = Rng(0x5EED_0104);
    for bits in 1..=16u8 {
        let dtype = dtype(bits, true);
        let prefix = Wire::AdaBits.prefix_bits(bits);
        for len in GROUP_SIZES {
            for planes in [u64::MAX, 0] {
                // One group at every width up to the container's, its sign
                // plane random and its planes all ones or random.
                for width in 1..=u32::from(bits) {
                    let mut w = BitWriter::new();
                    w.write_bits(u64::from(width - 1), prefix).unwrap();
                    for _ in 0..=width {
                        for start in (0..len).step_by(64) {
                            let n = (len - start).min(64) as u32;
                            let word = if planes == 0 { rng.next() } else { planes };
                            w.write_bits(word & (u64::MAX >> (64 - n)), n).unwrap();
                        }
                    }
                    let frame = StreamFrame {
                        bit_len: w.bit_len(),
                        dtype,
                        len,
                        group_size: len,
                    };
                    let what = format!("{dtype}: {len} values at width {width}");
                    let got = wire_agree(Wire::AdaBits, w.as_bytes(), &frame, &what);
                    refused += usize::from(matches!(got, Err(CodecError::CorruptValue { .. })));
                }
            }
        }
    }
    assert!(refused > 0, "some plant must leave the container");
}

proptest! {
    #[test]
    fn layout_decode_matches_the_bitwise_decoder_under_damage(
        wire in 0usize..3,
        bits in 1u8..=16,
        signed in any::<bool>(),
        group in 0usize..GROUP_SIZES.len(),
        groups in 1usize..=4,
        tail in 0usize..256,
        seed in any::<u64>(),
        damage in 0usize..4,
    ) {
        // A clean stream, one with a bit flipped, one cut short, and one
        // with a run of ones forced over it: the reader and the bitwise
        // decoder agree on values or on the typed error.
        let wire = WIRES[wire];
        let group_size = GROUP_SIZES[group];
        let mut rng = Rng(seed);
        let tensor =
            wire_values(wire, dtype(bits, signed), group_size, groups, tail % group_size, &mut rng);
        let enc = wire_encode(wire, &tensor, group_size);
        let mut bytes = enc.bytes.clone();
        let mut frame = enc.frame;
        let len = frame.bit_len.max(1);
        match damage {
            1 => {
                let at = rng.below(len);
                bytes[(at / 8) as usize] ^= 1 << (at % 8);
            }
            2 => {
                frame.bit_len = rng.below(len);
                bytes.truncate(frame.bit_len.div_ceil(8) as usize);
            }
            3 => {
                let at = rng.below(len);
                let n = (1 + rng.below(40)).min(frame.bit_len - at);
                for i in 0..n {
                    put_bits(&mut bytes, at + i, 1, 1);
                }
            }
            _ => {}
        }
        let want = bitwise_wire_decode(wire, &bytes, &frame, &mut Vec::new());
        if damage == 0 {
            prop_assert_eq!(want.as_deref(), Ok(tensor.values()));
        }
        prop_assert_eq!(wire_decode(wire, &bytes, &frame), want);
    }
}
