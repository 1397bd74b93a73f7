//! Word-parallel hot-path kernels: the software analogue of the paper's
//! Figure 5c width-detection hardware.
//!
//! The hardware gets group widths almost for free — one OR tree per bit
//! position plus a leading-1 detector. A scalar software loop pays a
//! compare-and-max (or an OR) per *value*. These kernels recover most of
//! the hardware's parallelism on a 64-bit machine:
//!
//! * [`scan_group`] makes a single fused pass over a group, packing two
//!   32-bit sign-magnitude encodings per 64-bit lane and OR-ing lanes
//!   together, while simultaneously building the group's zero bit-vector
//!   `Z` as whole `u64` words. One lane fold and one `leading_zeros` at
//!   the end yield the group width; the Z words go to
//!   `BitWriter::write_words` without any per-value bit pushes.
//! * [`gather_nonzero`] compacts the non-zero payload encodings of a group
//!   into a dense field buffer, without a branch per value.
//! * `pack_block` is the encode-side mirror of the decode extractor: a
//!   packer monomorphised per width puts sixteen fields at constant
//!   offsets, and `GroupBits` assembles groups' headers and packed
//!   payloads back to back so that a run of groups reaches the stream in
//!   one `BitWriter::write_words` call.
//!
//! The decode side mirrors the paper's L2 expander, which fills every
//! slot of a group in one step. Every wire layout reads a group of up to
//! 16 values from one [`BitReader::window`]:
//!
//! * `window_bitvec`, `window_field` and `window_run` cut a group's
//!   header fields (`Z`, `P`, Delta's first value, AdaBits's sign plane)
//!   and payload out of the window at offsets the group's length fixes.
//! * `expand_block` decodes up to 16 slots from a payload run driven by
//!   `Z` (ShapeShifter, and Delta's deltas). Its field extractor is
//!   monomorphised per width, so every field sits at a constant offset,
//!   and the expansion from `Z` is table-driven, without a branch.
//!   `cut_block` is the same extractor without `Z` (DPRed).
//! * `planes_block` cuts AdaBits's bit planes into 16-bit lanes with an
//!   extractor monomorphised per group length and turns them into
//!   magnitudes with one 16×16 bit transpose; `magnitude_planes` is the
//!   same transpose on encode.
//!
//! The scalar equivalents (`ss_tensor::width::group_width_scalar`, the
//! per-value loops retained in [`WidthDetector`](crate::WidthDetector))
//! stay in the tree as the differential-test oracle; the
//! `kernel_differential` suite pins these kernels against them, and the
//! decoders against a bit-at-a-time decoder per layout.
//!
//! [`BitReader::window`]: ss_bitio::BitReader::window

use ss_bitio::WINDOW_WORDS;
use ss_tensor::Signedness;

use crate::checked;

/// Largest group the fixed-size scan buffers cover. The container format
/// caps groups at 256 values, so four `u64` zero-bitmap words suffice.
pub const MAX_GROUP: usize = 256;

/// The result of one fused pass over a group: its zero bit-vector as
/// whole words, and the OR of all (sign-magnitude) value encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupScan {
    /// Zero bit-vector, LSB-first: bit `i` of `z[i / 64]` is 1 iff value
    /// `i` of the group is zero. Words beyond the group length are zero.
    pub z: [u64; 4],
    /// OR of the sign-magnitude encodings of every value in the group —
    /// the outputs of Figure 5c's per-bit OR trees.
    pub or: u32,
}

impl GroupScan {
    /// The detected group width: position of the leading 1 across the OR
    /// signals, plus one. Zero for an all-zero group.
    #[must_use]
    pub fn width(&self) -> u8 {
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        (32 - self.or.leading_zeros()) as u8
    }

    /// The width as stored in the container's `P` field: `width - 1`,
    /// with all-zero groups pinned to the smallest encoding.
    #[must_use]
    pub fn encoded_width(&self) -> u8 {
        self.width().max(1) - 1
    }

    /// Number of zero values in the group (popcount of the Z words).
    #[must_use]
    pub fn zero_count(&self) -> u32 {
        let [a, b, c, d] = self.z;
        a.count_ones() + b.count_ones() + c.count_ones() + d.count_ones()
    }
}

/// Scans a group once, producing its zero bit-vector as whole `u64` words
/// and the OR-fold of its sign-magnitude encodings.
///
/// Zeros never assert the sign wire: a zero value contributes `0` to the
/// OR in both signedness modes (the codec elides zeros entirely, so they
/// must not force a 1 into bit position 0).
///
/// Groups longer than [`MAX_GROUP`] values are not representable in the
/// container format; the tail beyond 256 values is ignored in release
/// builds and asserts in debug builds.
#[must_use]
pub fn scan_group(values: &[i32], signedness: Signedness) -> GroupScan {
    debug_assert!(
        values.len() <= MAX_GROUP,
        "group of {} values exceeds the {MAX_GROUP}-value container cap",
        values.len()
    );
    match signedness {
        Signedness::Unsigned => scan_with(values, encode_unsigned),
        Signedness::Signed => scan_with(values, encode_signed),
    }
}

/// Compacts the sign-magnitude encodings of the group's non-zero values
/// into the front of `out`, returning how many there are.
///
/// The loop is branch-free in the common case: every value's encoding is
/// written, and the cursor only advances past slots holding non-zeros, so
/// zeros are overwritten by the next value instead of branching. `out`
/// must be at least as long as `values` (a `[u64; MAX_GROUP]` scratch
/// buffer covers every legal group).
#[must_use]
pub fn gather_nonzero(values: &[i32], signedness: Signedness, out: &mut [u64]) -> usize {
    debug_assert!(
        out.len() >= values.len(),
        "gather buffer of {} slots cannot hold a {}-value group",
        out.len(),
        values.len()
    );
    match signedness {
        Signedness::Unsigned => gather_with(values, out, encode_unsigned),
        Signedness::Signed => gather_with(values, out, encode_signed),
    }
}

/// [`scan_group`] and [`gather_nonzero`] fused into one pass: each value
/// is loaded and encoded exactly once, feeding the zero bitmap, the OR
/// lanes, *and* the compacted payload buffer — the shape the encoder's
/// per-group hot loop wants. Returns the scan and the non-zero count.
///
/// Equivalent by construction to calling the two kernels separately
/// (pinned by a unit test below); the same buffer-length contract as
/// [`gather_nonzero`] applies.
#[must_use]
pub fn scan_gather(values: &[i32], signedness: Signedness, out: &mut [u64]) -> (GroupScan, usize) {
    debug_assert!(
        values.len() <= MAX_GROUP,
        "group of {} values exceeds the {MAX_GROUP}-value container cap",
        values.len()
    );
    debug_assert!(
        out.len() >= values.len(),
        "gather buffer of {} slots cannot hold a {}-value group",
        out.len(),
        values.len()
    );
    match signedness {
        Signedness::Unsigned => scan_gather_with(values, out, encode_unsigned),
        Signedness::Signed => scan_gather_with(values, out, encode_signed),
    }
}

fn scan_gather_with(
    values: &[i32],
    out: &mut [u64],
    enc: impl Fn(i32) -> u32 + Copy,
) -> (GroupScan, usize) {
    let mut z = [0u64; 4];
    let mut lanes = 0u64;
    let mut n = 0usize;
    for (slot, chunk) in z.iter_mut().zip(values.chunks(64)) {
        let mut zw = 0u64;
        for (bit, &v) in chunk.iter().enumerate() {
            // ss-lint: allow(truncating-cast) -- enumerate over <= 64 items
            let bit = bit as u32;
            let e = enc(v);
            // Alternate encodings between the low and high 32-bit lane;
            // only the OR matters, so placement order is free.
            lanes |= u64::from(e) << ((bit & 1) << 5);
            zw |= u64::from(v == 0) << bit;
            if let Some(s) = out.get_mut(n) {
                *s = u64::from(e);
            }
            n += usize::from(v != 0);
        }
        *slot = zw;
    }
    // ss-lint: allow(truncating-cast) -- folding the two 32-bit lanes is the point
    let or = (lanes | (lanes >> 32)) as u32;
    (GroupScan { z, or }, n)
}

/// Zero bitmap of up to 64 values as one word: bit `i` is 1 iff
/// `values[i] == 0`. Bits at and above `values.len()` are 0. This is the
/// single-word form of the extractor fused into [`scan_group`], for
/// callers (like the zero-RLE token counter) that only need `Z`.
#[must_use]
pub fn zero_bitmap64(values: &[i32]) -> u64 {
    debug_assert!(values.len() <= 64, "bitmap word holds at most 64 values");
    let mut z = 0u64;
    for (i, &v) in values.iter().take(64).enumerate() {
        // ss-lint: allow(truncating-cast) -- enumerate over <= 64 items
        // ss-lint: allow(shift-bound) -- take(64) bounds i < 64
        z |= u64::from(v == 0) << (i as u32);
    }
    z
}

/// Sign-magnitude encoding used on the wire for signed containers: the
/// magnitude shifted up one, with the sign at the least-significant place
/// (paper §3). Zero encodes to 0 and never asserts the sign bit.
#[inline]
fn encode_signed(v: i32) -> u32 {
    (v.unsigned_abs() << 1) | u32::from(v < 0)
}

/// Unsigned containers store the value verbatim.
#[inline]
fn encode_unsigned(v: i32) -> u32 {
    debug_assert!(v >= 0, "negative value {v} in an unsigned container");
    v.unsigned_abs()
}

fn scan_with(values: &[i32], enc: impl Fn(i32) -> u32 + Copy) -> GroupScan {
    let mut z = [0u64; 4];
    let mut lanes = 0u64;
    for (slot, chunk) in z.iter_mut().zip(values.chunks(64)) {
        let mut zw = 0u64;
        let mut bit = 0u32;
        let mut pairs = chunk.chunks_exact(2);
        for pair in &mut pairs {
            if let [a, b] = *pair {
                lanes |= u64::from(enc(a)) | (u64::from(enc(b)) << 32);
                // ss-lint: allow(shift-bound) -- bit advances by 2 per pair of a <= 64-item chunk, so bit <= 62 and bit + 1 <= 63
                zw |= (u64::from(a == 0) << bit) | (u64::from(b == 0) << (bit + 1));
                bit += 2;
            }
        }
        for &v in pairs.remainder() {
            lanes |= u64::from(enc(v));
            // ss-lint: allow(shift-bound) -- bit < chunk.len() <= 64 when the remainder item exists, so bit <= 63
            zw |= u64::from(v == 0) << bit;
            bit += 1;
        }
        *slot = zw;
    }
    // ss-lint: allow(truncating-cast) -- folding the two 32-bit lanes is the point
    let or = (lanes | (lanes >> 32)) as u32;
    GroupScan { z, or }
}

fn gather_with(values: &[i32], out: &mut [u64], enc: impl Fn(i32) -> u32 + Copy) -> usize {
    let mut n = 0usize;
    for &v in values {
        if let Some(slot) = out.get_mut(n) {
            *slot = u64::from(enc(v));
        }
        n += usize::from(v != 0);
    }
    n
}

/// Slots one [`expand_block`] call fills: the paper's default group size.
/// A larger group is decoded as consecutive blocks.
pub(crate) const BLOCK: usize = 16;

/// A payload run as [`expand_block`] takes it: at least [`BLOCK`] fields
/// of up to 16 bits, LSB-first from bit 0.
pub(crate) type PayloadRun = [u64; 4];

/// What one [`expand_block`] call found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Expanded {
    /// Payload fields the block consumed: its non-zero slots.
    pub(crate) payloads: usize,
    /// Whether a payload slot decoded to zero. Zeros travel in `Z`, so
    /// such a field is corrupt.
    pub(crate) zero_payload: bool,
}

/// The first `len` bits of a window (at most 256) as a group bit vector;
/// bits past `len` are cleared.
#[inline]
pub(crate) fn window_bitvec(window: &[u64; WINDOW_WORDS], len: usize) -> [u64; 4] {
    let mut bits = [0u64; 4];
    for (i, (out, &word)) in bits.iter_mut().zip(window).enumerate() {
        *out = word & low_bits(len.saturating_sub(64 * i));
    }
    bits
}

/// How many of the first `len` bits of a window (at most 256) are set.
#[inline]
pub(crate) fn window_ones(window: &[u64; WINDOW_WORDS], len: usize) -> usize {
    let [first, ..] = *window;
    if len <= 64 {
        return (first & low_bits(len)).count_ones() as usize;
    }
    window_bitvec(window, len)
        .iter()
        .map(|word| word.count_ones() as usize)
        .sum()
}

/// The `bits`-wide field (at most 64 bits) at bit `at` of a window; bits
/// past the window's end read as zero.
#[inline]
pub(crate) fn window_field(window: &[u64; WINDOW_WORDS], at: usize, bits: u32) -> u64 {
    let [first, ..] = *window;
    let mask = low_bits(bits as usize);
    if at + bits as usize <= 64 {
        // The common case, a group of up to about 60 values: `Z` and `P`
        // sit in the first word.
        return first.checked_shr(at as u32).unwrap_or(0) & mask;
    }
    window_run(window, at)
        .first()
        .map_or(0, |&word| word & mask)
}

/// Bits `at..at + 256` of a window, shifted down to bit 0; bits past the
/// window's end read as zero.
#[inline]
pub(crate) fn window_run(window: &[u64; WINDOW_WORDS], at: usize) -> PayloadRun {
    let [w0, w1, w2, w3, w4] = *window;
    if at < 64 {
        // The common case: the run starts in the first word.
        // ss-lint: allow(truncating-cast) -- at < 64
        let phase = at as u32;
        // ss-lint: allow(shift-bound) -- phase = at < 64, so 63 - phase is 0..=63
        let shift = |lo: u64, hi: u64| lo >> phase | (hi << 1) << (63 - phase);
        return [shift(w0, w1), shift(w1, w2), shift(w2, w3), shift(w3, w4)];
    }
    let (first, phase) = (at / 64, (at % 64) as u32);
    let word = |i: usize| window.get(first + i).copied().unwrap_or(0);
    let mut run = [0u64; 4];
    for (i, out) in run.iter_mut().enumerate() {
        // ss-lint: allow(shift-bound) -- phase = at % 64 is 0..=63, so 63 - phase is 0..=63
        *out = word(i) >> phase | (word(i + 1) << 1) << (63 - phase);
    }
    run
}

/// A mask of the low `bits` bits, all 64 from 64 up.
#[inline]
fn low_bits(bits: usize) -> u64 {
    // ss-lint: allow(truncating-cast) -- min(64) bounds the value
    u64::MAX.checked_shr(64 - bits.min(64) as u32).unwrap_or(0)
}

/// The expansion table: entry `z`, for eight slots whose `Z` bits are
/// `z`, holds in byte `j` the field slot `j` takes — its rank among the
/// eight slots' payloads — or `16 +` that rank for a zero slot, which
/// reads the all-zero upper half of [`expand16`]'s field table. It is the
/// software form of the expander's per-slot multiplexers.
static EXPAND: [u64; 256] = expand_table();

const fn expand_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut z = 0;
    while z < 256 {
        let (mut entry, mut rank, mut j) = (0u64, 0u64, 0);
        while j < 8 {
            let zero = (z >> j) & 1 == 1;
            entry |= (if zero { 16 + rank } else { rank }) << (8 * j);
            rank += !zero as u64;
            j += 1;
        }
        table[z] = entry;
        z += 1;
    }
    table
}

/// The low bit of each 16-bit lane of a word.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;

/// The high bit of each 16-bit lane of a word.
const LANE_MSB: u64 = 0x8000_8000_8000_8000;

/// Decodes one block of up to [`BLOCK`] group slots into `out`: the
/// software form of the paper's L2 expander (§3).
///
/// `payload` holds the block's fields, `p` bits each, back to back from
/// bit 0. Bit `j` of `zeros` marks slot `j` as a zero, which carries no
/// field; every other slot takes the next field, decoded as
/// sign-magnitude (sign at the LSB) when `signed` and as is otherwise.
/// Exactly `out.len()` slots (at most [`BLOCK`]) are written. A payload
/// slot that decodes to zero is not refused here but reported in
/// [`Expanded::zero_payload`]; the debug-build payload checks run only
/// when there is none. `first_index` is the stream index of `out[0]`,
/// for those checks.
///
/// One `match` picks the extractor for `p` and the signedness,
/// monomorphised for each, so the sixteen fields sit at constant offsets
/// and decode four to a word; the expansion from `zeros` is two table
/// lookups and a load per slot, without a branch. A width outside
/// `1..=16`, which no container holds, gives `None`.
#[inline]
pub(crate) fn expand_block(
    p: u8,
    signed: bool,
    zeros: u32,
    payload: &PayloadRun,
    first_index: usize,
    out: &mut [i32],
) -> Option<Expanded> {
    if signed {
        expand_at::<true>(p, zeros, payload, first_index, out)
    } else {
        expand_at::<false>(p, zeros, payload, first_index, out)
    }
}

/// [`expand_block`] in a container of the given signedness.
#[inline(always)]
fn expand_at<const SIGNED: bool>(
    p: u8,
    zeros: u32,
    payload: &PayloadRun,
    first_index: usize,
    out: &mut [i32],
) -> Option<Expanded> {
    Some(match p {
        1 => expand::<1, SIGNED>(zeros, payload, first_index, out),
        2 => expand::<2, SIGNED>(zeros, payload, first_index, out),
        3 => expand::<3, SIGNED>(zeros, payload, first_index, out),
        4 => expand::<4, SIGNED>(zeros, payload, first_index, out),
        5 => expand::<5, SIGNED>(zeros, payload, first_index, out),
        6 => expand::<6, SIGNED>(zeros, payload, first_index, out),
        7 => expand::<7, SIGNED>(zeros, payload, first_index, out),
        8 => expand::<8, SIGNED>(zeros, payload, first_index, out),
        9 => expand::<9, SIGNED>(zeros, payload, first_index, out),
        10 => expand::<10, SIGNED>(zeros, payload, first_index, out),
        11 => expand::<11, SIGNED>(zeros, payload, first_index, out),
        12 => expand::<12, SIGNED>(zeros, payload, first_index, out),
        13 => expand::<13, SIGNED>(zeros, payload, first_index, out),
        14 => expand::<14, SIGNED>(zeros, payload, first_index, out),
        15 => expand::<15, SIGNED>(zeros, payload, first_index, out),
        16 => expand::<16, SIGNED>(zeros, payload, first_index, out),
        _ => return None,
    })
}

/// [`expand_block`] at width `P`: a whole block expands in place, a
/// shorter one (a group's tail) through a scratch block whose extra slots
/// count as zeros.
#[inline(always)]
fn expand<const P: usize, const SIGNED: bool>(
    zeros: u32,
    payload: &PayloadRun,
    first_index: usize,
    out: &mut [i32],
) -> Expanded {
    // ss-lint: allow(truncating-cast) -- out.len() <= BLOCK = 16
    let zeros = (zeros | u32::MAX.checked_shl(out.len() as u32).unwrap_or(0)) & 0xFFFF;
    let (payloads, zero_payload) = match <&mut [i32; BLOCK]>::try_from(&mut *out) {
        Ok(block) => expand16::<P, SIGNED>(zeros, payload, block),
        Err(_) => {
            let mut block = [0; BLOCK];
            let expanded = expand16::<P, SIGNED>(zeros, payload, &mut block);
            for (slot, &v) in out.iter_mut().zip(&block) {
                *slot = v;
            }
            expanded
        }
    };
    if cfg!(debug_assertions) && !zero_payload {
        let mut field = 0;
        for (j, &v) in out.iter().enumerate() {
            if zeros >> j & 1 == 0 {
                let raw = field_at::<P>(payload, field * P);
                // ss-lint: allow(truncating-cast) -- P is 1..=16
                checked::canonical_payload(u64::from(raw), v, P as u8, SIGNED, first_index + j);
                field += 1;
            }
        }
    }
    Expanded {
        payloads,
        zero_payload,
    }
}

/// The kernel behind [`expand_block`], for one whole block at width `P`.
/// Returns the block's payload count and whether one of its payloads
/// decoded to zero.
///
/// The sixteen fields are cut into 16-bit lanes, four to a word, at
/// offsets that are constants for a given `P`, and decoded and tested
/// four at a time within each word: sign-magnitude decodes as
/// `(mag ^ m) - m` with `m` all ones in a negative lane, and a zero
/// magnitude shows in a lane's high bit after subtracting one from every
/// lane. All sixteen are cut and decoded whether or not the block holds
/// that many: a field past the payload run holds stray bits, the zero
/// test masks it off, and only a zero slot ever indexes past the run, into
/// the zero half of the field table. A negative zero carries into the lane
/// above when it is decoded, but it is a zero payload itself, which the
/// test (on magnitudes, before the decode) refuses.
#[inline(never)]
fn expand16<const P: usize, const SIGNED: bool>(
    zeros: u32,
    payload: &PayloadRun,
    out: &mut [i32; BLOCK],
) -> (usize, bool) {
    // The upper eight slots rank after the lower eight's payloads, so the
    // upper entry's count is the block's.
    let low = EXPAND.get((zeros & 0xFF) as usize).copied().unwrap_or(0);
    let high = EXPAND
        .get((zeros >> 8 & 0xFF) as usize)
        .copied()
        .unwrap_or(0)
        .wrapping_add(eight_payloads(low) * 0x0101_0101_0101_0101);
    let payloads = eight_payloads(high);
    let lanes = [
        lanes4::<P>(payload, 0),
        lanes4::<P>(payload, 4),
        lanes4::<P>(payload, 8),
        lanes4::<P>(payload, 12),
    ];
    let mut fields = [0u16; 2 * BLOCK];
    let mut zero_lanes = 0u64;
    for (k, (&x, four)) in lanes.iter().zip(fields.chunks_exact_mut(4)).enumerate() {
        let (magnitudes, values) = if SIGNED {
            let mag = x >> 1 & (LANE_MSB - LANE_LSB);
            let sign = x & LANE_LSB;
            // `sign * 0xFFFF` is `m` per lane, and `+ sign` is `- m`.
            (mag, (mag ^ sign.wrapping_mul(0xFFFF)).wrapping_add(sign))
        } else {
            (x, x)
        };
        // Lanes past the payload run are masked off.
        let live = payloads.saturating_sub(4 * k as u64).min(4);
        // ss-lint: allow(truncating-cast) -- live <= 4, so the shift is at most 64
        let live = u64::MAX.checked_shr(64 - 16 * live as u32).unwrap_or(0);
        zero_lanes |= magnitudes.wrapping_sub(LANE_LSB) & !magnitudes & LANE_MSB & live;
        for (i, field) in four.iter_mut().enumerate() {
            // ss-lint: allow(shift-bound) -- chunks_exact(4) bounds i < 4, so the shift is at most 48
            let lane = values >> (16 * i);
            // ss-lint: allow(truncating-cast) -- one 16-bit lane
            *field = lane as u16;
        }
    }
    let sources = [low.to_le_bytes(), high.to_le_bytes()];
    for (slot, &source) in out.iter_mut().zip(sources.as_flattened()) {
        let field = fields
            .get(usize::from(source) % (2 * BLOCK))
            .copied()
            .unwrap_or(0);
        // ss-lint: allow(truncating-cast) -- a signed container's lanes are i16 values
        let signed = field as i16;
        *slot = if SIGNED {
            i32::from(signed)
        } else {
            i32::from(field)
        };
    }
    // ss-lint: allow(truncating-cast) -- at most 16
    (payloads as usize, zero_lanes != 0)
}

/// Fields `first..first + 4` of a payload run at width `P`, one per
/// 16-bit lane.
#[inline(always)]
fn lanes4<const P: usize>(payload: &PayloadRun, first: usize) -> u64 {
    u64::from(field_at::<P>(payload, first * P))
        | u64::from(field_at::<P>(payload, (first + 1) * P)) << 16
        | u64::from(field_at::<P>(payload, (first + 2) * P)) << 32
        | u64::from(field_at::<P>(payload, (first + 3) * P)) << 48
}

/// The payload count of the eight slots an [`EXPAND`] entry (or one with
/// ranks raised by a constant) describes: the last slot's rank, plus one
/// if it is a payload slot.
#[inline(always)]
fn eight_payloads(entry: u64) -> u64 {
    let last = entry >> 56;
    (last & 15) + (1 - (last >> 4 & 1))
}

/// The `P`-bit field at bit `at` of a payload run. With `P` and the field
/// number known, `at` is a constant, and so are both shifts.
#[inline(always)]
fn field_at<const P: usize>(payload: &PayloadRun, at: usize) -> u32 {
    let (word, phase) = (at / 64, at % 64);
    let lo = payload.get(word).copied().unwrap_or(0) >> phase;
    let hi = if phase + P > 64 {
        // ss-lint: allow(shift-bound) -- phase + P > 64 with P <= 16 puts phase in 49..=63, so 64 - phase is 1..=15
        payload.get(word + 1).copied().unwrap_or(0) << (64 - phase)
    } else {
        0
    };
    // ss-lint: allow(shift-bound) -- P is 1..=16
    // ss-lint: allow(truncating-cast) -- masked to P <= 16 bits
    ((lo | hi) & ((1u64 << P) - 1)) as u32
}

/// Decodes one DPRed block of up to [`BLOCK`] slots into `out`: every
/// slot takes the next `p`-bit field of `payload`, decoded as
/// sign-magnitude when `signed` (a negative zero decodes to zero) and as
/// is otherwise. The extractor is [`expand_block`]'s, without `Z`. A
/// width outside `1..=16` gives `false` and writes nothing.
#[inline]
pub(crate) fn cut_block(p: u8, signed: bool, payload: &PayloadRun, out: &mut [i32]) -> bool {
    if signed {
        cut_at::<true>(p, payload, out)
    } else {
        cut_at::<false>(p, payload, out)
    }
}

/// [`cut_block`] in a container of the given signedness.
#[inline(always)]
fn cut_at<const SIGNED: bool>(p: u8, payload: &PayloadRun, out: &mut [i32]) -> bool {
    match p {
        1 => cut16::<1, SIGNED>(payload, out),
        2 => cut16::<2, SIGNED>(payload, out),
        3 => cut16::<3, SIGNED>(payload, out),
        4 => cut16::<4, SIGNED>(payload, out),
        5 => cut16::<5, SIGNED>(payload, out),
        6 => cut16::<6, SIGNED>(payload, out),
        7 => cut16::<7, SIGNED>(payload, out),
        8 => cut16::<8, SIGNED>(payload, out),
        9 => cut16::<9, SIGNED>(payload, out),
        10 => cut16::<10, SIGNED>(payload, out),
        11 => cut16::<11, SIGNED>(payload, out),
        12 => cut16::<12, SIGNED>(payload, out),
        13 => cut16::<13, SIGNED>(payload, out),
        14 => cut16::<14, SIGNED>(payload, out),
        15 => cut16::<15, SIGNED>(payload, out),
        16 => cut16::<16, SIGNED>(payload, out),
        _ => return false,
    }
    true
}

/// The kernel behind [`cut_block`] at width `P`: the sixteen fields cut
/// into 16-bit lanes at constant offsets and decoded four to a word.
#[inline(never)]
fn cut16<const P: usize, const SIGNED: bool>(payload: &PayloadRun, out: &mut [i32]) {
    let mut lanes = [
        lanes4::<P>(payload, 0),
        lanes4::<P>(payload, 4),
        lanes4::<P>(payload, 8),
        lanes4::<P>(payload, 12),
    ];
    if SIGNED {
        for x in &mut lanes {
            *x = sign_magnitude_lanes(*x);
        }
    }
    store_lanes::<SIGNED>(&lanes, out);
}

/// Sixteen 16-bit lanes, four to a word: lane `j % 4` of word `j / 4`
/// holds slot `j`.
pub(crate) type Lanes = [u64; 4];

/// Decodes four sign-magnitude lanes (sign at the LSB, magnitude below
/// 2^15) to two's complement. A negative zero decodes to zero: its sign
/// is dropped, so no lane carries into the one above.
#[inline(always)]
fn sign_magnitude_lanes(x: u64) -> u64 {
    let mag = x >> 1 & (LANE_MSB - LANE_LSB);
    negate_lanes(mag, x & nonzero_lanes(mag))
}

/// `mag` with every lane whose bit in `sign` (a lane LSB) is set negated,
/// lane by lane; `sign` must be clear in zero lanes.
#[inline(always)]
fn negate_lanes(mag: u64, sign: u64) -> u64 {
    // `sign * 0xFFFF` is all ones in a negative lane, and `+ sign` adds
    // the one that completes the two's complement.
    (mag ^ sign.wrapping_mul(0xFFFF)).wrapping_add(sign)
}

/// The LSB of each lane whose value (below 2^15) is not zero. A lane of
/// 2^15 or more gives garbage in its own and higher lanes, but no panic.
#[inline(always)]
fn nonzero_lanes(mag: u64) -> u64 {
    // A lane below 2^15 plus 0x7FFF reaches bit 15 iff it is not zero,
    // and never carries out of the lane.
    mag.wrapping_add(LANE_MSB - LANE_LSB) >> 15 & LANE_LSB
}

/// Writes the first `out.len()` (at most [`BLOCK`]) lanes to `out`, as
/// `i16` values when `SIGNED` and as `u16` values otherwise.
#[inline(always)]
fn store_lanes<const SIGNED: bool>(lanes: &Lanes, out: &mut [i32]) {
    let mut block = [0u16; BLOCK];
    for (four, &x) in block.chunks_exact_mut(4).zip(lanes) {
        for (i, lane) in four.iter_mut().enumerate() {
            // ss-lint: allow(shift-bound) -- chunks_exact(4) bounds i < 4, so the shift is at most 48
            // ss-lint: allow(truncating-cast) -- one 16-bit lane
            *lane = (x >> (16 * i)) as u16;
        }
    }
    for (slot, &lane) in out.iter_mut().zip(&block) {
        // ss-lint: allow(truncating-cast) -- a signed container's lanes are i16 values
        let signed = lane as i16;
        *slot = if SIGNED {
            i32::from(signed)
        } else {
            i32::from(lane)
        };
    }
}

/// A mask of the low `bits` (at most 16) bits of every lane.
#[inline(always)]
fn lane_low_bits(bits: u32) -> u64 {
    // ss-lint: allow(shift-bound) -- min(16) bounds the shift
    ((1u64 << bits.min(16)) - 1) * LANE_LSB
}

/// Transposes a 16×16 bit matrix held as [`Lanes`]: bit `c` of lane `r`
/// becomes bit `r` of lane `c`. Four delta swaps, each exchanging one
/// off-diagonal block with its mirror in every diagonal block at once:
/// 8×8 blocks between words 0, 2 and 1, 3; 4×4 blocks between words 0, 1
/// and 2, 3; 2×2 and single bits between the lanes of each word. A
/// transpose is its own inverse, so it turns AdaBits's bit planes into
/// magnitude lanes and back.
#[inline(always)]
fn transpose16([a, b, c, d]: Lanes) -> Lanes {
    let (a, c) = swap_words(a, c, 8, 0x00FF_00FF_00FF_00FF);
    let (b, d) = swap_words(b, d, 8, 0x00FF_00FF_00FF_00FF);
    let (a, b) = swap_words(a, b, 4, 0x0F0F_0F0F_0F0F_0F0F);
    let (c, d) = swap_words(c, d, 4, 0x0F0F_0F0F_0F0F_0F0F);
    let within = |x: u64| {
        // Lanes r and r + 2: bits 2-3 of each nibble of the lower lane
        // against bits 0-1 of the upper one, 30 places above.
        let x = swap_bits(x, 30, 0x0000_0000_CCCC_CCCC);
        // Lanes r and r + 1: odd bits of the lower lane against even
        // bits of the upper one, 15 places above.
        swap_bits(x, 15, 0x0000_AAAA_0000_AAAA)
    };
    [within(a), within(b), within(c), within(d)]
}

/// Exchanges the bits of `lo` selected by `mask << by` with the bits of
/// `hi` selected by `mask`.
#[inline(always)]
fn swap_words(lo: u64, hi: u64, by: u32, mask: u64) -> (u64, u64) {
    // ss-lint: allow(shift-bound) -- callers pass by = 4 or 8
    let t = (lo >> by ^ hi) & mask;
    // ss-lint: allow(shift-bound) -- callers pass by = 4 or 8
    (lo ^ t << by, hi ^ t)
}

/// Exchanges the bits of `x` selected by `mask` with the bits `by`
/// places above them.
#[inline(always)]
fn swap_bits(x: u64, by: u32, mask: u64) -> u64 {
    // ss-lint: allow(shift-bound) -- callers pass by = 15 or 30
    let t = (x >> by ^ x) & mask;
    // ss-lint: allow(shift-bound) -- callers pass by = 15 or 30
    x ^ t ^ t << by
}

/// Decodes one AdaBits group of `out.len()` (1 to [`BLOCK`]) slots into
/// `out`, returning the OR of its magnitudes.
///
/// `planes` holds the group's `p` magnitude planes, most significant
/// first, `out.len()` bits each, back to back from bit 0: bit `j` of
/// plane `i` is bit `p - 1 - i` of slot `j`'s magnitude. Bit `j` of
/// `signs` negates slot `j` when `signed` (a negative zero stays zero).
/// The planes are cut into lanes at constant offsets by an extractor
/// monomorphised per group length, plane `i` into lane `15 - i`, so that
/// [`transpose16`] leaves each slot's magnitude in its own lane, shifted
/// up by `16 - p`, with the bits of lanes past the last plane below it.
/// The caller checks the magnitudes against the container before it
/// trusts a signed result: a lane above 2^15 does not decode. A length
/// outside `1..=16`, or a width outside `1..=16`, gives `None` and writes
/// nothing.
#[inline]
pub(crate) fn planes_block(
    p: u8,
    signed: bool,
    signs: u32,
    planes: &PayloadRun,
    out: &mut [i32],
) -> Option<u32> {
    let shift = 16u32.checked_sub(u32::from(p)).filter(|_| p > 0)?;
    let rows = match out.len() {
        1 => plane_rows::<1>(planes),
        2 => plane_rows::<2>(planes),
        3 => plane_rows::<3>(planes),
        4 => plane_rows::<4>(planes),
        5 => plane_rows::<5>(planes),
        6 => plane_rows::<6>(planes),
        7 => plane_rows::<7>(planes),
        8 => plane_rows::<8>(planes),
        9 => plane_rows::<9>(planes),
        10 => plane_rows::<10>(planes),
        11 => plane_rows::<11>(planes),
        12 => plane_rows::<12>(planes),
        13 => plane_rows::<13>(planes),
        14 => plane_rows::<14>(planes),
        15 => plane_rows::<15>(planes),
        16 => plane_rows::<16>(planes),
        _ => return None,
    };
    let keep = lane_low_bits(u32::from(p));
    let mut lanes = transpose16(rows);
    let mut or = 0u64;
    for (k, lane) in lanes.iter_mut().enumerate() {
        let mag = *lane >> shift & keep;
        or |= mag;
        *lane = mag;
        if signed {
            // ss-lint: allow(truncating-cast) -- k < 4 (four words), so the shift is at most 12
            let nibble = u64::from(signs >> (4 * k as u32) & 0xF);
            *lane = negate_lanes(mag, spread_nibble(nibble) & nonzero_lanes(mag));
        }
    }
    if signed {
        store_lanes::<true>(&lanes, out);
    } else {
        store_lanes::<false>(&lanes, out);
    }
    let or = or | or >> 32;
    // ss-lint: allow(truncating-cast) -- masked to one 16-bit lane
    Some(((or | or >> 16) & 0xFFFF) as u32)
}

/// Moves bit `i` of a four-bit `nibble` to the LSB of lane `i`.
#[inline(always)]
fn spread_nibble(nibble: u64) -> u64 {
    // The four copies sit 15 bits apart (bits 0-3, 15-18, 30-33, 45-48),
    // so the product carries nothing, and copy `i`'s bit `i` lands on
    // bit 16 i.
    nibble.wrapping_mul(0x0000_2000_4000_8001) & LANE_LSB
}

/// Fields `0..16` of a run at width `LEN`, field `i` in lane `15 - i`:
/// the planes of an AdaBits group of `LEN` values, the first (most
/// significant) plane in the top lane.
#[inline(never)]
fn plane_rows<const LEN: usize>(planes: &PayloadRun) -> Lanes {
    let mut rows = [0u64; 4];
    for i in 0..BLOCK {
        let r = BLOCK - 1 - i;
        if let Some(word) = rows.get_mut(r / 4) {
            // ss-lint: allow(shift-bound) -- r % 4 < 4, so the shift is at most 48
            *word |= u64::from(field_at::<LEN>(planes, i * LEN)) << (16 * (r % 4));
        }
    }
    rows
}

/// The inverse of [`planes_block`]'s transpose for one block of up to
/// [`BLOCK`] values whose magnitudes are below `2^p`: lane `15 - i` of
/// the result holds plane `i` (bit `p - 1 - i` of every magnitude, slot
/// `j` at bit `j`) for `i < p`, and the lanes below are zero.
#[inline]
pub(crate) fn magnitude_planes(p: u8, values: &[i32]) -> Lanes {
    let shift = 16u32.saturating_sub(u32::from(p));
    let mut lanes = [0u64; 4];
    for (word, four) in lanes.iter_mut().zip(values.chunks(4)) {
        for (i, &v) in four.iter().enumerate() {
            // ss-lint: allow(shift-bound) -- chunks(4) bounds i < 4, and shift = 16 - p is below 16
            *word |= u64::from(v.unsigned_abs()) << shift << (16 * i);
        }
    }
    transpose16(lanes)
}

/// Lane `r` (0 to 15) of [`Lanes`].
#[inline(always)]
pub(crate) fn lane(lanes: &Lanes, r: usize) -> u64 {
    // ss-lint: allow(shift-bound) -- r % 4 < 4, so the shift is at most 48
    lanes
        .get(r / 4)
        .map_or(0, |&word| word >> (16 * (r % 4)) & 0xFFFF)
}

/// Words one [`pack_block`] fills: sixteen fields of up to 17 bits.
pub(crate) const PACKED_WORDS: usize = 5;

/// Packs sixteen fields back to back at `p` bits each, field 0 from bit
/// 0: the encode-side mirror of the extractor. A packer monomorphised per
/// width puts every field at a constant offset. Fields must be below
/// `2^p`; a field past the ones a caller keeps may hold anything, since
/// it lands only above them. A width outside `1..=17` (a Delta group
/// in a 16-bit container reaches 17) gives `None`.
#[inline]
pub(crate) fn pack_block(p: u8, fields: &[u64; BLOCK]) -> Option<[u64; PACKED_WORDS]> {
    Some(match p {
        1 => pack16::<1>(fields),
        2 => pack16::<2>(fields),
        3 => pack16::<3>(fields),
        4 => pack16::<4>(fields),
        5 => pack16::<5>(fields),
        6 => pack16::<6>(fields),
        7 => pack16::<7>(fields),
        8 => pack16::<8>(fields),
        9 => pack16::<9>(fields),
        10 => pack16::<10>(fields),
        11 => pack16::<11>(fields),
        12 => pack16::<12>(fields),
        13 => pack16::<13>(fields),
        14 => pack16::<14>(fields),
        15 => pack16::<15>(fields),
        16 => pack16::<16>(fields),
        17 => pack16::<17>(fields),
        _ => return None,
    })
}

/// [`pack_block`] at width `P`.
#[inline(never)]
fn pack16<const P: usize>(fields: &[u64; BLOCK]) -> [u64; PACKED_WORDS] {
    let mut out = [0u64; PACKED_WORDS];
    for (i, &field) in fields.iter().enumerate() {
        let (word, phase) = (i * P / 64, i * P % 64);
        if let Some(w) = out.get_mut(word) {
            // ss-lint: allow(shift-bound) -- phase = i * P % 64 is 0..=63
            *w |= field << phase;
        }
        if phase + P > 64 {
            if let Some(w) = out.get_mut(word + 1) {
                // ss-lint: allow(shift-bound) -- phase + P > 64 with P <= 17 puts phase in 48..=63, so 64 - phase is 1..=16
                *w |= field >> (64 - phase);
            }
        }
    }
    out
}

/// Words the longest group any layout writes fills: a 256-value Delta
/// group in a 16-bit container (256 `Z` bits, a 17-bit first value, a
/// 5-bit `P` and 255 deltas of 17 bits).
const GROUP_WORDS: usize = (MAX_GROUP + 17 + 5 + (MAX_GROUP - 1) * 17).div_ceil(64);

/// A run of groups' bits, assembled in stream order and then appended to
/// the stream by one [`BitWriter::write_words`] call: the encode side of
/// the one-window read. It holds two of the longest groups, so a run is
/// stored once it fills the first half ([`GroupBits::is_full`]) and the
/// next group always fits.
///
/// [`BitWriter::write_words`]: ss_bitio::BitWriter::write_words
pub(crate) struct GroupBits {
    /// Whole words assembled so far; words at and past `full` are stale.
    words: [u64; 2 * GROUP_WORDS],
    full: usize,
    /// The partial word and how many of its bits are filled (below 64).
    acc: u64,
    acc_bits: u32,
}

impl GroupBits {
    pub(crate) fn new() -> Self {
        Self {
            words: [0; 2 * GROUP_WORDS],
            full: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Starts the next run.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.full = 0;
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Whether the run has used the room of one longest group, so that
    /// it must be stored before the next group is assembled.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.full >= GROUP_WORDS
    }

    /// Appends the low `bits` (at most 64) bits of `value`, which must be
    /// below `2^bits`.
    #[inline]
    pub(crate) fn put(&mut self, value: u64, bits: u32) {
        // ss-lint: allow(shift-bound) -- acc_bits < 64 between calls (the spill below keeps it there)
        self.acc |= value << self.acc_bits;
        let filled = self.acc_bits + bits;
        if filled >= 64 {
            if let Some(word) = self.words.get_mut(self.full) {
                *word = self.acc;
            }
            self.full += 1;
            // The bits of `value` that did not fit; none when the partial
            // word was empty.
            self.acc = value.checked_shr(64 - self.acc_bits).unwrap_or(0);
            self.acc_bits = filled - 64;
        } else {
            self.acc_bits = filled;
        }
    }

    /// Appends the first `bits` bits of `run`, LSB-first, word by word.
    #[inline]
    pub(crate) fn put_run(&mut self, run: &[u64], bits: usize) {
        for (i, &word) in run.iter().enumerate() {
            let take = bits.saturating_sub(64 * i).min(64);
            if take == 0 {
                break;
            }
            // ss-lint: allow(truncating-cast) -- min(64) bounds the value
            self.put(word & low_bits(take), take as u32);
        }
    }

    /// Appends the first `n` of `fields` (each below `2^p`) at `p` bits
    /// each, sixteen at a time through [`pack_block`]; the fields past
    /// `n` may hold anything. A width outside `1..=17` with fields to
    /// pack, which no layout writes, gives `None`.
    #[inline]
    pub(crate) fn put_fields(&mut self, p: u8, fields: &[u64; MAX_GROUP], n: usize) -> Option<()> {
        let (blocks, _) = fields.as_chunks::<BLOCK>();
        for (b, block) in blocks.iter().enumerate().take(n.div_ceil(BLOCK)) {
            let count = (n - b * BLOCK).min(BLOCK);
            self.put_run(&pack_block(p, block)?, count * usize::from(p));
        }
        Some(())
    }

    /// The assembled run: its words, the last one partial, and its length
    /// in bits.
    #[inline]
    pub(crate) fn finish(&mut self) -> (&[u64], u64) {
        let bits = self.full as u64 * 64 + u64::from(self.acc_bits);
        let mut used = self.full;
        if self.acc_bits > 0 {
            if let Some(word) = self.words.get_mut(used) {
                *word = self.acc;
            }
            used += 1;
        }
        (self.words.get(..used).unwrap_or(&[]), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::width;

    fn scalar_zero_bitmap(values: &[i32]) -> [u64; 4] {
        let mut z = [0u64; 4];
        for (i, &v) in values.iter().enumerate() {
            if v == 0 {
                z[i / 64] |= 1u64 << (i % 64);
            }
        }
        z
    }

    #[test]
    fn scan_matches_scalar_width_and_bitmap() {
        let groups: [&[i32]; 6] = [
            &[],
            &[0, 0, 0, 0],
            &[3, 0, -1, 0, 0, 0, 200, -7],
            &[-32768, 32767],
            &[1; 17],
            &[0, 5, 0, 0, 9, 0, 0, 0, 0, 0, 0, 1],
        ];
        for g in groups {
            let scan = scan_group(g, Signedness::Signed);
            assert_eq!(
                scan.width(),
                width::group_width_scalar(g, Signedness::Signed),
                "width of {g:?}"
            );
            assert_eq!(scan.z, scalar_zero_bitmap(g), "bitmap of {g:?}");
            assert_eq!(
                u64::from(scan.zero_count()),
                g.iter().filter(|&&v| v == 0).count() as u64
            );
        }
    }

    #[test]
    fn scan_covers_full_256_value_groups() {
        let values: Vec<i32> = (0..256)
            .map(|i| if i % 3 == 0 { 0 } else { i - 128 })
            .collect();
        let scan = scan_group(&values, Signedness::Signed);
        assert_eq!(scan.z, scalar_zero_bitmap(&values));
        assert_eq!(
            scan.width(),
            width::group_width_scalar(&values, Signedness::Signed)
        );
    }

    #[test]
    fn zeros_do_not_assert_the_sign_wire() {
        let scan = scan_group(&[0, 0, 0], Signedness::Signed);
        assert_eq!(scan.or, 0);
        assert_eq!(scan.width(), 0);
        assert_eq!(scan.encoded_width(), 0);
        assert_eq!(scan.zero_count(), 3);
    }

    #[test]
    fn unsigned_values_stored_verbatim() {
        let scan = scan_group(&[0b0001, 0b0100], Signedness::Unsigned);
        assert_eq!(scan.or, 0b0101);
        assert_eq!(scan.width(), 3);
    }

    #[test]
    fn gather_compacts_nonzeros_in_order() {
        let mut out = [0u64; MAX_GROUP];
        let n = gather_nonzero(&[3, 0, -1, 0, 0, 0, 200, -7], Signedness::Signed, &mut out);
        assert_eq!(n, 4);
        let expect: Vec<u64> = [3, -1, 200, -7]
            .iter()
            .map(|&v: &i32| u64::from(width::to_sign_magnitude(v)))
            .collect();
        assert_eq!(&out[..n], expect.as_slice());
    }

    #[test]
    fn scan_gather_equals_the_two_kernels() {
        let groups: [&[i32]; 5] = [
            &[],
            &[0; 16],
            &[3, 0, -1, 0, 0, 0, 200, -7],
            &[-32768, 32767, 0, 1],
            &[7; 130],
        ];
        for signedness in [Signedness::Unsigned, Signedness::Signed] {
            for g in groups {
                if signedness == Signedness::Unsigned && g.iter().any(|&v| v < 0) {
                    continue;
                }
                let mut fused = [0u64; MAX_GROUP];
                let mut separate = [0u64; MAX_GROUP];
                let (scan, n) = scan_gather(g, signedness, &mut fused);
                assert_eq!(scan, scan_group(g, signedness), "{g:?} ({signedness:?})");
                let m = gather_nonzero(g, signedness, &mut separate);
                assert_eq!(n, m, "{g:?}");
                assert_eq!(fused[..n], separate[..m], "{g:?}");
            }
        }
    }

    #[test]
    fn zero_bitmap64_matches_scalar() {
        let values = [3, 0, -1, 0, 0, 0, 200, -7, 0];
        assert_eq!(zero_bitmap64(&values), scalar_zero_bitmap(&values)[0]);
        assert_eq!(zero_bitmap64(&[]), 0);
        assert_eq!(zero_bitmap64(&[0; 64]), u64::MAX);
    }

    #[test]
    fn gather_handles_all_zero_and_all_nonzero() {
        let mut out = [0u64; MAX_GROUP];
        assert_eq!(gather_nonzero(&[0; 16], Signedness::Signed, &mut out), 0);
        let n = gather_nonzero(&[7; 16], Signedness::Unsigned, &mut out);
        assert_eq!(n, 16);
        assert!(out[..n].iter().all(|&f| f == 7));
    }
}
