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
//!   into a dense field buffer for `BitWriter::pack_fields`, without a
//!   branch per value.
//!
//! The decode side mirrors the paper's L2 expander, which fills every
//! slot of a group in one step driven by `Z`:
//!
//! * `window_bitvec`, `window_field` and `window_run` cut a group's `Z`,
//!   `P` and payload out of one [`BitReader::window`] at offsets the
//!   group's length fixes.
//! * `expand_block` decodes up to 16 slots from a payload run. Its field
//!   extractor is monomorphised per width, so every field sits at a
//!   constant offset, and the expansion from `Z` is table-driven, without
//!   a branch.
//!
//! The scalar equivalents (`ss_tensor::width::group_width_scalar`, the
//! per-value loops retained in [`WidthDetector`](crate::WidthDetector))
//! stay in the tree as the differential-test oracle; the
//! `kernel_differential` suite pins these kernels against them.
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
