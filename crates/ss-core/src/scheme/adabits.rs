//! AdaBits-style bit-plane storage (Jin et al., "AdaBits: Neural Network
//! Quantization with Adaptive Bit-Widths", arXiv:1912.09666).
//!
//! AdaBits trains **one** model that runs at several bit-widths; the
//! lower-width variants are literal most-significant-bit prefixes of the
//! full-precision weights. This scheme gives that family a container:
//! each group stores its width prefix `P`, a sign plane (signed
//! containers only), and then `P` **bit-planes in MSB-first order** —
//! plane `k` holds bit `k` of every group member's magnitude. A width-`w`
//! serving variant is therefore a per-group stream *prefix*: keep the
//! first `min(P, w)` planes, drop the rest, and the remaining bits decode
//! to exactly the `w`-bit quantized values. [`AdaBitsScheme::truncated_bits`]
//! prices those variants without re-encoding.

use ss_bitio::BitReader;
use ss_tensor::{FixedType, Signedness, Tensor};

use crate::detector::WidthDetector;
use crate::framing::{bitvec, read_bitvec, GroupAt, GroupCost, GroupLayout, Scratch};
use crate::registry::SchemeId;
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{kernels, CodecError};

/// Bit-plane (MSB-first) group container for multi-width serving.
///
/// Registered as wire id 3 ([`SchemeId::ADABITS`]); the wire stream takes
/// the group size from the call or frame, and the struct's own group size
/// prices tensors (including the truncated serving variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaBitsScheme {
    group_size: usize,
}

impl AdaBitsScheme {
    /// Creates the scheme at the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256.
    #[must_use]
    pub const fn new(group_size: usize) -> Self {
        assert!(
            group_size >= 1 && group_size <= 256,
            "group size outside 1..=256"
        );
        Self { group_size }
    }

    /// The configured group size.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Magnitude width of a group: bits needed by the largest `|v|`,
    /// pinned to 1 for all-zero groups (the plane count must be non-zero
    /// so `P` stores `width - 1`).
    fn magnitude_width(group: &[i32]) -> u8 {
        let mut or = 0u32;
        for &v in group {
            or |= v.unsigned_abs();
        }
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        ((32 - or.leading_zeros()) as u8).max(1)
    }

    /// Off-chip bits of the width-`target` serving variant: each group
    /// keeps its prefix, sign plane, and only the first
    /// `min(P, target)` (most-significant) planes. `target` 0 prices the
    /// metadata-only skeleton; `target >= P` everywhere equals
    /// [`CompressionScheme::compressed_bits`].
    #[must_use]
    pub fn truncated_bits(&self, tensor: &Tensor, target: u8) -> u64 {
        let dtype = tensor.dtype();
        let det = WidthDetector::new(dtype.bits(), dtype.signedness());
        let prefix_bits = u64::from(det.prefix_bits());
        let sign_plane = match dtype.signedness() {
            Signedness::Signed => 1u64,
            Signedness::Unsigned => 0,
        };
        let mut bits = 0u64;
        for group in tensor.values().chunks(self.group_size) {
            let p = Self::magnitude_width(group);
            let kept = u64::from(p.min(target));
            bits += prefix_bits + (sign_plane + kept) * group.len() as u64;
        }
        bits
    }
}

impl Default for AdaBitsScheme {
    /// The paper's group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

/// Per group: the `P` width field, the sign plane (signed containers
/// only), then `P` magnitude planes, most significant first — plane `k`
/// holds bit `k` of every member's magnitude.
impl GroupLayout for AdaBitsScheme {
    const WIRE_ID: SchemeId = SchemeId::ADABITS;

    /// Planes cover magnitudes, which fit the container's bits.
    fn max_width(dtype: FixedType) -> u8 {
        dtype.bits()
    }

    /// The magnitudes are gathered into 16-bit lanes, 16 slots to a
    /// block, and one transpose per block turns them into bit planes
    /// (the inverse of the reader's); `P`, the sign plane and the planes,
    /// most significant first, join the run of groups being assembled.
    #[inline]
    fn write_group(s: &mut Scratch, group: &[i32]) -> Result<GroupCost, CodecError> {
        let p = Self::magnitude_width(group);
        s.put_width(p);
        if s.signed {
            s.group.put_run(&bitvec(group, |v| v < 0), group.len());
        }
        for (planes, block) in s.planes.iter_mut().zip(group.chunks(kernels::BLOCK)) {
            *planes = kernels::magnitude_planes(p, block);
        }
        // Plane `i` of the group is lane `15 - i` of every block's planes,
        // block by block; MSB-first, so dropping the tail of the group
        // payload drops least-significant planes.
        for i in 0..usize::from(p) {
            for (planes, start) in s
                .planes
                .iter()
                .zip((0..group.len()).step_by(kernels::BLOCK))
            {
                let len = (group.len() - start).min(kernels::BLOCK);
                // ss-lint: allow(truncating-cast) -- a block holds at most 16 values
                s.group.put(kernels::lane(planes, 15 - i), len as u32);
            }
        }
        Ok(GroupCost {
            width: p,
            elided: 0,
            payload_bits: (u64::from(s.signed) + u64::from(p)) * group.len() as u64,
        })
    }

    /// A group of up to 16 values is read from one [`BitReader::window`]:
    /// `P` and the sign plane from its first bits, then
    /// [`kernels::planes_block`] cuts the planes with an extractor
    /// monomorphised per group length and turns them into magnitudes with
    /// one 16×16 bit transpose, and one advance checks the whole group. A
    /// group the window does not cover replays [`read_fields_group`] from
    /// the group's start, so every value and every error is the
    /// per-field reader's: more than 16 values, a `P` past the layout's
    /// bound, a stream too short for the group, or, in a signed
    /// container, a magnitude outside it.
    #[inline]
    fn read_group(
        s: &mut Scratch,
        r: &mut BitReader<'_>,
        at: GroupAt,
        out: &mut [i32],
    ) -> Result<(), CodecError> {
        if at.len > kernels::BLOCK {
            return read_fields_group(s, r, at, out);
        }
        let window = r.window();
        let prefix_bits = s.prefix_bits() as usize;
        let field = kernels::window_field(&window, 0, s.prefix_bits());
        let Some(p) = s.width_within(field, s.max_width()) else {
            return read_fields_group(s, r, at, out);
        };
        let sign_bits = if s.signed { at.len } else { 0 };
        let header = prefix_bits + sign_bits;
        let bits = header as u64 + u64::from(p) * at.len as u64;
        if bits > r.remaining_bits() {
            return read_fields_group(s, r, at, out);
        }
        // ss-lint: allow(truncating-cast) -- at most 16 sign bits
        let signs = kernels::window_field(&window, prefix_bits, sign_bits as u32) as u32;
        let run = kernels::window_run(&window, header);
        let in_container = match kernels::planes_block(p, s.signed, signs, &run, out) {
            Some(or) => or >> s.dtype.magnitude_bits() == 0,
            None => false,
        };
        if !in_container {
            return read_fields_group(s, r, at, out);
        }
        r.advance(bits)?;
        Ok(())
    }
}

/// The per-field group reader: `P` through `read_bits`, the sign plane
/// and each magnitude plane through a group-length bit vector, ORed into
/// the magnitudes a bit at a time, then a range test per value. It reads
/// the groups the window does not cover, and names every error.
#[cold]
#[inline(never)]
fn read_fields_group(
    s: &mut Scratch,
    r: &mut BitReader<'_>,
    at: GroupAt,
    out: &mut [i32],
) -> Result<(), CodecError> {
    let (dtype, signed) = (s.dtype, s.signed);
    let p = s.read_width(r, at.index)?;
    if signed {
        read_bitvec(r, at.len, &mut s.bits)?;
    }
    let mags = s.mags.get_mut(..at.len).unwrap_or(&mut []);
    mags.fill(0);
    for k in (0..p).rev() {
        read_bitvec(r, at.len, &mut s.plane)?;
        for (chunk, &word) in mags.chunks_mut(64).zip(&s.plane) {
            for (i, mag) in chunk.iter_mut().enumerate() {
                // ss-lint: allow(truncating-cast) -- masked to one bit
                *mag |= ((word >> i) as u32 & 1) << k;
            }
        }
    }
    let slots = out.chunks_mut(64);
    for (((c, chunk), &negs), slots) in mags.chunks(64).enumerate().zip(&s.bits).zip(slots) {
        for (i, (&mag, slot)) in chunk.iter().zip(slots).enumerate() {
            // ss-lint: allow(truncating-cast) -- magnitudes are at most dtype.bits() <= 16 bits
            let mag = mag as i32;
            let v = if signed && negs >> i & 1 == 1 {
                -mag
            } else {
                mag
            };
            if !dtype.contains(v) {
                return Err(CodecError::CorruptValue {
                    index: at.first_value + c * 64 + i,
                    value: v,
                });
            }
            *slot = v;
        }
    }
    Ok(())
}

impl CompressionScheme for AdaBitsScheme {
    fn name(&self) -> &str {
        "AdaBits"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        self.truncated_bits(tensor, u8::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::wire;
    use ss_tensor::{FixedType, Shape};

    fn t(dtype: FixedType, vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), dtype, vals).unwrap()
    }

    fn mixed(n: usize, seed: u64) -> Vec<i32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as i32;
                if r % 4 == 0 {
                    0
                } else {
                    (r % 4000) - 2000
                }
            })
            .collect()
    }

    fn roundtrip(d: &AdaBitsScheme, tensor: &Tensor) {
        let (bytes, bits) = wire::encode(d, tensor, d.group_size());
        let back = wire::decode(d, &bytes, bits, tensor, d.group_size()).unwrap();
        assert_eq!(back, tensor.values());
    }

    #[test]
    fn roundtrip_signed_and_unsigned() {
        roundtrip(&AdaBitsScheme::default(), &t(FixedType::I16, mixed(500, 7)));
        let vals: Vec<i32> = (0..41).map(|i| (i * 57) % 256).collect();
        roundtrip(&AdaBitsScheme::new(16), &t(FixedType::U8, vals));
    }

    #[test]
    fn roundtrip_groups_wider_than_a_word() {
        // Plane packing spans multiple u64 words at group sizes > 64.
        roundtrip(&AdaBitsScheme::new(100), &t(FixedType::I16, mixed(350, 3)));
    }

    #[test]
    fn accounting_matches_encoding() {
        let tensor = t(FixedType::I16, mixed(333, 5));
        let d = AdaBitsScheme::default();
        let (_, bits) = wire::encode(&d, &tensor, d.group_size());
        assert_eq!(bits, d.compressed_bits(&tensor, &SchemeCtx::unprofiled()));
    }

    #[test]
    fn truncated_bits_are_monotone_in_width() {
        let tensor = t(FixedType::I16, mixed(4096, 9));
        let d = AdaBitsScheme::default();
        let full = d.compressed_bits(&tensor, &SchemeCtx::unprofiled());
        let b4 = d.truncated_bits(&tensor, 4);
        let b6 = d.truncated_bits(&tensor, 6);
        let b8 = d.truncated_bits(&tensor, 8);
        assert!(b4 < b6 && b6 < b8, "{b4} {b6} {b8}");
        assert!(b8 <= full);
        assert_eq!(d.truncated_bits(&tensor, 16), full);
    }

    #[test]
    fn msb_prefix_is_the_quantized_variant() {
        // Truncating a group's planes to w must reproduce |v| >> (p - w):
        // the serving-variant claim, checked value by value.
        let group = [1000, -3, 0, 77, -512, 12, 9, -1];
        let p = AdaBitsScheme::magnitude_width(&group);
        let target = 4u8;
        for &v in &group {
            let kept: u32 = (0..p)
                .rev()
                .take(target as usize)
                .map(|k| (v.unsigned_abs() >> k & 1) << k)
                .sum();
            assert_eq!(kept, v.unsigned_abs() >> (p - target) << (p - target));
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let tensor = t(FixedType::I16, mixed(64, 1));
        let d = AdaBitsScheme::default();
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        assert!(wire::decode(&d, &bytes, bits / 3, &tensor, d.group_size()).is_err());
    }
}
