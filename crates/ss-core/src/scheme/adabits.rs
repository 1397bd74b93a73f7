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

use ss_bitio::{BitReader, BitWriter};
use ss_tensor::{Signedness, Tensor};

use crate::detector::WidthDetector;
use crate::registry::{checked_group_size, ContainerScheme, SchemeId, StreamFrame};
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{ChunkEntry, ChunkIndex, CodecError, IndexPolicy};

/// Bit-plane (MSB-first) group container for multi-width serving.
///
/// Registered as wire id 3 ([`SchemeId::ADABITS`]); the wire methods take
/// the group size from the call or frame, and the struct's own group size
/// prices tensors (including the truncated serving variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaBitsScheme {
    group_size: usize,
}

/// Widest group the plane buffer accommodates (matches the codec's cap).
const MAX_GROUP: usize = 256;

impl AdaBitsScheme {
    /// Creates the scheme at the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256.
    #[must_use]
    pub fn new(group_size: usize) -> Self {
        assert!(
            (1..=MAX_GROUP).contains(&group_size),
            "group size {group_size} outside 1..=256"
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

    /// Writes one plane of `group`: bit `i` of the plane is
    /// `extract(group[i])`, packed LSB-first into 64-bit words.
    fn write_plane(
        w: &mut BitWriter,
        group: &[i32],
        extract: impl Fn(i32) -> bool,
    ) -> Result<(), CodecError> {
        for chunk in group.chunks(64) {
            let mut word = 0u64;
            for (i, &v) in chunk.iter().enumerate() {
                if extract(v) {
                    word |= 1 << i;
                }
            }
            w.write_bits(word, chunk.len() as u32)?;
        }
        Ok(())
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

impl ContainerScheme for AdaBitsScheme {
    fn wire_id(&self) -> SchemeId {
        SchemeId::ADABITS
    }

    fn encode_into(
        &self,
        tensor: &Tensor,
        group_size: usize,
        _policy: IndexPolicy,
        w: &mut BitWriter,
        _entries: &mut Vec<ChunkEntry>,
    ) -> Result<Option<ChunkIndex>, CodecError> {
        checked_group_size(group_size)?;
        w.clear();
        let dtype = tensor.dtype();
        let det = WidthDetector::new(dtype.bits(), dtype.signedness());
        let prefix_bits = u32::from(det.prefix_bits());
        let signed = matches!(dtype.signedness(), Signedness::Signed);
        for group in tensor.groups(group_size)? {
            let p = Self::magnitude_width(group);
            w.write_bits(u64::from(p - 1), prefix_bits)?;
            if signed {
                Self::write_plane(w, group, |v| v < 0)?;
            }
            // MSB-first: plane p-1 down to plane 0, so dropping the tail
            // of the group payload drops least-significant planes.
            for k in (0..p).rev() {
                Self::write_plane(w, group, |v| v.unsigned_abs() >> k & 1 == 1)?;
            }
        }
        Ok(None)
    }

    /// Lossless inverse of the encoder.
    ///
    /// # Errors
    ///
    /// * [`CodecError::Stream`] on truncation or inconsistent framing.
    /// * [`CodecError::WidthExceedsContainer`] if a group declares more
    ///   planes than the container has magnitude bits.
    /// * [`CodecError::CorruptValue`] if a decoded value leaves the
    ///   container.
    fn decode_into(
        &self,
        bytes: &[u8],
        frame: &StreamFrame,
        _index: Option<&ChunkIndex>,
        _threads: usize,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        checked_group_size(frame.group_size)?;
        let StreamFrame {
            bit_len,
            dtype,
            len,
            group_size,
        } = *frame;
        out.clear();
        let det = WidthDetector::new(dtype.bits(), dtype.signedness());
        let prefix_bits = u32::from(det.prefix_bits());
        let signed = matches!(dtype.signedness(), Signedness::Signed);
        if bit_len > bytes.len() as u64 * 8 || len as u64 > bit_len {
            // Inconsistent framing metadata: every value costs at least
            // one plane bit, so `len` values cannot fit in fewer bits.
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bit_len.min(bytes.len() as u64 * 8),
            }));
        }
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        out.reserve(len);
        let mut group_idx = 0usize;
        let mut mags = [0u32; MAX_GROUP];
        let mut negs = [false; MAX_GROUP];
        while out.len() < len {
            let group_len = (len - out.len()).min(group_size);
            // ss-lint: allow(truncating-cast) -- prefix fields are at most 5 bits wide
            let p = r.read_bits(prefix_bits)? as u8 + 1;
            if p > dtype.bits() {
                return Err(CodecError::WidthExceedsContainer {
                    group: group_idx,
                    width: p,
                    container: dtype.bits(),
                });
            }
            // ss-lint: allow(panic-freedom) -- mags/negs are sized group_size and group_len <= group_size
            mags[..group_len].fill(0);
            if signed {
                let mut at = 0usize;
                while at < group_len {
                    let take = (group_len - at).min(64);
                    let word = r.read_bits(take as u32)?;
                    for i in 0..take {
                        // ss-lint: allow(panic-freedom) -- at + i < at + take <= group_len <= negs.len()
                        negs[at + i] = word >> i & 1 == 1;
                    }
                    at += take;
                }
            } else {
                // ss-lint: allow(panic-freedom) -- negs is sized group_size and group_len <= group_size
                negs[..group_len].fill(false);
            }
            for k in (0..p).rev() {
                let mut at = 0usize;
                while at < group_len {
                    let take = (group_len - at).min(64);
                    let word = r.read_bits(take as u32)?;
                    for i in 0..take {
                        // ss-lint: allow(panic-freedom) -- at + i < at + take <= group_len <= mags.len()
                        mags[at + i] |= u32::from(word >> i & 1 == 1) << k;
                    }
                    at += take;
                }
            }
            for i in 0..group_len {
                // ss-lint: allow(truncating-cast) -- magnitudes are at most dtype.bits() <= 16 bits
                // ss-lint: allow(panic-freedom) -- i < group_len <= mags.len() == negs.len()
                let mag = mags[i] as i32;
                // ss-lint: allow(panic-freedom) -- i < group_len <= negs.len()
                let v = if negs[i] { -mag } else { mag };
                if !dtype.contains(v) {
                    return Err(CodecError::CorruptValue {
                        index: out.len(),
                        value: v,
                    });
                }
                out.push(v);
            }
            group_idx += 1;
        }
        Ok(())
    }
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
