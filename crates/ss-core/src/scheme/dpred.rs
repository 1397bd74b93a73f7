//! DPRed-style per-group precision storage (Delmás Lascorz et al.,
//! "DPRed: Making Typical Activation and Weight Values Matter In Deep
//! Learning Computing", arXiv:1804.06732).
//!
//! DPRed's observation is that *both* activations and weights spend most
//! of their time well below the container width when precision is chosen
//! per small group. Its storage scheme keeps every value — no zero
//! elision — and stores each group at the group's detected width: a `P`
//! prefix followed by all `group_len` values at `P` bits. Compared with
//! the paper's ShapeShifter container this drops the `Z` zero bit-vector,
//! trading zero elision for a simpler payload that prices weights (which
//! are dense after quantization) as well as activations.

use ss_bitio::{BitReader, BitWriter};
use ss_tensor::{width, Signedness, Tensor, TensorStats};

use crate::detector::WidthDetector;
use crate::registry::{checked_group_size, ContainerScheme, SchemeId, StreamFrame};
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{ChunkEntry, ChunkIndex, CodecError, IndexPolicy};

/// DPRed per-group precision storage: `(P, payload)` per group, every
/// value present at the group width.
///
/// Registered as wire id 2 ([`SchemeId::DPRED`]); the wire methods take
/// the group size from the call or frame, and the struct's own group size
/// prices tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DpRed {
    group_size: usize,
}

impl DpRed {
    /// Creates the scheme at the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256.
    #[must_use]
    pub fn new(group_size: usize) -> Self {
        assert!(
            (1..=256).contains(&group_size),
            "group size {group_size} outside 1..=256"
        );
        Self { group_size }
    }

    /// The configured group size.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

impl Default for DpRed {
    /// The paper's group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

impl ContainerScheme for DpRed {
    fn wire_id(&self) -> SchemeId {
        SchemeId::DPRED
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
            let p = det.detect(group).max(1);
            w.write_bits(u64::from(p - 1), prefix_bits)?;
            for &v in group {
                let enc = if signed {
                    width::to_sign_magnitude(v)
                } else {
                    v.unsigned_abs()
                };
                w.write_bits(u64::from(enc), u32::from(p))?;
            }
        }
        Ok(None)
    }

    /// Lossless inverse of the encoder.
    ///
    /// # Errors
    ///
    /// * [`CodecError::Stream`] on truncation or inconsistent framing.
    /// * [`CodecError::WidthExceedsContainer`] if a group declares a width
    ///   beyond the container.
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
            // one payload bit, so `len` values cannot fit in fewer bits.
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bit_len.min(bytes.len() as u64 * 8),
            }));
        }
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        out.reserve(len);
        let mut group_idx = 0usize;
        while out.len() < len {
            let group_len = (len - out.len()).min(group_size);
            // ss-lint: allow(truncating-cast) -- prefix fields are at most 5 bits wide
            let p = r.read_bits(prefix_bits)? as u8 + 1;
            // The group width is bounded by the sign-magnitude container
            // (one wider than the magnitude for signed data).
            let container = dtype.bits() + u8::from(signed);
            if p > container {
                return Err(CodecError::WidthExceedsContainer {
                    group: group_idx,
                    width: p,
                    container,
                });
            }
            for _ in 0..group_len {
                let raw = r.read_bits(u32::from(p))?;
                // ss-lint: allow(truncating-cast) -- fields are at most `container` <= 17 bits
                let v = if signed {
                    width::from_sign_magnitude(raw as u32)
                } else {
                    raw as i32
                };
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

impl CompressionScheme for DpRed {
    fn name(&self) -> &str {
        "DPRed"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        let det = WidthDetector::new(tensor.dtype().bits(), tensor.dtype().signedness());
        let prefix_bits = u64::from(det.prefix_bits());
        let signedness = tensor.dtype().signedness();
        let mut bits = 0u64;
        for group in tensor.values().chunks(self.group_size) {
            let p = u64::from(width::group_width(group, signedness).max(1));
            bits += prefix_bits + p * group.len() as u64;
        }
        bits
    }

    fn compressed_bits_from_stats(&self, stats: &TensorStats, _ctx: &SchemeCtx) -> Option<u64> {
        // Pure function of the per-group aggregates when the stats were
        // gathered at this scheme's grouping granularity.
        let g = stats.group(self.group_size)?;
        let det = WidthDetector::new(stats.dtype().bits(), stats.dtype().signedness());
        // All-zero groups are pinned to width 1 by the encoder; with a
        // partial tail group the histogram cannot say how many values an
        // all-zero group holds, so fall back to the value scan then.
        // ss-lint: allow(panic-freedom) -- group_width_hist has a fixed 17 entries (widths 0..=16)
        let zero_width_groups = g.group_width_hist[0];
        if zero_width_groups > 0 && !stats.len().is_multiple_of(self.group_size) {
            return None;
        }
        Some(
            g.group_count * u64::from(det.prefix_bits())
                + g.weighted_width_bits
                + zero_width_groups * self.group_size as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{wire, ShapeShifterScheme};
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
                if r % 5 == 0 {
                    0
                } else {
                    (r % 3000) - 1500
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_signed() {
        let tensor = t(FixedType::I16, mixed(500, 7));
        let d = DpRed::default();
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        let back = wire::decode(&d, &bytes, bits, &tensor, d.group_size()).unwrap();
        assert_eq!(back, tensor.values());
    }

    #[test]
    fn roundtrip_unsigned_and_partial_group() {
        let vals: Vec<i32> = (0..37).map(|i| (i * 97) % 256).collect();
        let tensor = t(FixedType::U8, vals);
        let d = DpRed::new(16);
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        let back = wire::decode(&d, &bytes, bits, &tensor, d.group_size()).unwrap();
        assert_eq!(back, tensor.values());
    }

    #[test]
    fn accounting_matches_encoding() {
        let tensor = t(FixedType::I16, mixed(333, 3));
        let d = DpRed::default();
        let (_, bits) = wire::encode(&d, &tensor, d.group_size());
        assert_eq!(bits, d.compressed_bits(&tensor, &SchemeCtx::unprofiled()));
    }

    #[test]
    fn stats_path_matches_tensor_path_on_even_groups() {
        let tensor = t(FixedType::I16, mixed(512, 11));
        let d = DpRed::default();
        let stats = TensorStats::compute(&tensor, &[d.group_size()]);
        let ctx = SchemeCtx::unprofiled();
        assert_eq!(
            d.compressed_bits_from_stats(&stats, &ctx),
            Some(d.compressed_bits(&tensor, &ctx))
        );
    }

    #[test]
    fn dense_data_beats_shapeshifter_on_metadata() {
        // With almost no zeros the Z bit-vector is pure overhead; DPRed
        // drops it.
        let vals: Vec<i32> = (0..4096).map(|i| (i % 120) + 1).collect();
        let tensor = t(FixedType::U16, vals);
        let ctx = SchemeCtx::unprofiled();
        let dpred = DpRed::default().compressed_bits(&tensor, &ctx);
        let ss = ShapeShifterScheme::default().compressed_bits(&tensor, &ctx);
        assert!(dpred < ss, "dpred {dpred} vs shapeshifter {ss}");
    }

    #[test]
    fn sparse_data_loses_to_shapeshifter() {
        // Mostly zeros: elision wins, DPRed pays the group width for them.
        let vals: Vec<i32> = (0..4096).map(|i| if i % 16 == 0 { 900 } else { 0 }).collect();
        let tensor = t(FixedType::U16, vals);
        let ctx = SchemeCtx::unprofiled();
        let dpred = DpRed::default().compressed_bits(&tensor, &ctx);
        let ss = ShapeShifterScheme::default().compressed_bits(&tensor, &ctx);
        assert!(dpred > ss, "dpred {dpred} vs shapeshifter {ss}");
    }

    #[test]
    fn truncated_stream_errors() {
        let tensor = t(FixedType::I16, mixed(64, 5));
        let d = DpRed::default();
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        assert!(wire::decode(&d, &bytes, bits / 2, &tensor, d.group_size()).is_err());
    }
}
