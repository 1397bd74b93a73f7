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

use ss_bitio::BitReader;
use ss_tensor::{width, FixedType, Tensor, TensorStats};

use crate::detector::WidthDetector;
use crate::framing::{decode_field, encode_field, GroupAt, GroupCost, GroupLayout, Scratch};
use crate::registry::SchemeId;
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{kernels, CodecError};

/// DPRed per-group precision storage: `(P, payload)` per group, every
/// value present at the group width.
///
/// Registered as wire id 2 ([`SchemeId::DPRED`]); the wire stream takes
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
}

impl Default for DpRed {
    /// The paper's group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

/// Per group: the `P` width field, then every value at `P` bits
/// (sign-magnitude in signed containers).
impl GroupLayout for DpRed {
    const WIRE_ID: SchemeId = SchemeId::DPRED;

    /// The sign-magnitude field: one wider than the magnitude for signed
    /// data.
    fn max_width(dtype: FixedType) -> u8 {
        dtype.bits() + u8::from(dtype.signedness().is_signed())
    }

    /// One pass encodes the fields and ORs them for the width, and the
    /// per-width packer cuts them behind `P` into the run of groups being
    /// assembled.
    #[inline]
    fn write_group(s: &mut Scratch, group: &[i32]) -> Result<GroupCost, CodecError> {
        let mut or = 0u32;
        for (slot, &v) in s.fields.iter_mut().zip(group) {
            let field = encode_field(s.signed, v);
            or |= field;
            *slot = u64::from(field);
        }
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        let width = ((32 - or.leading_zeros()) as u8).max(1);
        s.put_width(width);
        s.put_fields(width, group.len())?;
        Ok(GroupCost {
            width,
            elided: 0,
            payload_bits: u64::from(width) * group.len() as u64,
        })
    }

    /// A group of up to 16 values is read from one [`BitReader::window`]:
    /// `P` from its first bits, then [`kernels::cut_block`] cuts every
    /// field with the extractor monomorphised per width, and one advance
    /// checks the whole group. A `P` of at most the container's bits
    /// always decodes inside the container; a wider one (a signed
    /// container's `bits + 1`, which no encoder writes), a longer group
    /// or a stream too short for the group replays [`read_fields_group`]
    /// from the group's start, so every error is the per-field reader's.
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
        let prefix_bits = s.prefix_bits();
        let field = kernels::window_field(&window, 0, prefix_bits);
        let Some(p) = s.width_within(field, s.dtype.bits()) else {
            return read_fields_group(s, r, at, out);
        };
        let bits = u64::from(prefix_bits) + u64::from(p) * at.len as u64;
        let run = kernels::window_run(&window, prefix_bits as usize);
        if bits > r.remaining_bits() || !kernels::cut_block(p, s.signed, &run, out) {
            return read_fields_group(s, r, at, out);
        }
        r.advance(bits)?;
        Ok(())
    }
}

/// The per-field group reader: `P` through `read_bits`, the fields
/// through `read_fields`, then a range test per value. It reads the
/// groups the window does not cover, and names every error.
#[cold]
#[inline(never)]
fn read_fields_group(
    s: &mut Scratch,
    r: &mut BitReader<'_>,
    at: GroupAt,
    out: &mut [i32],
) -> Result<(), CodecError> {
    let p = s.read_width(r, at.index)?;
    r.read_fields(u32::from(p), s.fields.get_mut(..at.len).unwrap_or(&mut []))?;
    for (i, (slot, &raw)) in out.iter_mut().zip(&s.fields).enumerate() {
        let v = decode_field(s.signed, raw);
        if !s.dtype.contains(v) {
            return Err(CodecError::CorruptValue {
                index: at.first_value + i,
                value: v,
            });
        }
        *slot = v;
    }
    Ok(())
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
        let vals: Vec<i32> = (0..4096)
            .map(|i| if i % 16 == 0 { 900 } else { 0 })
            .collect();
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
