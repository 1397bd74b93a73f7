//! ShapeShifter as an off-chip compression scheme (the paper's first
//! hardware technique, §3).

use ss_bitio::{BitReader, BitWriter};
use ss_tensor::{FixedType, Tensor, TensorStats};

use crate::framing::{
    decode_field, read_bitvec, write_bitvec, GroupAt, GroupCost, GroupLayout, Scratch,
};
use crate::registry::SchemeId;
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{checked, kernels, CodecError, ShapeShifterCodec, WidthDetector};

/// The ShapeShifter memory container as a traffic scheme: per-group
/// dynamic width with zero elision, reported with exact bit accounting
/// (metadata included).
///
/// Requires no profile — widths are detected statically for weights at
/// pack time and dynamically for activations by the Figure 5c hardware —
/// which is why the paper can apply it to the non-profiled networks of
/// Figure 8b unchanged. The accounting runs on
/// [`ShapeShifterCodec::measure`], whose group scan is the word-parallel
/// [`crate::kernels`] pass, so pricing a multi-million-value layer costs
/// one streaming read.
///
/// A one-byte **per-array bypass flag** keeps the paper's robustness
/// guarantee ("ShapeShifter compression is robust and never increases
/// traffic"): when a whole array's groups resist compression — e.g. the
/// TF-quantized models whose zero-point pins every stored value near the
/// container middle — the array ships raw and pays only the flag.
///
/// The same struct is the registry's wire id 0 ([`SchemeId::SHAPESHIFTER`]):
/// its group layout is the bare `(Z, P, payload)` group, written and read
/// at the group size of the call or frame, and it is the one scheme that
/// writes and honours a chunk index. The flag and the raw-bypass cap are
/// pricing only — the wire stream carries neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeShifterScheme {
    codec: ShapeShifterCodec,
}

/// Per-array metadata: the compressed/raw bypass flag.
pub(crate) const ARRAY_FLAG_BITS: u64 = 8;

impl ShapeShifterScheme {
    /// Creates the scheme at the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256 (as the codec does).
    #[must_use]
    pub fn new(group_size: usize) -> Self {
        Self {
            codec: ShapeShifterCodec::new(group_size),
        }
    }

    /// The underlying codec.
    #[must_use]
    pub fn codec(&self) -> &ShapeShifterCodec {
        &self.codec
    }
}

impl Default for ShapeShifterScheme {
    /// The paper's default group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

/// Per group: the `Z` vector (1 marks a zero value, which carries no
/// payload), the `P` width field, then the non-zero values at `P` bits
/// each — sign-magnitude with the sign at the least-significant bit in
/// signed containers.
impl GroupLayout for ShapeShifterScheme {
    const WIRE_ID: SchemeId = SchemeId::SHAPESHIFTER;
    const INDEXED: bool = true;
    const TRACED: bool = true;

    fn max_width(dtype: FixedType) -> u8 {
        dtype.bits()
    }

    /// One fused [`kernels::scan_gather`] pass yields the `Z` words, the
    /// OR-folded group width and the compacted non-zero payloads, which
    /// are packed as one equal-width field run: each value is loaded once
    /// and no bit is pushed individually. The retired per-value loop
    /// survives as the differential oracle in the `kernel_differential`
    /// suite.
    #[inline]
    fn write_group(
        s: &mut Scratch,
        group: &[i32],
        w: &mut BitWriter,
    ) -> Result<GroupCost, CodecError> {
        let (scan, n) = kernels::scan_gather(group, s.dtype.signedness(), &mut s.fields);
        write_bitvec(w, &scan.z, group.len())?;
        let width = scan.width();
        s.write_width(w, width)?;
        // `n <= group.len() <= MAX_GROUP` by construction, so the slice
        // always exists; the fallback is unreachable.
        let run = s.fields.get(..n).unwrap_or(&[]);
        w.pack_fields(run, u32::from(width))?;
        Ok(GroupCost {
            width,
            elided: scan.zero_count(),
            payload_bits: u64::from(width) * n as u64,
        })
    }

    /// Payloads are read in bulk: the `Z` popcount gives the exact number
    /// of equal-width fields in the group, which `BitReader::read_fields`
    /// extracts with one unaligned load each; the scatter pass then
    /// interleaves them with the elided zeros, refusing in stream order a
    /// payload that decodes to zero. No range test is needed: `read_width`
    /// bounds `P` by the container width, and a field of at most that many
    /// bits always decodes inside the container's range.
    #[inline]
    fn read_group(
        s: &mut Scratch,
        r: &mut BitReader<'_>,
        at: GroupAt,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        let signed = s.signed;
        let zeros = read_bitvec(r, at.len, &mut s.bits)?;
        let p = s.read_width(r, at.index)?;
        let payloads = at.len - zeros.min(at.len);
        let slots = s.fields.get_mut(..payloads).unwrap_or(&mut []);
        r.read_fields(u32::from(p), slots)?;
        let mut next = slots.iter();
        // Zeros are written up front; the loop fills in the payloads.
        let first = out.len();
        out.resize(first + at.len, 0);
        let group = out.get_mut(first..).unwrap_or(&mut []);
        for (c, (chunk, &word)) in group.chunks_mut(64).zip(&s.bits).enumerate() {
            for (bit, slot) in chunk.iter_mut().enumerate() {
                if word >> bit & 1 == 1 {
                    continue;
                }
                // The popcount above sized the run to the exact number of
                // clear bits, so the iterator cannot run dry.
                let raw = next.next().copied().unwrap_or(0);
                let v = decode_field(signed, raw);
                let index = at.first_value + c * 64 + bit;
                if v == 0 {
                    // A payload slot decoding to zero is corrupt: zeros
                    // travel in Z, never in the payload.
                    return Err(CodecError::CorruptValue { index, value: v });
                }
                checked::canonical_payload(raw, v, p, signed, index);
                *slot = v;
            }
        }
        checked::group_invariants(&s.bits, at.len, payloads, p, s.dtype.bits(), at.index);
        Ok(())
    }
}

impl CompressionScheme for ShapeShifterScheme {
    fn name(&self) -> &str {
        "ShapeShifter"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        let report = self.codec.measure(tensor);
        ARRAY_FLAG_BITS + report.total_bits().min(tensor.container_bits())
    }

    fn compressed_bits_from_stats(&self, stats: &TensorStats, _ctx: &SchemeCtx) -> Option<u64> {
        // Only answerable when the stats were computed at this scheme's
        // grouping granularity; otherwise fall back to the tensor path.
        let det = WidthDetector::new(stats.dtype().bits(), stats.dtype().signedness());
        let (metadata, payload, _groups) =
            stats.shapeshifter_bits(self.codec.group_size(), det.prefix_bits())?;
        Some(ARRAY_FLAG_BITS + (metadata + payload).min(stats.container_bits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{FixedType, Shape};

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::U16, vals).unwrap()
    }

    #[test]
    fn matches_codec_output_plus_flag() {
        let tensor = t((0..64).map(|i| i * 3).collect());
        let scheme = ShapeShifterScheme::default();
        let direct = scheme.codec().encode(&tensor).unwrap().bit_len();
        assert_eq!(
            scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled()),
            direct + ARRAY_FLAG_BITS
        );
    }

    #[test]
    fn bypass_caps_incompressible_arrays() {
        // Every value at the container maximum: groups are full width and
        // the metadata would expand the array — the flag ships it raw.
        let tensor = t(vec![0xFFFF; 64]);
        let scheme = ShapeShifterScheme::default();
        let bits = scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled());
        assert_eq!(bits, tensor.container_bits() + ARRAY_FLAG_BITS);
    }

    #[test]
    fn ignores_profile_context() {
        let tensor = t(vec![7; 32]);
        let scheme = ShapeShifterScheme::default();
        assert_eq!(
            scheme.compressed_bits(&tensor, &SchemeCtx::profiled(12)),
            scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled())
        );
    }

    #[test]
    fn every_field_within_the_container_width_decodes_inside_the_container() {
        // `read_group` leans on this instead of a per-value range test:
        // `read_width` caps `P` at the container width, and every
        // non-zero `P`-bit field then decodes to a value the container
        // holds (sign-magnitude fields to the symmetric signed range).
        for bits in 1..=16u8 {
            for dtype in [FixedType::unsigned(bits), FixedType::signed(bits)] {
                let dtype = dtype.unwrap();
                let signed = dtype.signedness().is_signed();
                for p in 1..=bits {
                    for raw in 1..1u64 << p {
                        let v = decode_field(signed, raw);
                        assert!(dtype.contains(v), "{dtype}: P = {p}, field {raw:#x} -> {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn beats_base_on_skewed_data() {
        // Mostly small values with one large: the paper's premise.
        let mut vals = vec![1i32; 63];
        vals.push(60_000);
        let tensor = t(vals);
        let scheme = ShapeShifterScheme::default();
        let ratio = scheme.ratio(&tensor, &SchemeCtx::unprofiled());
        assert!(ratio < 0.4, "ratio {ratio}");
    }
}
