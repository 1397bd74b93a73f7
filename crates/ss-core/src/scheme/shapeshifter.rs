//! ShapeShifter as an off-chip compression scheme (the paper's first
//! hardware technique, §3).

use ss_bitio::BitWriter;
use ss_tensor::{Tensor, TensorStats};

use crate::registry::{ContainerScheme, SchemeId, StreamFrame};
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{
    ChunkEntry, ChunkIndex, CodecConfig, CodecError, ExecPolicy, IndexPolicy, ShapeShifterCodec,
    WidthDetector,
};

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
/// its [`ContainerScheme`] methods write and read the bare `(Z, P,
/// payload)` stream at the group size of the call or frame, with full
/// chunk-index participation. The flag and the raw-bypass cap are pricing
/// only — the wire stream carries neither.
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

/// A sequential codec at a wire call's group size and index policy.
fn wire_codec(group_size: usize, policy: IndexPolicy) -> Result<ShapeShifterCodec, CodecError> {
    ShapeShifterCodec::from_config(
        CodecConfig::new()
            .with_group_size(group_size)
            .with_index_policy(policy)
            .with_exec(ExecPolicy::Sequential),
    )
}

impl ContainerScheme for ShapeShifterScheme {
    fn wire_id(&self) -> SchemeId {
        SchemeId::SHAPESHIFTER
    }

    /// Byte-identical to [`ShapeShifterCodec::encode`] under the same
    /// group size and policy: both cut index chunks at the same
    /// policy-determined boundaries.
    fn encode_into(
        &self,
        tensor: &Tensor,
        group_size: usize,
        policy: IndexPolicy,
        w: &mut BitWriter,
        entries: &mut Vec<ChunkEntry>,
    ) -> Result<Option<ChunkIndex>, CodecError> {
        let (_, index) = wire_codec(group_size, policy)?.encode_framed(tensor, w, entries)?;
        Ok(index)
    }

    fn decode_into(
        &self,
        stream: &[u8],
        frame: &StreamFrame,
        index: Option<&ChunkIndex>,
        threads: usize,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        let codec = wire_codec(frame.group_size, IndexPolicy::None)?;
        match index {
            Some(idx) => {
                *out = codec.decode_stream_indexed(
                    stream,
                    frame.bit_len,
                    frame.dtype,
                    frame.len,
                    idx,
                    threads,
                )?;
                Ok(())
            }
            None => codec.decode_stream_into(stream, frame.bit_len, frame.dtype, frame.len, out),
        }
    }

    fn supports_index(&self) -> bool {
        true
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
