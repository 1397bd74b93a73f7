//! Off-chip compression schemes compared in the evaluation (Figures 8–11
//! and 16).
//!
//! Every scheme reports the **exact bit count** a tensor occupies off-chip,
//! so relative-traffic figures are reproduced without approximation:
//!
//! * [`Base`] — no compression: `len × container` bits.
//! * [`ProfileScheme`] — per-layer profile-derived width (Judd et al.,
//!   Proteus): every value of the layer stored at the profiled width.
//! * [`ShapeShifterScheme`] — the paper's per-group container (§3).
//! * [`ZeroRle`] — Eyeriss/SCNN-style zero run-length encoding.
//! * [`outlier_aware_bits`] / [`outlier_aware_zs_bits`] — the
//!   outlier-aware storage formats of Figure 16.
//! * [`DpRed`] — DPRed per-group precision storage (arXiv:1804.06732):
//!   every value kept, priced at its group's width.
//! * [`AdaBitsScheme`] — AdaBits MSB-first bit-plane storage
//!   (arXiv:1912.09666) whose width-`w` serving variants are stream
//!   prefixes.
//!
//! The four schemes with a wire format — ShapeShifter, Delta, DPRed and
//! AdaBits — are one family of per-group precision containers that differ
//! only in per-group metadata, and each is one struct: it prices tensors
//! through [`CompressionScheme`] and also implements
//! [`crate::ContainerScheme`], the registry's wire trait. Base, Profile,
//! ZeroRle and the outlier-aware formats are priced only.

mod adabits;
mod delta;
mod dpred;
mod outlier_store;
mod profile;
mod shapeshifter;
mod zero_rle;

pub use adabits::AdaBitsScheme;
pub use delta::DeltaShapeShifter;
pub use dpred::DpRed;
pub use outlier_store::{outlier_aware_bits, outlier_aware_zs_bits};
pub use profile::ProfileScheme;
pub use shapeshifter::ShapeShifterScheme;
pub use zero_rle::ZeroRle;

use ss_tensor::{Tensor, TensorStats};

/// Per-tensor context a scheme may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SchemeCtx {
    /// Profile-derived per-layer width, if profiling was possible
    /// (`None` models the paper's "non-profiled networks" of Figure 8b).
    pub profiled_width: Option<u8>,
}

impl SchemeCtx {
    /// Context with a profile available.
    #[must_use]
    pub fn profiled(width: u8) -> Self {
        Self {
            profiled_width: Some(width),
        }
    }

    /// Context without profiling (Figure 8b operation).
    #[must_use]
    pub fn unprofiled() -> Self {
        Self {
            profiled_width: None,
        }
    }
}

/// An off-chip storage scheme: maps a tensor to its exact off-chip size.
pub trait CompressionScheme {
    /// Display name used in figures ("Base", "Profile", "ShapeShifter",
    /// "Zero compression").
    fn name(&self) -> &str;

    /// Exact compressed size of `tensor` in bits, including all metadata.
    fn compressed_bits(&self, tensor: &Tensor, ctx: &SchemeCtx) -> u64;

    /// Exact compressed size from precomputed [`TensorStats`], without the
    /// raw values, when the scheme can be priced that way.
    ///
    /// The experiment harness prices the same multi-million-value layer
    /// under every scheme for every figure; schemes that are pure functions
    /// of the width/zero statistics answer from the shared one-pass
    /// [`TensorStats`] instead of re-scanning values. Must equal
    /// [`CompressionScheme::compressed_bits`] on the tensor the stats were
    /// computed from whenever it returns `Some`. The default returns
    /// `None` (scheme needs the raw values, or the stats lack a required
    /// grouping granularity) and callers fall back to the tensor path.
    fn compressed_bits_from_stats(&self, stats: &TensorStats, ctx: &SchemeCtx) -> Option<u64> {
        let _ = (stats, ctx);
        None
    }

    /// Compression ratio relative to the uncompressed container
    /// (lower is better; 1.0 means no gain).
    fn ratio(&self, tensor: &Tensor, ctx: &SchemeCtx) -> f64 {
        if tensor.is_empty() {
            return 1.0;
        }
        self.compressed_bits(tensor, ctx) as f64 / tensor.container_bits() as f64
    }
}

/// Uncompressed baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Base;

impl CompressionScheme for Base {
    fn name(&self) -> &str {
        "Base"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        tensor.container_bits()
    }

    fn compressed_bits_from_stats(&self, stats: &TensorStats, _ctx: &SchemeCtx) -> Option<u64> {
        Some(stats.container_bits())
    }
}

/// Test helpers that drive a scheme's wire methods directly.
#[cfg(test)]
pub(crate) mod wire {
    use ss_bitio::BitWriter;
    use ss_tensor::Tensor;

    use crate::{CodecError, ContainerScheme, IndexPolicy, StreamFrame};

    /// Encodes `tensor` at `group_size`, returning the stream and its
    /// bit length.
    pub(crate) fn encode(
        scheme: &dyn ContainerScheme,
        tensor: &Tensor,
        group_size: usize,
    ) -> (Vec<u8>, u64) {
        let mut w = BitWriter::new();
        scheme
            .encode_into(
                tensor,
                group_size,
                IndexPolicy::None,
                &mut w,
                &mut Vec::new(),
            )
            .unwrap();
        (w.as_bytes().to_vec(), w.bit_len())
    }

    /// Decodes `bit_len` bits of `bytes` framed like `tensor`.
    pub(crate) fn decode(
        scheme: &dyn ContainerScheme,
        bytes: &[u8],
        bit_len: u64,
        tensor: &Tensor,
        group_size: usize,
    ) -> Result<Vec<i32>, CodecError> {
        let frame = StreamFrame {
            bit_len,
            dtype: tensor.dtype(),
            len: tensor.len(),
            group_size,
        };
        let mut out = Vec::new();
        scheme.decode_into(bytes, &frame, None, 1, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{FixedType, Shape};

    #[test]
    fn base_is_the_container() {
        let t = Tensor::from_vec(Shape::flat(4), FixedType::U16, vec![0, 1, 2, 3]).unwrap();
        assert_eq!(Base.compressed_bits(&t, &SchemeCtx::default()), 64);
        assert_eq!(Base.ratio(&t, &SchemeCtx::default()), 1.0);
    }

    #[test]
    fn empty_tensor_ratio_is_one() {
        let t = Tensor::from_vec(Shape::flat(0), FixedType::U16, vec![]).unwrap();
        assert_eq!(Base.ratio(&t, &SchemeCtx::default()), 1.0);
    }
}
