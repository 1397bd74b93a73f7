#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! ShapeShifter: fine-grain per-group data width adaptation (MICRO 2019).
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`WidthDetector`] — the hardware width-detection unit of Figure 5c
//!   (per-bit OR trees plus a leading-1 detector), modelled gate-for-gate
//!   and verified against the arithmetic definition.
//! * [`ShapeShifterCodec`] — the lossless off-chip memory container of §3 /
//!   Figure 6: values are grouped (16 by default), each group stores a
//!   zero bit-vector `Z`, a width prefix `P`, and only its non-zero values
//!   at `P` bits each in sign-magnitude form. The codec is a
//!   configuration (group size, index and execution policies) whose
//!   one-shot encode and decode run any registered scheme;
//!   [`CodecSession`] is its reusable, allocation-free twin. Both write
//!   and read a [`SchemeStream`], the one stream type: it names its
//!   scheme, so every decode takes the scheme from the stream, and it
//!   carries its exact [`MeasureReport`].
//! * [`ChunkIndex`] — the optional container-v2 chunk index: per-chunk bit
//!   offsets and value counts (delta-encoded, CRC-32-guarded) that let
//!   decode fan chunks out across worker threads while staying
//!   bit-identical to the sequential parse. v1 streams carry no index and
//!   decode sequentially, unchanged.
//! * [`scheme`] — the off-chip compression schemes compared throughout the
//!   evaluation: no compression, per-layer Profile (Proteus), ShapeShifter,
//!   Eyeriss/SCNN-style zero run-length encoding, the outlier-aware
//!   storage formats of Figure 16, plus the DPRed per-group precision and
//!   AdaBits bit-plane schemes from the related work. All report exact
//!   bit counts.
//! * [`registry`] — the container-scheme registry: the
//!   [`ContainerScheme`] wire trait (stable wire ids, encode/decode,
//!   chunk-index participation) that the four wire-format schemes get
//!   from their per-group layouts, and the [`SchemeRegistry`] that
//!   resolves wire ids at unpack time. All four share one framing path
//!   (group-size and frame checks, group loops, chunk index, fan-out,
//!   exact consumption); a scheme supplies only its per-group layout.
//! * [`checksum`] — the workspace's one CRC-32 (and the one split of a
//!   blob into its body and CRC-32 trailer) and one FNV-1a.
//! * [`bytes`] — the one checked reader for the little-endian SSPK, SSRD
//!   and SSRP formats.
//! * [`decompressor`] — the two-level (L1D/L2D) streaming decompressor of
//!   Figure 6d as a cycle-approximate model, used to check the decoder
//!   keeps up with the DDR4 stream.
//! * [`analysis`] — the measurement machinery behind §2: per-group width
//!   CDFs (Figures 1–3), per-layer effective widths (Table 1), and
//!   per-layer vs per-value width/work comparisons (Figure 4).
//!
//! # Quick start
//!
//! ```
//! use ss_core::scheme::ShapeShifterScheme;
//! use ss_core::ShapeShifterCodec;
//! use ss_tensor::{FixedType, Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t = Tensor::from_vec(
//!     Shape::flat(8),
//!     FixedType::I16,
//!     vec![3, 0, -1, 0, 0, 0, 200, -7],
//! )?;
//! let codec = ShapeShifterCodec::new(16);
//! let encoded = codec.encode_with(&ShapeShifterScheme::default(), &t)?;
//! assert!(encoded.bit_len < t.container_bits()); // it compressed
//! assert_eq!(encoded.report.total_bits(), encoded.bit_len); // exactly
//! let back = codec.decode(&encoded)?; // under the scheme it names
//! assert_eq!(back, t); // losslessly
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod bytes;
mod checked;
pub mod checksum;
mod codec;
mod config;
pub mod decompressor;
mod detector;
mod error;
mod framing;
pub mod index;
pub mod kernels;
pub mod par;
pub mod registry;
pub mod scheme;
mod session;

pub use codec::{EncodedTensor, IndexPolicy, SchemeStream, ShapeShifterCodec};
pub use config::{CodecConfig, ExecPolicy, MeasureReport};
pub use detector::WidthDetector;
pub use error::CodecError;
pub use index::{ChunkEntry, ChunkIndex};
pub use registry::{ContainerScheme, SchemeId, SchemeRegistry, StreamFrame};
pub use session::CodecSession;

/// The blessed public surface, re-exported for glob import.
///
/// ```
/// use ss_core::prelude::*;
///
/// let codec = CodecConfig::new()
///     .with_exec(ExecPolicy::Sequential)
///     .build()
///     .expect("valid config");
/// let mut session = CodecSession::new(codec.config()).expect("valid config");
/// # let _ = (codec, &mut session);
/// ```
pub mod prelude {
    pub use crate::codec::{IndexPolicy, SchemeStream, ShapeShifterCodec};
    pub use crate::config::{CodecConfig, ExecPolicy, MeasureReport};
    pub use crate::error::CodecError;
    pub use crate::registry::{ContainerScheme, SchemeId, SchemeRegistry, StreamFrame};
    pub use crate::session::CodecSession;
}
