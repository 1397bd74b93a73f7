#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ShapeShifter
//!
//! A production-quality Rust reproduction of **"ShapeShifter: Enabling
//! Fine-Grain Data Width Adaptation in Deep Learning"** (Delmás Lascorz et
//! al., MICRO-52, 2019).
//!
//! ShapeShifter observes that deep-learning values are overwhelmingly
//! small in magnitude, so choosing one data width per network or per layer
//! is worst-case design. Instead it adapts the width **per group** of
//! 16–256 values — statically for weights, dynamically in hardware for
//! activations — and uses that to (1) losslessly compress off-chip
//! traffic to ~30% and (2) cut bit-serial accelerator cycles
//! proportionally.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`bitio`] — bit-granular stream I/O (the container substrate).
//! * [`tensor`] — fixed-point tensors and the width arithmetic of the
//!   paper's Figure 5c detector.
//! * [`models`] — a synthetic model zoo reproducing the published layer
//!   geometries and Table-1 per-layer value statistics of every network
//!   in the paper's Table 2.
//! * [`quant`] — TensorFlow-style, range-aware and outlier-aware
//!   quantizers plus per-layer profiling.
//! * [`core`] — the contribution: the per-group codec, the width
//!   detector, the off-chip compression schemes, the two-level
//!   decompressor model and the Section-2 analysis machinery.
//! * [`sim`] — DaDianNao*, Stripes, SStripes, Bit Fusion, SCNN and Loom
//!   simulators with DDR4 and energy models.
//!
//! # Quick start
//!
//! Compress a layer's worth of activations and verify losslessness:
//!
//! ```
//! use shapeshifter::core::scheme::ShapeShifterScheme;
//! use shapeshifter::core::ShapeShifterCodec;
//! use shapeshifter::models::zoo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = zoo::alexnet().scaled_down(8);
//! let acts = net.input_tensor(1, 42);
//!
//! let codec = ShapeShifterCodec::new(16);
//! let encoded = codec.encode_with(&ShapeShifterScheme::default(), &acts)?;
//! println!(
//!     "compressed {} values: {:.1}% of the 16b container",
//!     acts.len(),
//!     encoded.bit_len as f64 / acts.container_bits() as f64 * 100.0
//! );
//! assert_eq!(codec.decode(&encoded)?, acts);
//! # Ok(())
//! # }
//! ```
//!
//! Run the paper's headline comparison (SStripes vs Stripes):
//!
//! ```
//! use shapeshifter::core::scheme::{ProfileScheme, ShapeShifterScheme};
//! use shapeshifter::models::zoo;
//! use shapeshifter::sim::accel::{SStripes, Stripes};
//! use shapeshifter::sim::sim::{simulate, SimConfig};
//!
//! let net = zoo::googlenet().scaled_down(8);
//! let cfg = SimConfig::default();
//! let stripes = simulate(&net, &Stripes::new(), &ProfileScheme, &cfg, 1);
//! let sstripes = simulate(
//!     &net,
//!     &SStripes::new(),
//!     &ShapeShifterScheme::default(),
//!     &cfg,
//!     1,
//! );
//! assert!(sstripes.speedup_over(&stripes) > 1.0);
//! ```

pub mod container;

pub use ss_core::{ContainerScheme, SchemeId, SchemeRegistry, SchemeStream, StreamFrame};

pub use ss_bitio as bitio;
pub use ss_core as core;
pub use ss_models as models;
pub use ss_pipeline as pipeline;
pub use ss_quant as quant;
pub use ss_sim as sim;
pub use ss_tensor as tensor;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use ss_core::scheme::{
        AdaBitsScheme, Base, CompressionScheme, DpRed, ProfileScheme, SchemeCtx,
        ShapeShifterScheme, ZeroRle,
    };
    pub use ss_core::{
        CodecConfig, CodecError, CodecSession, ContainerScheme, ExecPolicy, MeasureReport,
        SchemeId, SchemeRegistry, SchemeStream, ShapeShifterCodec, StreamFrame, WidthDetector,
    };
    pub use ss_models::{zoo, LayerStats, Network, ValueGen};
    pub use ss_pipeline::{BatchReport, Pipeline, PipelineConfig, PipelineError};
    pub use ss_quant::{QuantMethod, QuantizedNetwork, RangeAwareQuantizer, TfQuantizer};
    pub use ss_sim::accel::{BitFusion, DaDianNao, Loom, SStripes, Scnn, Stripes};
    pub use ss_sim::sim::{simulate, RunResult, SimConfig};
    pub use ss_sim::{BufferConfig, DramConfig, TensorSource};
    pub use ss_tensor::{FixedType, Shape, Signedness, Tensor};
}
