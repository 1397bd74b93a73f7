//! Batch throughput engine for the ShapeShifter codec.
//!
//! One [`Pipeline`] drives many tensors through **encode → measure
//! cross-check → decode round-trip** on a fixed number of workers. Three
//! properties define the design:
//!
//! - **One worker primitive, called directly.** Each entry point is one
//!   [`ss_core::par::par_map_with`] call: workers claim tensors by index
//!   from one atomic counter, the calling thread is one of them, and the
//!   engine itself owns no threads — a one-worker run spawns nothing.
//! - **Only the state each entry point uses.** A worker of
//!   [`Pipeline::encode_batch_with`] or [`Pipeline::decode_batch_with`]
//!   owns a clone of the engine's [`ss_core::CodecSession`] and allocates
//!   per tensor only the output it returns. A worker of
//!   [`Pipeline::process`] also owns a recycled stream and tensor and a
//!   sequential measuring codec, so after warm-up its hot loop does not
//!   touch the heap, and it alone reads clocks (pinned by the
//!   counting-allocator tests `tests/pipeline_alloc.rs` and
//!   `tests/batch_alloc.rs`; the session contract itself by one in
//!   ss-core).
//! - **Deterministic results.** Work distribution races; results do not.
//!   Results come back in submission order, every tensor is attempted
//!   (so the lowest-indexed failure is the one returned), and each
//!   container is a pure function of (config, tensor) — so
//!   [`BatchReport`]'s accounting fields and its chained `stream_hash`
//!   are identical across runs and worker counts.
//!
//! [`BoundedQueue`] lives here too: it is `ss-serve`'s admission queue,
//! not part of the engine.
//!
//! ```
//! use ss_pipeline::{Pipeline, PipelineConfig};
//! use ss_tensor::{FixedType, Shape, Tensor};
//!
//! let tensors: Vec<Tensor> = (0..16)
//!     .map(|i| {
//!         let vals = (0..200).map(|v| ((v * 7 + i) % 19) - 9).collect();
//!         Tensor::from_vec(Shape::flat(200), FixedType::I16, vals).unwrap()
//!     })
//!     .collect();
//!
//! let pipeline = Pipeline::new(PipelineConfig::new().with_workers(2)).unwrap();
//! let report = pipeline.process(&tensors).unwrap();
//! assert_eq!(report.tensors, 16);
//! assert!(report.ratio() < 1.0, "skewed values compress");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use ss_core::prelude::CodecConfig;

mod engine;
mod error;
pub mod queue;
mod report;

pub use engine::Pipeline;
pub use error::PipelineError;
pub use queue::{BoundedQueue, TryPushError};
pub use report::BatchReport;
/// 64-bit FNV-1a, the stream hash [`BatchReport`] chains — re-exported so
/// benches hash one-shot containers with bit-for-bit the same code.
pub use ss_core::checksum::fnv1a_64;

/// How a [`Pipeline`] runs: codec settings and worker count.
///
/// `#[non_exhaustive]`: build with [`PipelineConfig::new`] + `with_*`
/// so added knobs are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Codec configuration every worker session is built from.
    pub codec: CodecConfig,
    /// Workers (0 is treated as 1; the calling thread is one of them).
    pub workers: usize,
}

impl PipelineConfig {
    /// Defaults: default codec, 1 worker.
    #[must_use]
    pub fn new() -> Self {
        Self {
            codec: CodecConfig::new(),
            workers: 1,
        }
    }

    /// Sets the codec configuration for every worker session.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the number of workers.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let cfg = PipelineConfig::new()
            .with_codec(CodecConfig::new().with_group_size(8))
            .with_workers(4);
        assert_eq!(cfg.codec.group_size, 8);
        assert_eq!(cfg.workers, 4);
    }

    #[test]
    fn defaults_run_the_full_pipeline() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.codec, CodecConfig::new());
    }
}
