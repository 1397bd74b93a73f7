//! Bounded-memory batch throughput engine for the ShapeShifter codec.
//!
//! One [`Pipeline`] drives many tensors through **encode → (optional
//! measure cross-check) → (optional decode round-trip)** on a fixed pool
//! of worker threads. Three properties define the design:
//!
//! - **Bounded memory.** Submission goes through a bounded queue
//!   ([`queue::BoundedQueue`]); when workers fall behind, the producer
//!   blocks. In-flight state is `queue_depth` borrowed tensors plus one
//!   scratch set per worker — independent of batch size.
//! - **Zero steady-state allocation.** Each worker owns one long-lived
//!   [`ss_core::CodecSession`] plus a recycled container and tensor, so
//!   after warm-up the hot loop of [`Pipeline::process`] does not touch
//!   the heap (the session contract is pinned by a counting-allocator
//!   test in ss-core).
//! - **Deterministic results.** Work distribution races; results do not.
//!   Every result carries its submission index and is merged back into
//!   submission order, and each container is a pure function of
//!   (config, tensor) — so [`BatchReport`]'s accounting fields and its
//!   chained `stream_hash` are identical across runs and worker counts.
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

/// How a [`Pipeline`] runs: codec settings, pool size, queue bound, and
/// which verification stages are on.
///
/// `#[non_exhaustive]`: build with [`PipelineConfig::new`] + `with_*`
/// so added knobs are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Codec configuration every worker session is built from.
    pub codec: CodecConfig,
    /// Worker threads (0 is treated as 1).
    pub workers: usize,
    /// Bounded submission-queue capacity (0 is treated as 1). This plus
    /// one scratch set per worker bounds in-flight memory.
    pub queue_depth: usize,
    /// Cross-check `measure`'s accounting against each written container.
    pub measure: bool,
    /// Decode each container and verify the round trip losslessly.
    pub decode: bool,
}

impl PipelineConfig {
    /// Defaults: default codec, 1 worker, queue depth 4, both
    /// verification stages on — the full encode/measure/decode pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self {
            codec: CodecConfig::new(),
            workers: 1,
            queue_depth: 4,
            measure: true,
            decode: true,
        }
    }

    /// Sets the codec configuration for every worker session.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the worker-pool size.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded submission-queue capacity.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Enables/disables the measure cross-check stage.
    #[must_use]
    pub fn with_measure(mut self, measure: bool) -> Self {
        self.measure = measure;
        self
    }

    /// Enables/disables the decode round-trip stage.
    #[must_use]
    pub fn with_decode(mut self, decode: bool) -> Self {
        self.decode = decode;
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
            .with_workers(4)
            .with_queue_depth(16)
            .with_measure(false)
            .with_decode(false);
        assert_eq!(cfg.codec.group_size, 8);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_depth, 16);
        assert!(!cfg.measure);
        assert!(!cfg.decode);
    }

    #[test]
    fn defaults_run_the_full_pipeline() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.workers, 1);
        assert!(cfg.measure);
        assert!(cfg.decode);
    }
}
