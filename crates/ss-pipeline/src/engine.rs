//! The batch engine: each entry point is one
//! [`ss_core::par::par_map_with`] call, each worker holding only the state
//! that entry point uses.
//!
//! - [`Pipeline::encode_batch_with`] and [`Pipeline::decode_batch_with`]
//!   hold a clone of the engine's [`CodecSession`].
//! - [`Pipeline::process`] holds the session, a recycled stream, a
//!   recycled tensor and a sequential codec for the measure cross-check,
//!   so its steady state performs no per-tensor heap allocation. It is the
//!   only entry point that reads clocks.
//!
//! # Determinism
//!
//! Which worker handles which tensor is a race, by design — that is the
//! load balancing. Determinism is recovered at the merge: `par_map_with`
//! hands results back in submission order, and only then are they folded
//! into the [`BatchReport`] or the output vector. Because each container
//! is a pure function of (config, tensor) — the session-reuse property
//! suite and golden vectors pin this — the report's deterministic fields
//! are identical across runs, worker counts and hosts. Every tensor is
//! attempted, so when several fail the lowest-indexed failure is the one
//! returned, whatever the worker count.
//!
//! The engine owns no threads: spawning, joining and panic propagation
//! are argued once, in `ss_core::par`.

use std::time::{Duration, Instant};

use ss_core::par::par_map_with;
use ss_core::prelude::{CodecSession, ExecPolicy, SchemeId, SchemeRegistry, SchemeStream};
use ss_core::scheme::ShapeShifterScheme;
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::Counter;

use crate::report::{BatchReport, TensorRecord};
use crate::{fnv1a_64, PipelineConfig, PipelineError};

/// The batch engine: validated configuration, the session every worker
/// clones, and the entry points that map a borrowed batch over workers.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    session: CodecSession,
}

impl Pipeline {
    /// Builds an engine from `config`, building the codec session every
    /// worker clones, so a bad group size fails here, not inside a worker.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        let session = CodecSession::new(config.codec).map_err(PipelineError::InvalidConfig)?;
        Ok(Self { config, session })
    }

    /// The configuration this engine runs.
    #[must_use]
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Workers a run will use (configured value clamped to >= 1; a run
    /// never uses more workers than it has tensors).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Drives the whole batch through encode, the measure cross-check and
    /// the decode round-trip verification, folding per-tensor accounting
    /// and busy time into a [`BatchReport`] in submission order.
    ///
    /// Streams are *not* retained — this is the throughput/verification
    /// path; use [`Pipeline::encode_batch_with`] to keep them. A stream
    /// carries no shape, so the round trip compares dtype and values. Every
    /// tensor is attempted; on failure the lowest-indexed error (tagged
    /// with the tensor's submission index) is returned.
    pub fn process(&self, tensors: &[Tensor]) -> Result<BatchReport, PipelineError> {
        // ss-lint: allow(determinism) -- wall-clock elapsed is the timing half of BatchReport; the deterministic diff excludes it
        let started = Instant::now();
        let results = par_map_with(
            tensors,
            self.workers(),
            || {
                (
                    self.session.clone(),
                    // Measure runs sequentially inside the worker: the
                    // workers are the parallelism, nesting chunk threads
                    // under them would oversubscribe.
                    self.session.codec().with_exec(ExecPolicy::Sequential),
                    SchemeStream::default(),
                    Tensor::zeros(Shape::flat(0), FixedType::U8),
                )
            },
            |(session, seq, out, back), index, tensor| {
                // ss-lint: allow(determinism) -- busy-time clocks feed the timing half of BatchReport; the deterministic diff excludes them
                let t0 = Instant::now();
                session
                    .encode_stream(&ShapeShifterScheme::default(), tensor, out)
                    .map_err(|source| PipelineError::Codec { index, source })?;
                let encode = t0.elapsed();

                // ss-lint: allow(determinism) -- timing half of BatchReport
                let t0 = Instant::now();
                let measured = seq.measure(tensor);
                let measure = t0.elapsed();
                let report = out.report;
                if measured != report {
                    return Err(PipelineError::MeasureMismatch { index });
                }

                // ss-lint: allow(determinism) -- timing half of BatchReport
                let t0 = Instant::now();
                session
                    .decode_stream(out, back)
                    .map_err(|source| PipelineError::Codec { index, source })?;
                let decode = t0.elapsed();
                if back.dtype() != tensor.dtype() || back.values() != tensor.values() {
                    return Err(PipelineError::RoundTripMismatch { index });
                }

                let record = TensorRecord {
                    values: tensor.len() as u64,
                    uncompressed_bits: tensor.container_bits(),
                    stream_bits: out.bit_len,
                    metadata_bits: report.metadata_bits,
                    payload_bits: report.payload_bits,
                    groups: report.groups as u64,
                    stream_hash: fnv1a_64(&out.bytes),
                };
                Ok((record, (encode, measure, decode)))
            },
        );
        let elapsed = started.elapsed();

        // Results are in submission order, so the first error met is the
        // lowest-indexed one.
        let mut report = BatchReport::empty(self.workers());
        for result in results {
            let (record, (encode, measure, decode)) = result?;
            report.absorb(&record);
            report.encode_busy += encode;
            report.measure_busy += measure;
            report.decode_busy += decode;
        }
        report.elapsed = elapsed;
        trace_batch(&report);
        Ok(report)
    }

    /// Encodes the batch under a registered container scheme (ShapeShifter,
    /// Delta, DPRed, AdaBits), returning one [`SchemeStream`] per tensor in
    /// submission order, indexed under the configured `codec.index_policy`.
    /// Each stream is bit-identical to a one-shot
    /// `ShapeShifterCodec::encode_with` under the same configuration, for
    /// every worker count.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidConfig`] if `scheme` is not registered
    /// (typed `UnknownScheme`, resolved once before any tensor is
    /// encoded); per-tensor codec failures as [`PipelineError::Codec`],
    /// the lowest-indexed one when several tensors fail.
    pub fn encode_batch_with(
        &self,
        scheme: impl Into<SchemeId>,
        tensors: &[Tensor],
    ) -> Result<Vec<SchemeStream>, PipelineError> {
        let scheme = SchemeRegistry::global()
            .get(scheme.into())
            .map_err(PipelineError::InvalidConfig)?;
        let results = par_map_with(
            tensors,
            self.workers(),
            || self.session.clone(),
            |session, index, tensor| {
                let mut out = SchemeStream::default();
                session
                    .encode_stream(scheme, tensor, &mut out)
                    .map_err(|source| PipelineError::Codec { index, source })?;
                Ok(out)
            },
        );
        // In submission order, so the error collected is the lowest-indexed.
        results.into_iter().collect()
    }

    /// Decodes a batch of [`SchemeStream`]s back into tensors in
    /// submission order (the inverse of [`Pipeline::encode_batch_with`]).
    /// Each stream is decoded under the scheme its own wire id names, so
    /// one batch may mix schemes.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Codec`] carrying `UnknownScheme` for a stream
    /// whose id has no registration, or the underlying decode failure —
    /// the lowest-indexed one when several streams fail.
    pub fn decode_batch_with(
        &self,
        streams: &[SchemeStream],
    ) -> Result<Vec<Tensor>, PipelineError> {
        let results = par_map_with(
            streams,
            self.workers(),
            || self.session.clone(),
            |session, index, stream| {
                let mut tensor = Tensor::zeros(Shape::flat(0), FixedType::U8);
                session
                    .decode_stream(stream, &mut tensor)
                    .map_err(|source| PipelineError::Codec { index, source })?;
                Ok(tensor)
            },
        );
        // In submission order, so the error collected is the lowest-indexed.
        results.into_iter().collect()
    }

    /// [`Pipeline::encode_batch_with`] under the ShapeShifter scheme. Kept
    /// for the benchmark's sources until their next change (ROADMAP item
    /// 5).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::encode_batch_with`].
    pub fn encode_batch(&self, tensors: &[Tensor]) -> Result<Vec<SchemeStream>, PipelineError> {
        self.encode_batch_with(SchemeId::SHAPESHIFTER, tensors)
    }

    /// [`Pipeline::decode_batch_with`]. Kept for the benchmark's sources
    /// until their next change (ROADMAP item 5).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::decode_batch_with`].
    pub fn decode_batch(&self, streams: &[SchemeStream]) -> Result<Vec<Tensor>, PipelineError> {
        self.decode_batch_with(streams)
    }
}

/// Emits the batch's counters to the installed trace recorder (no-op
/// when [`ss_trace::installed`] finds none).
fn trace_batch(report: &BatchReport) {
    let Some(rec) = ss_trace::installed() else {
        return;
    };
    rec.add(Counter::PipelineBatches, 1);
    rec.add(Counter::PipelineTensors, report.tensors);
    rec.add(Counter::PipelineEncodeBusyNanos, nanos(report.encode_busy));
    rec.add(
        Counter::PipelineMeasureBusyNanos,
        nanos(report.measure_busy),
    );
    rec.add(Counter::PipelineDecodeBusyNanos, nanos(report.decode_busy));
}

/// Saturating nanosecond count for a counter slot.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_error_stops_the_pool_and_is_index_tagged() {
        // Failing items surface as the lowest failing submission index,
        // at every worker count, and the run returns instead of hanging.
        let tensor = Tensor::from_vec(Shape::flat(40), FixedType::I16, (-20..20).collect())
            .expect("values fit I16");
        let pipeline = Pipeline::new(PipelineConfig::new()).expect("valid config");
        let mut streams = pipeline.encode_batch(&vec![tensor; 200]).expect("encodes");
        for bad in [57, 140] {
            streams[bad].scheme = SchemeId::new(200);
        }
        for workers in [1, 2, 4, 8] {
            let pipeline =
                Pipeline::new(PipelineConfig::new().with_workers(workers)).expect("valid config");
            match pipeline.decode_batch_with(&streams) {
                Err(PipelineError::Codec { index, .. }) => assert_eq!(index, 57),
                other => panic!("expected a codec failure at 57, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        let pipeline = Pipeline::new(PipelineConfig::new().with_workers(0)).expect("valid config");
        assert_eq!(pipeline.workers(), 1);
    }
}
