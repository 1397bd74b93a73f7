//! The batch engine: one [`ss_core::par::par_map_with`] call per batch,
//! each worker owning a clone of the engine's [`CodecSession`] plus
//! recycled container/tensor scratch, so steady state performs no
//! per-tensor heap allocation inside [`Pipeline::process`].
//!
//! # Determinism
//!
//! Which worker handles which tensor is a race, by design — that is the
//! load balancing. Determinism is recovered at the merge: `par_map_with`
//! hands results back in submission order, and only then are they folded
//! into the [`BatchReport`]. Because each container is a pure function
//! of (config, tensor) — the session-reuse property suite and golden
//! vectors pin this — the report's deterministic fields are identical
//! across runs, worker counts and hosts. Every tensor is attempted, so
//! when several fail the lowest-indexed failure is the one returned,
//! whatever the worker count.
//!
//! The engine owns no threads: spawning, joining and panic propagation
//! are argued once, in `ss_core::par`.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use ss_core::par::par_map_with;
use ss_core::prelude::{
    CodecSession, EncodedTensor, ExecPolicy, SchemeId, SchemeRegistry, SchemeStream,
    ShapeShifterCodec,
};
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

/// Time one tensor spent in each stage.
#[derive(Debug, Clone, Copy, Default)]
struct Busy {
    encode: Duration,
    measure: Duration,
    decode: Duration,
}

impl AddAssign for Busy {
    fn add_assign(&mut self, other: Self) {
        self.encode += other.encode;
        self.measure += other.measure;
        self.decode += other.decode;
    }
}

/// Per-worker state: the reusable session, recycled encode/decode
/// scratch, a sequential codec for the measure cross-check, and the
/// current tensor's busy time.
struct WorkerCtx {
    session: CodecSession,
    seq: ShapeShifterCodec,
    scratch_out: EncodedTensor,
    scratch_back: Tensor,
    busy: Busy,
}

impl WorkerCtx {
    fn new(session: &CodecSession) -> Self {
        Self {
            session: session.clone(),
            // Measure runs sequentially inside the worker: the workers are
            // the parallelism, nesting chunk threads under them would
            // oversubscribe.
            seq: session.codec().with_exec(ExecPolicy::Sequential),
            scratch_out: EncodedTensor::default(),
            scratch_back: Tensor::zeros(Shape::flat(0), FixedType::U8),
            busy: Busy::default(),
        }
    }
}

/// A finished batch before interpretation: outputs in submission order
/// plus the run's timing facts.
#[derive(Debug)]
struct RunOutput<O> {
    outputs: Vec<O>,
    busy: Busy,
    elapsed: Duration,
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
    /// into a [`BatchReport`] in submission order.
    ///
    /// Containers are *not* retained — this is the throughput/verification
    /// path; use [`Pipeline::encode_batch`] to keep them. Every tensor is
    /// attempted; on failure the lowest-indexed error (tagged with the
    /// tensor's submission index) is returned.
    pub fn process(&self, tensors: &[Tensor]) -> Result<BatchReport, PipelineError> {
        let run = self.run_batch(tensors, |ctx: &mut WorkerCtx, index, tensor: &Tensor| {
            // ss-lint: allow(determinism) -- busy-time clocks feed the timing half of BatchReport; the deterministic diff excludes them
            let t0 = Instant::now();
            ctx.session
                .encode_into(tensor, &mut ctx.scratch_out)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.busy.encode += t0.elapsed();

            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let measured = ctx.seq.measure(tensor);
            ctx.busy.measure += t0.elapsed();
            if measured.metadata_bits != ctx.scratch_out.metadata_bits()
                || measured.payload_bits != ctx.scratch_out.payload_bits()
                || measured.groups != ctx.scratch_out.groups()
            {
                return Err(PipelineError::MeasureMismatch { index });
            }

            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            ctx.session
                .decode_into(&ctx.scratch_out, &mut ctx.scratch_back)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.busy.decode += t0.elapsed();
            if &ctx.scratch_back != tensor {
                return Err(PipelineError::RoundTripMismatch { index });
            }

            Ok(TensorRecord {
                values: tensor.len() as u64,
                uncompressed_bits: ctx.scratch_out.uncompressed_bits(),
                stream_bits: ctx.scratch_out.bit_len(),
                metadata_bits: ctx.scratch_out.metadata_bits(),
                payload_bits: ctx.scratch_out.payload_bits(),
                groups: ctx.scratch_out.groups() as u64,
                stream_hash: fnv1a_64(ctx.scratch_out.bytes()),
            })
        })?;

        let mut report = BatchReport::empty(self.workers());
        for rec in &run.outputs {
            report.absorb(rec);
        }
        report.elapsed = run.elapsed;
        report.encode_busy = run.busy.encode;
        report.measure_busy = run.busy.measure;
        report.decode_busy = run.busy.decode;
        trace_batch(&report);
        Ok(report)
    }

    /// Encodes the batch and returns the containers in submission order.
    /// Each container is bit-identical to a one-shot
    /// `ShapeShifterCodec::encode` under the same codec configuration.
    pub fn encode_batch(&self, tensors: &[Tensor]) -> Result<Vec<EncodedTensor>, PipelineError> {
        let run = self.run_batch(tensors, |ctx: &mut WorkerCtx, index, tensor: &Tensor| {
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let encoded = ctx
                .session
                .encode(tensor)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.busy.encode += t0.elapsed();
            Ok(encoded)
        })?;
        Ok(run.outputs)
    }

    /// Decodes a batch of containers back into tensors in submission
    /// order (the inverse of [`Pipeline::encode_batch`]).
    pub fn decode_batch(&self, containers: &[EncodedTensor]) -> Result<Vec<Tensor>, PipelineError> {
        let run = self.run_batch(
            containers,
            |ctx: &mut WorkerCtx, index, enc: &EncodedTensor| {
                // ss-lint: allow(determinism) -- timing half of BatchReport
                let t0 = Instant::now();
                let tensor = ctx
                    .session
                    .decode(enc)
                    .map_err(|source| PipelineError::Codec { index, source })?;
                ctx.busy.decode += t0.elapsed();
                Ok(tensor)
            },
        )?;
        Ok(run.outputs)
    }

    /// Encodes the batch under an arbitrary registered container scheme
    /// (DPRed, AdaBits, or any plug-in), returning one [`SchemeStream`]
    /// per tensor in submission order, indexed under the configured
    /// `codec.index_policy`. Each stream is bit-identical to a
    /// single-session `CodecSession::encode_with_scheme` under the same
    /// configuration, for every worker count.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidConfig`] if `scheme` is not registered
    /// (typed `UnknownScheme`, resolved once before any tensor is
    /// encoded); per-tensor codec failures as [`PipelineError::Codec`].
    pub fn encode_batch_with(
        &self,
        scheme: impl Into<SchemeId>,
        tensors: &[Tensor],
    ) -> Result<Vec<SchemeStream>, PipelineError> {
        let scheme = SchemeRegistry::global()
            .get(scheme.into())
            .map_err(PipelineError::InvalidConfig)?;
        let policy = self.config.codec.index_policy;
        let run = self.run_batch(tensors, |ctx: &mut WorkerCtx, index, tensor: &Tensor| {
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let mut out = SchemeStream::default();
            ctx.session
                .encode_with_scheme(scheme, tensor, policy, &mut out)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.busy.encode += t0.elapsed();
            Ok(out)
        })?;
        Ok(run.outputs)
    }

    /// Decodes a batch of [`SchemeStream`]s back into tensors in
    /// submission order (the inverse of [`Pipeline::encode_batch_with`]).
    /// Each stream's own wire id is resolved against the global registry,
    /// so one batch may mix schemes.
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
        let run = self.run_batch(streams, |ctx: &mut WorkerCtx, index, s: &SchemeStream| {
            let scheme = SchemeRegistry::global()
                .get(s.scheme)
                .map_err(|source| PipelineError::Codec { index, source })?;
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let mut tensor = Tensor::zeros(Shape::flat(0), FixedType::U8);
            ctx.session
                .decode_with_scheme(scheme, s, &mut tensor)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.busy.decode += t0.elapsed();
            Ok(tensor)
        })?;
        Ok(run.outputs)
    }

    /// The skeleton shared by every entry point: map `work` over the
    /// batch on [`Pipeline::workers`] workers, each tensor reporting its
    /// own busy time, then return the outputs in submission order or the
    /// lowest-indexed failure.
    fn run_batch<I, O, F>(&self, items: &[I], work: F) -> Result<RunOutput<O>, PipelineError>
    where
        I: Sync,
        O: Send,
        F: Fn(&mut WorkerCtx, usize, &I) -> Result<O, PipelineError> + Sync,
    {
        // ss-lint: allow(determinism) -- wall-clock elapsed is the timing half of BatchReport; the deterministic diff excludes it
        let started = Instant::now();
        let results = par_map_with(
            items,
            self.workers(),
            || WorkerCtx::new(&self.session),
            |ctx, index, item| {
                let out = work(ctx, index, item);
                (out, std::mem::take(&mut ctx.busy))
            },
        );
        let elapsed = started.elapsed();

        // Results are in submission order, so the first error met is the
        // lowest-indexed one.
        let mut busy = Busy::default();
        let mut outputs = Vec::with_capacity(results.len());
        for (out, item_busy) in results {
            busy += item_busy;
            outputs.push(out?);
        }
        Ok(RunOutput {
            outputs,
            busy,
            elapsed,
        })
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
    use crate::PipelineConfig;

    #[test]
    fn worker_error_stops_the_pool_and_is_index_tagged() {
        // Failing items surface as the lowest failing submission index,
        // at every worker count, and the run returns instead of hanging.
        for workers in [1, 2, 4, 8] {
            let pipeline =
                Pipeline::new(PipelineConfig::new().with_workers(workers)).expect("valid config");
            let items: Vec<usize> = (0..200).collect();
            let result = pipeline.run_batch(&items, |_ctx, index, _item: &usize| {
                if index == 57 || index == 140 {
                    Err(PipelineError::RoundTripMismatch { index })
                } else {
                    Ok(index)
                }
            });
            match result {
                Err(PipelineError::RoundTripMismatch { index }) => assert_eq!(index, 57),
                other => panic!("expected RoundTripMismatch at 57, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_batch_restores_submission_order() {
        let pipeline = Pipeline::new(PipelineConfig::new().with_workers(8)).expect("valid config");
        let items: Vec<usize> = (0..500).collect();
        let run = pipeline
            .run_batch(&items, |_ctx, index, item: &usize| {
                Ok(index * 10 + item % 10)
            })
            .expect("no failures");
        let expected: Vec<usize> = items.iter().map(|i| i * 10 + i % 10).collect();
        assert_eq!(run.outputs, expected);
    }

    #[test]
    fn worker_count_is_clamped() {
        let pipeline = Pipeline::new(PipelineConfig::new().with_workers(0)).expect("valid config");
        assert_eq!(pipeline.workers(), 1);
    }
}
