//! The worker-pool engine: a fixed pool of threads drains the bounded
//! submission queue, each worker owning one long-lived [`CodecSession`]
//! plus recycled container/tensor scratch, so steady state performs no
//! per-tensor heap allocation inside [`Pipeline::process`].
//!
//! # Determinism
//!
//! Which worker handles which tensor is a race, by design — that is the
//! load balancing. Determinism is recovered at the merge: every worker
//! tags each result with the tensor's **submission index**, results are
//! re-sorted into submission order after the pool joins, and only then
//! folded into the [`BatchReport`]. Because each container is a pure
//! function of (config, tensor) — the session-reuse property suite and
//! golden vectors pin this — the report's deterministic fields are
//! identical across runs, worker counts and hosts.
//!
//! This is the second concurrency containment module (with
//! [`crate::queue`]): thread spawning lives here and nowhere else in the
//! crate. Scoped threads (`std::thread::scope`) guarantee the pool cannot
//! outlive the borrowed batch.

use std::time::{Duration, Instant};

use ss_core::prelude::{
    CodecSession, EncodedTensor, ExecPolicy, SchemeId, SchemeRegistry, SchemeStream,
    ShapeShifterCodec,
};
use ss_core::IndexPolicy;
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::Counter;

use crate::queue::BoundedQueue;
use crate::report::{BatchReport, TensorRecord};
use crate::{fnv1a_64, PipelineConfig, PipelineError};

/// The batch engine: validated configuration plus the entry points that
/// run a worker pool over a borrowed batch.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

/// Per-worker state: the reusable session, recycled encode/decode
/// scratch, a sequential codec for the measure cross-check, and busy
/// timers.
struct WorkerCtx {
    session: CodecSession,
    seq: ShapeShifterCodec,
    scratch_out: EncodedTensor,
    scratch_back: Tensor,
    encode_busy: Duration,
    measure_busy: Duration,
    decode_busy: Duration,
}

impl WorkerCtx {
    fn new(config: &PipelineConfig) -> Result<Self, PipelineError> {
        let session = CodecSession::new(config.codec).map_err(PipelineError::InvalidConfig)?;
        // Measure runs sequentially inside the worker: the pool is the
        // parallelism, nesting chunk threads under it would oversubscribe.
        let seq = session.codec().with_exec(ExecPolicy::Sequential);
        Ok(Self {
            session,
            seq,
            scratch_out: EncodedTensor::default(),
            scratch_back: Tensor::zeros(Shape::flat(0), FixedType::U8),
            encode_busy: Duration::ZERO,
            measure_busy: Duration::ZERO,
            decode_busy: Duration::ZERO,
        })
    }
}

/// What one worker hands back at join: index-tagged results plus its
/// share of the busy time.
struct WorkerDone<O> {
    results: Vec<(usize, O)>,
    encode_busy: Duration,
    measure_busy: Duration,
    decode_busy: Duration,
}

/// A finished fan-out run before interpretation: outputs in submission
/// order plus the run's timing facts.
#[derive(Debug)]
struct RunOutput<O> {
    outputs: Vec<O>,
    encode_busy: Duration,
    measure_busy: Duration,
    decode_busy: Duration,
    queue_high_water: usize,
    elapsed: Duration,
}

impl Pipeline {
    /// Builds an engine from `config`, validating the codec configuration
    /// eagerly so a bad group size fails here, not inside a worker.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        config.codec.build().map_err(PipelineError::InvalidConfig)?;
        Ok(Self { config })
    }

    /// The configuration this engine runs.
    #[must_use]
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Worker threads a run will use (configured value clamped to >= 1).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Capacity of the bounded submission queue (clamped to >= 1).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.config.queue_depth.max(1)
    }

    /// Drives the whole batch through encode, the optional measure
    /// cross-check, and the optional decode round-trip verification,
    /// folding per-tensor accounting into a [`BatchReport`] in
    /// submission order.
    ///
    /// Containers are *not* retained — this is the throughput/verification
    /// path; use [`Pipeline::encode_batch`] to keep them. On the first
    /// per-tensor failure the queue closes, the pool winds down, and the
    /// error (tagged with the tensor's submission index) is returned.
    pub fn process(&self, tensors: &[Tensor]) -> Result<BatchReport, PipelineError> {
        let measure = self.config.measure;
        let decode = self.config.decode;
        let run = self.run_batch(tensors, &|ctx: &mut WorkerCtx, index, tensor: &Tensor| {
            // ss-lint: allow(determinism) -- busy-time clocks feed the timing half of BatchReport; the deterministic diff excludes them
            let t0 = Instant::now();
            ctx.session
                .encode_into(tensor, &mut ctx.scratch_out)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.encode_busy += t0.elapsed();

            if measure {
                // ss-lint: allow(determinism) -- timing half of BatchReport
                let t0 = Instant::now();
                let measured = ctx.seq.measure(tensor);
                ctx.measure_busy += t0.elapsed();
                if measured.metadata_bits != ctx.scratch_out.metadata_bits()
                    || measured.payload_bits != ctx.scratch_out.payload_bits()
                    || measured.groups != ctx.scratch_out.groups()
                {
                    return Err(PipelineError::MeasureMismatch { index });
                }
            }

            if decode {
                // ss-lint: allow(determinism) -- timing half of BatchReport
                let t0 = Instant::now();
                ctx.session
                    .decode_into(&ctx.scratch_out, &mut ctx.scratch_back)
                    .map_err(|source| PipelineError::Codec { index, source })?;
                ctx.decode_busy += t0.elapsed();
                if &ctx.scratch_back != tensor {
                    return Err(PipelineError::RoundTripMismatch { index });
                }
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

        let mut report = BatchReport::empty(self.workers(), self.queue_depth());
        for rec in &run.outputs {
            report.absorb(rec);
        }
        report.queue_high_water = run.queue_high_water;
        report.elapsed = run.elapsed;
        report.encode_busy = run.encode_busy;
        report.measure_busy = run.measure_busy;
        report.decode_busy = run.decode_busy;
        trace_batch(&report);
        Ok(report)
    }

    /// Encodes the batch and returns the containers in submission order.
    /// Each container is bit-identical to a one-shot
    /// `ShapeShifterCodec::encode` under the same codec configuration.
    pub fn encode_batch(&self, tensors: &[Tensor]) -> Result<Vec<EncodedTensor>, PipelineError> {
        let run = self.run_batch(tensors, &|ctx: &mut WorkerCtx, index, tensor: &Tensor| {
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let encoded = ctx
                .session
                .encode(tensor)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.encode_busy += t0.elapsed();
            Ok(encoded)
        })?;
        Ok(run.outputs)
    }

    /// Decodes a batch of containers back into tensors in submission
    /// order (the inverse of [`Pipeline::encode_batch`]).
    pub fn decode_batch(
        &self,
        containers: &[EncodedTensor],
    ) -> Result<Vec<Tensor>, PipelineError> {
        let run = self.run_batch(containers, &|ctx: &mut WorkerCtx, index, enc: &EncodedTensor| {
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let tensor = ctx
                .session
                .decode(enc)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.decode_busy += t0.elapsed();
            Ok(tensor)
        })?;
        Ok(run.outputs)
    }

    /// Encodes the batch under an arbitrary registered container scheme
    /// (DPRed, AdaBits, or any plug-in), returning one [`SchemeStream`]
    /// per tensor in submission order. Each stream is bit-identical to a
    /// single-session `CodecSession::encode_with_scheme` under the same
    /// configuration, for every worker count.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidConfig`] if `scheme` is not registered
    /// (typed `UnknownScheme`, resolved once before any worker spawns);
    /// per-tensor codec failures as [`PipelineError::Codec`].
    pub fn encode_batch_with(
        &self,
        scheme: impl Into<SchemeId>,
        tensors: &[Tensor],
    ) -> Result<Vec<SchemeStream>, PipelineError> {
        let scheme = SchemeRegistry::global()
            .get(scheme.into())
            .map_err(PipelineError::InvalidConfig)?;
        let run = self.run_batch(tensors, &|ctx: &mut WorkerCtx, index, tensor: &Tensor| {
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let mut out = SchemeStream::default();
            ctx.session
                .encode_with_scheme(scheme, tensor, IndexPolicy::Auto, &mut out)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.encode_busy += t0.elapsed();
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
    /// whose id has no registration, or the underlying decode failure.
    pub fn decode_batch_with(
        &self,
        streams: &[SchemeStream],
    ) -> Result<Vec<Tensor>, PipelineError> {
        let run = self.run_batch(streams, &|ctx: &mut WorkerCtx, index, s: &SchemeStream| {
            let scheme = SchemeRegistry::global()
                .get(s.scheme)
                .map_err(|source| PipelineError::Codec { index, source })?;
            // ss-lint: allow(determinism) -- timing half of BatchReport
            let t0 = Instant::now();
            let mut tensor = Tensor::zeros(Shape::flat(0), FixedType::U8);
            ctx.session
                .decode_with_scheme(scheme, s, &mut tensor)
                .map_err(|source| PipelineError::Codec { index, source })?;
            ctx.decode_busy += t0.elapsed();
            Ok(tensor)
        })?;
        Ok(run.outputs)
    }

    /// The fan-out skeleton shared by every entry point: spawn the pool,
    /// feed the bounded queue (blocking on backpressure), join, then
    /// merge index-tagged results back into submission order.
    fn run_batch<I, O, F>(&self, items: &[I], work: &F) -> Result<RunOutput<O>, PipelineError>
    where
        I: Sync,
        O: Send,
        F: Fn(&mut WorkerCtx, usize, &I) -> Result<O, PipelineError> + Sync,
    {
        let workers = self.workers();
        let queue: BoundedQueue<(usize, &I)> = BoundedQueue::new(self.queue_depth());
        let config = &self.config;
        // ss-lint: allow(determinism) -- wall-clock elapsed is the timing half of BatchReport; the deterministic diff excludes it
        let started = Instant::now();

        let joined: Vec<Result<WorkerDone<O>, PipelineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = &queue;
                    scope.spawn(move || -> Result<WorkerDone<O>, PipelineError> {
                        let mut ctx = match WorkerCtx::new(config) {
                            Ok(ctx) => ctx,
                            Err(e) => {
                                queue.close();
                                return Err(e);
                            }
                        };
                        let mut results = Vec::new();
                        while let Some((index, item)) = queue.pop() {
                            match work(&mut ctx, index, item) {
                                Ok(out) => results.push((index, out)),
                                Err(e) => {
                                    // Stop the producer and let the pool
                                    // wind down; first error wins.
                                    queue.close();
                                    return Err(e);
                                }
                            }
                        }
                        Ok(WorkerDone {
                            results,
                            encode_busy: ctx.encode_busy,
                            measure_busy: ctx.measure_busy,
                            decode_busy: ctx.decode_busy,
                        })
                    })
                })
                .collect();

            for pair in items.iter().enumerate() {
                if !queue.push(pair) {
                    break; // a worker closed the queue on error
                }
            }
            queue.close();

            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err(PipelineError::WorkerPanicked)))
                .collect()
        });
        let elapsed = started.elapsed();

        let mut slots: Vec<Option<O>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        let mut encode_busy = Duration::ZERO;
        let mut measure_busy = Duration::ZERO;
        let mut decode_busy = Duration::ZERO;
        for done in joined {
            let done = done?;
            encode_busy += done.encode_busy;
            measure_busy += done.measure_busy;
            decode_busy += done.decode_busy;
            for (index, out) in done.results {
                if let Some(slot) = slots.get_mut(index) {
                    *slot = Some(out);
                }
            }
        }
        let outputs = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| slot.ok_or(PipelineError::MissingResult { index }))
            .collect::<Result<Vec<O>, PipelineError>>()?;

        Ok(RunOutput {
            outputs,
            encode_busy,
            measure_busy,
            decode_busy,
            queue_high_water: queue.high_water(),
            elapsed,
        })
    }
}

/// Emits the batch's counters to the installed trace recorder (no-op
/// under the default [`ss_trace::NoopRecorder`]).
fn trace_batch(report: &BatchReport) {
    let rec = ss_trace::global();
    if !rec.enabled() {
        return;
    }
    rec.add(Counter::PipelineBatches, 1);
    rec.add(Counter::PipelineTensors, report.tensors);
    rec.add(Counter::PipelineQueueHighWater, report.queue_high_water as u64);
    rec.add(Counter::PipelineEncodeBusyNanos, nanos(report.encode_busy));
    rec.add(Counter::PipelineMeasureBusyNanos, nanos(report.measure_busy));
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
        // A failing item must surface its own submission index and close
        // the queue (the run returns instead of hanging), even with the
        // producer blocked on backpressure behind a tiny queue.
        let pipeline =
            Pipeline::new(PipelineConfig::new().with_workers(4).with_queue_depth(2))
                .expect("valid config");
        let items: Vec<usize> = (0..200).collect();
        let result = pipeline.run_batch(&items, &|_ctx, index, _item: &usize| {
            if index == 57 {
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

    #[test]
    fn run_batch_restores_submission_order() {
        let pipeline =
            Pipeline::new(PipelineConfig::new().with_workers(8).with_queue_depth(3))
                .expect("valid config");
        let items: Vec<usize> = (0..500).collect();
        let run = pipeline
            .run_batch(&items, &|_ctx, index, item: &usize| Ok(index * 10 + item % 10))
            .expect("no failures");
        let expected: Vec<usize> = items.iter().map(|i| i * 10 + i % 10).collect();
        assert_eq!(run.outputs, expected);
        assert!(run.queue_high_water <= 3, "backpressure bound held");
    }

    #[test]
    fn worker_count_and_queue_depth_are_clamped() {
        let pipeline =
            Pipeline::new(PipelineConfig::new().with_workers(0).with_queue_depth(0))
                .expect("valid config");
        assert_eq!(pipeline.workers(), 1);
        assert_eq!(pipeline.queue_depth(), 1);
    }
}
