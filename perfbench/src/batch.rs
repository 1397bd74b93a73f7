//! The closed-loop batch codec workload: every registered scheme's
//! `Pipeline::encode_batch_with` then `decode_batch_with` over one batch.

use std::time::{Duration, Instant};

use ss_core::SchemeStream;
use ss_pipeline::{fnv1a_64, Pipeline, PipelineConfig};
use ss_tensor::Tensor;

use crate::report::{Tally, SCHEMES};
use crate::serve::chain;
use crate::trace::SpanBuf;

/// One round: encode and decode time, and what was checked.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Time inside `encode_batch_with`, summed over schemes.
    pub encode: Duration,
    /// Time inside `decode_batch_with`, summed over schemes.
    pub decode: Duration,
    /// Tensor round trips attempted and failed.
    pub tally: Tally,
}

/// The batch, the pipeline, and the streams of the first round (every
/// later round must reproduce them bit for bit).
pub struct BatchBench<'a> {
    tensors: &'a [Tensor],
    pipeline: Pipeline,
    reference: Vec<Vec<SchemeStream>>,
    /// Stream bits per scheme, from the first round.
    pub bits: Vec<u64>,
}

impl<'a> BatchBench<'a> {
    /// A pipeline at `workers` workers, warmed by one verified round.
    ///
    /// # Errors
    ///
    /// A message if the pipeline cannot be built or the warm-up round
    /// fails.
    pub fn new(tensors: &'a [Tensor], workers: usize) -> Result<Self, String> {
        let pipeline = Pipeline::new(PipelineConfig::new().with_workers(workers))
            .map_err(|e| format!("pipeline: {e}"))?;
        let mut bench = Self {
            tensors,
            pipeline,
            reference: Vec::new(),
            bits: Vec::new(),
        };
        let mut spans = SpanBuf::new(Instant::now(), 0, false);
        let warm = bench.round(&mut spans, 0);
        if warm.tally.failed > 0 {
            return Err(format!(
                "warm-up round failed {} round trips",
                warm.tally.failed
            ));
        }
        Ok(bench)
    }

    /// Values in the batch.
    #[must_use]
    pub fn values(&self) -> u64 {
        self.tensors.iter().map(|t| t.len() as u64).sum()
    }

    /// Chained hash of the reference streams.
    #[must_use]
    pub fn stream_hash(&self) -> u64 {
        let mut h = 0;
        for s in self.reference.iter().flatten() {
            h = chain(h, u64::from(s.scheme.as_byte()));
            h = chain(h, s.bit_len);
            h = chain(h, fnv1a_64(&s.bytes));
        }
        h
    }

    /// Encodes and decodes the batch under every scheme, checking each
    /// decoded tensor against its source and each stream against the
    /// first round's. Only the two pipeline calls are timed.
    pub fn round(&mut self, spans: &mut SpanBuf, request: u64) -> Round {
        let mut out = Round::default();
        let first = self.reference.is_empty();
        for (k, &(_, scheme)) in SCHEMES.iter().enumerate() {
            out.tally.attempted += self.tensors.len() as u64;
            let t0 = Instant::now();
            let streams = self.pipeline.encode_batch_with(scheme, self.tensors);
            let t1 = Instant::now();
            let Ok(streams) = streams else {
                out.tally.failed += self.tensors.len() as u64;
                out.tally.wrong += self.tensors.len() as u64;
                continue;
            };
            let decoded = self.pipeline.decode_batch_with(&streams);
            let t2 = Instant::now();
            spans.record("pipeline.encode_batch_with", t0, t1, None, request);
            spans.record("pipeline.decode_batch_with", t1, t2, None, request);
            out.encode += t1 - t0;
            out.decode += t2 - t1;
            let decoded = decoded.unwrap_or_default();
            for (i, src) in self.tensors.iter().enumerate() {
                let same_tensor = decoded
                    .get(i)
                    .is_some_and(|d| d.dtype() == src.dtype() && d.values() == src.values());
                let same_stream = first || self.reference[k].get(i) == streams.get(i);
                if !(same_tensor && same_stream) {
                    out.tally.failed += 1;
                    out.tally.wrong += 1;
                }
            }
            if first {
                self.bits.push(streams.iter().map(|s| s.bit_len).sum());
                self.reference.push(streams);
            }
        }
        out
    }
}
