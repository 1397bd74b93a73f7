//! Batch results: per-tensor records folded into a [`BatchReport`].
//!
//! The report separates **deterministic** fields (value counts, bit
//! accounting, the batch stream hash — identical across runs, worker
//! counts and hosts for the same inputs) from **timing** fields (elapsed
//! wall clock, per-stage busy time — machine facts). Downstream gates pin the former and only sanity-check the
//! latter, mirroring the `BENCH_*.json` / `BENCH_*_timings.json` split.

use std::time::Duration;

use ss_core::checksum::{fnv1a_update, FNV_OFFSET};

/// Deterministic per-tensor facts a worker records after finishing one
/// tensor; merged into the [`BatchReport`] in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TensorRecord {
    /// Values in the tensor.
    pub values: u64,
    /// Bits the tensor occupies uncompressed (len x container width).
    pub uncompressed_bits: u64,
    /// Bits of the encoded stream (metadata + payload).
    pub stream_bits: u64,
    /// `Z`-vector + `P`-prefix bits.
    pub metadata_bits: u64,
    /// Sign-magnitude payload bits.
    pub payload_bits: u64,
    /// Groups the tensor encoded into.
    pub groups: u64,
    /// FNV-1a over the encoded stream bytes.
    pub stream_hash: u64,
}

/// Everything a batch run produces besides the side effects: bit
/// accounting, the chained stream hash, and the run's timing profile.
///
/// `#[non_exhaustive]`: construct via the engine, read via fields and
/// accessors; new fields are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Tensors processed.
    pub tensors: u64,
    /// Values processed across all tensors.
    pub values: u64,
    /// Uncompressed footprint of the batch in bits.
    pub uncompressed_bits: u64,
    /// Encoded stream bits across the batch (metadata + payload).
    pub stream_bits: u64,
    /// Metadata (`Z` + `P`) bits across the batch.
    pub metadata_bits: u64,
    /// Payload bits across the batch.
    pub payload_bits: u64,
    /// Groups encoded across the batch.
    pub groups: u64,
    /// FNV-1a chain over per-tensor stream hashes in **submission**
    /// order — equal across runs and worker counts iff every container
    /// is bit-identical.
    pub stream_hash: u64,
    /// Workers the run was configured with.
    pub workers: usize,
    /// Always 0: workers claim tensors by index, so no submission queue
    /// exists. Kept only because `perfbench` reads it.
    pub queue_high_water: usize,
    /// Wall-clock duration of the batch run.
    pub elapsed: Duration,
    /// Total worker time spent inside encode.
    pub encode_busy: Duration,
    /// Total worker time spent inside measure.
    pub measure_busy: Duration,
    /// Total worker time spent inside decode.
    pub decode_busy: Duration,
}

impl BatchReport {
    /// An empty report for `workers` workers — the fold's identity.
    pub(crate) fn empty(workers: usize) -> Self {
        Self {
            tensors: 0,
            values: 0,
            uncompressed_bits: 0,
            stream_bits: 0,
            metadata_bits: 0,
            payload_bits: 0,
            groups: 0,
            stream_hash: FNV_OFFSET,
            workers,
            queue_high_water: 0,
            elapsed: Duration::ZERO,
            encode_busy: Duration::ZERO,
            measure_busy: Duration::ZERO,
            decode_busy: Duration::ZERO,
        }
    }

    /// Folds one tensor's record into the accumulators (submission
    /// order gives the hash chain its meaning).
    pub(crate) fn absorb(&mut self, rec: &TensorRecord) {
        self.tensors += 1;
        self.values += rec.values;
        self.uncompressed_bits += rec.uncompressed_bits;
        self.stream_bits += rec.stream_bits;
        self.metadata_bits += rec.metadata_bits;
        self.payload_bits += rec.payload_bits;
        self.groups += rec.groups;
        // Chain the per-tensor hashes (little-endian words) in
        // submission order.
        self.stream_hash = fnv1a_update(self.stream_hash, &rec.stream_hash.to_le_bytes());
    }

    /// Batch compression ratio: stream bits over uncompressed bits,
    /// lower is better — the same convention as
    /// `EncodedTensor::ratio` (1.0 for an empty batch).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.uncompressed_bits == 0 {
            1.0
        } else {
            // ss-lint: allow(determinism) -- one float division of two exact integers for display; the diffed fields are the integer bit counts
            self.stream_bits as f64 / self.uncompressed_bits as f64
        }
    }

    /// Tensors per second of wall clock (0.0 when nothing was timed).
    #[must_use]
    pub fn tensors_per_sec(&self) -> f64 {
        per_second(self.tensors, self.elapsed)
    }

    /// Values per second of wall clock (0.0 when nothing was timed).
    #[must_use]
    pub fn values_per_sec(&self) -> f64 {
        per_second(self.values, self.elapsed)
    }

    /// Fraction of total worker-time spent inside encode, in `0.0..=1.0`
    /// (busy time over `elapsed x workers`).
    #[must_use]
    pub fn encode_occupancy(&self) -> f64 {
        self.occupancy(self.encode_busy)
    }

    /// Fraction of total worker-time spent inside measure.
    #[must_use]
    pub fn measure_occupancy(&self) -> f64 {
        self.occupancy(self.measure_busy)
    }

    /// Fraction of total worker-time spent inside decode.
    #[must_use]
    pub fn decode_occupancy(&self) -> f64 {
        self.occupancy(self.decode_busy)
    }

    fn occupancy(&self, busy: Duration) -> f64 {
        // ss-lint: allow(determinism) -- occupancy is derived from wall-clock time, the timing half the diff excludes
        let denom = self.elapsed.as_secs_f64() * self.workers.max(1) as f64;
        if denom <= 0.0 {
            0.0
        } else {
            (busy.as_secs_f64() / denom).min(1.0)
        }
    }
}

fn per_second(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        // ss-lint: allow(determinism) -- throughput is derived from wall-clock time, the timing half the diff excludes
        count as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_chains_like_hashing_the_concatenated_words() {
        let mut report = BatchReport::empty(1);
        for stream_hash in [1u64, 2] {
            report.absorb(&TensorRecord {
                values: 0,
                uncompressed_bits: 0,
                stream_bits: 0,
                metadata_bits: 0,
                payload_bits: 0,
                groups: 0,
                stream_hash,
            });
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        assert_eq!(report.stream_hash, crate::fnv1a_64(&bytes));
    }

    #[test]
    fn absorb_accumulates_and_orders_the_hash() {
        let rec_a = TensorRecord {
            values: 10,
            uncompressed_bits: 160,
            stream_bits: 60,
            metadata_bits: 20,
            payload_bits: 40,
            groups: 2,
            stream_hash: 0x1111,
        };
        let rec_b = TensorRecord {
            stream_hash: 0x2222,
            ..rec_a
        };
        let mut ab = BatchReport::empty(2);
        ab.absorb(&rec_a);
        ab.absorb(&rec_b);
        let mut ba = BatchReport::empty(2);
        ba.absorb(&rec_b);
        ba.absorb(&rec_a);
        assert_eq!(ab.tensors, 2);
        assert_eq!(ab.values, 20);
        assert_eq!(ab.stream_bits, 120);
        assert_eq!(ab.metadata_bits + ab.payload_bits, ab.stream_bits);
        assert_ne!(
            ab.stream_hash, ba.stream_hash,
            "hash must be order-sensitive"
        );
    }

    #[test]
    fn rates_and_occupancy_handle_zero_elapsed() {
        let report = BatchReport::empty(4);
        assert_eq!(report.tensors_per_sec(), 0.0);
        assert_eq!(report.encode_occupancy(), 0.0);
        assert_eq!(report.ratio(), 1.0, "empty batch is the identity ratio");
    }

    #[test]
    fn occupancy_is_a_fraction_of_worker_time() {
        let mut report = BatchReport::empty(2);
        report.elapsed = Duration::from_secs(1);
        report.encode_busy = Duration::from_secs(1);
        // 1s busy over 2 worker-seconds = 0.5.
        assert!((report.encode_occupancy() - 0.5).abs() < 1e-9);
    }
}
