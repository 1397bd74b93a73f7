//! The ShapeShifter memory container codec (paper §3, Figure 6).

use ss_bitio::{BitReader, BitWriter};
use ss_tensor::{width, FixedType, Shape, Signedness, Tensor};
use ss_trace::{Counter, WidthCounts, WidthHist};

use crate::index::{ChunkEntry, ChunkIndex};
use crate::{
    checked, kernels, par, CodecConfig, CodecError, ExecPolicy, MeasureReport, WidthDetector,
};

/// Below this many values the automatic paths stay sequential: spawning and
/// splicing costs more than the encode itself on small tensors.
pub(crate) const PARALLEL_MIN_VALUES: usize = 1 << 16;

/// The [`IndexPolicy::Auto`] chunking floor: a chunk covers at least this
/// many values, so the per-chunk decode work dwarfs the seek + join cost.
const AUTO_CHUNK_MIN_VALUES: usize = 1 << 16;

/// The [`IndexPolicy::Auto`] chunk-count ceiling: however large the
/// tensor, the index stays a few dozen entries (and the parallel paths
/// spawn a bounded number of workers).
const AUTO_MAX_CHUNKS: usize = 64;

/// When (and how) `encode` writes the container-v2 chunk index.
///
/// The policy is a property of the *codec configuration*, never of the
/// encode-time thread count: encoding the same tensor with 1 or 8 workers
/// produces the same index (and the same stream bytes), so the v2
/// container is deterministic across hosts — a requirement for the
/// golden-vector suite and the checked-in `BENCH_codec.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexPolicy {
    /// Never write an index: the v1 container, byte-identical to what
    /// every earlier release produced.
    None,
    /// Cut the stream every this-many groups. Chunk sizes this small only
    /// make sense in tests and golden vectors; production use wants
    /// [`IndexPolicy::Auto`].
    EveryGroups(usize),
    /// Index tensors that span more than one chunk, sizing chunks to
    /// cover at least [`AUTO_CHUNK_MIN_VALUES`] values and capping the
    /// index at [`AUTO_MAX_CHUNKS`] entries. Small tensors stay v1 —
    /// their index would cost more than the parallelism recovers.
    #[default]
    Auto,
}

/// One indexed chunk's bit range and value/group window, precomputed so
/// decode workers can parse their chunks without touching shared state.
struct ChunkSpan {
    chunk: usize,
    start: u64,
    end: u64,
    values: usize,
    value_base: usize,
    group_base: usize,
}

/// Records one finished encode on the global trace recorder — the same
/// six counters whether the one-shot or the framed path produced it.
fn record_encode(values: usize, bits: u64, report: &MeasureReport) {
    let rec = ss_trace::global();
    if rec.enabled() {
        rec.add(Counter::EncodeCalls, 1);
        rec.add(Counter::EncodeValues, values as u64);
        rec.add(Counter::EncodeBits, bits);
        rec.add(Counter::EncodeMetadataBits, report.metadata_bits);
        rec.add(Counter::EncodePayloadBits, report.payload_bits);
        rec.add(Counter::EncodeGroups, report.groups as u64);
    }
}

/// Lossless per-group codec for the ShapeShifter off-chip container.
///
/// For each group of up to `group_size` values the stream stores:
///
/// * `Z` — one bit per value, 1 marking a zero (zeros carry no payload);
/// * `P` — the group's width minus one, in `log2(Pmax)` bits (4 bits for
///   16-bit containers, 3 for 8-bit, matching Figure 6's example);
/// * the non-zero values, in order, at `P` bits each; signed containers
///   store sign-magnitude with the sign at the least-significant bit.
///
/// Groups are packed back-to-back with no alignment — the stream is decoded
/// sequentially, exactly as the paper's access model requires.
///
/// The paper's metadata accounting holds by construction: a full group of
/// sixteen 16-bit values costs `16 + 4` metadata bits against a 256-bit
/// uncompressed footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeShifterCodec {
    group_size: usize,
    index_policy: IndexPolicy,
    exec: ExecPolicy,
}

/// An encoded tensor: the packed stream plus the metadata needed to decode
/// it and the accounting the evaluation reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTensor {
    pub(crate) bytes: Vec<u8>,
    pub(crate) bit_len: u64,
    pub(crate) len: usize,
    pub(crate) dtype: FixedType,
    pub(crate) group_size: usize,
    pub(crate) groups: usize,
    pub(crate) metadata_bits: u64,
    pub(crate) payload_bits: u64,
    /// Container-v2 chunk index, when the codec's policy wrote one. The
    /// stream bytes are identical either way; the index is side metadata.
    pub(crate) index: Option<ChunkIndex>,
}

impl Default for EncodedTensor {
    /// An empty container (zero values, zero bits) — the valid encoding
    /// of the empty tensor, and the natural starting point for the
    /// buffer-reusing `CodecSession::encode_into` API.
    fn default() -> Self {
        Self {
            bytes: Vec::new(),
            bit_len: 0,
            len: 0,
            dtype: FixedType::U8,
            group_size: 16,
            groups: 0,
            metadata_bits: 0,
            payload_bits: 0,
            index: None,
        }
    }
}

impl ShapeShifterCodec {
    /// Creates a codec with the given group size (the paper finds 16 "a
    /// good balance between compression rate and metadata overhead").
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256 (the paper's largest
    /// evaluated group).
    #[must_use]
    pub fn new(group_size: usize) -> Self {
        assert!(
            (1..=256).contains(&group_size),
            "group size {group_size} outside 1..=256"
        );
        Self {
            group_size,
            index_policy: IndexPolicy::Auto,
            exec: ExecPolicy::Auto,
        }
    }

    /// Builds a codec from a [`CodecConfig`] — the non-panicking
    /// constructor behind [`CodecConfig::build`].
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidGroupSize`] if the config's group size is 0
    /// or exceeds 256.
    pub fn from_config(config: CodecConfig) -> Result<Self, CodecError> {
        if !(1..=256).contains(&config.group_size) {
            return Err(CodecError::InvalidGroupSize);
        }
        Ok(Self {
            group_size: config.group_size,
            index_policy: config.index_policy,
            exec: config.exec,
        })
    }

    /// This codec's configuration as a [`CodecConfig`] builder value.
    #[must_use]
    pub fn config(&self) -> CodecConfig {
        CodecConfig::new()
            .with_group_size(self.group_size)
            .with_index_policy(self.index_policy)
            .with_exec(self.exec)
    }

    /// The same codec with a different execution policy (builder style).
    ///
    /// The policy only changes scheduling: every policy produces
    /// bit-identical streams and accounting.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The configured execution policy.
    #[must_use]
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec
    }

    /// The same codec with a different chunk-index policy (builder style).
    ///
    /// `IndexPolicy::None` reproduces the v1 container byte-for-byte;
    /// `IndexPolicy::EveryGroups(n)` pins the chunk size for tests and
    /// golden vectors. The policy changes only whether an index travels
    /// alongside the stream — the stream bytes themselves are identical
    /// under every policy.
    #[must_use]
    pub fn with_index_policy(mut self, policy: IndexPolicy) -> Self {
        self.index_policy = policy;
        self
    }

    /// The configured group size.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The configured chunk-index policy.
    #[must_use]
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Resolves the index policy for a tensor of `len` values: `Some`
    /// groups-per-chunk when an index is worth writing (the tensor spans
    /// more than one chunk), `None` for a v1 stream.
    pub(crate) fn index_chunk_groups(&self, len: usize) -> Option<usize> {
        let chunk_groups = match self.index_policy {
            IndexPolicy::None => return None,
            IndexPolicy::EveryGroups(n) => n.max(1),
            IndexPolicy::Auto => {
                let per_chunk = AUTO_CHUNK_MIN_VALUES.max(len.div_ceil(AUTO_MAX_CHUNKS));
                per_chunk.div_ceil(self.group_size)
            }
        };
        // The serialized index stores groups-per-chunk in a u32; a policy
        // that somehow exceeds it falls back to an unindexed stream rather
        // than truncating.
        if chunk_groups > u32::MAX as usize {
            return None;
        }
        let chunk_values = chunk_groups.saturating_mul(self.group_size);
        (len > chunk_values).then_some(chunk_groups)
    }

    /// Encodes a tensor into a ShapeShifter stream.
    ///
    /// Scheduling follows the codec's [`ExecPolicy`]: under the default
    /// `Auto`, large tensors are encoded in parallel — the tensor is cut
    /// on group boundaries, each chunk is encoded by a [`par::par_map`]
    /// worker into its own [`BitWriter`], and the chunk streams are
    /// spliced back in order. Because groups are self-contained (paper §3)
    /// and splicing preserves every bit phase, the output is
    /// **bit-identical** to a sequential encode — the sequential path
    /// remains both the small-tensor fast path and the oracle the
    /// property tests compare against. The `Auto` worker count comes from
    /// [`par::thread_count`] (`SS_THREADS` or the machine's available
    /// parallelism).
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::Stream`] on internal bit-packing failures
    /// (unreachable for valid tensors, by the tensor's container
    /// invariant).
    pub fn encode(&self, tensor: &Tensor) -> Result<EncodedTensor, CodecError> {
        let threads = self.exec.threads_for(tensor.len(), PARALLEL_MIN_VALUES);
        self.encode_resolved(tensor, threads)
    }

    /// The encode body, with the worker count already resolved
    /// (`threads <= 1` encodes on the calling thread; any higher count
    /// parallelizes regardless of tensor size — no small-tensor
    /// heuristic — which is what the bit-identity tests and the perf
    /// baseline need).
    ///
    /// The tensor is cut into group-aligned chunks, the chunks are encoded
    /// on [`par::par_map`] workers, and the chunk streams are spliced back
    /// in order. With a chunk index the cut follows the *index* policy,
    /// deliberately independent of the worker count so the container is
    /// deterministic, and each chunk's bit offset and value count are
    /// recorded while splicing; without one the cut follows the worker
    /// count.
    fn encode_resolved(
        &self,
        tensor: &Tensor,
        threads: usize,
    ) -> Result<EncodedTensor, CodecError> {
        let dtype = tensor.dtype();
        let values = tensor.values();
        let chunk_groups = self.index_chunk_groups(values.len());
        // `index_chunk_groups` only returns sizes strictly below the tensor
        // length, so the product cannot overflow.
        let chunk_values = match chunk_groups {
            Some(groups) => groups * self.group_size,
            None => par::chunk_values(values.len(), self.group_size, threads),
        };
        let chunks: Vec<&[i32]> = values.chunks(chunk_values).collect();
        let chunk_hint = tensor.container_bits() / 2 / chunks.len().max(1) as u64;
        let parts = par::par_map(&chunks, threads, |chunk| {
            let mut w = BitWriter::with_capacity_bits(chunk_hint);
            let report = self.encode_groups_into(chunk, dtype, &mut w)?;
            Ok::<_, CodecError>((w, report))
        });
        // An empty writer takes the first chunk's buffer over, so a
        // one-chunk encode copies nothing.
        let mut w = BitWriter::new();
        let mut report = MeasureReport::default();
        let mut entries = Vec::with_capacity(chunks.len());
        for (chunk, part) in chunks.iter().zip(parts) {
            let (part_w, part_report) = part?;
            entries.push(ChunkEntry {
                bit_offset: w.bit_len(),
                values: chunk.len() as u64,
            });
            report.add(&part_report);
            w.append_writer(part_w)?;
        }
        let index = match chunk_groups {
            Some(groups) => {
                // `index_chunk_groups` rejects chunk sizes beyond u32, so
                // the cast is lossless.
                // ss-lint: allow(truncating-cast) -- bounded by index_chunk_groups' u32 guard
                let index = ChunkIndex::from_parts(groups as u32, entries)?;
                checked::index_bookkeeping(&index, self.group_size, w.bit_len(), values.len());
                Some(index)
            }
            None => None,
        };

        record_encode(tensor.len(), w.bit_len(), &report);
        Ok(EncodedTensor {
            bit_len: w.bit_len(),
            bytes: w.into_bytes(),
            len: tensor.len(),
            dtype,
            group_size: self.group_size,
            groups: report.groups,
            metadata_bits: report.metadata_bits,
            payload_bits: report.payload_bits,
            index,
        })
    }

    /// The sequential framing path shared by `CodecSession::encode_into`
    /// and the ShapeShifter registry scheme: clears `w`, encodes `tensor`
    /// into it on the calling thread, cuts index chunks at the same
    /// policy-determined boundaries as [`ShapeShifterCodec::encode`] (so
    /// stream and index are bit-identical to it), and records the encode
    /// trace counters. Returns the bit accounting and the chunk index, if
    /// the policy wrote one.
    ///
    /// `entries` is the index-entry scratch: an indexed encode moves its
    /// storage into the returned index, so a caller that refills it from
    /// its previous output's index builds indexes without allocating.
    pub(crate) fn encode_framed(
        &self,
        tensor: &Tensor,
        w: &mut BitWriter,
        entries: &mut Vec<ChunkEntry>,
    ) -> Result<(MeasureReport, Option<ChunkIndex>), CodecError> {
        let values = tensor.values();
        let dtype = tensor.dtype();
        w.clear();
        let (report, index) = match self.index_chunk_groups(values.len()) {
            Some(chunk_groups) => {
                let mut chunk_entries = std::mem::take(entries);
                chunk_entries.clear();
                let mut report = MeasureReport::default();
                for chunk in values.chunks(chunk_groups * self.group_size) {
                    chunk_entries.push(ChunkEntry {
                        bit_offset: w.bit_len(),
                        values: chunk.len() as u64,
                    });
                    report.add(&self.encode_groups_into(chunk, dtype, w)?);
                }
                // `index_chunk_groups` rejects chunk sizes beyond u32, so
                // the cast is lossless.
                // ss-lint: allow(truncating-cast) -- bounded by index_chunk_groups' u32 guard
                let index = ChunkIndex::from_parts(chunk_groups as u32, chunk_entries)?;
                checked::index_bookkeeping(&index, self.group_size, w.bit_len(), values.len());
                (report, Some(index))
            }
            None => (self.encode_groups_into(values, dtype, w)?, None),
        };
        record_encode(values.len(), w.bit_len(), &report);
        Ok((report, index))
    }

    /// Appends the group encodings of `values` to an existing writer,
    /// returning their bit accounting — the inner loop shared by the
    /// one-shot [`ShapeShifterCodec::encode`] and
    /// [`ShapeShifterCodec::encode_framed`], so every encode path is
    /// bit-identical by construction.
    ///
    /// The loop runs on the word-parallel [`kernels`]: one fused
    /// [`kernels::scan_gather`] pass per group yields the zero bit-vector
    /// as whole `u64` words (streamed out via `BitWriter::write_words`),
    /// the OR-folded group width, *and* the compacted non-zero payloads,
    /// which are packed as an equal-width field run via
    /// `BitWriter::pack_fields` — each value is loaded once and no bit is
    /// pushed individually. The retired per-value loop survives as the
    /// differential oracle in the `kernel_differential` suite.
    pub(crate) fn encode_groups_into(
        &self,
        values: &[i32],
        dtype: FixedType,
        w: &mut BitWriter,
    ) -> Result<MeasureReport, CodecError> {
        let det = WidthDetector::new(dtype.bits(), dtype.signedness());
        let prefix_bits = u32::from(det.prefix_bits());
        let signedness = dtype.signedness();
        let mut groups = 0usize;
        let mut metadata_bits = 0u64;
        let mut payload_bits = 0u64;
        // Tracing state is accumulated locally and submitted once per chunk
        // so the untraced path pays one branch per group, not an atomic op.
        let rec = ss_trace::global();
        let tracing = rec.enabled();
        let mut group_widths = WidthCounts::new();
        let mut zeros_elided = 0u64;
        let mut fields = [0u64; kernels::MAX_GROUP];

        for group in values.chunks(self.group_size) {
            groups += 1;
            let (scan, n) = kernels::scan_gather(group, signedness, &mut fields);
            // Z vector: 1 marks a zero value, emitted as whole 64-bit
            // words (group sizes up to 256 are supported).
            w.write_words(&scan.z, group.len() as u64)?;
            let p = scan.width();
            if tracing {
                zeros_elided += u64::from(scan.zero_count());
                group_widths.observe(p, 1);
            }
            w.write_bits(u64::from(scan.encoded_width()), prefix_bits)?;
            metadata_bits += group.len() as u64 + u64::from(prefix_bits);
            // `n <= group.len() <= MAX_GROUP` by construction, so the
            // slice always exists; the fallback is unreachable.
            let run = fields.get(..n).unwrap_or(&[]);
            w.pack_fields(run, u32::from(p))?;
            payload_bits += u64::from(p) * run.len() as u64;
        }
        if tracing {
            rec.record_widths(WidthHist::CodecGroupWidth, &group_widths);
            rec.add(Counter::EncodeZerosElided, zeros_elided);
        }
        Ok(MeasureReport {
            metadata_bits,
            payload_bits,
            groups,
        })
    }

    /// Computes the exact encoded size of a tensor *without* materializing
    /// the stream — the accounting identity
    /// `total_bits() = metadata + payload` holds against
    /// [`ShapeShifterCodec::encode`] bit-for-bit, at a fraction of the
    /// cost. Used by the traffic schemes on multi-million value layers.
    ///
    /// Scheduling follows the codec's [`ExecPolicy`]: parallel runs cut
    /// on group-aligned chunks exactly like
    /// [`ShapeShifterCodec::encode`]; per-chunk sums are
    /// order-independent, so the totals match the sequential scan (and
    /// `encode`) exactly.
    ///
    /// # Panics
    ///
    /// Never panics for a valid tensor.
    #[must_use]
    pub fn measure(&self, tensor: &Tensor) -> MeasureReport {
        let threads = self.exec.threads_for(tensor.len(), PARALLEL_MIN_VALUES);
        self.measure_resolved(tensor, threads)
    }

    /// The measure body, with the worker count already resolved: the
    /// chunks are measured on [`par::par_map`] workers and their sums
    /// added.
    fn measure_resolved(&self, tensor: &Tensor, threads: usize) -> MeasureReport {
        let dtype = tensor.dtype();
        let values = tensor.values();
        let chunk_values = par::chunk_values(values.len(), self.group_size, threads);
        let report = if values.len() <= chunk_values {
            // One chunk: measured in place with no chunk list, so the
            // sequential measure — which the batch engine runs once per
            // tensor — never touches the heap.
            self.measure_chunk(values, dtype)
        } else {
            let chunks: Vec<&[i32]> = values.chunks(chunk_values).collect();
            par::par_map(&chunks, threads, |chunk| self.measure_chunk(chunk, dtype))
                .iter()
                .fold(MeasureReport::default(), |mut sum, part| {
                    sum.add(part);
                    sum
                })
        };
        let rec = ss_trace::global();
        if rec.enabled() {
            rec.add(Counter::MeasureCalls, 1);
            rec.add(Counter::MeasureValues, tensor.len() as u64);
            rec.add(Counter::MeasureBits, report.total_bits());
        }
        report
    }

    /// Sequential measurement of one group-aligned slice, on the same
    /// fused [`kernels::scan_group`] pass as the encoder: the group width
    /// comes from one lane fold and the non-zero count from the zero
    /// bitmap's popcount, so measuring costs one streaming read of the
    /// values — no per-value compare-and-max, no second zero-count scan.
    fn measure_chunk(&self, values: &[i32], dtype: FixedType) -> MeasureReport {
        let signedness = dtype.signedness();
        let det = WidthDetector::new(dtype.bits(), signedness);
        let prefix_bits = u64::from(det.prefix_bits());
        let mut metadata = 0u64;
        let mut payload = 0u64;
        let mut groups = 0usize;
        let rec = ss_trace::global();
        let tracing = rec.enabled();
        let mut group_widths = WidthCounts::new();
        for group in values.chunks(self.group_size) {
            groups += 1;
            metadata += group.len() as u64 + prefix_bits;
            let scan = kernels::scan_group(group, signedness);
            if tracing {
                group_widths.observe(scan.width(), 1);
            }
            payload += u64::from(scan.width())
                * (group.len() as u64 - u64::from(scan.zero_count()));
        }
        if tracing {
            rec.record_widths(WidthHist::CodecGroupWidth, &group_widths);
        }
        MeasureReport {
            metadata_bits: metadata,
            payload_bits: payload,
            groups,
        }
    }

    /// Decodes a ShapeShifter stream back into the original tensor.
    ///
    /// Two paths exist, chosen by the container version:
    ///
    /// * **v1 (no chunk index)** — decoding is sequential by stream
    ///   design: a group's start position is only known after the previous
    ///   group's `Z` vector and `P` prefix have been parsed (groups are
    ///   packed back-to-back with no alignment — paper §3: "the incoming
    ///   stream will be decoded sequentially"). v1 streams decode exactly
    ///   as every earlier release decoded them.
    /// * **v2 (chunk index present)** — the container's optional index
    ///   records each chunk's absolute bit offset and value count, so
    ///   decode fans chunks out across [`par::par_map`] workers, each
    ///   parsing its own range-confined reader, and splices the results
    ///   back in order. The stream bytes are identical to v1 — the index
    ///   is side metadata — so the output is **bit-identical** to the
    ///   sequential parse (property-tested), and the sequential path
    ///   remains the oracle.
    ///
    /// The worker count follows [`par::thread_count`] (`SS_THREADS` or the
    /// machine's available parallelism); small tensors stay sequential.
    ///
    /// # Errors
    ///
    /// * [`CodecError::Stream`] if the stream is truncated.
    /// * [`CodecError::WidthExceedsContainer`] / [`CodecError::CorruptValue`]
    ///   if the stream's contents are inconsistent with its metadata.
    /// * [`CodecError::TrailingBits`] if the declared element count is
    ///   reached with stream bits left unconsumed.
    /// * [`CodecError::CorruptIndex`] /
    ///   [`CodecError::IndexOffsetOutOfBounds`] /
    ///   [`CodecError::IndexChunkMismatch`] if a chunk index is present
    ///   but disagrees with the framing metadata or the stream.
    pub fn decode(&self, encoded: &EncodedTensor) -> Result<Tensor, CodecError> {
        let threads = self.exec.threads_for(encoded.len, PARALLEL_MIN_VALUES);
        self.decode_resolved(encoded, threads)
    }

    /// The decode body, with the worker count already resolved.
    ///
    /// `threads <= 1` always takes the sequential parse (an index, if
    /// present, is ignored — the stream is self-contained); higher counts
    /// fan indexed containers out regardless of tensor size, which is what
    /// the differential tests and the perf baseline need. Unindexed (v1)
    /// containers decode sequentially whatever `threads` says.
    fn decode_resolved(
        &self,
        encoded: &EncodedTensor,
        threads: usize,
    ) -> Result<Tensor, CodecError> {
        let codec = ShapeShifterCodec::new(encoded.group_size);
        let data = match encoded.index.as_ref() {
            Some(index) if threads > 1 && index.chunk_count() > 1 => codec
                .decode_stream_indexed(
                    &encoded.bytes,
                    encoded.bit_len,
                    encoded.dtype,
                    encoded.len,
                    index,
                    threads,
                )?,
            _ => {
                codec.decode_stream(&encoded.bytes, encoded.bit_len, encoded.dtype, encoded.len)?
            }
        };
        Ok(Tensor::from_vec(
            Shape::flat(encoded.len),
            encoded.dtype,
            data,
        )?)
    }

    /// Decodes a raw ShapeShifter stream given its framing metadata
    /// (stream length in bits, container type, element count) — the form
    /// the metadata takes when it travels separately from the stream, as
    /// in the paper's per-layer descriptors or the `SSPK` file container.
    ///
    /// # Errors
    ///
    /// Same as [`ShapeShifterCodec::decode`].
    pub fn decode_stream(
        &self,
        bytes: &[u8],
        bit_len: u64,
        dtype: FixedType,
        len: usize,
    ) -> Result<Vec<i32>, CodecError> {
        // No preallocation from `len` here: it is untrusted framing
        // metadata until `decode_stream_into` has bounded it against the
        // stream length (a hostile header must not OOM the process).
        let mut data: Vec<i32> = Vec::new();
        self.decode_stream_into(bytes, bit_len, dtype, len, &mut data)?;
        Ok(data)
    }

    /// [`ShapeShifterCodec::decode_stream`] into a caller-owned buffer —
    /// the body behind both the one-shot path and the ShapeShifter
    /// registry scheme's sequential decode, which `CodecSession` runs
    /// allocation-free. `data` is cleared first; on success it holds
    /// exactly `len` decoded values.
    pub(crate) fn decode_stream_into(
        &self,
        bytes: &[u8],
        bit_len: u64,
        dtype: FixedType,
        len: usize,
        data: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        data.clear();
        if bit_len > bytes.len() as u64 * 8 {
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bytes.len() as u64 * 8,
            }));
        }
        // Every encoded value costs at least its Z bit, so a stream of
        // `bit_len` bits cannot hold more than `bit_len` values. Rejecting
        // inflated (possibly hostile) length metadata here keeps the
        // preallocation bounded by the input size.
        if len as u64 > bit_len {
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bit_len,
            }));
        }
        let det = WidthDetector::new(dtype.bits(), dtype.signedness());
        // Hoisted out of the per-value loop: the signedness of the stream
        // is a property of the container, not of any value.
        let signed = matches!(dtype.signedness(), Signedness::Signed);
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        data.reserve(len);
        self.decode_groups(&mut r, &det, dtype, signed, len, 0, 0, data)?;
        // A well-formed container is consumed exactly: its framing metadata
        // (bit length + element count) and its group contents agree. This is
        // a hard typed error, not a debug assertion, because hostile streams
        // can reach it and the decoder must never panic on input.
        if !r.is_at_end() {
            return Err(CodecError::TrailingBits {
                remaining: r.remaining_bits(),
            });
        }
        let rec = ss_trace::global();
        if rec.enabled() {
            rec.add(Counter::DecodeCalls, 1);
            rec.add(Counter::DecodeValues, data.len() as u64);
        }
        Ok(())
    }

    /// Decodes a raw stream *with* its container-v2 chunk index: validates
    /// the index against the framing metadata, then fans the chunks out
    /// across [`par::par_map`] workers, each parsing its own
    /// range-confined [`BitReader`]. Bit-identical to
    /// [`ShapeShifterCodec::decode_stream`] on well-formed input.
    ///
    /// # Errors
    ///
    /// Same as [`ShapeShifterCodec::decode`]; every index/stream
    /// disagreement surfaces as a typed error before or during the parse —
    /// never a panic, never a silently wrong tensor.
    pub fn decode_stream_indexed(
        &self,
        bytes: &[u8],
        bit_len: u64,
        dtype: FixedType,
        len: usize,
        index: &ChunkIndex,
        threads: usize,
    ) -> Result<Vec<i32>, CodecError> {
        if bit_len > bytes.len() as u64 * 8 {
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bytes.len() as u64 * 8,
            }));
        }
        if len as u64 > bit_len {
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bit_len,
            }));
        }
        index.validate(self.group_size, bit_len, len)?;
        let entries = index.entries();
        let chunk_groups = index.chunk_groups();
        let mut spans = Vec::with_capacity(entries.len());
        let mut value_base = 0usize;
        for (i, e) in entries.iter().enumerate() {
            let end = entries.get(i + 1).map_or(bit_len, |next| next.bit_offset);
            spans.push(ChunkSpan {
                chunk: i,
                start: e.bit_offset,
                end,
                // validate() proved the per-chunk counts sum to `len`.
                // ss-lint: allow(truncating-cast) -- validate() bounds each count by len: usize
                values: e.values as usize,
                value_base,
                group_base: i * chunk_groups,
            });
            value_base += e.values as usize;
        }
        let parts = par::par_map(&spans, threads, |span| self.decode_span(bytes, dtype, span));
        let mut data: Vec<i32> = Vec::with_capacity(len);
        for part in parts {
            data.append(&mut part?);
        }
        // No trailing-bits check is needed here: validate() pins the last
        // span's end to `bit_len` and decode_span demands every span be
        // consumed exactly.
        let rec = ss_trace::global();
        if rec.enabled() {
            rec.add(Counter::DecodeCalls, 1);
            rec.add(Counter::DecodeValues, data.len() as u64);
            rec.add(Counter::DecodeIndexHits, 1);
            rec.add(Counter::DecodeChunksFanned, entries.len() as u64);
        }
        Ok(data)
    }

    /// Parses one indexed chunk, confined to its own bit range so a
    /// corrupt chunk can never read its neighbour's bits (or starve them).
    fn decode_span(
        &self,
        bytes: &[u8],
        dtype: FixedType,
        span: &ChunkSpan,
    ) -> Result<Vec<i32>, CodecError> {
        let det = WidthDetector::new(dtype.bits(), dtype.signedness());
        let signed = matches!(dtype.signedness(), Signedness::Signed);
        let mut data: Vec<i32> = Vec::with_capacity(span.values);
        let mut r = BitReader::with_bit_range(bytes, span.start, span.end)?;
        self.decode_groups(
            &mut r,
            &det,
            dtype,
            signed,
            span.values,
            span.group_base,
            span.value_base,
            &mut data,
        )?;
        // The chunk must consume its allotted span exactly, for the same
        // reason the sequential parse rejects trailing bits.
        if !r.is_at_end() {
            return Err(CodecError::IndexChunkMismatch {
                chunk: span.chunk,
                expected_bits: span.end - span.start,
                consumed_bits: r.consumed_bits(),
            });
        }
        Ok(data)
    }

    /// Parses `count` values' worth of groups from `r`, appending to
    /// `data` — the group-parse body shared by the sequential parse and
    /// every indexed-chunk worker. `group_base` / `value_base` seed error
    /// positions so chunk-local parses report stream-global indices.
    ///
    /// Payloads are read in bulk: the zero bitmap's popcount gives the
    /// exact number of equal-width fields in the group, which
    /// `BitReader::read_fields` extracts with one unaligned load each
    /// instead of a per-field byte loop; the scatter pass then interleaves
    /// them with the elided zeros, validating each value in stream order
    /// so error indices are unchanged from the scalar parse.
    #[allow(clippy::too_many_arguments)]
    fn decode_groups(
        &self,
        r: &mut BitReader<'_>,
        det: &WidthDetector,
        dtype: FixedType,
        signed: bool,
        count: usize,
        group_base: usize,
        value_base: usize,
        data: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        let prefix_bits = u32::from(det.prefix_bits());
        let start_len = data.len();
        let mut group_idx = group_base;

        // Z vector as packed 64-bit words (group_size <= 256 -> 4 words),
        // read straight off the stream with no per-bit buffer traffic.
        let mut zwords = [0u64; 4];
        let mut fields = [0u64; kernels::MAX_GROUP];
        while data.len() - start_len < count {
            let group_len = (count - (data.len() - start_len)).min(self.group_size);
            // Only the words covering `group_len` are overwritten; zero
            // counting below must therefore walk the same active range
            // (stale words from a longer previous group may follow).
            let mut zeros = 0usize;
            for (word, start) in zwords.iter_mut().zip((0..group_len).step_by(64)) {
                let take = (group_len - start).min(64);
                *word = r.read_bits(take as u32)?;
                // read_bits returns clean high bits, so whole-word
                // popcounts only ever see in-range zero markers.
                zeros += word.count_ones() as usize;
            }
            // The P field stores width-1 in at most 5 bits.
            // ss-lint: allow(truncating-cast) -- prefix field is <= 5 bits wide, value <= 31
            let p = r.read_bits(prefix_bits)? as u8 + 1;
            if p > dtype.bits() {
                return Err(CodecError::WidthExceedsContainer {
                    group: group_idx,
                    width: p,
                    container: dtype.bits(),
                });
            }
            // Bulk-extract every payload field in the group at once; the
            // per-value work below is only scatter + validation.
            let payloads = group_len - zeros.min(group_len);
            let slots = fields.get_mut(..payloads).unwrap_or(&mut []);
            r.read_fields(u32::from(p), slots)?;
            let mut next = slots.iter();
            for (word_idx, word) in zwords.iter().enumerate() {
                let start = word_idx * 64;
                if start >= group_len {
                    break;
                }
                let take = (group_len - start).min(64);
                for bit in 0..take {
                    if word >> bit & 1 == 1 {
                        data.push(0);
                    } else {
                        // The popcount above sized `slots` to the exact
                        // number of clear bits, so the iterator cannot
                        // run dry.
                        let raw = next.next().copied().unwrap_or(0);
                        let v = if signed {
                            width::from_sign_magnitude(raw as u32)
                        } else {
                            raw as i32
                        };
                        if !dtype.contains(v) || v == 0 {
                            // A payload slot decoding to zero is corrupt:
                            // zeros travel in Z, never in the payload.
                            return Err(CodecError::CorruptValue {
                                index: value_base + (data.len() - start_len),
                                value: v,
                            });
                        }
                        checked::canonical_payload(
                            raw,
                            v,
                            p,
                            signed,
                            value_base + (data.len() - start_len),
                        );
                        data.push(v);
                    }
                }
            }
            checked::group_invariants(&zwords, group_len, payloads, p, dtype.bits(), group_idx);
            group_idx += 1;
        }
        Ok(())
    }
}

impl Default for ShapeShifterCodec {
    /// The paper's default group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

impl EncodedTensor {
    /// The packed stream bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Exact stream length in bits (the off-chip traffic this tensor
    /// costs under ShapeShifter compression).
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Original element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the original tensor was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The original container type.
    #[must_use]
    pub fn dtype(&self) -> FixedType {
        self.dtype
    }

    /// Group size used for encoding.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of encoded groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Bits spent on `Z` vectors and `P` prefixes.
    #[must_use]
    pub fn metadata_bits(&self) -> u64 {
        self.metadata_bits
    }

    /// Bits spent on value payloads.
    #[must_use]
    pub fn payload_bits(&self) -> u64 {
        self.payload_bits
    }

    /// The container-v2 chunk index, if the codec's policy wrote one
    /// (`None` for v1 containers).
    #[must_use]
    pub fn index(&self) -> Option<&ChunkIndex> {
        self.index.as_ref()
    }

    /// Serialized size of the chunk index in bits — 0 for v1 containers.
    /// Deliberately **not** part of [`EncodedTensor::bit_len`]: the index
    /// is side metadata, and the traffic accounting the figures report
    /// measures the stream alone.
    #[must_use]
    pub fn index_bits(&self) -> u64 {
        // The size arithmetic cannot overflow for an index the codec
        // built (entry counts are bounded by the tensor length), so the
        // checked path's error collapses to 0 rather than forcing a
        // `Result` onto every accounting caller.
        self.index
            .as_ref()
            .and_then(|i| i.serialized_bits().ok())
            .unwrap_or(0)
    }

    /// Uncompressed footprint in bits.
    #[must_use]
    pub fn uncompressed_bits(&self) -> u64 {
        self.len as u64 * u64::from(self.dtype.bits())
    }

    /// Compression ratio: compressed / uncompressed (lower is better).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.bit_len as f64 / self.uncompressed_bits() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dtype: FixedType, vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), dtype, vals).unwrap()
    }

    #[test]
    fn paper_figure6_worked_example() {
        // Figure 6a: two groups of eight 8b values; group A needs 6 bits,
        // group B needs 3.
        let group_a = vec![0x25, 0x00, 0x01, 0x00, 0x07, 0x00, 0x00, 0x3F];
        let group_b = vec![0x01, 0x02, 0x00, 0x00, 0x03, 0x05, 0x00, 0x07];
        let mut vals = group_a;
        vals.extend(&group_b);
        let tensor = t(FixedType::U8, vals);
        let codec = ShapeShifterCodec::new(8);
        let enc = codec.encode(&tensor).unwrap();

        // Group A: Z=8b, P=3b, 4 non-zeros x 6b = 24b -> 35 bits.
        // Group B: Z=8b, P=3b, 5 non-zeros x 3b = 15b -> 26 bits.
        assert_eq!(enc.bit_len(), 35 + 26);
        assert_eq!(enc.metadata_bits(), 2 * (8 + 3));
        assert_eq!(enc.payload_bits(), 4 * 6 + 5 * 3);
        assert_eq!(enc.uncompressed_bits(), 128);
        assert_eq!(codec.decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn paper_metadata_accounting() {
        // "this scheme requires 4 + 16 bits of metadata per group of
        // sixteen 16b values."
        let tensor = t(FixedType::U16, (1..=16).collect());
        let enc = ShapeShifterCodec::new(16).encode(&tensor).unwrap();
        assert_eq!(enc.groups(), 1);
        assert_eq!(enc.metadata_bits(), 16 + 4);
    }

    #[test]
    fn all_zero_tensor_costs_only_metadata() {
        let tensor = t(FixedType::I16, vec![0; 64]);
        let enc = ShapeShifterCodec::new(16).encode(&tensor).unwrap();
        assert_eq!(enc.payload_bits(), 0);
        assert_eq!(enc.bit_len(), 4 * (16 + 4));
        assert_eq!(ShapeShifterCodec::new(16).decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn signed_values_roundtrip() {
        let tensor = t(
            FixedType::I16,
            vec![-32767, 32767, 0, -1, 1, 0, 0, -255, 255, 64, -64, 0, 3, -3, 2, -2],
        );
        let codec = ShapeShifterCodec::default();
        let enc = codec.encode(&tensor).unwrap();
        assert_eq!(codec.decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn partial_final_group_roundtrips() {
        let tensor = t(FixedType::U8, vec![9, 0, 200]);
        let codec = ShapeShifterCodec::new(16);
        let enc = codec.encode(&tensor).unwrap();
        assert_eq!(enc.groups(), 1);
        // Z is only 3 bits wide for the short group.
        assert_eq!(enc.metadata_bits(), 3 + 3);
        assert_eq!(codec.decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn empty_tensor() {
        let tensor = t(FixedType::U8, vec![]);
        let codec = ShapeShifterCodec::new(16);
        let enc = codec.encode(&tensor).unwrap();
        assert_eq!(enc.bit_len(), 0);
        assert!(enc.is_empty());
        assert_eq!(codec.decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let tensor = t(FixedType::U16, (100..116).collect());
        let codec = ShapeShifterCodec::new(16);
        let mut enc = codec.encode(&tensor).unwrap();
        enc.bit_len /= 2;
        let err = codec.decode(&enc).unwrap_err();
        assert!(matches!(err, CodecError::Stream(_)), "got {err}");
    }

    #[test]
    fn corrupt_payload_zero_detected() {
        // Hand-craft a stream whose payload slot holds a zero.
        let mut w = BitWriter::new();
        w.write_bits(0b00, 2).unwrap(); // Z: both non-zero
        w.write_bits(0, 3).unwrap(); // P: width 1
        w.write_bits(1, 1).unwrap(); // value 1 (fine)
        w.write_bits(0, 1).unwrap(); // value 0 (corrupt: zeros travel in Z)
        let enc = EncodedTensor {
            bit_len: w.bit_len(),
            bytes: w.into_bytes(),
            len: 2,
            dtype: FixedType::U8,
            group_size: 2,
            groups: 1,
            metadata_bits: 5,
            payload_bits: 2,
            index: None,
        };
        let err = ShapeShifterCodec::new(2).decode(&enc).unwrap_err();
        assert!(matches!(err, CodecError::CorruptValue { index: 1, .. }));
    }

    #[test]
    fn wide_group_width_detected() {
        // A 12-bit container uses a 4-bit P field which can declare widths
        // up to 16: a corrupt header declaring width 16 must be rejected.
        let mut w = BitWriter::new();
        w.write_bits(0b0, 1).unwrap(); // Z: one non-zero value
        w.write_bits(0b1111, 4).unwrap(); // P declares width 16 > container 12
        w.write_bits(0xFFFF, 16).unwrap();
        let enc = EncodedTensor {
            bit_len: w.bit_len(),
            bytes: w.into_bytes(),
            len: 1,
            dtype: FixedType::unsigned(12).unwrap(),
            group_size: 1,
            groups: 1,
            metadata_bits: 5,
            payload_bits: 16,
            index: None,
        };
        let err = ShapeShifterCodec::new(1).decode(&enc).unwrap_err();
        assert!(matches!(
            err,
            CodecError::WidthExceedsContainer {
                width: 16,
                container: 12,
                ..
            }
        ));
    }

    #[test]
    fn smaller_groups_never_hurt_payload() {
        // Finer groups can only reduce each group's width.
        let vals: Vec<i32> = (0..256).map(|i| (i * 37) % 1000).collect();
        let tensor = t(FixedType::U16, vals);
        let p16 = ShapeShifterCodec::new(16)
            .encode(&tensor)
            .unwrap()
            .payload_bits();
        let p256 = ShapeShifterCodec::new(256)
            .encode(&tensor)
            .unwrap()
            .payload_bits();
        assert!(p16 <= p256);
    }

    #[test]
    fn measure_matches_encode_exactly() {
        let vals: Vec<i32> = (0..777).map(|i| ((i * 131) % 4000) - 2000).collect();
        let tensor = t(FixedType::I16, vals);
        for group in [1usize, 7, 16, 64, 256] {
            let codec = ShapeShifterCodec::new(group);
            let enc = codec.encode(&tensor).unwrap();
            let report = codec.measure(&tensor);
            assert_eq!(report.metadata_bits, enc.metadata_bits(), "group {group}");
            assert_eq!(report.payload_bits, enc.payload_bits(), "group {group}");
            assert_eq!(report.groups, enc.groups(), "group {group}");
            assert_eq!(report.total_bits(), enc.bit_len(), "group {group}");
        }
    }

    #[test]
    fn automatic_parallel_path_matches_sequential_oracle() {
        // Large enough to clear PARALLEL_MIN_VALUES so encode()/measure()
        // take the parallel route on multi-core hosts; awkward length so
        // the final chunk ends in a partial group.
        let vals: Vec<i32> = (0..(PARALLEL_MIN_VALUES + 1037))
            .map(|i| ((i * 2_654_435_761) % 4001) as i32 - 2000)
            .collect();
        let tensor = t(FixedType::I16, vals);
        for group in [16usize, 256] {
            let codec = ShapeShifterCodec::new(group);
            let auto = codec.encode(&tensor).unwrap();
            let oracle = codec
                .with_exec(ExecPolicy::Sequential)
                .encode(&tensor)
                .unwrap();
            assert_eq!(auto, oracle, "group {group}");
            let forced = codec
                .with_exec(ExecPolicy::Threads(8))
                .encode(&tensor)
                .unwrap();
            assert_eq!(forced, oracle, "group {group}");
            assert_eq!(
                codec.measure(&tensor),
                codec.with_exec(ExecPolicy::Threads(8)).measure(&tensor)
            );
            assert_eq!(codec.decode(&forced).unwrap(), tensor);
        }
    }

    #[test]
    fn ratio_reflects_compression() {
        let tensor = t(FixedType::U16, vec![1; 160]);
        let enc = ShapeShifterCodec::new(16).encode(&tensor).unwrap();
        assert!(enc.ratio() < 0.2, "ratio {}", enc.ratio());
    }
}
