//! The ShapeShifter memory container codec (paper §3, Figure 6).

use ss_bitio::BitWriter;
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::{Counter, WidthCounts, WidthHist};

use crate::index::ChunkIndex;
use crate::registry::{ContainerScheme, SchemeId, SchemeRegistry, StreamFrame};
use crate::scheme::ShapeShifterScheme;
use crate::{kernels, par, CodecConfig, CodecError, ExecPolicy, MeasureReport, WidthDetector};

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
    /// cover at least `AUTO_CHUNK_MIN_VALUES` (65 536) values and capping
    /// the index at `AUTO_MAX_CHUNKS` (64) entries. Small tensors stay
    /// v1 — their index would cost more than the parallelism recovers.
    #[default]
    Auto,
}

impl IndexPolicy {
    /// Resolves the policy for a tensor of `len` values at `group_size`:
    /// `Some` groups-per-chunk when an index is worth writing (the tensor
    /// spans more than one chunk), `None` for a v1 stream.
    pub(crate) fn chunk_groups(self, group_size: usize, len: usize) -> Option<usize> {
        let chunk_groups = match self {
            IndexPolicy::None => return None,
            IndexPolicy::EveryGroups(n) => n.max(1),
            IndexPolicy::Auto => {
                let per_chunk = AUTO_CHUNK_MIN_VALUES.max(len.div_ceil(AUTO_MAX_CHUNKS));
                per_chunk.div_ceil(group_size)
            }
        };
        // The serialized index stores groups-per-chunk in a u32; a policy
        // that somehow exceeds it falls back to an unindexed stream rather
        // than truncating.
        if chunk_groups > u32::MAX as usize {
            return None;
        }
        let chunk_values = chunk_groups.saturating_mul(group_size);
        (len > chunk_values).then_some(chunk_groups)
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

/// An encoded tensor under any registered scheme: the stream, the framing
/// it decodes under, and its bit accounting. Every encode produces one,
/// and every decode reads the scheme from [`SchemeStream::scheme`], so
/// the stream is self-describing for the store and serve layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeStream {
    /// The scheme that produced the stream (its stable wire id).
    pub scheme: SchemeId,
    /// The stream bytes.
    pub bytes: Vec<u8>,
    /// Exact stream length in bits: the off-chip traffic the tensor costs
    /// under its scheme.
    pub bit_len: u64,
    /// Value container type.
    pub dtype: FixedType,
    /// Element count.
    pub len: usize,
    /// Grouping granularity the stream was encoded at.
    pub group_size: usize,
    /// The container-v2 chunk index, when the scheme participates in
    /// indexing and the policy produced one. It is side metadata: the
    /// stream bytes are identical either way, and `bit_len` excludes it.
    pub index: Option<ChunkIndex>,
    /// The stream's bit accounting; `report.total_bits() == bit_len`.
    pub report: MeasureReport,
}

/// The name the stream type had while it held ShapeShifter streams only.
/// Kept for the benchmark's sources until their next change (ROADMAP
/// item 5); new code names [`SchemeStream`].
pub type EncodedTensor = SchemeStream;

impl Default for SchemeStream {
    /// An empty ShapeShifter stream (zero values, zero bits): the valid
    /// encoding of the empty tensor, and the natural starting point for
    /// the buffer-reusing [`crate::CodecSession::encode_stream`].
    fn default() -> Self {
        Self {
            scheme: SchemeId::SHAPESHIFTER,
            bytes: Vec::new(),
            bit_len: 0,
            dtype: FixedType::U8,
            len: 0,
            group_size: 16,
            index: None,
            report: MeasureReport::default(),
        }
    }
}

impl SchemeStream {
    /// The decode framing for this stream.
    #[must_use]
    pub fn frame(&self) -> StreamFrame {
        StreamFrame {
            bit_len: self.bit_len,
            dtype: self.dtype,
            len: self.len,
            group_size: self.group_size,
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
    pub const fn new(group_size: usize) -> Self {
        assert!(
            group_size >= 1 && group_size <= 256,
            "group size outside 1..=256"
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

    /// Encodes a tensor under `scheme` at this codec's group size and
    /// index policy: the one one-shot encode, behind
    /// [`ShapeShifterCodec::encode`] and the `SSPK` container's pack.
    ///
    /// Scheduling follows the codec's [`ExecPolicy`]: under the default
    /// `Auto`, large tensors are cut on group boundaries, each chunk is
    /// encoded by a [`par::par_map_with`] worker into its own
    /// [`BitWriter`], and the chunk streams are spliced back in order.
    /// Because groups are self-contained (paper §3) and splicing preserves
    /// every bit phase, the output is **bit-identical** to a sequential
    /// encode, which remains both the small-tensor path and the oracle the
    /// property tests compare against. The `Auto` worker count comes from
    /// [`par::thread_count`] (`SS_THREADS` or the machine's available
    /// parallelism). The chunk index, if the policy writes one, is cut by
    /// the policy alone, so the container is the same at every worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::Stream`] on internal bit-packing failures
    /// (unreachable for valid tensors, by the tensor's container
    /// invariant).
    pub fn encode_with(
        &self,
        scheme: &dyn ContainerScheme,
        tensor: &Tensor,
    ) -> Result<SchemeStream, CodecError> {
        let threads = self.exec.threads_for(tensor.len(), PARALLEL_MIN_VALUES);
        let mut w = BitWriter::with_capacity_bits(tensor.container_bits() / 2);
        let (report, index) = scheme.encode_into(
            tensor,
            self.group_size,
            self.index_policy,
            threads,
            &mut w,
            &mut Vec::new(),
        )?;
        Ok(SchemeStream {
            scheme: scheme.wire_id(),
            bit_len: w.bit_len(),
            bytes: w.into_bytes(),
            dtype: tensor.dtype(),
            len: tensor.len(),
            group_size: self.group_size,
            index,
            report,
        })
    }

    /// [`ShapeShifterCodec::encode_with`] under the ShapeShifter scheme.
    /// Kept for the benchmark's sources until their next change (ROADMAP
    /// item 5).
    ///
    /// # Errors
    ///
    /// As [`ShapeShifterCodec::encode_with`].
    pub fn encode(&self, tensor: &Tensor) -> Result<SchemeStream, CodecError> {
        self.encode_with(&ShapeShifterScheme::default(), tensor)
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
        if let Some(rec) = ss_trace::installed() {
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
        let rec = ss_trace::installed();
        let mut group_widths = WidthCounts::new();
        for group in values.chunks(self.group_size) {
            groups += 1;
            metadata += group.len() as u64 + prefix_bits;
            let scan = kernels::scan_group(group, signedness);
            if rec.is_some() {
                group_widths.observe(scan.width(), 1);
            }
            payload +=
                u64::from(scan.width()) * (group.len() as u64 - u64::from(scan.zero_count()));
        }
        if let Some(rec) = rec {
            rec.record_widths(WidthHist::CodecGroupWidth, &group_widths);
        }
        MeasureReport {
            metadata_bits: metadata,
            payload_bits: payload,
            groups,
        }
    }

    /// Decodes a stream back into the original tensor, under the scheme
    /// its wire id names: [`ShapeShifterCodec::decode_scheme_stream`] on
    /// the stream's own parts.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownScheme`] if no registered scheme claims the
    /// stream's id; otherwise as
    /// [`ShapeShifterCodec::decode_scheme_stream`].
    pub fn decode(&self, stream: &SchemeStream) -> Result<Tensor, CodecError> {
        self.decode_scheme_stream(
            SchemeRegistry::global().get(stream.scheme)?,
            &stream.bytes,
            &stream.frame(),
            stream.index.as_ref(),
        )
    }

    /// Decodes a raw scheme stream (framing and chunk index supplied by
    /// the caller, e.g. parsed from an `SSPK` container) into a new
    /// tensor: the one one-shot decode, behind
    /// [`ShapeShifterCodec::decode`] and the container's unpack.
    ///
    /// Two paths exist:
    ///
    /// * **Sequential** — a group's start position is only known after
    ///   the previous group's metadata has been parsed (groups are packed
    ///   back-to-back with no alignment — paper §3: "the incoming stream
    ///   will be decoded sequentially").
    /// * **Indexed** — a container-v2 chunk index records each chunk's
    ///   absolute bit offset and value count, so decode fans chunks out
    ///   across [`par::par_spans_mut`] workers, each parsing its own
    ///   range-confined reader straight into its own span of the output. The
    ///   stream bytes are identical either way — the index is side
    ///   metadata — so the output is **bit-identical** to the sequential
    ///   parse (property-tested). The index drives the decode only when it
    ///   can fan out: above one worker and with more than one chunk.
    ///
    /// The worker count follows the codec's [`ExecPolicy`]; under `Auto`,
    /// small tensors stay sequential. The stream is decoded under the
    /// *frame's* group size.
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
    ///   [`CodecError::IndexChunkMismatch`] if a chunk index drives the
    ///   decode but disagrees with the framing metadata or the stream.
    pub fn decode_scheme_stream(
        &self,
        scheme: &dyn ContainerScheme,
        stream: &[u8],
        frame: &StreamFrame,
        index: Option<&ChunkIndex>,
    ) -> Result<Tensor, CodecError> {
        let threads = self.exec.threads_for(frame.len, PARALLEL_MIN_VALUES);
        let index = index.filter(|index| threads > 1 && index.chunk_count() > 1);
        // No preallocation from `frame.len` here: it is untrusted framing
        // metadata until the framing path has bounded it against the
        // stream length (a hostile header must not OOM the process).
        let mut values = Vec::new();
        scheme.decode_into(stream, frame, index, threads, &mut values)?;
        Ok(Tensor::from_vec(
            Shape::flat(frame.len),
            frame.dtype,
            values,
        )?)
    }
}

impl Default for ShapeShifterCodec {
    /// The paper's default group size of 16.
    fn default() -> Self {
        Self::new(16)
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
        assert_eq!(enc.bit_len, 35 + 26);
        assert_eq!(enc.report.metadata_bits, 2 * (8 + 3));
        assert_eq!(enc.report.payload_bits, 4 * 6 + 5 * 3);
        assert_eq!(enc.len * usize::from(enc.dtype.bits()), 128);
        assert_eq!(codec.decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn paper_metadata_accounting() {
        // "this scheme requires 4 + 16 bits of metadata per group of
        // sixteen 16b values."
        let tensor = t(FixedType::U16, (1..=16).collect());
        let enc = ShapeShifterCodec::new(16).encode(&tensor).unwrap();
        assert_eq!(enc.report.groups, 1);
        assert_eq!(enc.report.metadata_bits, 16 + 4);
    }

    #[test]
    fn all_zero_tensor_costs_only_metadata() {
        let tensor = t(FixedType::I16, vec![0; 64]);
        let enc = ShapeShifterCodec::new(16).encode(&tensor).unwrap();
        assert_eq!(enc.report.payload_bits, 0);
        assert_eq!(enc.bit_len, 4 * (16 + 4));
        assert_eq!(ShapeShifterCodec::new(16).decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn signed_values_roundtrip() {
        let tensor = t(
            FixedType::I16,
            vec![
                -32767, 32767, 0, -1, 1, 0, 0, -255, 255, 64, -64, 0, 3, -3, 2, -2,
            ],
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
        assert_eq!(enc.report.groups, 1);
        // Z is only 3 bits wide for the short group.
        assert_eq!(enc.report.metadata_bits, 3 + 3);
        assert_eq!(codec.decode(&enc).unwrap(), tensor);
    }

    #[test]
    fn empty_tensor() {
        let tensor = t(FixedType::U8, vec![]);
        let codec = ShapeShifterCodec::new(16);
        let enc = codec.encode(&tensor).unwrap();
        assert_eq!(enc.bit_len, 0);
        assert_eq!(enc.len, 0);
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
        let enc = SchemeStream {
            bit_len: w.bit_len(),
            bytes: w.into_bytes(),
            len: 2,
            dtype: FixedType::U8,
            group_size: 2,
            ..SchemeStream::default()
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
        let enc = SchemeStream {
            bit_len: w.bit_len(),
            bytes: w.into_bytes(),
            len: 1,
            dtype: FixedType::unsigned(12).unwrap(),
            group_size: 1,
            ..SchemeStream::default()
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
            .report
            .payload_bits;
        let p256 = ShapeShifterCodec::new(256)
            .encode(&tensor)
            .unwrap()
            .report
            .payload_bits;
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
            assert_eq!(report, enc.report, "group {group}");
            assert_eq!(report.total_bits(), enc.bit_len, "group {group}");
            // Every scheme's stream carries exact accounting, and a
            // parallel encode is the sequential one.
            for id in SchemeRegistry::global().ids() {
                let scheme = SchemeRegistry::global().get(id).unwrap();
                let what = format!("{} group {group}", scheme.name());
                let seq = codec.with_exec(ExecPolicy::Sequential);
                let enc = seq.encode_with(scheme, &tensor).unwrap();
                assert_eq!(enc.report.total_bits(), enc.bit_len, "{what}");
                assert_eq!(enc.report.groups, tensor.len().div_ceil(group), "{what}");
                if id == SchemeId::SHAPESHIFTER {
                    assert_eq!(enc.report, report, "{what}");
                }
                let par = codec.with_exec(ExecPolicy::Threads(3));
                assert_eq!(par.encode_with(scheme, &tensor).unwrap(), enc, "{what}");
            }
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
    fn fanned_out_decode_equals_the_sequential_one() {
        // An index entry every 1, 3 or 7 groups, ragged tails: each worker
        // decodes its spans straight into its part of the output, which
        // must equal the sequential parse at every worker count.
        let vals: Vec<i32> = (0..1999)
            .map(|i| {
                if i % 3 == 0 {
                    0
                } else {
                    (i * 7919) % 6001 - 3000
                }
            })
            .collect();
        let tensor = t(FixedType::I16, vals);
        for (group, every) in [(16usize, 1usize), (16, 3), (64, 7), (7, 2)] {
            let codec =
                ShapeShifterCodec::new(group).with_index_policy(IndexPolicy::EveryGroups(every));
            let enc = codec.encode(&tensor).unwrap();
            assert!(enc.index.is_some(), "group {group}, every {every}");
            let sequential = codec.with_exec(ExecPolicy::Sequential).decode(&enc);
            assert_eq!(sequential.as_ref(), Ok(&tensor));
            for threads in [1usize, 2, 7] {
                let fanned = codec.with_exec(ExecPolicy::Threads(threads)).decode(&enc);
                assert_eq!(
                    fanned, sequential,
                    "group {group}, every {every}, {threads} workers"
                );
            }
        }
    }

    #[test]
    fn ratio_reflects_compression() {
        let tensor = t(FixedType::U16, vec![1; 160]);
        let enc = ShapeShifterCodec::new(16).encode(&tensor).unwrap();
        // Compressed / uncompressed below 0.2.
        assert!(enc.bit_len * 5 < tensor.container_bits(), "{enc:?}");
    }
}
