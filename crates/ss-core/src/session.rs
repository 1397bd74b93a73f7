//! [`CodecSession`]: a reusable encode/decode context that amortizes
//! every buffer across calls.
//!
//! The one-shot [`crate::ShapeShifterCodec`] API allocates a fresh
//! [`BitWriter`] per encode and a fresh value vector per decode. That is
//! the right shape for single tensors, but a batch engine pushing
//! thousands of tensors through one worker pays the allocator on every
//! call. A `CodecSession` owns the scratch instead — the bit writer, the
//! decode value buffer and the chunk-index entry buffer — and the
//! `*_into` methods recycle the *output* containers too, so a
//! steady-state loop over same-sized tensors performs **zero heap
//! allocations per tensor** (asserted by a counting-allocator test in
//! `tests/session_alloc.rs`).
//!
//! Sessions are scheduling-transparent: a session encodes and decodes on
//! the calling thread (the natural fit for `ss-pipeline`, which runs one
//! session per worker), and its output is **bit-identical** to the
//! one-shot API under every [`crate::ExecPolicy`] — both call into the
//! same group loop and cut index chunks at the same policy-determined
//! boundaries, so identity holds by construction and is re-checked by
//! the property suite in `tests/session_reuse.rs` and the golden-vector
//! corpus. That shared group loop is the word-parallel
//! [`crate::kernels`] path — fused zero-bitmap/width scans on encode,
//! bulk field extraction on decode — so sessions get the kernel speedups
//! without any session-specific code.
//!
//! ShapeShifter encodes take one sequential framing path
//! (`ShapeShifterCodec::encode_framed`) whether they arrive through
//! [`CodecSession::encode_into`] or through the registry scheme behind
//! [`CodecSession::encode_with_scheme`], and every decode — the
//! [`EncodedTensor`] one included — runs through
//! [`CodecSession::decode_scheme_stream_into`].

use ss_bitio::BitWriter;
use ss_tensor::{FixedType, Tensor};

use crate::codec::{EncodedTensor, IndexPolicy, ShapeShifterCodec};
use crate::index::{ChunkEntry, ChunkIndex};
use crate::registry::{ContainerScheme, SchemeId, StreamFrame};
use crate::scheme::ShapeShifterScheme;
use crate::{CodecConfig, CodecError};

/// A scheme-encoded stream plus its framing — the registry-era analogue
/// of [`EncodedTensor`], produced by [`CodecSession::encode_with_scheme`]
/// and consumed by [`CodecSession::decode_with_scheme`]. Carries the wire
/// id so the stream is self-describing for store and serve layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeStream {
    /// The scheme that produced the stream (its stable wire id).
    pub scheme: SchemeId,
    /// The stream bytes.
    pub bytes: Vec<u8>,
    /// Exact stream length in bits.
    pub bit_len: u64,
    /// Value container type.
    pub dtype: FixedType,
    /// Element count.
    pub len: usize,
    /// Grouping granularity the stream was encoded at.
    pub group_size: usize,
    /// The chunk index, when the scheme participates in indexing and the
    /// policy produced one.
    pub index: Option<ChunkIndex>,
}

impl Default for SchemeStream {
    fn default() -> Self {
        Self {
            scheme: SchemeId::SHAPESHIFTER,
            bytes: Vec::new(),
            bit_len: 0,
            dtype: FixedType::U8,
            len: 0,
            group_size: 16,
            index: None,
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

/// A reusable encode/decode context: one codec configuration plus the
/// scratch buffers that the one-shot API would otherwise allocate per
/// call. See the [module docs](self) for the reuse contract.
///
/// # Examples
///
/// ```
/// use ss_core::prelude::*;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), CodecError> {
/// let mut session = CodecSession::new(CodecConfig::new())?;
/// let mut encoded = EncodedTensor::default();
/// let mut decoded = Tensor::zeros(Shape::flat(0), FixedType::I16);
/// for round in 0..3 {
///     let t = Tensor::from_vec(
///         Shape::flat(4),
///         FixedType::I16,
///         vec![round, 0, -7, 300],
///     )?;
///     session.encode_into(&t, &mut encoded)?; // buffers reused each round
///     session.decode_into(&encoded, &mut decoded)?;
///     assert_eq!(decoded, t);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodecSession {
    codec: ShapeShifterCodec,
    /// Reusable encode stream buffer (cleared, never shrunk, per call).
    w: BitWriter,
    /// Reusable decode value buffer; swapped with the output tensor's
    /// storage each `decode_into`, so both grow once to the high-water
    /// mark and then cycle.
    values: Vec<i32>,
    /// Reusable chunk-index entry buffer for encodes whose policy writes
    /// an index. Reclaimed from the output container's previous index.
    entries: Vec<ChunkEntry>,
}

impl CodecSession {
    /// Creates a session from a configuration.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidGroupSize`] if the config's group size is 0 or
    /// exceeds 256.
    pub fn new(config: CodecConfig) -> Result<Self, CodecError> {
        Ok(Self {
            codec: ShapeShifterCodec::from_config(config)?,
            w: BitWriter::new(),
            values: Vec::new(),
            entries: Vec::new(),
        })
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> CodecConfig {
        self.codec.config()
    }

    /// The codec this session wraps (same configuration, one-shot API).
    #[must_use]
    pub fn codec(&self) -> &ShapeShifterCodec {
        &self.codec
    }

    /// Encodes `tensor` into an existing container, reusing both the
    /// session's scratch and the container's buffers.
    ///
    /// `out` is fully overwritten; its previous contents only determine
    /// how much allocated capacity the call starts with. The resulting
    /// container — stream bytes, accounting and chunk index alike — is
    /// **bit-identical** to `self.codec().encode(tensor)`.
    ///
    /// # Errors
    ///
    /// Same as [`ShapeShifterCodec::encode`].
    pub fn encode_into(
        &mut self,
        tensor: &Tensor,
        out: &mut EncodedTensor,
    ) -> Result<(), CodecError> {
        self.reclaim_entries(out.index.take());
        let (report, index) = self
            .codec
            .encode_framed(tensor, &mut self.w, &mut self.entries)?;
        out.bytes.clear();
        out.bytes.extend_from_slice(self.w.as_bytes());
        out.bit_len = self.w.bit_len();
        out.len = tensor.len();
        out.dtype = tensor.dtype();
        out.group_size = self.codec.group_size();
        out.groups = report.groups;
        out.metadata_bits = report.metadata_bits;
        out.payload_bits = report.payload_bits;
        out.index = index;
        Ok(())
    }

    /// Keeps the entry storage of an output's previous chunk index as the
    /// next encode's index buffer (whichever of the two is larger), so
    /// indexed encodes stop allocating once both have grown.
    fn reclaim_entries(&mut self, prev: Option<ChunkIndex>) {
        if let Some(prev) = prev {
            let prev = prev.into_entries();
            if prev.capacity() > self.entries.capacity() {
                self.entries = prev;
            }
        }
    }

    /// Decodes a container into an existing tensor, reusing the session's
    /// value scratch and the tensor's storage (swapped, not copied).
    ///
    /// `out` is fully overwritten: it takes the container's dtype, a flat
    /// shape of the decoded length, and the decoded values. The result is
    /// identical to `self.codec().decode(encoded)` — the session parses
    /// the stream sequentially, which every container supports (a chunk
    /// index, if present, is side metadata the sequential parse ignores).
    ///
    /// # Errors
    ///
    /// Same as [`ShapeShifterCodec::decode`].
    pub fn decode_into(
        &mut self,
        encoded: &EncodedTensor,
        out: &mut Tensor,
    ) -> Result<(), CodecError> {
        // Decode under the *container's* group size (which may differ from
        // the session's), exactly as the one-shot decode does.
        let frame = StreamFrame {
            bit_len: encoded.bit_len,
            dtype: encoded.dtype,
            len: encoded.len,
            group_size: encoded.group_size,
        };
        self.decode_scheme_stream_into(&ShapeShifterScheme::default(), &encoded.bytes, &frame, out)
    }

    /// Encodes `tensor` under an arbitrary registered scheme into an
    /// existing [`SchemeStream`], reusing the session's stream scratch.
    ///
    /// The group size is the session's; `out` is fully overwritten, and
    /// its previous chunk index (if any) is recycled as the next index's
    /// storage exactly as [`CodecSession::encode_into`] recycles an
    /// [`EncodedTensor`]'s. The stream bytes are bit-identical to the
    /// scheme's own `encode_into` by construction (both run on the same
    /// writer path).
    ///
    /// # Errors
    ///
    /// As [`ContainerScheme::encode_into`].
    pub fn encode_with_scheme(
        &mut self,
        scheme: &dyn ContainerScheme,
        tensor: &Tensor,
        policy: IndexPolicy,
        out: &mut SchemeStream,
    ) -> Result<(), CodecError> {
        self.reclaim_entries(out.index.take());
        let index = scheme.encode_into(
            tensor,
            self.codec.group_size(),
            policy,
            &mut self.w,
            &mut self.entries,
        )?;
        out.scheme = scheme.wire_id();
        out.bytes.clear();
        out.bytes.extend_from_slice(self.w.as_bytes());
        out.bit_len = self.w.bit_len();
        out.dtype = tensor.dtype();
        out.len = tensor.len();
        out.group_size = self.codec.group_size();
        out.index = index;
        Ok(())
    }

    /// Decodes a [`SchemeStream`] into an existing tensor, reusing the
    /// session's value scratch (swapped, not copied). The parse is
    /// sequential — a chunk index, if the stream carries one, is side
    /// metadata this path ignores, exactly like
    /// [`CodecSession::decode_into`].
    ///
    /// # Errors
    ///
    /// As [`ContainerScheme::decode_into`].
    pub fn decode_with_scheme(
        &mut self,
        scheme: &dyn ContainerScheme,
        stream: &SchemeStream,
        out: &mut Tensor,
    ) -> Result<(), CodecError> {
        self.decode_scheme_stream_into(scheme, &stream.bytes, &stream.frame(), out)
    }

    /// Decodes a raw scheme stream (framing supplied by the caller, e.g.
    /// parsed from an `SSPK` container header) into an existing tensor,
    /// reusing the session's value scratch (swapped, not copied) — the one
    /// decode path behind [`CodecSession::decode_into`],
    /// [`CodecSession::decode_with_scheme`] and the container
    /// `unpack_with` path, which is the per-record decode of the shard
    /// store. The parse is sequential: a chunk index, if the container
    /// carried one, is side metadata this path ignores.
    ///
    /// # Errors
    ///
    /// As [`ContainerScheme::decode_into`].
    pub fn decode_scheme_stream_into(
        &mut self,
        scheme: &dyn ContainerScheme,
        stream: &[u8],
        frame: &StreamFrame,
        out: &mut Tensor,
    ) -> Result<(), CodecError> {
        scheme.decode_into(stream, frame, None, 1, &mut self.values)?;
        // Swap the decoded buffer into the tensor and keep its previous
        // storage as the next call's scratch. The range re-validation
        // cannot fail: every scheme's decode checked each value against
        // the container.
        let scratch = std::mem::take(&mut self.values);
        self.values = out.replace_flat(frame.dtype, scratch)?;
        Ok(())
    }

    /// One-shot encode through the session (allocates the container, but
    /// still reuses the session's stream scratch).
    ///
    /// # Errors
    ///
    /// Same as [`ShapeShifterCodec::encode`].
    pub fn encode(&mut self, tensor: &Tensor) -> Result<EncodedTensor, CodecError> {
        let mut out = EncodedTensor::default();
        self.encode_into(tensor, &mut out)?;
        Ok(out)
    }

    /// One-shot decode through the session (allocates the tensor, but
    /// still reuses the session's value scratch).
    ///
    /// # Errors
    ///
    /// Same as [`ShapeShifterCodec::decode`].
    pub fn decode(&mut self, encoded: &EncodedTensor) -> Result<Tensor, CodecError> {
        let mut out = Tensor::zeros(ss_tensor::Shape::flat(0), encoded.dtype);
        self.decode_into(encoded, &mut out)?;
        Ok(out)
    }

    /// Bytes of stream-scratch capacity currently held (the encode
    /// high-water mark; diagnostic only).
    #[must_use]
    pub fn scratch_capacity_bytes(&self) -> usize {
        self.w.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{FixedType, Shape};

    fn tensor(len: usize, seed: i32) -> Tensor {
        let vals: Vec<i32> = (0..len as i32)
            .map(|i| {
                let x = (i.wrapping_mul(31) ^ seed) % 500;
                if x % 3 == 0 {
                    0
                } else {
                    x - 250
                }
            })
            .collect();
        Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn session_matches_one_shot_including_index() {
        let cfg = CodecConfig::new().with_index_policy(IndexPolicy::EveryGroups(4));
        let codec = cfg.build().unwrap();
        let mut session = CodecSession::new(cfg).unwrap();
        let mut out = EncodedTensor::default();
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let t = tensor(len, 7);
            session.encode_into(&t, &mut out).unwrap();
            let one_shot = codec.encode(&t).unwrap();
            assert_eq!(out, one_shot, "len {len}");
            let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
            session.decode_into(&out, &mut back).unwrap();
            assert_eq!(back, t, "len {len}");
        }
    }

    #[test]
    fn reuse_across_mixed_sizes_is_clean() {
        let mut session = CodecSession::new(CodecConfig::new()).unwrap();
        let mut out = EncodedTensor::default();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        // Shrinking and growing between calls must not leak stale state.
        for (round, len) in [1000usize, 3, 0, 517, 64].into_iter().enumerate() {
            let t = tensor(len, round as i32);
            session.encode_into(&t, &mut out).unwrap();
            session.decode_into(&out, &mut back).unwrap();
            assert_eq!(back, t, "round {round} len {len}");
        }
    }

    #[test]
    fn session_convenience_calls_match_one_shot() {
        let cfg = CodecConfig::new();
        let mut session = CodecSession::new(cfg).unwrap();
        let t = tensor(333, 1);
        let enc = session.encode(&t).unwrap();
        assert_eq!(enc, cfg.build().unwrap().encode(&t).unwrap());
        assert_eq!(session.decode(&enc).unwrap(), t);
    }

    #[test]
    fn decode_under_foreign_group_size() {
        // Session configured for group 16 must decode a group-64 container.
        let foreign = CodecConfig::new().with_group_size(64).build().unwrap();
        let t = tensor(200, 9);
        let enc = foreign.encode(&t).unwrap();
        let mut session = CodecSession::new(CodecConfig::new()).unwrap();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        session.decode_into(&enc, &mut back).unwrap();
        assert_eq!(back, t);
    }
}
