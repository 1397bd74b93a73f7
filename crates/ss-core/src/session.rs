//! [`CodecSession`]: a reusable encode/decode context that amortizes
//! every buffer across calls.
//!
//! The one-shot [`crate::ShapeShifterCodec`] API allocates a fresh
//! [`BitWriter`] per encode and a fresh value vector per decode. That is
//! the right shape for single tensors, but a batch engine pushing
//! thousands of tensors through one worker pays the allocator on every
//! call. A `CodecSession` owns the scratch instead — the bit writer, the
//! decode value buffer and the chunk-index entry buffer — and its encode
//! and tensor decode recycle the *output* containers too, so a
//! steady-state loop over same-sized tensors performs **zero heap
//! allocations per tensor** (asserted by a counting-allocator test in
//! `tests/session_alloc.rs`).
//!
//! Sessions are scheduling-transparent: a session encodes and decodes on
//! the calling thread (the natural fit for `ss-pipeline`, which runs one
//! session per worker), and its output is **bit-identical** to the
//! one-shot API under every [`crate::ExecPolicy`] — both run the one
//! framing path and cut index chunks at the same policy-determined
//! boundaries, so identity holds by construction and is re-checked by
//! the property suite in `tests/session_reuse.rs` and the golden-vector
//! corpus.
//!
//! A session has one encode and one decode. [`CodecSession::encode_stream`]
//! writes a [`SchemeStream`] under any scheme at the session's group
//! size and index policy. Every decode runs
//! [`CodecSession::decode_scheme_stream`], which leaves the values in
//! the session's scratch and lends them out;
//! [`CodecSession::decode_stream`] takes the scheme from the stream's own
//! wire id and swaps the scratch into a tensor.

use ss_bitio::BitWriter;
use ss_tensor::Tensor;

use crate::codec::{IndexPolicy, SchemeStream, ShapeShifterCodec};
use crate::index::ChunkEntry;
use crate::registry::{ContainerScheme, SchemeRegistry, StreamFrame};
use crate::scheme::ShapeShifterScheme;
use crate::{CodecConfig, CodecError};

/// A reusable encode/decode context: one codec configuration plus the
/// scratch buffers that the one-shot API would otherwise allocate per
/// call. [`CodecSession::encode_stream`] and
/// [`CodecSession::decode_stream`] recycle their outputs' buffers too, so
/// a steady-state loop over same-sized tensors allocates nothing per
/// tensor, and every output is bit-identical to the one-shot API's.
///
/// # Examples
///
/// ```
/// use ss_core::prelude::*;
/// use ss_core::scheme::DpRed;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), CodecError> {
/// let mut session = CodecSession::new(CodecConfig::new())?;
/// let mut stream = SchemeStream::default();
/// let mut decoded = Tensor::zeros(Shape::flat(0), FixedType::I16);
/// for round in 0..3 {
///     let t = Tensor::from_vec(
///         Shape::flat(4),
///         FixedType::I16,
///         vec![round, 0, -7, 300],
///     )?;
///     // Buffers are reused each round; the stream names its scheme.
///     session.encode_stream(&DpRed::default(), &t, &mut stream)?;
///     session.decode_stream(&stream, &mut decoded)?;
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
    /// storage each tensor decode, so both grow once to the high-water
    /// mark and then cycle.
    values: Vec<i32>,
    /// Reusable chunk-index entry buffer for encodes whose policy writes
    /// an index. Reclaimed from the output stream's previous index.
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

    /// Encodes `tensor` under `scheme` into an existing stream, at the
    /// session's group size and index policy, reusing both the session's
    /// scratch and the stream's buffers.
    ///
    /// `out` is fully overwritten; its previous contents only determine
    /// how much allocated capacity the call starts with (its chunk index,
    /// if any, becomes the next index's storage). The result — stream
    /// bytes, accounting and chunk index alike — is **bit-identical** to
    /// `self.codec().encode_with(scheme, tensor)`.
    ///
    /// # Errors
    ///
    /// As [`ContainerScheme::encode_into`].
    pub fn encode_stream(
        &mut self,
        scheme: &dyn ContainerScheme,
        tensor: &Tensor,
        out: &mut SchemeStream,
    ) -> Result<(), CodecError> {
        self.encode_under(scheme, tensor, self.codec.index_policy(), out)
    }

    /// The one session encode: [`CodecSession::encode_stream`] under an
    /// explicit index policy.
    fn encode_under(
        &mut self,
        scheme: &dyn ContainerScheme,
        tensor: &Tensor,
        policy: IndexPolicy,
        out: &mut SchemeStream,
    ) -> Result<(), CodecError> {
        if let Some(prev) = out.index.take() {
            // Keep the larger of the two entry buffers, so indexed
            // encodes stop allocating once both have grown.
            let prev = prev.into_entries();
            if prev.capacity() > self.entries.capacity() {
                self.entries = prev;
            }
        }
        let group_size = self.codec.group_size();
        let (report, index) = scheme.encode_into(
            tensor,
            group_size,
            policy,
            1,
            &mut self.w,
            &mut self.entries,
        )?;
        out.scheme = scheme.wire_id();
        out.bytes.clear();
        out.bytes.extend_from_slice(self.w.as_bytes());
        out.bit_len = self.w.bit_len();
        out.dtype = tensor.dtype();
        out.len = tensor.len();
        out.group_size = group_size;
        out.index = index;
        out.report = report;
        Ok(())
    }

    /// Decodes a stream into an existing tensor under the scheme its wire
    /// id names, reusing the session's value scratch and the tensor's
    /// storage (swapped, not copied).
    ///
    /// `out` is fully overwritten: it takes the stream's dtype, a flat
    /// shape of the decoded length, and the decoded values. The stream is
    /// decoded under its *own* group size, which may differ from the
    /// session's, and parsed sequentially: a chunk index, if the stream
    /// carries one, is side metadata this path ignores.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownScheme`] if no registered scheme claims the
    /// stream's id; otherwise as [`ContainerScheme::decode_into`].
    pub fn decode_stream(
        &mut self,
        stream: &SchemeStream,
        out: &mut Tensor,
    ) -> Result<(), CodecError> {
        let scheme = SchemeRegistry::global().get(stream.scheme)?;
        self.decode_scheme_stream_into(scheme, &stream.bytes, &stream.frame(), out)
    }

    /// Decodes a raw scheme stream (framing supplied by the caller, e.g.
    /// parsed from an `SSPK` container header) into the session's value
    /// scratch and lends it out — the one decode path behind every
    /// session decode, the container `unpack_values`/`unpack_with` paths
    /// and the shard store's per-record decode. No tensor is built and
    /// nothing is copied: the values stay in the scratch until the next
    /// decode overwrites them. Every value fits `frame.dtype`, because
    /// each scheme's group reader refuses one that does not
    /// ([`CodecError::CorruptValue`]). The parse is sequential: a chunk
    /// index, if the container carried one, is side metadata this path
    /// ignores.
    ///
    /// # Errors
    ///
    /// As [`ContainerScheme::decode_into`].
    pub fn decode_scheme_stream(
        &mut self,
        scheme: &dyn ContainerScheme,
        stream: &[u8],
        frame: &StreamFrame,
    ) -> Result<&[i32], CodecError> {
        scheme.decode_into(stream, frame, None, 1, &mut self.values)?;
        Ok(&self.values)
    }

    /// [`CodecSession::decode_scheme_stream`] into an existing tensor:
    /// the decoded scratch is swapped into `out` (not copied) and the
    /// tensor's previous storage becomes the next call's scratch.
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
        self.decode_scheme_stream(scheme, stream, frame)?;
        // The range re-validation cannot fail: every scheme's decode
        // checked each value against the container.
        let scratch = std::mem::take(&mut self.values);
        self.values = out.replace_flat(frame.dtype, scratch)?;
        Ok(())
    }

    /// [`CodecSession::encode_stream`] under the ShapeShifter scheme.
    /// Kept for the benchmark's sources until their next change (ROADMAP
    /// item 5).
    ///
    /// # Errors
    ///
    /// As [`CodecSession::encode_stream`].
    pub fn encode_into(
        &mut self,
        tensor: &Tensor,
        out: &mut SchemeStream,
    ) -> Result<(), CodecError> {
        self.encode_stream(&ShapeShifterScheme::default(), tensor, out)
    }

    /// [`CodecSession::decode_stream`]. Kept for the benchmark's sources
    /// until their next change (ROADMAP item 5).
    ///
    /// # Errors
    ///
    /// As [`CodecSession::decode_stream`].
    pub fn decode_into(
        &mut self,
        stream: &SchemeStream,
        out: &mut Tensor,
    ) -> Result<(), CodecError> {
        self.decode_stream(stream, out)
    }

    /// [`CodecSession::encode_stream`] under an explicit index policy
    /// instead of the session's. Kept for the benchmark's sources until
    /// their next change (ROADMAP item 5).
    ///
    /// # Errors
    ///
    /// As [`CodecSession::encode_stream`].
    pub fn encode_with_scheme(
        &mut self,
        scheme: &dyn ContainerScheme,
        tensor: &Tensor,
        policy: IndexPolicy,
        out: &mut SchemeStream,
    ) -> Result<(), CodecError> {
        self.encode_under(scheme, tensor, policy, out)
    }

    /// [`CodecSession::decode_scheme_stream_into`] on `stream`'s parts,
    /// after checking that `scheme` is the one the stream names. Kept for
    /// the benchmark's sources until their next change (ROADMAP item 5);
    /// [`CodecSession::decode_stream`] needs no scheme argument.
    ///
    /// # Errors
    ///
    /// [`CodecError::SchemeMismatch`] if `scheme`'s wire id is not
    /// `stream.scheme`; otherwise as [`ContainerScheme::decode_into`].
    pub fn decode_with_scheme(
        &mut self,
        scheme: &dyn ContainerScheme,
        stream: &SchemeStream,
        out: &mut Tensor,
    ) -> Result<(), CodecError> {
        if scheme.wire_id() != stream.scheme {
            return Err(CodecError::SchemeMismatch {
                stream: stream.scheme.as_byte(),
                requested: scheme.wire_id().as_byte(),
            });
        }
        self.decode_scheme_stream_into(scheme, &stream.bytes, &stream.frame(), out)
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
    use crate::registry::SchemeId;
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
        let mut out = SchemeStream::default();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        for id in SchemeRegistry::global().ids() {
            let scheme = SchemeRegistry::global().get(id).unwrap();
            for len in [0usize, 1, 15, 16, 17, 1000] {
                let t = tensor(len, 7);
                session.encode_stream(scheme, &t, &mut out).unwrap();
                let one_shot = codec.encode_with(scheme, &t).unwrap();
                assert_eq!(out, one_shot, "scheme {id} len {len}");
                session.decode_stream(&out, &mut back).unwrap();
                assert_eq!(back, t, "scheme {id} len {len}");
            }
        }
    }

    #[test]
    fn reuse_across_mixed_sizes_is_clean() {
        let mut session = CodecSession::new(CodecConfig::new()).unwrap();
        let mut out = SchemeStream::default();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        let scheme = ShapeShifterScheme::default();
        // Shrinking and growing between calls must not leak stale state.
        for (round, len) in [1000usize, 3, 0, 517, 64].into_iter().enumerate() {
            let t = tensor(len, round as i32);
            session.encode_stream(&scheme, &t, &mut out).unwrap();
            session.decode_stream(&out, &mut back).unwrap();
            assert_eq!(back, t, "round {round} len {len}");
        }
    }

    #[test]
    fn session_convenience_calls_match_one_shot() {
        // The calls kept for the benchmark are the one encode and decode.
        let cfg = CodecConfig::new();
        let codec = cfg.build().unwrap();
        let mut session = CodecSession::new(cfg).unwrap();
        let t = tensor(333, 1);
        let mut enc = SchemeStream::default();
        session.encode_into(&t, &mut enc).unwrap();
        assert_eq!(enc, codec.encode(&t).unwrap());
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        session.decode_into(&enc, &mut back).unwrap();
        assert_eq!(back, t);
        let dpred = SchemeRegistry::global().get(SchemeId::DPRED).unwrap();
        session
            .encode_with_scheme(dpred, &t, IndexPolicy::None, &mut enc)
            .unwrap();
        assert_eq!(enc, codec.encode_with(dpred, &t).unwrap());
        session.decode_with_scheme(dpred, &enc, &mut back).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn decode_under_foreign_group_size() {
        // Session configured for group 16 must decode a group-64 container.
        let foreign = CodecConfig::new().with_group_size(64).build().unwrap();
        let t = tensor(200, 9);
        let enc = foreign.encode(&t).unwrap();
        let mut session = CodecSession::new(CodecConfig::new()).unwrap();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        session.decode_stream(&enc, &mut back).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn decode_with_scheme_refuses_a_scheme_the_stream_does_not_name() {
        // Decoding a stream under another scheme's layout can succeed with
        // a wrong tensor (an AdaBits stream read as DPRed often does), so
        // every such request is refused before any bit is read.
        let cfg = CodecConfig::new().with_index_policy(IndexPolicy::None);
        let mut session = CodecSession::new(cfg).unwrap();
        let registry = SchemeRegistry::global();
        let mut stream = SchemeStream::default();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for k in 0..200u64 {
            let vals: Vec<i32> = (0..64)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let r = state >> 11;
                    let sign = if r & 1 == 1 { -1 } else { 1 };
                    // Tensors range from dense to almost all zeros.
                    if (r >> 1) % 20 < k % 20 {
                        return 0;
                    }
                    sign * match (r >> 6) % 10 {
                        0..=3 => 0,
                        4..=7 => ((r >> 5) % 15 + 1) as i32,
                        _ => ((r >> 5) % 2000 + 1) as i32,
                    }
                })
                .collect();
            let t = Tensor::from_vec(Shape::flat(64), FixedType::I16, vals).unwrap();
            for from in registry.ids() {
                let encoder = registry.get(from).unwrap();
                session.encode_stream(encoder, &t, &mut stream).unwrap();
                for to in registry.ids().filter(|&to| to != from) {
                    let decoder = registry.get(to).unwrap();
                    assert_eq!(
                        session.decode_with_scheme(decoder, &stream, &mut back),
                        Err(CodecError::SchemeMismatch {
                            stream: from.as_byte(),
                            requested: to.as_byte(),
                        }),
                        "stream {from} decoded as {to}"
                    );
                }
                session
                    .decode_with_scheme(encoder, &stream, &mut back)
                    .unwrap();
                assert_eq!(back, t, "scheme {from}");
            }
        }
    }
}
