//! A self-describing file container for ShapeShifter-compressed tensors.
//!
//! The paper's memory container is a headerless stream whose framing
//! (element count, container type, group size) travels as layer metadata.
//! For files, this module prepends exactly that metadata:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SSPK"
//! 4       1     format version (1 or 2)
//! 5       1     container bits (1..=16)
//! 6       1     signedness (0 unsigned, 1 signed)
//! 7       1     scheme wire id (resolved via `ss_core::SchemeRegistry`:
//!               0 ShapeShifter, 1 Delta, 2 DPRed, 3 AdaBits built in)
//! 8       2     group size, little-endian
//! 10      8     element count, little-endian
//! 18      8     stream length in bits, little-endian
//! 26      -     v1: the compressed stream
//! ```
//!
//! A **version-2** container carries the optional chunk index between the
//! header and the stream, enabling parallel decode (`ss_core::ChunkIndex`
//! serializes with its own CRC-32, so index corruption is detected
//! independently of the header):
//!
//! ```text
//! 26      4     index length in bytes, little-endian
//! 30      -     the serialized chunk index
//! 30+n    -     the compressed stream (byte-identical to v1)
//! ```
//!
//! `pack` writes v2 exactly when the codec's index policy produced an
//! index (large ShapeShifter tensors under the default `Auto` policy);
//! small tensors and the Delta codec stay v1. Both versions unpack, and a
//! v1 file decodes through the same sequential path as always.
//!
//! # Examples
//!
//! ```
//! use shapeshifter::container;
//! use shapeshifter::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t = Tensor::from_vec(Shape::flat(4), FixedType::I16, vec![1, -2, 0, 300])?;
//! let packed = container::pack(&t, 16)?;
//! let back = container::unpack(&packed)?;
//! assert_eq!(back, t);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use ss_core::registry::StreamFrame;
use ss_core::{
    ChunkIndex, CodecConfig, CodecError, ContainerScheme, ExecPolicy, IndexPolicy, SchemeId,
    SchemeRegistry, ShapeShifterCodec,
};
use ss_tensor::{FixedType, Tensor, TensorError};

/// File magic.
pub const MAGIC: [u8; 4] = *b"SSPK";
/// The v1 format version: header + stream.
pub const VERSION: u8 = 1;
/// The v2 format version: header + chunk-index block + stream.
pub const VERSION_V2: u8 = 2;
/// Header length in bytes (shared by both versions).
pub const HEADER_LEN: usize = 26;

/// Errors for the file container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The file does not start with the `SSPK` magic.
    BadMagic,
    /// The file declares an unsupported format version.
    UnsupportedVersion(u8),
    /// The header is shorter than [`HEADER_LEN`] or internally
    /// inconsistent.
    Malformed(String),
    /// The serialized chunk index exceeds the format's 4 GiB limit (its
    /// length travels as a `u32`), so the container cannot be written
    /// without silently truncating the length field.
    IndexTooLarge {
        /// Actual serialized index size in bytes.
        bytes: usize,
    },
    /// A declared length is valid `u64` framing but does not fit this
    /// target's `usize` — decoding would wrap on a 32-bit host.
    LengthOverflow {
        /// Which header field overflowed.
        field: &'static str,
        /// The declared value.
        value: u64,
    },
    /// The compressed stream failed to decode.
    Codec(CodecError),
    /// Tensor validation failed.
    Tensor(TensorError),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not an SSPK container (bad magic)"),
            ContainerError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v}")
            }
            ContainerError::Malformed(why) => write!(f, "malformed container: {why}"),
            ContainerError::IndexTooLarge { bytes } => write!(
                f,
                "chunk index is {bytes} bytes; the v2 length field holds at most {} \
                 (pack with a coarser index policy)",
                u32::MAX
            ),
            ContainerError::LengthOverflow { field, value } => write!(
                f,
                "header field {field} declares {value}, which overflows this target's usize"
            ),
            ContainerError::Codec(e) => write!(f, "stream decode failed: {e}"),
            ContainerError::Tensor(e) => write!(f, "tensor validation failed: {e}"),
        }
    }
}

impl Error for ContainerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ContainerError::Codec(e) => Some(e),
            ContainerError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ContainerError {
    fn from(e: CodecError) -> Self {
        ContainerError::Codec(e)
    }
}

impl From<TensorError> for ContainerError {
    fn from(e: TensorError) -> Self {
        ContainerError::Tensor(e)
    }
}

/// Decoded header metadata (what `sspack info` prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Format version (1 or 2).
    pub version: u8,
    /// Value container type.
    pub dtype: FixedType,
    /// Group size.
    pub group_size: usize,
    /// Element count.
    pub len: u64,
    /// Compressed stream length in bits.
    pub stream_bits: u64,
    /// Serialized chunk-index size in bytes (0 for v1 containers).
    pub index_bytes: usize,
    /// The scheme wire id (header byte 7). Parsed permissively: any byte
    /// is representable, and validity is decided by the registry at
    /// unpack time — an unregistered id surfaces there as the typed
    /// [`CodecError::UnknownScheme`].
    pub scheme: SchemeId,
}

impl ContainerInfo {
    /// Compression ratio vs the raw container (lower is better). The
    /// element count comes from an untrusted header, so the raw size is
    /// computed in floating point, where a hostile count cannot overflow.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            // ss-lint: allow(determinism) -- a display figure (`sspack info`); no serialized byte depends on it
            self.stream_bits as f64 / (self.len as f64 * f64::from(self.dtype.bits()))
        }
    }

    /// Index metadata overhead in bits per tensor value (0 for v1).
    #[must_use]
    pub fn index_overhead_bits_per_value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            (self.index_bytes as u64 * 8) as f64 / self.len as f64
        }
    }

    /// Byte offset of the compressed stream within the file.
    #[must_use]
    pub fn stream_offset(&self) -> usize {
        if self.version >= VERSION_V2 {
            HEADER_LEN + 4 + self.index_bytes
        } else {
            HEADER_LEN
        }
    }
}

/// Packs a tensor into an `SSPK` byte vector (ShapeShifter scheme).
///
/// # Errors
///
/// [`CodecError::InvalidGroupSize`] (as a [`ContainerError::Codec`]) if
/// `group_size` is 0 or exceeds 256; otherwise propagates encode
/// failures (unreachable for valid tensors).
pub fn pack(tensor: &Tensor, group_size: usize) -> Result<Vec<u8>, ContainerError> {
    pack_with_policy(
        tensor,
        group_size,
        SchemeId::SHAPESHIFTER,
        IndexPolicy::Auto,
    )
}

/// Packs a tensor under any registered scheme (default index policy).
///
/// # Errors
///
/// As [`pack`], plus [`CodecError::UnknownScheme`] if `scheme` is not
/// registered.
pub fn pack_with_scheme(
    tensor: &Tensor,
    group_size: usize,
    scheme: impl Into<SchemeId>,
) -> Result<Vec<u8>, ContainerError> {
    pack_with_policy(tensor, group_size, scheme, IndexPolicy::Auto)
}

/// Packs a tensor with explicit scheme and chunk-index policy choices,
/// resolving the scheme in the global [`SchemeRegistry`].
///
/// The index policy only applies to schemes that participate in chunk
/// indexing (ShapeShifter): when the scheme produces an index the file is
/// written as version 2 (index block between header and stream);
/// otherwise the file is the classic version 1.
///
/// # Errors
///
/// As [`pack_with_scheme`].
pub fn pack_with_policy(
    tensor: &Tensor,
    group_size: usize,
    scheme: impl Into<SchemeId>,
    policy: IndexPolicy,
) -> Result<Vec<u8>, ContainerError> {
    let id = scheme.into();
    let scheme = SchemeRegistry::global().get(id)?;
    let stream = CodecConfig::new()
        .with_group_size(group_size)
        .with_index_policy(policy)
        .with_exec(ExecPolicy::Sequential)
        .build()?
        .encode_with(scheme, tensor)?;
    let index_blob = stream
        .index
        .as_ref()
        .map(ChunkIndex::to_bytes)
        .transpose()?;
    let bytes = &stream.bytes;
    let bit_len = stream.bit_len;
    let index_len = index_blob
        .as_ref()
        .map_or(Ok(0u32), |blob| index_block_len(blob.len()))?;
    let mut out = Vec::with_capacity(HEADER_LEN + 4 + index_len as usize + bytes.len());
    out.extend_from_slice(&MAGIC);
    out.push(if index_blob.is_some() {
        VERSION_V2
    } else {
        VERSION
    });
    out.push(tensor.dtype().bits());
    out.push(u8::from(tensor.signedness().is_signed()));
    out.push(id.as_byte());
    out.extend_from_slice(&(group_size as u16).to_le_bytes());
    out.extend_from_slice(&(tensor.len() as u64).to_le_bytes());
    out.extend_from_slice(&bit_len.to_le_bytes());
    if let Some(blob) = index_blob {
        out.extend_from_slice(&index_len.to_le_bytes());
        out.extend_from_slice(&blob);
    }
    out.extend_from_slice(bytes);
    Ok(out)
}

/// Checked conversion of a serialized chunk-index size to the v2 format's
/// `u32` length field. A ≥ 4 GiB index would otherwise truncate under
/// `as u32` and produce a corrupt-but-well-formed file whose declared
/// index block is a prefix of the real one.
fn index_block_len(blob_len: usize) -> Result<u32, ContainerError> {
    u32::try_from(blob_len).map_err(|_| ContainerError::IndexTooLarge { bytes: blob_len })
}

/// Reads only the header.
///
/// # Errors
///
/// [`ContainerError`] variants for bad magic, version or malformed
/// headers.
pub fn info(bytes: &[u8]) -> Result<ContainerInfo, ContainerError> {
    if bytes.len() < HEADER_LEN {
        return Err(ContainerError::Malformed(format!(
            "file is {} bytes, header needs {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = bytes[4];
    if version != VERSION && version != VERSION_V2 {
        return Err(ContainerError::UnsupportedVersion(version));
    }
    let bits = bytes[5];
    let dtype = match bytes[6] {
        0 => FixedType::unsigned(bits),
        1 => FixedType::signed(bits),
        s => {
            return Err(ContainerError::Malformed(format!(
                "signedness byte {s} is neither 0 nor 1"
            )))
        }
    }?;
    // Parsed permissively: the header reports whatever byte it carries,
    // and the registry decides validity at unpack time with a typed
    // `CodecError::UnknownScheme` (the old path collapsed unknown ids
    // into an untyped Malformed string here).
    // ss-lint: allow(panic-freedom) -- the HEADER_LEN check above guarantees byte 7 exists
    let scheme = SchemeId::new(bytes[7]);
    let group_size = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
    if group_size == 0 || group_size > 256 {
        return Err(ContainerError::Malformed(format!(
            "group size {group_size} outside 1..=256"
        )));
    }
    let len = u64::from_le_bytes(bytes[10..18].try_into().expect("slice length checked"));
    let stream_bits = u64::from_le_bytes(bytes[18..26].try_into().expect("slice length checked"));
    let index_bytes = if version == VERSION_V2 {
        let Some(rest) = bytes.len().checked_sub(HEADER_LEN + 4) else {
            return Err(ContainerError::Malformed(
                "v2 file too short for its index-length field".to_string(),
            ));
        };
        let declared = u32::from_le_bytes(
            bytes[HEADER_LEN..HEADER_LEN + 4]
                .try_into()
                .expect("slice length checked"),
        );
        // Checked, not `as`: a 16-bit-usize target must reject rather
        // than wrap a length the framing itself allows.
        let index_len = usize::try_from(declared).map_err(|_| ContainerError::LengthOverflow {
            field: "index length",
            value: u64::from(declared),
        })?;
        if index_len > rest {
            return Err(ContainerError::Malformed(format!(
                "index claims {index_len} bytes but file carries {rest} past the header"
            )));
        }
        index_len
    } else {
        0
    };
    let meta = ContainerInfo {
        version,
        dtype,
        group_size,
        len,
        stream_bits,
        index_bytes,
        scheme,
    };
    let available = (bytes.len() - meta.stream_offset()) as u64 * 8;
    if stream_bits > available {
        return Err(ContainerError::Malformed(format!(
            "stream claims {stream_bits} bits but file carries {available}"
        )));
    }
    Ok(meta)
}

/// Unpacks an `SSPK` byte vector back into the original tensor,
/// resolving the scheme wire id in the global [`SchemeRegistry`].
///
/// The decode is the one-shot [`ShapeShifterCodec::decode_scheme_stream`]
/// under the default execution policy. A v2 container's chunk index is
/// deserialized (its CRC-32 rejects any corruption) and, when the tensor
/// is large enough to decode on more than one worker (`SS_THREADS` / the
/// machine's parallelism), fans the decode out over its chunks; otherwise
/// the stream is parsed sequentially, exactly as a v1 container is.
///
/// # Errors
///
/// [`ContainerError`] variants for framing problems, an unregistered
/// scheme id ([`CodecError::UnknownScheme`]), a corrupt index or a
/// corrupt stream.
pub fn unpack(bytes: &[u8]) -> Result<Tensor, ContainerError> {
    let (meta, scheme, stream, frame) = stream_parts(bytes)?;
    let index = if meta.index_bytes > 0 {
        let blob = &bytes[HEADER_LEN + 4..HEADER_LEN + 4 + meta.index_bytes];
        Some(ChunkIndex::from_bytes(blob)?)
    } else {
        None
    };
    Ok(
        ShapeShifterCodec::default().decode_scheme_stream(
            scheme,
            stream,
            &frame,
            index.as_ref(),
        )?,
    )
}

/// The container's element count as a `usize`, checked against the
/// target's pointer width.
fn checked_len(meta: &ContainerInfo) -> Result<usize, ContainerError> {
    usize::try_from(meta.len).map_err(|_| ContainerError::LengthOverflow {
        field: "element count",
        value: meta.len,
    })
}

/// Unpacks an `SSPK` byte vector through a reusable [`CodecSession`],
/// leaving the values in the session's scratch and lending them out with
/// their container type. The values form a flat tensor of
/// `values.len()` elements.
///
/// This is the allocation-free sibling of [`unpack`] — the record
/// payload path of the `ss-store` shard store and of the serve `decode`
/// op, where every decode on a worker shares one session's scratch and
/// no tensor is built. The stream is parsed sequentially (a v2 chunk
/// index is validated side metadata for this path: its presence is
/// honored in [`ContainerInfo::stream_offset`] but it does not fan the
/// decode out). Every value fits the returned type: each scheme's group
/// reader refuses one that does not.
///
/// [`CodecSession`]: ss_core::CodecSession
///
/// # Errors
///
/// As [`unpack`].
pub fn unpack_values<'s>(
    bytes: &[u8],
    session: &'s mut ss_core::CodecSession,
) -> Result<(FixedType, &'s [i32]), ContainerError> {
    let (_, scheme, stream, frame) = stream_parts(bytes)?;
    let values = session.decode_scheme_stream(scheme, stream, &frame)?;
    Ok((frame.dtype, values))
}

/// [`unpack_values`] into an existing tensor: the session's scratch is
/// swapped into `out` (not copied), so a loop over records touches the
/// heap only while the buffers grow.
///
/// # Errors
///
/// As [`unpack`].
pub fn unpack_with(
    bytes: &[u8],
    session: &mut ss_core::CodecSession,
    out: &mut Tensor,
) -> Result<(), ContainerError> {
    let (_, scheme, stream, frame) = stream_parts(bytes)?;
    session.decode_scheme_stream_into(scheme, stream, &frame, out)?;
    Ok(())
}

/// Parses the header and resolves the scheme the header names: the
/// header, the scheme, the stream bytes and their framing.
fn stream_parts(
    bytes: &[u8],
) -> Result<
    (
        ContainerInfo,
        &'static dyn ContainerScheme,
        &[u8],
        StreamFrame,
    ),
    ContainerError,
> {
    let meta = info(bytes)?;
    let scheme = SchemeRegistry::global().get(meta.scheme)?;
    // Checked before any use as a count: the 8-byte field wraps under
    // `as usize` on a 32-bit target, turning a hostile length into a
    // small-but-wrong allocation and a bogus decode.
    let frame = StreamFrame {
        bit_len: meta.stream_bits,
        dtype: meta.dtype,
        len: checked_len(&meta)?,
        group_size: meta.group_size,
    };
    // ss-lint: allow(panic-freedom) -- info() bounds the stream by `bytes.len() - stream_offset()`, which it computes only after checking the index fits
    Ok((meta, scheme, &bytes[meta.stream_offset()..], frame))
}

/// Bytes per value in the raw layout of `dtype`: one for containers of
/// up to 8 bits, two for wider ones.
///
/// The raw layout is the one definition of "values at the container's
/// width" in the workspace: `sspack`'s raw files and the SSRP tensor
/// bodies of `ss-serve` both use it. Each value takes [`raw_width`]
/// bytes, little-endian, in two's complement when the container is
/// signed ([`write_raw`], [`read_raw`]).
#[must_use]
pub fn raw_width(dtype: FixedType) -> usize {
    if dtype.bits() <= 8 {
        1
    } else {
        2
    }
}

/// Appends `values` to `out` in the raw layout of `dtype` (see
/// [`raw_width`]): the low one or two bytes of each value's two's
/// complement, little-endian. Values that fit `dtype` (those of any
/// [`Tensor`]) come back unchanged through [`read_raw`]. `out` grows by
/// exactly `raw_width(dtype) · values.len()` bytes.
pub fn write_raw(dtype: FixedType, values: &[i32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + raw_width(dtype) * values.len(), 0);
    let body = out.get_mut(start..).unwrap_or_default();
    if raw_width(dtype) == 1 {
        for (byte, &v) in body.iter_mut().zip(values) {
            let [low, ..] = v.to_le_bytes();
            *byte = low;
        }
    } else {
        for (pair, &v) in body.as_chunks_mut::<2>().0.iter_mut().zip(values) {
            let [low, high, ..] = v.to_le_bytes();
            *pair = [low, high];
        }
    }
}

/// Appends to `out` the values `bytes` holds in the raw layout of
/// `dtype` (see [`raw_width`]), each sign-extended from its 8 or 16 bits
/// when `dtype` is signed and zero-extended when it is not. No range
/// check is made: a value outside `dtype` (say `0x8000` in a signed
/// 16-bit container, whose range is the symmetric ±32767) is appended as
/// read, for the caller to refuse. A trailing byte that does not
/// complete a two-byte value is not read; callers check the length
/// first.
pub fn read_raw(bytes: &[u8], dtype: FixedType, out: &mut Vec<i32>) {
    let signed = dtype.signedness().is_signed();
    if raw_width(dtype) == 1 {
        if signed {
            out.extend(bytes.iter().map(|&b| i32::from(i8::from_le_bytes([b]))));
        } else {
            out.extend(bytes.iter().map(|&b| i32::from(b)));
        }
    } else {
        let pairs = bytes.as_chunks::<2>().0;
        if signed {
            out.extend(pairs.iter().map(|&p| i32::from(i16::from_le_bytes(p))));
        } else {
            out.extend(pairs.iter().map(|&p| i32::from(u16::from_le_bytes(p))));
        }
    }
}

/// Interprets raw bytes as fixed-point values for packing: the raw
/// layout of [`raw_width`], read by [`read_raw`], with every value
/// checked against the container.
///
/// # Errors
///
/// [`ContainerError::Malformed`] if the byte count does not divide evenly
/// or a value does not fit the container.
pub fn values_from_raw(bytes: &[u8], dtype: FixedType) -> Result<Vec<i32>, ContainerError> {
    let step = raw_width(dtype);
    if !bytes.len().is_multiple_of(step) {
        return Err(ContainerError::Malformed(format!(
            "{} raw bytes do not divide into {step}-byte values",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(bytes.len() / step);
    read_raw(bytes, dtype, &mut out);
    if let Some(v) = out.iter().find(|&&v| !dtype.contains(v)) {
        return Err(ContainerError::Malformed(format!(
            "raw value {v} does not fit container {dtype}"
        )));
    }
    Ok(out)
}

/// Serializes a tensor's values to raw bytes (inverse of
/// [`values_from_raw`]) with [`write_raw`].
#[must_use]
pub fn values_to_raw(tensor: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw_width(tensor.dtype()) * tensor.len());
    write_raw(tensor.dtype(), tensor.values(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::Shape;

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let tensor = t(vec![0, 1, -1, 300, -32000, 0, 0, 7]);
        let packed = pack(&tensor, 16).unwrap();
        assert_eq!(unpack(&packed).unwrap(), tensor);
        let meta = info(&packed).unwrap();
        assert_eq!(meta.len, 8);
        assert_eq!(meta.group_size, 16);
        assert!(meta.ratio() < 1.0);
    }

    #[test]
    fn delta_codec_roundtrips() {
        let tensor = t(vec![1000, 1002, 1001, 999, 0, 0, 998, 30_000]);
        let packed = pack_with_scheme(&tensor, 4, SchemeId::DELTA).unwrap();
        assert_eq!(info(&packed).unwrap().scheme, SchemeId::DELTA);
        assert_eq!(unpack(&packed).unwrap(), tensor);
    }

    #[test]
    fn plugin_schemes_roundtrip() {
        let tensor = t(vec![0, 1, -1, 300, -32000, 0, 0, 7, 12, -12, 0, 9000]);
        for id in [SchemeId::DPRED, SchemeId::ADABITS] {
            let packed = pack_with_scheme(&tensor, 4, id).unwrap();
            assert_eq!(info(&packed).unwrap().scheme, id);
            assert_eq!(unpack(&packed).unwrap(), tensor, "scheme {id}");
        }
    }

    #[test]
    fn v2_packs_index_and_roundtrips() {
        let vals: Vec<i32> = (0..200).map(|i| (i * 37) % 2000 - 1000).collect();
        let tensor = t(vals);
        let packed = pack_with_policy(
            &tensor,
            16,
            SchemeId::SHAPESHIFTER,
            IndexPolicy::EveryGroups(2),
        )
        .unwrap();
        let meta = info(&packed).unwrap();
        assert_eq!(meta.version, VERSION_V2);
        assert!(meta.index_bytes > 0);
        assert!(meta.index_overhead_bits_per_value() > 0.0);
        assert_eq!(unpack(&packed).unwrap(), tensor);
        // The v1 encoding of the same tensor holds the identical stream.
        let v1 = pack_with_policy(&tensor, 16, SchemeId::SHAPESHIFTER, IndexPolicy::None).unwrap();
        let v1_meta = info(&v1).unwrap();
        assert_eq!(v1_meta.version, VERSION);
        assert_eq!(v1_meta.index_bytes, 0);
        assert_eq!(
            &packed[meta.stream_offset()..],
            &v1[v1_meta.stream_offset()..]
        );
        assert_eq!(unpack(&v1).unwrap(), tensor);
    }

    #[test]
    fn v2_index_corruption_is_detected() {
        let vals: Vec<i32> = (0..200).map(|i| (i * 31) % 1000).collect();
        let tensor = t(vals);
        let packed = pack_with_policy(
            &tensor,
            16,
            SchemeId::SHAPESHIFTER,
            IndexPolicy::EveryGroups(1),
        )
        .unwrap();
        let meta = info(&packed).unwrap();
        // Flip one bit in every byte of the index blob: each must surface
        // as a typed codec error (the blob's CRC-32 catches them all).
        for i in HEADER_LEN + 4..meta.stream_offset() {
            let mut corrupt = packed.clone();
            corrupt[i] ^= 0x10;
            assert!(
                matches!(unpack(&corrupt), Err(ContainerError::Codec(_))),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn small_tensors_stay_v1_under_auto_policy() {
        let tensor = t(vec![1, -2, 0, 300]);
        let packed = pack(&tensor, 16).unwrap();
        let meta = info(&packed).unwrap();
        assert_eq!(meta.version, VERSION);
        assert_eq!(meta.index_bytes, 0);
        assert_eq!(meta.stream_offset(), HEADER_LEN);
    }

    #[test]
    fn unknown_scheme_is_a_typed_error() {
        let tensor = t(vec![1, 2]);
        let mut packed = pack(&tensor, 16).unwrap();
        packed[7] = 9;
        // `info` stays permissive (the id parses), `unpack` resolves it
        // against the registry and reports the exact id it rejected.
        assert_eq!(info(&packed).unwrap().scheme, SchemeId::new(9));
        assert!(matches!(
            unpack(&packed),
            Err(ContainerError::Codec(CodecError::UnknownScheme { id: 9 }))
        ));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let tensor = t(vec![1, 2]);
        let mut packed = pack(&tensor, 16).unwrap();
        packed[0] = b'X';
        assert_eq!(unpack(&packed), Err(ContainerError::BadMagic));
        packed[0] = b'S';
        packed[4] = 9;
        assert_eq!(unpack(&packed), Err(ContainerError::UnsupportedVersion(9)));
    }

    #[test]
    fn rejects_truncation() {
        let tensor = t((0..64).map(|i| i * 100).collect());
        let packed = pack(&tensor, 16).unwrap();
        let cut = &packed[..packed.len() - 4];
        assert!(matches!(
            unpack(cut),
            Err(ContainerError::Malformed(_)) | Err(ContainerError::Codec(_))
        ));
        assert!(info(&packed[..10]).is_err());
    }

    #[test]
    fn oversized_index_is_a_typed_error() {
        // The error path is exercised through the length check alone — a
        // real ≥ 4 GiB index blob is neither constructible in a test nor
        // necessary, since `pack_with_policy` routes every index length
        // through the same helper.
        assert_eq!(index_block_len(0), Ok(0));
        assert_eq!(index_block_len(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        {
            let too_big = u32::MAX as usize + 1;
            assert_eq!(
                index_block_len(too_big),
                Err(ContainerError::IndexTooLarge { bytes: too_big })
            );
        }
    }

    #[test]
    fn hostile_element_count_is_a_typed_error() {
        // A header declaring u64::MAX elements: on 32-bit targets the
        // count overflows usize (LengthOverflow); on 64-bit it survives
        // the conversion and must then fail the stream-length bound —
        // either way a typed error, never a wrap or an OOM.
        let tensor = t(vec![1, -2, 0, 300]);
        let mut packed = pack(&tensor, 16).unwrap();
        packed[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            unpack(&packed),
            Err(ContainerError::LengthOverflow { .. }) | Err(ContainerError::Codec(_))
        ));
        let meta = info(&packed).unwrap();
        assert_eq!(meta.len, u64::MAX);
        // The untrusted count must not overflow the ratio's raw-size
        // product (`sspack info` prints it for any parseable header).
        let ratio = meta.ratio();
        assert!(ratio > 0.0 && ratio < 1e-15, "ratio {ratio}");
        #[cfg(not(target_pointer_width = "64"))]
        assert!(matches!(
            unpack(&packed),
            Err(ContainerError::LengthOverflow {
                field: "element count",
                value: u64::MAX,
            })
        ));
    }

    #[test]
    fn unpack_with_matches_one_shot() {
        let mut session = ss_core::CodecSession::new(ss_core::CodecConfig::new()).unwrap();
        let mut out = t(vec![0]);
        // ShapeShifter v1, ShapeShifter v2 (indexed), Delta, DPRed and
        // AdaBits containers all decode identically through the session
        // path.
        let vals: Vec<i32> = (0..300).map(|i| (i * 37) % 2000 - 1000).collect();
        let tensor = t(vals);
        for packed in [
            pack(&tensor, 16).unwrap(),
            pack_with_policy(
                &tensor,
                16,
                SchemeId::SHAPESHIFTER,
                IndexPolicy::EveryGroups(2),
            )
            .unwrap(),
            pack_with_scheme(&tensor, 16, SchemeId::DELTA).unwrap(),
            pack_with_scheme(&tensor, 16, SchemeId::DPRED).unwrap(),
            pack_with_scheme(&tensor, 16, SchemeId::ADABITS).unwrap(),
        ] {
            unpack_with(&packed, &mut session, &mut out).unwrap();
            assert_eq!(out, tensor);
            assert_eq!(out, unpack(&packed).unwrap());
        }
    }

    #[test]
    fn raw_conversion_roundtrips() {
        let tensor = t(vec![-5, 5, 0, 32767, -32767]);
        let raw = values_to_raw(&tensor);
        let back = values_from_raw(&raw, FixedType::I16).unwrap();
        assert_eq!(back, tensor.values());
        // 8-bit path.
        let t8 = Tensor::from_vec(Shape::flat(3), FixedType::U8, vec![0, 128, 255]).unwrap();
        let raw8 = values_to_raw(&t8);
        assert_eq!(raw8.len(), 3);
        assert_eq!(values_from_raw(&raw8, FixedType::U8).unwrap(), t8.values());
    }

    #[test]
    fn raw_layout_is_container_width_little_endian_twos_complement() {
        let cases: [(FixedType, &[i32], &[u8]); 5] = [
            (
                FixedType::I16,
                &[-1, 300, -32767],
                &[0xFF, 0xFF, 0x2C, 0x01, 0x01, 0x80],
            ),
            (FixedType::U16, &[65535, 1], &[0xFF, 0xFF, 0x01, 0x00]),
            (FixedType::I8, &[-5, 127], &[0xFB, 0x7F]),
            (FixedType::U8, &[255, 0], &[0xFF, 0x00]),
            (FixedType::signed(4).unwrap(), &[-7, 7], &[0xF9, 0x07]),
        ];
        for (dtype, values, bytes) in cases {
            let mut raw = vec![0xAA];
            write_raw(dtype, values, &mut raw);
            assert_eq!(&raw[1..], bytes, "{dtype}");
            let mut back = vec![9];
            read_raw(bytes, dtype, &mut back);
            assert_eq!(&back[1..], values, "{dtype}");
        }
        // Wider than 8 bits: sign-extended from 16 bits when signed,
        // zero-extended when not; the range is the caller's to check.
        let mut back = Vec::new();
        read_raw(
            &[0x00, 0x80, 0x00, 0x10],
            FixedType::signed(12).unwrap(),
            &mut back,
        );
        read_raw(&[0x00, 0x10], FixedType::unsigned(12).unwrap(), &mut back);
        assert_eq!(back, [-32768, 4096, 4096]);
    }

    #[test]
    fn raw_rejects_out_of_range() {
        // -32768 is two's-complement-representable but not sign-magnitude.
        let raw = (-32768i16).to_le_bytes();
        assert!(values_from_raw(&raw, FixedType::I16).is_err());
        // Odd byte counts don't divide into 16-bit values.
        assert!(values_from_raw(&[1, 2, 3], FixedType::I16).is_err());
    }
}
