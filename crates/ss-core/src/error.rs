use std::error::Error;
use std::fmt;

use ss_bitio::BitIoError;
use ss_tensor::TensorError;

/// Errors produced by the ShapeShifter codec.
///
/// A decoder fed a corrupted or truncated stream must fail cleanly — the
/// memory container travels over DDR4 and a robust implementation surfaces
/// framing problems instead of producing garbage tensors.
/// Marked `#[non_exhaustive]`: new failure modes may be added without a
/// breaking change, so downstream `match`es keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The underlying bit stream ended early or was malformed.
    Stream(BitIoError),
    /// A decoded group declared a width wider than the tensor's container.
    WidthExceedsContainer {
        /// Group index within the stream.
        group: usize,
        /// The declared width.
        width: u8,
        /// The container width.
        container: u8,
    },
    /// A decoded value does not fit the tensor's container (corrupt
    /// payload or wrong container metadata).
    CorruptValue {
        /// Flat index of the offending value.
        index: usize,
        /// The decoded value.
        value: i32,
    },
    /// Tensor reconstruction failed (defensive; indicates a codec bug).
    Tensor(TensorError),
    /// A group size of zero was requested.
    InvalidGroupSize,
    /// The stream holds more bits than the declared element count can
    /// account for: decoding produced every value with bits left over.
    /// A well-formed container consumes its stream exactly, so trailing
    /// bits mean the framing metadata and the stream disagree.
    TrailingBits {
        /// Unconsumed bits left in the stream after the last value.
        remaining: u64,
    },
    /// The optional chunk index (container v2) is corrupt: its checksum,
    /// framing or internal consistency checks failed before any payload
    /// was decoded.
    CorruptIndex {
        /// Which consistency check failed.
        reason: &'static str,
    },
    /// A chunk-index entry's bit offset points outside the stream.
    IndexOffsetOutOfBounds {
        /// Index entry at fault.
        chunk: usize,
        /// The offending absolute bit offset.
        offset: u64,
        /// The stream length in bits.
        bit_len: u64,
    },
    /// An indexed chunk did not consume exactly the bit span its index
    /// entry claims — the index and the stream disagree.
    IndexChunkMismatch {
        /// Index entry at fault.
        chunk: usize,
        /// Bits the index allots to the chunk.
        expected_bits: u64,
        /// Bits the chunk's groups actually consumed.
        consumed_bits: u64,
    },
    /// A container names a scheme wire id that no registered
    /// [`crate::registry::ContainerScheme`] claims. Carries the offending
    /// byte so callers can report exactly what the stream asked for.
    UnknownScheme {
        /// The unrecognized wire id byte.
        id: u8,
    },
    /// A decode was asked to read a stream under a scheme other than the
    /// one the stream names. Decoding it anyway can return a wrong tensor
    /// with no error, so the request is refused before any bit is read.
    SchemeMismatch {
        /// The wire id the stream carries.
        stream: u8,
        /// The wire id of the scheme the caller passed.
        requested: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Stream(e) => write!(f, "bit stream error: {e}"),
            CodecError::WidthExceedsContainer {
                group,
                width,
                container,
            } => write!(
                f,
                "group {group} declares width {width} beyond the {container}-bit container"
            ),
            CodecError::CorruptValue { index, value } => {
                write!(f, "decoded value {value} at index {index} is corrupt")
            }
            CodecError::Tensor(e) => write!(f, "tensor reconstruction failed: {e}"),
            CodecError::InvalidGroupSize => write!(f, "group size must be non-zero"),
            CodecError::TrailingBits { remaining } => write!(
                f,
                "stream has {remaining} unconsumed bit(s) after the declared element count"
            ),
            CodecError::CorruptIndex { reason } => {
                write!(f, "corrupt chunk index: {reason}")
            }
            CodecError::IndexOffsetOutOfBounds {
                chunk,
                offset,
                bit_len,
            } => write!(
                f,
                "index entry {chunk} points at bit {offset} beyond the {bit_len}-bit stream"
            ),
            CodecError::IndexChunkMismatch {
                chunk,
                expected_bits,
                consumed_bits,
            } => write!(
                f,
                "indexed chunk {chunk} consumed {consumed_bits} bit(s) of its {expected_bits}-bit span"
            ),
            CodecError::UnknownScheme { id } => {
                write!(f, "unknown container scheme wire id {id}")
            }
            CodecError::SchemeMismatch { stream, requested } => write!(
                f,
                "stream of scheme {stream} cannot be decoded as scheme {requested}"
            ),
        }
    }
}

impl Error for CodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CodecError::Stream(e) => Some(e),
            CodecError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BitIoError> for CodecError {
    fn from(e: BitIoError) -> Self {
        CodecError::Stream(e)
    }
}

impl From<TensorError> for CodecError {
    fn from(e: TensorError) -> Self {
        CodecError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain() {
        let e = CodecError::from(BitIoError::FieldTooWide { bits: 99 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("bit stream"));
    }

    #[test]
    fn scheme_errors_carry_the_id() {
        assert!(CodecError::UnknownScheme { id: 7 }
            .to_string()
            .contains('7'));
        assert!(CodecError::UnknownScheme { id: 7 }.source().is_none());
    }
}
