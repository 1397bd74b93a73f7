use std::error::Error;
use std::fmt;

/// Errors produced by bit-stream readers and writers.
///
/// The decoder of a lossless memory codec must never panic on malformed
/// input — a corrupted off-chip stream should surface as an error the caller
/// can handle (paper-level requirement: ShapeShifter is "robust and never
/// increases traffic", and a production decoder must be equally robust to
/// truncated containers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitIoError {
    /// A read requested more bits than remain in the stream.
    UnexpectedEnd {
        /// Bits requested by the failing call.
        requested: u32,
        /// Bits that were still available.
        available: u64,
    },
    /// A field width outside `0..=64` was requested.
    FieldTooWide {
        /// The invalid width.
        bits: u32,
    },
    /// A value does not fit in the declared field width.
    ValueOutOfRange {
        /// The value that was to be written.
        value: u64,
        /// The declared field width in bits.
        bits: u32,
    },
    /// A spliced stream declared more bits than its byte buffer holds.
    StreamTooShort {
        /// The declared logical length in bits.
        bit_len: u64,
        /// The byte-buffer length that cannot back it.
        bytes: usize,
    },
    /// A bit range is inverted or extends past the backing buffer.
    InvalidRange {
        /// First readable bit (inclusive).
        start: u64,
        /// One past the last readable bit.
        end: u64,
        /// Bits the backing buffer actually holds.
        len: u64,
    },
}

impl fmt::Display for BitIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BitIoError::UnexpectedEnd {
                requested,
                available,
            } => write!(
                f,
                "unexpected end of bit stream: requested {requested} bits, {available} available"
            ),
            BitIoError::FieldTooWide { bits } => {
                write!(f, "field width {bits} exceeds the 64-bit limit")
            }
            BitIoError::ValueOutOfRange { value, bits } => {
                write!(f, "value {value:#x} does not fit in {bits} bits")
            }
            BitIoError::StreamTooShort { bit_len, bytes } => {
                write!(
                    f,
                    "stream declares {bit_len} bits but only {bytes} bytes are present"
                )
            }
            BitIoError::InvalidRange { start, end, len } => {
                write!(
                    f,
                    "bit range {start}..{end} is invalid for a {len}-bit buffer"
                )
            }
        }
    }
}

impl Error for BitIoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let msg = BitIoError::UnexpectedEnd {
            requested: 8,
            available: 3,
        }
        .to_string();
        assert!(msg.contains("requested 8 bits"));
        assert!(msg.contains("3 available"));

        let msg = BitIoError::ValueOutOfRange { value: 16, bits: 4 }.to_string();
        assert!(msg.contains("0x10"));
        assert!(msg.contains("4 bits"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<BitIoError>();
    }
}
