#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Bit-granular stream I/O for the ShapeShifter codec.
//!
//! The ShapeShifter memory container (paper §3, Figure 6) packs variable-width
//! fields — zero bit-vectors, width prefixes, and sign-magnitude payloads —
//! back-to-back into a byte stream with no alignment between groups. This
//! crate provides the substrate for that: a [`BitWriter`] that appends
//! arbitrary-width fields to a growing buffer, and a [`BitReader`] that
//! consumes them sequentially, mirroring the sequential-access contract the
//! paper's decompressor relies on ("the incoming stream will be decoded
//! sequentially", §3).
//!
//! Bit order within the stream is LSB-first: the first bit written occupies
//! bit 0 of byte 0. This matches how a hardware shifter naturally serializes
//! a little-endian word and makes the packed layout independent of field
//! widths.
//!
//! # Examples
//!
//! ```
//! use ss_bitio::{BitReader, BitWriter};
//!
//! # fn main() -> Result<(), ss_bitio::BitIoError> {
//! let mut w = BitWriter::new();
//! w.write_bits(0b101, 3)?;      // a 3-bit field
//! w.write_bits(0x3FF, 10)?;     // a 10-bit field straddling byte edges
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(3)?, 0b101);
//! assert_eq!(r.read_bits(10)?, 0x3FF);
//! # Ok(())
//! # }
//! ```

mod error;
mod reader;
mod writer;

pub use error::BitIoError;
pub use reader::BitReader;
pub use writer::BitWriter;

/// Maximum number of bits accepted by a single `write_bits`/`read_bits` call.
pub const MAX_FIELD_BITS: u32 = 64;

/// Words in a [`BitReader::window`]: 320 bits, enough for a 16-value
/// ShapeShifter group in a 16-bit container — its 16-bit `Z`, 4-bit `P`
/// and at most 256 payload bits — at any position.
pub const WINDOW_WORDS: usize = 5;

/// Returns the minimum number of bits needed to represent `value` in an
/// unsigned container: `0` needs 0 bits, `1` needs 1, `2..=3` need 2, etc.
///
/// This is the software analogue of the paper's "leading 1 detector"
/// (Figure 5c): the reported position of the most significant set bit,
/// plus one.
///
/// # Examples
///
/// ```
/// assert_eq!(ss_bitio::bits_for(0), 0);
/// assert_eq!(ss_bitio::bits_for(1), 1);
/// assert_eq!(ss_bitio::bits_for(0x3), 2);
/// assert_eq!(ss_bitio::bits_for(0xF), 4);
/// assert_eq!(ss_bitio::bits_for(u64::MAX), 64);
/// ```
#[inline]
#[must_use]
pub fn bits_for(value: u64) -> u32 {
    64 - value.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn bits_for_powers_of_two() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            assert_eq!(bits_for(v), shift + 1, "value {v:#x}");
            if v > 1 {
                assert_eq!(bits_for(v - 1), shift, "value {:#x}", v - 1);
            }
        }
    }
}
