//! The workspace's one checked reader for little-endian byte formats.
//!
//! The SSPK container header, the SSRD shard framing and record index,
//! and the SSRP frame header and bodies are all fixed-width little-endian
//! fields read from untrusted bytes. [`ByteReader`] is the one way they
//! are read: each read returns its field and moves past it, or returns
//! [`ShortInput`] and consumes nothing. A parser therefore refuses a
//! truncated input with a typed error and never indexes past its end.
//!
//! ```
//! use ss_core::bytes::{ByteReader, ShortInput};
//!
//! let mut r = ByteReader::new(&[b'S', 7, 0x34, 0x12]);
//! assert_eq!(r.take::<2>(), Ok([b'S', 7]));
//! assert_eq!(r.u16(), Ok(0x1234));
//! assert_eq!(r.u32(), Err(ShortInput { needed: 8, have: 4 }));
//! assert!(r.rest().is_empty());
//! ```

use std::error::Error;
use std::fmt;

/// A read that asked for more bytes than its input holds. Both counts run
/// from the start of the input the reader was made over, whatever had
/// been read before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortInput {
    /// The input length the read needed: the bytes already read plus the
    /// bytes asked for, saturating at `usize::MAX`.
    pub needed: usize,
    /// The input's whole length.
    pub have: usize,
}

impl fmt::Display for ShortInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input is {} bytes, {} needed", self.have, self.needed)
    }
}

impl Error for ShortInput {}

/// A cursor over a byte slice. Every read returns its field and moves
/// past it, or returns [`ShortInput`] and consumes nothing.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    /// The bytes not read yet, a suffix of the input.
    rest: &'a [u8],
    /// The input's whole length.
    len: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// The number of bytes read so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The bytes not read yet.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ShortInput`] when fewer than `n` bytes are left.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ShortInput> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`ShortInput`] when fewer than `N` bytes are left.
    pub fn take<const N: usize>(&mut self) -> Result<[u8; N], ShortInput> {
        let (head, rest) = self.rest.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next two bytes as a little-endian `u16`; errors as [`take`](Self::take).
    pub fn u16(&mut self) -> Result<u16, ShortInput> {
        self.take().map(u16::from_le_bytes)
    }

    /// The next four bytes as a little-endian `u32`; errors as [`take`](Self::take).
    pub fn u32(&mut self) -> Result<u32, ShortInput> {
        self.take().map(u32::from_le_bytes)
    }

    /// The next eight bytes as a little-endian `u64`; errors as [`take`](Self::take).
    pub fn u64(&mut self) -> Result<u64, ShortInput> {
        self.take().map(u64::from_le_bytes)
    }

    /// The error for a read of `n` more bytes.
    fn short(&self, n: usize) -> ShortInput {
        ShortInput {
            needed: self.position().saturating_add(n),
            have: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader over `input` that has already read `skip` bytes.
    fn at(input: &[u8], skip: usize) -> ByteReader<'_> {
        let mut r = ByteReader::new(input);
        r.bytes(skip).unwrap();
        r
    }

    /// Runs `read` on every input too short for a `width`-byte read after
    /// `skip` bytes, and checks it refuses each with the absolute counts
    /// and moves nothing; then checks an exact read empties the reader.
    fn check_accessor(width: usize, read: impl Fn(&mut ByteReader<'_>) -> Result<(), ShortInput>) {
        let input: Vec<u8> = (1..=40).collect();
        for skip in [0, 3] {
            for short in 0..width {
                let bytes = &input[..skip + short];
                let mut r = at(bytes, skip);
                let want = ShortInput {
                    needed: skip + width,
                    have: skip + short,
                };
                assert_eq!(read(&mut r).unwrap_err(), want, "skip {skip}, {short} left");
                assert_eq!(r.position(), skip);
                assert_eq!(r.rest(), &bytes[skip..]);
            }
            let mut r = at(&input[..skip + width], skip);
            read(&mut r).unwrap();
            assert_eq!(r.position(), skip + width);
            assert!(r.rest().is_empty());
        }
    }

    #[test]
    fn every_accessor_refuses_short_input_and_consumes_nothing() {
        check_accessor(1, |r| r.take::<1>().map(drop));
        check_accessor(4, |r| r.take::<4>().map(drop));
        check_accessor(18, |r| r.take::<18>().map(drop));
        check_accessor(2, |r| r.u16().map(drop));
        check_accessor(4, |r| r.u32().map(drop));
        check_accessor(8, |r| r.u64().map(drop));
        check_accessor(0, |r| r.bytes(0).map(drop));
        check_accessor(5, |r| r.bytes(5).map(drop));
        check_accessor(26, |r| r.bytes(26).map(drop));
    }

    #[test]
    fn fields_are_little_endian_and_in_order() {
        let bytes = [
            1, 2, 0x34, 0x12, 0x78, 0x56, 0x34, 0x12, 8, 7, 6, 5, 4, 3, 2, 1, 9,
        ];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take::<2>(), Ok([1, 2]));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0x1234_5678));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.bytes(1), Ok(&[9][..]));
        assert_eq!(r.position(), bytes.len());
        assert_eq!(r.take::<0>(), Ok([]));
    }

    #[test]
    fn a_huge_read_is_refused_without_overflow() {
        let mut r = at(&[0; 6], 2);
        let want = ShortInput {
            needed: usize::MAX,
            have: 6,
        };
        assert_eq!(r.bytes(usize::MAX), Err(want));
        assert_eq!(r.bytes(usize::MAX - 1), Err(want));
        assert_eq!(r.position(), 2);
        assert_eq!(
            ByteReader::new(&[]).bytes(usize::MAX),
            Err(ShortInput {
                needed: usize::MAX,
                have: 0,
            })
        );
    }
}
