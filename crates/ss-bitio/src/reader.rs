use crate::{BitIoError, MAX_FIELD_BITS, WINDOW_WORDS};

/// Sequentially consumes variable-width bit fields from a byte slice.
///
/// The reader mirrors [`crate::BitWriter`]'s LSB-first packing and models the
/// paper's sequential decompressor contract: "starting from the beginning of
/// an activation or weight array, the decompressor reads the first … bits
/// containing the metadata for the first group … upon finishing with the
/// current group, the decoder has arrived at the header for the next group"
/// (paper §3). Random access is supported only at explicitly recorded
/// positions, by opening a reader on a bit range with
/// [`BitReader::with_bit_range`], matching the access-handle table the
/// paper describes for tiled dataflows.
///
/// Every field, whatever its width, is taken from the unaligned 8-byte
/// little-endian window at its first byte, shifted by its bit phase and
/// masked; only a field of 58 or more bits at a non-zero phase reaches a
/// ninth byte.
///
/// # Examples
///
/// ```
/// use ss_bitio::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), ss_bitio::BitIoError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0xAB, 8)?;
/// w.write_bits(0x5, 3)?;
/// let bytes = w.into_bytes();
///
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(8)?, 0xAB);
/// assert_eq!(r.read_bits(3)?, 0x5);
/// assert_eq!(r.remaining_bits(), 5); // final-byte padding
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit to read, as an absolute bit index.
    pos: u64,
    /// First readable bit (0 except for range-limited readers).
    start: u64,
    /// Total readable bits (defaults to `bytes.len() * 8`); a
    /// range-limited reader's exclusive upper bound.
    bit_len: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over all bits of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            start: 0,
            bit_len: bytes.len() as u64 * 8,
        }
    }

    /// Creates a reader over only the first `bit_len` bits of `bytes`.
    ///
    /// Useful when the stream's logical length (in bits) is known from
    /// container metadata and the final byte carries padding.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds `bytes.len() * 8`.
    #[must_use]
    pub fn with_bit_len(bytes: &'a [u8], bit_len: u64) -> Self {
        assert!(
            bit_len <= bytes.len() as u64 * 8,
            "bit_len {} exceeds buffer capacity {}",
            bit_len,
            bytes.len() as u64 * 8
        );
        Self {
            bytes,
            pos: 0,
            start: 0,
            bit_len,
        }
    }

    /// Creates a reader confined to the bit range `start..end` of `bytes`.
    ///
    /// The reader starts positioned at `start` and refuses to read outside
    /// the range — this is the primitive behind indexed parallel decode,
    /// where each worker resumes at a recorded chunk offset and a corrupt
    /// chunk must not be able to consume its neighbour's bits.
    ///
    /// # Errors
    ///
    /// [`BitIoError::InvalidRange`] if `start > end` or `end` exceeds
    /// `bytes.len() * 8`.
    pub fn with_bit_range(bytes: &'a [u8], start: u64, end: u64) -> Result<Self, BitIoError> {
        let capacity = bytes.len() as u64 * 8;
        if start > end || end > capacity {
            return Err(BitIoError::InvalidRange {
                start,
                end,
                len: capacity,
            });
        }
        Ok(Self {
            bytes,
            pos: start,
            start,
            bit_len: end,
        })
    }

    /// Bits consumed since the start of this reader's range.
    #[must_use]
    pub fn consumed_bits(&self) -> u64 {
        self.pos - self.start
    }

    /// Total length of the stream in bits.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Bits left to read.
    #[must_use]
    pub fn remaining_bits(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// `true` once every bit has been consumed.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bit_len
    }

    /// Reads the next `bits` bits as an unsigned value (LSB-first).
    ///
    /// A zero-width read returns `0` without consuming anything.
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits > 64`.
    /// * [`BitIoError::UnexpectedEnd`] if fewer than `bits` bits remain.
    ///   The position is unchanged on error.
    pub fn read_bits(&mut self, bits: u32) -> Result<u64, BitIoError> {
        self.check_run(bits, u64::from(bits))?;
        if bits == 0 {
            return Ok(0);
        }
        let byte = (self.pos / 8) as usize;
        let off = (self.pos % 8) as u32;
        let mut word = load_le8(self.bytes, byte) >> off;
        if off + bits > 64 {
            // Only a 58..=64-bit field at phase 1..=7 gets here; its top
            // `off` bits sit in the ninth byte, which the bounds check
            // above guarantees exists.
            let ninth = self.bytes.get(byte + 8).copied().unwrap_or(0);
            // ss-lint: allow(shift-bound) -- off + bits > 64 with bits <= 64 puts off in 1..=7, so 64 - off is 57..=63
            word |= u64::from(ninth) << (64 - off);
        }
        self.pos += u64::from(bits);
        // ss-lint: allow(shift-bound) -- bits is 1..=64 here (checked above, zero returned early), so 64 - bits is 0..=63
        Ok(word & (u64::MAX >> (64 - bits)))
    }

    /// Reads `out.len()` consecutive fields of `bits` bits each —
    /// bit-identical to calling [`BitReader::read_bits`] once per field,
    /// with the bounds check and the mask hoisted out of the loop. This is
    /// the decoder's payload hot path: a group's non-zero values all share
    /// the same width `P`.
    ///
    /// Widths above 57 bits cannot be covered by one 8-byte window at every
    /// sub-byte offset and go through [`BitReader::read_bits`] per field
    /// (the codec's fields are at most 17 bits wide).
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits > 64`.
    /// * [`BitIoError::UnexpectedEnd`] if fewer than `bits * out.len()`
    ///   bits remain. The position is unchanged on error.
    pub fn read_fields(&mut self, bits: u32, out: &mut [u64]) -> Result<(), BitIoError> {
        self.check_run(bits, u64::from(bits) * out.len() as u64)?;
        if bits == 0 {
            out.fill(0);
            return Ok(());
        }
        if bits > 57 {
            for slot in out.iter_mut() {
                *slot = self.read_bits(bits)?;
            }
            return Ok(());
        }
        // `bits <= 57` and the sub-byte offset is at most 7, so every field
        // fits entirely inside one 8-byte window starting at its byte.
        let mask = (1u64 << bits) - 1;
        let mut pos = self.pos;
        for slot in out.iter_mut() {
            let byte = (pos / 8) as usize;
            let off = (pos % 8) as u32;
            *slot = (load_le8(self.bytes, byte) >> off) & mask;
            pos += u64::from(bits);
        }
        self.pos = pos;
        Ok(())
    }

    /// The next `64 * WINDOW_WORDS` (320) bits of the buffer as
    /// [`WINDOW_WORDS`] words, phase-normalised: bit `i` of the window is
    /// bit `i % 64` of word `i / 64`, and bit 0 is the next unread bit.
    /// Nothing is consumed; [`BitReader::advance`] moves past the bits a
    /// caller used.
    ///
    /// This is the read side of a fixed group layout: a decoder takes a
    /// whole group's fields from one window at offsets it computes, then
    /// advances once per field run. Bits past the end of the buffer read
    /// as zero. Bits past the readable length (a range reader's end, or a
    /// [`BitReader::with_bit_len`] cut) read as whatever the buffer holds
    /// there, so a caller may trust only the bits it advances over.
    #[inline(always)]
    #[must_use]
    pub fn window(&self) -> [u64; WINDOW_WORDS] {
        let byte = (self.pos / 8) as usize;
        let phase = (self.pos % 8) as u32;
        let mut near_end = [0u8; WINDOW_LOAD];
        let chunk = match self.bytes.get(byte..).and_then(<[u8]>::first_chunk) {
            Some(chunk) => chunk,
            None => copy_tail(self.bytes, byte, &mut near_end),
        };
        // One word more than the window, so that every window word can take
        // its top `phase` bits from the next one.
        let mut raw = [0u64; WINDOW_WORDS + 1];
        for (word, bytes) in raw.iter_mut().zip(chunk.as_chunks::<8>().0) {
            *word = u64::from_le_bytes(*bytes);
        }
        let mut window = [0u64; WINDOW_WORDS];
        for ((out, &lo), &hi) in window.iter_mut().zip(&raw).zip(raw.iter().skip(1)) {
            // Two shifts for the high part keep a zero phase from shifting
            // by 64.
            // ss-lint: allow(shift-bound) -- phase = pos % 8 is 0..=7, so 63 - phase is 56..=63
            *out = lo >> phase | (hi << 1) << (63 - phase);
        }
        window
    }

    /// Consumes the next `bits` bits: the checked step that pairs with
    /// [`BitReader::window`].
    ///
    /// # Errors
    ///
    /// [`BitIoError::UnexpectedEnd`] if fewer than `bits` bits remain
    /// (`requested` saturates at `u32::MAX`). The position is unchanged
    /// on error.
    #[inline]
    pub fn advance(&mut self, bits: u64) -> Result<(), BitIoError> {
        self.check_remaining(bits)?;
        self.pos += bits;
        Ok(())
    }

    /// Refuses a run of `total` bits in fields `bits` wide unless every
    /// field is at most 64 bits and the run fits before the end.
    fn check_run(&self, bits: u32, total: u64) -> Result<(), BitIoError> {
        if bits > MAX_FIELD_BITS {
            return Err(BitIoError::FieldTooWide { bits });
        }
        self.check_remaining(total)
    }

    /// Refuses a run of `total` bits unless it fits before the end.
    #[inline]
    fn check_remaining(&self, total: u64) -> Result<(), BitIoError> {
        if total > self.remaining_bits() {
            return Err(BitIoError::UnexpectedEnd {
                // ss-lint: allow(truncating-cast) -- clamped to u32::MAX on the same line
                requested: total.min(u64::from(u32::MAX)) as u32,
                available: self.remaining_bits(),
            });
        }
        Ok(())
    }
}

/// Bytes a [`BitReader::window`] loads: its words and one more.
const WINDOW_LOAD: usize = 8 * (WINDOW_WORDS + 1);

/// The bytes of `bytes` from `idx` on, copied into the zeroed `buf`: a
/// window's load within [`WINDOW_LOAD`] bytes of the buffer's end. Out of
/// line, so that the common load stays small.
#[cold]
#[inline(never)]
fn copy_tail<'b>(
    bytes: &[u8],
    idx: usize,
    buf: &'b mut [u8; WINDOW_LOAD],
) -> &'b [u8; WINDOW_LOAD] {
    let tail = bytes.get(idx..).unwrap_or(&[]);
    for (slot, &b) in buf.iter_mut().zip(tail) {
        *slot = b;
    }
    buf
}

/// Loads up to 8 bytes starting at `idx` as a little-endian word,
/// zero-padding past the end of the slice. The padding can never reach a
/// caller's field: every read bounds its fields by the stream length
/// before loading, and the writer masks a spliced stream's last word.
#[inline]
pub(crate) fn load_le8(bytes: &[u8], idx: usize) -> u64 {
    match bytes.get(idx..idx.saturating_add(8)) {
        Some(s) => <[u8; 8]>::try_from(s).map_or(0, u64::from_le_bytes),
        None => {
            let mut word = 0u64;
            for (i, &b) in bytes.iter().skip(idx).take(8).enumerate() {
                // ss-lint: allow(shift-bound) -- take(8) bounds i < 8, so 8 * i <= 56 < 64
                word |= u64::from(b) << (8 * i as u32);
            }
            word
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    /// Bits in a window.
    const WINDOW_BITS: u64 = 64 * WINDOW_WORDS as u64;

    /// Test-local reference: the `bits`-wide field at absolute bit `pos`,
    /// assembled one bit at a time. It shares no code with the reader, so
    /// `read_bits` and `read_fields` (which share their window load) are
    /// each checked against something independent.
    fn bit_oracle(bytes: &[u8], pos: u64, bits: u32) -> u64 {
        (0..u64::from(bits)).fold(0, |acc, i| {
            let at = pos + i;
            let bit = (bytes[(at / 8) as usize] >> (at % 8)) & 1;
            acc | u64::from(bit) << i
        })
    }

    #[test]
    fn reads_back_what_writer_wrote() {
        let fields: &[(u64, u32)] = &[
            (0, 0),
            (1, 1),
            (0b10, 2),
            (0xDEAD, 16),
            (0x1_FFFF_FFFF, 33),
            (u64::MAX, 64),
            (0x7, 3),
        ];
        let mut w = BitWriter::new();
        for &(v, b) in fields {
            w.write_bits(v, b).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, b) in fields {
            assert_eq!(r.read_bits(b).unwrap(), v, "field {b} bits");
        }
    }

    #[test]
    fn unexpected_end_reports_availability() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        r.read_bits(5).unwrap();
        assert_eq!(
            r.read_bits(4),
            Err(BitIoError::UnexpectedEnd {
                requested: 4,
                available: 3
            })
        );
        // Failed read must not consume bits.
        assert_eq!(r.remaining_bits(), 3);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert!(r.is_at_end());
        assert_eq!(r.read_bits(65), Err(BitIoError::FieldTooWide { bits: 65 }));
    }

    #[test]
    fn with_bit_len_truncates_padding() {
        let bytes = [0xFF, 0xFF];
        let mut r = BitReader::with_bit_len(&bytes, 9);
        assert_eq!(r.remaining_bits(), 9);
        r.read_bits(9).unwrap();
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn with_bit_len_rejects_overlong() {
        let bytes = [0u8; 2];
        let _ = BitReader::with_bit_len(&bytes, 17);
    }

    #[test]
    fn range_reader_is_confined_to_its_window() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap(); // chunk 0
        w.write_bits(0xAB, 8).unwrap(); // chunk 1: bits 3..11
        w.write_bits(0b11, 2).unwrap(); // chunk 2
        let bytes = w.into_bytes();

        let mut r = BitReader::with_bit_range(&bytes, 3, 11).unwrap();
        assert_eq!(r.consumed_bits(), 0);
        assert_eq!(r.remaining_bits(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert!(r.is_at_end());
        assert_eq!(r.consumed_bits(), 8);
        // The window's end is a hard wall, although the buffer goes on.
        assert!(r.read_bits(1).is_err());
        let mut r = BitReader::with_bit_range(&bytes, 3, 11).unwrap();
        assert_eq!(r.read_bits(4).unwrap(), 0xB);
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let bytes = [0u8; 2];
        assert_eq!(
            BitReader::with_bit_range(&bytes, 9, 3).unwrap_err(),
            BitIoError::InvalidRange {
                start: 9,
                end: 3,
                len: 16
            }
        );
        assert_eq!(
            BitReader::with_bit_range(&bytes, 0, 17).unwrap_err(),
            BitIoError::InvalidRange {
                start: 0,
                end: 17,
                len: 16
            }
        );
        // An empty range at the very end is legal and immediately at end.
        let r = BitReader::with_bit_range(&bytes, 16, 16).unwrap();
        assert!(r.is_at_end());
    }

    #[test]
    fn zero_width_read_consumes_nothing() {
        let bytes = [0xAA];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.consumed_bits(), 0);
    }

    #[test]
    fn read_fields_matches_read_bits_at_every_phase_and_width() {
        // A stream long enough that nine fields at the widest width fit.
        let mut w = BitWriter::new();
        for i in 0..12u32 {
            w.write_bits(0x9E37_79B9_7F4A_7C15u64.rotate_left(i * 13), 64)
                .unwrap();
        }
        let stream = w.into_bytes();
        for phase in 0u64..8 {
            for bits in 0u32..=64 {
                // Cut the buffer where the last field ends, so the last
                // window (and a wide field's ninth byte) meets the end of
                // the slice.
                let end = phase + 9 * u64::from(bits);
                let bytes = &stream[..end.div_ceil(8) as usize];
                let want: Vec<u64> = (0..9)
                    .map(|i| bit_oracle(bytes, phase + i * u64::from(bits), bits))
                    .collect();

                let mut scalar = BitReader::with_bit_range(bytes, phase, end).unwrap();
                let got: Vec<u64> = (0..9).map(|_| scalar.read_bits(bits).unwrap()).collect();
                assert_eq!(got, want, "read_bits: phase {phase}, width {bits}");
                assert!(scalar.is_at_end());

                let mut bulk = BitReader::with_bit_range(bytes, phase, end).unwrap();
                let mut got = [u64::MAX; 9];
                bulk.read_fields(bits, &mut got).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want,
                    "read_fields: phase {phase}, width {bits}"
                );
                assert!(bulk.is_at_end());
            }
        }
    }

    #[test]
    fn read_fields_near_end_of_buffer() {
        // The last field ends on the very last valid bit, exercising the
        // zero-padded tail load.
        let bytes = [0xA5u8, 0x5A, 0xC3];
        let mut bulk = BitReader::new(&bytes);
        let mut got = [0u64; 3];
        bulk.read_fields(8, &mut got).unwrap();
        assert_eq!(got, [0xA5, 0x5A, 0xC3]);
        assert!(bulk.is_at_end());
    }

    #[test]
    fn read_fields_checks_total_up_front() {
        let bytes = [0xFFu8; 2];
        let mut r = BitReader::new(&bytes);
        let mut out = [0u64; 3];
        assert_eq!(
            r.read_fields(7, &mut out),
            Err(BitIoError::UnexpectedEnd {
                requested: 21,
                available: 16
            })
        );
        assert_eq!(r.consumed_bits(), 0, "failed bulk read must not move");
        // Zero-width fields consume nothing and zero the output.
        let mut out = [7u64; 2];
        r.read_fields(0, &mut out).unwrap();
        assert_eq!(out, [0, 0]);
        assert_eq!(r.consumed_bits(), 0);
        assert_eq!(
            r.read_fields(65, &mut out),
            Err(BitIoError::FieldTooWide { bits: 65 })
        );
    }

    #[test]
    fn read_fields_respects_range_windows() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap();
        w.write_bits(0xAB, 8).unwrap();
        w.write_bits(0xCD, 8).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::with_bit_range(&bytes, 3, 19).unwrap();
        let mut out = [0u64; 2];
        r.read_fields(8, &mut out).unwrap();
        assert_eq!(out, [0xAB, 0xCD]);
        assert!(r.is_at_end());
        // One more field would cross the window's end.
        let mut r = BitReader::with_bit_range(&bytes, 3, 18).unwrap();
        let mut out = [0u64; 2];
        assert!(r.read_fields(8, &mut out).is_err());
        assert_eq!(r.consumed_bits(), 0);
    }

    /// Bit `i` of a window, as the window's layout defines it.
    fn window_bit(window: &[u64; WINDOW_WORDS], i: u64) -> u64 {
        window[(i / 64) as usize] >> (i % 64) & 1
    }

    /// A buffer whose bits do not repeat with any short period.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8 ^ 0xA5)
            .collect()
    }

    #[test]
    fn window_matches_the_bit_oracle_at_every_position() {
        // Every start bit of a 72-byte buffer: all eight phases, and every
        // position within 48 bytes of the end, where the window runs off
        // the buffer and must read zeros there.
        let bytes = patterned(72);
        let len = bytes.len() as u64 * 8;
        for start in 0..=len {
            let r = BitReader::with_bit_range(&bytes, start, len).unwrap();
            let window = r.window();
            for i in 0..WINDOW_BITS {
                let at = start + i;
                let want = if at < len {
                    bit_oracle(&bytes, at, 1)
                } else {
                    0
                };
                assert_eq!(window_bit(&window, i), want, "start {start}, bit {i}");
            }
            assert_eq!(r.consumed_bits(), 0, "a window consumes nothing");
        }
    }

    #[test]
    fn advance_moves_the_window_like_a_read() {
        let bytes = patterned(64);
        for phase in 0u64..8 {
            for step in [0u64, 1, 7, 8, 13, 64, 65, 200] {
                let mut r = BitReader::with_bit_range(&bytes, phase, 512).unwrap();
                r.advance(step).unwrap();
                assert_eq!(r.consumed_bits(), step);
                let window = r.window();
                for i in 0..WINDOW_BITS {
                    let at = phase + step + i;
                    let want = if at < 512 {
                        bit_oracle(&bytes, at, 1)
                    } else {
                        0
                    };
                    assert_eq!(window_bit(&window, i), want, "phase {phase}, step {step}");
                }
                // The same position reached by reads.
                let mut by_reads = BitReader::with_bit_range(&bytes, phase, 512).unwrap();
                let mut left = step;
                while left > 0 {
                    let take = left.min(64) as u32;
                    by_reads.read_bits(take).unwrap();
                    left -= u64::from(take);
                }
                assert_eq!(by_reads.read_bits(17), r.read_bits(17));
            }
        }
    }

    #[test]
    fn advance_refuses_a_run_past_the_end() {
        let bytes = patterned(16);
        let mut r = BitReader::new(&bytes);
        r.advance(100).unwrap();
        assert_eq!(
            r.advance(29),
            Err(BitIoError::UnexpectedEnd {
                requested: 29,
                available: 28
            })
        );
        assert_eq!(r.consumed_bits(), 100, "a refused advance does not move");
        r.advance(28).unwrap();
        assert!(r.is_at_end());
        r.advance(0).unwrap();
        // The request saturates rather than wrapping.
        assert_eq!(
            r.advance(u64::MAX),
            Err(BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: 0
            })
        );
    }

    #[test]
    fn a_range_reader_windows_past_its_end_but_never_advances_there() {
        // A chunk in the middle of a stream: the window shows the buffer's
        // bits after the range, which the range forbids consuming.
        let bytes = patterned(64);
        for start in 0u64..8 {
            let end = start + 100;
            let mut r = BitReader::with_bit_range(&bytes, start, end).unwrap();
            let window = r.window();
            for i in 0..WINDOW_BITS {
                let want = bit_oracle(&bytes, start + i, 1);
                assert_eq!(window_bit(&window, i), want, "start {start}, bit {i}");
            }
            assert_eq!(
                r.advance(101),
                Err(BitIoError::UnexpectedEnd {
                    requested: 101,
                    available: 100
                })
            );
            r.advance(60).unwrap();
            assert_eq!(
                r.advance(41),
                Err(BitIoError::UnexpectedEnd {
                    requested: 41,
                    available: 40
                })
            );
            r.advance(40).unwrap();
            assert!(r.is_at_end());
        }
    }
}
