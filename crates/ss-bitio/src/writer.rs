use crate::reader::load_le8;
use crate::{BitIoError, MAX_FIELD_BITS};

/// Appends variable-width bit fields to a growing byte buffer.
///
/// Bits are packed LSB-first: the first bit written becomes bit 0 of byte 0,
/// the ninth becomes bit 0 of byte 1, and so on. Fields may be 0–64 bits
/// wide and freely straddle byte boundaries, which is exactly what the
/// ShapeShifter container needs — groups are stored "back-to-back in the
/// order we expect them to be read" (paper Figure 6c) with no per-group
/// alignment.
///
/// # Examples
///
/// ```
/// use ss_bitio::BitWriter;
///
/// # fn main() -> Result<(), ss_bitio::BitIoError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0b1, 1)?;
/// w.write_bits(0b0110, 4)?;
/// assert_eq!(w.bit_len(), 5);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, vec![0b0000_1101]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the stream (may be mid-byte).
    bit_len: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bits` bits.
    #[must_use]
    pub fn with_capacity_bits(bits: u64) -> Self {
        Self {
            bytes: Vec::with_capacity(bits.div_ceil(8) as usize),
            bit_len: 0,
        }
    }

    /// Resets the writer to empty while keeping its allocated buffer.
    ///
    /// This is the reuse hook behind `ss-core`'s `CodecSession`: a
    /// steady-state encode loop clears and refills one writer per tensor,
    /// so after the first few tensors have grown the buffer to the
    /// high-water mark, no further heap allocation happens per tensor.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bit_len = 0;
    }

    /// Bytes of backing-buffer capacity currently allocated (the reuse
    /// high-water mark; diagnostic only).
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bit_len == 0
    }

    /// Appends the low `bits` bits of `value`, LSB first.
    ///
    /// A zero-width field is a no-op and requires `value == 0`. The field
    /// goes through a byte loop of its own, independent of the run store
    /// behind the bulk methods, so the writer's run tests use it as their
    /// reference.
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits > 64`.
    /// * [`BitIoError::ValueOutOfRange`] if `value` has set bits above
    ///   position `bits - 1`.
    pub fn write_bits(&mut self, value: u64, bits: u32) -> Result<(), BitIoError> {
        if bits > MAX_FIELD_BITS {
            return Err(BitIoError::FieldTooWide { bits });
        }
        if bits < 64 && (value >> bits) != 0 {
            return Err(BitIoError::ValueOutOfRange { value, bits });
        }
        let mut remaining = bits;
        let mut value = value;
        while remaining > 0 {
            let bit_off = (self.bit_len % 8) as u32;
            // The buffer invariant `bytes.len() == ceil(bit_len / 8)` means
            // the write lands in the last byte, which exists once the
            // byte-aligned case has pushed a fresh one.
            if bit_off == 0 {
                self.bytes.push(0);
            }
            let take = remaining.min(8 - bit_off);
            let mask = 0xFFu64 >> (8 - take);
            // ss-lint: allow(truncating-cast) -- masked to `take` <= 8 bits on the line above
            let chunk = (value & mask) as u8;
            if let Some(last) = self.bytes.last_mut() {
                *last |= chunk << bit_off;
            }
            value >>= take;
            remaining -= take;
            self.bit_len += u64::from(take);
        }
        Ok(())
    }

    /// Appends the first `bit_len` bits of `words` (LSB-first within each
    /// word, words in order) — the bulk analogue of calling
    /// [`BitWriter::write_bits`] once per 64-bit chunk, for the codec's
    /// zero-bitmap words (up to 256 bits per group). Bits of the final
    /// word above `bit_len` are ignored, so a packed-but-ragged buffer
    /// (e.g. a 100-bit bitmap in two words) writes exactly.
    ///
    /// # Errors
    ///
    /// [`BitIoError::StreamTooShort`] if `words` holds fewer than `bit_len`
    /// bits. The writer is unchanged on error.
    pub fn write_words(&mut self, words: &[u64], bit_len: u64) -> Result<(), BitIoError> {
        if bit_len > words.len() as u64 * 64 {
            return Err(BitIoError::StreamTooShort {
                bit_len,
                bytes: words.len() * 8,
            });
        }
        self.store_words(words.iter().copied(), bit_len);
        Ok(())
    }

    /// Appends a run of equal-width fields, LSB-first — bit-identical to
    /// calling [`BitWriter::write_bits`] once per field, but the fields are
    /// range-checked with one OR-fold up front and stored by the writer's
    /// one run store. This is the encoder's payload hot path: a group's
    /// non-zero values all share the same width `P`.
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits > 64`.
    /// * [`BitIoError::ValueOutOfRange`] if any field has set bits above
    ///   position `bits - 1` (reporting the first offending field).
    ///
    /// The writer is unchanged on error.
    pub fn pack_fields(&mut self, fields: &[u64], bits: u32) -> Result<(), BitIoError> {
        if bits > MAX_FIELD_BITS {
            return Err(BitIoError::FieldTooWide { bits });
        }
        if bits < 64 {
            // One fold instead of a branch per field; the scan for the
            // offending value only runs on the error path.
            let or = fields.iter().fold(0u64, |a, &f| a | f);
            if or >> bits != 0 {
                let value = fields
                    .iter()
                    .copied()
                    .find(|&f| f >> bits != 0)
                    .unwrap_or(or);
                return Err(BitIoError::ValueOutOfRange { value, bits });
            }
        }
        if bits > 0 && !fields.is_empty() {
            self.store_run(fields.iter().map(|&field| (field, bits)));
        }
        Ok(())
    }

    /// Pads the stream with zero bits up to the next multiple of `align`
    /// bits, returning the number of padding bits added.
    ///
    /// The paper's memory layout pads each array container to the off-chip
    /// interface width so the next container starts on an access boundary.
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for uniform chaining.
    ///
    /// # Panics
    ///
    /// Panics if `align == 0`.
    pub fn align_to(&mut self, align: u64) -> Result<u64, BitIoError> {
        assert!(align > 0, "alignment must be non-zero");
        let rem = self.bit_len % align;
        let pad = if rem == 0 { 0 } else { align - rem };
        self.store_words(std::iter::repeat(0), pad);
        Ok(pad)
    }

    /// Splices a raw bit stream onto the end of this one.
    ///
    /// The first `bit_len` bits of `src` (LSB-first, the same packing this
    /// writer produces) are appended starting at the current write position,
    /// whatever its sub-byte phase. Bits of `src`'s final partial byte above
    /// `bit_len` are ignored, so a buffer produced by another [`BitWriter`]
    /// — whose tail bits are zero by construction — splices exactly.
    ///
    /// This is the primitive that lets independently encoded chunks be
    /// stitched into one canonical stream: each worker packs its groups into
    /// a private writer, and the results are concatenated in order with no
    /// per-chunk alignment, exactly as if a single writer had produced the
    /// whole stream.
    ///
    /// # Errors
    ///
    /// [`BitIoError::StreamTooShort`] if `src` holds fewer than `bit_len`
    /// bits. The writer is unchanged on error.
    pub fn append_bits(&mut self, src: &[u8], bit_len: u64) -> Result<(), BitIoError> {
        let needed = bit_len.div_ceil(8) as usize;
        let Some(src) = src.get(..needed) else {
            return Err(BitIoError::StreamTooShort {
                bit_len,
                bytes: src.len(),
            });
        };
        let words = (0..src.len()).step_by(8).map(|at| load_le8(src, at));
        self.store_words(words, bit_len);
        Ok(())
    }

    /// Splices another writer's stream onto the end of this one.
    ///
    /// Equivalent to `append_bits(other.as_bytes(), other.bit_len())`, with a
    /// cheap buffer take-over when `self` is still empty.
    ///
    /// # Errors
    ///
    /// Never fails — `other` upholds the length invariant by construction —
    /// but shares the fallible signature for uniform `?`-chaining.
    pub fn append_writer(&mut self, other: BitWriter) -> Result<(), BitIoError> {
        if self.bit_len == 0 && self.bytes.capacity() < other.bytes.len() {
            *self = other;
            return Ok(());
        }
        self.append_bits(&other.bytes, other.bit_len)
    }

    /// Stores the first `bit_len` bits of the LSB-first word sequence
    /// `words` in one run — whole words as 64-bit fields, then the ragged
    /// rest masked to its width. `words` must yield at least `bit_len`
    /// bits.
    fn store_words(&mut self, words: impl Iterator<Item = u64>, bit_len: u64) {
        let mut left = bit_len;
        self.store_run(words.map_while(|word| {
            // ss-lint: allow(truncating-cast) -- min(64) bounds the value
            let take = left.min(64) as u32;
            left -= u64::from(take);
            // ss-lint: allow(shift-bound) -- take is 1..=64 here, so 64 - take is 0..=63
            (take > 0).then(|| (word & (u64::MAX >> (64 - take)), take))
        }));
    }

    /// The one run store: appends each `(field, bits)` of `fields` as a
    /// `bits`-wide field (`bits` in 1..=64, every field already below
    /// `2^bits`) through a 128-bit shift-carry accumulator that spills
    /// whole words. The current partial byte is folded into the
    /// accumulator first and re-emitted merged with the new bits.
    fn store_run(&mut self, fields: impl Iterator<Item = (u64, u32)>) {
        let phase = (self.bit_len % 8) as u32;
        let mut acc: u128 = if phase == 0 {
            0
        } else {
            self.bytes.pop().map_or(0, u128::from)
        };
        let mut acc_bits = phase;
        let mut total = 0u64;
        for (f, bits) in fields {
            // ss-lint: allow(shift-bound) -- acc_bits < 64 at every loop entry (the spill below keeps it there), and the accumulator is 128 bits wide
            acc |= u128::from(f) << acc_bits;
            acc_bits += bits;
            total += u64::from(bits);
            if acc_bits >= 64 {
                // ss-lint: allow(truncating-cast) -- spilling the low 64 bits is the point
                self.bytes.extend_from_slice(&(acc as u64).to_le_bytes());
                acc >>= 64;
                acc_bits -= 64;
            }
        }
        // The rest, below 64 bits, in whole bytes: bits of the last byte
        // above `acc_bits` are zero because every field is below `2^bits`.
        // ss-lint: allow(truncating-cast) -- acc_bits < 64, so acc holds at most 63 bits
        let rest = (acc as u64).to_le_bytes();
        self.bytes
            .extend_from_slice(rest.get(..acc_bits.div_ceil(8) as usize).unwrap_or(&rest));
        self.bit_len += total;
    }

    /// Consumes the writer and returns the packed bytes. Trailing bits of the
    /// final partial byte are zero.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the packed bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn clear_keeps_capacity_and_restores_bit_identity() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32).unwrap();
        w.write_bits(0x3, 3).unwrap();
        let first = w.clone();
        let cap = w.capacity_bytes();
        assert!(cap >= 5);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.bit_len(), 0);
        assert_eq!(w.capacity_bytes(), cap, "clear must keep the buffer");
        // Refilling after clear is bit-identical to a fresh writer.
        w.write_bits(0xDEAD_BEEF, 32).unwrap();
        w.write_bits(0x3, 3).unwrap();
        assert_eq!(w, first);
    }

    #[test]
    fn single_byte_packing_lsb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1).unwrap();
        w.write_bits(0b01, 2).unwrap();
        w.write_bits(0b10101, 5).unwrap();
        assert_eq!(w.bit_len(), 8);
        assert_eq!(w.into_bytes(), vec![0b1010_1011]);
    }

    #[test]
    fn straddles_byte_boundary() {
        let mut w = BitWriter::new();
        w.write_bits(0b111, 3).unwrap();
        w.write_bits(0x1FF, 9).unwrap(); // crosses into byte 1
        assert_eq!(w.bit_len(), 12);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0xFF, 0x0F]);
    }

    #[test]
    fn sixty_four_bit_field() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64).unwrap();
        assert_eq!(w.into_bytes(), vec![0xFF; 8]);
    }

    #[test]
    fn zero_width_field_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0).unwrap();
        assert!(w.is_empty());
        assert!(w.write_bits(1, 0).is_err());
    }

    #[test]
    fn rejects_wide_fields_and_out_of_range_values() {
        let mut w = BitWriter::new();
        assert_eq!(
            w.write_bits(0, 65),
            Err(BitIoError::FieldTooWide { bits: 65 })
        );
        assert_eq!(
            w.write_bits(0b100, 2),
            Err(BitIoError::ValueOutOfRange { value: 4, bits: 2 })
        );
        // Failed writes must not corrupt the stream.
        assert!(w.is_empty());
    }

    #[test]
    fn align_to_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2).unwrap();
        let pad = w.align_to(32).unwrap();
        assert_eq!(pad, 30);
        assert_eq!(w.bit_len(), 32);
        // Already aligned: no padding.
        assert_eq!(w.align_to(32).unwrap(), 0);
        assert_eq!(w.into_bytes(), vec![0b11, 0, 0, 0]);
    }

    #[test]
    fn align_to_matches_write_bits_at_every_phase() {
        // Padding runs from a few bits to several words, from every
        // sub-byte phase, against zero fields written one by one.
        for phase in 0u32..8 {
            for align in [1u64, 8, 13, 64, 130, 256] {
                let mut want = BitWriter::new();
                seed_phase(&mut want, phase);
                let pad = (align - want.bit_len() % align) % align;
                let mut left = pad;
                while left > 0 {
                    let take = left.min(64) as u32;
                    want.write_bits(0, take).unwrap();
                    left -= u64::from(take);
                }
                let mut got = BitWriter::new();
                seed_phase(&mut got, phase);
                assert_eq!(got.align_to(align).unwrap(), pad);
                assert_eq!(got, want, "phase {phase}, align {align}");
            }
        }
    }

    /// Oracle for splicing: write `a_bits` then `b_bits` through one writer.
    fn sequential_oracle(a: &[(u64, u32)], b: &[(u64, u32)]) -> BitWriter {
        let mut w = BitWriter::new();
        for &(v, n) in a.iter().chain(b) {
            w.write_bits(v, n).unwrap();
        }
        w
    }

    /// Splice variant: `a` and `b` written to separate writers, then joined.
    fn spliced(a: &[(u64, u32)], b: &[(u64, u32)]) -> BitWriter {
        let mut wa = BitWriter::new();
        for &(v, n) in a {
            wa.write_bits(v, n).unwrap();
        }
        let mut wb = BitWriter::new();
        for &(v, n) in b {
            wb.write_bits(v, n).unwrap();
        }
        wa.append_writer(wb).unwrap();
        wa
    }

    #[test]
    fn append_at_every_phase_offset() {
        // Left stream lengths 0..=8 cover every sub-byte phase including the
        // aligned boundary; right stream crosses multiple bytes.
        for phase in 0u32..=8 {
            let a = [(0b1011_0101_u64 & ((1 << phase.max(1)) - 1), phase)];
            let a: &[(u64, u32)] = if phase == 0 { &[] } else { &a };
            let b: &[(u64, u32)] = &[(0x2B, 6), (0x1FF, 9), (0x0, 3), (0x5A5A, 15)];
            let want = sequential_oracle(a, b);
            let got = spliced(a, b);
            assert_eq!(got, want, "phase {phase}");
            assert_eq!(got.bit_len(), u64::from(phase) + 33);
        }
    }

    #[test]
    fn append_empty_streams() {
        // Empty onto empty.
        let mut w = BitWriter::new();
        w.append_writer(BitWriter::new()).unwrap();
        assert!(w.is_empty());
        // Empty onto non-empty, at aligned and unaligned phases.
        for bits in [3u32, 8] {
            let mut w = BitWriter::new();
            w.write_bits(0b101 & ((1 << bits) - 1), bits).unwrap();
            let before = w.clone();
            w.append_writer(BitWriter::new()).unwrap();
            assert_eq!(w, before, "appending empty must be identity");
        }
        // Non-empty onto empty takes the buffer over unchanged.
        let mut src = BitWriter::new();
        src.write_bits(0xABC, 12).unwrap();
        let mut w = BitWriter::new();
        w.append_writer(src.clone()).unwrap();
        assert_eq!(w, src);
    }

    #[test]
    fn append_multi_word_payloads() {
        // Both sides longer than 64 bits, forcing carries across many bytes.
        let a: Vec<(u64, u32)> = (0..5)
            .map(|i| ((0x9E37_79B9 ^ i) & ((1 << 29) - 1), 29))
            .collect();
        let b: Vec<(u64, u32)> = (0..7)
            .map(|i| ((0xDEAD_BEEF_CAFE ^ (i << 7)) & ((1 << 47) - 1), 47))
            .collect();
        let want = sequential_oracle(&a, &b);
        let got = spliced(&a, &b);
        assert_eq!(got, want);
        assert_eq!(got.bit_len(), 5 * 29 + 7 * 47);
    }

    #[test]
    fn append_bits_masks_dirty_tail_and_checks_length() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1).unwrap();
        // 3 declared bits, but the raw byte has garbage above them.
        w.append_bits(&[0b1111_1010], 3).unwrap();
        assert_eq!(w.bit_len(), 4);
        assert_eq!(w.as_bytes(), &[0b0101]);
        // Tail invariant held: further writes see clean upper bits.
        w.write_bits(0xF, 4).unwrap();
        assert_eq!(w.into_bytes(), vec![0b1111_0101]);

        let mut w = BitWriter::new();
        assert_eq!(
            w.append_bits(&[0xFF], 9),
            Err(BitIoError::StreamTooShort {
                bit_len: 9,
                bytes: 1
            })
        );
        assert!(w.is_empty(), "failed append must not corrupt the stream");
    }

    #[test]
    fn chained_appends_match_single_writer() {
        // Three chunks with deliberately awkward lengths: 13 + 1 + 75 bits.
        let chunks: [&[(u64, u32)]; 3] = [
            &[(0x1ABC & 0x1FFF, 13)],
            &[(1, 1)],
            &[(u64::MAX, 64), (0x7FF, 11)],
        ];
        let mut want = BitWriter::new();
        let mut got = BitWriter::new();
        for chunk in chunks {
            let mut part = BitWriter::new();
            for &(v, n) in chunk {
                want.write_bits(v, n).unwrap();
                part.write_bits(v, n).unwrap();
            }
            got.append_writer(part).unwrap();
        }
        assert_eq!(got, want);
    }

    /// Seeds a writer with `phase` bits so the bulk write starts mid-byte.
    fn seed_phase(w: &mut BitWriter, phase: u32) {
        if phase > 0 {
            w.write_bits(0x55 & ((1 << phase) - 1), phase).unwrap();
        }
    }

    /// Oracle: `write_words` must match a word-at-a-time `write_bits` loop.
    fn words_oracle(prefix_bits: u32, words: &[u64], bit_len: u64) -> BitWriter {
        let mut w = BitWriter::new();
        seed_phase(&mut w, prefix_bits);
        let mut left = bit_len;
        for &word in words {
            if left == 0 {
                break;
            }
            let take = left.min(64) as u32;
            let masked = if take == 64 {
                word
            } else {
                word & ((1u64 << take) - 1)
            };
            w.write_bits(masked, take).unwrap();
            left -= u64::from(take);
        }
        w
    }

    #[test]
    fn write_words_matches_write_bits_at_every_phase() {
        let words = [0xDEAD_BEEF_F00D_CAFEu64, 0x0123_4567_89AB_CDEF, 0x55AA];
        for phase in 0u32..8 {
            for bit_len in [0u64, 1, 7, 8, 63, 64, 65, 100, 128, 130, 192] {
                let want = words_oracle(phase, &words, bit_len);
                let mut got = BitWriter::new();
                seed_phase(&mut got, phase);
                got.write_words(&words, bit_len).unwrap();
                assert_eq!(got, want, "phase {phase}, bit_len {bit_len}");
            }
        }
    }

    #[test]
    fn write_words_ignores_bits_above_bit_len() {
        // Dirty bits above bit_len in the last word must not leak.
        let mut w = BitWriter::new();
        w.write_words(&[u64::MAX], 3).unwrap();
        assert_eq!(w.bit_len(), 3);
        assert_eq!(w.as_bytes(), &[0b111]);
        w.write_bits(0, 5).unwrap();
        assert_eq!(w.into_bytes(), vec![0b111]);
    }

    #[test]
    fn write_words_rejects_short_buffers() {
        let mut w = BitWriter::new();
        assert_eq!(
            w.write_words(&[0], 65),
            Err(BitIoError::StreamTooShort {
                bit_len: 65,
                bytes: 8
            })
        );
        assert!(w.is_empty(), "failed write must not corrupt the stream");
    }

    #[test]
    fn pack_fields_matches_write_bits_at_every_phase_and_width() {
        let raw: [u64; 9] = [
            0,
            1,
            0x2B,
            0x1FF,
            0x5A5A,
            0xFFFF,
            0x1_0001,
            0xDEAD_BEEF,
            u64::MAX,
        ];
        for phase in 0u32..8 {
            for bits in 1u32..=17 {
                let mask = if bits == 64 {
                    u64::MAX
                } else {
                    (1 << bits) - 1
                };
                let fields: Vec<u64> = raw.iter().map(|&f| f & mask).collect();
                let mut want = BitWriter::new();
                let mut got = BitWriter::new();
                seed_phase(&mut want, phase);
                seed_phase(&mut got, phase);
                for &f in &fields {
                    want.write_bits(f, bits).unwrap();
                }
                got.pack_fields(&fields, bits).unwrap();
                assert_eq!(got, want, "phase {phase}, width {bits}");
            }
        }
    }

    #[test]
    fn pack_fields_wide_widths() {
        for bits in [33u32, 57, 63, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
            let fields: Vec<u64> = (0..5u64)
                .map(|i| (0x9E37_79B9_7F4A_7C15u64.rotate_left(i as u32 * 11)) & mask)
                .collect();
            let mut want = BitWriter::new();
            for &f in &fields {
                want.write_bits(f, bits).unwrap();
            }
            let mut got = BitWriter::new();
            got.pack_fields(&fields, bits).unwrap();
            assert_eq!(got, want, "width {bits}");
        }
    }

    #[test]
    fn pack_fields_validates_like_write_bits() {
        let mut w = BitWriter::new();
        assert_eq!(
            w.pack_fields(&[0], 65),
            Err(BitIoError::FieldTooWide { bits: 65 })
        );
        assert_eq!(
            w.pack_fields(&[1, 4, 2], 2),
            Err(BitIoError::ValueOutOfRange { value: 4, bits: 2 })
        );
        // Zero-width run: a no-op iff every field is zero.
        w.pack_fields(&[0, 0], 0).unwrap();
        assert!(w.is_empty());
        assert_eq!(
            w.pack_fields(&[0, 3], 0),
            Err(BitIoError::ValueOutOfRange { value: 3, bits: 0 })
        );
        assert!(w.is_empty(), "failed pack must not corrupt the stream");
    }

    #[test]
    fn pack_fields_empty_run_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap();
        let before = w.clone();
        w.pack_fields(&[], 13).unwrap();
        assert_eq!(w, before);
    }
}
