//! The container-v2 chunk index: a small seekable header that restores
//! random access to an otherwise strictly sequential ShapeShifter stream.
//!
//! The paper's container packs groups back-to-back with no alignment, so a
//! group's start position is only known after every previous group has been
//! parsed — decode is sequential by stream design. The index fixes that at
//! a bounded metadata cost: the stream is cut every `chunk_groups` groups,
//! and for each chunk the index records the absolute bit offset of its
//! first group and the number of values it decodes to. Workers can then
//! seek straight to a chunk boundary and decode chunks concurrently,
//! reassembling the tensor bit-identically to the sequential parse
//! (DPRed's per-chunk containers and Dynamic Stripes' per-group streams
//! recover random access the same way).
//!
//! # Serialized layout
//!
//! The index serializes to a self-contained byte blob, LSB-first like the
//! stream itself:
//!
//! ```text
//! field               bits
//! entry count         32
//! chunk_groups        32
//! offset-delta width  7      bits per offset delta (0 iff one entry)
//! value-count width   7      bits per value count (>= 1)
//! offset deltas       (count - 1) x offset-delta width
//! value counts        count x value-count width
//! zero padding        to the next byte boundary
//! CRC-32 (IEEE)       32     over every preceding byte, little-endian
//! ```
//!
//! The first chunk always starts at bit 0, so only the gaps between
//! consecutive offsets travel (delta encoding keeps the common case — a
//! few dozen chunks over a multi-megabyte stream — to a handful of bytes).
//! The trailing CRC-32 guarantees that any single-bit corruption of the
//! index is detected as a typed [`CodecError`] before a worker ever seeks
//! to a bogus offset; burst errors up to 32 bits are likewise always
//! caught, and longer damage is caught with probability `1 - 2^-32`.

use ss_bitio::{BitReader, BitWriter};

use crate::checksum::{checked_body, crc32, TrailerError};
use crate::CodecError;

/// One chunk's entry: where its first group starts and how many values it
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute bit offset of the chunk's first group in the stream.
    pub bit_offset: u64,
    /// Number of tensor values the chunk decodes to.
    pub values: u64,
}

/// The optional chunk index of a container-v2 stream.
///
/// Built by `ShapeShifterCodec::encode` when its index policy asks for
/// one; consumed by the parallel decode path. The index never changes the
/// payload stream — a v2 container's stream bytes are bit-identical to
/// the v1 encoding of the same tensor, the index travels alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    chunk_groups: u32,
    entries: Vec<ChunkEntry>,
}

/// Smallest field width that can hold `v` (1 for zero, so a field is
/// never zero-width unless no field is stored at all).
fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// Checked serialized-size arithmetic for an `n`-entry index with the
/// given field widths: header + entries, byte-padded, plus the CRC-32
/// trailer. Factored out of [`ChunkIndex::serialized_bits`] so the
/// overflow path is testable with an adversarial `n` that no real entry
/// vector could ever materialize.
fn serialized_bits_for(n: u64, odb: u32, vb: u32) -> Result<u64, CodecError> {
    n.saturating_sub(1)
        .checked_mul(u64::from(odb))
        .and_then(|deltas| n.checked_mul(u64::from(vb)).map(|vals| (deltas, vals)))
        .and_then(|(deltas, vals)| deltas.checked_add(vals))
        .and_then(|entries| entries.checked_add(32 + 32 + 7 + 7))
        .and_then(|body| body.checked_add(7))
        .map(|body| body / 8 * 8)
        .and_then(|padded| padded.checked_add(32))
        .ok_or(CodecError::CorruptIndex {
            reason: "serialized size overflows",
        })
}

impl ChunkIndex {
    /// Assembles an index from its parts. The codec calls this with the
    /// offsets it recorded while encoding; `entries` must be non-empty and
    /// start at bit offset 0.
    ///
    /// # Errors
    ///
    /// [`CodecError::CorruptIndex`] if `entries` is empty, does not start
    /// at offset 0, or `chunk_groups` is 0 — the structural invariants
    /// every index carries (the full stream-consistency checks live in
    /// [`ChunkIndex::validate`]).
    pub fn from_parts(chunk_groups: u32, entries: Vec<ChunkEntry>) -> Result<Self, CodecError> {
        if chunk_groups == 0 {
            return Err(CodecError::CorruptIndex {
                reason: "chunk size of zero groups",
            });
        }
        match entries.first() {
            None => {
                return Err(CodecError::CorruptIndex {
                    reason: "no entries",
                })
            }
            Some(first) if first.bit_offset != 0 => {
                return Err(CodecError::CorruptIndex {
                    reason: "first chunk does not start at bit 0",
                })
            }
            Some(_) => {}
        }
        Ok(Self {
            chunk_groups,
            entries,
        })
    }

    /// Groups per chunk (every chunk except possibly the last).
    #[must_use]
    pub fn chunk_groups(&self) -> usize {
        self.chunk_groups as usize
    }

    /// Number of chunks.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.entries.len()
    }

    /// The per-chunk entries, in stream order.
    #[must_use]
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// Consumes the index, returning its entry buffer for reuse — the
    /// hook that lets `CodecSession::encode_into` rebuild a fresh index
    /// into the previous container's allocation instead of a new one.
    #[must_use]
    pub fn into_entries(self) -> Vec<ChunkEntry> {
        self.entries
    }

    /// Size of the serialized index in bits (header + entries + padding +
    /// checksum) — the metadata overhead a v2 container pays for random
    /// access.
    ///
    /// # Errors
    ///
    /// [`CodecError::CorruptIndex`] if the entry count is so large that
    /// the size arithmetic overflows `u64` — possible only for an index
    /// fabricated from a hostile header, never for one the codec built,
    /// but a wrong (wrapped) size here would mis-preallocate the
    /// serialization buffer, so the arithmetic is checked end to end.
    pub fn serialized_bits(&self) -> Result<u64, CodecError> {
        let (odb, vb) = self.field_widths();
        serialized_bits_for(self.entries.len() as u64, odb, vb)
    }

    /// The narrowest field widths that hold every offset delta and value
    /// count: `(offset_delta_bits, value_bits)`.
    fn field_widths(&self) -> (u32, u32) {
        let mut max_delta = 0u64;
        let mut prev = 0u64;
        let mut max_values = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                max_delta = max_delta.max(e.bit_offset.wrapping_sub(prev));
            }
            prev = e.bit_offset;
            max_values = max_values.max(e.values);
        }
        let odb = if self.entries.len() > 1 {
            bits_for(max_delta)
        } else {
            0
        };
        (odb, bits_for(max_values))
    }

    /// Serializes the index to its canonical byte blob (see the module
    /// docs for the layout). Deserializing the result with
    /// [`ChunkIndex::from_bytes`] reproduces the index exactly, and the
    /// encoding is canonical: equal indexes serialize to equal bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Stream`] on an internal bit-packing failure
    /// (unreachable for an index built by [`ChunkIndex::from_parts`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CodecError> {
        let (odb, vb) = self.field_widths();
        let mut w = BitWriter::with_capacity_bits(self.serialized_bits()?);
        w.write_bits(self.entries.len() as u64, 32)?;
        w.write_bits(u64::from(self.chunk_groups), 32)?;
        w.write_bits(u64::from(odb), 7)?;
        w.write_bits(u64::from(vb), 7)?;
        let mut prev = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                w.write_bits(e.bit_offset.wrapping_sub(prev), odb)?;
            }
            prev = e.bit_offset;
        }
        for e in &self.entries {
            w.write_bits(e.values, vb)?;
        }
        w.align_to(8)?;
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        Ok(bytes)
    }

    /// Deserializes an index from the blob [`ChunkIndex::to_bytes`]
    /// produced, verifying the checksum and every framing rule. Hostile
    /// input yields a typed error, never a panic and never an
    /// unbounded allocation.
    ///
    /// # Errors
    ///
    /// * [`CodecError::CorruptIndex`] if the checksum, framing or field
    ///   widths are inconsistent.
    /// * [`CodecError::Stream`] if a field read runs off the end.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let body = checked_body(bytes).map_err(|e| CodecError::CorruptIndex {
            reason: match e {
                TrailerError::Short(_) => "shorter than its checksum",
                TrailerError::Mismatch { .. } => "checksum mismatch",
            },
        })?;
        let mut r = BitReader::new(body);
        let count = r.read_bits(32)?;
        // ss-lint: allow(truncating-cast) -- field is 32 bits, fits u32
        let chunk_groups = r.read_bits(32)? as u32;
        // ss-lint: allow(truncating-cast) -- field is 7 bits, value <= 127
        let odb = r.read_bits(7)? as u32;
        // ss-lint: allow(truncating-cast) -- field is 7 bits, value <= 127
        let vb = r.read_bits(7)? as u32;
        if count == 0 {
            return Err(CodecError::CorruptIndex {
                reason: "no entries",
            });
        }
        if chunk_groups == 0 {
            return Err(CodecError::CorruptIndex {
                reason: "chunk size of zero groups",
            });
        }
        if odb > 64 || vb == 0 || vb > 64 {
            return Err(CodecError::CorruptIndex {
                reason: "entry field width outside 0..=64",
            });
        }
        if count > 1 && odb == 0 {
            return Err(CodecError::CorruptIndex {
                reason: "zero-width offset deltas for multiple entries",
            });
        }
        // Bound the allocation by what the blob can actually carry before
        // trusting the declared count.
        let needed = (count - 1)
            .checked_mul(u64::from(odb))
            .and_then(|d| d.checked_add(count.checked_mul(u64::from(vb))?))
            .ok_or(CodecError::CorruptIndex {
                reason: "entry count overflows the field arithmetic",
            })?;
        if needed > r.remaining_bits() {
            return Err(CodecError::CorruptIndex {
                reason: "declares more entries than the blob carries",
            });
        }
        // count * (odb + vb) <= remaining bits of a real blob, so count is
        // small enough to allocate for.
        // ss-lint: allow(truncating-cast) -- count bounded by blob bit length above
        let count = count as usize;
        let mut entries = Vec::with_capacity(count);
        let mut offset = 0u64;
        for i in 0..count {
            if i > 0 {
                let delta = r.read_bits(odb)?;
                offset = offset.checked_add(delta).ok_or(CodecError::CorruptIndex {
                    reason: "offset delta overflows",
                })?;
            }
            entries.push(ChunkEntry {
                bit_offset: offset,
                values: 0,
            });
        }
        for e in &mut entries {
            e.values = r.read_bits(vb)?;
        }
        if r.remaining_bits() >= 8 {
            return Err(CodecError::CorruptIndex {
                reason: "trailing bytes after the last entry",
            });
        }
        if r.remaining_bits() > 0 && r.read_bits(r.remaining_bits() as u32)? != 0 {
            return Err(CodecError::CorruptIndex {
                reason: "nonzero padding bits",
            });
        }
        Self::from_parts(chunk_groups, entries)
    }

    /// Cross-checks the index against the stream it claims to describe:
    /// the framing metadata (`group_size`, stream `bit_len`, element count
    /// `len`) must be consistent with every entry before any worker seeks
    /// into the stream.
    ///
    /// # Errors
    ///
    /// * [`CodecError::CorruptIndex`] for structural inconsistencies
    ///   (wrong chunk count, non-monotonic offsets, value-count drift).
    /// * [`CodecError::IndexOffsetOutOfBounds`] if an entry points past
    ///   the end of the stream.
    pub fn validate(&self, group_size: usize, bit_len: u64, len: usize) -> Result<(), CodecError> {
        let chunk_values = (self.chunk_groups as u64)
            .checked_mul(group_size as u64)
            .ok_or(CodecError::CorruptIndex {
                reason: "chunk size overflows",
            })?;
        if chunk_values == 0 {
            return Err(CodecError::CorruptIndex {
                reason: "chunk size of zero values",
            });
        }
        let expected_chunks = (len as u64).div_ceil(chunk_values);
        if self.entries.len() as u64 != expected_chunks {
            return Err(CodecError::CorruptIndex {
                reason: "chunk count disagrees with the element count",
            });
        }
        let mut prev_offset = 0u64;
        let mut total_values = 0u64;
        let last = self.entries.len() - 1;
        for (i, e) in self.entries.iter().enumerate() {
            if i == 0 {
                if e.bit_offset != 0 {
                    return Err(CodecError::CorruptIndex {
                        reason: "first chunk does not start at bit 0",
                    });
                }
            } else if e.bit_offset <= prev_offset {
                return Err(CodecError::CorruptIndex {
                    reason: "chunk offsets are not strictly increasing",
                });
            }
            if e.bit_offset >= bit_len {
                return Err(CodecError::IndexOffsetOutOfBounds {
                    chunk: i,
                    offset: e.bit_offset,
                    bit_len,
                });
            }
            let full = i < last;
            if full && e.values != chunk_values {
                return Err(CodecError::CorruptIndex {
                    reason: "interior chunk does not hold a full chunk of values",
                });
            }
            if !full && (e.values == 0 || e.values > chunk_values) {
                return Err(CodecError::CorruptIndex {
                    reason: "final chunk's value count outside 1..=chunk values",
                });
            }
            total_values = total_values
                .checked_add(e.values)
                .ok_or(CodecError::CorruptIndex {
                    reason: "value counts overflow",
                })?;
            prev_offset = e.bit_offset;
        }
        if total_values != len as u64 {
            return Err(CodecError::CorruptIndex {
                reason: "value counts disagree with the element count",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChunkIndex {
        ChunkIndex::from_parts(
            4,
            vec![
                ChunkEntry {
                    bit_offset: 0,
                    values: 64,
                },
                ChunkEntry {
                    bit_offset: 700,
                    values: 64,
                },
                ChunkEntry {
                    bit_offset: 1379,
                    values: 10,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrips_canonically() {
        let idx = sample();
        let bytes = idx.to_bytes().unwrap();
        assert_eq!(bytes.len() as u64 * 8, idx.serialized_bits().unwrap());
        let back = ChunkIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        // Canonical: re-serializing reproduces the exact blob.
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn single_entry_roundtrips() {
        let idx = ChunkIndex::from_parts(
            1,
            vec![ChunkEntry {
                bit_offset: 0,
                values: 3,
            }],
        )
        .unwrap();
        let bytes = idx.to_bytes().unwrap();
        assert_eq!(ChunkIndex::from_bytes(&bytes).unwrap(), idx);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // CRC-32 detects all single-bit errors: flipping any bit of the
        // serialized index (including inside the checksum itself) must
        // surface as a typed error, never a silently different index.
        let bytes = sample().to_bytes().unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let r = ChunkIndex::from_bytes(&corrupt);
            assert!(r.is_err(), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes().unwrap();
        for keep in 0..bytes.len() {
            assert!(
                ChunkIndex::from_bytes(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn hostile_entry_count_is_bounded() {
        // A blob declaring 2^32 - 1 entries must be rejected before any
        // allocation is sized from the claim. Build one with a valid CRC.
        let mut w = BitWriter::new();
        w.write_bits(u64::from(u32::MAX), 32).unwrap();
        w.write_bits(1, 32).unwrap();
        w.write_bits(64, 7).unwrap();
        w.write_bits(64, 7).unwrap();
        w.align_to(8).unwrap();
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ChunkIndex::from_bytes(&bytes),
            Err(CodecError::CorruptIndex { .. })
        ));
    }

    #[test]
    fn validate_cross_checks_framing() {
        let idx = sample();
        // Consistent framing: group 16, 4 groups per chunk, 138 values,
        // stream long enough for the last offset.
        idx.validate(16, 1500, 138).unwrap();
        // Wrong element count.
        assert!(idx.validate(16, 1500, 139).is_err());
        // Stream too short for the last chunk's offset.
        assert!(matches!(
            idx.validate(16, 1300, 138),
            Err(CodecError::IndexOffsetOutOfBounds { chunk: 2, .. })
        ));
        // Wrong chunk count for the element count.
        assert!(idx.validate(16, 1500, 600).is_err());
        // Interior chunk must be full.
        let bad = ChunkIndex::from_parts(
            4,
            vec![
                ChunkEntry {
                    bit_offset: 0,
                    values: 63,
                },
                ChunkEntry {
                    bit_offset: 700,
                    values: 65,
                },
            ],
        )
        .unwrap();
        assert!(matches!(
            bad.validate(16, 1500, 128),
            Err(CodecError::CorruptIndex { .. })
        ));
    }

    #[test]
    fn from_parts_enforces_structure() {
        assert!(ChunkIndex::from_parts(0, vec![]).is_err());
        assert!(ChunkIndex::from_parts(4, vec![]).is_err());
        assert!(ChunkIndex::from_parts(
            4,
            vec![ChunkEntry {
                bit_offset: 5,
                values: 1
            }]
        )
        .is_err());
    }

    #[test]
    fn serialized_size_arithmetic_is_checked() {
        // An adversarial entry count from a hostile header must yield a
        // typed error, not a wrapped (wrong) preallocation size. 2^59
        // entries x 64-bit fields overflows u64 in both the delta and the
        // value-count term.
        assert!(matches!(
            serialized_bits_for(1 << 59, 64, 64),
            Err(CodecError::CorruptIndex { .. })
        ));
        // Value-count term alone fits; adding the fixed header overflows.
        assert!(matches!(
            serialized_bits_for(u64::MAX / 64, 0, 64),
            Err(CodecError::CorruptIndex { .. })
        ));
        // Sane sizes still agree with the serializer (see
        // `roundtrips_canonically` for the end-to-end identity).
        assert_eq!(
            serialized_bits_for(1, 0, 1).unwrap(),
            (78u64 + 1).div_ceil(8) * 8 + 32
        );
    }
}
