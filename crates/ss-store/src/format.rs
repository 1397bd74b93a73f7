//! The `SSRD` shard file format: framing, checksums and the end-of-file
//! record index.
//!
//! A shard packs many named SSPK containers into one append-only file:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SSRD"
//! 4       1     format version (1)
//! 5       1     reserved (0)
//! 6       2     shard number, little-endian
//! 8       -     record blocks, back to back
//! ...     -     the record index (see below)
//! EOF-16  8     index length in bytes, little-endian
//! EOF-8   4     whole-shard CRC-32 (header + records + index), LE
//! EOF-4   4     tail magic "DRSS"
//! ```
//!
//! Each **record block** frames one SSPK container blob with its
//! metadata and a CRC-32 over every preceding byte of the block:
//!
//! ```text
//! 0       4     metadata length in bytes, little-endian
//! 4       m     serialized RecordMeta
//! 4+m     8     payload length in bytes, little-endian
//! 12+m    p     the SSPK container blob, byte-for-byte
//! 12+m+p  4     record CRC-32 (all preceding block bytes), LE
//! ```
//!
//! The **index** is a `BitWriter`-serialized table of every record's
//! metadata plus its block offset, length and CRC — the same
//! byte-aligned-fields-then-CRC-32-trailer idiom as
//! `ss_core::ChunkIndex`, so index corruption is detected independently
//! of the records it describes. The index sits at the *end* of the file
//! (located via the fixed-size footer) so a shard is written in pure
//! streaming fashion: records go straight to the sink, only the index is
//! buffered and appended at close.
//!
//! Three checksums, three failure domains: a record CRC localizes damage
//! to one tensor (the rest of the shard stays readable), the index CRC
//! protects the lookup table, and the whole-shard CRC gives `verify()` a
//! single end-to-end answer.

use shapeshifter::SchemeId;
use ss_bitio::{BitReader, BitWriter};
use ss_tensor::FixedType;

use crate::error::StoreError;

// The workspace's one CRC-32 lives in ss-core beside the chunk index it
// also guards; the serve protocol reaches it through this module.
pub use ss_core::checksum::{crc32, Crc32};

/// Shard file magic.
pub const MAGIC: [u8; 4] = *b"SSRD";
/// Tail magic closing every shard (the header magic reversed).
pub const TAIL_MAGIC: [u8; 4] = *b"DRSS";
/// The shard format version this crate reads and writes.
pub const VERSION: u8 = 1;
/// Shard header length in bytes.
pub const HEADER_LEN: usize = 8;
/// Shard footer length in bytes (index length + shard CRC + tail magic).
pub const FOOTER_LEN: usize = 16;
/// Longest record name the format accepts. The wire field is a `u16`,
/// but no real layer name approaches even this; the cap keeps a hostile
/// index from declaring kilobytes of name per entry.
pub const MAX_NAME_LEN: usize = 1024;

/// Fixed per-record byte overhead: the two length prefixes and the
/// record CRC (metadata itself is variable-length on top).
pub const RECORD_FIXED_OVERHEAD: usize = 4 + 8 + 4;

/// Per-record metadata: everything a reader needs to decode the record's
/// SSPK payload and to sanity-check it against the codec configuration
/// that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// The record's unique name within the model (e.g. `"conv3.weight"`).
    pub name: String,
    /// The layer index this tensor belongs to.
    pub layer: u32,
    /// The tensor's fixed-point container type.
    pub dtype: FixedType,
    /// The container scheme the payload was packed with. Parsed
    /// permissively — an id with no registered scheme still lists; only
    /// decoding it fails (typed, through the registry).
    pub scheme: SchemeId,
    /// The codec's group size.
    pub group_size: u16,
    /// FNV-1a fingerprint of the codec configuration — see
    /// [`codec_fingerprint`]. Lets a reader refuse to mix records packed
    /// under different configurations without parsing payloads.
    pub fingerprint: u64,
    /// The tensor's element count.
    pub values: u64,
}

impl RecordMeta {
    /// Validates the fields a writer is about to serialize.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidRecord`] for an empty or over-long name.
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.name.is_empty() {
            return Err(StoreError::InvalidRecord {
                reason: "record name is empty".to_string(),
            });
        }
        if self.name.len() > MAX_NAME_LEN {
            return Err(StoreError::InvalidRecord {
                reason: format!(
                    "record name is {} bytes; the format caps names at {MAX_NAME_LEN}",
                    self.name.len()
                ),
            });
        }
        Ok(())
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        2 + self.name.len() + 4 + 1 + 1 + 1 + 2 + 8 + 8
    }

    /// Hands the serialized form to `emit`, one field at a time.
    fn emit_fields(&self, mut emit: impl FnMut(&[u8])) {
        // ss-lint: allow(truncating-cast) -- validate() bounds name.len() at MAX_NAME_LEN (1024) before any serialization, and index_from_bytes before any comparison
        emit(&(self.name.len() as u16).to_le_bytes());
        emit(self.name.as_bytes());
        emit(&self.layer.to_le_bytes());
        emit(&[
            self.dtype.bits(),
            u8::from(self.dtype.signedness().is_signed()),
            self.scheme.as_byte(),
        ]);
        emit(&self.group_size.to_le_bytes());
        emit(&self.fingerprint.to_le_bytes());
        emit(&self.values.to_le_bytes());
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.emit_fields(|field| out.extend_from_slice(field));
        out
    }

    /// Whether `bytes` is exactly this metadata's serialized form. The
    /// encoding is canonical, so this is the `==` of the parsed forms,
    /// checked field by field without parsing or allocating.
    fn is_encoded_by(&self, bytes: &[u8]) -> bool {
        let mut rest = Some(bytes);
        self.emit_fields(|field| rest = rest.and_then(|r| r.strip_prefix(field)));
        rest.is_some_and(<[u8]>::is_empty)
    }

    fn from_bytes(bytes: &[u8], shard: &str) -> Result<Self, StoreError> {
        let corrupt = |reason: String| StoreError::CorruptShard {
            shard: shard.to_string(),
            reason,
        };
        if bytes.len() < 2 {
            return Err(corrupt(
                "record metadata shorter than its name length".into(),
            ));
        }
        let name_len = usize::from(u16::from_le_bytes([bytes[0], bytes[1]]));
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(corrupt(format!(
                "record name length {name_len} outside 1..={MAX_NAME_LEN}"
            )));
        }
        let fixed = 4 + 1 + 1 + 1 + 2 + 8 + 8;
        if bytes.len() != 2 + name_len + fixed {
            return Err(corrupt(format!(
                "record metadata is {} bytes, framing says {}",
                bytes.len(),
                2 + name_len + fixed
            )));
        }
        let name = std::str::from_utf8(&bytes[2..2 + name_len])
            .map_err(|_| corrupt("record name is not UTF-8".into()))?
            .to_string();
        let mut at = 2 + name_len;
        let layer = u32::from_le_bytes(
            bytes[at..at + 4]
                .try_into()
                .map_err(|_| corrupt("short layer field".into()))?,
        );
        at += 4;
        let bits = bytes[at];
        let signed = bytes[at + 1];
        let dtype = match signed {
            0 => FixedType::unsigned(bits),
            1 => FixedType::signed(bits),
            s => {
                return Err(corrupt(format!(
                    "record signedness byte {s} is neither 0 nor 1"
                )));
            }
        }
        .map_err(|e| corrupt(format!("record container type: {e}")))?;
        // ss-lint: allow(panic-freedom) -- the record-length check above guarantees at + 2 in bounds
        let scheme = SchemeId::new(bytes[at + 2]);
        at += 3;
        let group_size = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
        if group_size == 0 || group_size > 256 {
            return Err(corrupt(format!(
                "record group size {group_size} outside 1..=256"
            )));
        }
        at += 2;
        let fingerprint = u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .map_err(|_| corrupt("short fingerprint field".into()))?,
        );
        at += 8;
        let values = u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .map_err(|_| corrupt("short value-count field".into()))?,
        );
        Ok(RecordMeta {
            name,
            layer,
            dtype,
            scheme,
            group_size,
            fingerprint,
            values,
        })
    }
}

/// FNV-1a fingerprint of a codec configuration (scheme wire id, group
/// size, container type). Two records with equal fingerprints were packed
/// compatibly; the store's `verify()` flags mixtures.
///
/// The registry's canonical recipe
/// ([`ss_core::registry::fingerprint_bytes`]), so shard fingerprints
/// written before the registry existed hash byte-identically.
#[must_use]
pub fn codec_fingerprint(scheme: impl Into<SchemeId>, group_size: u16, dtype: FixedType) -> u64 {
    ss_core::registry::fingerprint_bytes(scheme.into(), group_size, dtype)
}

/// One index entry: a record's metadata plus where its block sits in the
/// shard and the CRC its block must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordEntry {
    /// The record's metadata, byte-identical to the copy inside its
    /// block.
    pub meta: RecordMeta,
    /// Byte offset of the record block from the start of the shard.
    pub block_offset: u64,
    /// Total record-block length in bytes (prefixes + metadata + payload
    /// + CRC).
    pub block_len: u64,
    /// The record block's CRC-32 (duplicated here so a reader can detect
    /// a damaged block without trusting the block's own trailer).
    pub record_crc: u32,
}

/// The 8-byte shard header.
#[must_use]
pub fn header(shard_no: u16) -> [u8; HEADER_LEN] {
    let n = shard_no.to_le_bytes();
    [
        MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION, 0, n[0], n[1],
    ]
}

/// Parses and validates a shard header, returning the shard number.
///
/// # Errors
///
/// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`] or
/// [`StoreError::CorruptShard`] for a short header.
pub fn parse_header(bytes: &[u8], shard: &str) -> Result<u16, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::CorruptShard {
            shard: shard.to_string(),
            reason: format!("file is {} bytes, header needs {HEADER_LEN}", bytes.len()),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreError::BadMagic {
            shard: shard.to_string(),
        });
    }
    if bytes[4] != VERSION {
        return Err(StoreError::UnsupportedVersion {
            shard: shard.to_string(),
            version: bytes[4],
        });
    }
    Ok(u16::from_le_bytes([bytes[6], bytes[7]]))
}

/// The 16-byte shard footer.
#[must_use]
pub fn footer(index_len: u64, shard_crc: u32) -> [u8; FOOTER_LEN] {
    let mut out = [0u8; FOOTER_LEN];
    out[0..8].copy_from_slice(&index_len.to_le_bytes());
    out[8..12].copy_from_slice(&shard_crc.to_le_bytes());
    out[12..16].copy_from_slice(&TAIL_MAGIC);
    out
}

/// Parses a shard footer, returning `(index_len, shard_crc)`.
///
/// # Errors
///
/// [`StoreError::CorruptShard`] for a short footer or a missing tail
/// magic.
pub fn parse_footer(tail: &[u8], shard: &str) -> Result<(u64, u32), StoreError> {
    let corrupt = |reason: String| StoreError::CorruptShard {
        shard: shard.to_string(),
        reason,
    };
    if tail.len() != FOOTER_LEN {
        return Err(corrupt(format!(
            "footer is {} bytes, the format needs {FOOTER_LEN}",
            tail.len()
        )));
    }
    if tail[12..16] != TAIL_MAGIC {
        return Err(corrupt(
            "tail magic missing — shard truncated or overwritten".into(),
        ));
    }
    let index_len = u64::from_le_bytes(
        tail[0..8]
            .try_into()
            .map_err(|_| corrupt("short index-length field".into()))?,
    );
    let shard_crc = u32::from_le_bytes(
        tail[8..12]
            .try_into()
            .map_err(|_| corrupt("short shard-CRC field".into()))?,
    );
    Ok((index_len, shard_crc))
}

/// Serializes a record block's prefix (metadata length, metadata,
/// payload length) and the CRC-32 the full block must end with.
///
/// The payload itself is not copied: a streaming writer emits the
/// returned prefix, then the payload bytes, then the returned CRC as
/// four little-endian bytes. The block's total length is
/// `prefix.len() + payload.len() + 4`.
///
/// # Errors
///
/// [`StoreError::InvalidRecord`] if the metadata fails validation.
pub fn encode_record_parts(
    meta: &RecordMeta,
    payload: &[u8],
) -> Result<(Vec<u8>, u32), StoreError> {
    meta.validate()?;
    let meta_bytes = meta.to_bytes();
    let mut prefix = Vec::with_capacity(4 + meta_bytes.len() + 8);
    prefix.extend_from_slice(&(meta_bytes.len() as u32).to_le_bytes());
    prefix.extend_from_slice(&meta_bytes);
    prefix.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&prefix);
    crc.update(payload);
    Ok((prefix, crc.finish()))
}

/// Parses one record block, returning its metadata and a borrowed view
/// of its payload.
///
/// The block's trailing CRC-32 is checked *first*, over every byte it
/// covers, so any single-bit flip inside the block — metadata, payload
/// or length prefixes — surfaces as [`StoreError::RecordChecksum`]
/// before the damaged bytes are interpreted. `name` is the caller's name
/// for the record (from the index) and is used only in errors.
///
/// # Errors
///
/// [`StoreError::RecordChecksum`] on CRC mismatch,
/// [`StoreError::CorruptShard`] on framing inconsistencies.
pub fn parse_record_block<'a>(
    block: &'a [u8],
    shard: &str,
    name: &str,
) -> Result<(RecordMeta, &'a [u8]), StoreError> {
    let (meta, payload) = split_record_block(block, shard, name)?;
    Ok((RecordMeta::from_bytes(meta, shard)?, payload))
}

/// Checks one record block against its index entry's metadata and
/// returns a borrowed view of its payload, allocating nothing on
/// success — the block parse behind a store `get`.
///
/// The checks are [`parse_record_block`]'s, and the block's metadata
/// must be byte for byte the index's copy.
///
/// # Errors
///
/// As [`parse_record_block`], plus [`StoreError::CorruptShard`] when the
/// block's metadata disagrees with `expected`.
pub(crate) fn record_payload<'a>(
    block: &'a [u8],
    shard: &str,
    expected: &RecordMeta,
) -> Result<&'a [u8], StoreError> {
    let (meta, payload) = split_record_block(block, shard, &expected.name)?;
    if !expected.is_encoded_by(meta) {
        return Err(StoreError::CorruptShard {
            shard: shard.to_string(),
            reason: format!(
                "record {:?}: block metadata disagrees with the index",
                expected.name
            ),
        });
    }
    Ok(payload)
}

/// The CRC check and length framing of a record block: returns its
/// serialized metadata and its payload, both borrowed.
fn split_record_block<'a>(
    block: &'a [u8],
    shard: &str,
    name: &str,
) -> Result<(&'a [u8], &'a [u8]), StoreError> {
    let corrupt = |reason: String| StoreError::CorruptShard {
        shard: shard.to_string(),
        reason,
    };
    if block.len() < RECORD_FIXED_OVERHEAD {
        return Err(corrupt(format!(
            "record block is {} bytes, the framing alone needs {RECORD_FIXED_OVERHEAD}",
            block.len()
        )));
    }
    let body = &block[..block.len() - 4];
    let stored = u32::from_le_bytes(
        block[block.len() - 4..]
            .try_into()
            .map_err(|_| corrupt("short record CRC field".into()))?,
    );
    if crc32(body) != stored {
        return Err(StoreError::RecordChecksum {
            shard: shard.to_string(),
            name: name.to_string(),
        });
    }
    let meta_len = usize::try_from(u32::from_le_bytes(
        block[0..4]
            .try_into()
            .map_err(|_| corrupt("short metadata length".into()))?,
    ))
    .map_err(|_| StoreError::LengthOverflow {
        field: "record metadata length",
        value: u64::from(u32::from_le_bytes([block[0], block[1], block[2], block[3]])),
    })?;
    // Checked end-to-end: `meta_len` is at most u32::MAX, which plus the
    // framing overflows a 32-bit usize in the worst case.
    let Some(after_meta) = meta_len
        .checked_add(4 + 8)
        .and_then(|hdr| body.len().checked_sub(hdr))
    else {
        return Err(corrupt(format!(
            "record metadata claims {meta_len} bytes but the block carries {}",
            body.len()
        )));
    };
    // ss-lint: allow(panic-freedom) -- `after_meta` above proves the body holds 4 + meta_len + 8 bytes
    let meta = &body[4..4 + meta_len];
    let declared = u64::from_le_bytes(
        body[4 + meta_len..4 + meta_len + 8]
            .try_into()
            .map_err(|_| corrupt("short payload length".into()))?,
    );
    let payload_len = usize::try_from(declared).map_err(|_| StoreError::LengthOverflow {
        field: "record payload length",
        value: declared,
    })?;
    if payload_len != after_meta {
        return Err(corrupt(format!(
            "record payload claims {payload_len} bytes but the block carries {after_meta}"
        )));
    }
    Ok((meta, &body[4 + meta_len + 8..]))
}

// The index serializes with the same shape as `ss_core::ChunkIndex`:
// BitWriter fields (all byte-aligned here — every width is a multiple of
// 8), then a CRC-32 trailer over the body. Field widths:
const COUNT_BITS: u32 = 32;
const OFFSET_BITS: u32 = 64;
const CRC_BITS: u32 = 32;
const NAME_LEN_BITS: u32 = 16;
const BYTE_BITS: u32 = 8;

/// Smallest possible serialized entry (1-byte name), used to bound a
/// hostile entry count before allocating.
const MIN_ENTRY_BYTES: u64 = (OFFSET_BITS as u64 * 2 + CRC_BITS as u64 + NAME_LEN_BITS as u64) / 8
    + 2
    + 1
    + 4
    + 1
    + 1
    + 1
    + 2
    + 8
    + 8; // placement fields + metadata with a 1-byte name

/// Serializes the end-of-file record index.
///
/// # Errors
///
/// [`StoreError::InvalidRecord`] if any entry's metadata fails
/// validation; bit-I/O failures are unreachable for validated entries
/// but surface as [`StoreError::CorruptShard`] rather than panicking.
pub fn index_to_bytes(entries: &[RecordEntry]) -> Result<Vec<u8>, StoreError> {
    let encode_failed = |_| StoreError::CorruptShard {
        shard: "<unwritten>".to_string(),
        reason: "index serialization overflowed the bit writer".to_string(),
    };
    let mut w = BitWriter::new();
    w.write_bits(entries.len() as u64, COUNT_BITS)
        .map_err(encode_failed)?;
    for e in entries {
        e.meta.validate()?;
        w.write_bits(e.block_offset, OFFSET_BITS)
            .map_err(encode_failed)?;
        w.write_bits(e.block_len, OFFSET_BITS)
            .map_err(encode_failed)?;
        w.write_bits(u64::from(e.record_crc), CRC_BITS)
            .map_err(encode_failed)?;
        let meta = e.meta.to_bytes();
        w.write_bits(meta.len() as u64, NAME_LEN_BITS)
            .map_err(encode_failed)?;
        for &b in &meta {
            w.write_bits(u64::from(b), BYTE_BITS)
                .map_err(encode_failed)?;
        }
    }
    // Every field above is a whole number of bytes, so the writer is
    // already aligned; the CRC-32 trailer goes on as raw bytes, exactly
    // like the ChunkIndex serialization.
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    Ok(bytes)
}

/// Deserializes the end-of-file record index, verifying its CRC-32
/// trailer first.
///
/// # Errors
///
/// [`StoreError::CorruptShard`] for a bad CRC, hostile entry counts or
/// any framing inconsistency.
pub fn index_from_bytes(bytes: &[u8], shard: &str) -> Result<Vec<RecordEntry>, StoreError> {
    let corrupt = |reason: String| StoreError::CorruptShard {
        shard: shard.to_string(),
        reason,
    };
    if bytes.len() < 4 + 4 {
        return Err(corrupt(format!(
            "index is {} bytes, too short for its count and CRC",
            bytes.len()
        )));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(
        crc_bytes
            .try_into()
            .map_err(|_| corrupt("short index CRC field".into()))?,
    );
    if crc32(body) != stored {
        return Err(corrupt("index CRC-32 mismatch".into()));
    }
    let mut r = BitReader::new(body);
    let read_failed = |_| StoreError::CorruptShard {
        shard: shard.to_string(),
        reason: "index ends mid-entry".to_string(),
    };
    let count = r.read_bits(COUNT_BITS).map_err(read_failed)?;
    // Bound the count by what the body could physically hold before
    // allocating anything: a CRC-valid-but-hostile count cannot occur,
    // but the check costs nothing and keeps this path panic- and
    // OOM-free even if the trailer were forged to match.
    let max_entries = (body.len() as u64).saturating_sub(4) / MIN_ENTRY_BYTES;
    if count > max_entries {
        return Err(corrupt(format!(
            "index claims {count} entries but its body could hold at most {max_entries}"
        )));
    }
    let count = usize::try_from(count).map_err(|_| StoreError::LengthOverflow {
        field: "index entry count",
        value: count,
    })?;
    let mut entries = Vec::with_capacity(count);
    let mut meta_buf = Vec::new();
    for _ in 0..count {
        let block_offset = r.read_bits(OFFSET_BITS).map_err(read_failed)?;
        let block_len = r.read_bits(OFFSET_BITS).map_err(read_failed)?;
        let record_crc = r.read_bits(CRC_BITS).map_err(read_failed)? as u32;
        let meta_len = r.read_bits(NAME_LEN_BITS).map_err(read_failed)? as usize;
        if meta_len as u64 * 8 > r.remaining_bits() {
            return Err(corrupt(format!(
                "index entry claims {meta_len} metadata bytes past the end of the index"
            )));
        }
        meta_buf.clear();
        for _ in 0..meta_len {
            // ss-lint: allow(truncating-cast) -- read_bits(BYTE_BITS=8) yields a value < 2^8
            meta_buf.push(r.read_bits(BYTE_BITS).map_err(read_failed)? as u8);
        }
        let meta = RecordMeta::from_bytes(&meta_buf, shard)?;
        entries.push(RecordEntry {
            meta,
            block_offset,
            block_len,
            record_crc,
        });
    }
    Ok(entries)
}

/// The canonical file name of shard `shard_no` of `model`:
/// `{model}.{shard_no:05}.ssrd`.
#[must_use]
pub fn shard_file_name(model: &str, shard_no: u16) -> String {
    format!("{model}.{shard_no:05}.ssrd")
}

/// Inverse of [`shard_file_name`]: `Some((model, shard_no))` when `name`
/// is a well-formed shard file name, else `None`.
#[must_use]
pub fn parse_shard_name(name: &str) -> Option<(&str, u16)> {
    let stem = name.strip_suffix(".ssrd")?;
    let (model, no) = stem.rsplit_once('.')?;
    if model.is_empty() || no.len() != 5 || !no.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((model, no.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> RecordMeta {
        let dtype = FixedType::I16;
        RecordMeta {
            name: name.to_string(),
            layer: 3,
            dtype,
            scheme: SchemeId::SHAPESHIFTER,
            group_size: 16,
            fingerprint: codec_fingerprint(SchemeId::SHAPESHIFTER, 16, dtype),
            values: 1000,
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // Same IEEE check value as the ChunkIndex trailer (one shared
        // implementation).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental equals one-shot across arbitrary split points.
        let data: Vec<u8> = (0u16..700).map(|i| (i * 31 % 251) as u8).collect();
        for split in [0, 1, 350, 699, 700] {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), crc32(&data));
        }
    }

    #[test]
    fn meta_roundtrips() {
        let m = meta("conv3.weight");
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.wire_len());
        assert_eq!(RecordMeta::from_bytes(&bytes, "s").unwrap(), m);
    }

    #[test]
    fn meta_rejects_bad_names() {
        assert!(matches!(
            meta("").validate(),
            Err(StoreError::InvalidRecord { .. })
        ));
        assert!(matches!(
            meta(&"x".repeat(MAX_NAME_LEN + 1)).validate(),
            Err(StoreError::InvalidRecord { .. })
        ));
        assert!(meta(&"x".repeat(MAX_NAME_LEN)).validate().is_ok());
    }

    #[test]
    fn record_block_roundtrips_and_detects_flips() {
        let m = meta("fc6.weight");
        let payload = b"not a real container, irrelevant here";
        let (prefix, crc) = encode_record_parts(&m, payload).unwrap();
        let mut block = prefix;
        block.extend_from_slice(payload);
        block.extend_from_slice(&crc.to_le_bytes());
        let (back, body) = parse_record_block(&block, "s", "fc6.weight").unwrap();
        assert_eq!(back, m);
        assert_eq!(body, payload);
        // Every single-bit flip anywhere in the block trips a typed
        // error — the CRC covers prefixes, metadata and payload alike.
        for i in 0..block.len() {
            let mut corrupt = block.clone();
            corrupt[i] ^= 1;
            assert!(
                parse_record_block(&corrupt, "s", "fc6.weight").is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn index_roundtrips_and_detects_flips() {
        let entries = vec![
            RecordEntry {
                meta: meta("conv1.weight"),
                block_offset: 8,
                block_len: 400,
                record_crc: 0xDEAD_BEEF,
            },
            RecordEntry {
                meta: meta("conv2.weight"),
                block_offset: 408,
                block_len: 1000,
                record_crc: 1,
            },
        ];
        let bytes = index_to_bytes(&entries).unwrap();
        assert_eq!(index_from_bytes(&bytes, "s").unwrap(), entries);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                matches!(
                    index_from_bytes(&corrupt, "s"),
                    Err(StoreError::CorruptShard { .. })
                ),
                "flip at byte {i} went undetected"
            );
        }
        assert!(index_from_bytes(&bytes[..bytes.len() - 1], "s").is_err());
        assert!(index_from_bytes(&[], "s").is_err());
    }

    #[test]
    fn header_and_footer_roundtrip() {
        let h = header(7);
        assert_eq!(parse_header(&h, "s").unwrap(), 7);
        assert!(matches!(
            parse_header(b"XXRD\x01\x00\x00\x00", "s"),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            parse_header(b"SSRD\x09\x00\x00\x00", "s"),
            Err(StoreError::UnsupportedVersion { version: 9, .. })
        ));
        let f = footer(12345, 0xABCD_EF01);
        assert_eq!(parse_footer(&f, "s").unwrap(), (12345, 0xABCD_EF01));
        let mut bad = f;
        bad[15] ^= 1;
        assert!(parse_footer(&bad, "s").is_err());
    }

    #[test]
    fn shard_names_roundtrip() {
        assert_eq!(shard_file_name("alexnet", 3), "alexnet.00003.ssrd");
        assert_eq!(parse_shard_name("alexnet.00003.ssrd"), Some(("alexnet", 3)));
        assert_eq!(parse_shard_name("a.b.00021.ssrd"), Some(("a.b", 21)));
        for bad in [
            "alexnet.ssrd",
            "alexnet.3.ssrd",
            ".00003.ssrd",
            "alexnet.00003",
            "x.0000a.ssrd",
        ] {
            assert_eq!(parse_shard_name(bad), None, "{bad} should not parse");
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = codec_fingerprint(SchemeId::SHAPESHIFTER, 16, FixedType::I16);
        assert_eq!(
            a,
            codec_fingerprint(SchemeId::SHAPESHIFTER, 16, FixedType::I16)
        );
        assert_ne!(a, codec_fingerprint(SchemeId::DELTA, 16, FixedType::I16));
        assert_ne!(
            a,
            codec_fingerprint(SchemeId::SHAPESHIFTER, 32, FixedType::I16)
        );
        assert_ne!(
            a,
            codec_fingerprint(SchemeId::SHAPESHIFTER, 16, FixedType::U16)
        );
        // New registry schemes fingerprint through the same recipe.
        assert_ne!(
            codec_fingerprint(SchemeId::DPRED, 16, FixedType::I16),
            codec_fingerprint(SchemeId::ADABITS, 16, FixedType::I16)
        );
        // Unregistered ids still fingerprint (a reader can refuse mixtures
        // even for schemes it cannot decode).
        let _ = codec_fingerprint(SchemeId::new(200), 16, FixedType::I16);
    }

    #[test]
    fn fingerprint_recipe_is_frozen() {
        // The exact pre-registry FNV-1a value: shards written before the
        // registry existed must keep verifying.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in [0u8, 16, 0, 16, 1] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(
            h,
            codec_fingerprint(SchemeId::SHAPESHIFTER, 16, FixedType::I16)
        );
    }
}
