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
//! The **index** is a table of every record's metadata plus its block
//! offset, length and CRC ([`index_to_bytes`]) — the same
//! fields-then-CRC-32-trailer idiom as `ss_core::ChunkIndex`, so index
//! corruption is detected independently of the records it describes.
//! The index sits at the *end* of the file (located via the fixed-size
//! footer) so a shard is written in pure streaming fashion: records go
//! straight to the sink, only the index is buffered and appended at
//! close.
//!
//! Three checksums, three failure domains: a record CRC localizes damage
//! to one tensor (the rest of the shard stays readable), the index CRC
//! protects the lookup table, and the whole-shard CRC gives `verify()` a
//! single end-to-end answer.

use shapeshifter::SchemeId;
use ss_core::bytes::{ByteReader, ShortInput};
use ss_core::checksum;
use ss_tensor::FixedType;

use crate::error::StoreError;

// The workspace's one CRC-32 lives in ss-core beside the chunk index it
// also guards; it is re-exported for code that names it through the shard
// format.
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

/// Serialized metadata bytes besides the name and its length prefix:
/// layer, bits, signedness, scheme, group size, fingerprint and value
/// count.
const META_FIXED_LEN: usize = 4 + 1 + 1 + 1 + 2 + 8 + 8;

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
        2 + self.name.len() + META_FIXED_LEN
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
        let short = |e: ShortInput| corrupt(format!("record metadata {e}"));
        let mut r = ByteReader::new(bytes);
        let name_len = usize::from(r.u16().map_err(short)?);
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(corrupt(format!(
                "record name length {name_len} outside 1..={MAX_NAME_LEN}"
            )));
        }
        if bytes.len() != 2 + name_len + META_FIXED_LEN {
            return Err(corrupt(format!(
                "record metadata is {} bytes, framing says {}",
                bytes.len(),
                2 + name_len + META_FIXED_LEN
            )));
        }
        let name = std::str::from_utf8(r.bytes(name_len).map_err(short)?)
            .map_err(|_| corrupt("record name is not UTF-8".into()))?
            .to_string();
        let layer = r.u32().map_err(short)?;
        let [bits, signed, scheme] = r.take().map_err(short)?;
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
        let group_size = r.u16().map_err(short)?;
        if group_size == 0 || group_size > 256 {
            return Err(corrupt(format!(
                "record group size {group_size} outside 1..=256"
            )));
        }
        Ok(RecordMeta {
            name,
            layer,
            dtype,
            scheme: SchemeId::new(scheme),
            group_size,
            fingerprint: r.u64().map_err(short)?,
            values: r.u64().map_err(short)?,
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
    let [m0, m1, m2, m3] = MAGIC;
    let [n0, n1] = shard_no.to_le_bytes();
    [m0, m1, m2, m3, VERSION, 0, n0, n1]
}

/// Parses and validates a shard header, returning the shard number.
///
/// # Errors
///
/// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`] or
/// [`StoreError::CorruptShard`] for a short header.
pub fn parse_header(bytes: &[u8], shard: &str) -> Result<u16, StoreError> {
    let short = |e: ShortInput| StoreError::CorruptShard {
        shard: shard.to_string(),
        reason: format!("file is {} bytes, header needs {HEADER_LEN}", e.have),
    };
    // Every field is read before any is judged: a short header is
    // refused as such, whatever its first bytes hold.
    let mut r = ByteReader::new(bytes);
    let magic: [u8; 4] = r.take().map_err(short)?;
    let [version, _reserved] = r.take().map_err(short)?;
    let shard_no = r.u16().map_err(short)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic {
            shard: shard.to_string(),
        });
    }
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            shard: shard.to_string(),
            version,
        });
    }
    Ok(shard_no)
}

/// The 16-byte shard footer.
#[must_use]
pub fn footer(index_len: u64, shard_crc: u32) -> [u8; FOOTER_LEN] {
    let [l0, l1, l2, l3, l4, l5, l6, l7] = index_len.to_le_bytes();
    let [c0, c1, c2, c3] = shard_crc.to_le_bytes();
    let [t0, t1, t2, t3] = TAIL_MAGIC;
    [
        l0, l1, l2, l3, l4, l5, l6, l7, c0, c1, c2, c3, t0, t1, t2, t3,
    ]
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
    let short = |e: ShortInput| corrupt(format!("footer {e}"));
    let mut r = ByteReader::new(tail);
    let index_len = r.u64().map_err(short)?;
    let shard_crc = r.u32().map_err(short)?;
    if r.take().map_err(short)? != TAIL_MAGIC {
        return Err(corrupt(
            "tail magic missing — shard truncated or overwritten".into(),
        ));
    }
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

/// Checks one record block against its index entry and returns a
/// borrowed view of its payload, allocating nothing on success: the one
/// block check behind a store's `get`, `get_raw` and `verify`.
///
/// In order: the block's CRC-32 trailer must be the index's copy
/// (otherwise index and block were written for different data); the
/// trailer must match every byte it covers, so any single-bit flip inside
/// the block (metadata, payload or length prefixes) surfaces before the
/// damaged bytes are interpreted; the length framing must hold; and the
/// block's metadata must be byte for byte the index's copy.
///
/// # Errors
///
/// [`StoreError::RecordChecksum`] when either CRC check fails,
/// [`StoreError::CorruptShard`] on framing inconsistencies or metadata
/// that disagrees with the index, [`StoreError::LengthOverflow`] for a
/// length this target's `usize` cannot hold.
pub(crate) fn record_payload<'a>(
    block: &'a [u8],
    shard: &str,
    entry: &RecordEntry,
) -> Result<&'a [u8], StoreError> {
    let name = &entry.meta.name;
    let checksum_failed = || StoreError::RecordChecksum {
        shard: shard.to_string(),
        name: name.clone(),
    };
    if checksum::split_trailer(block).is_ok_and(|(_, stored)| stored != entry.record_crc) {
        return Err(checksum_failed());
    }
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
    let body = checksum::checked_body(block).map_err(|_| checksum_failed())?;
    let mut r = ByteReader::new(body);
    let overrun = |_| {
        corrupt(format!(
            "record metadata overruns the block's {} bytes",
            body.len()
        ))
    };
    let meta_len = r.u32().map_err(overrun)?;
    let meta_len = usize::try_from(meta_len).map_err(|_| StoreError::LengthOverflow {
        field: "record metadata length",
        value: u64::from(meta_len),
    })?;
    let meta = r.bytes(meta_len).map_err(overrun)?;
    let declared = r.u64().map_err(overrun)?;
    let payload_len = usize::try_from(declared).map_err(|_| StoreError::LengthOverflow {
        field: "record payload length",
        value: declared,
    })?;
    let payload = r.rest();
    if payload_len != payload.len() {
        return Err(corrupt(format!(
            "record payload claims {payload_len} bytes but the block carries {}",
            payload.len()
        )));
    }
    if !entry.meta.is_encoded_by(meta) {
        return Err(corrupt(format!(
            "record {name:?}: block metadata disagrees with the index"
        )));
    }
    Ok(payload)
}

/// Smallest possible serialized index entry (placement fields and
/// metadata with a 1-byte name), used to bound a hostile entry count
/// before allocating.
const MIN_ENTRY_BYTES: u64 = (8 + 8 + 4 + 2 + 2 + 1 + META_FIXED_LEN) as u64;

/// Serializes the end-of-file record index: the entry count (u32 LE);
/// per entry its block offset and length (u64 LE each), record CRC (u32
/// LE), metadata length (u16 LE) and metadata; then a CRC-32 trailer over
/// all of it, the same fields-then-trailer shape as `ss_core::ChunkIndex`.
///
/// # Errors
///
/// [`StoreError::InvalidRecord`] if any entry's metadata fails
/// validation; a count or length that overflows its field is a
/// [`StoreError::CorruptShard`] (unreachable for validated entries).
pub fn index_to_bytes(entries: &[RecordEntry]) -> Result<Vec<u8>, StoreError> {
    let overflow = |_| StoreError::CorruptShard {
        shard: "<unwritten>".to_string(),
        reason: "index field overflow".to_string(),
    };
    let mut bytes = u32::try_from(entries.len())
        .map_err(overflow)?
        .to_le_bytes()
        .to_vec();
    for e in entries {
        e.meta.validate()?;
        let meta_len = u16::try_from(e.meta.wire_len()).map_err(overflow)?;
        bytes.extend_from_slice(&e.block_offset.to_le_bytes());
        bytes.extend_from_slice(&e.block_len.to_le_bytes());
        bytes.extend_from_slice(&e.record_crc.to_le_bytes());
        bytes.extend_from_slice(&meta_len.to_le_bytes());
        e.meta.emit_fields(|field| bytes.extend_from_slice(field));
    }
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
    let body = checksum::checked_body(bytes).map_err(|e| corrupt(format!("index: {e}")))?;
    let mut r = ByteReader::new(body);
    let ends = |_| corrupt("index ends mid-entry".to_string());
    let count = u64::from(r.u32().map_err(ends)?);
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
    for _ in 0..count {
        let block_offset = r.u64().map_err(ends)?;
        let block_len = r.u64().map_err(ends)?;
        let record_crc = r.u32().map_err(ends)?;
        let meta_len = usize::from(r.u16().map_err(ends)?);
        let Ok(meta) = r.bytes(meta_len) else {
            return Err(corrupt(format!(
                "index entry claims {meta_len} metadata bytes past the end of the index"
            )));
        };
        entries.push(RecordEntry {
            meta: RecordMeta::from_bytes(meta, shard)?,
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
        let entry = RecordEntry {
            meta: m,
            block_offset: HEADER_LEN as u64,
            block_len: block.len() as u64,
            record_crc: crc,
        };
        assert_eq!(record_payload(&block, "s", &entry).unwrap(), payload);
        // Every single-bit flip anywhere in the block trips a typed
        // error — the CRC covers prefixes, metadata and payload alike.
        for i in 0..block.len() {
            let mut corrupt = block.clone();
            corrupt[i] ^= 1;
            assert!(
                record_payload(&corrupt, "s", &entry).is_err(),
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
    fn index_bytes_are_the_bit_writer_layout() {
        // The index was once written field by field through a BitWriter
        // (LSB-first, every field byte-aligned); its bytes must not move.
        let entries = vec![
            RecordEntry {
                meta: meta("conv1.weight"),
                block_offset: 8,
                block_len: 0x0102_0304_0506,
                record_crc: 0xDEAD_BEEF,
            },
            RecordEntry {
                meta: meta("fc"),
                block_offset: u64::MAX,
                block_len: 1,
                record_crc: 7,
            },
        ];
        let mut w = ss_bitio::BitWriter::new();
        w.write_bits(entries.len() as u64, 32).unwrap();
        for e in &entries {
            w.write_bits(e.block_offset, 64).unwrap();
            w.write_bits(e.block_len, 64).unwrap();
            w.write_bits(u64::from(e.record_crc), 32).unwrap();
            let m = e.meta.to_bytes();
            w.write_bits(m.len() as u64, 16).unwrap();
            for &b in &m {
                w.write_bits(u64::from(b), 8).unwrap();
            }
        }
        let mut want = w.into_bytes();
        want.extend_from_slice(&crc32(&want).to_le_bytes());
        assert_eq!(index_to_bytes(&entries).unwrap(), want);
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
