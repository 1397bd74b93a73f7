//! Random-access reading of a sharded model.
//!
//! [`ModelStore::open`] reads only each shard's footer and end-of-file
//! index — a few KiB per shard regardless of shard size — and builds a
//! name → (shard, entry) map. [`get`](ModelStore::get) then issues one
//! ranged read for exactly the requested record's block, checks its
//! CRC-32 against both the block trailer and the index, and decodes the
//! SSPK payload through a reusable [`ss_core::CodecSession`] — O(1)
//! lookups, lazy decode, no full-shard scans. The
//! `store_payload_bytes_read` trace counter is the partial-read receipt:
//! after any number of `get`s it equals the sum of the fetched blocks'
//! lengths, never the shard sizes.

use std::collections::HashMap;

use shapeshifter::container::{self, ContainerError};
use ss_core::{CodecConfig, CodecSession};
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::Counter;

use crate::error::StoreError;
use crate::format::{self, RecordEntry, FOOTER_LEN, HEADER_LEN};
use crate::provider::StorageProvider;

struct ShardState {
    /// Object name in the provider.
    name: String,
    /// Total object size in bytes.
    size: u64,
    /// Whole-shard CRC-32 declared by the footer.
    shard_crc: u32,
    /// Parsed end-of-file index, in block order.
    entries: Vec<RecordEntry>,
}

/// Every shard's parsed index, with the O(1) name lookup over them.
struct Shards {
    /// The shards, in shard-number order.
    list: Vec<ShardState>,
    /// name → (shard index, entry index).
    lookup: HashMap<String, (usize, usize)>,
}

/// What [`ModelStore::verify`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Shards whose whole-file CRC-32 was recomputed and matched.
    pub shards: usize,
    /// Records whose block CRC-32 was recomputed and matched.
    pub records: usize,
    /// Total bytes read and checksummed.
    pub bytes: u64,
}

/// A read-only view of one model's shards with O(1) access by record
/// name.
pub struct ModelStore<'a> {
    provider: &'a dyn StorageProvider,
    model: String,
    shards: Shards,
    session: CodecSession,
    block_buf: Vec<u8>,
}

impl<'a> ModelStore<'a> {
    /// Opens `model` in `provider`: discovers its shards, parses every
    /// end-of-file index (footer + index reads only — record payloads
    /// stay untouched) and builds the lookup table.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoShards`] if no shard of `model` exists;
    /// [`StoreError::CorruptShard`] / [`StoreError::BadMagic`] /
    /// [`StoreError::UnsupportedVersion`] for damaged shards;
    /// [`StoreError::DuplicateRecord`] if two shards claim one name.
    pub fn open(provider: &'a dyn StorageProvider, model: &str) -> Result<Self, StoreError> {
        let mut shard_names: Vec<(u16, String)> = provider
            .list()?
            .into_iter()
            .filter_map(|object| {
                format::parse_shard_name(&object)
                    .filter(|(m, _)| *m == model)
                    .map(|(_, no)| (no, object.clone()))
            })
            .collect();
        shard_names.sort_unstable();
        if shard_names.is_empty() {
            return Err(StoreError::NoShards {
                model: model.to_string(),
            });
        }
        let mut shards = Vec::with_capacity(shard_names.len());
        // ss-lint: allow(determinism) -- lookup is keyed access only; serialized orderings come from names() (sorted) and list() (shard/block order), never from map iteration
        let mut lookup = HashMap::new();
        let mut buf = Vec::new();
        for (expected_no, name) in &shard_names {
            let size = provider.size(name)?;
            let min = (HEADER_LEN + FOOTER_LEN) as u64;
            if size < min {
                return Err(StoreError::CorruptShard {
                    shard: name.clone(),
                    reason: format!("shard is {size} bytes, the framing alone needs {min}"),
                });
            }
            provider.read_range(name, 0, HEADER_LEN, &mut buf)?;
            let declared_no = format::parse_header(&buf, name)?;
            if declared_no != *expected_no {
                return Err(StoreError::CorruptShard {
                    shard: name.clone(),
                    reason: format!(
                        "file name says shard {expected_no} but the header says {declared_no}"
                    ),
                });
            }
            provider.read_range(name, size - FOOTER_LEN as u64, FOOTER_LEN, &mut buf)?;
            let (index_len, shard_crc) = format::parse_footer(&buf, name)?;
            let body = size - min;
            if index_len > body {
                return Err(StoreError::CorruptShard {
                    shard: name.clone(),
                    reason: format!(
                        "index claims {index_len} bytes but the shard carries {body} \
                         between header and footer"
                    ),
                });
            }
            let index_bytes =
                usize::try_from(index_len).map_err(|_| StoreError::LengthOverflow {
                    field: "index length",
                    value: index_len,
                })?;
            let index_off = size - FOOTER_LEN as u64 - index_len;
            provider.read_range(name, index_off, index_bytes, &mut buf)?;
            let entries = format::index_from_bytes(&buf, name)?;
            let shard_idx = shards.len();
            for (entry_idx, e) in entries.iter().enumerate() {
                // Placement must stay inside the record region — a
                // forged offset must not alias the index or footer.
                let end = e.block_offset.checked_add(e.block_len);
                if e.block_offset < HEADER_LEN as u64 || end.is_none_or(|end| end > index_off) {
                    return Err(StoreError::CorruptShard {
                        shard: name.clone(),
                        reason: format!(
                            "record {:?} claims bytes {}+{} outside the record region",
                            e.meta.name, e.block_offset, e.block_len
                        ),
                    });
                }
                if lookup
                    .insert(e.meta.name.clone(), (shard_idx, entry_idx))
                    .is_some()
                {
                    return Err(StoreError::DuplicateRecord {
                        name: e.meta.name.clone(),
                    });
                }
            }
            shards.push(ShardState {
                name: name.clone(),
                size,
                shard_crc,
                entries,
            });
            if let Some(rec) = ss_trace::installed() {
                rec.add(Counter::StoreShardsOpened, 1);
            }
        }
        Ok(ModelStore {
            provider,
            model: model.to_string(),
            shards: Shards {
                list: shards,
                lookup,
            },
            session: CodecSession::new(CodecConfig::new())?,
            block_buf: Vec::new(),
        })
    }

    /// The model name this store serves.
    #[must_use]
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Number of records across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.lookup.len()
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.lookup.is_empty()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.list.len()
    }

    /// Every record's index entry, in shard then block order.
    #[must_use]
    pub fn list(&self) -> Vec<&RecordEntry> {
        self.shards
            .list
            .iter()
            .flat_map(|s| s.entries.iter())
            .collect()
    }

    /// All record names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.shards.lookup.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The index entry for `name`, if present (O(1)).
    #[must_use]
    pub fn entry(&self, name: &str) -> Option<&RecordEntry> {
        self.shards.locate(name).map(|(_, entry)| entry)
    }

    /// Decodes record `name` into a fresh tensor: a copy of what
    /// [`get_values`](Self::get_values) lends out.
    ///
    /// # Errors
    ///
    /// As [`get_values`](Self::get_values).
    pub fn get(&mut self, name: &str) -> Result<Tensor, StoreError> {
        let (dtype, values) = self.get_values(name)?;
        Tensor::from_vec(Shape::flat(values.len()), dtype, values.to_vec())
            .map_err(|e| ContainerError::from(e).into())
    }

    /// Decodes record `name` into the store's value scratch and lends the
    /// values out with their container type; they form a flat tensor of
    /// `values.len()` elements.
    ///
    /// One ranged read of the record's block; nothing else of the shard
    /// is touched or decoded. No tensor is built: once the scratch has
    /// grown to the largest record decoded, a `get_values` from a
    /// [`MemoryProvider`](crate::MemoryProvider) allocates nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::RecordNotFound`], checksum and corruption variants,
    /// or a decode failure from the payload codec.
    pub fn get_values(&mut self, name: &str) -> Result<(FixedType, &[i32]), StoreError> {
        let (entry, shard, payload) =
            self.shards
                .fetch(self.provider, name, &mut self.block_buf)?;
        let (dtype, values) = container::unpack_values(payload, &mut self.session)?;
        if values.len() as u64 != entry.meta.values {
            return Err(StoreError::CorruptShard {
                shard: shard.to_string(),
                reason: format!(
                    "record {name:?} decoded to {} values, metadata says {}",
                    values.len(),
                    entry.meta.values
                ),
            });
        }
        if let Some(rec) = ss_trace::installed() {
            rec.add(Counter::StoreRecordsDecoded, 1);
        }
        Ok((dtype, values))
    }

    /// Returns record `name`'s raw SSPK container bytes without
    /// decoding them (still CRC-checked).
    ///
    /// # Errors
    ///
    /// As [`get`](Self::get), minus decode failures.
    pub fn get_raw(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        let (_, _, payload) = self
            .shards
            .fetch(self.provider, name, &mut self.block_buf)?;
        Ok(payload.to_vec())
    }

    /// Recomputes every checksum in every shard: each whole-shard
    /// CRC-32 against its footer, each record block's CRC-32 against
    /// both its trailer and the index, each block's metadata against the
    /// index copy, and that all records share one codec fingerprint.
    ///
    /// # Errors
    ///
    /// The first mismatch found, as a typed error.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport {
            shards: 0,
            records: 0,
            bytes: 0,
        };
        let mut fingerprint: Option<u64> = None;
        for shard in &self.shards.list {
            shard.read_checked(self.provider, &mut self.block_buf)?;
            report.bytes += shard.size;
            for entry in &shard.entries {
                let block = shard.block(&self.block_buf, entry)?;
                format::record_payload(block, &shard.name, entry)?;
                let meta = &entry.meta;
                match fingerprint {
                    None => fingerprint = Some(meta.fingerprint),
                    Some(fp) if fp != meta.fingerprint => {
                        return Err(StoreError::InvalidRecord {
                            reason: format!(
                                "record {:?} was packed under a different codec \
                                 configuration than the rest of the model",
                                meta.name
                            ),
                        });
                    }
                    Some(_) => {}
                }
                report.records += 1;
            }
            report.shards += 1;
        }
        Ok(report)
    }
}

impl ShardState {
    /// Reads the shard up to its footer into `buf` and checks it against
    /// the whole-shard CRC-32 the footer declares.
    fn read_checked(
        &self,
        provider: &dyn StorageProvider,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let covered = usize::try_from(self.size - FOOTER_LEN as u64).map_err(|_| {
            StoreError::LengthOverflow {
                field: "shard size",
                value: self.size,
            }
        })?;
        provider.read_range(&self.name, 0, covered, buf)?;
        if format::crc32(buf) != self.shard_crc {
            return Err(StoreError::CorruptShard {
                shard: self.name.clone(),
                reason: "whole-shard CRC-32 mismatch".to_string(),
            });
        }
        Ok(())
    }

    /// `entry`'s record block within `covered`, the shard's bytes up to
    /// its footer.
    fn block<'b>(&self, covered: &'b [u8], entry: &RecordEntry) -> Result<&'b [u8], StoreError> {
        let start =
            usize::try_from(entry.block_offset).map_err(|_| StoreError::LengthOverflow {
                field: "record offset",
                value: entry.block_offset,
            })?;
        let len = usize::try_from(entry.block_len).map_err(|_| StoreError::LengthOverflow {
            field: "record block length",
            value: entry.block_len,
        })?;
        // Placement was bounds-checked at open; slice within the covered
        // region.
        covered
            .get(start..start + len)
            .ok_or_else(|| StoreError::CorruptShard {
                shard: self.name.clone(),
                reason: format!(
                    "record {:?} claims bytes outside the shard",
                    entry.meta.name
                ),
            })
    }
}

impl Shards {
    /// The shard holding record `name` and its index entry.
    fn locate(&self, name: &str) -> Option<(&ShardState, &RecordEntry)> {
        let &(s, e) = self.lookup.get(name)?;
        let shard = self.list.get(s)?;
        Some((shard, shard.entries.get(e)?))
    }

    /// Reads record `name`'s block into `buf` with one ranged read of its
    /// shard and checks it against its index entry
    /// ([`format::record_payload`]): the one block check behind every
    /// record read. Returns the entry, the shard's name and the payload.
    fn fetch<'s>(
        &'s self,
        provider: &dyn StorageProvider,
        name: &str,
        buf: &'s mut Vec<u8>,
    ) -> Result<(&'s RecordEntry, &'s str, &'s [u8]), StoreError> {
        let (shard, entry) = self
            .locate(name)
            .ok_or_else(|| StoreError::RecordNotFound {
                name: name.to_string(),
            })?;
        let len = usize::try_from(entry.block_len).map_err(|_| StoreError::LengthOverflow {
            field: "record block length",
            value: entry.block_len,
        })?;
        provider.read_range(&shard.name, entry.block_offset, len, buf)?;
        if let Some(rec) = ss_trace::installed() {
            rec.add(Counter::StorePayloadBytesRead, entry.block_len);
        }
        let payload = format::record_payload(buf, &shard.name, entry)?;
        Ok((entry, &shard.name, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::MemoryProvider;
    use crate::writer::ModelWriter;
    use ss_tensor::{FixedType, Shape};

    fn tensor(seed: i32, len: usize) -> Tensor {
        let vals = (0..len as i32).map(|i| (i * seed) % 900 - 450).collect();
        Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).unwrap()
    }

    fn small_model(p: &MemoryProvider) -> Vec<(String, Tensor)> {
        let mut w = ModelWriter::new(p, "m").with_shard_bytes(3_000);
        let tensors: Vec<(String, Tensor)> = (0..5)
            .map(|i| (format!("layer{i}.weight"), tensor(i + 7, 1500)))
            .collect();
        for (i, (name, t)) in tensors.iter().enumerate() {
            w.append_tensor(name, i as u32, t).unwrap();
        }
        assert!(w.finish().unwrap().shards.len() > 1);
        tensors
    }

    #[test]
    fn open_get_list_verify() {
        let p = MemoryProvider::new();
        let tensors = small_model(&p);
        let mut store = ModelStore::open(&p, "m").unwrap();
        assert_eq!(store.len(), 5);
        assert!(!store.is_empty());
        assert!(store.shard_count() > 1);
        assert_eq!(store.list().len(), 5);
        assert_eq!(
            store.names(),
            tensors.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        // Out-of-order random access, twice each.
        for (name, t) in tensors.iter().rev().chain(tensors.iter()) {
            assert_eq!(&store.get(name).unwrap(), t);
        }
        assert!(matches!(
            store.get("absent"),
            Err(StoreError::RecordNotFound { .. })
        ));
        let report = store.verify().unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(report.shards, store.shard_count());
        // Raw bytes are a valid SSPK container for the same tensor.
        let raw = store.get_raw("layer2.weight").unwrap();
        assert_eq!(&container::unpack(&raw).unwrap(), &tensors[2].1);
    }

    #[test]
    fn missing_model_is_no_shards() {
        let p = MemoryProvider::new();
        assert!(matches!(
            ModelStore::open(&p, "nothing"),
            Err(StoreError::NoShards { .. })
        ));
    }

    #[test]
    fn models_are_namespaced_by_prefix() {
        let p = MemoryProvider::new();
        small_model(&p);
        let mut other = ModelWriter::new(&p, "m2");
        other.append_tensor("only", 0, &tensor(3, 64)).unwrap();
        other.finish().unwrap();
        let store = ModelStore::open(&p, "m2").unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(ModelStore::open(&p, "m").unwrap().len(), 5);
    }
}
