//! Streaming shard writers.
//!
//! [`ShardWriter`] owns one shard file: records stream straight to the
//! [`ShardSink`] as they are appended (the whole-shard CRC folds in as
//! bytes pass), and only the index is buffered, serialized and appended
//! at [`finish`](ShardWriter::finish). [`ModelWriter`] sits above it:
//! it packs tensors into SSPK containers, rotates to a new numbered
//! shard when the current one crosses its byte budget, and enforces
//! model-wide record-name uniqueness.

use std::collections::BTreeSet;

use shapeshifter::container;
use shapeshifter::SchemeId;
use ss_core::IndexPolicy;
use ss_tensor::Tensor;
use ss_trace::Counter;

use crate::error::StoreError;
use crate::format::{
    self, codec_fingerprint, Crc32, RecordEntry, RecordMeta, FOOTER_LEN, HEADER_LEN,
};
use crate::provider::{ShardSink, StorageProvider};

/// Default shard rotation budget: a new shard starts once the current
/// one holds at least this many bytes of record blocks. Small enough
/// that a zoo model spans several shards (exercising multi-shard
/// lookup), large enough that per-shard overhead stays negligible.
pub const DEFAULT_SHARD_BYTES: u64 = 4 << 20;

/// What one finished shard held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// The shard's object name in the provider.
    pub name: String,
    /// The shard number.
    pub shard_no: u16,
    /// Records written.
    pub records: usize,
    /// Total file size in bytes, footer included.
    pub bytes: u64,
}

/// Writes one shard: header up front, records streamed through, index
/// and footer appended at close.
pub struct ShardWriter {
    sink: Box<dyn ShardSink>,
    name: String,
    shard_no: u16,
    entries: Vec<RecordEntry>,
    names: BTreeSet<String>,
    offset: u64,
    crc: Crc32,
}

impl ShardWriter {
    /// Opens shard `shard_no` of `model` for writing in `provider`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::InvalidName`] from the
    /// provider.
    pub fn new(
        provider: &dyn StorageProvider,
        model: &str,
        shard_no: u16,
    ) -> Result<Self, StoreError> {
        let name = format::shard_file_name(model, shard_no);
        let mut sink = provider.create(&name)?;
        let header = format::header(shard_no);
        sink.write_all(&header)?;
        let mut crc = Crc32::new();
        crc.update(&header);
        Ok(ShardWriter {
            sink,
            name,
            shard_no,
            entries: Vec::new(),
            names: BTreeSet::new(),
            offset: HEADER_LEN as u64,
            crc,
        })
    }

    /// Appends one record: an SSPK container blob plus its metadata.
    ///
    /// The payload streams to the sink immediately; nothing of it is
    /// buffered beyond the index entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidRecord`] for bad metadata,
    /// [`StoreError::DuplicateRecord`] for a name this shard already
    /// holds, [`StoreError::Io`] from the sink.
    pub fn append(&mut self, meta: RecordMeta, payload: &[u8]) -> Result<(), StoreError> {
        if self.names.contains(&meta.name) {
            return Err(StoreError::DuplicateRecord { name: meta.name });
        }
        let (prefix, record_crc) = format::encode_record_parts(&meta, payload)?;
        self.sink.write_all(&prefix)?;
        self.sink.write_all(payload)?;
        let crc_le = record_crc.to_le_bytes();
        self.sink.write_all(&crc_le)?;
        self.crc.update(&prefix);
        self.crc.update(payload);
        self.crc.update(&crc_le);
        let block_len = (prefix.len() + payload.len() + 4) as u64;
        self.names.insert(meta.name.clone());
        self.entries.push(RecordEntry {
            meta,
            block_offset: self.offset,
            block_len,
            record_crc,
        });
        self.offset += block_len;
        if let Some(rec) = ss_trace::installed() {
            rec.add(Counter::StoreRecordsAppended, 1);
        }
        Ok(())
    }

    /// Record-block bytes written so far (header excluded) — what the
    /// rotation budget is measured against.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.offset - HEADER_LEN as u64
    }

    /// Records appended so far.
    #[must_use]
    pub fn records(&self) -> usize {
        self.entries.len()
    }

    /// Serializes the index, writes the footer and publishes the shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from the sink.
    pub fn finish(mut self) -> Result<ShardSummary, StoreError> {
        let index = format::index_to_bytes(&self.entries)?;
        self.sink.write_all(&index)?;
        self.crc.update(&index);
        let footer = format::footer(index.len() as u64, self.crc.finish());
        self.sink.write_all(&footer)?;
        self.sink.finish()?;
        if let Some(rec) = ss_trace::installed() {
            rec.add(Counter::StoreShardsFinished, 1);
        }
        Ok(ShardSummary {
            name: self.name,
            shard_no: self.shard_no,
            records: self.entries.len(),
            bytes: self.offset + index.len() as u64 + FOOTER_LEN as u64,
        })
    }
}

/// What a finished multi-shard model came to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSummary {
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Total records across all shards.
    pub records: usize,
    /// Total bytes across all shard files.
    pub bytes: u64,
}

/// Packs a model's tensors into numbered shards.
///
/// Tensors are SSPK-packed with one codec configuration (so every
/// record carries the same [`codec_fingerprint`]); shards rotate when
/// the current one crosses the byte budget.
pub struct ModelWriter<'a> {
    provider: &'a dyn StorageProvider,
    model: String,
    scheme: SchemeId,
    group_size: u16,
    shard_bytes: u64,
    shard: Option<ShardWriter>,
    next_shard: u16,
    names: BTreeSet<String>,
    finished: Vec<ShardSummary>,
}

impl<'a> ModelWriter<'a> {
    /// A writer for `model` in `provider`, packing with the
    /// ShapeShifter codec at the paper's default group size of 16.
    pub fn new(provider: &'a dyn StorageProvider, model: &str) -> Self {
        ModelWriter {
            provider,
            model: model.to_string(),
            scheme: SchemeId::SHAPESHIFTER,
            group_size: 16,
            shard_bytes: DEFAULT_SHARD_BYTES,
            shard: None,
            next_shard: 0,
            names: BTreeSet::new(),
            finished: Vec::new(),
        }
    }

    /// Overrides the container scheme records are packed with. Accepts
    /// any [`SchemeId`]; unregistered ids surface as a typed error at
    /// append time.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256 (as the codec does).
    #[must_use]
    pub fn with_scheme(mut self, scheme: impl Into<SchemeId>, group_size: u16) -> Self {
        assert!(
            group_size > 0 && group_size <= 256,
            "group size {group_size} outside 1..=256"
        );
        self.scheme = scheme.into();
        self.group_size = group_size;
        self
    }

    /// Overrides the shard rotation budget (minimum one record per
    /// shard regardless of size).
    #[must_use]
    pub fn with_shard_bytes(mut self, bytes: u64) -> Self {
        self.shard_bytes = bytes.max(1);
        self
    }

    /// Packs `tensor` as an SSPK container and appends it as record
    /// `name` of layer `layer`, rotating shards as needed.
    ///
    /// # Errors
    ///
    /// [`StoreError::DuplicateRecord`] if `name` was already appended to
    /// this model; packing and I/O errors otherwise.
    pub fn append_tensor(
        &mut self,
        name: &str,
        layer: u32,
        tensor: &Tensor,
    ) -> Result<(), StoreError> {
        if self.names.contains(name) {
            return Err(StoreError::DuplicateRecord {
                name: name.to_string(),
            });
        }
        let payload = container::pack_with_policy(
            tensor,
            usize::from(self.group_size),
            self.scheme,
            IndexPolicy::Auto,
        )?;
        let meta = RecordMeta {
            name: name.to_string(),
            layer,
            dtype: tensor.dtype(),
            scheme: self.scheme,
            group_size: self.group_size,
            fingerprint: codec_fingerprint(self.scheme, self.group_size, tensor.dtype()),
            values: tensor.len() as u64,
        };
        // Rotate before the append so a shard never exceeds its budget
        // by more than one record, and never rotates while empty.
        if let Some(w) = &self.shard {
            if w.records() > 0 && w.bytes_written() >= self.shard_bytes {
                self.rotate()?;
            }
        }
        if self.shard.is_none() {
            self.shard = Some(ShardWriter::new(
                self.provider,
                &self.model,
                self.next_shard,
            )?);
            self.next_shard += 1;
        }
        let Some(w) = self.shard.as_mut() else {
            // Unreachable: the branch above just installed a writer.
            return Err(StoreError::InvalidRecord {
                reason: "no open shard".to_string(),
            });
        };
        w.append(meta, &payload)?;
        self.names.insert(name.to_string());
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        if let Some(w) = self.shard.take() {
            self.finished.push(w.finish()?);
        }
        Ok(())
    }

    /// Closes the open shard and returns what was written.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoShards`] if nothing was ever appended;
    /// [`StoreError::Io`] from closing the last shard.
    pub fn finish(mut self) -> Result<ModelSummary, StoreError> {
        self.rotate()?;
        if self.finished.is_empty() {
            return Err(StoreError::NoShards { model: self.model });
        }
        Ok(ModelSummary {
            records: self.finished.iter().map(|s| s.records).sum(),
            bytes: self.finished.iter().map(|s| s.bytes).sum(),
            shards: self.finished,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::MemoryProvider;
    use ss_tensor::{FixedType, Shape};

    fn tensor(seed: i32, len: usize) -> Tensor {
        let vals = (0..len as i32).map(|i| (i * seed) % 1000 - 500).collect();
        Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn writer_rotates_on_budget() {
        let p = MemoryProvider::new();
        let mut w = ModelWriter::new(&p, "m").with_shard_bytes(2_000);
        for i in 0..6 {
            w.append_tensor(&format!("t{i}"), i, &tensor(i as i32 + 3, 2000))
                .unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.records, 6);
        assert!(summary.shards.len() > 1, "budget should force rotation");
        assert_eq!(
            summary
                .shards
                .iter()
                .map(|s| s.shard_no)
                .collect::<Vec<_>>(),
            (0..summary.shards.len() as u16).collect::<Vec<_>>()
        );
        assert_eq!(p.list().unwrap().len(), summary.shards.len());
    }

    #[test]
    fn duplicate_names_are_rejected_across_shards() {
        let p = MemoryProvider::new();
        let mut w = ModelWriter::new(&p, "m").with_shard_bytes(1);
        w.append_tensor("same", 0, &tensor(1, 64)).unwrap();
        // The budget of 1 byte forces a rotation between the appends, so
        // the duplicate lands in a *different* shard — still rejected.
        assert!(matches!(
            w.append_tensor("same", 1, &tensor(2, 64)),
            Err(StoreError::DuplicateRecord { .. })
        ));
    }

    #[test]
    fn empty_model_is_an_error() {
        let p = MemoryProvider::new();
        assert!(matches!(
            ModelWriter::new(&p, "m").finish(),
            Err(StoreError::NoShards { .. })
        ));
    }
}
