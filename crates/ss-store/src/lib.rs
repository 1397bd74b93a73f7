#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Sharded multi-tensor model store for ShapeShifter-compressed models.
//!
//! A compressed model is hundreds of tensors; shipping each as its own
//! `SSPK` file loses atomicity and wastes per-file overhead, while one
//! giant file forces readers to scan everything to find one tensor. This
//! crate packs many named SSPK containers into numbered **`SSRD`
//! shards** — written in pure streaming fashion, closed with an
//! end-of-file index — and reads them back with O(1) random access:
//!
//! * [`format`](mod@format) — the shard byte layout: header, CRC-32-framed record
//!   blocks, an end-of-file index with a CRC-32 trailer (the
//!   `ss_core::ChunkIndex` idiom), and a fixed-size locating footer, all
//!   read through `ss_core::bytes`' one checked reader.
//! * [`StorageProvider`] — where shards live: [`LocalFsProvider`]
//!   (files under a root) or [`MemoryProvider`] (tests and determinism
//!   gates). Ranged reads are the contract that keeps record access
//!   partial.
//! * [`ShardWriter`] / [`ModelWriter`] — streaming append;
//!   [`ModelWriter::append_tensor`] packs tensors and rotates shards on
//!   a byte budget.
//! * [`ModelStore`] — open (footer + index reads only), [`get`]
//!   (one ranged read, CRC check, lazy decode through a reusable
//!   `CodecSession`), `list`, and `verify` (every checksum in every
//!   shard, recomputed).
//!
//! [`get`]: ModelStore::get
//!
//! # Quick start
//!
//! ```
//! use ss_store::{MemoryProvider, ModelStore, ModelWriter};
//! use ss_tensor::{FixedType, Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let provider = MemoryProvider::new();
//! let mut writer = ModelWriter::new(&provider, "lenet");
//! let t = Tensor::from_vec(Shape::flat(4), FixedType::I16, vec![1, -2, 0, 300])?;
//! writer.append_tensor("conv1.weight", 0, &t)?;
//! writer.finish()?;
//!
//! let mut store = ModelStore::open(&provider, "lenet")?;
//! assert_eq!(store.get("conv1.weight")?, t);
//! store.verify()?;
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod format;
pub mod provider;
pub mod store;
pub mod writer;

pub use error::StoreError;
pub use format::{RecordEntry, RecordMeta};
pub use provider::{LocalFsProvider, MemoryProvider, ShardSink, StorageProvider};
pub use store::{ModelStore, VerifyReport};
pub use writer::{ModelSummary, ModelWriter, ShardSummary, ShardWriter};
