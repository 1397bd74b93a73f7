//! Typed errors for the shard store.
//!
//! Every failure a hostile or damaged shard can provoke — bad magic,
//! checksum mismatches, truncation, framing inconsistencies — surfaces as
//! a [`StoreError`] variant, never a panic: `ModelStore::get` sits on the
//! serving path and is covered by the workspace `panic-freedom` lint.

use std::error::Error;
use std::fmt;

use shapeshifter::container::ContainerError;
use ss_core::CodecError;

/// Errors for shard writing, store opening and record access.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A storage-backend I/O operation failed.
    Io {
        /// What the store was doing (`"create"`, `"read"`, …).
        op: &'static str,
        /// The object or path involved.
        name: String,
        /// The underlying I/O error kind.
        kind: std::io::ErrorKind,
    },
    /// The named object does not exist in the storage backend.
    ObjectNotFound {
        /// The missing object.
        name: String,
    },
    /// An object name is not usable by the backend (empty, path
    /// separators, `..`).
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// A shard does not start with the `SSRD` magic.
    BadMagic {
        /// The shard in question.
        shard: String,
    },
    /// A shard declares an unsupported format version.
    UnsupportedVersion {
        /// The shard in question.
        shard: String,
        /// The declared version.
        version: u8,
    },
    /// A shard's framing is inconsistent: truncated, oversized fields,
    /// index/record disagreement, or a whole-shard checksum mismatch.
    CorruptShard {
        /// The shard in question.
        shard: String,
        /// What was inconsistent.
        reason: String,
    },
    /// A record block's CRC-32 does not match its index entry.
    RecordChecksum {
        /// The shard holding the record.
        shard: String,
        /// The record's name.
        name: String,
    },
    /// A record's metadata is unusable (name too long, empty, duplicate
    /// of an already-appended record).
    InvalidRecord {
        /// What was wrong.
        reason: String,
    },
    /// The same record name appears more than once across the model's
    /// shards.
    DuplicateRecord {
        /// The duplicated name.
        name: String,
    },
    /// No record with this name exists in the store.
    RecordNotFound {
        /// The requested name.
        name: String,
    },
    /// The model has no shards in the storage backend.
    NoShards {
        /// The model prefix that matched nothing.
        model: String,
    },
    /// A declared length is valid framing but does not fit this target's
    /// `usize`.
    LengthOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The declared value.
        value: u64,
    },
    /// The record payload (an SSPK container) failed to parse or decode.
    Container(ContainerError),
    /// A codec-level failure outside container framing.
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, name, kind } => {
                write!(f, "storage {op} on {name:?} failed: {kind}")
            }
            StoreError::ObjectNotFound { name } => write!(f, "object {name:?} not found"),
            StoreError::InvalidName { name } => {
                write!(f, "object name {name:?} is not usable by the backend")
            }
            StoreError::BadMagic { shard } => {
                write!(f, "{shard}: not an SSRD shard (bad magic)")
            }
            StoreError::UnsupportedVersion { shard, version } => {
                write!(f, "{shard}: unsupported shard version {version}")
            }
            StoreError::CorruptShard { shard, reason } => {
                write!(f, "{shard}: corrupt shard: {reason}")
            }
            StoreError::RecordChecksum { shard, name } => {
                write!(f, "{shard}: record {name:?} failed its CRC-32 check")
            }
            StoreError::InvalidRecord { reason } => write!(f, "invalid record: {reason}"),
            StoreError::DuplicateRecord { name } => {
                write!(f, "record {name:?} appears in more than one place")
            }
            StoreError::RecordNotFound { name } => write!(f, "record {name:?} not found"),
            StoreError::NoShards { model } => {
                write!(f, "model {model:?} has no shards in the storage backend")
            }
            StoreError::LengthOverflow { field, value } => {
                write!(
                    f,
                    "{field} declares {value}, which overflows this target's usize"
                )
            }
            StoreError::Container(e) => write!(f, "record payload: {e}"),
            StoreError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Container(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContainerError> for StoreError {
    fn from(e: ContainerError) -> Self {
        StoreError::Container(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl StoreError {
    /// Wraps an I/O error with the operation and object it hit.
    #[must_use]
    pub fn io(op: &'static str, name: &str, e: &std::io::Error) -> Self {
        StoreError::Io {
            op,
            name: name.to_string(),
            kind: e.kind(),
        }
    }
}
