// ss-lint: allow-file(concurrency-containment) -- MemoryProvider's object
// map needs interior mutability behind the &self provider trait; one Mutex
// around a BTreeMap, held only for whole-object insert/copy, no nesting.

//! Storage backends for shard files.
//!
//! [`StorageProvider`] abstracts where shards live: [`LocalFsProvider`]
//! maps object names to files under a root directory, [`MemoryProvider`]
//! keeps them in a map (tests, benches, and the determinism gates, which
//! must not touch the filesystem). Writers stream through a
//! [`ShardSink`]; readers use ranged reads, which is what makes
//! `ModelStore::get` touch only the requested record's bytes plus the
//! index — never the whole shard.
//!
//! Object names are flat: no path separators, no `..`, no empty names.
//! Providers reject anything else with [`StoreError::InvalidName`] so a
//! hostile record name can never escape the root directory.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::error::StoreError;

/// A streaming byte sink for one shard being written.
///
/// Bytes arrive in write order; `finish` makes the object visible to
/// subsequent reads and lists. An unfinished sink that is dropped leaves
/// backend-defined garbage (a partial file, nothing in memory) — the
/// shard footer's tail magic is what readers use to reject such remains.
pub trait ShardSink {
    /// Appends bytes to the shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend write failure.
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Flushes and publishes the shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend flush failure.
    fn finish(self: Box<Self>) -> Result<(), StoreError>;
}

/// A storage backend holding named shard objects.
pub trait StorageProvider {
    /// Creates (or truncates) an object and returns a streaming sink.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] or [`StoreError::Io`].
    fn create(&self, name: &str) -> Result<Box<dyn ShardSink>, StoreError>;

    /// The object's size in bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`] or [`StoreError::Io`].
    fn size(&self, name: &str) -> Result<u64, StoreError>;

    /// Reads exactly `len` bytes starting at `offset` into `out`
    /// (cleared first).
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`], [`StoreError::Io`], or
    /// [`StoreError::CorruptShard`] if the range runs past the object.
    fn read_range(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError>;

    /// All object names, sorted, for deterministic shard discovery.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend enumeration failure.
    fn list(&self) -> Result<Vec<String>, StoreError>;
}

/// Rejects names that could address outside the provider's namespace.
fn check_name(name: &str) -> Result<(), StoreError> {
    let bad = name.is_empty()
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0')
        || name == "."
        || name == ".."
        || name.starts_with("..");
    if bad {
        return Err(StoreError::InvalidName {
            name: name.to_string(),
        });
    }
    Ok(())
}

/// Shards as files under one root directory.
#[derive(Debug, Clone)]
pub struct LocalFsProvider {
    root: PathBuf,
}

impl LocalFsProvider {
    /// A provider rooted at `root` (created if absent on first write).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LocalFsProvider { root: root.into() }
    }

    fn path(&self, name: &str) -> Result<PathBuf, StoreError> {
        check_name(name)?;
        Ok(self.root.join(name))
    }
}

struct FileSink {
    file: std::io::BufWriter<fs::File>,
    name: String,
}

impl ShardSink for FileSink {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(|e| StoreError::io("write", &self.name, &e))
    }

    fn finish(mut self: Box<Self>) -> Result<(), StoreError> {
        self.file
            .flush()
            .map_err(|e| StoreError::io("flush", &self.name, &e))
    }
}

impl StorageProvider for LocalFsProvider {
    fn create(&self, name: &str) -> Result<Box<dyn ShardSink>, StoreError> {
        let path = self.path(name)?;
        fs::create_dir_all(&self.root).map_err(|e| StoreError::io("create root", name, &e))?;
        let file = fs::File::create(path).map_err(|e| StoreError::io("create", name, &e))?;
        Ok(Box::new(FileSink {
            file: std::io::BufWriter::new(file),
            name: name.to_string(),
        }))
    }

    fn size(&self, name: &str) -> Result<u64, StoreError> {
        let path = self.path(name)?;
        match fs::metadata(path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::ObjectNotFound {
                name: name.to_string(),
            }),
            Err(e) => Err(StoreError::io("stat", name, &e)),
        }
    }

    fn read_range(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let path = self.path(name)?;
        let mut file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::ObjectNotFound {
                    name: name.to_string(),
                })
            }
            Err(e) => return Err(StoreError::io("open", name, &e)),
        };
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io("seek", name, &e))?;
        out.clear();
        out.resize(len, 0);
        file.read_exact(out).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::CorruptShard {
                    shard: name.to_string(),
                    reason: format!("range {offset}+{len} runs past the end of the file"),
                }
            } else {
                StoreError::io("read", name, &e)
            }
        })
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            // A root that was never written to holds no shards.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io("list", "<root>", &e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("list", "<root>", &e))?;
            if entry
                .file_type()
                .map_err(|e| StoreError::io("stat", "<root>", &e))?
                .is_file()
            {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        // read_dir order is platform- and filesystem-dependent; sorting
        // is what makes shard discovery deterministic.
        names.sort_unstable();
        Ok(names)
    }
}

/// Shards in memory: tests, benches and determinism gates.
///
/// Cloning the provider clones a handle to the *same* object map, so a
/// writer and a reader can share one backing store.
#[derive(Debug, Clone, Default)]
pub struct MemoryProvider {
    objects: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemoryProvider {
    /// An empty in-memory provider.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across all stored objects (test/bench bookkeeping).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        match self.objects.lock() {
            Ok(map) => map.values().map(|v| v.len() as u64).sum(),
            Err(_) => 0,
        }
    }

    /// Replaces an object's bytes wholesale — the corruption tests' way
    /// of flipping bits in a finished shard.
    pub fn overwrite(&self, name: &str, bytes: Vec<u8>) {
        if let Ok(mut map) = self.objects.lock() {
            map.insert(name.to_string(), bytes);
        }
    }

    /// A copy of an object's bytes, if present.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.objects
            .lock()
            .ok()
            .and_then(|map| map.get(name).cloned())
    }

    fn poisoned(name: &str) -> StoreError {
        // A poisoned lock means a panic elsewhere; surface it as an I/O
        // failure rather than propagating the panic.
        StoreError::Io {
            op: "lock",
            name: name.to_string(),
            kind: std::io::ErrorKind::Other,
        }
    }
}

struct MemorySink {
    objects: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    name: String,
    buf: Vec<u8>,
}

impl ShardSink for MemorySink {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<(), StoreError> {
        let mut map = self
            .objects
            .lock()
            .map_err(|_| MemoryProvider::poisoned(&self.name))?;
        map.insert(self.name, self.buf);
        Ok(())
    }
}

impl StorageProvider for MemoryProvider {
    fn create(&self, name: &str) -> Result<Box<dyn ShardSink>, StoreError> {
        check_name(name)?;
        Ok(Box::new(MemorySink {
            objects: Arc::clone(&self.objects),
            name: name.to_string(),
            buf: Vec::new(),
        }))
    }

    fn size(&self, name: &str) -> Result<u64, StoreError> {
        check_name(name)?;
        let map = self.objects.lock().map_err(|_| Self::poisoned(name))?;
        map.get(name)
            .map(|v| v.len() as u64)
            .ok_or_else(|| StoreError::ObjectNotFound {
                name: name.to_string(),
            })
    }

    fn read_range(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        check_name(name)?;
        let map = self.objects.lock().map_err(|_| Self::poisoned(name))?;
        let obj = map.get(name).ok_or_else(|| StoreError::ObjectNotFound {
            name: name.to_string(),
        })?;
        let start = usize::try_from(offset).map_err(|_| StoreError::LengthOverflow {
            field: "read offset",
            value: offset,
        })?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= obj.len())
            .ok_or_else(|| StoreError::CorruptShard {
                shard: name.to_string(),
                reason: format!("range {offset}+{len} runs past the end of the object"),
            })?;
        out.clear();
        out.extend_from_slice(&obj[start..end]);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let map = self.objects.lock().map_err(|_| Self::poisoned("<root>"))?;
        // BTreeMap iterates sorted, matching the filesystem provider.
        Ok(map.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &dyn StorageProvider) {
        let mut sink = p.create("m.00000.ssrd").unwrap();
        sink.write_all(b"hello ").unwrap();
        sink.write_all(b"shards").unwrap();
        sink.finish().unwrap();
        assert_eq!(p.size("m.00000.ssrd").unwrap(), 12);
        let mut out = Vec::new();
        p.read_range("m.00000.ssrd", 6, 6, &mut out).unwrap();
        assert_eq!(&out, b"shards");
        assert!(p.read_range("m.00000.ssrd", 6, 7, &mut out).is_err());
        assert!(matches!(
            p.size("absent"),
            Err(StoreError::ObjectNotFound { .. })
        ));
        assert_eq!(p.list().unwrap(), vec!["m.00000.ssrd".to_string()]);
    }

    #[test]
    fn memory_provider_roundtrips() {
        roundtrip(&MemoryProvider::new());
    }

    #[test]
    fn local_fs_provider_roundtrips() {
        let dir = std::env::temp_dir().join(format!("ss-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        roundtrip(&LocalFsProvider::new(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_names_are_rejected() {
        let p = MemoryProvider::new();
        for bad in ["", "a/b", "a\\b", "..", "../x", ".", "..evil"] {
            assert!(
                matches!(p.create(bad), Err(StoreError::InvalidName { .. })),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn empty_fs_root_lists_nothing() {
        let p = LocalFsProvider::new("/nonexistent/ss-store-nowhere");
        assert_eq!(p.list().unwrap(), Vec::<String>::new());
    }
}
