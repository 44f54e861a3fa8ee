//! Storage backends: where a tier's bytes actually live.
//!
//! Three implementations cover the repo's use cases:
//!
//! * [`MemoryBackend`] — bytes in RAM; the default for unit/integration
//!   tests and the RAM tier of the real data path.
//! * [`DirectoryBackend`] — bytes in real files under a directory; point it
//!   at a tmpfs mount for a RAM tier or an NVMe mount for an NVMe tier and
//!   you have the paper's hierarchy on commodity hardware.
//! * [`NullBackend`] — bookkeeping only; backs the discrete-event simulator
//!   where only timing and residency matter, not payloads.
//!
//! All backends track *residency* per file with an [`IntervalSet`] because a
//! cache tier holds arbitrary subsets of a file's segments.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::{Result, TierError};
use crate::ids::FileId;
use crate::interval::IntervalSet;
use crate::range::ByteRange;

/// Byte storage for one tier.
///
/// Implementations are internally synchronized (`&self` methods) so they can
/// be shared across I/O client threads.
pub trait StorageBackend: Send + Sync {
    /// Writes `data` at `offset` of `file`, marking the range resident.
    fn write(&self, file: FileId, offset: u64, data: &[u8]) -> Result<()>;

    /// Reads `range` of `file`. Fails with [`TierError::RangeNotResident`]
    /// if any requested byte is not resident on this backend.
    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes>;

    /// Drops residency of `range` (e.g. on demotion or invalidation).
    /// Returns the number of bytes actually evicted.
    fn evict(&self, file: FileId, range: ByteRange) -> Result<u64>;

    /// Removes the whole file. Returns bytes evicted. Unknown files are a
    /// no-op returning 0.
    fn delete(&self, file: FileId) -> Result<u64>;

    /// True if every byte of `range` is resident.
    fn resident(&self, file: FileId, range: ByteRange) -> bool;

    /// How many bytes of `range` are resident.
    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64;

    /// The resident sub-ranges of `range`, in offset order.
    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange>;

    /// Resident bytes of one file.
    fn resident_bytes(&self, file: FileId) -> u64;

    /// Resident bytes across all files.
    fn used_bytes(&self) -> u64;

    /// Files with at least one resident byte.
    fn files(&self) -> Vec<FileId>;

    /// False while the device is unreachable: data operations then fail
    /// with [`TierError::TierOffline`].
    fn online(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// MemoryBackend
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemFile {
    /// Dense buffer; bytes outside `resident` are meaningless.
    data: Vec<u8>,
    resident: IntervalSet,
}

/// In-memory backend: one growable buffer per file plus a residency set.
#[derive(Default)]
pub struct MemoryBackend {
    files: RwLock<HashMap<FileId, MemFile>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn write(&self, file: FileId, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut files = self.files.write();
        let f = files.entry(file).or_default();
        let end = offset as usize + data.len();
        if f.data.len() < end {
            f.data.resize(end, 0);
        }
        f.data[offset as usize..end].copy_from_slice(data);
        f.resident.insert(ByteRange::new(offset, data.len() as u64));
        Ok(())
    }

    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes> {
        let files = self.files.read();
        let f = files.get(&file).ok_or(TierError::FileNotFound(file))?;
        if !f.resident.covers(range) {
            return Err(TierError::RangeNotResident { file, offset: range.offset, len: range.len });
        }
        if range.is_empty() {
            return Ok(Bytes::new());
        }
        let start = range.offset as usize;
        let end = range.end() as usize;
        Ok(Bytes::copy_from_slice(&f.data[start..end]))
    }

    fn evict(&self, file: FileId, range: ByteRange) -> Result<u64> {
        let mut files = self.files.write();
        let Some(f) = files.get_mut(&file) else { return Ok(0) };
        let evicted = f.resident.remove(range);
        if f.resident.is_empty() {
            files.remove(&file);
        }
        Ok(evicted)
    }

    fn delete(&self, file: FileId) -> Result<u64> {
        let mut files = self.files.write();
        Ok(files.remove(&file).map_or(0, |f| f.resident.total()))
    }

    fn resident(&self, file: FileId, range: ByteRange) -> bool {
        self.files.read().get(&file).is_some_and(|f| f.resident.covers(range))
    }

    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.files.read().get(&file).map_or(0, |f| f.resident.covered_bytes(range))
    }

    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
        self.files.read().get(&file).map_or_else(Vec::new, |f| f.resident.covered_ranges(range))
    }

    fn resident_bytes(&self, file: FileId) -> u64 {
        self.files.read().get(&file).map_or(0, |f| f.resident.total())
    }

    fn used_bytes(&self) -> u64 {
        self.files.read().values().map(|f| f.resident.total()).sum()
    }

    fn files(&self) -> Vec<FileId> {
        self.files.read().keys().copied().collect()
    }
}

// ---------------------------------------------------------------------------
// DirectoryBackend
// ---------------------------------------------------------------------------

/// Real-filesystem backend: each file is stored as `<root>/f<id>.tier`.
///
/// Point `root` at a tmpfs mount to emulate a RAM tier, an NVMe mount for an
/// NVMe tier, etc. — the substitution the reproduction notes call out for
/// running HFetch's real data path on commodity hardware. Residency is
/// tracked in memory; payload bytes live on the real filesystem.
pub struct DirectoryBackend {
    root: PathBuf,
    resident: RwLock<HashMap<FileId, IntervalSet>>,
}

impl DirectoryBackend {
    /// Creates a backend rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root, resident: RwLock::new(HashMap::new()) })
    }

    /// The directory data files are stored under.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path_of(&self, file: FileId) -> PathBuf {
        self.root.join(format!("f{}.tier", file.raw()))
    }
}

impl StorageBackend for DirectoryBackend {
    fn write(&self, file: FileId, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        use std::os::unix::fs::FileExt;
        let path = self.path_of(file);
        let handle = fs::OpenOptions::new().create(true).truncate(false).write(true).open(&path)?;
        handle.write_all_at(data, offset)?;
        self.resident
            .write()
            .entry(file)
            .or_default()
            .insert(ByteRange::new(offset, data.len() as u64));
        Ok(())
    }

    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes> {
        {
            let resident = self.resident.read();
            let set = resident.get(&file).ok_or(TierError::FileNotFound(file))?;
            if !set.covers(range) {
                return Err(TierError::RangeNotResident {
                    file,
                    offset: range.offset,
                    len: range.len,
                });
            }
        }
        if range.is_empty() {
            return Ok(Bytes::new());
        }
        use std::os::unix::fs::FileExt;
        let handle = fs::File::open(self.path_of(file))?;
        let mut buf = vec![0u8; range.len as usize];
        handle.read_exact_at(&mut buf, range.offset)?;
        Ok(Bytes::from(buf))
    }

    fn evict(&self, file: FileId, range: ByteRange) -> Result<u64> {
        let mut resident = self.resident.write();
        let Some(set) = resident.get_mut(&file) else { return Ok(0) };
        let evicted = set.remove(range);
        if set.is_empty() {
            resident.remove(&file);
            match fs::remove_file(self.path_of(file)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(evicted)
    }

    fn delete(&self, file: FileId) -> Result<u64> {
        let mut resident = self.resident.write();
        let Some(set) = resident.remove(&file) else { return Ok(0) };
        match fs::remove_file(self.path_of(file)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(set.total())
    }

    fn resident(&self, file: FileId, range: ByteRange) -> bool {
        self.resident.read().get(&file).is_some_and(|s| s.covers(range))
    }

    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.resident.read().get(&file).map_or(0, |s| s.covered_bytes(range))
    }

    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
        self.resident.read().get(&file).map_or_else(Vec::new, |s| s.covered_ranges(range))
    }

    fn resident_bytes(&self, file: FileId) -> u64 {
        self.resident.read().get(&file).map_or(0, |s| s.total())
    }

    fn used_bytes(&self) -> u64 {
        self.resident.read().values().map(|s| s.total()).sum()
    }

    fn files(&self) -> Vec<FileId> {
        self.resident.read().keys().copied().collect()
    }
}

// ---------------------------------------------------------------------------
// NullBackend
// ---------------------------------------------------------------------------

/// Bookkeeping-only backend for the simulator: residency is tracked exactly,
/// reads return zeroed bytes of the right length.
#[derive(Default)]
pub struct NullBackend {
    resident: RwLock<HashMap<FileId, IntervalSet>>,
}

impl NullBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for NullBackend {
    fn write(&self, file: FileId, offset: u64, data: &[u8]) -> Result<()> {
        if !data.is_empty() {
            self.resident
                .write()
                .entry(file)
                .or_default()
                .insert(ByteRange::new(offset, data.len() as u64));
        }
        Ok(())
    }

    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes> {
        let resident = self.resident.read();
        let set = resident.get(&file).ok_or(TierError::FileNotFound(file))?;
        if !set.covers(range) {
            return Err(TierError::RangeNotResident { file, offset: range.offset, len: range.len });
        }
        Ok(Bytes::from(vec![0u8; range.len as usize]))
    }

    fn evict(&self, file: FileId, range: ByteRange) -> Result<u64> {
        let mut resident = self.resident.write();
        let Some(set) = resident.get_mut(&file) else { return Ok(0) };
        let evicted = set.remove(range);
        if set.is_empty() {
            resident.remove(&file);
        }
        Ok(evicted)
    }

    fn delete(&self, file: FileId) -> Result<u64> {
        Ok(self.resident.write().remove(&file).map_or(0, |s| s.total()))
    }

    fn resident(&self, file: FileId, range: ByteRange) -> bool {
        self.resident.read().get(&file).is_some_and(|s| s.covers(range))
    }

    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.resident.read().get(&file).map_or(0, |s| s.covered_bytes(range))
    }

    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
        self.resident.read().get(&file).map_or_else(Vec::new, |s| s.covered_ranges(range))
    }

    fn resident_bytes(&self, file: FileId) -> u64 {
        self.resident.read().get(&file).map_or(0, |s| s.total())
    }

    fn used_bytes(&self) -> u64 {
        self.resident.read().values().map(|s| s.total()).sum()
    }

    fn files(&self) -> Vec<FileId> {
        self.resident.read().keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hfetch-backend-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn exercise_backend(b: &dyn StorageBackend, verify_payload: bool) {
        let f = FileId(1);
        // Write two disjoint extents.
        b.write(f, 0, b"hello").unwrap();
        b.write(f, 100, b"world").unwrap();
        assert_eq!(b.resident_bytes(f), 10);
        assert_eq!(b.used_bytes(), 10);
        assert!(b.resident(f, ByteRange::new(0, 5)));
        assert!(b.resident(f, ByteRange::new(102, 3)));
        assert!(!b.resident(f, ByteRange::new(3, 5)), "gap not resident");
        assert_eq!(b.covered_bytes(f, ByteRange::new(3, 100)), 5, "2 head + 3 tail");
        assert_eq!(
            b.covered_ranges(f, ByteRange::new(3, 100)),
            vec![ByteRange::new(3, 2), ByteRange::new(100, 3)]
        );
        assert_eq!(b.covered_bytes(FileId(9), ByteRange::new(0, 10)), 0);

        if verify_payload {
            assert_eq!(&b.read(f, ByteRange::new(0, 5)).unwrap()[..], b"hello");
            assert_eq!(&b.read(f, ByteRange::new(101, 3)).unwrap()[..], b"orl");
        } else {
            assert_eq!(b.read(f, ByteRange::new(0, 5)).unwrap().len(), 5);
        }

        // Reads across holes fail.
        let err = b.read(f, ByteRange::new(0, 10)).unwrap_err();
        assert!(matches!(err, TierError::RangeNotResident { .. }));
        // Unknown file fails.
        assert!(matches!(
            b.read(FileId(9), ByteRange::new(0, 1)).unwrap_err(),
            TierError::FileNotFound(_)
        ));

        // Overwrite extends residency.
        b.write(f, 3, b"p me u").unwrap();
        assert!(b.resident(f, ByteRange::new(0, 9)));
        if verify_payload {
            assert_eq!(&b.read(f, ByteRange::new(0, 9)).unwrap()[..], b"help me u");
        }

        // Partial eviction splits residency.
        assert_eq!(b.evict(f, ByteRange::new(2, 4)).unwrap(), 4);
        assert!(b.resident(f, ByteRange::new(0, 2)));
        assert!(!b.resident(f, ByteRange::new(2, 1)));
        assert!(b.resident(f, ByteRange::new(6, 3)));

        // Evicting unknown ranges/files is a no-op.
        assert_eq!(b.evict(f, ByteRange::new(500, 10)).unwrap(), 0);
        assert_eq!(b.evict(FileId(9), ByteRange::new(0, 10)).unwrap(), 0);

        // Delete removes everything.
        let total = b.resident_bytes(f);
        assert_eq!(b.delete(f).unwrap(), total);
        assert_eq!(b.used_bytes(), 0);
        assert!(b.files().is_empty());
        assert_eq!(b.delete(f).unwrap(), 0, "double delete is a no-op");
    }

    #[test]
    fn memory_backend_contract() {
        exercise_backend(&MemoryBackend::new(), true);
    }

    #[test]
    fn null_backend_contract() {
        exercise_backend(&NullBackend::new(), false);
    }

    #[test]
    fn directory_backend_contract() {
        let dir = temp_dir("contract");
        let b = DirectoryBackend::new(&dir).unwrap();
        exercise_backend(&b, true);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_backend_removes_files_on_full_eviction() {
        let dir = temp_dir("evict");
        let b = DirectoryBackend::new(&dir).unwrap();
        b.write(FileId(5), 0, b"abc").unwrap();
        let path = dir.join("f5.tier");
        assert!(path.exists());
        b.evict(FileId(5), ByteRange::new(0, 3)).unwrap();
        assert!(!path.exists(), "file removed once nothing is resident");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn null_backend_reads_zeroes() {
        let b = NullBackend::new();
        b.write(FileId(0), 10, &[1, 2, 3]).unwrap();
        let bytes = b.read(FileId(0), ByteRange::new(10, 3)).unwrap();
        assert_eq!(&bytes[..], &[0, 0, 0], "payload is not stored");
    }

    #[test]
    fn empty_writes_and_reads() {
        let b = MemoryBackend::new();
        b.write(FileId(1), 0, b"").unwrap();
        assert_eq!(b.used_bytes(), 0);
        b.write(FileId(1), 0, b"x").unwrap();
        assert_eq!(b.read(FileId(1), ByteRange::new(0, 0)).unwrap().len(), 0);
    }

    #[test]
    fn backends_are_object_safe_and_shareable() {
        let backends: Vec<Box<dyn StorageBackend>> =
            vec![Box::new(MemoryBackend::new()), Box::new(NullBackend::new())];
        for b in &backends {
            b.write(FileId(0), 0, b"ab").unwrap();
            assert_eq!(b.used_bytes(), 2);
        }
    }

    #[test]
    fn concurrent_writers_distinct_files() {
        let b = std::sync::Arc::new(MemoryBackend::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    b.write(FileId(t), i * 10, &[t as u8; 10]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.used_bytes(), 8 * 500);
        for t in 0..8u64 {
            assert!(b.resident(FileId(t), ByteRange::new(0, 500)));
        }
    }
}
