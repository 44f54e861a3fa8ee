//! Storage backends: where a tier's bytes actually live.
//!
//! Two implementations cover the repo's use cases:
//!
//! * [`MemoryBackend`] — bytes in RAM; the default for unit/integration
//!   tests and the RAM tier of the real data path. A file is a map of
//!   extents holding exactly its resident bytes, so evicting a range frees
//!   it at once.
//! * [`DirectoryBackend`] — bytes in real files under a directory; point it
//!   at a tmpfs mount for a RAM tier or an NVMe mount for an NVMe tier and
//!   you have the paper's hierarchy on commodity hardware.
//!
//! The discrete-event simulator moves no payloads: it keeps residency in
//! `sim::residency::ResidencyMap` instead of a backend.
//!
//! A cache tier holds arbitrary subsets of a file's segments, so every
//! backend tracks residency per file in ranges. [`MemoryBackend`] derives it
//! from its extents; [`DirectoryBackend`] keeps an [`IntervalSet`].

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::PathBuf;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::buffers;
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
    /// `Bytes` is immutable, so a backend may keep the handle itself
    /// instead of copying the bytes.
    fn write(&self, file: FileId, offset: u64, data: Bytes) -> Result<()>;

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

/// One file's bytes on a memory tier: disjoint extents keyed by start
/// offset. The map is the file's only residency record: a byte is resident
/// iff an extent holds it, and each extent's buffer is exactly as long as
/// its range, so the payload held always equals the resident bytes.
#[derive(Default)]
struct MemFile {
    extents: BTreeMap<u64, Bytes>,
}

/// The part of `extent` (stored at `start`) that lies inside `range`.
fn clip(start: u64, extent: &[u8], range: ByteRange) -> &[u8] {
    let from = range.offset.saturating_sub(start) as usize;
    let to = (range.end().min(start + extent.len() as u64) - start) as usize;
    &extent[from..to]
}

impl MemFile {
    /// Extents overlapping `range`, in offset order.
    fn overlapping(&self, range: ByteRange) -> impl Iterator<Item = (u64, &Bytes)> {
        let head = self
            .extents
            .range(..range.offset)
            .next_back()
            .filter(|(&start, data)| start + data.len() as u64 > range.offset);
        head.into_iter().chain(self.extents.range(range.offset..range.end())).map(|(&s, d)| (s, d))
    }

    /// True if every byte of `range` is held. Empty ranges are covered.
    fn covers(&self, range: ByteRange) -> bool {
        let mut cursor = range.offset;
        for (start, data) in self.overlapping(range) {
            if start > cursor {
                return false;
            }
            cursor = start + data.len() as u64;
        }
        cursor >= range.end()
    }

    /// Resident sub-ranges of `range`; touching extents merge into one run.
    fn covered_ranges(&self, range: ByteRange) -> Vec<ByteRange> {
        let mut runs: Vec<ByteRange> = Vec::new();
        for (start, data) in self.overlapping(range) {
            let piece = ByteRange::new(start, data.len() as u64);
            let Some(piece) = piece.intersection(range) else { continue };
            match runs.last_mut() {
                Some(last) if last.end() == piece.offset => last.len += piece.len,
                _ => runs.push(piece),
            }
        }
        runs
    }

    fn covered_bytes(&self, range: ByteRange) -> u64 {
        self.overlapping(range).map(|(start, data)| clip(start, data, range).len() as u64).sum()
    }

    fn total(&self) -> u64 {
        self.extents.values().map(|data| data.len() as u64).sum()
    }

    /// Removes `range` from the file and returns the bytes removed. An
    /// extent cut in two keeps copies of its surviving head and tail, so no
    /// buffer outlives the bytes it holds. Each removed extent is offered
    /// to the buffer pool, which takes it only from its last handle.
    fn cut(&mut self, range: ByteRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let hit: Vec<u64> = self.overlapping(range).map(|(start, _)| start).collect();
        let mut removed = 0;
        for start in hit {
            let data = self.extents.remove(&start).expect("overlapping extent");
            let end = start + data.len() as u64;
            if start < range.offset {
                let head = ByteRange::from_bounds(start, range.offset);
                self.extents.insert(start, Bytes::copy_from_slice(clip(start, &data, head)));
            }
            if end > range.end() {
                let tail = ByteRange::from_bounds(range.end(), end);
                self.extents.insert(range.end(), Bytes::copy_from_slice(clip(start, &data, tail)));
            }
            removed += clip(start, &data, range).len() as u64;
            buffers::recycle(data);
        }
        removed
    }
}

/// A file let go of (deleted, emptied, or dropped with its backend) offers
/// its extents' buffers to the pool.
impl Drop for MemFile {
    fn drop(&mut self) {
        for data in std::mem::take(&mut self.extents).into_values() {
            buffers::recycle(data);
        }
    }
}

/// In-memory backend: each file is a map of extents holding exactly its
/// resident bytes.
///
/// Eviction frees the evicted bytes at once, and a file with no resident
/// byte is dropped. A write stores the caller's handle as its extent, and a
/// read of exactly one extent returns that extent's handle: neither copies.
/// A read of a sub-range or of several extents copies them into a buffer
/// of its own after releasing the tier lock, so no handle a read hands out
/// keeps more bytes alive than it shows. Under the lock a write only cuts
/// and inserts extents, and a read only clones extent handles.
///
/// Every extent the backend lets go of, by an overwrite, an eviction, a
/// delete or its own drop, is offered to [`buffers`]; the pool reuses a
/// buffer only once no reader or other tier holds a handle to it.
#[derive(Default)]
pub struct MemoryBackend {
    files: RwLock<HashMap<FileId, MemFile>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Payload bytes held across all files. Equals
    /// [`StorageBackend::used_bytes`]: a memory tier holds no byte it does
    /// not count as resident.
    pub fn held_bytes(&self) -> u64 {
        self.files.read().values().map(MemFile::total).sum()
    }
}

impl StorageBackend for MemoryBackend {
    fn write(&self, file: FileId, offset: u64, data: Bytes) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let range = ByteRange::new(offset, data.len() as u64);
        let mut files = self.files.write();
        let f = files.entry(file).or_default();
        f.cut(range);
        f.extents.insert(offset, data);
        Ok(())
    }

    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes> {
        let pieces: Vec<(u64, Bytes)> = {
            let files = self.files.read();
            let f = files.get(&file).ok_or(TierError::FileNotFound(file))?;
            if !f.covers(range) {
                return Err(TierError::RangeNotResident { file, offset: range.offset, len: range.len });
            }
            if range.is_empty() {
                return Ok(Bytes::new());
            }
            f.overlapping(range).map(|(start, data)| (start, data.clone())).collect()
        };
        Ok(match pieces.as_slice() {
            [(start, data)] if ByteRange::new(*start, data.len() as u64) == range => data.clone(),
            [(start, data)] => Bytes::copy_from_slice(clip(*start, data, range)),
            _ => {
                let mut buf = Vec::with_capacity(range.len as usize);
                for (start, data) in &pieces {
                    buf.extend_from_slice(clip(*start, data, range));
                }
                Bytes::from(buf)
            }
        })
    }

    fn evict(&self, file: FileId, range: ByteRange) -> Result<u64> {
        let mut files = self.files.write();
        let Some(f) = files.get_mut(&file) else { return Ok(0) };
        let evicted = f.cut(range);
        if f.extents.is_empty() {
            files.remove(&file);
        }
        Ok(evicted)
    }

    fn delete(&self, file: FileId) -> Result<u64> {
        let mut files = self.files.write();
        Ok(files.remove(&file).map_or(0, |f| f.total()))
    }

    fn resident(&self, file: FileId, range: ByteRange) -> bool {
        self.files.read().get(&file).is_some_and(|f| f.covers(range))
    }

    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.files.read().get(&file).map_or(0, |f| f.covered_bytes(range))
    }

    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
        self.files.read().get(&file).map_or_else(Vec::new, |f| f.covered_ranges(range))
    }

    fn resident_bytes(&self, file: FileId) -> u64 {
        self.files.read().get(&file).map_or(0, MemFile::total)
    }

    fn used_bytes(&self) -> u64 {
        self.held_bytes()
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
    fn write(&self, file: FileId, offset: u64, data: Bytes) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        use std::os::unix::fs::FileExt;
        let path = self.path_of(file);
        let handle = fs::OpenOptions::new().create(true).truncate(false).write(true).open(&path)?;
        handle.write_all_at(&data, offset)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hfetch-backend-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn exercise_backend(b: &dyn StorageBackend) {
        let f = FileId(1);
        // Write two disjoint extents.
        b.write(f, 0, bytes(b"hello")).unwrap();
        b.write(f, 100, bytes(b"world")).unwrap();
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

        assert_eq!(&b.read(f, ByteRange::new(0, 5)).unwrap()[..], b"hello");
        assert_eq!(&b.read(f, ByteRange::new(101, 3)).unwrap()[..], b"orl");

        // Reads across holes fail.
        let err = b.read(f, ByteRange::new(0, 10)).unwrap_err();
        assert!(matches!(err, TierError::RangeNotResident { .. }));
        // Unknown file fails.
        assert!(matches!(
            b.read(FileId(9), ByteRange::new(0, 1)).unwrap_err(),
            TierError::FileNotFound(_)
        ));

        // Overwrite extends residency.
        b.write(f, 3, bytes(b"p me u")).unwrap();
        assert!(b.resident(f, ByteRange::new(0, 9)));
        assert_eq!(&b.read(f, ByteRange::new(0, 9)).unwrap()[..], b"help me u");

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
        exercise_backend(&MemoryBackend::new());
    }

    #[test]
    fn directory_backend_contract() {
        let dir = temp_dir("contract");
        let b = DirectoryBackend::new(&dir).unwrap();
        exercise_backend(&b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_backend_removes_files_on_full_eviction() {
        let dir = temp_dir("evict");
        let b = DirectoryBackend::new(&dir).unwrap();
        b.write(FileId(5), 0, bytes(b"abc")).unwrap();
        let path = dir.join("f5.tier");
        assert!(path.exists());
        b.evict(FileId(5), ByteRange::new(0, 3)).unwrap();
        assert!(!path.exists(), "file removed once nothing is resident");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_writes_and_reads() {
        let b = MemoryBackend::new();
        b.write(FileId(1), 0, bytes(b"")).unwrap();
        assert_eq!(b.used_bytes(), 0);
        b.write(FileId(1), 0, bytes(b"x")).unwrap();
        assert_eq!(b.read(FileId(1), ByteRange::new(0, 0)).unwrap().len(), 0);
    }

    #[test]
    fn concurrent_writers_distinct_files() {
        let b = std::sync::Arc::new(MemoryBackend::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    b.write(FileId(t), i * 10, bytes(&[t as u8; 10])).unwrap();
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

    #[test]
    fn memory_backend_holds_only_resident_bytes() {
        const MIB: u64 = 1 << 20;
        let b = MemoryBackend::new();
        let f = FileId(3);
        b.write(f, 20 * MIB, vec![7u8; MIB as usize].into()).unwrap();
        assert_eq!(b.held_bytes(), MIB, "no buffer below the first written byte");
        assert_eq!(b.evict(f, ByteRange::new(20 * MIB, MIB)).unwrap(), MIB);
        assert_eq!(b.held_bytes(), 0, "eviction frees the bytes");
        assert!(b.files().is_empty(), "an empty file is dropped");
    }

    #[test]
    fn an_exact_extent_read_shares_the_extent_and_a_sub_range_read_copies() {
        let b = MemoryBackend::new();
        let f = FileId(4);
        let data: Bytes = (0..4096u32).map(|i| i as u8).collect::<Vec<u8>>().into();
        let stored = data.as_ptr();
        b.write(f, 8192, data).unwrap();
        let whole = b.read(f, ByteRange::new(8192, 4096)).unwrap();
        assert!(std::ptr::eq(whole.as_ptr(), stored), "the read shares the handle");
        let part = b.read(f, ByteRange::new(8192 + 100, 1000)).unwrap();
        assert_eq!(part.len(), 1000);
        let inside = stored as usize..stored as usize + 4096;
        assert!(!inside.contains(&(part.as_ptr() as usize)), "a sub-range read has its own buffer");
        assert_eq!(&part[..], &whole[100..1100]);
        assert_eq!(b.held_bytes(), b.used_bytes());
    }

    #[test]
    fn a_reader_s_handle_survives_eviction_and_a_pooled_overwrite() {
        use crate::buffers::{self, BUFFER_BYTES};
        let b = MemoryBackend::new();
        let (f, spare) = (FileId(6), FileId(7));
        let whole = ByteRange::new(0, BUFFER_BYTES as u64);
        b.write(f, 0, buffers::filled(BUFFER_BYTES, |buf| buf.fill(0x11))).unwrap();
        let reader = b.read(f, whole).unwrap();
        assert_eq!(b.evict(f, whole).unwrap(), BUFFER_BYTES as u64);
        // An extent nobody reads goes to the pool, so the overwrite below
        // has a pooled buffer to take.
        b.write(spare, 0, buffers::filled(BUFFER_BYTES, |buf| buf.fill(0x22))).unwrap();
        b.delete(spare).unwrap();
        let rewrite = buffers::copy(&[0x33; BUFFER_BYTES]);
        assert!(!std::ptr::eq(rewrite.as_ptr(), reader.as_ptr()), "a held buffer was reused");
        b.write(f, 0, rewrite).unwrap();
        assert!(reader.iter().all(|&byte| byte == 0x11), "the reader's bytes changed");
        // An overwrite in place cuts the extent a second reader holds.
        let second = b.read(f, whole).unwrap();
        b.write(f, 0, buffers::copy(&[0x44; BUFFER_BYTES])).unwrap();
        assert!(second.iter().all(|&byte| byte == 0x33), "the second reader's bytes changed");
        assert!(b.read(f, whole).unwrap().iter().all(|&byte| byte == 0x44));
    }

    /// Dense reference model of one tier: per file, a payload buffer and a
    /// residency flag per byte.
    #[derive(Default)]
    struct DenseModel {
        files: HashMap<FileId, (Vec<u8>, Vec<bool>)>,
    }

    impl DenseModel {
        const SIZE: usize = 320;

        fn write(&mut self, file: FileId, offset: u64, data: &[u8]) {
            if data.is_empty() {
                return;
            }
            let (bytes, held) =
                self.files.entry(file).or_insert_with(|| (vec![0; Self::SIZE], vec![false; Self::SIZE]));
            let at = offset as usize;
            bytes[at..at + data.len()].copy_from_slice(data);
            held[at..at + data.len()].iter_mut().for_each(|h| *h = true);
        }

        fn evict(&mut self, file: FileId, range: ByteRange) -> u64 {
            let Some((_, held)) = self.files.get_mut(&file) else { return 0 };
            let span = &mut held[range.offset as usize..range.end() as usize];
            let evicted = span.iter().filter(|&&h| h).count() as u64;
            span.iter_mut().for_each(|h| *h = false);
            if !held.contains(&true) {
                self.files.remove(&file);
            }
            evicted
        }

        fn delete(&mut self, file: FileId) -> u64 {
            self.files.remove(&file).map_or(0, |(_, held)| held.iter().filter(|&&h| h).count() as u64)
        }

        /// `Ok(bytes)`, or `Err(true)` for an unknown file and `Err(false)`
        /// for a hole.
        fn read(&self, file: FileId, range: ByteRange) -> std::result::Result<Vec<u8>, bool> {
            let (bytes, held) = self.files.get(&file).ok_or(true)?;
            let span = range.offset as usize..range.end() as usize;
            if !held[span.clone()].iter().all(|&h| h) {
                return Err(false);
            }
            Ok(bytes[span].to_vec())
        }

        fn covered_ranges(&self, file: FileId) -> Vec<ByteRange> {
            let Some((_, held)) = self.files.get(&file) else { return Vec::new() };
            let mut runs: Vec<ByteRange> = Vec::new();
            for (i, _) in held.iter().enumerate().filter(|(_, &h)| h) {
                match runs.last_mut() {
                    Some(last) if last.end() == i as u64 => last.len += 1,
                    _ => runs.push(ByteRange::new(i as u64, 1)),
                }
            }
            runs
        }

        fn used_bytes(&self) -> u64 {
            self.files.values().map(|(_, held)| held.iter().filter(|&&h| h).count() as u64).sum()
        }
    }

    proptest::proptest! {
        /// The extent store matches a dense model over random writes,
        /// evictions, deletes and reads, and never holds a byte it does not
        /// count as resident.
        #[test]
        fn prop_memory_backend_matches_dense_model(ops in proptest::collection::vec(
            (0u8..4, 0u64..3, 0u64..256, 0u64..64), 1..80)) {
            let b = MemoryBackend::new();
            let mut model = DenseModel::default();
            for (step, (op, file, offset, len)) in ops.into_iter().enumerate() {
                let file = FileId(file);
                let range = ByteRange::new(offset, len);
                match op {
                    0 => {
                        let data: Vec<u8> =
                            (0..len).map(|i| (step as u64 * 31 + i) as u8).collect();
                        b.write(file, offset, bytes(&data)).unwrap();
                        model.write(file, offset, &data);
                    }
                    1 => proptest::prop_assert_eq!(b.evict(file, range).unwrap(), model.evict(file, range)),
                    2 => proptest::prop_assert_eq!(b.delete(file).unwrap(), model.delete(file)),
                    _ => {
                        let got = match b.read(file, range) {
                            Ok(bytes) => Ok(bytes.to_vec()),
                            Err(TierError::FileNotFound(_)) => Err(true),
                            Err(TierError::RangeNotResident { .. }) => Err(false),
                            Err(e) => panic!("unexpected error {e}"),
                        };
                        proptest::prop_assert_eq!(got, model.read(file, range), "step {}", step);
                    }
                }
                for f in 0..3 {
                    let f = FileId(f);
                    proptest::prop_assert_eq!(
                        b.covered_ranges(f, ByteRange::new(0, 400)),
                        model.covered_ranges(f),
                        "step {}", step
                    );
                    proptest::prop_assert_eq!(
                        b.resident(f, range),
                        model.read(f, range).is_ok(),
                        "step {}", step
                    );
                }
                proptest::prop_assert_eq!(b.used_bytes(), model.used_bytes());
                proptest::prop_assert_eq!(b.held_bytes(), b.used_bytes());
            }
        }
    }

    #[test]
    fn concurrent_readers_see_whole_versions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        const READERS: usize = 3;
        const VERSIONS: u64 = 200;
        let region = ByteRange::new(4096, 16 * 1024);
        let pattern = move |version: u64| -> Vec<u8> {
            (0..region.len).map(|i| (version * 7 + i) as u8).collect()
        };
        let b = Arc::new(MemoryBackend::new());
        // The region sits inside a larger extent, so the first rewrite
        // splits it.
        b.write(FileId(0), 0, vec![0xAA; 64 * 1024].into()).unwrap();
        b.write(FileId(0), region.offset, pattern(0).into()).unwrap();
        let start = Arc::new(Barrier::new(READERS + 1));
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (b, start, done) = (b.clone(), start.clone(), done.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut reads = 0u64;
                    while !done.load(Ordering::Acquire) || reads == 0 {
                        let got = b.read(FileId(0), region).unwrap();
                        // 7 is odd, so the first byte names the version.
                        let version = (0..VERSIONS).find(|&v| (v * 7) as u8 == got[0]).unwrap();
                        assert_eq!(&got[..], &pattern(version)[..], "a read mixed two versions");
                        reads += 1;
                    }
                })
            })
            .collect();
        start.wait();
        for version in 1..VERSIONS {
            b.write(FileId(0), region.offset, pattern(version).into()).unwrap();
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(b.held_bytes(), 64 * 1024);
        assert_eq!(&b.read(FileId(0), region).unwrap()[..], &pattern(VERSIONS - 1)[..]);
    }
}
