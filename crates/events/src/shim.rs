//! Instrumented POSIX-style I/O: the in-process "preloaded interceptor".
//!
//! In the paper, applications' `fopen`/`fread`/`fclose` calls are observed
//! via inotify plus a preloaded library that enriches events with offset,
//! size and timestamp (§III-B). In this reproduction the same role is
//! played by [`PosixShim`]: applications (examples, tests, workload
//! drivers) perform their backing-store I/O through it, and it emits the
//! enriched events onto the server's [`EventQueue`] — but only for files
//! that currently have a watch installed, exactly like inotify.
//!
//! The shim is *not* the prefetched-read path — agents in `hfetch-core`
//! consult the segment mapping and read from cache tiers; the shim is the
//! miss path to the backing store plus the event tap.

use std::path::Path;
use std::sync::Arc;

use bytes_alias::Bytes;
use parking_lot::Mutex;
use tiers::backend::StorageBackend;
use tiers::buffers;
use tiers::error::Result;
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Clock;

use crate::event::AccessEvent;
use crate::queue::EventQueue;
use crate::registry::FileRegistry;
use crate::watch::{WatchManager, WatchTransition};

mod bytes_alias {
    pub use bytes::Bytes;
}

/// Open mode, mirroring the read/write intent of `fopen` flags. Only
/// read-intent opens start prefetching epochs ("If an fopen() does not
/// include read flags, the agent will ignore it", §III-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenMode {
    /// Read-only (`"r"`).
    Read,
    /// Write-only (`"w"`); ignored by the prefetcher except for
    /// invalidation.
    Write,
    /// Read-write (`"r+"` / `"w+"`); treated as read intent *and* a source
    /// of invalidating writes.
    ReadWrite,
}

impl OpenMode {
    /// True if the mode includes read intent.
    pub fn reads(self) -> bool {
        matches!(self, OpenMode::Read | OpenMode::ReadWrite)
    }

    /// True if the mode includes write intent.
    pub fn writes(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }
}

/// An open file handle with a cursor (for `fread`) and identity (which
/// process/application performs the accesses).
pub struct FileHandle {
    file: FileId,
    mode: OpenMode,
    process: ProcessId,
    app: AppId,
    cursor: Mutex<u64>,
    closed: Mutex<bool>,
}

impl FileHandle {
    /// The file this handle refers to.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The open mode.
    pub fn mode(&self) -> OpenMode {
        self.mode
    }

    /// Current cursor position.
    pub fn tell(&self) -> u64 {
        *self.cursor.lock()
    }

    /// Moves the cursor to `pos`.
    pub fn seek(&self, pos: u64) {
        *self.cursor.lock() = pos;
    }
}

/// The instrumented I/O layer.
pub struct PosixShim {
    registry: Arc<FileRegistry>,
    watches: Arc<WatchManager>,
    queue: EventQueue,
    clock: Arc<dyn Clock>,
    backing: Arc<dyn StorageBackend>,
}

impl PosixShim {
    /// Creates a shim over the given backing store (the PFS in the paper's
    /// topology).
    pub fn new(
        registry: Arc<FileRegistry>,
        watches: Arc<WatchManager>,
        queue: EventQueue,
        clock: Arc<dyn Clock>,
        backing: Arc<dyn StorageBackend>,
    ) -> Self {
        Self { registry, watches, queue, clock, backing }
    }

    /// The backing store (miss path).
    pub fn backing(&self) -> &Arc<dyn StorageBackend> {
        &self.backing
    }

    /// The file registry.
    pub fn registry(&self) -> &Arc<FileRegistry> {
        &self.registry
    }

    /// The watch table.
    pub fn watches(&self) -> &Arc<WatchManager> {
        &self.watches
    }

    /// Opens `path`. Read-intent opens install a watch reference and emit
    /// an `Open` event (the agent's `start_epoch`). Returns the handle and
    /// whether this open *installed* the watch (first concurrent opener).
    pub fn fopen(
        &self,
        path: impl AsRef<Path>,
        mode: OpenMode,
        process: ProcessId,
        app: AppId,
    ) -> (FileHandle, bool) {
        let file = self.registry.register(path);
        let mut installed = false;
        if mode.reads() {
            installed = self.watches.acquire(file) == WatchTransition::Installed;
            self.queue.push(AccessEvent::open(file, self.clock.now(), process, app));
        }
        (
            FileHandle {
                file,
                mode,
                process,
                app,
                cursor: Mutex::new(0),
                closed: Mutex::new(false),
            },
            installed,
        )
    }

    /// Positional read from the backing store; emits a `Read` event if the
    /// file is watched.
    pub fn fread_at(&self, handle: &FileHandle, range: ByteRange) -> Result<Bytes> {
        debug_assert!(handle.mode.reads(), "fread on write-only handle");
        let data = self.backing.read(handle.file, range)?;
        if self.watches.is_watched(handle.file) {
            self.queue.push(AccessEvent::read(
                handle.file,
                range,
                self.clock.now(),
                handle.process,
                handle.app,
            ));
        }
        Ok(data)
    }

    /// Cursor read: reads `len` bytes at the cursor, advancing it.
    pub fn fread(&self, handle: &FileHandle, len: u64) -> Result<Bytes> {
        let offset = {
            let mut cursor = handle.cursor.lock();
            let offset = *cursor;
            *cursor += len;
            offset
        };
        self.fread_at(handle, ByteRange::new(offset, len))
    }

    /// Positional write to the backing store; grows the registered file
    /// size and emits a `Write` event if the file is watched (triggering
    /// invalidation of prefetched data upstream). The caller keeps `data`,
    /// so this is where a write's bytes are copied, once, into a pooled
    /// buffer when one fits ([`tiers::buffers`]).
    pub fn fwrite_at(&self, handle: &FileHandle, offset: u64, data: &[u8]) -> Result<()> {
        debug_assert!(handle.mode.writes(), "fwrite on read-only handle");
        self.backing.write(handle.file, offset, buffers::copy(data))?;
        self.registry.set_size(handle.file, offset + data.len() as u64);
        if self.watches.is_watched(handle.file) {
            self.queue.push(AccessEvent::write(
                handle.file,
                ByteRange::new(offset, data.len() as u64),
                self.clock.now(),
                handle.process,
                handle.app,
            ));
        }
        Ok(())
    }

    /// Cursor write.
    pub fn fwrite(&self, handle: &FileHandle, data: &[u8]) -> Result<()> {
        let offset = {
            let mut cursor = handle.cursor.lock();
            let offset = *cursor;
            *cursor += data.len() as u64;
            offset
        };
        self.fwrite_at(handle, offset, data)
    }

    /// Closes the handle. Read-intent handles emit a `Close` event (the
    /// agent's `end_epoch`) and drop their watch reference. Returns whether
    /// this close *removed* the watch (last concurrent closer). Double
    /// closes are no-ops.
    pub fn fclose(&self, handle: &FileHandle) -> bool {
        let mut closed = handle.closed.lock();
        if *closed {
            return false;
        }
        *closed = true;
        if handle.mode.reads() {
            self.queue.push(AccessEvent::close(
                handle.file,
                self.clock.now(),
                handle.process,
                handle.app,
            ));
            return self.watches.release(handle.file) == WatchTransition::Removed;
        }
        false
    }

    /// Convenience: create a file of `size` bytes filled with a
    /// deterministic pattern directly on the backing store (bypassing
    /// events) — how tests and workload drivers stage input datasets.
    ///
    /// Byte `o` of a staged file is `o % 251`. Chunks are
    /// [`buffers::BUFFER_BYTES`] long, so each can be a pooled buffer.
    pub fn stage_file(&self, path: impl AsRef<Path>, size: u64) -> Result<FileId> {
        let file = self.registry.register_with_size(&path, size);
        let mut offset = 0u64;
        while offset < size {
            let len = buffers::BUFFER_BYTES.min((size - offset) as usize);
            let chunk = buffers::filled(len, |buf| fill_pattern(buf, offset));
            self.backing.write(file, offset, chunk)?;
            offset += len as u64;
        }
        Ok(file)
    }
}

/// Writes bytes `offset..offset + buf.len()` of the staging pattern into
/// `buf`. The pattern repeats every 251 bytes, so one period is written
/// and then doubled in place.
fn fill_pattern(buf: &mut [u8], offset: u64) {
    const PERIOD: usize = 251;
    let phase = (offset % PERIOD as u64) as usize;
    let mut filled = PERIOD.min(buf.len());
    for (i, byte) in buf[..filled].iter_mut().enumerate() {
        *byte = ((phase + i) % PERIOD) as u8;
    }
    while filled < buf.len() {
        let len = filled.min(buf.len() - filled);
        buf.copy_within(..len, filled);
        filled += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;
    use tiers::backend::MemoryBackend;
    use tiers::time::ManualClock;

    fn shim_with_queue() -> (PosixShim, EventQueue) {
        let queue = EventQueue::with_capacity(1024);
        let shim = PosixShim::new(
            Arc::new(FileRegistry::new()),
            Arc::new(WatchManager::new()),
            queue.clone(),
            Arc::new(ManualClock::new()),
            Arc::new(MemoryBackend::new()),
        );
        (shim, queue)
    }

    fn drain_kinds(q: &EventQueue) -> Vec<AccessKind> {
        let mut kinds = Vec::new();
        while let Some(a) = q.try_pop() {
            kinds.push(a.kind);
        }
        kinds
    }

    #[test]
    fn read_open_emits_epoch_events() {
        let (shim, q) = shim_with_queue();
        shim.stage_file("/data/f", 4096).unwrap();
        let (h, installed) = shim.fopen("/data/f", OpenMode::Read, ProcessId(1), AppId(0));
        assert!(installed, "first opener installs the watch");
        let data = shim.fread(&h, 100).unwrap();
        assert_eq!(data.len(), 100);
        assert_eq!(h.tell(), 100);
        let removed = shim.fclose(&h);
        assert!(removed, "last closer removes the watch");
        assert_eq!(
            drain_kinds(&q),
            vec![AccessKind::Open, AccessKind::Read, AccessKind::Close]
        );
    }

    #[test]
    fn write_only_open_is_ignored() {
        let (shim, q) = shim_with_queue();
        let (h, installed) = shim.fopen("/out", OpenMode::Write, ProcessId(1), AppId(0));
        assert!(!installed);
        shim.fwrite(&h, b"hello").unwrap();
        assert!(!shim.fclose(&h));
        // No watch was installed, so neither open, write, nor close events.
        assert!(drain_kinds(&q).is_empty());
        assert_eq!(shim.registry().size_of(h.file()), 5);
    }

    #[test]
    fn writes_to_watched_files_emit_invalidation_events() {
        let (shim, q) = shim_with_queue();
        shim.stage_file("/shared", 1000).unwrap();
        let (reader, _) = shim.fopen("/shared", OpenMode::Read, ProcessId(1), AppId(0));
        let (writer, _) = shim.fopen("/shared", OpenMode::Write, ProcessId(2), AppId(1));
        shim.fwrite_at(&writer, 0, b"xx").unwrap();
        let kinds = drain_kinds(&q);
        assert_eq!(kinds, vec![AccessKind::Open, AccessKind::Write]);
        shim.fclose(&reader);
        shim.fclose(&writer);
    }

    #[test]
    fn watch_lifecycle_across_processes() {
        let (shim, _q) = shim_with_queue();
        shim.stage_file("/f", 100).unwrap();
        let (h1, i1) = shim.fopen("/f", OpenMode::Read, ProcessId(1), AppId(0));
        let (h2, i2) = shim.fopen("/f", OpenMode::Read, ProcessId(2), AppId(0));
        assert!(i1);
        assert!(!i2, "second opener retains");
        assert!(!shim.fclose(&h1), "first closer retains");
        assert!(shim.fclose(&h2), "last closer removes");
    }

    #[test]
    fn double_close_is_noop() {
        let (shim, q) = shim_with_queue();
        shim.stage_file("/f", 10).unwrap();
        let (h, _) = shim.fopen("/f", OpenMode::Read, ProcessId(1), AppId(0));
        assert!(shim.fclose(&h));
        assert!(!shim.fclose(&h));
        let kinds = drain_kinds(&q);
        assert_eq!(kinds.iter().filter(|k| **k == AccessKind::Close).count(), 1);
        assert!(!shim.watches().is_watched(h.file()));
    }

    #[test]
    fn stage_file_contents_are_deterministic() {
        let (shim, _q) = shim_with_queue();
        let f = shim.stage_file("/big", (1 << 20) + 123).unwrap();
        let (h, _) = shim.fopen("/big", OpenMode::Read, ProcessId(0), AppId(0));
        let bytes = shim.fread_at(&h, ByteRange::new((1 << 20) - 2, 4)).unwrap();
        let base = (1u64 << 20) - 2;
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(*b, ((base as usize + i) % 251) as u8);
        }
        assert_eq!(shim.registry().size_of(f), (1 << 20) + 123);
        shim.fclose(&h);
    }

    #[test]
    fn a_staged_file_holds_the_pattern_at_every_byte() {
        let (shim, _q) = shim_with_queue();
        let size = 2 * buffers::BUFFER_BYTES as u64 + 300;
        let f = shim.stage_file("/all", size).unwrap();
        let bytes = shim.backing().read(f, ByteRange::new(0, size)).unwrap();
        for (o, b) in bytes.iter().enumerate() {
            assert_eq!(*b, (o % 251) as u8, "byte {o}");
        }
        for len in [0, 1, 250, 251, 252, 503, 1000] {
            let mut buf = vec![0xFF; len];
            fill_pattern(&mut buf, 1000);
            assert!(buf.iter().enumerate().all(|(i, &b)| b == ((1000 + i) % 251) as u8), "len {len}");
        }
    }

    #[test]
    fn seek_repositions_cursor() {
        let (shim, _q) = shim_with_queue();
        shim.stage_file("/f", 1000).unwrap();
        let (h, _) = shim.fopen("/f", OpenMode::Read, ProcessId(0), AppId(0));
        h.seek(500);
        let _ = shim.fread(&h, 10).unwrap();
        assert_eq!(h.tell(), 510);
        shim.fclose(&h);
    }
}
