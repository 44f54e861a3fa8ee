//! Enriched event records.
//!
//! "The original events created by inotify include the type of event (e.g.,
//! open, read, write, close) and the filename … We have additionally added
//! the location of a read operation (i.e., offset), the length of the read
//! operation (i.e., request size), and lastly a timestamp." (§III-B)
//!
//! The paper also names tier-capacity events (§III-A.1); nothing here
//! produces them, so a file access is the only event.

use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;

/// The operation an access event describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// File opened with read intent (starts a prefetching epoch when it is
    /// the first concurrent opener).
    Open,
    /// A read: `range` carries the offset and request size.
    Read,
    /// A write or update: invalidates previously prefetched data
    /// (consistency, §III-A.1).
    Write,
    /// File closed (ends the epoch when it is the last concurrent closer).
    Close,
}

/// One enriched file-access event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessEvent {
    /// What happened.
    pub kind: AccessKind,
    /// Which file.
    pub file: FileId,
    /// Offset + request size. Zero-length for open/close.
    pub range: ByteRange,
    /// When the access happened.
    pub time: Timestamp,
    /// Which process performed it.
    pub process: ProcessId,
    /// Which application that process belongs to.
    pub app: AppId,
}

impl AccessEvent {
    /// A read event.
    pub fn read(
        file: FileId,
        range: ByteRange,
        time: Timestamp,
        process: ProcessId,
        app: AppId,
    ) -> Self {
        Self { kind: AccessKind::Read, file, range, time, process, app }
    }

    /// A write event over `range`.
    pub fn write(
        file: FileId,
        range: ByteRange,
        time: Timestamp,
        process: ProcessId,
        app: AppId,
    ) -> Self {
        Self { kind: AccessKind::Write, file, range, time, process, app }
    }

    /// An open event.
    pub fn open(file: FileId, time: Timestamp, process: ProcessId, app: AppId) -> Self {
        Self { kind: AccessKind::Open, file, range: ByteRange::new(0, 0), time, process, app }
    }

    /// A close event.
    pub fn close(file: FileId, time: Timestamp, process: ProcessId, app: AppId) -> Self {
        Self { kind: AccessKind::Close, file, range: ByteRange::new(0, 0), time, process, app }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let t = Timestamp::from_secs(1);
        let e = AccessEvent::read(FileId(1), ByteRange::new(10, 20), t, ProcessId(2), AppId(3));
        assert_eq!(e.kind, AccessKind::Read);
        assert_eq!(e.range.len, 20);
        let o = AccessEvent::open(FileId(1), t, ProcessId(2), AppId(3));
        assert_eq!(o.kind, AccessKind::Open);
        assert!(o.range.is_empty());
        let c = AccessEvent::close(FileId(1), t, ProcessId(2), AppId(3));
        assert_eq!(c.kind, AccessKind::Close);
        let w = AccessEvent::write(FileId(1), ByteRange::new(0, 5), t, ProcessId(2), AppId(3));
        assert_eq!(w.kind, AccessKind::Write);
    }
}
