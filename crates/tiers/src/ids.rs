//! Strongly-typed identifiers used across the HFetch stack.
//!
//! Every entity the prefetcher reasons about — files, file segments,
//! processes, applications, cluster nodes, and hierarchy tiers — gets a
//! newtype around a small integer. Using distinct types (instead of bare
//! `u64`/`usize`) prevents the classic "passed a rank where a file id was
//! expected" class of bug in a codebase where almost everything is an index.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:literal, $inner:ty) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }

            /// Returns the raw value widened to `usize` for indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_newtype!(
    /// Identifies a file known to HFetch. File ids are assigned by the file
    /// registry when a path is first observed (see `events::registry`).
    FileId,
    "f",
    u64
);

id_newtype!(
    /// Identifies an application process (an "MPI rank" in the paper's
    /// terminology). Process ids are global across applications.
    ProcessId,
    "p",
    u32
);

id_newtype!(
    /// Identifies an application (a communicator group of processes). The
    /// paper's workflows run several applications concurrently over shared
    /// files; the data-centric design aggregates accesses across all of them.
    AppId,
    "a",
    u32
);

id_newtype!(
    /// Identifies a tier of the storage hierarchy. Tier 0 is the fastest
    /// (e.g. DRAM); higher ids are progressively slower and larger. The
    /// *backing* tier (PFS) is always the last one.
    TierId,
    "T",
    u16
);

/// Identifies one segment of one file. A segment is the prefetching unit:
/// a contiguous region of a file, `segment_size` bytes long (the last segment
/// of a file may be shorter).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId {
    /// File this segment belongs to.
    pub file: FileId,
    /// Zero-based index of the segment within the file.
    pub index: u64,
}

impl SegmentId {
    /// Creates a segment id from a file and a segment index.
    #[inline]
    pub fn new(file: FileId, index: u64) -> Self {
        Self { file, index }
    }

    /// The segment that follows this one in the same file.
    #[inline]
    pub fn next(self) -> Self {
        Self { file: self.file, index: self.index + 1 }
    }

    /// The segment that precedes this one, if any.
    #[inline]
    pub fn prev(self) -> Option<Self> {
        self.index.checked_sub(1).map(|i| Self { file: self.file, index: i })
    }
}

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.file, self.index)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.file, self.index)
    }
}

/// A monotonically increasing id generator, safe to share across threads.
///
/// Used by registries that hand out [`FileId`]s (and by tests that need
/// unique ids without a registry).
#[derive(Debug, Default)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// Creates a generator starting at zero.
    pub const fn new() -> Self {
        Self { next: AtomicU64::new(0) }
    }

    /// Creates a generator starting at `start`.
    pub const fn starting_at(start: u64) -> Self {
        Self { next: AtomicU64::new(start) }
    }

    /// Returns the next id.
    #[inline]
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns how many ids have been issued so far.
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(FileId(3).to_string(), "f3");
        assert_eq!(ProcessId(12).to_string(), "p12");
        assert_eq!(AppId(1).to_string(), "a1");
        assert_eq!(TierId(0).to_string(), "T0");
        assert_eq!(SegmentId::new(FileId(3), 9).to_string(), "f3#9");
    }

    #[test]
    fn segment_navigation() {
        let s = SegmentId::new(FileId(1), 5);
        assert_eq!(s.next().index, 6);
        assert_eq!(s.prev().unwrap().index, 4);
        assert_eq!(SegmentId::new(FileId(1), 0).prev(), None);
        assert_eq!(s.next().file, s.file);
    }

    #[test]
    fn segment_ordering_is_file_then_index() {
        let a = SegmentId::new(FileId(1), 9);
        let b = SegmentId::new(FileId(2), 0);
        assert!(a < b);
        let c = SegmentId::new(FileId(1), 10);
        assert!(a < c);
    }

    #[test]
    fn idgen_is_unique_across_threads() {
        let g = std::sync::Arc::new(IdGen::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next_id()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 8000);
        assert_eq!(g.issued(), 8000);
    }

    #[test]
    fn idgen_starting_at() {
        let g = IdGen::starting_at(100);
        assert_eq!(g.next_id(), 100);
        assert_eq!(g.next_id(), 101);
    }

    #[test]
    fn raw_and_index_round_trip() {
        assert_eq!(FileId::from(42u64).raw(), 42);
        assert_eq!(TierId(3).index(), 3);
    }
}
