//! Reference-counted file watches.
//!
//! "Upon an fopen call with the appropriate read flags, the HFetch agent
//! will send a start_epoch() call to the server who will install an
//! inotify_add_watch() for access. … if multiple fopen from multiple
//! processes or across applications arrive, only the first will install the
//! watch and the last one will remove it." (§III-B)

use parking_lot::RwLock;
use tiers::ids::FileId;

use dht_free::FxHashMap;

/// A tiny local alias module so this crate does not depend on `dht` just
/// for the hasher; watches are few, `std` hashing would also be fine.
mod dht_free {
    pub type FxHashMap<K, V> = std::collections::HashMap<K, V>;
}

/// What installing/removing a watch reference did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchTransition {
    /// The first reference: the watch was installed (epoch starts).
    Installed,
    /// The reference count changed but the watch already existed / remains.
    Retained,
    /// The last reference: the watch was removed (epoch ends).
    Removed,
    /// A release for a file with no watch (ignored open without read flags,
    /// or double close) — a no-op.
    NotWatched,
}

/// Reference-counted watch table.
#[derive(Default)]
pub struct WatchManager {
    watches: RwLock<FxHashMap<FileId, u32>>,
}

impl WatchManager {
    /// Creates an empty watch table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a watch reference for `file`. Returns
    /// [`WatchTransition::Installed`] only for the first concurrent opener.
    pub fn acquire(&self, file: FileId) -> WatchTransition {
        let mut watches = self.watches.write();
        let count = watches.entry(file).or_insert(0);
        *count += 1;
        if *count == 1 {
            WatchTransition::Installed
        } else {
            WatchTransition::Retained
        }
    }

    /// Drops a watch reference for `file`. Returns
    /// [`WatchTransition::Removed`] only for the last concurrent closer.
    pub fn release(&self, file: FileId) -> WatchTransition {
        let mut watches = self.watches.write();
        match watches.get_mut(&file) {
            None => WatchTransition::NotWatched,
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    watches.remove(&file);
                    WatchTransition::Removed
                } else {
                    WatchTransition::Retained
                }
            }
        }
    }

    /// True if `file` currently has a watch installed.
    pub fn is_watched(&self, file: FileId) -> bool {
        self.watches.read().contains_key(&file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_installs_last_removes() {
        let w = WatchManager::new();
        let f = FileId(1);
        assert_eq!(w.acquire(f), WatchTransition::Installed);
        assert_eq!(w.acquire(f), WatchTransition::Retained);
        assert_eq!(w.acquire(f), WatchTransition::Retained);
        assert!(w.is_watched(f));
        assert_eq!(w.release(f), WatchTransition::Retained);
        assert_eq!(w.release(f), WatchTransition::Retained);
        assert_eq!(w.release(f), WatchTransition::Removed);
        assert!(!w.is_watched(f));
        assert_eq!(w.release(f), WatchTransition::NotWatched, "a double close is a no-op");
    }

    #[test]
    fn release_without_watch_is_noop() {
        let w = WatchManager::new();
        assert_eq!(w.release(FileId(9)), WatchTransition::NotWatched);
    }

    #[test]
    fn independent_files() {
        let w = WatchManager::new();
        w.acquire(FileId(1));
        w.acquire(FileId(2));
        assert!(w.is_watched(FileId(1)) && w.is_watched(FileId(2)));
        w.release(FileId(1));
        assert!(!w.is_watched(FileId(1)));
        assert!(w.is_watched(FileId(2)));
    }

    #[test]
    fn concurrent_acquire_release_balances() {
        let w = std::sync::Arc::new(WatchManager::new());
        let f = FileId(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let w = w.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        w.acquire(f);
                        w.release(f);
                    }
                });
            }
        });
        assert!(!w.is_watched(f));
        assert_eq!(w.release(f), WatchTransition::NotWatched, "every reference was released");
    }

    #[test]
    fn exactly_one_install_among_concurrent_openers() {
        let w = std::sync::Arc::new(WatchManager::new());
        let f = FileId(3);
        let installs = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                let w = w.clone();
                let installs = &installs;
                s.spawn(move || {
                    if w.acquire(f) == WatchTransition::Installed {
                        installs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(installs.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Sixteen references: only the sixteenth release removes the watch.
        for _ in 0..15 {
            assert_eq!(w.release(f), WatchTransition::Retained);
        }
        assert_eq!(w.release(f), WatchTransition::Removed);
    }
}
