//! LRU residency tracking for the client-pull baselines.
//!
//! The baseline prefetchers manage their cache with least-recently-used
//! eviction (the classic read-cache policy the paper's §I describes). The
//! tracker works at *block* granularity — each baseline picks its own
//! block size — and answers "who is the coldest?" in O(log n).

use std::collections::{BTreeSet, HashMap};

use tiers::ids::FileId;
use tiers::range::ByteRange;

/// A cached block: `block`-th chunk of `file`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockKey {
    /// File the block belongs to.
    pub file: FileId,
    /// Block index (offset / block_size).
    pub block: u64,
}

impl BlockKey {
    /// The byte range this block occupies (clamped to `file_size`).
    pub fn range(&self, block_size: u64, file_size: u64) -> ByteRange {
        tiers::range::segment_range(self.block, block_size, file_size)
    }
}

/// LRU order over cached blocks.
#[derive(Debug, Default)]
pub struct LruTracker {
    by_key: HashMap<BlockKey, u64>,
    by_age: BTreeSet<(u64, BlockKey)>,
    clock: u64,
}

impl LruTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes `key` as most-recently used.
    pub fn touch(&mut self, key: BlockKey) {
        self.clock += 1;
        if let Some(old) = self.by_key.insert(key, self.clock) {
            self.by_age.remove(&(old, key));
        }
        self.by_age.insert((self.clock, key));
    }

    /// True if `key` is tracked.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.by_key.contains_key(key)
    }

    /// Stops tracking `key`. Returns true if it was tracked.
    pub fn remove(&mut self, key: &BlockKey) -> bool {
        let Some(age) = self.by_key.remove(key) else { return false };
        self.by_age.remove(&(age, *key));
        true
    }

    /// Removes and returns the least-recently-used block.
    pub fn pop_coldest(&mut self) -> Option<BlockKey> {
        let (age, key) = self.by_age.pop_first()?;
        debug_assert_eq!(self.by_key.get(&key), Some(&age));
        self.by_key.remove(&key);
        Some(key)
    }

    /// The least-recently-used block without removing it.
    pub fn peek_coldest(&self) -> Option<BlockKey> {
        self.by_age.first().map(|(_, k)| *k)
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }
}

/// FIFO queue of prefetch requests with O(1) membership tests.
///
/// Baselines enqueue readahead requests per read; at 2560-rank scale a
/// linear `VecDeque::contains` would make enqueueing quadratic.
#[derive(Debug, Default)]
pub struct PendingQueue<T = BlockKey> {
    queue: std::collections::VecDeque<T>,
    members: std::collections::HashSet<T>,
}

impl<T: Copy + Eq + std::hash::Hash> PendingQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { queue: std::collections::VecDeque::new(), members: std::collections::HashSet::new() }
    }

    /// Appends `item` unless already queued. Returns true if enqueued.
    pub fn push(&mut self, item: T) -> bool {
        if self.members.insert(item) {
            self.queue.push_back(item);
            true
        } else {
            false
        }
    }

    /// Pops the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.queue.pop_front()?;
        self.members.remove(&item);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_queue_dedups_and_orders() {
        let mut q: PendingQueue<u32> = PendingQueue::new();
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(1), "duplicate rejected");
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(1), "re-enqueue after pop is allowed");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    fn key(file: u64, block: u64) -> BlockKey {
        BlockKey { file: FileId(file), block }
    }

    #[test]
    fn coldest_is_least_recently_touched() {
        let mut lru = LruTracker::new();
        lru.touch(key(0, 0));
        lru.touch(key(0, 1));
        lru.touch(key(0, 2));
        lru.touch(key(0, 0)); // refresh block 0
        assert_eq!(lru.peek_coldest(), Some(key(0, 1)));
        assert_eq!(lru.pop_coldest(), Some(key(0, 1)));
        assert_eq!(lru.pop_coldest(), Some(key(0, 2)));
        assert_eq!(lru.pop_coldest(), Some(key(0, 0)));
        assert_eq!(lru.pop_coldest(), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn double_touch_keeps_single_entry() {
        let mut lru = LruTracker::new();
        for _ in 0..10 {
            lru.touch(key(0, 7));
        }
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pop_coldest(), Some(key(0, 7)));
    }

    #[test]
    fn block_key_range_clamps() {
        let k = key(0, 3);
        assert_eq!(k.range(100, 350), ByteRange::new(300, 50));
        assert!(k.range(100, 200).is_empty());
    }
}
