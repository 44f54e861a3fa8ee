//! The client-pull loop every shared-cache baseline runs.
//!
//! A client-pull prefetcher predicts its own application's next accesses
//! and fetches them into a cache it manages (§I). The baselines differ
//! only in the prediction, so [`PullPrefetcher`] owns the rest once: a
//! FIFO of requested blocks, an LRU over the blocks it fetched, and a
//! bound on transfers in flight. A [`Predictor`] supplies what to request
//! on each open and read, and optionally a staleness test and an eviction
//! rule.
//!
//! The loop pops a request, drops it if stale or past EOF, and touches a
//! block that is already resident. Otherwise it evicts until the block
//! fits (as the predictor's [`Predictor::make_room`] allows) and fetches
//! it. The block enters the LRU only if the fetch scheduled bytes, and
//! each transfer the fetch issued holds one in-flight slot until the
//! simulator reports it done (a fetch split around resident or in-flight
//! bytes issues several). A write drops the blocks it touched: the
//! simulator invalidated the written bytes, the loop discards the rest of
//! each block and stops tracking it, so a later request fetches it again
//! and no untracked bytes hold the cache tier.

use std::hash::Hash;
use std::ops::RangeInclusive;

use sim::engine::SimCtl;
use sim::policy::{PrefetchPolicy, TransferDone};
use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;

use crate::lru::{BlockKey, LruTracker, PendingQueue};

/// What the pull loop does when the next fetch does not fit the cache tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Room {
    /// Evict the least-recently-used block and test again.
    Evict,
    /// Fetch anyway; the simulator denies the bytes that do not fit.
    Fetch,
    /// Requeue the request and issue nothing more until the next event.
    Wait,
}

/// What makes one client-pull baseline different from another.
pub trait Predictor {
    /// What a queued request remembers of its origin, for
    /// [`Predictor::stale`].
    type Tag: Copy + Eq + Hash;

    /// Short name for reports.
    fn name(&self) -> &str;

    /// A rank opened `file`: request what it will read first.
    fn on_open(&mut self, _file: FileId, _process: ProcessId, _cache: &mut PullCache<Self::Tag>) {}

    /// A rank read `range` of `file`; the cache has already refreshed the
    /// cached blocks the read covers. Request what comes next.
    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        cache: &mut PullCache<Self::Tag>,
    );

    /// True if a queued request is no longer worth fetching.
    fn stale(&self, _key: BlockKey, _tag: Self::Tag) -> bool {
        false
    }

    /// The eviction rule, asked while a fetch does not fit: `coldest` is
    /// the least-recently-used cached block (`None`: nothing is cached).
    /// By default the coldest block goes, and with nothing left to evict
    /// the fetch is issued anyway.
    fn make_room(&mut self, coldest: Option<BlockKey>) -> Room {
        if coldest.is_some() {
            Room::Evict
        } else {
            Room::Fetch
        }
    }
}

/// The request queue, LRU and in-flight window of a [`PullPrefetcher`].
pub struct PullCache<T> {
    block: u64,
    dst: TierId,
    max_inflight: usize,
    /// Transfers issued and not yet reported done.
    inflight: usize,
    pending: PendingQueue<(BlockKey, T)>,
    lru: LruTracker,
}

impl<T: Copy + Eq + Hash> PullCache<T> {
    fn new(block: u64, dst: TierId, max_inflight: usize) -> Self {
        assert!(block > 0 && max_inflight > 0);
        Self {
            block,
            dst,
            max_inflight,
            inflight: 0,
            pending: PendingQueue::new(),
            lru: LruTracker::new(),
        }
    }

    /// The prefetch block size in bytes.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// Indices of the blocks `range` covers.
    pub fn span(&self, range: ByteRange) -> RangeInclusive<u64> {
        range.offset / self.block..=range.end().saturating_sub(1) / self.block
    }

    /// True if `key` is in the LRU.
    pub fn is_cached(&self, key: &BlockKey) -> bool {
        self.lru.contains(key)
    }

    /// Queues `key` for fetching unless it is cached or already queued
    /// with the same tag.
    pub fn request(&mut self, key: BlockKey, tag: T) {
        if !self.lru.contains(&key) {
            self.pending.push((key, tag));
        }
    }

    /// Refreshes every cached block the read of `range` covers.
    fn touch_read(&mut self, file: FileId, range: ByteRange) {
        for block in self.span(range) {
            let key = BlockKey { file, block };
            if self.lru.contains(&key) {
                self.lru.touch(key);
            }
        }
    }

    /// Issues queued requests while the in-flight window has room.
    fn pump<P: Predictor<Tag = T>>(&mut self, predictor: &mut P, ctl: &mut SimCtl<'_>) {
        while self.inflight < self.max_inflight {
            let Some((key, tag)) = self.pending.pop() else { break };
            if predictor.stale(key, tag) {
                continue;
            }
            let range = key.range(self.block, ctl.file_size(key.file));
            if range.is_empty() {
                continue; // past EOF
            }
            if ctl.resident_on(key.file, range, self.dst) {
                self.lru.touch(key);
                continue;
            }
            while ctl.available(self.dst) < range.len {
                match predictor.make_room(self.lru.peek_coldest()) {
                    Room::Evict => {
                        let Some(victim) = self.lru.pop_coldest() else { break };
                        let vrange = victim.range(self.block, ctl.file_size(victim.file));
                        ctl.discard(victim.file, vrange, self.dst);
                    }
                    Room::Fetch => break,
                    Room::Wait => {
                        self.pending.push((key, tag));
                        return;
                    }
                }
            }
            let outcome = ctl.fetch(key.file, range, self.dst);
            if outcome.scheduled > 0 {
                self.inflight += outcome.transfers as usize;
                self.lru.touch(key);
            }
        }
    }
}

/// A client-pull prefetcher: one [`Predictor`] over one LRU block cache.
pub struct PullPrefetcher<P: Predictor> {
    predictor: P,
    cache: PullCache<P::Tag>,
}

impl<P: Predictor> PullPrefetcher<P> {
    /// Runs `predictor` over a cache of `block`-byte blocks on tier `dst`,
    /// with at most `max_inflight` transfers outstanding.
    pub fn from_predictor(predictor: P, block: u64, dst: TierId, max_inflight: usize) -> Self {
        Self { predictor, cache: PullCache::new(block, dst, max_inflight) }
    }

    /// The baseline's own state.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Blocks currently tracked in the cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.lru.len()
    }
}

impl<P: Predictor> PrefetchPolicy for PullPrefetcher<P> {
    fn name(&self) -> &str {
        self.predictor.name()
    }

    fn on_open(
        &mut self,
        file: FileId,
        process: ProcessId,
        _app: AppId,
        _now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.predictor.on_open(file, process, &mut self.cache);
        self.cache.pump(&mut self.predictor, ctl);
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        _now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.cache.touch_read(file, range);
        self.predictor.on_read(file, range, process, app, &mut self.cache);
        self.cache.pump(&mut self.predictor, ctl);
    }

    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        _process: ProcessId,
        _app: AppId,
        _now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        for block in self.cache.span(range) {
            let key = BlockKey { file, block };
            if self.cache.lru.remove(&key) {
                let rest = key.range(self.cache.block, ctl.file_size(file));
                ctl.discard(file, rest, self.cache.dst);
            }
        }
    }

    fn on_transfer_done(&mut self, _done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.cache.inflight -= 1;
        self.cache.pump(&mut self.predictor, ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowPrefetcher;
    use sim::engine::{SimConfig, Simulation};
    use sim::script::{ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{kib, mib, MIB};

    /// A window that logs each transfer's issue and completion time.
    struct Logged {
        inner: WindowPrefetcher,
        spans: Vec<(Timestamp, Timestamp)>,
    }

    impl PrefetchPolicy for Logged {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn on_read(
            &mut self,
            file: FileId,
            range: ByteRange,
            process: ProcessId,
            app: AppId,
            now: Timestamp,
            ctl: &mut SimCtl<'_>,
        ) {
            self.inner.on_read(file, range, process, app, now, ctl);
        }

        fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, ctl: &mut SimCtl<'_>) {
            self.spans.push((done.issued, now));
            self.inner.on_transfer_done(done, now, ctl);
        }
    }

    #[test]
    fn a_block_a_write_invalidated_is_fetched_again() {
        // P0's read caches block 1 ahead; P1 overwrites it; P2's read of
        // block 0 must request and fetch it again before P2 reads it (and
        // P2's read of block 1 requests block 2).
        let h = Hierarchy::ram_only(mib(64));
        let file = FileId(0);
        let files = vec![SimFile { id: file, size: mib(4) }];
        let scripts = vec![
            ScriptBuilder::new(ProcessId(0), AppId(0)).read(file, 0, MIB).build(),
            ScriptBuilder::new(ProcessId(1), AppId(0))
                .compute(Duration::from_millis(100))
                .write(file, MIB, MIB)
                .build(),
            ScriptBuilder::new(ProcessId(2), AppId(0))
                .compute(Duration::from_millis(200))
                .read(file, 0, MIB)
                .compute(Duration::from_millis(100))
                .read(file, MIB, MIB)
                .build(),
        ];
        let policy = WindowPrefetcher::serial(1, MIB, TierId(0));
        let (report, policy) = Simulation::new(SimConfig::new(h), files, scripts, policy).run();
        assert_eq!(report.invalidated_bytes, MIB);
        assert_eq!(report.prefetch_bytes, mib(3), "blocks 1, 1 again and 2: {report:?}");
        assert_eq!(report.hit_bytes(), MIB, "P2 reads the refetched block from RAM");
        assert_eq!(policy.cached_blocks(), 2);
    }

    #[test]
    fn a_sub_block_write_frees_the_rest_of_its_block() {
        // RAM holds one block. P0's read caches block 1 ahead; P1 writes
        // 4 KiB into it, which invalidates only those bytes. The loop must
        // discard the other 1020 KiB, or they would hold RAM untracked and
        // P2's request for block 3 would be denied instead of hitting.
        let h = Hierarchy::ram_only(MIB);
        let file = FileId(0);
        let files = vec![SimFile { id: file, size: mib(4) }];
        let scripts = vec![
            ScriptBuilder::new(ProcessId(0), AppId(0)).read(file, 0, MIB).build(),
            ScriptBuilder::new(ProcessId(1), AppId(0))
                .compute(Duration::from_millis(100))
                .write(file, MIB + kib(4), kib(4))
                .build(),
            ScriptBuilder::new(ProcessId(2), AppId(0))
                .compute(Duration::from_millis(200))
                .read(file, 2 * MIB, MIB)
                .compute(Duration::from_millis(100))
                .read(file, 3 * MIB, MIB)
                .build(),
        ];
        let policy = WindowPrefetcher::serial(1, MIB, TierId(0));
        let (report, policy) = Simulation::new(SimConfig::new(h), files, scripts, policy).run();
        assert_eq!(report.invalidated_bytes, kib(4));
        assert_eq!(report.evicted_bytes, MIB - kib(4), "the rest of block 1 left RAM");
        assert_eq!(report.denied_bytes, 0, "block 3 fit: {report:?}");
        assert_eq!(report.hit_bytes(), MIB, "P2 reads block 3 from RAM");
        assert_eq!(policy.cached_blocks(), 1);
    }

    #[test]
    fn a_split_fetch_holds_one_slot_per_transfer() {
        // A serial window (one slot). P0 and P1 both queue block 2, so the
        // second request pops only after blocks 2-4 landed; in between, P2
        // punches two holes of different sizes into block 2. Re-fetching
        // it then takes two transfers, and block 5 must wait for both.
        let h = Hierarchy::ram_only(mib(64));
        let file = FileId(0);
        let files = vec![SimFile { id: file, size: mib(16) }];
        let scripts = vec![
            ScriptBuilder::new(ProcessId(0), AppId(0)).read(file, 0, MIB).build(),
            ScriptBuilder::new(ProcessId(1), AppId(0))
                .compute(Duration::from_millis(1))
                .read(file, MIB, MIB)
                .build(),
            ScriptBuilder::new(ProcessId(2), AppId(0))
                .compute(Duration::from_millis(35))
                .write(file, 2 * MIB, kib(64))
                .write(file, 2 * MIB + kib(512), kib(256))
                .compute(Duration::from_secs(1))
                .build(),
        ];
        let policy = Logged { inner: WindowPrefetcher::serial(4, MIB, TierId(0)), spans: Vec::new() };
        let (_, policy) = Simulation::new(SimConfig::new(h), files, scripts, policy).run();
        let spans = &policy.spans;
        assert!(
            spans.iter().any(|a| spans.iter().filter(|b| b.0 == a.0).count() == 2),
            "no fetch split into two transfers: {spans:?}"
        );
        for &(issued, _) in spans {
            let outstanding = spans.iter().filter(|&&(i, done)| i < issued && issued < done).count();
            assert_eq!(outstanding, 0, "issued at {issued:?} past a full window: {spans:?}");
        }
    }
}
