//! The in-memory prefetchers of Fig. 4(b).
//!
//! Both confine their prefetch cache to RAM (tier 0), which is the point
//! of the experiment: as the workload scales past the RAM budget they
//! thrash, while HFetch overflows into NVMe and burst buffers.
//!
//! * [`InMemoryOptimal`] — "each process brings data into its own cache":
//!   the RAM budget is partitioned per process; a process's readahead can
//!   only evict *its own* blocks, so processes never pollute each other.
//! * [`InMemoryNaive`] — "each process competes for access to the
//!   prefetching cache": one shared pool, global LRU, every process's
//!   readahead evicts whoever is coldest — including blocks another
//!   process is about to read. Under pressure, its prefetch traffic plus
//!   the refetches it causes make it *slower than no prefetching*, exactly
//!   as the paper observes.

use std::collections::HashMap;

use sim::engine::SimCtl;
use sim::policy::{PrefetchPolicy, TransferDone};
use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;

use crate::lru::{BlockKey, LruTracker, PendingQueue};
use crate::pull::{Predictor, PullCache, PullPrefetcher};

struct ProcState {
    lru: LruTracker,
    used: u64,
    pending: PendingQueue,
    inflight: usize,
    /// Largest read this process has issued; if the partition cannot hold
    /// a request plus one readahead block, prefetching would evict blocks
    /// before they are read — a well-behaved per-process prefetcher backs
    /// off instead of thrashing itself.
    max_request: u64,
}

impl ProcState {
    fn new() -> Self {
        Self {
            lru: LruTracker::new(),
            used: 0,
            pending: PendingQueue::new(),
            inflight: 0,
            max_request: 0,
        }
    }
}

/// Per-process partitioned in-memory prefetcher ("in-memory optimal").
///
/// It does not run the shared [`PullPrefetcher`] loop. Its room is its own
/// partition's bookkeeping (`used` against `quota`), not the tier's free
/// bytes, and it tests its own LRU instead of the tier's residency, so a
/// block in another partition is fetched again rather than shared.
pub struct InMemoryOptimal {
    quota: u64,
    depth: u64,
    block: u64,
    dst: TierId,
    max_inflight: usize,
    procs: HashMap<ProcessId, ProcState>,
    owner: HashMap<BlockKey, ProcessId>,
}

impl InMemoryOptimal {
    /// `cache_bytes` split evenly across `processes`; readahead `depth`
    /// blocks of `block` bytes, `max_inflight` outstanding per process.
    pub fn new(
        cache_bytes: u64,
        processes: u32,
        depth: u64,
        block: u64,
        max_inflight: usize,
    ) -> Self {
        assert!(processes > 0 && block > 0 && depth > 0 && max_inflight > 0);
        let quota = cache_bytes / processes as u64;
        // Readahead deeper than the partition would evict blocks before
        // they are read (self-thrashing); the "optimal" prefetcher knows
        // its own budget and caps the window accordingly.
        let depth = depth.min((quota / block).max(1));
        Self {
            quota,
            depth,
            block,
            dst: TierId(0),
            max_inflight,
            procs: HashMap::new(),
            owner: HashMap::new(),
        }
    }

    /// The per-process byte quota.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    fn pump(&mut self, process: ProcessId, ctl: &mut SimCtl<'_>) {
        let state = self.procs.entry(process).or_insert_with(ProcState::new);
        if self.quota < state.max_request + self.block {
            // Partition too small for this process's requests: back off.
            while state.pending.pop().is_some() {}
            return;
        }
        while state.inflight < self.max_inflight {
            let Some(key) = state.pending.pop() else { break };
            let range = key.range(self.block, ctl.file_size(key.file));
            if range.is_empty() || state.lru.contains(&key) {
                continue;
            }
            if range.len > self.quota {
                continue; // cannot ever fit in this partition
            }
            // Evict from *own* partition only.
            while state.used + range.len > self.quota {
                let Some(victim) = state.lru.pop_coldest() else { break };
                let vrange = victim.range(self.block, ctl.file_size(victim.file));
                let dropped = ctl.discard(victim.file, vrange, self.dst);
                state.used = state.used.saturating_sub(dropped.max(vrange.len));
                self.owner.remove(&victim);
            }
            let outcome = ctl.fetch(key.file, range, self.dst);
            if outcome.scheduled > 0 {
                state.inflight += outcome.transfers as usize;
                state.lru.touch(key);
                state.used += range.len;
                self.owner.insert(key, process);
            }
        }
    }
}

impl PrefetchPolicy for InMemoryOptimal {
    fn name(&self) -> &str {
        "inmem-optimal"
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        _app: AppId,
        _now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        let last = (range.end().saturating_sub(1)) / self.block;
        {
            let state = self.procs.entry(process).or_insert_with(ProcState::new);
            state.max_request = state.max_request.max(range.len);
            for step in 1..=self.depth {
                let key = BlockKey { file, block: last + step };
                if !state.lru.contains(&key) {
                    state.pending.push(key);
                }
            }
            // Refresh blocks this read used.
            let first = range.offset / self.block;
            for b in first..=last {
                let key = BlockKey { file, block: b };
                if state.lru.contains(&key) {
                    state.lru.touch(key);
                }
            }
        }
        self.pump(process, ctl);
    }

    fn on_transfer_done(&mut self, done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        let key = BlockKey { file: done.file, block: done.range.offset / self.block };
        if let Some(owner) = self.owner.get(&key).copied() {
            if let Some(state) = self.procs.get_mut(&owner) {
                state.inflight -= 1;
            }
            self.pump(owner, ctl);
        }
    }
}

/// Shared-pool in-memory prefetcher ("in-memory naive").
pub type InMemoryNaive = PullPrefetcher<SharedReadahead>;

/// Readahead of the next `depth` blocks after each read, into one pool
/// every process shares. The pull loop's global LRU evicts whoever is
/// coldest, no matter whose readahead it was (cache pollution in action).
pub struct SharedReadahead {
    depth: u64,
}

impl InMemoryNaive {
    /// Readahead `depth` blocks of `block` bytes per read, shared cache,
    /// `max_inflight` total outstanding transfers.
    pub fn new(depth: u64, block: u64, max_inflight: usize) -> Self {
        assert!(depth > 0);
        Self::from_predictor(SharedReadahead { depth }, block, TierId(0), max_inflight)
    }
}

impl Predictor for SharedReadahead {
    type Tag = ();

    fn name(&self) -> &str {
        "inmem-naive"
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        _process: ProcessId,
        _app: AppId,
        cache: &mut PullCache<()>,
    ) {
        let last = *cache.span(range).end();
        for step in 1..=self.depth {
            cache.request(BlockKey { file, block: last + step }, ());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::policy::NoPrefetch;
    use sim::script::{RankScript, ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    fn workload(ranks: u32, per_rank: u64) -> (Vec<SimFile>, Vec<RankScript>) {
        let files = vec![SimFile { id: FileId(0), size: per_rank * ranks as u64 }];
        let scripts = (0..ranks)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(0))
                    .open(FileId(0))
                    .timestep_reads(
                        FileId(0),
                        i as u64 * per_rank,
                        MIB,
                        (per_rank / MIB) as u32,
                        Duration::from_millis(30),
                    )
                    .close(FileId(0))
                    .build()
            })
            .collect();
        (files, scripts)
    }

    #[test]
    fn both_work_when_everything_fits() {
        let h = Hierarchy::ram_only(mib(256));
        let (files, scripts) = workload(4, mib(16));
        let (opt, _) = Simulation::new(
            SimConfig::new(h.clone()),
            files.clone(),
            scripts.clone(),
            InMemoryOptimal::new(mib(256), 4, 4, MIB, 4),
        )
        .run();
        let (naive, _) = Simulation::new(
            SimConfig::new(h.clone()),
            files.clone(),
            scripts.clone(),
            InMemoryNaive::new(4, MIB, 16),
        )
        .run();
        let (none, _) =
            Simulation::new(SimConfig::new(h), files, scripts, NoPrefetch).run();
        assert!(opt.hit_ratio().unwrap() > 0.7, "optimal {:?}", opt.hit_ratio());
        assert!(naive.hit_ratio().unwrap() > 0.7, "naive {:?}", naive.hit_ratio());
        assert!(opt.seconds() < none.seconds());
        assert!(naive.seconds() < none.seconds());
    }

    #[test]
    fn optimal_partitions_never_exceed_quota() {
        let p = InMemoryOptimal::new(mib(64), 8, 4, MIB, 2);
        assert_eq!(p.quota(), mib(8));
    }

    #[test]
    fn optimal_beats_naive_under_pressure() {
        // 8 ranks × 32 MiB = 256 MiB of data over a 16 MiB RAM cache.
        let h = Hierarchy::ram_only(mib(16));
        let (files, scripts) = workload(8, mib(32));
        let (opt, _) = Simulation::new(
            SimConfig::new(h.clone()),
            files.clone(),
            scripts.clone(),
            InMemoryOptimal::new(mib(16), 8, 2, MIB, 2),
        )
        .run();
        let (naive, _) = Simulation::new(
            SimConfig::new(h),
            files,
            scripts,
            InMemoryNaive::new(8, MIB, 32),
        )
        .run();
        assert!(
            opt.seconds() <= naive.seconds() * 1.05,
            "optimal {} should not lose to naive {}",
            opt.seconds(),
            naive.seconds()
        );
        // The naive prefetcher moves far more bytes for the same workload
        // (pollution → refetch churn).
        assert!(
            naive.prefetch_bytes + naive.evicted_bytes
                >= opt.prefetch_bytes + opt.evicted_bytes,
            "naive churn {}+{} vs optimal {}+{}",
            naive.prefetch_bytes,
            naive.evicted_bytes,
            opt.prefetch_bytes,
            opt.evicted_bytes
        );
    }
}
