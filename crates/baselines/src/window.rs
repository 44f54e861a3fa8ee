//! Windowed readahead prefetchers: the serial and parallel baselines.
//!
//! Fig. 4(a) compares HFetch against "a serial prefetcher" and "a parallel
//! prefetcher" (four prefetching threads) that fetch ahead of sequential
//! reads into a single RAM cache. [`WindowPrefetcher`] is both: per-process
//! readahead of the next `depth` blocks over the shared pull loop, with at
//! most `max_inflight` outstanding transfers.

use std::collections::HashMap;

use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;

use crate::lru::BlockKey;
use crate::pull::{Predictor, PullCache, PullPrefetcher};

/// Client-pull readahead with a bounded in-flight window.
pub type WindowPrefetcher = PullPrefetcher<Window>;

/// Readahead of the next `depth` blocks after each read.
pub struct Window {
    name: &'static str,
    depth: u64,
    /// Highest block each process has read per file: readahead requests
    /// the reader has already passed are stale and get pruned, so a slow
    /// (serial) window spends its budget at the front of the stream.
    position: HashMap<(ProcessId, FileId), u64>,
}

impl WindowPrefetcher {
    /// Readahead of `depth` blocks of `block` bytes into `dst`, with at
    /// most `max_inflight` transfers ("prefetching threads") outstanding.
    pub fn new(
        name: &'static str,
        max_inflight: usize,
        depth: u64,
        block: u64,
        dst: TierId,
    ) -> Self {
        assert!(depth > 0);
        let window = Window { name, depth, position: HashMap::new() };
        Self::from_predictor(window, block, dst, max_inflight)
    }

    /// The paper's serial prefetcher: one outstanding transfer.
    pub fn serial(depth: u64, block: u64, dst: TierId) -> Self {
        Self::new("serial", 1, depth, block, dst)
    }

    /// The paper's parallel prefetcher: `threads` outstanding transfers
    /// (4 in the evaluation).
    pub fn parallel(threads: usize, depth: u64, block: u64, dst: TierId) -> Self {
        Self::new("parallel", threads, depth, block, dst)
    }
}

impl Predictor for Window {
    type Tag = ProcessId;

    fn name(&self) -> &str {
        self.name
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        _app: AppId,
        cache: &mut PullCache<ProcessId>,
    ) {
        let last = *cache.span(range).end();
        let pos = self.position.entry((process, file)).or_insert(0);
        *pos = (*pos).max(last);
        for step in 1..=self.depth {
            cache.request(BlockKey { file, block: last + step }, process);
        }
    }

    /// The requester has already read past this block.
    fn stale(&self, key: BlockKey, requester: ProcessId) -> bool {
        self.position.get(&(requester, key.file)).is_some_and(|&pos| key.block <= pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::policy::{NoPrefetch, PrefetchPolicy};
    use sim::script::{RankScript, ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{gib, mib, MIB};

    fn sequential(ranks: u32, per_rank: u64, steps: u32, compute: Duration) -> (Vec<SimFile>, Vec<RankScript>) {
        let files = vec![SimFile { id: FileId(0), size: per_rank * ranks as u64 }];
        let scripts = (0..ranks)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(0))
                    .open(FileId(0))
                    .timestep_reads(
                        FileId(0),
                        i as u64 * per_rank,
                        per_rank / steps as u64,
                        steps,
                        compute,
                    )
                    .close(FileId(0))
                    .build()
            })
            .collect();
        (files, scripts)
    }

    #[test]
    fn parallel_beats_serial_beats_none() {
        // 4 ranks reading 1 MiB every 25 ms demand ~160 MiB/s. One
        // outstanding PFS transfer sustains ~77 MiB/s (serial falls
        // behind); four sustain ~307 MiB/s (parallel keeps up).
        let h = Hierarchy::ram_only(gib(1));
        let (files, scripts) = sequential(4, mib(64), 64, Duration::from_millis(25));
        let run = |p: Box<dyn PrefetchPolicy>| {
            Simulation::new(SimConfig::new(h.clone()), files.clone(), scripts.clone(), p)
                .run()
                .0
        };
        let none = run(Box::new(NoPrefetch));
        let serial = run(Box::new(WindowPrefetcher::serial(4, MIB, TierId(0))));
        let parallel = run(Box::new(WindowPrefetcher::parallel(4, 4, MIB, TierId(0))));
        assert!(
            parallel.seconds() < serial.seconds(),
            "parallel {} < serial {}",
            parallel.seconds(),
            serial.seconds()
        );
        assert!(
            serial.seconds() < none.seconds(),
            "serial {} < none {}",
            serial.seconds(),
            none.seconds()
        );
        assert!(parallel.hit_ratio().unwrap() > serial.hit_ratio().unwrap());
        assert!(parallel.hit_ratio().unwrap() > 0.7, "{:?}", parallel.hit_ratio());
    }

    #[test]
    fn lru_eviction_bounds_cache_usage() {
        // Cache of 4 MiB, workload streams 64 MiB: usage must stay bounded.
        let h = Hierarchy::ram_only(mib(4));
        let (files, scripts) = sequential(1, mib(64), 64, Duration::from_millis(10));
        let p = WindowPrefetcher::parallel(2, 2, MIB, TierId(0));
        let (report, policy) =
            Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert!(report.tiers[0].peak_bytes <= mib(4));
        assert!(report.evicted_bytes > 0, "streaming must evict");
        assert!(policy.cached_blocks() <= 4, "tracked {}", policy.cached_blocks());
    }

    #[test]
    fn a_write_invalidates_the_readahead_block() {
        let h = Hierarchy::ram_only(mib(8));
        let files = vec![SimFile { id: FileId(0), size: mib(8) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .read(FileId(0), 0, MIB)
            .compute(Duration::from_millis(500))
            .write(FileId(0), MIB, MIB) // clobber the readahead block
            .read(FileId(0), MIB, MIB)
            .build()];
        let p = WindowPrefetcher::serial(2, MIB, TierId(0));
        let (report, _) = Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert!(report.invalidated_bytes >= MIB);
    }

    #[test]
    #[should_panic(expected = "max_inflight > 0")]
    fn zero_window_rejected() {
        let _ = WindowPrefetcher::new("x", 0, 1, 1, TierId(0));
    }
}
