//! A KnowAc-like history-based prefetcher.
//!
//! KnowAc \[22\] ("I/O prefetch via accumulated knowledge") stores the
//! accesses seen in a previous run, so "access patterns are known when the
//! same application executes again". In the paper's Fig. 6 it posts "the
//! best read performance … since the prefetcher knows exactly what to load
//! next", but "suffers from prolonged profiling costs" — the profiling run
//! is charged separately (the "Profile-Cost" stack).
//!
//! [`KnowAcLike`] replays a recorded trace: for every read a process
//! issues, the prefetcher fetches that process's next `window` recorded
//! reads into RAM. The harness obtains the trace from the workload scripts
//! (a perfect profile) and reports the profiling cost alongside, exactly
//! as the figure does.

use std::collections::{HashMap, HashSet};

use sim::script::{Op, RankScript};
use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;

use crate::lru::BlockKey;
use crate::pull::{Predictor, PullCache, PullPrefetcher, Room};

/// One recorded access in the profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// File read.
    pub file: FileId,
    /// Range read.
    pub range: ByteRange,
}

/// History-based prefetcher replaying a recorded profile.
pub type KnowAcLike = PullPrefetcher<Replay>;

/// Replay of a recorded per-process read trace.
pub struct Replay {
    /// Per-process recorded read sequence.
    trace: HashMap<ProcessId, Vec<TraceEntry>>,
    /// Per-process replay cursor.
    cursor: HashMap<ProcessId, usize>,
    /// How many future accesses to keep prefetched per process.
    window: usize,
    /// Cached blocks that have been read since they were prefetched.
    /// Eviction only recycles consumed blocks: evicting data the
    /// application has not read yet would be pure churn (fetch, evict,
    /// refetch), so when the cache is full of unconsumed prefetches the
    /// prefetcher applies backpressure instead.
    consumed: HashSet<BlockKey>,
    /// Reads that deviated from the recorded history.
    deviations: u64,
}

impl KnowAcLike {
    /// Builds the prefetcher from an explicit trace.
    pub fn new(
        trace: HashMap<ProcessId, Vec<TraceEntry>>,
        window: usize,
        block: u64,
        dst: TierId,
        max_inflight: usize,
    ) -> Self {
        assert!(window > 0);
        let replay = Replay {
            trace,
            cursor: HashMap::new(),
            window,
            consumed: HashSet::new(),
            deviations: 0,
        };
        Self::from_predictor(replay, block, dst, max_inflight)
    }

    /// Profiles a workload by extracting every read op from its scripts —
    /// the "previous run" KnowAc requires. The cost of that run is charged
    /// by the harness as profile cost.
    pub fn from_scripts(
        scripts: &[RankScript],
        window: usize,
        block: u64,
        dst: TierId,
        max_inflight: usize,
    ) -> Self {
        let mut trace: HashMap<ProcessId, Vec<TraceEntry>> = HashMap::new();
        for script in scripts {
            let entries = trace.entry(script.process).or_default();
            for op in &script.ops {
                if let Op::Read { file, range } = op {
                    entries.push(TraceEntry { file: *file, range: *range });
                }
            }
        }
        Self::new(trace, window, block, dst, max_inflight)
    }
}

impl Replay {
    /// Reads that did not match the recorded history.
    pub fn deviations(&self) -> u64 {
        self.deviations
    }

    /// Requests the blocks of `process`'s next `window` recorded reads.
    fn stage(&mut self, process: ProcessId, cache: &mut PullCache<(ProcessId, u32)>) {
        let cursor = *self.cursor.entry(process).or_insert(0);
        let Some(entries) = self.trace.get(&process) else { return };
        for (pos, entry) in entries.iter().enumerate().skip(cursor).take(self.window) {
            for block in cache.span(entry.range) {
                cache.request(BlockKey { file: entry.file, block }, (process, pos as u32));
            }
        }
    }
}

impl Predictor for Replay {
    /// The requesting process and the trace position it was staged for.
    type Tag = (ProcessId, u32);

    fn name(&self) -> &str {
        "knowac"
    }

    fn on_open(&mut self, _file: FileId, process: ProcessId, cache: &mut PullCache<Self::Tag>) {
        // The history tells us what this process reads first: stage its
        // initial window immediately.
        self.stage(process, cache);
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        _app: AppId,
        cache: &mut PullCache<Self::Tag>,
    ) {
        let cursor = self.cursor.entry(process).or_insert(0);
        let entries = self.trace.get(&process).map_or(&[][..], Vec::as_slice);
        if entries.get(*cursor).is_some_and(|e| e.file == file && e.range == range) {
            *cursor += 1;
        } else {
            self.deviations += 1;
            // Resynchronize: find the next matching entry.
            if let Some(pos) =
                entries.iter().skip(*cursor).position(|e| e.file == file && e.range == range)
            {
                *cursor += pos + 1;
            }
        }
        // Mark the cached blocks just read as consumed (evictable), then
        // stage the next window.
        for block in cache.span(range) {
            let key = BlockKey { file, block };
            if cache.is_cached(&key) {
                self.consumed.insert(key);
            }
        }
        self.stage(process, cache);
    }

    /// The process already replayed past this trace position: fetching
    /// the block now would only clog the cache.
    fn stale(&self, _key: BlockKey, (process, pos): Self::Tag) -> bool {
        self.cursor.get(&process).copied().unwrap_or(0) > pos as usize
    }

    /// Recycle only blocks the application has already read; with none,
    /// back off until reads free space.
    fn make_room(&mut self, coldest: Option<BlockKey>) -> Room {
        match coldest {
            Some(victim) if self.consumed.remove(&victim) => Room::Evict,
            _ => Room::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::policy::NoPrefetch;
    use sim::script::{ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    fn strided_scripts(ranks: u32) -> (Vec<SimFile>, Vec<RankScript>) {
        let files = vec![SimFile { id: FileId(0), size: mib(256) }];
        let scripts = (0..ranks)
            .map(|i| {
                let mut b = ScriptBuilder::new(ProcessId(i), AppId(0)).open(FileId(0));
                // A pattern a stride detector would struggle with but a
                // recorded history replays perfectly.
                for k in 0..16u64 {
                    let offset = ((k * 37 + i as u64 * 11) % 250) * MIB;
                    b = b.compute(Duration::from_millis(40)).read(FileId(0), offset, MIB);
                }
                b.close(FileId(0)).build()
            })
            .collect();
        (files, scripts)
    }

    #[test]
    fn trace_extraction_captures_reads_in_order() {
        let (_, scripts) = strided_scripts(2);
        let k = KnowAcLike::from_scripts(&scripts, 4, MIB, TierId(0), 4);
        let trace = &k.predictor().trace;
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[&ProcessId(0)].len(), 16);
        assert_eq!(trace[&ProcessId(1)].len(), 16);
        assert_eq!(trace[&ProcessId(0)][0].range.offset, 0);
    }

    #[test]
    fn replay_gets_near_perfect_hits() {
        let h = Hierarchy::ram_only(mib(64));
        let (files, scripts) = strided_scripts(4);
        let k = KnowAcLike::from_scripts(&scripts, 4, MIB, TierId(0), 8);
        let (report, policy) =
            Simulation::new(SimConfig::new(h.clone()), files.clone(), scripts.clone(), k).run();
        let (none, _) = Simulation::new(SimConfig::new(h), files, scripts, NoPrefetch).run();
        assert_eq!(policy.predictor().deviations(), 0, "trace matches the run");
        assert!(
            report.hit_ratio().unwrap() > 0.8,
            "history replay hits: {:?}",
            report.hit_ratio()
        );
        assert!(report.seconds() < none.seconds());
    }

    #[test]
    fn deviation_resynchronizes() {
        // The trace says reads at 0,1,2 MiB but the run reads 0,2 MiB: the
        // prefetcher counts one deviation and keeps going.
        let trace: HashMap<ProcessId, Vec<TraceEntry>> = HashMap::from([(
            ProcessId(0),
            vec![
                TraceEntry { file: FileId(0), range: ByteRange::new(0, MIB) },
                TraceEntry { file: FileId(0), range: ByteRange::new(MIB, MIB) },
                TraceEntry { file: FileId(0), range: ByteRange::new(2 * MIB, MIB) },
            ],
        )]);
        let h = Hierarchy::ram_only(mib(16));
        let files = vec![SimFile { id: FileId(0), size: mib(16) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .read(FileId(0), 2 * MIB, MIB)
            .close(FileId(0))
            .build()];
        let k = KnowAcLike::new(trace, 2, MIB, TierId(0), 4);
        let (_, policy) = Simulation::new(SimConfig::new(h), files, scripts, k).run();
        assert_eq!(policy.predictor().deviations(), 1);
    }

    #[test]
    fn unknown_process_is_harmless() {
        let h = Hierarchy::ram_only(mib(16));
        let files = vec![SimFile { id: FileId(0), size: mib(16) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let k = KnowAcLike::new(HashMap::new(), 2, MIB, TierId(0), 4);
        let (report, policy) = Simulation::new(SimConfig::new(h), files, scripts, k).run();
        assert_eq!(report.hit_ratio(), Some(0.0));
        assert_eq!(policy.predictor().deviations(), 1);
    }
}
