//! The File Segment Auditor (§III-A.2).
//!
//! The auditor turns the enriched event feed into per-segment knowledge:
//!
//! * **frequency** — how many times each segment was accessed,
//! * **recency** — when it was last accessed (folded into the decaying
//!   score of Eq. 1),
//! * **sequencing** — which segment preceded it, per process; distinct
//!   predecessors raise the segment's reference count `n`, slowing decay,
//! * **epochs** — a file is targeted for prefetching only while open for
//!   reading (fopen→fclose); the first opener starts the epoch, the last
//!   closer ends it,
//! * **heatmaps** — on epoch end the score vector is persisted; a re-open
//!   reloads it, giving repeat phases (Montage re-projection, WRF
//!   iterations) instant history without offline profiling.
//!
//! Statistics live in the distributed hashmap ([`dht::DistributedMap`]), so
//! updates from any process are atomic and globally visible — the paper's
//! "global view … while avoiding a global synchronization barrier".
//! Updated scores are pushed into a vector the placement engine drains
//! ("All updated scores are pushed by the auditor into a vector which the
//! engine processes", §III-D).
//!
//! Epoch staging costs no work per segment: segments whose heatmap history
//! beats the base score get explicit updates, the rest one base-score
//! [`Fill`] for the whole file, and their score states start from a seed
//! kept with the file's size instead of one statistics entry per segment.
//! Every stored statistic has been read at least once. A re-open also
//! reads ahead past each run of read segments, by the run's once-read
//! advance in the last epoch.

use std::sync::Arc;

use dht::FxHashMap;
use parking_lot::{Mutex, MutexGuard};
use tiers::ids::{FileId, ProcessId, SegmentId};
use tiers::range::{segment_count, segment_range, segments_of_request, ByteRange};
use tiers::time::Timestamp;

use crate::config::{HFetchConfig, LOOKAHEAD_DECAY};
use crate::heatmap::{FileHeatmap, HeatmapStore};
use crate::scoring::ScoreState;
use crate::update_queue::{Fill, StripedMap, StripedUpdateQueue, UpdateBatch};

/// Maximum distinct predecessors tracked per segment (`n` saturates here).
const MAX_PREDECESSORS: usize = 8;

/// Per-segment statistics, stored in the distributed hashmap.
#[derive(Clone, Debug, Default)]
pub struct SegmentStat {
    /// Total accesses observed.
    pub frequency: u64,
    /// Time of the most recent access.
    pub last_access: Timestamp,
    /// Distinct predecessor segments observed (sequencing; capped).
    pub predecessors: Vec<SegmentId>,
    /// Decaying Eq. 1 score state.
    pub score: ScoreState,
}

impl SegmentStat {
    /// The reference count `n ≥ 1` of Eq. 1.
    pub fn n(&self) -> u32 {
        (self.predecessors.len() as u32).max(1)
    }
}

/// One score change, consumed by the placement engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreUpdate {
    /// Segment whose score changed.
    pub segment: SegmentId,
    /// The new score.
    pub score: f64,
    /// Segment size in bytes (last segment of a file may be short).
    pub size: u64,
    /// True if this update anticipates a *future* access (sequencing
    /// lookahead or epoch staging) rather than recording an observed one.
    pub anticipated: bool,
}

/// Lock acquisitions across the ingestion path, by lock family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestLockStats {
    /// Statistics-map shard locks; each shard holds its segments'
    /// statistics and their pending updates.
    pub map_shard: u64,
    /// Auxiliary mutexes: the per-file, per-process and epoch tables, and
    /// the update queue's pending fills.
    pub auxiliary: u64,
}

impl IngestLockStats {
    /// Total acquisitions across all families.
    pub fn total(&self) -> u64 {
        self.map_shard + self.auxiliary
    }
}

/// The score states a file's never-read segments start from, set by the
/// latest staging. Replaced as a whole, never mutated in place.
#[derive(Clone, Debug, Default)]
struct Seeds {
    /// Segments staged from heatmap history, above the base score.
    explicit: FxHashMap<u64, ScoreState>,
    /// The base-score seed of every other segment below the count.
    fill: Option<(ScoreState, u64)>,
}

impl Seeds {
    fn get(&self, index: u64) -> Option<ScoreState> {
        self.explicit
            .get(&index)
            .copied()
            .or_else(|| self.fill.filter(|&(_, segments)| index < segments).map(|(s, _)| s))
    }
}

/// What the auditor keeps per file.
#[derive(Default)]
struct FileEntry {
    size: u64,
    seeds: Option<Arc<Seeds>>,
}

/// What the auditor keeps beside the statistics, behind one lock.
#[derive(Default)]
struct Aux {
    files: FxHashMap<FileId, FileEntry>,
    /// The last segment each process read (sequencing).
    last_by_process: FxHashMap<ProcessId, SegmentId>,
    /// Open epochs: concurrent openers per file.
    epoch_refs: FxHashMap<FileId, u32>,
    /// Acquisitions of this lock (ingestion telemetry).
    locks: u64,
}

/// The File Segment Auditor.
pub struct Auditor {
    cfg: HFetchConfig,
    /// Segment statistics; each shard also holds the stripe of pending
    /// updates for its segments.
    stats: StripedMap<SegmentStat>,
    aux: Mutex<Aux>,
    updates: StripedUpdateQueue,
    heatmaps: Arc<HeatmapStore>,
    /// Simulated timestamp of the oldest score update queued since the last
    /// drain. Only touched when `cfg.obs` is enabled (the policy reads it at
    /// drain time to record ingest→drain latency), so the ingestion hot path
    /// stays lock-free with observability off.
    pending_since: Mutex<Option<Timestamp>>,
}

impl Auditor {
    /// Creates an auditor with an in-memory heatmap store.
    pub fn new(cfg: HFetchConfig) -> Self {
        Self::with_heatmaps(cfg, Arc::new(HeatmapStore::in_memory()))
    }

    /// Creates an auditor sharing an existing heatmap store.
    pub fn with_heatmaps(cfg: HFetchConfig, heatmaps: Arc<HeatmapStore>) -> Self {
        cfg.validate();
        Self {
            cfg,
            stats: StripedMap::default(),
            aux: Mutex::default(),
            updates: StripedUpdateQueue::default(),
            heatmaps,
            pending_since: Mutex::new(None),
        }
    }

    /// Stamps the ingest side of the ingest→drain latency span: the first
    /// update queued after a drain records its simulated arrival time.
    /// No-op (one branch) when observability is disabled.
    fn note_ingest(&self, now: Timestamp) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        let mut since = self.pending_since.lock();
        if since.is_none() {
            *since = Some(now);
        }
    }

    /// Takes the arrival stamp of the oldest update queued since the last
    /// call (the drain side of the ingest→drain latency span). Always
    /// `None` when observability is disabled.
    pub fn take_pending_since(&self) -> Option<Timestamp> {
        if !self.cfg.obs.is_enabled() {
            return None;
        }
        self.pending_since.lock().take()
    }

    /// The configuration in force.
    pub fn config(&self) -> &HFetchConfig {
        &self.cfg
    }

    /// Locks the auxiliary tables, counting the acquisition.
    fn aux(&self) -> MutexGuard<'_, Aux> {
        let mut aux = self.aux.lock();
        aux.locks += 1;
        aux
    }

    /// Registers (or grows) a file's size so segment indices can be
    /// bounded.
    pub fn set_file_size(&self, file: FileId, size: u64) {
        let mut aux = self.aux();
        let entry = aux.files.entry(file).or_default();
        entry.size = entry.size.max(size);
    }

    /// The recorded size of `file`.
    pub fn file_size(&self, file: FileId) -> u64 {
        self.file_entry(file).0
    }

    /// The recorded size of `file` and its staging seeds, under one lock.
    fn file_entry(&self, file: FileId) -> (u64, Option<Arc<Seeds>>) {
        self.aux().files.get(&file).map_or((0, None), |e| (e.size, e.seeds.clone()))
    }

    /// Lock acquisitions across the ingestion path since construction.
    /// The `ingest` benchmark divides this by events processed to get its
    /// locks-per-event figure. Reading them takes the locks uncounted.
    pub fn ingest_lock_stats(&self) -> IngestLockStats {
        IngestLockStats {
            map_shard: self.stats.snapshot().shard_locks,
            auxiliary: self.aux.lock().locks + self.updates.lock_acquisitions(),
        }
    }

    /// Exports the statistics map's shard counters (inserts, hits, lock
    /// acquisitions, …) into the configured recorder under `dht.map.*`,
    /// plus the ingestion-contention telemetry: lock acquisitions by
    /// family ([`IngestLockStats`]) and the update queue's level. The
    /// counters are cumulative since construction: export once per run
    /// (the obs-diff gate watches them for regressions in the ingestion
    /// path).
    pub fn export_obs(&self) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        self.stats.snapshot().export_obs(&self.cfg.obs);
        let locks = self.ingest_lock_stats();
        let o = &self.cfg.obs;
        o.counter_add("ingest.locks.map_shard", obs::Label::None, locks.map_shard);
        o.counter_add("ingest.locks.auxiliary", obs::Label::None, locks.auxiliary);
        o.gauge_set("ingest.queue.pending", obs::Label::None, self.updates.pending());
    }

    /// Starts (or joins) a prefetching epoch for `file`. Returns true for
    /// the first concurrent opener. The first opener stages the file:
    /// every segment gets an anticipated update — heatmap history if
    /// available, otherwise the configured base score — so the engine can
    /// pre-load hot regions before the first read. Segments whose history
    /// beats the base get explicit updates; the rest share one [`Fill`].
    /// A never-read segment's score state starts from its staged score at
    /// `now`, kept as a per-file seed.
    ///
    /// With a heatmap, each *run* — a maximal stretch of consecutive
    /// segments with statistics — also stages its *advance* past its end:
    /// as many segments as its trailing segments read exactly once, each
    /// scored as the run end's decayed history times [`LOOKAHEAD_DECAY`]
    /// per step, stopping at end of file, at a segment with history, and where
    /// the score no longer beats the base. Readahead keeps no seed, so an
    /// unread readahead segment never lengthens a later run. A heatmap
    /// saved under another segment size is ignored.
    pub fn start_epoch(&self, file: FileId, now: Timestamp) -> bool {
        let first = {
            let mut aux = self.aux();
            let count = aux.epoch_refs.entry(file).or_insert(0);
            *count += 1;
            *count == 1
        };
        if !first {
            return false;
        }
        self.cfg
            .obs
            .trace_event(obs::TraceEvent::EpochStart { at: now.as_nanos(), file: file.0 });
        let size = self.file_size(file);
        let segments = segment_count(size, self.cfg.segment_size);
        let base = self.cfg.epoch_base_score;
        let staged_at = |index: u64, score: f64| ScoreUpdate {
            segment: SegmentId::new(file, index),
            score,
            size: segment_range(index, self.cfg.segment_size, size).len,
            anticipated: true,
        };
        let mut explicit: Vec<ScoreUpdate> = Vec::new();
        let mut ahead: Vec<ScoreUpdate> = Vec::new();
        // A heatmap indexed by another segment size names other byte ranges.
        let history = self.heatmaps.load(file).filter(|h| h.segment_size == self.cfg.segment_size);
        if let Some(h) = history {
            // Decay the stored scores from their snapshot time to now.
            let decay = self.cfg.score.decay(now.since(h.saved_at), 1);
            // Stages the advance of a run of observed segments past its
            // end: its end's index and decayed score, and how many of its
            // trailing segments were read exactly once.
            let mut read_ahead = |(end, mut score, once): (u64, f64, u64)| {
                for index in (end + 1..segments).take(once as usize) {
                    score *= LOOKAHEAD_DECAY;
                    if h.score(index) > 0.0 || score <= base.max(0.0) {
                        break;
                    }
                    ahead.push(staged_at(index, score));
                }
            };
            let mut run: Option<(u64, f64, u64)> = None;
            for &(index, stored) in h.entries().iter().take_while(|&&(index, _)| index < segments) {
                // A segment without an entry scored 0 and ends the run.
                if run.is_some_and(|(end, _, _)| end + 1 < index) {
                    run.take().into_iter().for_each(&mut read_ahead);
                }
                let score = stored * decay;
                if score > base.max(0.0) {
                    explicit.push(staged_at(index, score));
                }
                // A run is observed segments only: a seed staged earlier has
                // history but no statistics. Every segment with statistics
                // has history, as the last close snapshots it.
                let frequency = (stored > 0.0)
                    .then(|| self.frequency(SegmentId::new(file, index)))
                    .flatten();
                match frequency {
                    Some(frequency) => {
                        let once = run.map_or(0, |(_, _, once)| once);
                        run = Some((index, score, if frequency == 1 { once + 1 } else { 0 }));
                    }
                    None => run.take().into_iter().for_each(&mut read_ahead),
                }
            }
            run.into_iter().for_each(read_ahead);
        }
        let fill = (base > 0.0 && segments > 0)
            .then(|| Fill::new(file, size, self.cfg.segment_size, base));
        let seeded = |score: f64| {
            let mut state = ScoreState::new();
            state.seed(score, now);
            state
        };
        {
            let mut aux = self.aux();
            if let Some(entry) = aux.files.get_mut(&file) {
                // A fill re-seeds every segment; without one, earlier seeds
                // of segments not staged now stay as they were.
                let mut seeds = match (&fill, entry.seeds.take()) {
                    (None, Some(old)) => Arc::unwrap_or_clone(old),
                    _ => Seeds::default(),
                };
                for u in &explicit {
                    seeds.explicit.insert(u.segment.index, seeded(u.score));
                }
                seeds.fill = fill.as_ref().map(|_| (seeded(base), segments));
                if seeds.fill.is_some() || !seeds.explicit.is_empty() {
                    entry.seeds = Some(Arc::new(seeds));
                }
            }
        }
        // Readahead keeps no seed: a segment it staged and nobody read has
        // no history at the next epoch, so readahead cannot compound.
        if !ahead.is_empty() {
            let o = &self.cfg.obs;
            o.counter_add("auditor.staged.readahead", obs::Label::None, ahead.len() as u64);
            explicit.append(&mut ahead);
        }
        // The fill first: it rewrites the file's pending slots to the base
        // score, and the explicit updates then overwrite theirs.
        let staged = fill.is_some() || !explicit.is_empty();
        if let Some(fill) = fill {
            self.updates.push_fill(&self.stats, fill, segments - explicit.len() as u64);
        }
        self.updates.push_all(&self.stats, &explicit);
        if staged {
            self.note_ingest(now);
        }
        true
    }

    /// Ends (or leaves) the epoch for `file`. Returns true for the last
    /// concurrent closer; the heatmap is persisted at that point.
    pub fn end_epoch(&self, file: FileId, now: Timestamp) -> bool {
        let last = {
            let mut aux = self.aux();
            match aux.epoch_refs.get_mut(&file) {
                None => return false,
                Some(count) => {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        aux.epoch_refs.remove(&file);
                        true
                    } else {
                        false
                    }
                }
            }
        };
        if last {
            self.cfg
                .obs
                .trace_event(obs::TraceEvent::EpochEnd { at: now.as_nanos(), file: file.0 });
            self.heatmaps.save(self.snapshot_heatmap(file, now));
        }
        last
    }

    /// True if `file` currently has an open epoch.
    pub fn in_epoch(&self, file: FileId) -> bool {
        self.aux().epoch_refs.contains_key(&file)
    }

    /// Observes a read: updates frequency/recency/sequencing for every
    /// touched segment, recomputes scores, and emits score updates —
    /// including anticipated updates for the next `lookahead` successors
    /// of the request's last segment.
    ///
    /// Returns the number of (non-anticipated) segment updates.
    pub fn observe_read(
        &self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        now: Timestamp,
    ) -> usize {
        // One auxiliary lock for the whole call: the file's size and seeds,
        // and the process's previous segment, swapped for this read's last.
        let (size, seeds, carried, first, last_seg) = {
            let mut aux = self.aux();
            let (size, seeds) =
                aux.files.get(&file).map_or((0, None), |e| (e.size, e.seeds.clone()));
            let end = range.end().min(size);
            if range.offset >= end {
                return 0;
            }
            let last = SegmentId::new(file, (end - 1) / self.cfg.segment_size);
            let carried = aux.last_by_process.insert(process, last);
            (size, seeds, carried, range.offset / self.cfg.segment_size, last)
        };
        // The touched segments are `first..=last_seg.index`.
        let touched = (last_seg.index - first + 1) as usize;
        let segment = |idx: usize| SegmentId::new(file, first + idx as u64);
        let params = self.cfg.score;
        let seg_size = |index: u64| segment_range(index, self.cfg.segment_size, size).len;
        let seed = |index: u64| seeds.as_ref().and_then(|s| s.get(index));
        // Predecessors are known up front: the first touched segment
        // chains from the process's carried-over segment, each later one
        // from its in-request neighbour. Computing them here lets a
        // multi-segment read apply every segment under one pass over the
        // shards.
        let record = |st: &mut SegmentStat, index: u64, prev: Option<SegmentId>| {
            if st.frequency == 0 {
                // The map just created this entry: start from the staged seed.
                if let Some(state) = seed(index) {
                    st.score = state;
                }
            }
            if let Some(p) = prev {
                if st.predecessors.len() < MAX_PREDECESSORS && !st.predecessors.contains(&p) {
                    st.predecessors.push(p);
                }
            }
            st.frequency += 1;
            st.last_access = now;
            let n = st.n();
            st.score.record(now, &params, n)
        };
        let prev_of = |idx: usize| -> Option<SegmentId> {
            match idx {
                0 => carried.filter(|p| p.file == file && *p != segment(0)),
                _ => Some(segment(idx - 1)),
            }
        };
        let observed = |segment: SegmentId, score: f64| ScoreUpdate {
            segment,
            score,
            size: seg_size(segment.index),
            anticipated: false,
        };
        // Stamps for every push this call can make, in the order it makes
        // them: the touched segments, then each lookahead step.
        let lookahead = self.cfg.lookahead;
        let stamp = self.updates.stamps(touched + lookahead as usize);
        // Each segment's statistics and its queued score go under its
        // shard's one lock. `record` leaves the last segment's accumulator
        // stamped at `now`, so the score it returns *is* the lookahead's
        // starting peek — no map re-read needed.
        let last_score = if touched > 1 {
            // Route once: one lock per shard touched instead of one per
            // segment.
            let keys: Vec<SegmentId> = (0..touched).map(segment).collect();
            let order = self.stats.route(&keys);
            let scores =
                self.stats.update_ordered_with(&order, &keys, SegmentStat::default, |idx, st, stripe| {
                    let score = record(st, keys[idx].index, prev_of(idx));
                    stripe.push(stamp + idx as u64, observed(keys[idx], score));
                    score
                });
            *scores.last().expect("non-empty")
        } else {
            self.stats.update_with_side(last_seg, SegmentStat::default, |st, stripe| {
                let score = record(st, last_seg.index, prev_of(0));
                stripe.push(stamp, observed(last_seg, score));
                score
            })
        };
        // Sequencing lookahead: anticipate the successors of the last
        // touched segment.
        let total_segments = segment_count(size, self.cfg.segment_size);
        let mut pushed = touched as u64;
        let mut anticipated = last_score;
        for step in 1..=lookahead {
            anticipated *= LOOKAHEAD_DECAY;
            let index = last_seg.index + step;
            if index >= total_segments {
                break;
            }
            let succ = SegmentId::new(file, index);
            let at = stamp + touched as u64 + step - 1;
            // In-place peek: no `SegmentStat` clone (the predecessor Vec
            // would make a `get`-based peek an allocation). A never-read
            // segment has no predecessors, so n = 1.
            let queued = self.stats.peek_with(&succ, |st, stripe| {
                let existing = match st {
                    Some(st) => st.score.peek(now, &params, st.n()),
                    None => seed(index).map_or(0.0, |state| state.peek(now, &params, 1)),
                };
                let score = existing.max(anticipated);
                let queued = score > 0.0;
                if queued {
                    let size = seg_size(index);
                    stripe.push(at, ScoreUpdate { segment: succ, score, size, anticipated: true });
                }
                queued
            });
            pushed += u64::from(queued);
        }
        self.updates.pushed(pushed);
        self.note_ingest(now);
        touched
    }

    /// Observes a write: returns the segments whose prefetched data must be
    /// invalidated (consistency, §III-A.1). Statistics are retained — the
    /// region is still hot, just stale.
    pub fn observe_write(&self, file: FileId, range: ByteRange, _now: Timestamp) -> Vec<SegmentId> {
        // Writes may extend the file.
        self.set_file_size(file, range.end());
        segments_of_request(file, range, self.cfg.segment_size)
            .into_iter()
            .map(|(seg, _)| seg)
            .collect()
    }

    /// Drains the pending score updates (engine trigger). The explicit
    /// updates are coalesced to the latest score per segment, in
    /// first-touch order (stripes merged on the global first-touch stamp,
    /// so a single-threaded producer drains exactly what the old global
    /// queue produced); staged files come as fills.
    pub fn drain_updates(&self) -> UpdateBatch {
        self.updates.drain(&self.stats)
    }

    /// Number of updates accumulated since the last drain. Counts *raw*
    /// pushes, not coalesced slots, so the engine's count-based trigger
    /// (Reactiveness, §III-D) fires at the same cadence it would with an
    /// uncoalesced queue. Drains subtract exactly what they removed, so
    /// the count stays consistent with queue contents under concurrency.
    pub fn pending_updates(&self) -> usize {
        self.updates.pending() as usize
    }

    /// Current statistics for one segment; `None` until it is first read.
    pub fn stat(&self, segment: SegmentId) -> Option<SegmentStat> {
        self.stats.get(&segment)
    }

    /// How many reads of `segment` were observed; `None` until it is first
    /// read. Reads the statistics in place: unlike [`Auditor::stat`], it
    /// clones no predecessor list.
    pub fn frequency(&self, segment: SegmentId) -> Option<u64> {
        self.stats.get_with(&segment, |st| st.frequency)
    }

    /// Builds the current heatmap of `file` (scores evaluated at `now`).
    /// Only segments with statistics or a seed from history are visited:
    /// a never-read segment staged at the base score reads 0, and stages
    /// at the base score again all the same.
    pub fn snapshot_heatmap(&self, file: FileId, now: Timestamp) -> FileHeatmap {
        let (size, seeds) = self.file_entry(file);
        let segments = segment_count(size, self.cfg.segment_size);
        let params = self.cfg.score;
        let mut scores: Vec<(u64, f64)> = (seeds.iter().flat_map(|s| &s.explicit))
            .filter(|&(&index, _)| index < segments)
            .map(|(&index, state)| (index, state.peek(now, &params, 1)))
            .collect();
        // Statistics win over seeds: they come later. Walk whichever is
        // smaller: the whole map, or the file's index range.
        if self.stats.len() as u64 <= segments {
            self.stats.for_each(|seg, st| {
                if seg.file == file && seg.index < segments {
                    scores.push((seg.index, st.score.peek(now, &params, st.n())));
                }
            });
        } else {
            for index in 0..segments {
                let peeked = self
                    .stats
                    .get_with(&SegmentId::new(file, index), |st| st.score.peek(now, &params, st.n()));
                if let Some(score) = peeked {
                    scores.push((index, score));
                }
            }
        }
        let mut heatmap = FileHeatmap::from_scores(file, self.cfg.segment_size, segments, scores);
        heatmap.saved_at = now;
        heatmap
    }

    /// The heatmap store.
    pub fn heatmaps(&self) -> &Arc<HeatmapStore> {
        &self.heatmaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::MIB;

    fn auditor() -> Auditor {
        Auditor::new(HFetchConfig::default())
    }

    const F: FileId = FileId(1);

    #[test]
    fn read_decomposes_into_segment_updates() {
        let a = auditor();
        a.set_file_size(F, 10 * MIB);
        // Paper's example: 3 MiB read at offset 0 touches segments 0,1,2.
        let n = a.observe_read(F, ByteRange::new(0, 3 * MIB), ProcessId(0), Timestamp::from_secs(1));
        assert_eq!(n, 3);
        let batch = a.drain_updates();
        let updates = batch.updates();
        let observed: Vec<_> = updates.iter().filter(|u| !u.anticipated).collect();
        assert_eq!(observed.len(), 3);
        assert_eq!(observed[0].segment, SegmentId::new(F, 0));
        assert_eq!(observed[2].segment, SegmentId::new(F, 2));
        // Lookahead anticipates successors of segment 2.
        let anticipated: Vec<_> = updates.iter().filter(|u| u.anticipated).collect();
        assert!(!anticipated.is_empty());
        assert_eq!(anticipated[0].segment, SegmentId::new(F, 3));
        assert!(anticipated[0].score < observed[2].score);
    }

    #[test]
    fn frequency_and_recency_tracked() {
        let a = auditor();
        a.set_file_size(F, MIB);
        let seg = SegmentId::new(F, 0);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(1));
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(1), Timestamp::from_secs(2));
        let st = a.stat(seg).unwrap();
        assert_eq!(st.frequency, 2);
        assert_eq!(st.last_access, Timestamp::from_secs(2));
        assert_eq!(a.frequency(seg), Some(2));
        assert_eq!(a.frequency(SegmentId::new(F, 1)), None, "never read");
    }

    #[test]
    fn sequencing_records_distinct_predecessors() {
        let a = auditor();
        a.set_file_size(F, 10 * MIB);
        let t = Timestamp::from_secs(1);
        // Process 0 reads seg 0 then seg 5; process 1 reads seg 2 then seg 5.
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), t);
        a.observe_read(F, ByteRange::new(5 * MIB, MIB), ProcessId(0), t);
        a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(1), t);
        a.observe_read(F, ByteRange::new(5 * MIB, MIB), ProcessId(1), t);
        let st = a.stat(SegmentId::new(F, 5)).unwrap();
        assert_eq!(st.predecessors.len(), 2);
        assert!(st.predecessors.contains(&SegmentId::new(F, 0)));
        assert!(st.predecessors.contains(&SegmentId::new(F, 2)));
        assert_eq!(st.n(), 2);
    }

    #[test]
    fn multi_segment_read_chains_predecessors_internally() {
        let a = auditor();
        a.set_file_size(F, 10 * MIB);
        a.observe_read(F, ByteRange::new(0, 3 * MIB), ProcessId(0), Timestamp::from_secs(1));
        let st1 = a.stat(SegmentId::new(F, 1)).unwrap();
        assert_eq!(st1.predecessors, vec![SegmentId::new(F, 0)]);
        let st2 = a.stat(SegmentId::new(F, 2)).unwrap();
        assert_eq!(st2.predecessors, vec![SegmentId::new(F, 1)]);
    }

    #[test]
    fn epoch_refcounting_first_and_last() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        assert!(a.start_epoch(F, Timestamp::ZERO));
        assert!(!a.start_epoch(F, Timestamp::ZERO));
        assert!(a.in_epoch(F));
        assert!(!a.end_epoch(F, Timestamp::ZERO));
        assert!(a.end_epoch(F, Timestamp::ZERO));
        assert!(!a.in_epoch(F));
        assert!(!a.end_epoch(F, Timestamp::ZERO), "unbalanced close is a no-op");
    }

    #[test]
    fn epoch_start_stages_all_segments() {
        let a = auditor();
        a.set_file_size(F, 3 * MIB + 1);
        a.start_epoch(F, Timestamp::ZERO);
        assert_eq!(a.pending_updates(), 4, "every staged segment counts toward the trigger");
        let batch = a.drain_updates();
        assert!(batch.updates().is_empty(), "no history: the fill stages everything");
        assert_eq!(batch.fills().len(), 1);
        let updates: Vec<ScoreUpdate> = batch.expanded().collect();
        assert_eq!(updates.len(), 4, "four segments staged (last is 1 byte)");
        assert!(updates.iter().all(|u| u.anticipated));
        assert_eq!(updates[3].size, 1);
        assert!(updates.iter().all(|u| u.score > 0.0));
        assert!(a.stats.is_empty(), "staging stores no per-segment statistics");
    }

    #[test]
    fn heatmap_persists_on_epoch_end_and_seeds_reopen() {
        let a = auditor();
        a.set_file_size(F, 4 * MIB);
        let t1 = Timestamp::from_secs(1);
        a.start_epoch(F, t1);
        a.drain_updates();
        // Segment 2 gets hot.
        for i in 0..5 {
            a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(i), t1);
        }
        a.end_epoch(F, Timestamp::from_secs(2));
        let saved = a.heatmaps().load(F).unwrap();
        assert!(saved.score(2) > 1.0);

        // Re-open shortly after: staging updates should rank segment 2 first.
        a.start_epoch(F, Timestamp::from_secs(3));
        let updates = a.drain_updates();
        let hottest = updates.expanded().max_by(|x, y| x.score.partial_cmp(&y.score).unwrap()).unwrap();
        assert_eq!(hottest.segment, SegmentId::new(F, 2));
    }

    #[test]
    fn write_reports_invalidation_targets() {
        let a = auditor();
        a.set_file_size(F, 4 * MIB);
        let segs = a.observe_write(F, ByteRange::new(MIB / 2, 2 * MIB), Timestamp::ZERO);
        assert_eq!(segs, vec![SegmentId::new(F, 0), SegmentId::new(F, 1), SegmentId::new(F, 2)]);
        // Writes past EOF grow the file.
        let segs = a.observe_write(F, ByteRange::new(9 * MIB, MIB), Timestamp::ZERO);
        assert_eq!(segs.len(), 1);
        assert_eq!(a.file_size(F), 10 * MIB);
    }

    #[test]
    fn reads_of_unknown_or_out_of_range_files_are_ignored() {
        let a = auditor();
        assert_eq!(a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::ZERO), 0);
        a.set_file_size(F, MIB);
        assert_eq!(
            a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(0), Timestamp::ZERO),
            0
        );
    }

    #[test]
    fn repeated_updates_coalesce_to_latest_score() {
        let a = auditor();
        a.set_file_size(F, MIB);
        for i in 1..=10 {
            a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(i));
        }
        // Raw push count drives the trigger...
        assert_eq!(a.pending_updates(), 10);
        // ...but the drained batch holds one slot per segment, carrying
        // the latest score.
        let updates = a.drain_updates();
        assert_eq!(updates.len(), 1);
        let expected = a.stat(SegmentId::new(F, 0)).unwrap();
        let peeked = expected.score.peek(Timestamp::from_secs(10), &a.config().score, expected.n());
        assert!((updates.updates()[0].score - peeked).abs() < 1e-9);
        assert!(a.drain_updates().is_empty(), "drain empties the queue");
    }

    #[test]
    fn pending_update_count_tracks_and_resets() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(1));
        assert!(a.pending_updates() >= 1);
        a.drain_updates();
        assert_eq!(a.pending_updates(), 0);
    }

    #[test]
    fn snapshot_heatmap_reflects_hotness() {
        let a = auditor();
        a.set_file_size(F, 4 * MIB);
        let t = Timestamp::from_secs(1);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), t);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(1), t);
        a.observe_read(F, ByteRange::new(3 * MIB, MIB), ProcessId(2), t);
        let h = a.snapshot_heatmap(F, t);
        assert_eq!(h.segments(), 4);
        assert!(h.score(0) > h.score(3));
        assert_eq!(h.score(1), 0.0);
        assert_eq!(h.hottest_first()[0], 0);
    }

    /// A multi-segment read takes one map-shard lock per shard it visits
    /// plus one per lookahead peek. 48 segments over 32 shards must share
    /// shards (pigeonhole), so one write per segment breaks this bound.
    #[test]
    fn multi_segment_reads_take_one_map_lock_per_shard_visited() {
        let a = auditor();
        a.set_file_size(F, 64 * MIB);
        let total_segments = 64;
        for i in 0..50u64 {
            let first = i % 16;
            let shards: std::collections::HashSet<usize> = (first..first + 48)
                .map(|index| a.stats.locate(&SegmentId::new(F, index)))
                .collect();
            assert!(shards.len() < 48, "pigeonhole: some segments share a shard");
            let peeks = a.config().lookahead.min(total_segments - (first + 48));
            let before = a.ingest_lock_stats().map_shard;
            let read = ByteRange::new(first * MIB, 48 * MIB);
            a.observe_read(F, read, ProcessId(0), Timestamp::from_millis(i));
            let taken = a.ingest_lock_stats().map_shard - before;
            assert!(
                taken <= shards.len() as u64 + peeks,
                "read {i} took {taken} map locks for {} shards and {peeks} peeks",
                shards.len()
            );
        }
    }

    /// A one-segment read takes one auxiliary lock (file entry and the
    /// process's last segment) and one shard lock per segment it touches:
    /// the statistics update with its queued score, and each lookahead peek
    /// with its queued anticipation.
    #[test]
    fn a_read_takes_one_lock_per_segment_touched_and_one_auxiliary() {
        let a = auditor();
        a.set_file_size(F, 64 * MIB);
        let lookahead = a.config().lookahead;
        let before = a.ingest_lock_stats();
        a.observe_read(F, ByteRange::new(8 * MIB, MIB), ProcessId(0), Timestamp::from_secs(1));
        let after = a.ingest_lock_stats();
        assert_eq!(after.auxiliary - before.auxiliary, 1);
        assert_eq!(after.map_shard - before.map_shard, 1 + lookahead);
        assert_eq!(a.pending_updates() as u64, 1 + lookahead);
        // A read past the end of the file takes the auxiliary lock only.
        a.observe_read(F, ByteRange::new(64 * MIB, MIB), ProcessId(0), Timestamp::from_secs(2));
        let past = a.ingest_lock_stats();
        assert_eq!((past.auxiliary, past.map_shard), (after.auxiliary + 1, after.map_shard));
    }

    /// Four readers over overlapping segments race a drainer: every drain
    /// holds one update per segment, and once the readers stop the raw
    /// count drains to 0. The drain's own uniqueness check is a debug
    /// assertion; this one holds in release builds too.
    #[test]
    fn concurrent_reads_drain_one_update_per_segment() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let a = auditor();
        a.set_file_size(F, 16 * MIB);
        a.start_epoch(F, Timestamp::ZERO);
        let readers_done = AtomicUsize::new(0);
        let unique = |batch: &UpdateBatch| {
            let mut seen = std::collections::HashSet::new();
            batch.updates().iter().all(|u| seen.insert(u.segment))
        };
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let (a, readers_done) = (&a, &readers_done);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let first = (p * 3 + i * 5) % 14;
                        let read = ByteRange::new(first * MIB, (1 + i % 3) * MIB);
                        a.observe_read(F, read, ProcessId(p as u32), Timestamp::from_millis(i));
                    }
                    readers_done.fetch_add(1, Ordering::Release);
                });
            }
            s.spawn(|| {
                while readers_done.load(Ordering::Acquire) < 4 {
                    assert!(unique(&a.drain_updates()), "a segment drained twice in one batch");
                    std::thread::yield_now();
                }
            });
        });
        assert!(unique(&a.drain_updates()));
        assert_eq!(a.pending_updates(), 0, "the raw count returns to 0");
    }

    /// An auditor whose base score is large enough to tell a seeded
    /// segment from a cold one.
    fn auditor_with_base(base: f64) -> Auditor {
        Auditor::new(HFetchConfig { epoch_base_score: base, ..HFetchConfig::default() })
    }

    /// Closed form of a segment seeded with `score` at `at`, seen at `now`.
    fn seeded(a: &Auditor, score: f64, at: Timestamp, now: Timestamp) -> f64 {
        score * a.config().score.decay(now.since(at), 1)
    }

    fn drained_score(batch: &UpdateBatch, segment: SegmentId) -> f64 {
        batch.updates().iter().find(|u| u.segment == segment).expect("updated").score
    }

    #[test]
    fn first_read_after_staging_starts_from_the_seed() {
        let a = auditor_with_base(0.75);
        a.set_file_size(F, 8 * MIB);
        let (t0, t1) = (Timestamp::from_secs(1), Timestamp::from_millis(1700));
        a.start_epoch(F, t0);
        a.drain_updates();
        a.observe_read(F, ByteRange::new(5 * MIB, MIB), ProcessId(0), t1);
        let expected = seeded(&a, 0.75, t0, t1) + 1.0;
        let seg = SegmentId::new(F, 5);
        assert_eq!(drained_score(&a.drain_updates(), seg).to_bits(), expected.to_bits());
        let st = a.stat(seg).unwrap();
        assert_eq!(st.score.peek(t1, &a.config().score, st.n()).to_bits(), expected.to_bits());
    }

    #[test]
    fn lookahead_peeks_the_seed_of_a_never_read_segment() {
        // A base above the lookahead's decayed anticipation, so the peek wins.
        let a = auditor_with_base(5.0);
        a.set_file_size(F, 8 * MIB);
        let (t0, t1) = (Timestamp::from_secs(1), Timestamp::from_millis(1500));
        a.start_epoch(F, t0);
        a.drain_updates();
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), t1);
        let batch = a.drain_updates();
        let expected = seeded(&a, 5.0, t0, t1);
        for index in 1..=a.config().lookahead {
            let score = drained_score(&batch, SegmentId::new(F, index));
            assert_eq!(score.to_bits(), expected.to_bits(), "segment {index}");
        }
        assert!(a.stat(SegmentId::new(F, 1)).is_none(), "a peek stores nothing");
    }

    #[test]
    fn restaging_reseeds_never_read_segments_at_the_new_epoch() {
        let a = auditor_with_base(0.75);
        a.set_file_size(F, 8 * MIB);
        let t0 = Timestamp::from_secs(1);
        a.start_epoch(F, t0);
        let t_read = Timestamp::from_millis(1500);
        a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(0), t_read);
        let read_once = seeded(&a, 0.75, t0, t_read) + 1.0;
        let t_close = Timestamp::from_secs(2);
        assert!(a.end_epoch(F, t_close));
        let heat = a.heatmaps().load(F).unwrap();
        assert_eq!(heat.score(3), 0.0, "a never-read fill segment drops out of the heatmap");
        let history = read_once * a.config().score.decay(t_close.since(t_read), 1);
        assert_eq!(heat.score(2).to_bits(), history.to_bits());

        let (t2, t3) = (Timestamp::from_secs(4), Timestamp::from_millis(4250));
        a.start_epoch(F, t2);
        a.drain_updates();
        a.observe_read(F, ByteRange::new(3 * MIB, MIB), ProcessId(1), t3);
        a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(2), t3);
        let batch = a.drain_updates();
        let fresh = seeded(&a, 0.75, t2, t3) + 1.0;
        assert_eq!(drained_score(&batch, SegmentId::new(F, 3)).to_bits(), fresh.to_bits());
        // A segment read before keeps its own history; staging never seeds it.
        let again = read_once * a.config().score.decay(t3.since(t_read), 1) + 1.0;
        assert_eq!(drained_score(&batch, SegmentId::new(F, 2)).to_bits(), again.to_bits());
    }

    #[test]
    fn segments_added_by_a_write_after_staging_start_cold() {
        let a = auditor_with_base(0.75);
        a.set_file_size(F, 2 * MIB);
        let (t0, t1) = (Timestamp::from_secs(1), Timestamp::from_millis(1250));
        a.start_epoch(F, t0);
        a.drain_updates();
        a.observe_write(F, ByteRange::new(2 * MIB, 2 * MIB), t0);
        assert_eq!(a.file_size(F), 4 * MIB);
        a.observe_read(F, ByteRange::new(3 * MIB, MIB), ProcessId(0), t1);
        a.observe_read(F, ByteRange::new(MIB, MIB), ProcessId(1), t1);
        let batch = a.drain_updates();
        assert_eq!(drained_score(&batch, SegmentId::new(F, 3)), 1.0, "past the staged size");
        let staged = seeded(&a, 0.75, t0, t1) + 1.0;
        assert_eq!(drained_score(&batch, SegmentId::new(F, 1)).to_bits(), staged.to_bits());
        // Lookahead from segment 1 finds no seed for segment 2 either.
        let anticipated = staged * LOOKAHEAD_DECAY;
        assert_eq!(drained_score(&batch, SegmentId::new(F, 2)).to_bits(), anticipated.to_bits());
    }

    #[test]
    fn snapshot_peeks_the_history_seed_of_a_never_read_segment() {
        let a = auditor_with_base(0.75);
        a.set_file_size(F, 4 * MIB);
        let t = Timestamp::from_secs(1);
        a.start_epoch(F, t);
        for p in 0..4 {
            a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(p), t);
        }
        a.end_epoch(F, t);
        // A fresh auditor on the same store stages segment 2 from history
        // but has never seen it read.
        let b = Auditor::with_heatmaps(a.config().clone(), Arc::clone(a.heatmaps()));
        b.set_file_size(F, 4 * MIB);
        let (t2, t3) = (Timestamp::from_secs(2), Timestamp::from_millis(2600));
        b.start_epoch(F, t2);
        let batch = b.drain_updates();
        let history = drained_score(&batch, SegmentId::new(F, 2));
        assert!(history > 0.75);
        let heat = b.snapshot_heatmap(F, t3);
        assert_eq!(heat.score(2).to_bits(), seeded(&b, history, t2, t3).to_bits());
        assert_eq!(heat.score(1), 0.0);
    }

    /// Staging cost does not scale with the file: a 1 TiB file (2^20
    /// segments) stores no per-segment state, and one pass over a 1+2+4
    /// GiB hierarchy settles about one fill entry per cache segment.
    #[test]
    fn staging_a_huge_file_stores_nothing_per_segment() {
        use crate::engine::PlacementEngine;
        use tiers::topology::Hierarchy;
        use tiers::units::GIB;
        let a = auditor();
        a.set_file_size(F, 1 << 40);
        a.start_epoch(F, Timestamp::ZERO);
        assert!(a.stats.is_empty(), "no statistics entry per segment");
        let seeds = a.file_entry(F).1.expect("seeded");
        assert!(seeds.explicit.is_empty(), "no seed per segment");
        assert_eq!(a.pending_updates(), 1 << 20, "the trigger counts every segment");
        let batch = a.drain_updates();
        assert!(batch.updates().is_empty(), "no queue slot per segment");
        assert_eq!(batch.len(), 1 << 20);
        let cfg = a.config();
        let hierarchy = Hierarchy::with_budgets(GIB, 2 * GIB, 4 * GIB);
        let mut engine =
            PlacementEngine::with_margin(&hierarchy, cfg.reactiveness, cfg.displacement_margin);
        let actions = engine.run(batch, Timestamp::ZERO);
        let cache_segments = 7 * GIB / MIB;
        assert_eq!(actions.len() as u64, cache_segments);
        // Cache segments + placed at start (0) + explicit (0) + distinct
        // segment sizes (1).
        assert!(engine.fill_settles() <= cache_segments + 1, "{}", engine.fill_settles());
        assert!(a.stats.is_empty());
    }

    /// An auditor over `size` bytes that records to an enabled recorder.
    fn recorded_auditor(size: u64) -> Auditor {
        let cfg = HFetchConfig { obs: obs::Recorder::enabled(), ..HFetchConfig::default() };
        let a = Auditor::new(cfg);
        a.set_file_size(F, size);
        a
    }

    /// One epoch opened at `at`: one process reads each of `segments`
    /// once, a millisecond apart, and closes a second after opening.
    fn read_epoch(a: &Auditor, segments: std::ops::Range<u64>, at: Timestamp) {
        a.start_epoch(F, at);
        for (step, index) in segments.enumerate() {
            let t = at.after(std::time::Duration::from_millis(step as u64 + 1));
            a.observe_read(F, ByteRange::new(index * MIB, MIB), ProcessId(0), t);
        }
        a.drain_updates();
        assert!(a.end_epoch(F, at.after(std::time::Duration::from_secs(1))));
    }

    /// Opens an epoch at `at` and returns the segments it stages past the
    /// file's history (its readahead), in index order.
    fn staged_ahead(a: &Auditor, at: Timestamp) -> Vec<u64> {
        let history = a.heatmaps().load(F).expect("a heatmap");
        assert!(a.start_epoch(F, at));
        let batch = a.drain_updates();
        let mut ahead: Vec<u64> = batch
            .updates()
            .iter()
            .map(|u| u.segment.index)
            .filter(|&index| history.score(index) == 0.0)
            .collect();
        ahead.sort_unstable();
        ahead
    }

    fn readahead_counter(a: &Auditor) -> Option<u64> {
        a.config().obs.report().counter("auditor.staged.readahead")
    }

    #[test]
    fn readahead_stages_the_once_read_advance_of_a_run() {
        let a = recorded_auditor(64 * MIB);
        read_epoch(&a, 0..16, Timestamp::from_secs(1));
        let t = Timestamp::from_secs(3);
        let heat = a.heatmaps().load(F).unwrap();
        assert!(a.start_epoch(F, t));
        let batch = a.drain_updates();
        // The run end's decayed score, halved per step like lookahead.
        let mut score = heat.score(15) * a.config().score.decay(t.since(heat.saved_at), 1);
        for index in 16..32 {
            score *= LOOKAHEAD_DECAY;
            let staged = drained_score(&batch, SegmentId::new(F, index));
            assert_eq!(staged.to_bits(), score.to_bits(), "segment {index}");
        }
        assert!(batch.updates().iter().all(|u| u.segment.index < 32));
        assert_eq!(readahead_counter(&a), Some(16));
        assert!(a.end_epoch(F, t));

        // The next run re-reads 8 segments and adds 8: only the 8 read
        // once are its advance.
        read_epoch(&a, 8..24, Timestamp::from_secs(5));
        assert_eq!(staged_ahead(&a, Timestamp::from_secs(7)), (24..32).collect::<Vec<_>>());
        // Three openings after the first: 16, 16 and 8 segments.
        assert_eq!(readahead_counter(&a), Some(16 + 16 + 8));
    }

    #[test]
    fn readahead_stops_at_file_end_and_at_history() {
        let a = recorded_auditor(20 * MIB);
        read_epoch(&a, 0..16, Timestamp::from_secs(1));
        assert_eq!(staged_ahead(&a, Timestamp::from_secs(3)), (16..20).collect::<Vec<_>>());

        // Segment 20 has history but was never read here, as after a
        // restart: the readahead of the 16-segment run stops at it.
        let b = recorded_auditor(64 * MIB);
        let history = FileHeatmap::from_scores(F, MIB, 64, [(20, 1.0)]);
        b.heatmaps().save(history);
        read_epoch(&b, 0..16, Timestamp::from_secs(1));
        assert_eq!(staged_ahead(&b, Timestamp::from_secs(3)), (16..20).collect::<Vec<_>>());
    }

    #[test]
    fn without_a_heatmap_staging_is_the_fill_only() {
        let a = recorded_auditor(64 * MIB);
        // Statistics without a heatmap: read before any epoch.
        for index in 0..16 {
            a.observe_read(F, ByteRange::new(index * MIB, MIB), ProcessId(0), Timestamp::ZERO);
        }
        a.drain_updates();
        assert!(a.heatmaps().load(F).is_none());
        a.start_epoch(F, Timestamp::from_secs(1));
        assert_eq!(a.pending_updates(), 64);
        let fill = Fill::new(F, 64 * MIB, MIB, a.config().epoch_base_score);
        assert_eq!(a.drain_updates(), UpdateBatch::new(Vec::new(), vec![fill]));
        assert_eq!(readahead_counter(&a), None, "no readahead, no counter");
    }

    #[test]
    fn unread_readahead_does_not_compound() {
        let a = recorded_auditor(64 * MIB);
        read_epoch(&a, 0..16, Timestamp::from_secs(1));
        // Nobody reads the readahead.
        let t = Timestamp::from_secs(3);
        assert_eq!(staged_ahead(&a, t), (16..32).collect::<Vec<_>>());
        assert!(a.end_epoch(F, t));
        let heat = a.heatmaps().load(F).unwrap();
        assert!((16..32).all(|i| heat.score(i) == 0.0), "readahead keeps no history");
        assert_eq!(staged_ahead(&a, Timestamp::from_secs(5)), (16..32).collect::<Vec<_>>());
        assert!(a.end_epoch(F, Timestamp::from_secs(5)));
        // A run read twice throughout has no advance.
        read_epoch(&a, 0..16, Timestamp::from_secs(7));
        assert!(staged_ahead(&a, Timestamp::from_secs(9)).is_empty());
        assert_eq!(readahead_counter(&a), Some(3 * 16));
    }

    #[test]
    fn a_heatmap_saved_at_another_segment_size_is_ignored() {
        let dir = std::env::temp_dir().join(format!("hfetch-segsize-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = |dir: &std::path::Path| Arc::new(HeatmapStore::on_disk(dir).unwrap());
        let at_size = |segment_size: u64| HFetchConfig { segment_size, ..HFetchConfig::default() };
        let a = Auditor::with_heatmaps(at_size(4 * MIB), store(&dir));
        a.set_file_size(F, 64 * MIB);
        let t = Timestamp::from_secs(1);
        a.start_epoch(F, t);
        for p in 0..4 {
            a.observe_read(F, ByteRange::new(8 * MIB, 4 * MIB), ProcessId(p), t);
        }
        assert!(a.end_epoch(F, Timestamp::from_secs(2)));

        // After a restart at 1 MiB segments, index 2 would name bytes
        // 2..3 MiB, not the 8..12 MiB read: stage the fill only.
        let b = Auditor::with_heatmaps(at_size(MIB), store(&dir));
        b.set_file_size(F, 64 * MIB);
        assert_eq!(b.heatmaps().load(F).unwrap().segment_size, 4 * MIB);
        b.start_epoch(F, Timestamp::from_secs(3));
        let fill = Fill::new(F, 64 * MIB, MIB, b.config().epoch_base_score);
        assert_eq!(b.drain_updates(), UpdateBatch::new(Vec::new(), vec![fill]));
        b.observe_read(F, ByteRange::new(5 * MIB, MIB), ProcessId(0), Timestamp::from_secs(3));
        assert!(b.end_epoch(F, Timestamp::from_secs(4)));
        let saved = b.heatmaps().load(F).unwrap();
        assert_eq!((saved.segment_size, saved.segments()), (MIB, 64), "replaced, not evolved");
        assert!(saved.score(5) > 0.0 && saved.score(2) == 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookahead_respects_file_end() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB); // segments 0 and 1 only
        a.observe_read(F, ByteRange::new(MIB, MIB), ProcessId(0), Timestamp::from_secs(1));
        let updates = a.drain_updates();
        assert!(
            updates.updates().iter().all(|u| u.segment.index < 2),
            "no anticipation past EOF: {updates:?}"
        );
    }

    #[test]
    fn concurrent_observers_account_every_access() {
        let a = std::sync::Arc::new(auditor());
        a.set_file_size(F, MIB);
        std::thread::scope(|s| {
            for p in 0..8u32 {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        a.observe_read(
                            F,
                            ByteRange::new(0, MIB),
                            ProcessId(p),
                            Timestamp::from_millis(i),
                        );
                    }
                });
            }
        });
        assert_eq!(a.stat(SegmentId::new(F, 0)).unwrap().frequency, 4000);
    }
}
