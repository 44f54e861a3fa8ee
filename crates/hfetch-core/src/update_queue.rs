//! Striped, coalescing score-update queues.
//!
//! The auditor's update vector is the one piece of state every monitor
//! daemon writes on every event, so a single `Mutex<Vec<_>>` would
//! serialise the whole ingestion path even though the segment *statistics*
//! are sharded. Instead each statistics shard holds one [`Stripe`] of
//! pending updates as its side state ([`StripedMap`]): recording a read
//! and queueing its score take that shard's one lock, and a segment's
//! update can land only in its own shard's stripe, so two daemons contend
//! on a stripe exactly when they contend on the statistics.
//! [`StripedUpdateQueue`] keeps what the stripes share: the first-touch
//! stamps, the raw push count and the fills.
//!
//! Determinism: every *new* segment slot is stamped with a globally
//! monotonic sequence number, and [`drain`] merges the stripes by sorting
//! slots on that stamp. A single-threaded producer therefore drains in
//! first-touch order, byte-identical to one global queue; concurrent
//! producers drain in the (deterministic, per-interleaving) order their
//! first touches were stamped. A segment has one slot in one stripe, so a
//! drain holds one update per segment by construction.
//!
//! Accounting: `pending()` counts **raw pushes** — the engine's
//! count-based trigger (Reactiveness, §III-D) fires on access volume, not
//! on coalesced slot count. A drain subtracts exactly the raw pushes its
//! removed slots absorbed, so the counter can never drift
//! from queue contents the way the old `store(0)` reset could when a push
//! landed between the drain and the reset.
//!
//! Fills: epoch staging gives every segment of a file the same base score,
//! so it queues one [`Fill`] record per file instead of one slot per
//! segment. A fill rewrites the file's slots already pending (as one push
//! per segment would), later pushes supersede it segment by segment, and it
//! adds its share of raw pushes to `pending()`. [`drain`] returns the slots
//! and the fills together as an [`UpdateBatch`], which the placement engine
//! expands inside its pass.
//!
//! [`drain`]: StripedUpdateQueue::drain

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};

use dht::{DistributedMap, FxHashMap};
use parking_lot::Mutex;
use tiers::ids::{FileId, SegmentId};
use tiers::range::{segment_count, segment_range};

use crate::auditor::ScoreUpdate;

/// One anticipated update for every segment of `file` below
/// [`Fill::segments`], all at `score`, except the segments its batch
/// updates explicitly.
#[derive(Clone, Debug, PartialEq)]
pub struct Fill {
    file: FileId,
    /// File size when it was staged: sets the segment count and the size
    /// of a short tail segment.
    file_size: u64,
    segment_size: u64,
    score: f64,
    /// Sorted indices the fill does not expand, because its batch carried
    /// an explicit update for them (kept when a filter later drops that
    /// update). Maintained by [`UpdateBatch::from_unique`].
    except: Vec<u64>,
}

impl Fill {
    /// A fill over every segment of a `file_size`-byte file.
    pub fn new(file: FileId, file_size: u64, segment_size: u64, score: f64) -> Self {
        assert!(segment_size > 0, "segment_size must be positive");
        Self { file, file_size, segment_size, score, except: Vec::new() }
    }

    /// The staged file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Number of segments the file had when it was staged.
    pub fn segments(&self) -> u64 {
        segment_count(self.file_size, self.segment_size)
    }

    /// The score of every update the fill stands for.
    pub(crate) fn score(&self) -> f64 {
        self.score
    }

    /// The indices below [`Fill::segments`] the fill does not expand,
    /// sorted.
    pub(crate) fn except(&self) -> &[u64] {
        &self.except
    }

    /// True if the fill expands segment `index`.
    pub fn covers(&self, index: u64) -> bool {
        index < self.segments() && self.except.binary_search(&index).is_err()
    }

    /// Size in bytes of segment `index` (the tail segment may be short).
    pub fn size_of(&self, index: u64) -> u64 {
        segment_range(index, self.segment_size, self.file_size).len
    }

    /// The update the fill stands for at segment `index`.
    pub fn update(&self, index: u64) -> ScoreUpdate {
        ScoreUpdate {
            segment: SegmentId::new(self.file, index),
            score: self.score,
            size: self.size_of(index),
            anticipated: true,
        }
    }

    /// Number of segments the fill expands to.
    pub fn len(&self) -> usize {
        self.segments() as usize - self.except.len()
    }

    /// True if the fill expands to nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A drained batch of score updates: explicit updates plus base-score
/// fills. It stands for the vector holding the explicit updates and, for
/// each fill, one update per covered segment; the engine expands fills
/// lazily, so staging a file costs no work per segment. A batch holds at
/// most one explicit update per segment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateBatch {
    updates: Vec<ScoreUpdate>,
    fills: Vec<Fill>,
}

impl UpdateBatch {
    /// Builds a batch. Updates for the same segment collapse to the latest,
    /// kept at the first one's position, and no fill expands a segment that
    /// `updates` touches. The collapse happens here, before any
    /// [`retain`](Self::retain): a filter that drops a segment's latest
    /// update drops the segment's only update.
    ///
    /// # Panics
    ///
    /// If two fills stage the same file.
    pub fn new(updates: Vec<ScoreUpdate>, fills: Vec<Fill>) -> Self {
        let mut slot_of: FxHashMap<SegmentId, usize> = FxHashMap::default();
        let mut collapsed = Vec::with_capacity(updates.len());
        for u in updates {
            match *slot_of.entry(u.segment).or_insert(collapsed.len()) {
                slot if slot < collapsed.len() => collapsed[slot] = u,
                _ => collapsed.push(u),
            }
        }
        Self::from_unique(collapsed, fills)
    }

    /// Builds a batch from updates that already hold one per segment, as a
    /// drain's do: only the fills' skip lists are worked out.
    ///
    /// # Panics
    ///
    /// If two fills stage the same file.
    pub(crate) fn from_unique(updates: Vec<ScoreUpdate>, mut fills: Vec<Fill>) -> Self {
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                updates.iter().all(|u| seen.insert(u.segment))
            },
            "a segment has two updates in one batch"
        );
        if fills.is_empty() {
            return Self { updates, fills };
        }
        let mut by_file: FxHashMap<FileId, usize> = FxHashMap::default();
        for (i, fill) in fills.iter().enumerate() {
            assert!(by_file.insert(fill.file, i).is_none(), "one fill per file");
        }
        for u in &updates {
            if let Some(&i) = by_file.get(&u.segment.file) {
                if u.segment.index < fills[i].segments() {
                    fills[i].except.push(u.segment.index);
                }
            }
        }
        for fill in &mut fills {
            fill.except.sort_unstable();
        }
        Self { updates, fills }
    }

    /// The explicit updates, in drain order.
    pub fn updates(&self) -> &[ScoreUpdate] {
        &self.updates
    }

    /// The fills.
    pub fn fills(&self) -> &[Fill] {
        &self.fills
    }

    /// Drops the explicit updates `keep` rejects. The fills still skip the
    /// dropped segments: an update the filter suppressed has superseded
    /// the staged score all the same. The batch already holds one update
    /// per segment, so dropping it leaves the segment no older one.
    pub fn retain(&mut self, keep: impl FnMut(&ScoreUpdate) -> bool) {
        self.updates.retain(keep);
    }

    /// Number of updates the batch stands for, fills expanded.
    pub fn len(&self) -> usize {
        self.updates.len() + self.fills.iter().map(Fill::len).sum::<usize>()
    }

    /// True if the batch stands for no update.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every update the batch stands for: the explicit ones, then each
    /// fill's in segment order. Costs one item per covered segment, so it
    /// is for checks and digests; the engine expands fills lazily.
    pub fn expanded(&self) -> impl Iterator<Item = ScoreUpdate> + '_ {
        let fills = self.fills.iter().flat_map(|f| {
            (0..f.segments()).filter(|&i| f.covers(i)).map(move |i| f.update(i))
        });
        self.updates.iter().copied().chain(fills)
    }

    /// The explicit updates and the fills.
    pub(crate) fn into_parts(self) -> (Vec<ScoreUpdate>, Vec<Fill>) {
        (self.updates, self.fills)
    }
}

impl From<Vec<ScoreUpdate>> for UpdateBatch {
    /// A batch without fills; duplicates collapse as in [`UpdateBatch::new`].
    fn from(updates: Vec<ScoreUpdate>) -> Self {
        Self::new(updates, Vec::new())
    }
}

/// A queued fill plus the raw pushes it stands for.
struct FillSlot {
    raw: u64,
    fill: Fill,
}

/// The pending fills, at most one per file, and the acquisitions of the
/// lock guarding them.
#[derive(Default)]
struct Fills {
    slots: Vec<FillSlot>,
    locks: u64,
}

/// One coalesced slot: the latest update for a segment plus bookkeeping.
struct Slot {
    /// Globally monotonic first-touch stamp; never reset, so merged
    /// drains have a total order.
    seq: u64,
    /// Raw pushes coalesced into this slot since it was created.
    raw: u64,
    /// The latest update for the segment.
    update: ScoreUpdate,
}

/// The pending updates of the segments one statistics shard holds: a slot
/// vector plus a segment → slot index. It is the shard's side state, so
/// the map hands out only the stripe of a segment's own shard.
#[derive(Default)]
pub struct Stripe {
    slots: Vec<Slot>,
    index: FxHashMap<SegmentId, usize>,
}

impl Stripe {
    /// Coalesces `update` into its segment's pending slot, or opens a slot
    /// stamped `seq`.
    pub(crate) fn push(&mut self, seq: u64, update: ScoreUpdate) {
        match self.index.entry(update.segment) {
            Entry::Occupied(e) => {
                let slot = &mut self.slots[*e.get()];
                slot.update = update;
                slot.raw += 1;
            }
            Entry::Vacant(e) => {
                e.insert(self.slots.len());
                self.slots.push(Slot { seq, raw: 1, update });
            }
        }
    }
}

/// The most slots a drain reserves room for up front: the pending count
/// bounds the slots, but a staged fill can make it large.
const DRAIN_CAPACITY: u64 = 4096;

/// A statistics map whose shards hold the pending-update stripes.
pub type StripedMap<V> = DistributedMap<SegmentId, V, Stripe>;

/// What the pending updates share across stripes: the first-touch stamps,
/// the raw push count and the fills. The slots themselves live in the
/// [`Stripe`]s of a [`StripedMap`], which every method takes.
#[derive(Default)]
pub struct StripedUpdateQueue {
    /// Pending fills, at most one per file.
    fills: Mutex<Fills>,
    /// First-touch stamp source (never reset; see module docs).
    seq: AtomicU64,
    /// Raw pushes currently represented in the queue.
    pending: AtomicU64,
}

impl StripedUpdateQueue {
    /// Reserves `n` consecutive first-touch stamps and returns the first.
    /// A caller stamps its pushes in the order it makes them, so one call's
    /// slots drain in that order.
    pub(crate) fn stamps(&self, n: usize) -> u64 {
        self.seq.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Counts `n` raw pushes made into the stripes.
    pub(crate) fn pushed(&self, n: u64) {
        self.pending.fetch_add(n, Ordering::Relaxed);
    }

    /// Pushes `updates`, each into the stripe of its segment's shard,
    /// taking each stripe's lock once per shard group. An update coalesces
    /// into its segment's pending slot if it has one; new slots are stamped
    /// by position, so the batch drains in its own order.
    pub fn push_all<V>(&self, map: &StripedMap<V>, updates: &[ScoreUpdate]) {
        let keys: Vec<SegmentId> = updates.iter().map(|u| u.segment).collect();
        let base = self.stamps(updates.len());
        map.side_ordered(&map.route(&keys), &keys, |idx, stripe| {
            stripe.push(base + idx as u64, updates[idx]);
        });
        self.pushed(updates.len() as u64);
    }

    /// Queues `fill`, standing for `raw` per-segment pushes. The file's
    /// pending slots below the fill's segment count are rewritten to the
    /// fill's update, as those pushes would have done; a fill already
    /// pending for the file is replaced and its raw count carried over.
    pub fn push_fill<V>(&self, map: &StripedMap<V>, fill: Fill, raw: u64) {
        let segments = fill.segments();
        map.for_each_side(|stripe| {
            for slot in stripe.slots.iter_mut() {
                let seg = slot.update.segment;
                if seg.file == fill.file && seg.index < segments {
                    slot.update = fill.update(seg.index);
                }
            }
        });
        let mut fills = self.fills.lock();
        fills.locks += 1;
        match fills.slots.iter_mut().find(|s| s.fill.file == fill.file) {
            Some(slot) => {
                slot.raw += raw;
                slot.fill = fill;
            }
            None => fills.slots.push(FillSlot { raw, fill }),
        }
        self.pending.fetch_add(raw, Ordering::Relaxed);
    }

    /// Drains every stripe and the fills. Slots merge into first-touch
    /// order (ascending sequence stamp). A segment's slot lives only in
    /// its own shard's stripe, so the batch holds one update per segment
    /// without a collapse. The pending counter is decremented by exactly
    /// the raw pushes the drained slots and fills absorbed — pushes that
    /// land on a stripe after it was emptied stay counted.
    pub fn drain<V>(&self, map: &StripedMap<V>) -> UpdateBatch {
        // Every slot stands for at least one raw push.
        let mut stamped: Vec<(u64, ScoreUpdate)> =
            Vec::with_capacity(self.pending().min(DRAIN_CAPACITY) as usize);
        let mut raw = 0;
        map.for_each_side(|stripe| {
            stripe.index.clear();
            stamped.extend(stripe.slots.drain(..).map(|slot| {
                raw += slot.raw;
                (slot.seq, slot.update)
            }));
        });
        let fills = {
            let mut fills = self.fills.lock();
            fills.locks += 1;
            std::mem::take(&mut fills.slots)
        };
        raw += fills.iter().map(|s| s.raw).sum::<u64>();
        self.pending.fetch_sub(raw, Ordering::Relaxed);
        stamped.sort_unstable_by_key(|&(seq, _)| seq);
        UpdateBatch::from_unique(
            stamped.into_iter().map(|(_, update)| update).collect(),
            fills.into_iter().map(|slot| slot.fill).collect(),
        )
    }

    /// Raw pushes currently represented in the queue (the engine's
    /// count-based trigger currency).
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Acquisitions of the fills' lock so far (ingestion telemetry; the
    /// stripes' locks are the map's shard locks).
    pub fn lock_acquisitions(&self) -> u64 {
        self.fills.lock().locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(file: u64, index: u64, score: f64) -> ScoreUpdate {
        ScoreUpdate {
            segment: SegmentId::new(FileId(file), index),
            score,
            size: 1024,
            anticipated: false,
        }
    }

    /// An empty queue over stripes with no statistics beside them.
    fn queue() -> (StripedUpdateQueue, StripedMap<()>) {
        (StripedUpdateQueue::default(), StripedMap::default())
    }

    #[test]
    fn coalesces_to_latest_in_first_touch_order() {
        let (q, m) = queue();
        q.push_all(&m, &[upd(1, 0, 1.0)]);
        q.push_all(&m, &[upd(1, 1, 1.0)]);
        q.push_all(&m, &[upd(1, 0, 5.0)]);
        assert_eq!(q.pending(), 3, "pending counts raw pushes");
        let drained = q.drain(&m).updates().to_vec();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].segment.index, 0, "first-touch order");
        assert_eq!(drained[0].score, 5.0, "latest score wins");
        assert_eq!(drained[1].segment.index, 1);
        assert_eq!(q.pending(), 0);
        assert!(q.drain(&m).is_empty());
    }

    #[test]
    fn merge_across_stripes_is_seq_ordered() {
        let (q, m) = queue();
        // First touches interleave across stripes; drain must restore the
        // global stamp order, not stripe-by-stripe order.
        let shards: Vec<usize> = [70, 0, 30].iter().map(|&i| m.locate(&upd(1, i, 0.0).segment)).collect();
        assert!(shards[0] != shards[1] && shards[1] != shards[2] && shards[0] != shards[2]);
        q.push_all(&m, &[upd(1, 70, 1.0)]);
        q.push_all(&m, &[upd(1, 0, 1.0)]);
        q.push_all(&m, &[upd(1, 30, 1.0)]);
        q.push_all(&m, &[upd(1, 70, 2.0)]); // coalesce keeps the first stamp
        let drained = q.drain(&m).updates().to_vec();
        let order: Vec<u64> = drained.iter().map(|u| u.segment.index).collect();
        assert_eq!(order, vec![70, 0, 30]);
        assert_eq!(drained[0].score, 2.0);
    }

    #[test]
    fn push_all_drains_identically_to_single_pushes() {
        // The same updates, once one push at a time, once as a batch: the
        // drains must match byte-for-byte (order and values), and the batch
        // must take fewer shard locks.
        let items: Vec<ScoreUpdate> = (0..40).map(|i| upd(1 + i % 2, i % 13, i as f64)).collect();
        let (one, one_map) = queue();
        for u in &items {
            one.push_all(&one_map, std::slice::from_ref(u));
        }
        let (many, many_map) = queue();
        many.push_all(&many_map, &items);
        assert_eq!(many.pending(), one.pending());
        let locks = |m: &StripedMap<()>| m.snapshot().shard_locks;
        assert!(locks(&many_map) < locks(&one_map), "grouping must save shard locks");
        let (a, b) = (one.drain(&one_map), many.drain(&many_map));
        assert_eq!(a.updates().len(), b.updates().len());
        for (x, y) in a.updates().iter().zip(b.updates()) {
            assert_eq!(x.segment, y.segment, "first-touch order must match");
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        many.push_all(&many_map, &[]);
        assert_eq!(many.pending(), 0, "empty batch is a no-op");
        many.push_all(&many_map, &items[7..8]);
        assert_eq!(many.drain(&many_map).updates(), &items[7..8], "one-item batch");
    }

    #[test]
    fn pending_is_exact_under_concurrent_push_and_drain() {
        let (q, m) = queue();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, m) = (&q, &m);
                s.spawn(move || {
                    for i in 0..2000 {
                        q.push_all(m, &[upd(t, i % 64, i as f64)]);
                    }
                });
            }
            let (q, m) = (&q, &m);
            s.spawn(move || {
                // Racing drains: a reset to zero would lose a push whose
                // count landed between the drain and the reset.
                for _ in 0..200 {
                    q.drain(m);
                    std::thread::yield_now();
                }
            });
        });
        // Raw accounting: once producers stop, one drain must leave the
        // counter at exactly zero — no drift in either direction.
        q.drain(&m);
        assert_eq!(q.pending(), 0, "counter consistent with (empty) queue");
    }

    #[test]
    fn fill_rewrites_pending_slots_and_later_pushes_supersede_it() {
        let (q, m) = queue();
        q.push_all(&m, &[upd(1, 2, 9.0)]); // pending before staging: rewritten
        q.push_all(&m, &[upd(1, 40, 9.0)]); // past the staged size: kept
        q.push_all(&m, &[upd(2, 0, 9.0)]); // another file: kept
        let fill = Fill::new(FileId(1), 4 * 1024 + 100, 1024, 0.5);
        q.push_fill(&m, fill.clone(), 5);
        q.push_all(&m, &[upd(1, 3, 7.0)]); // after staging: supersedes the fill
        assert_eq!(q.pending(), 3 + 5 + 1, "the fill counts the pushes it stands for");
        let batch = q.drain(&m);
        assert_eq!(q.pending(), 0);
        let score = |file: u64, index: u64| {
            let seg = SegmentId::new(FileId(file), index);
            batch.updates().iter().find(|u| u.segment == seg).map(|u| u.score)
        };
        assert_eq!(batch.updates()[0], fill.update(2), "rewritten to the staged update");
        assert_eq!(score(1, 40), Some(9.0));
        assert_eq!(score(2, 0), Some(9.0));
        assert_eq!(score(1, 3), Some(7.0));
        let fills = batch.fills();
        assert_eq!(fills.len(), 1);
        let covered: Vec<u64> = (0..6).filter(|&i| fills[0].covers(i)).collect();
        assert_eq!(covered, vec![0, 1, 4], "explicit slots are not expanded");
        assert_eq!(fills[0].size_of(4), 100, "short tail");
        assert_eq!(batch.len(), 4 + 3);
    }

    #[test]
    fn a_built_batch_holds_the_latest_update_per_segment() {
        let fill = Fill::new(FileId(1), 4 * 1024, 1024, 0.5);
        let batch = UpdateBatch::new(
            vec![upd(1, 2, 1.0), upd(2, 0, 1.0), upd(1, 2, 3.0)],
            vec![fill],
        );
        assert_eq!(batch.updates(), &[upd(1, 2, 3.0), upd(2, 0, 1.0)], "latest, first position");
        assert_eq!(batch.len(), 2 + 3, "the fill skips the updated segment once");
        let raw = UpdateBatch::from(vec![upd(1, 0, 9.0), upd(1, 0, 0.0)]);
        assert_eq!(raw.updates(), &[upd(1, 0, 0.0)]);
        // The collapse comes before a filter: dropping the latest update
        // leaves no older one, and the fill still skips the segment.
        let mut filtered = UpdateBatch::new(
            vec![upd(1, 2, 1.0), upd(2, 0, 1.0), upd(1, 2, 3.0)],
            vec![Fill::new(FileId(1), 4 * 1024, 1024, 0.5)],
        );
        filtered.retain(|u| u.score < 3.0);
        assert_eq!(filtered.updates(), &[upd(2, 0, 1.0)], "the earlier update is gone too");
        assert_eq!(filtered.len(), 1 + 3);
    }

    #[test]
    fn a_second_fill_replaces_the_first() {
        let (q, m) = queue();
        q.push_fill(&m, Fill::new(FileId(1), 2048, 1024, 0.5), 2);
        q.push_fill(&m, Fill::new(FileId(1), 4096, 1024, 0.5), 4);
        assert_eq!(q.pending(), 6);
        let batch = q.drain(&m);
        assert_eq!(batch.fills().len(), 1);
        assert_eq!(batch.fills()[0].segments(), 4, "the later staging wins");
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn lock_telemetry_counts_shard_visits_and_the_fills_lock() {
        let (q, m) = queue();
        q.push_all(&m, &[upd(1, 0, 1.0)]);
        q.push_all(&m, &[upd(1, 1, 1.0)]);
        assert_eq!((m.snapshot().shard_locks, q.lock_acquisitions()), (2, 0));
        q.drain(&m);
        let shards = dht::SHARDS as u64;
        assert_eq!(m.snapshot().shard_locks, 2 + shards, "drain visits every stripe");
        assert_eq!(q.lock_acquisitions(), 1, "and the fills once");
    }
}
