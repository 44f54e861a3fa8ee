//! The Hierarchical Data Placement Engine — Algorithm 1 of the paper.
//!
//! The engine maps the segment score spectrum onto the tier stack: hotter
//! segments in faster tiers. It keeps per-tier watermarks (min/max score of
//! the tier's contents), and when an updated score violates a segment's
//! current placement the segment is promoted or demoted; demotions cascade
//! down the hierarchy (`DemoteSegments`), naturally handling eviction —
//! "each segment has its natural position in the hierarchy based on its
//! score" (§III-D). Placement is *exclusive*: a segment lives in exactly
//! one tier. A closed file's segments cool to score 0 where they sit
//! ([`PlacementEngine::cool_file`]); a displaced cold segment is evicted,
//! never demoted, and an update re-keys a cold one in place.
//!
//! The engine is a pure planner: it models tier contents and emits
//! [`PlacementAction`]s; executing the data movement is the job of the I/O
//! clients (real mode) or the simulator control surface (sim mode). Score
//! ties cannot displace each other (the paper breaks ties randomly; we
//! break them deterministically by segment id for reproducible runs).
//!
//! A pass takes an [`UpdateBatch`]: explicit updates plus base-score fills
//! from epoch staging. It expands the fills inside the pass and makes
//! exactly the decisions the fully expanded vector would, but settles a
//! fill segment only while that can change the model (see
//! [`PlacementEngine::run_traced`]), so a pass costs work per cache
//! segment and touched segment, not per file segment.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use dht::FxHashMap;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

use crate::auditor::ScoreUpdate;
use crate::config::Reactiveness;
use crate::update_queue::{Fill, UpdateBatch};

/// Total order over non-negative f64 scores (IEEE-754 bit trick: for
/// non-negative floats, the bit pattern orders identically to the value).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ScoreKey(u64);

impl ScoreKey {
    /// The score of a cooled segment: its file's last reader closed it.
    /// Observed, anticipated and staged scores are always above it.
    pub(crate) const COLD: ScoreKey = ScoreKey(0);

    /// Builds a key from a non-negative score (negatives clamp to 0).
    pub fn new(score: f64) -> Self {
        ScoreKey(score.max(0.0).to_bits())
    }

    /// The score back as f64.
    pub fn score(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// A data movement the engine wants executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementAction {
    /// Bring `segment` into tier `to` (source: wherever it currently is —
    /// normally the backing store).
    Fetch {
        /// Segment to fetch.
        segment: SegmentId,
        /// Destination tier.
        to: TierId,
    },
    /// Move `segment` between cache tiers (promotion or demotion).
    Move {
        /// Segment to move.
        segment: SegmentId,
        /// Current tier.
        from: TierId,
        /// New tier.
        to: TierId,
    },
    /// Drop `segment` from the prefetch cache entirely (it fell off the
    /// bottom of the hierarchy).
    Evict {
        /// Segment to drop.
        segment: SegmentId,
        /// Tier it currently occupies.
        from: TierId,
    },
}

impl PlacementAction {
    /// The segment the action moves, and the tier it lands on (for an
    /// `Evict`, the tier it leaves).
    pub fn target(self) -> (SegmentId, TierId) {
        match self {
            Self::Fetch { segment, to } | Self::Move { segment, to, .. } => (segment, to),
            Self::Evict { segment, from } => (segment, from),
        }
    }

    /// The cache tier a `Move` takes its segment out of.
    pub fn moved_from(self) -> Option<TierId> {
        match self {
            Self::Move { from, .. } => Some(from),
            _ => None,
        }
    }
}

/// Stale entries a tier's heap may hold beyond its current ones before
/// [`PlacementEngine::prune`] drops them all: compacting costs a pass over
/// the heap, so it waits until the stale entries it drops outnumber the
/// current ones, and a small heap is never compacted for a few of them.
const STALE_SLACK: usize = 64;

/// One placement in a tier's heap. `stamp` is unique per placement and
/// re-key, so an entry stands for its segment only while the segment's
/// [`Placed::stamp`] still equals it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: ScoreKey,
    segment: SegmentId,
    stamp: u64,
}

#[derive(Debug)]
struct EngineTier {
    id: TierId,
    capacity: u64,
    used: u64,
    /// Min-heap of the tier's placements by (score, segment): the top is
    /// the demotion victim. A segment that leaves the tier or is re-keyed
    /// leaves its entry behind, stale; the engine pops stale entries off
    /// the top as soon as they reach it, so the top is always current, and
    /// drops all of them when they outnumber the current ones by
    /// [`STALE_SLACK`].
    heap: BinaryHeap<Reverse<Entry>>,
    /// Segments placed on the tier: the heap's current entries.
    count: usize,
}

impl EngineTier {
    fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// The current entry of lowest (score, segment).
    fn first(&self) -> Option<Entry> {
        self.heap.peek().map(|e| e.0)
    }

    fn min_key(&self) -> Option<ScoreKey> {
        self.first().map(|e| e.key)
    }
}

#[derive(Clone, Copy, Debug)]
struct Placed {
    tier_idx: usize,
    size: u64,
    key: ScoreKey,
    /// The stamp of the segment's current heap entry.
    stamp: u64,
}

impl Placed {
    /// True if `entry` is this placement's current heap entry.
    fn current(&self, entry: &Entry) -> bool {
        self.stamp == entry.stamp
    }

    /// True if `u` would re-key this placement to the key and size it has.
    fn keeps(&self, u: &ScoreUpdate) -> bool {
        ScoreKey::new(u.score) == self.key && u.size == self.size
    }
}

/// The placement engine (planner).
pub struct PlacementEngine {
    tiers: Vec<EngineTier>,
    /// Tiers currently marked offline (parallel to `tiers`). Offline tiers
    /// are skipped by [`PlacementEngine::settle`], so placements re-route
    /// down the hierarchy instead of targeting a dead tier.
    offline: Vec<bool>,
    placed: FxHashMap<SegmentId, Placed>,
    /// Source of [`Entry::stamp`]s.
    stamps: u64,
    reactiveness: Reactiveness,
    /// Displacement hysteresis: a segment may only displace a placed one
    /// if `score > victim_score * margin`. The paper's Algorithm 1 uses a
    /// strict comparison (margin 1.0); larger margins damp the data-
    /// movement churn of near-tied scores ("to avoid excessive data
    /// movements among the tiers", §III-D).
    margin: f64,
    last_run: Timestamp,
    runs: u64,
    /// Fill entries settled so far; the rest were skipped as no-ops.
    fill_settles: u64,
    /// Observability sink: every emitted [`PlacementAction`] is mirrored as
    /// a typed `obs::PlacementEvent` stamped with the engine's current run
    /// time (`last_run` — actions triggered outside a run, e.g. offline
    /// evacuations, carry the previous run's stamp). Disabled by default.
    obs: obs::Recorder,
    /// True while `set_tier_offline` re-settles an offline tier's contents,
    /// so the resulting moves trace as `Evacuate` rather than
    /// promote/demote.
    evacuating: bool,
    /// Causal lifecycle spans: the latest `decision` span of each segment
    /// currently in the model. A `Fetch` decision roots the segment onto
    /// the current pass span, moves chain onto the previous decision, and
    /// evictions close the chain and drop the entry. Always empty while
    /// the recorder is disabled.
    spans: FxHashMap<SegmentId, obs::SpanCtx>,
    /// Parent for `Fetch` decision spans: the triggering pass's drain span,
    /// installed by [`PlacementEngine::run_traced`] (NONE when untraced).
    pass_span: obs::SpanCtx,
}

impl PlacementEngine {
    /// Creates an engine planning over the cache tiers of `hierarchy`
    /// with the paper's strict displacement rule (margin 1.0).
    pub fn new(hierarchy: &Hierarchy, reactiveness: Reactiveness) -> Self {
        Self::with_margin(hierarchy, reactiveness, 1.0)
    }

    /// Creates an engine with explicit displacement hysteresis.
    pub fn with_margin(hierarchy: &Hierarchy, reactiveness: Reactiveness, margin: f64) -> Self {
        assert!(margin >= 1.0, "margin must be >= 1.0");
        let tiers = hierarchy
            .iter_cache()
            .map(|(id, spec)| EngineTier {
                id,
                capacity: spec.capacity,
                used: 0,
                heap: BinaryHeap::new(),
                count: 0,
            })
            .collect();
        let offline = vec![false; hierarchy.iter_cache().count()];
        Self {
            tiers,
            offline,
            placed: FxHashMap::default(),
            stamps: 0,
            reactiveness,
            margin,
            last_run: Timestamp::ZERO,
            runs: 0,
            fill_settles: 0,
            obs: obs::Recorder::default(),
            evacuating: false,
            spans: FxHashMap::default(),
            pass_span: obs::SpanCtx::NONE,
        }
    }

    /// Installs an observability recorder; subsequent placement decisions
    /// are mirrored into its decision trace as typed `PlacementEvent`s.
    pub fn set_recorder(&mut self, obs: obs::Recorder) {
        self.obs = obs;
    }

    /// Mirrors one placement decision into the decision trace. `from`/`to`
    /// are hierarchy indices (0 = fastest); `None` means the backing store
    /// (fetch source) or out-of-hierarchy (eviction target).
    ///
    /// Alongside the typed [`obs::PlacementEvent`], every decision is a
    /// `decision` instant span in the causal lifecycle tree: fetches root a
    /// new lifecycle under the triggering pass span, moves chain onto the
    /// segment's previous decision, evictions close the chain. Transfer
    /// executors pick the live span up via [`PlacementEngine::span_of`].
    fn record_placement(
        &mut self,
        segment: SegmentId,
        from: Option<TierId>,
        to: Option<TierId>,
        key: ScoreKey,
        size: u64,
        cause: obs::Cause,
    ) {
        if !self.obs.is_enabled() {
            return;
        }
        let at = self.last_run.as_nanos();
        self.obs.placement(obs::PlacementEvent {
            at,
            file: segment.file.0,
            segment: segment.index,
            from_tier: from.map(|t| t.0),
            to_tier: to.map(|t| t.0),
            score: key.score(),
            size,
            cause,
        });
        match to {
            Some(_) => {
                let parent = match cause {
                    obs::Cause::Fetch => self.pass_span,
                    _ => self.spans.get(&segment).copied().unwrap_or(self.pass_span),
                };
                let ctx =
                    self.obs.span_instant("decision", parent, at, segment.file.0, segment.index);
                self.spans.insert(segment, ctx);
            }
            None => {
                if let Some(prev) = self.spans.remove(&segment) {
                    self.obs.span_instant("decision", prev, at, segment.file.0, segment.index);
                }
            }
        }
    }

    /// The current lifecycle span of `segment`'s placement
    /// ([`obs::SpanCtx::NONE`] when untracked or the recorder is disabled).
    /// Callers executing a placement parent their transfer spans here so
    /// data movement, tier landing, and subsequent application reads chain
    /// back to the decision — and through it to the ingest — that caused
    /// them.
    pub fn span_of(&self, segment: SegmentId) -> obs::SpanCtx {
        self.spans.get(&segment).copied().unwrap_or(obs::SpanCtx::NONE)
    }

    /// True if the engine should run now, given pending update count
    /// (either trigger condition of §III-D: time interval OR update count).
    pub fn should_trigger(&self, now: Timestamp, pending_updates: usize) -> bool {
        pending_updates >= self.reactiveness.score_updates
            || (pending_updates > 0
                && now.since(self.last_run) >= self.reactiveness.interval)
    }

    /// Processes a batch of score updates, returning the actions to
    /// execute. Updates for the same segment collapse to the last one (see
    /// [`UpdateBatch::new`]).
    pub fn run(&mut self, batch: impl Into<UpdateBatch>, now: Timestamp) -> Vec<PlacementAction> {
        self.run_traced(batch, now, obs::SpanCtx::NONE)
    }

    /// [`PlacementEngine::run`] with an explicit causal parent: fetch
    /// decisions made during this pass root their lifecycle spans under
    /// `parent` (typically the triggering drain span), so the span tree
    /// reads ingest → drain → decision → transfer → landing → read.
    ///
    /// Entries settle hottest first, ties by segment id, fill entries
    /// merged into that order. Once a fill segment that was not placed
    /// settles without an action, the model is unchanged, and every later
    /// entry of that fill of the same size would do the same. The pass then
    /// jumps to the next entry that can differ: a segment of the file placed
    /// at pass start, or a tail segment of another size. The only explicit
    /// updates that sort inside the skipped run tie the fill score in the
    /// same file; unless placed at pass start, such an update can only take
    /// free room, which keeps the run idle.
    pub fn run_traced(
        &mut self,
        batch: impl Into<UpdateBatch>,
        now: Timestamp,
        parent: obs::SpanCtx,
    ) -> Vec<PlacementAction> {
        self.pass_span = parent;
        self.last_run = now;
        self.runs += 1;
        let (mut order, fills) = batch.into().into_parts();
        let mut actions = Vec::new();
        // A cooled resident segment this pass updates is re-keyed where it
        // sits before anything settles, so no other update of the pass
        // evicts it as a cold victim only for it to be fetched back.
        if self.holds_cold() {
            for u in order.iter().filter(|u| u.size > 0) {
                if self.score_of(u.segment) == Some(0.0) {
                    self.rekey(u.segment, ScoreKey::new(u.score));
                }
            }
            if !fills.is_empty() {
                self.rekey_all(|key, s| {
                    if key != ScoreKey::COLD {
                        return key;
                    }
                    (fills.iter().find(|f| f.file() == s.file))
                        .filter(|f| f.covers(s.index))
                        .map_or(key, |f| ScoreKey::new(f.score()))
                });
            }
        }
        // Place hotter segments first so they claim fast tiers before
        // colder ones fill them.
        // One update per segment, so the order is total.
        order.sort_unstable_by_key(settle_key);
        if fills.is_empty() {
            for &u in &order {
                self.apply(u, &mut actions);
            }
        } else {
            self.run_with_fills(&order, &fills, &mut actions);
        }
        actions
    }

    /// The pass loop with fills: merges each fill's entries into the
    /// sorted explicit updates, skipping runs of no-op fill entries.
    fn run_with_fills(
        &mut self,
        order: &[ScoreUpdate],
        fills: &[Fill],
        actions: &mut Vec<PlacementAction>,
    ) {
        let mut cursors: Vec<FillCursor> = fills.iter().map(FillCursor::new).collect();
        for (seg, p) in &self.placed {
            if let Some(c) = cursors.iter_mut().find(|c| c.fill.file() == seg.file) {
                if c.fill.covers(seg.index) && !p.keeps(&c.fill.update(seg.index)) {
                    c.stops.push(seg.index);
                }
            }
        }
        for u in order {
            let Some(c) = cursors.iter_mut().find(|c| c.fill.file() == u.segment.file) else {
                continue;
            };
            // A tied update sorts among the fill's entries. It keeps a jump
            // going only with the size of the entry it replaces.
            let index = u.segment.index;
            let tied = u.score == c.fill.score() && index < c.segments;
            let keeps = |p: &Placed| p.keeps(u) && u.size == c.fill.size_of(index);
            if tied && self.placed.get(&u.segment).is_some_and(|p| !keeps(p)) {
                c.stops.push(index);
            }
        }
        for c in &mut cursors {
            c.stops.sort_unstable();
            c.seek(0);
        }
        let mut explicit = order.iter().copied().peekable();
        loop {
            let fill = (0..cursors.len())
                .filter(|&i| cursors[i].live())
                .min_by(|&a, &b| settle_order(&cursors[a].head, &cursors[b].head));
            let i = match (explicit.peek(), fill) {
                (None, None) => break,
                (None, Some(i)) => i,
                (Some(u), Some(i)) if settle_order(&cursors[i].head, u).is_lt() => i,
                _ => {
                    let u = explicit.next().expect("peeked");
                    self.apply(u, actions);
                    continue;
                }
            };
            let c = &mut cursors[i];
            let head = c.head;
            let before = actions.len();
            self.fill_settles += 1;
            let origin = self.apply(head, actions);
            // Nothing moved, and no tier would take another entry of this
            // size and score: an idle entry of a segment that was not
            // placed shows it, for one that was it is checked.
            let key = ScoreKey::new(head.score);
            let quiet = actions.len() == before
                && (origin.is_none() || !self.tier_takes(self.tiers.len(), head.size, key));
            if quiet {
                c.jump(head);
            } else {
                c.seek(head.segment.index + 1);
            }
        }
    }

    /// Settles one update: takes the segment out of the model and places
    /// it by its new score. Returns the tier it was on. A placed segment
    /// whose size is unchanged is re-keyed where it sits unless a faster
    /// tier would take it ([`PlacementEngine::tier_takes`]): taking it
    /// out and settling it again would put it back on its own tier. A
    /// segment on an offline tier is re-keyed where it sits too: its bytes
    /// can be neither read nor dropped until the tier is back.
    fn apply(&mut self, u: ScoreUpdate, actions: &mut Vec<PlacementAction>) -> Option<TierId> {
        if u.size == 0 {
            return None;
        }
        let key = ScoreKey::new(u.score);
        let origin = match self.placed.get(&u.segment) {
            None => None,
            Some(p)
                if self.offline[p.tier_idx]
                    || (p.size == u.size && !self.tier_takes(p.tier_idx, u.size, key)) =>
            {
                return self.rekey(u.segment, key);
            }
            Some(_) => self.unplace(u.segment),
        };
        self.settle(u.segment, u.size, key, origin, 0, actions);
        origin
    }

    /// True if [`PlacementEngine::settle`] would place a `size`-byte
    /// segment keyed `key` on an online tier above `idx` (on any tier when
    /// `idx` is the tier count), or demote something there trying: the
    /// tier has free room for it, or it beats the tier's minimum by the
    /// displacement margin.
    fn tier_takes(&self, idx: usize, size: u64, key: ScoreKey) -> bool {
        let margin = self.margin;
        (self.tiers[..idx].iter().zip(&self.offline)).any(|(tier, &offline)| {
            !offline
                && tier.capacity >= size
                && (tier.free() >= size
                    || tier.min_key().is_some_and(|min| key.score() > min.score() * margin))
        })
    }

    /// Moves a placed segment to `key` within its tier; returns the tier.
    fn rekey(&mut self, segment: SegmentId, key: ScoreKey) -> Option<TierId> {
        let p = self.placed.get_mut(&segment)?;
        let (idx, stale) = (p.tier_idx, p.stamp);
        if p.key != key {
            self.stamps += 1;
            p.key = key;
            p.stamp = self.stamps;
            self.tiers[idx].heap.push(Reverse(Entry { key, segment, stamp: self.stamps }));
            self.prune(idx, stale);
        }
        Some(self.tiers[idx].id)
    }

    /// The current entries of tier `idx`, in no particular order.
    fn entries(&self, idx: usize) -> impl Iterator<Item = Entry> + '_ {
        (self.tiers[idx].heap.iter().map(|e| e.0))
            .filter(|e| self.placed.get(&e.segment).is_some_and(|p| p.current(e)))
    }

    /// Tier `idx`'s entry stamped `stale` just went stale. The top was
    /// current before, so only that entry can have made it stale: if it
    /// tops the heap, pops it and any stale entries under it. Once stale
    /// entries outnumber the current ones by [`STALE_SLACK`], drops all of
    /// them.
    fn prune(&mut self, idx: usize, stale: u64) {
        let tier = &mut self.tiers[idx];
        if tier.heap.len() - tier.count > tier.count + STALE_SLACK {
            let placed = &self.placed;
            let mut heap = std::mem::take(&mut tier.heap).into_vec();
            heap.retain(|e| placed.get(&e.0.segment).is_some_and(|p| p.current(&e.0)));
            tier.heap = heap.into();
            return;
        }
        if tier.heap.peek().is_none_or(|top| top.0.stamp != stale) {
            return;
        }
        tier.heap.pop();
        while let Some(top) = tier.heap.peek() {
            if self.placed.get(&top.0.segment).is_some_and(|p| p.current(&top.0)) {
                break;
            }
            tier.heap.pop();
        }
    }

    /// Re-keys placed segments where they sit: `key_of` maps each one's
    /// key to its new key. One linear heap rebuild per tier, which also
    /// drops its stale entries: this re-keys up to the whole cache at once.
    fn rekey_all(&mut self, mut key_of: impl FnMut(ScoreKey, SegmentId) -> ScoreKey) {
        let (placed, stamps) = (&mut self.placed, &mut self.stamps);
        for tier in &mut self.tiers {
            let mut entries = std::mem::take(&mut tier.heap).into_vec();
            entries.retain_mut(|Reverse(e)| {
                let Some(p) = placed.get_mut(&e.segment).filter(|p| p.current(e)) else {
                    return false;
                };
                let key = key_of(e.key, e.segment);
                if key != e.key {
                    *stamps += 1;
                    *e = Entry { key, segment: e.segment, stamp: *stamps };
                    (p.key, p.stamp) = (key, e.stamp);
                }
                true
            });
            tier.heap = entries.into();
        }
    }

    /// True while some tier holds a cold segment (cold keys sort first).
    fn holds_cold(&self) -> bool {
        self.tiers.iter().any(|t| t.min_key() == Some(ScoreKey::COLD))
    }

    /// Removes a segment from the model, returning its previous tier.
    fn unplace(&mut self, segment: SegmentId) -> Option<TierId> {
        let placed = self.placed.remove(&segment)?;
        let tier = &mut self.tiers[placed.tier_idx];
        tier.used -= placed.size;
        tier.count -= 1;
        let id = tier.id;
        self.prune(placed.tier_idx, placed.stamp);
        Some(id)
    }

    /// Places `segment` on tier `idx` under `key`.
    fn place(&mut self, idx: usize, segment: SegmentId, size: u64, key: ScoreKey) {
        self.stamps += 1;
        let stamp = self.stamps;
        let tier = &mut self.tiers[idx];
        tier.heap.push(Reverse(Entry { key, segment, stamp }));
        tier.used += size;
        tier.count += 1;
        self.placed.insert(segment, Placed { tier_idx: idx, size, key, stamp });
    }

    /// Algorithm 1: finds `segment`'s natural tier starting from
    /// `start_idx`, demoting colder segments as needed. `origin` is where
    /// the segment's bytes currently are (None = not cached). A displaced
    /// cold victim is evicted, not demoted: a zero score never justifies a
    /// transfer.
    fn settle(
        &mut self,
        segment: SegmentId,
        size: u64,
        key: ScoreKey,
        origin: Option<TierId>,
        start_idx: usize,
        actions: &mut Vec<PlacementAction>,
    ) {
        for idx in start_idx..self.tiers.len() {
            if self.offline[idx] {
                continue; // tier is offline: route around it
            }
            if self.tiers[idx].capacity < size {
                continue; // segment can never fit this tier
            }
            // CalculatePlacement line 2: does the segment belong here?
            // (With hysteresis: it must beat the tier minimum by the
            // displacement margin, unless there is free room.)
            let margin = self.margin;
            let beats = move |vkey: ScoreKey| key.score() > vkey.score() * margin;
            let belongs = self.tiers[idx].free() >= size
                || self.tiers[idx].min_key().is_some_and(beats);
            if !belongs {
                continue;
            }
            // Make room by demoting sufficiently colder segments
            // (lines 3-5).
            while self.tiers[idx].free() < size {
                let (vkey, vseg) = match self.tiers[idx].first() {
                    Some(e) if beats(e.key) => (e.key, e.segment),
                    _ => break, // remaining segments are too hot to displace
                };
                let vsize = self.placed[&vseg].size;
                let vorigin = self.unplace(vseg);
                let below = if vkey == ScoreKey::COLD { self.tiers.len() } else { idx + 1 };
                self.settle(vseg, vsize, vkey, vorigin, below, actions);
            }
            if self.tiers[idx].free() < size {
                continue; // could not make room; try the next tier down
            }
            // Place here (lines 6-8).
            let tier_id = self.tiers[idx].id;
            self.place(idx, segment, size, key);
            match origin {
                None => {
                    actions.push(PlacementAction::Fetch { segment, to: tier_id });
                    self.record_placement(segment, None, Some(tier_id), key, size, obs::Cause::Fetch);
                }
                Some(from) if from == tier_id => {} // stays put
                Some(from) => {
                    actions.push(PlacementAction::Move { segment, from, to: tier_id });
                    let cause = if self.evacuating {
                        obs::Cause::Evacuate
                    } else if tier_id.0 < from.0 {
                        obs::Cause::Promote
                    } else {
                        obs::Cause::Demote
                    };
                    self.record_placement(segment, Some(from), Some(tier_id), key, size, cause);
                }
            }
            return;
        }
        // Fell off the hierarchy: evict if it was cached.
        if let Some(from) = origin {
            actions.push(PlacementAction::Evict { segment, from });
            self.record_placement(segment, Some(from), None, key, size, obs::Cause::Evict);
        }
    }

    /// Where `segment` is currently placed.
    pub fn location(&self, segment: SegmentId) -> Option<TierId> {
        self.placed.get(&segment).map(|p| self.tiers[p.tier_idx].id)
    }

    /// The score `segment` is placed by, if it is placed.
    pub fn score_of(&self, segment: SegmentId) -> Option<f64> {
        self.placed.get(&segment).map(|p| p.key.score())
    }

    /// Every placed segment with the tier it occupies, in no particular
    /// order.
    pub fn placements(&self) -> impl Iterator<Item = (SegmentId, TierId)> + '_ {
        self.placed.iter().map(|(&segment, p)| (segment, self.tiers[p.tier_idx].id))
    }

    /// True if the engine currently models `tier` as offline.
    pub fn tier_offline(&self, tier: TierId) -> bool {
        self.tiers
            .iter()
            .position(|t| t.id == tier)
            .is_some_and(|idx| self.offline[idx])
    }

    /// Marks a cache tier offline (or back online). Going offline
    /// evacuates the tier's modeled contents: each segment re-settles into
    /// the remaining online tiers, hottest first, yielding `Move` actions
    /// down the hierarchy (or `Evict` when nothing fits) for the caller to
    /// execute. Cold segments stay where they are: moving them is not worth
    /// a transfer, and an offline tier cannot drop them. Unknown tiers
    /// (e.g. the backing tier) are ignored. Going back online emits nothing
    /// — subsequent engine runs will repopulate the tier naturally.
    pub fn set_tier_offline(&mut self, tier: TierId, offline: bool) -> Vec<PlacementAction> {
        let Some(idx) = self.tiers.iter().position(|t| t.id == tier) else {
            return Vec::new();
        };
        if self.offline[idx] == offline {
            return Vec::new();
        }
        self.offline[idx] = offline;
        if !offline {
            return Vec::new();
        }
        // Evacuate hottest-first so hot segments claim the best remaining
        // slots before colder ones fill them.
        let mut contents: Vec<(ScoreKey, SegmentId)> = (self.entries(idx))
            .filter(|e| e.key != ScoreKey::COLD)
            .map(|e| (e.key, e.segment))
            .collect();
        contents.sort_unstable_by(|a, b| b.cmp(a));
        let mut actions = Vec::with_capacity(contents.len());
        self.evacuating = true;
        for (key, seg) in contents {
            let size = self.placed[&seg].size;
            let origin = self.unplace(seg);
            self.settle(seg, size, key, origin, 0, &mut actions);
        }
        self.evacuating = false;
        actions
    }

    /// Cools every placed segment of `file` to score 0 where it sits
    /// (epoch end): the segments keep their bytes and their tier, and leave
    /// only when a hotter segment needs the room. Emits no action and no
    /// placement event.
    pub fn cool_file(&mut self, file: FileId) {
        self.rekey_all(|key, s| if s.file == file { ScoreKey::COLD } else { key });
    }

    /// Removes one segment from the model (e.g. after a write invalidated
    /// it). Returns the tier it occupied, if any. No action is emitted —
    /// the caller has already dropped the data — but the removal *is*
    /// traced (as an evict), so the placement-event stream stays closed:
    /// replaying it reconstructs the model's residency exactly, even under
    /// fault-driven reconciliation.
    pub fn remove_segment(&mut self, segment: SegmentId) -> Option<TierId> {
        let placed = self.placed.get(&segment).map(|p| (p.key, p.size));
        let from = self.unplace(segment);
        if let (Some(from), Some((key, size))) = (from, placed) {
            self.record_placement(segment, Some(from), None, key, size, obs::Cause::Evict);
        }
        from
    }

    /// Bytes the model thinks tier `idx` holds.
    pub fn tier_used(&self, idx: usize) -> u64 {
        self.tiers[idx].used
    }

    /// `(min, max)` score watermarks of tier `idx`. The minimum tops the
    /// heap; the maximum takes a scan of the tier's placements.
    pub fn watermarks(&self, idx: usize) -> (Option<f64>, Option<f64>) {
        let max = self.entries(idx).map(|e| e.key).max();
        (self.tiers[idx].min_key().map(ScoreKey::score), max.map(ScoreKey::score))
    }

    /// Number of segments placed across all tiers.
    pub fn placed_segments(&self) -> usize {
        self.placed.len()
    }

    /// How many times the engine has run.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Fill entries settled so far. Passes skip the fill entries they can
    /// prove change nothing, so this stays near the number of cache
    /// segments rather than the size of the staged files.
    pub fn fill_settles(&self) -> u64 {
        self.fill_settles
    }

    /// Verifies internal invariants; used by tests.
    ///
    /// * `used` equals the sum of placed sizes per tier,
    /// * capacity is never exceeded,
    /// * score ordering across tiers: every segment in a faster tier scores
    ///   ≥ the max of any slower tier *minus displacement slack* is NOT
    ///   required (placement is greedy/incremental), but min ≤ max per tier
    ///   must hold,
    /// * `placed` and tier contents agree exactly.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0;
        for (idx, t) in self.tiers.iter().enumerate() {
            let entries: Vec<Entry> = self.entries(idx).collect();
            let sum: u64 = entries.iter().map(|e| self.placed[&e.segment].size).sum();
            if sum != t.used {
                return Err(format!("tier {idx}: used {} != contents {}", t.used, sum));
            }
            if t.used > t.capacity {
                return Err(format!("tier {idx}: over capacity"));
            }
            for e in &entries {
                match self.placed.get(&e.segment) {
                    Some(p) if p.tier_idx == idx && p.key == e.key => {}
                    other => return Err(format!("{:?} mismatch: {other:?}", e.segment)),
                }
            }
            if entries.len() != t.count {
                return Err(format!("tier {idx}: count {} != contents {}", t.count, entries.len()));
            }
            if t.heap.peek().is_some_and(|top| Some(top.0) != entries.iter().min().copied()) {
                return Err(format!("tier {idx}: a stale entry tops the heap"));
            }
            seen += entries.len();
        }
        if seen != self.placed.len() {
            return Err(format!("placed {} != contents {}", self.placed.len(), seen));
        }
        Ok(())
    }
}

/// The order a pass settles updates in: hottest first, ties by segment id.
fn settle_order(a: &ScoreUpdate, b: &ScoreUpdate) -> Ordering {
    settle_key(a).cmp(&settle_key(b))
}

/// [`settle_order`] as a key: the score's bits mapped to an integer that
/// orders as the score does (`-0.0` as `0.0`; scores are never NaN),
/// inverted for hottest first, then the segment.
fn settle_key(u: &ScoreUpdate) -> (u64, SegmentId) {
    let bits = (u.score + 0.0).to_bits();
    let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    (!ordered, u.segment)
}

/// One fill's position in a pass.
struct FillCursor<'a> {
    fill: &'a Fill,
    segments: u64,
    /// The next index to settle (or past the end).
    next: u64,
    /// The update at `next`, while `next` is below `segments`.
    head: ScoreUpdate,
    /// The indices the fill does not expand, from the first one at or
    /// past `next`.
    except: &'a [u64],
    /// Sorted indices a jump must not pass: the file's segments placed at
    /// pass start whose entry (its fill entry, or an explicit update tied
    /// with the fill) does not keep their key and size. Until the walk
    /// reaches it, nothing else re-keys such a segment (explicit updates
    /// skip covered segments, and a demotion keeps its key), so an entry
    /// that keeps them changes nothing while no tier takes another entry.
    stops: Vec<u64>,
    /// Number of `stops` a jump has passed.
    passed: usize,
}

impl<'a> FillCursor<'a> {
    fn new(fill: &'a Fill) -> Self {
        Self {
            fill,
            segments: fill.segments(),
            next: 0,
            head: fill.update(0),
            except: fill.except(),
            stops: Vec::new(),
            passed: 0,
        }
    }

    /// True while entries are left.
    fn live(&self) -> bool {
        self.next < self.segments
    }

    /// Moves to the first index at or past `to` (and `next`) that the fill
    /// covers.
    fn seek(&mut self, to: u64) {
        self.next = self.next.max(to);
        while let Some((&index, rest)) = self.except.split_first() {
            if index > self.next {
                break;
            }
            self.except = rest;
            if index == self.next {
                self.next += 1;
            }
        }
        if self.live() {
            self.head = self.fill.update(self.next);
        }
    }

    /// `idle` settled without placing or moving anything, and no tier
    /// takes another segment of its size at its score. Jumps over the
    /// following entries that would do the same: every one up to a stop or
    /// a tail segment of another size. A segment that was not placed
    /// finds no tier, and a placed one is re-keyed to the key it has.
    fn jump(&mut self, idle: ScoreUpdate) {
        let mut bound = self.segments;
        while self.stops.get(self.passed).is_some_and(|&i| i <= idle.segment.index) {
            self.passed += 1;
        }
        if let Some(&i) = self.stops.get(self.passed) {
            bound = bound.min(i);
        }
        let last = self.segments - 1;
        if last > idle.segment.index && self.fill.size_of(last) != idle.size {
            bound = bound.min(last);
        }
        self.seek(bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tiers::units::MIB;

    const F: FileId = FileId(0);

    fn update(index: u64, score: f64) -> ScoreUpdate {
        ScoreUpdate { segment: SegmentId::new(F, index), score, size: MIB, anticipated: false }
    }

    /// RAM 2 MiB, NVMe 4 MiB, BB 8 MiB over PFS.
    fn engine() -> PlacementEngine {
        let h = Hierarchy::with_budgets(2 * MIB, 4 * MIB, 8 * MIB);
        PlacementEngine::new(&h, Reactiveness::high())
    }

    #[test]
    fn scorekey_orders_floats() {
        assert!(ScoreKey::new(2.0) > ScoreKey::new(1.0));
        assert!(ScoreKey::new(0.1) > ScoreKey::new(0.0));
        assert_eq!(ScoreKey::new(-5.0), ScoreKey::new(0.0));
        assert_eq!(ScoreKey::new(1.5).score(), 1.5);
    }

    #[test]
    fn settle_key_orders_as_the_scores_then_the_segments() {
        let scores = [0.0, -0.0, 5e-324, -5e-324, 1e-6, 1.0, -1.0, 2.5, f64::MAX, f64::MIN];
        for (a, b) in scores.iter().flat_map(|a| scores.iter().map(move |b| (*a, *b))) {
            for (i, j) in [(1, 2), (2, 1), (3, 3)] {
                let (x, y) = (update(i, a), update(j, b));
                let want = b.partial_cmp(&a).unwrap().then(x.segment.cmp(&y.segment));
                assert_eq!(settle_order(&x, &y), want, "{a} #{i} vs {b} #{j}");
            }
        }
    }

    #[test]
    fn hot_segments_land_in_ram() {
        let mut e = engine();
        let actions = e.run(vec![update(0, 5.0), update(1, 4.0)], Timestamp::ZERO);
        assert_eq!(actions.len(), 2);
        assert!(actions
            .iter()
            .all(|a| matches!(a, PlacementAction::Fetch { to: TierId(0), .. })));
        assert_eq!(e.tier_used(0), 2 * MIB);
        e.check_invariants().unwrap();
    }

    #[test]
    fn overflow_spills_to_lower_tiers_by_score() {
        let mut e = engine();
        // 8 segments, descending scores; RAM fits 2, NVMe 4, BB 2 more.
        let updates: Vec<ScoreUpdate> = (0..8).map(|i| update(i, 10.0 - i as f64)).collect();
        let actions = e.run(updates, Timestamp::ZERO);
        assert_eq!(actions.len(), 8);
        assert_eq!(e.location(SegmentId::new(F, 0)), Some(TierId(0)));
        assert_eq!(e.location(SegmentId::new(F, 1)), Some(TierId(0)));
        assert_eq!(e.location(SegmentId::new(F, 2)), Some(TierId(1)));
        assert_eq!(e.location(SegmentId::new(F, 5)), Some(TierId(1)));
        assert_eq!(e.location(SegmentId::new(F, 6)), Some(TierId(2)));
        assert_eq!(e.location(SegmentId::new(F, 7)), Some(TierId(2)));
        e.check_invariants().unwrap();
    }

    #[test]
    fn paper_example_promotion_demotes_previous_minimum() {
        // §III-D: RAM min score 2.0; a segment updates to 2.2 → it enters
        // RAM and the 2.0 segment demotes to NVMe.
        let mut e = engine();
        e.run(vec![update(0, 2.0), update(1, 3.0)], Timestamp::ZERO); // RAM full
        e.run(vec![update(2, 1.0)], Timestamp::ZERO); // parks in NVMe
        assert_eq!(e.location(SegmentId::new(F, 2)), Some(TierId(1)));
        let actions = e.run(vec![update(2, 2.2)], Timestamp::ZERO);
        assert_eq!(e.location(SegmentId::new(F, 2)), Some(TierId(0)), "2.2 > min 2.0");
        assert_eq!(e.location(SegmentId::new(F, 0)), Some(TierId(1)), "2.0 demoted");
        assert!(actions.contains(&PlacementAction::Move {
            segment: SegmentId::new(F, 0),
            from: TierId(0),
            to: TierId(1)
        }));
        assert!(actions.contains(&PlacementAction::Move {
            segment: SegmentId::new(F, 2),
            from: TierId(1),
            to: TierId(0)
        }));
        e.check_invariants().unwrap();
    }

    #[test]
    fn equal_scores_cannot_displace() {
        let mut e = engine();
        e.run(vec![update(0, 2.0), update(1, 2.0)], Timestamp::ZERO);
        let actions = e.run(vec![update(2, 2.0)], Timestamp::ZERO);
        assert_eq!(e.location(SegmentId::new(F, 2)), Some(TierId(1)), "tie → next tier");
        assert_eq!(actions, vec![PlacementAction::Fetch {
            segment: SegmentId::new(F, 2),
            to: TierId(1)
        }]);
    }

    #[test]
    fn cold_updates_cascade_to_eviction() {
        let mut e = engine();
        // Fill the entire hierarchy (14 MiB) with warm segments.
        let updates: Vec<ScoreUpdate> = (0..14).map(|i| update(i, 5.0)).collect();
        e.run(updates, Timestamp::ZERO);
        assert_eq!(e.placed_segments(), 14);
        // A hotter segment pushes the coldest one off the bottom.
        let actions = e.run(vec![update(99, 9.0)], Timestamp::ZERO);
        assert_eq!(e.placed_segments(), 14);
        assert_eq!(e.location(SegmentId::new(F, 99)), Some(TierId(0)));
        let evictions: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, PlacementAction::Evict { .. }))
            .collect();
        assert_eq!(evictions.len(), 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn score_decay_demotes_stale_segments() {
        let mut e = engine();
        e.run(vec![update(0, 5.0), update(1, 4.0)], Timestamp::ZERO);
        // Segment 0 cools below segment 1 — and two new hot ones arrive.
        let actions = e.run(
            vec![update(0, 0.5), update(2, 6.0), update(3, 5.5)],
            Timestamp::from_secs(1),
        );
        assert_eq!(e.location(SegmentId::new(F, 2)), Some(TierId(0)));
        assert_eq!(e.location(SegmentId::new(F, 3)), Some(TierId(0)));
        assert_eq!(e.location(SegmentId::new(F, 1)), Some(TierId(1)));
        assert_eq!(e.location(SegmentId::new(F, 0)), Some(TierId(1)));
        assert!(actions.len() >= 4);
        e.check_invariants().unwrap();
    }

    #[test]
    fn resettling_same_tier_emits_no_action() {
        let mut e = engine();
        e.run(vec![update(0, 5.0)], Timestamp::ZERO);
        let actions = e.run(vec![update(0, 5.1)], Timestamp::ZERO);
        assert!(actions.is_empty(), "stayed in RAM: {actions:?}");
    }

    #[test]
    fn duplicate_updates_collapse_to_latest() {
        let mut e = engine();
        let actions = e.run(
            vec![update(0, 9.0), update(0, 0.0), update(0, 3.0)],
            Timestamp::ZERO,
        );
        assert_eq!(actions.len(), 1);
        assert_eq!(e.location(SegmentId::new(F, 0)), Some(TierId(0)));
        assert_eq!(e.watermarks(0).0, Some(3.0));
    }

    #[test]
    fn zero_size_updates_are_skipped() {
        let mut e = engine();
        let mut u = update(0, 5.0);
        u.size = 0;
        assert!(e.run(vec![u], Timestamp::ZERO).is_empty());
        assert_eq!(e.placed_segments(), 0);
    }

    #[test]
    fn oversized_segment_skips_small_tiers() {
        let h = Hierarchy::with_budgets(MIB, 4 * MIB, 8 * MIB);
        let mut e = PlacementEngine::new(&h, Reactiveness::high());
        let big = ScoreUpdate {
            segment: SegmentId::new(F, 0),
            score: 100.0,
            size: 2 * MIB,
            anticipated: false,
        };
        let actions = e.run(vec![big], Timestamp::ZERO);
        assert_eq!(actions, vec![PlacementAction::Fetch {
            segment: SegmentId::new(F, 0),
            to: TierId(1)
        }]);
    }

    #[test]
    fn cool_file_rekeys_only_that_file_in_place() {
        let mut e = engine();
        let other = SegmentId::new(FileId(9), 0);
        let foreign = ScoreUpdate { segment: other, score: 4.0, size: MIB, anticipated: false };
        let updates: Vec<ScoreUpdate> = (0..4).map(|i| update(i, 5.0 + i as f64)).collect();
        e.run(updates.into_iter().chain([foreign]).collect::<Vec<_>>(), Timestamp::ZERO);
        let before: Vec<_> = (0..4).map(|i| e.location(SegmentId::new(F, i))).collect();
        e.cool_file(F);
        for (i, tier) in before.into_iter().enumerate() {
            let seg = SegmentId::new(F, i as u64);
            assert_eq!((e.location(seg), e.score_of(seg)), (tier, Some(0.0)), "segment {i}");
        }
        assert_eq!(e.score_of(other), Some(4.0));
        assert_eq!(e.placed_segments(), 5);
        e.check_invariants().unwrap();
        // A re-open's update re-keys a resident segment where it sits.
        assert!(e.run(vec![update(2, 6.0)], Timestamp::ZERO).is_empty());
        assert_eq!(e.score_of(SegmentId::new(F, 2)), Some(6.0));
        e.check_invariants().unwrap();
    }

    #[test]
    fn a_cold_victim_is_evicted_not_demoted() {
        let mut e = engine();
        e.run(vec![update(0, 5.0), update(1, 4.0)], Timestamp::ZERO);
        e.cool_file(F);
        // NVMe has room, but a cold segment is not worth a transfer.
        let hot = SegmentId::new(FileId(1), 0);
        let u = ScoreUpdate { segment: hot, score: 0.5, size: MIB, anticipated: true };
        let actions = e.run(vec![u], Timestamp::ZERO);
        assert_eq!(actions, vec![
            PlacementAction::Evict { segment: SegmentId::new(F, 0), from: TierId(0) },
            PlacementAction::Fetch { segment: hot, to: TierId(0) },
        ]);
        assert_eq!(e.location(SegmentId::new(F, 1)), Some(TierId(0)), "one victim made room");
        e.check_invariants().unwrap();
    }

    #[test]
    fn a_reopen_rekeys_resident_segments_without_shuffling_them() {
        let mut e = engine();
        // RAM holds 4 and 5, NVMe 0..=3.
        let placed: Vec<ScoreUpdate> = (0..6).map(|i| update(i, 1.0 + i as f64)).collect();
        e.run(placed, Timestamp::ZERO);
        assert_eq!(e.location(SegmentId::new(F, 4)), Some(TierId(0)));
        e.cool_file(F);
        // Equal scores, settled by segment id: 0 must not take RAM from the
        // cold 4 only for 4 to be fetched back into 0's old room.
        let reopen: Vec<ScoreUpdate> = (0..6).map(|i| update(i, 0.5)).collect();
        assert_eq!(e.run(reopen, Timestamp::ZERO), vec![]);
        let fill = Fill::new(F, 8 * MIB, MIB, 0.5);
        e.cool_file(F);
        let staged = e.run(UpdateBatch::new(Vec::new(), vec![fill]), Timestamp::ZERO);
        assert!(staged.iter().all(|a| matches!(a, PlacementAction::Fetch { .. })), "{staged:?}");
        assert_eq!(e.location(SegmentId::new(F, 4)), Some(TierId(0)));
        e.check_invariants().unwrap();
    }

    #[test]
    fn going_offline_leaves_cold_segments_and_rekeys_them_in_place() {
        let mut e = engine();
        e.run(vec![update(0, 5.0), update(1, 4.0)], Timestamp::ZERO);
        e.cool_file(F);
        e.run(vec![update(1, 4.0)], Timestamp::ZERO);
        let actions = e.set_tier_offline(TierId(0), true);
        assert_eq!(actions, vec![PlacementAction::Move {
            segment: SegmentId::new(F, 1),
            from: TierId(0),
            to: TierId(1)
        }]);
        assert_eq!(e.location(SegmentId::new(F, 0)), Some(TierId(0)), "cold: stays put");
        // An update cannot move it off the offline tier either.
        assert!(e.run(vec![update(0, 9.0)], Timestamp::ZERO).is_empty());
        let seg = SegmentId::new(F, 0);
        assert_eq!((e.location(seg), e.score_of(seg)), (Some(TierId(0)), Some(9.0)));
        e.check_invariants().unwrap();
    }

    #[test]
    fn trigger_conditions() {
        let h = Hierarchy::with_budgets(MIB, MIB, MIB);
        let e = PlacementEngine::new(&h, Reactiveness::medium());
        assert!(!e.should_trigger(Timestamp::ZERO, 0));
        assert!(!e.should_trigger(Timestamp::from_millis(10), 99));
        assert!(e.should_trigger(Timestamp::from_millis(10), 100), "count trigger");
        assert!(e.should_trigger(Timestamp::from_secs(2), 1), "interval trigger");
        assert!(!e.should_trigger(Timestamp::from_secs(2), 0), "no updates, no run");
    }

    #[test]
    fn offline_tier_is_skipped_by_settle() {
        let mut e = engine();
        assert!(e.set_tier_offline(TierId(0), true).is_empty(), "empty tier, no evacuation");
        assert!(e.tier_offline(TierId(0)));
        let actions = e.run(vec![update(0, 9.0)], Timestamp::ZERO);
        assert_eq!(actions, vec![PlacementAction::Fetch {
            segment: SegmentId::new(F, 0),
            to: TierId(1)
        }]);
        e.check_invariants().unwrap();
        // Back online: the next run may use RAM again.
        e.set_tier_offline(TierId(0), false);
        let actions = e.run(vec![update(1, 10.0)], Timestamp::ZERO);
        assert_eq!(actions, vec![PlacementAction::Fetch {
            segment: SegmentId::new(F, 1),
            to: TierId(0)
        }]);
    }

    #[test]
    fn going_offline_evacuates_down_the_hierarchy() {
        let mut e = engine();
        // RAM holds 2 hot segments; NVMe has room for both.
        e.run(vec![update(0, 9.0), update(1, 8.0)], Timestamp::ZERO);
        let actions = e.set_tier_offline(TierId(0), true);
        assert_eq!(actions.len(), 2);
        for a in &actions {
            assert!(
                matches!(a, PlacementAction::Move { from: TierId(0), to: TierId(1), .. }),
                "{a:?}"
            );
        }
        assert_eq!(e.tier_used(0), 0);
        assert_eq!(e.location(SegmentId::new(F, 0)), Some(TierId(1)));
        e.check_invariants().unwrap();
        // Re-marking offline is idempotent.
        assert!(e.set_tier_offline(TierId(0), true).is_empty());
    }

    #[test]
    fn evacuation_evicts_when_nothing_fits() {
        // Fill every tier, then take the bottom (largest) tier offline:
        // its contents cannot fit above, so they evict.
        let mut e = engine();
        let updates: Vec<ScoreUpdate> = (0..14).map(|i| update(i, 5.0)).collect();
        e.run(updates, Timestamp::ZERO);
        let actions = e.set_tier_offline(TierId(2), true);
        assert_eq!(actions.len(), 8, "BB held 8 segments");
        assert!(actions.iter().all(|a| matches!(a, PlacementAction::Evict { from: TierId(2), .. })));
        assert_eq!(e.placed_segments(), 6);
        e.check_invariants().unwrap();
    }

    #[test]
    fn offline_backing_tier_is_ignored() {
        let mut e = engine();
        assert!(e.set_tier_offline(TierId(3), true).is_empty());
        assert!(!e.tier_offline(TierId(3)));
    }

    #[test]
    fn watermarks_track_contents() {
        let mut e = engine();
        assert_eq!(e.watermarks(0), (None, None));
        e.run(vec![update(0, 2.0), update(1, 7.0)], Timestamp::ZERO);
        assert_eq!(e.watermarks(0), (Some(2.0), Some(7.0)));
    }

    /// A placed segment whose explicit update ties the fill score, at
    /// another size than the fill's entries, can move where no fill entry
    /// fits, and free room the fill entries after it take: the walk must
    /// not jump over it.
    #[test]
    fn a_tied_update_at_another_size_stops_the_fill_walk() {
        let sized = |file: u64, index: u64, score: f64, size: u64| ScoreUpdate {
            segment: SegmentId::new(FileId(file), index),
            score,
            size,
            anticipated: false,
        };
        let x = sized(0, 5, 1.0, MIB / 2);
        let build = || {
            let h = Hierarchy::with_budgets(2 * MIB, 2 * MIB, 2 * MIB);
            let mut e = PlacementEngine::new(&h, Reactiveness::high());
            let full: Vec<ScoreUpdate> =
                (1..4).flat_map(|f| [sized(f, 0, 5.0, MIB), sized(f, 1, 5.0, MIB)]).collect();
            e.run(full, Timestamp::ZERO);
            e.remove_segment(SegmentId::new(FileId(2), 1));
            e.run(vec![x], Timestamp::ZERO); // into NVMe's free MiB
            e.remove_segment(SegmentId::new(FileId(1), 1));
            e.run(vec![sized(1, 2, 5.0, MIB / 2)], Timestamp::ZERO);
            // RAM and NVMe each have half a MiB free, BB none.
            let used = (e.tier_used(0), e.tier_used(1), e.tier_used(2));
            assert_eq!(used, (3 * MIB / 2, 3 * MIB / 2, 2 * MIB));
            e
        };
        let (mut lazy, mut eager) = (build(), build());
        let fill = Fill::new(FileId(0), 10 * MIB, MIB, 1.0);
        let expanded: Vec<ScoreUpdate> = std::iter::once(x)
            .chain((0..10).filter(|&i| i != 5).map(|i| fill.update(i)))
            .collect();
        let actions = lazy.run(UpdateBatch::new(vec![x], vec![fill]), Timestamp::ZERO);
        assert_eq!(actions, eager.run(expanded, Timestamp::ZERO));
        assert_eq!(actions, vec![
            PlacementAction::Move { segment: x.segment, from: TierId(1), to: TierId(0) },
            PlacementAction::Fetch { segment: SegmentId::new(F, 6), to: TierId(1) },
        ]);
        assert_eq!(model(&lazy), model(&eager));
    }

    /// The settle `apply` replaces for a placed segment: take it out of the
    /// model and settle it again from the fastest tier.
    fn resettle(
        e: &mut PlacementEngine,
        u: ScoreUpdate,
        actions: &mut Vec<PlacementAction>,
    ) -> Option<TierId> {
        if u.size == 0 {
            return None;
        }
        if e.placed.get(&u.segment).is_some_and(|p| e.offline[p.tier_idx]) {
            return e.rekey(u.segment, ScoreKey::new(u.score));
        }
        let origin = e.unplace(u.segment);
        e.settle(u.segment, u.size, ScoreKey::new(u.score), origin, 0, actions);
        origin
    }

    /// Everything the model holds: each tier's contents and bytes used,
    /// and every placement.
    #[allow(clippy::type_complexity)]
    fn model(
        e: &PlacementEngine,
    ) -> (Vec<(Vec<(ScoreKey, SegmentId)>, u64)>, Vec<(SegmentId, usize, u64, ScoreKey)>) {
        let tiers = (0..e.tiers.len())
            .map(|idx| {
                let mut entries: Vec<_> = e.entries(idx).map(|e| (e.key, e.segment)).collect();
                entries.sort_unstable();
                (entries, e.tiers[idx].used)
            })
            .collect();
        let mut placed: Vec<_> =
            e.placed.iter().map(|(&s, p)| (s, p.tier_idx, p.size, p.key)).collect();
        placed.sort_unstable_by_key(|&(s, ..)| s);
        (tiers, placed)
    }

    /// `apply` re-keys a placed segment where it sits only when taking it
    /// out and settling it again would put it back on its own tier: on
    /// random models, with margins above 1, an offline tier, cooled files,
    /// zero scores and segments whose size changed, both paths make the
    /// same actions and leave the same model.
    #[test]
    fn in_place_rekeys_match_a_full_resettle() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut in_place, mut moved) = (0, 0);
        for case in 0..200 {
            let margin = [1.0, 1.0, 1.25, 2.0][next(4) as usize];
            let h = Hierarchy::with_budgets(4 * MIB, 8 * MIB, 16 * MIB);
            let mut fast = PlacementEngine::with_margin(&h, Reactiveness::high(), margin);
            let mut full = PlacementEngine::with_margin(&h, Reactiveness::high(), margin);
            let random_update = |next: &mut dyn FnMut(u64) -> u64| {
                let size = [MIB, MIB, MIB / 2, 2 * MIB][next(4) as usize];
                let score = if next(6) == 0 { 0.0 } else { next(1000) as f64 / 100.0 };
                let segment = SegmentId::new(FileId(next(2)), next(24));
                ScoreUpdate { segment, score, size, anticipated: false }
            };
            let warm: Vec<ScoreUpdate> = (0..30).map(|_| random_update(&mut next)).collect();
            fast.run(warm.clone(), Timestamp::ZERO);
            full.run(warm, Timestamp::ZERO);
            if next(2) == 0 {
                fast.cool_file(FileId(0));
                full.cool_file(FileId(0));
            }
            if next(3) == 0 {
                let tier = TierId(next(3) as u16);
                assert_eq!(fast.set_tier_offline(tier, true), full.set_tier_offline(tier, true));
            }
            for step in 0..40 {
                let u = random_update(&mut next);
                let was = fast.location(u.segment);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let origin = fast.apply(u, &mut a);
                let reference = resettle(&mut full, u, &mut b);
                assert_eq!((origin, &a), (reference, &b), "case {case} step {step}");
                assert_eq!(model(&fast), model(&full), "case {case} step {step}: {u:?}");
                if was.is_some() {
                    if a.is_empty() && fast.location(u.segment) == was {
                        in_place += 1;
                    } else {
                        moved += 1;
                    }
                }
            }
            fast.check_invariants().unwrap();
        }
        assert!(in_place > 500 && moved > 500, "in place {in_place}, moved {moved}");
    }

    proptest! {
        /// Invariants hold and hotter segments never sit strictly below
        /// colder ones (at convergence, after a final full re-run).
        #[test]
        fn prop_invariants_under_random_updates(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u64..30, 0.0f64..100.0), 1..20),
                1..8,
            )
        ) {
            let mut e = engine();
            let mut t = Timestamp::ZERO;
            let mut final_scores: std::collections::HashMap<u64, f64> =
                std::collections::HashMap::new();
            for batch in batches {
                let updates: Vec<ScoreUpdate> =
                    batch.iter().map(|(i, s)| update(*i, *s)).collect();
                for (i, s) in &batch {
                    final_scores.insert(*i, *s);
                }
                e.run(updates, t);
                t = t.after(std::time::Duration::from_millis(10));
                prop_assert!(e.check_invariants().is_ok(), "{:?}", e.check_invariants());
            }
            // Converge: re-run all final scores at once.
            let all: Vec<ScoreUpdate> =
                final_scores.iter().map(|(i, s)| update(*i, *s)).collect();
            e.run(all, t);
            prop_assert!(e.check_invariants().is_ok());
            // Monotone layering: min score of tier k >= max score of tier k+1
            // is NOT guaranteed in general (capacity effects), but a segment
            // in RAM must score >= the min of RAM (trivially true) and
            // every placed hot segment must not sit below a colder one by
            // more than one tier inversion. We check the strong property
            // that the hottest placed segment sits in the fastest non-empty
            // tier that can hold it.
            if e.placed_segments() > 0 {
                let hottest = final_scores
                    .iter()
                    .filter(|(i, _)| e.location(SegmentId::new(F, **i)).is_some())
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)))
                    .map(|(i, _)| *i)
                    .unwrap();
                let loc = e.location(SegmentId::new(F, hottest)).unwrap();
                prop_assert_eq!(loc, TierId(0), "hottest segment must be in RAM");
            }
        }
    }
}
