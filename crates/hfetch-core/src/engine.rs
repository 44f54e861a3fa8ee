//! The Hierarchical Data Placement Engine — Algorithm 1 of the paper.
//!
//! The engine maps the segment score spectrum onto the tier stack: hotter
//! segments in faster tiers. It keeps per-tier watermarks (min/max score of
//! the tier's contents), and when an updated score violates a segment's
//! current placement the segment is promoted or demoted; demotions cascade
//! down the hierarchy (`DemoteSegments`), naturally handling eviction —
//! "each segment has its natural position in the hierarchy based on its
//! score" (§III-D). Placement is *exclusive*: a segment lives in exactly
//! one tier.
//!
//! The engine is a pure planner: it models tier contents and emits
//! [`PlacementAction`]s; executing the data movement is the job of the I/O
//! clients (real mode) or the simulator control surface (sim mode). Score
//! ties cannot displace each other (the paper breaks ties randomly; we
//! break them deterministically by segment id for reproducible runs).

use std::collections::BTreeSet;

use dht::FxHashMap;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

use crate::auditor::ScoreUpdate;
use crate::config::Reactiveness;

/// Total order over non-negative f64 scores (IEEE-754 bit trick: for
/// non-negative floats, the bit pattern orders identically to the value).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ScoreKey(u64);

impl ScoreKey {
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

#[derive(Debug)]
struct EngineTier {
    id: TierId,
    capacity: u64,
    used: u64,
    /// Contents ordered by (score, segment) ascending — first() is the
    /// demotion victim.
    contents: BTreeSet<(ScoreKey, SegmentId)>,
}

impl EngineTier {
    fn free(&self) -> u64 {
        self.capacity - self.used
    }

    fn min_key(&self) -> Option<ScoreKey> {
        self.contents.first().map(|(k, _)| *k)
    }

    fn max_key(&self) -> Option<ScoreKey> {
        self.contents.last().map(|(k, _)| *k)
    }
}

#[derive(Clone, Copy, Debug)]
struct Placed {
    tier_idx: usize,
    size: u64,
    key: ScoreKey,
}

/// The placement engine (planner).
pub struct PlacementEngine {
    tiers: Vec<EngineTier>,
    /// Tiers currently marked offline (parallel to `tiers`). Offline tiers
    /// are skipped by [`PlacementEngine::settle`], so placements re-route
    /// down the hierarchy instead of targeting a dead tier.
    offline: Vec<bool>,
    placed: FxHashMap<SegmentId, Placed>,
    reactiveness: Reactiveness,
    /// Displacement hysteresis: a segment may only displace a placed one
    /// if `score > victim_score * margin`. The paper's Algorithm 1 uses a
    /// strict comparison (margin 1.0); larger margins damp the data-
    /// movement churn of near-tied scores ("to avoid excessive data
    /// movements among the tiers", §III-D).
    margin: f64,
    last_run: Timestamp,
    runs: u64,
    /// Reusable buffers for the per-run duplicate collapse; kept across
    /// runs so the hot path allocates nothing once warm.
    scratch_latest: FxHashMap<SegmentId, ScoreUpdate>,
    scratch_order: Vec<SegmentId>,
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
                contents: BTreeSet::new(),
            })
            .collect();
        let offline = vec![false; hierarchy.iter_cache().count()];
        Self {
            tiers,
            offline,
            placed: FxHashMap::default(),
            reactiveness,
            margin,
            last_run: Timestamp::ZERO,
            runs: 0,
            scratch_latest: FxHashMap::default(),
            scratch_order: Vec::new(),
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
    /// execute. Updates for the same segment collapse to the last one.
    pub fn run(&mut self, updates: Vec<ScoreUpdate>, now: Timestamp) -> Vec<PlacementAction> {
        self.run_traced(updates, now, obs::SpanCtx::NONE)
    }

    /// [`PlacementEngine::run`] with an explicit causal parent: fetch
    /// decisions made during this pass root their lifecycle spans under
    /// `parent` (typically the triggering drain span), so the span tree
    /// reads ingest → drain → decision → transfer → landing → read.
    pub fn run_traced(
        &mut self,
        updates: Vec<ScoreUpdate>,
        now: Timestamp,
        parent: obs::SpanCtx,
    ) -> Vec<PlacementAction> {
        self.pass_span = parent;
        self.last_run = now;
        self.runs += 1;
        let mut actions = Vec::new();
        // Collapse duplicates, keeping the latest score per segment. The
        // auditor already coalesces its queue, but callers may hand the
        // engine raw batches; the collapse reuses scratch buffers so a
        // warm engine allocates nothing here.
        let mut latest = std::mem::take(&mut self.scratch_latest);
        let mut order = std::mem::take(&mut self.scratch_order);
        latest.clear();
        order.clear();
        for u in updates {
            if latest.insert(u.segment, u).is_none() {
                order.push(u.segment);
            }
        }
        // Place hotter segments first so they claim fast tiers before
        // colder ones fill them.
        order.sort_by(|a, b| {
            let sa = latest[a].score;
            let sb = latest[b].score;
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
        });
        for &seg in &order {
            let u = latest[&seg];
            if u.size == 0 {
                continue;
            }
            let origin = self.unplace(u.segment);
            self.settle(u.segment, u.size, ScoreKey::new(u.score), origin, 0, &mut actions);
        }
        self.scratch_latest = latest;
        self.scratch_order = order;
        actions
    }

    /// Removes a segment from the model, returning its previous tier.
    fn unplace(&mut self, segment: SegmentId) -> Option<TierId> {
        let placed = self.placed.remove(&segment)?;
        let tier = &mut self.tiers[placed.tier_idx];
        tier.contents.remove(&(placed.key, segment));
        tier.used -= placed.size;
        Some(tier.id)
    }

    /// Algorithm 1: finds `segment`'s natural tier starting from
    /// `start_idx`, demoting colder segments as needed. `origin` is where
    /// the segment's bytes currently are (None = not cached).
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
                let victim = match self.tiers[idx].contents.first().copied() {
                    Some((vkey, vseg)) if beats(vkey) => (vkey, vseg),
                    _ => break, // remaining segments are too hot to displace
                };
                let (vkey, vseg) = victim;
                let vsize = self.placed[&vseg].size;
                let vorigin = self.unplace(vseg);
                self.settle(vseg, vsize, vkey, vorigin, idx + 1, actions);
            }
            if self.tiers[idx].free() < size {
                continue; // could not make room; try the next tier down
            }
            // Place here (lines 6-8).
            let tier_id = self.tiers[idx].id;
            self.tiers[idx].contents.insert((key, segment));
            self.tiers[idx].used += size;
            self.placed.insert(segment, Placed { tier_idx: idx, size, key });
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
    /// execute. Unknown tiers (e.g. the backing tier) are ignored. Going
    /// back online emits nothing — subsequent engine runs will repopulate
    /// the tier naturally.
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
        let contents: Vec<(ScoreKey, SegmentId)> =
            self.tiers[idx].contents.iter().rev().copied().collect();
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

    /// Removes every segment of `file` from the model (epoch end),
    /// returning eviction actions for the caller to execute.
    pub fn evict_file(&mut self, file: FileId) -> Vec<PlacementAction> {
        let segments: Vec<SegmentId> =
            self.placed.keys().copied().filter(|s| s.file == file).collect();
        let mut actions = Vec::with_capacity(segments.len());
        for seg in segments {
            let (key, size) = self
                .placed
                .get(&seg)
                .map(|p| (p.key, p.size))
                .unwrap_or((ScoreKey::new(0.0), 0));
            if let Some(from) = self.unplace(seg) {
                actions.push(PlacementAction::Evict { segment: seg, from });
                self.record_placement(seg, Some(from), None, key, size, obs::Cause::Evict);
            }
        }
        actions
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

    /// `(min, max)` score watermarks of tier `idx`.
    pub fn watermarks(&self, idx: usize) -> (Option<f64>, Option<f64>) {
        let t = &self.tiers[idx];
        (t.min_key().map(ScoreKey::score), t.max_key().map(ScoreKey::score))
    }

    /// Number of segments placed across all tiers.
    pub fn placed_segments(&self) -> usize {
        self.placed.len()
    }

    /// How many times the engine has run.
    pub fn runs(&self) -> u64 {
        self.runs
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
            let sum: u64 = t
                .contents
                .iter()
                .map(|(_, seg)| self.placed.get(seg).map_or(0, |p| p.size))
                .sum();
            if sum != t.used {
                return Err(format!("tier {idx}: used {} != contents {}", t.used, sum));
            }
            if t.used > t.capacity {
                return Err(format!("tier {idx}: over capacity"));
            }
            for (key, seg) in &t.contents {
                match self.placed.get(seg) {
                    Some(p) if p.tier_idx == idx && p.key == *key => {}
                    other => return Err(format!("{seg:?} mismatch: {other:?}")),
                }
            }
            seen += t.contents.len();
        }
        if seen != self.placed.len() {
            return Err(format!("placed {} != contents {}", self.placed.len(), seen));
        }
        Ok(())
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
    fn evict_file_clears_only_that_file() {
        let mut e = engine();
        e.run(
            vec![
                update(0, 5.0),
                ScoreUpdate {
                    segment: SegmentId::new(FileId(9), 0),
                    score: 4.0,
                    size: MIB,
                    anticipated: false,
                },
            ],
            Timestamp::ZERO,
        );
        let actions = e.evict_file(F);
        assert_eq!(actions.len(), 1);
        assert_eq!(e.placed_segments(), 1);
        assert_eq!(e.location(SegmentId::new(FileId(9), 0)), Some(TierId(0)));
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
