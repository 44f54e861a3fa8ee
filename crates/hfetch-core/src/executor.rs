//! The placement executor: the one pass → execute → reconcile loop.
//!
//! The [`PlacementEngine`] only plans; the [`Executor`] owns it and runs
//! the loop around it for both deployments (§III, Fig. 1). It executes the
//! plan through [`Transfers`]: the simulator's `SimCtl` answers at once, the
//! server reserves capacity at dispatch and its I/O clients report each
//! transfer back as done or failed. Whenever a placement will not happen —
//! denied past the retry budget, abandoned, failed or rerouted — the segment
//! leaves the model, and a `Move` drops its source copy, so the model does
//! not drift from residency.

use std::collections::VecDeque;

use sim::engine::FetchOutcome;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::range::{segment_range, ByteRange};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

use crate::auditor::Auditor;
use crate::config::HFetchConfig;
use crate::engine::{PlacementAction, PlacementEngine};

/// The data-movement verbs a deployment offers the executor.
pub trait Transfers {
    /// Size of `file` in bytes (0 when unknown).
    fn file_size(&self, file: FileId) -> u64;

    /// False while `tier` is unreachable; the engine then routes around it.
    fn tier_online(&self, tier: TierId) -> bool;

    /// Starts moving `range` of a `Fetch` or `Move` into its destination;
    /// each transfer the outcome counts is later reported as done or failed.
    /// `engine` is the current model (the decision spans, and any later
    /// placement that superseded the action). `None`: the segment is busy
    /// with an earlier movement, and the action waits without a retry.
    fn fetch(&mut self, action: PlacementAction, range: ByteRange, engine: &PlacementEngine)
        -> Option<FetchOutcome>;

    /// Drops `range` of `segment` from cache tier `tier`.
    fn discard(&mut self, segment: SegmentId, range: ByteRange, tier: TierId);

    /// Drops every cached copy of `range` after a write; a no-op where the
    /// deployment invalidates residency itself.
    fn invalidate(&mut self, _segment: SegmentId, _range: ByteRange) {}
}

/// Retry budget for capacity-denied actions. A denied action goes to the
/// back of the queue, but one `pump` sweep pops up to `queue.len() + 8`
/// times, so with a short queue and free transfer slots it can spend all
/// the retries in one call, with no time passing. Retries outlast a
/// transfer only when the sweep stops early because the slots are full.
const RETRIES: u8 = 8;

/// Drives the placement engine and executes its plan.
pub struct Executor {
    engine: PlacementEngine,
    cfg: HFetchConfig,
    cache_tiers: Vec<TierId>,
    /// Actions waiting for a transfer slot, with their remaining retries.
    queue: VecDeque<(PlacementAction, u8)>,
    /// Transfers started and not yet reported.
    inflight: usize,
    executed: u64,
    denied: u64,
}

impl Executor {
    /// An executor over `hierarchy`'s cache tiers, with `cfg`'s
    /// displacement margin and in-flight bound.
    pub fn new(cfg: &HFetchConfig, hierarchy: &Hierarchy) -> Self {
        let mut engine =
            PlacementEngine::with_margin(hierarchy, cfg.reactiveness, cfg.displacement_margin);
        engine.set_recorder(cfg.obs.clone());
        Self {
            engine,
            cfg: cfg.clone(),
            cache_tiers: hierarchy.iter_cache().map(|(id, _)| id).collect(),
            queue: VecDeque::new(),
            inflight: 0,
            executed: 0,
            denied: 0,
        }
    }

    /// The placement engine (its model of tier contents).
    pub fn engine(&self) -> &PlacementEngine {
        &self.engine
    }

    /// Placement actions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Actions dropped because capacity stayed denied past the retry budget.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Runs the engine if its trigger fired (§III-D: enough pending
    /// updates, or the interval elapsed); returns whether it ran.
    pub fn maybe_run(&mut self, auditor: &Auditor, now: Timestamp, io: &mut impl Transfers) -> bool {
        let run = self.engine.should_trigger(now, auditor.pending_updates());
        if run {
            self.run(auditor, now, io);
        }
        run
    }

    /// Periodic trigger: mirrors offline tiers, then runs the engine over
    /// pending updates, or else retries queued actions. Returns whether the
    /// executor is then idle (nothing queued, no transfer in flight).
    pub fn tick(&mut self, auditor: &Auditor, now: Timestamp, io: &mut impl Transfers) -> bool {
        self.sync_offline(io);
        if auditor.pending_updates() > 0 {
            self.run(auditor, now, io);
        } else if !self.queue.is_empty() {
            self.pump(io);
        }
        self.queue.is_empty() && self.inflight == 0
    }

    /// A transfer landed: frees its slot and issues queued actions.
    pub fn transfer_done(&mut self, io: &mut impl Transfers) {
        self.inflight = self.inflight.saturating_sub(1);
        self.pump(io);
    }

    /// A transfer of `action` failed: reconciles, then frees its slot.
    pub fn transfer_failed(&mut self, action: PlacementAction, io: &mut impl Transfers) {
        self.reconcile(action, io);
        self.transfer_done(io);
    }

    /// Epoch end: when the last reader closed `file`, drops its segments.
    pub fn close(&mut self, auditor: &Auditor, file: FileId, now: Timestamp, io: &mut impl Transfers) {
        if auditor.end_epoch(file, now) && self.cfg.evict_on_epoch_end {
            let actions = self.engine.evict_file(file);
            self.execute(actions, io);
        }
    }

    /// A write: the segments it touched leave the model, and their cached
    /// copies are invalidated.
    pub fn write(
        &mut self,
        auditor: &Auditor,
        file: FileId,
        range: ByteRange,
        now: Timestamp,
        io: &mut impl Transfers,
    ) {
        for segment in auditor.observe_write(file, range, now) {
            self.engine.remove_segment(segment);
            io.invalidate(segment, self.range_of(segment, io));
        }
    }

    fn range_of(&self, segment: SegmentId, io: &impl Transfers) -> ByteRange {
        segment_range(segment.index, self.cfg.segment_size, io.file_size(segment.file))
    }

    /// One engine pass over the drained updates.
    ///
    /// Observed first-touch updates for uncached segments are filtered out
    /// (fetch-on-second-touch): retro-fetching a segment that was *just*
    /// read pays a second backing-store read for data that may never be
    /// touched again. Such segments enter the cache through anticipation
    /// (lookahead, epoch staging, heatmap history) or once reuse is seen.
    fn run(&mut self, auditor: &Auditor, now: Timestamp, io: &mut impl Transfers) {
        self.sync_offline(io);
        // Ingest→drain latency of the oldest undrained update (§IV-A.1). A
        // real thread may stamp a push after `now` was sampled: clamp.
        let since = auditor.take_pending_since().map(|s| s.as_nanos().min(now.as_nanos()));
        let now_ns = now.as_nanos();
        if let Some(since) = since {
            self.cfg.obs.span("auditor.drain_latency_ns", obs::Label::None, since, now_ns);
        }
        // The fills keep skipping the segments whose updates the filter
        // drops: those observed reads superseded the staged score.
        let mut batch = auditor.drain_updates();
        batch.retain(|u| {
            u.anticipated
                || self.engine.location(u.segment).is_some()
                || auditor.stat(u.segment).is_some_and(|st| st.frequency >= 2)
        });
        // Causal root of the pass: an `ingest` span from the oldest queued
        // update to this drain, and a `drain` instant the fetch decisions
        // parent onto (ingest → drain → decision → transfer → landing →
        // app_read).
        let mut drain = obs::SpanCtx::NONE;
        if let Some(since) = since {
            let ingest = self.cfg.obs.span_start("ingest", drain, since, 0, self.engine.runs());
            drain = self.cfg.obs.span_instant("drain", ingest, now_ns, 0, batch.len() as u64);
            self.cfg.obs.span_end(ingest, now_ns);
        }
        let actions = self.engine.run_traced(batch, now, drain);
        self.execute(actions, io);
    }

    /// Mirrors offline tiers into the engine: a tier that just went offline
    /// is evacuated, hottest first, and its moves execute like any others.
    fn sync_offline(&mut self, io: &mut impl Transfers) {
        for i in 0..self.cache_tiers.len() {
            let tier = self.cache_tiers[i];
            let actions = self.engine.set_tier_offline(tier, !io.tier_online(tier));
            if !actions.is_empty() {
                self.execute(actions, io);
            }
        }
    }

    fn execute(&mut self, actions: Vec<PlacementAction>, io: &mut impl Transfers) {
        self.queue.extend(actions.into_iter().map(|a| (a, RETRIES)));
        self.pump(io);
    }

    /// Issues queued actions in one sweep while transfer slots are free.
    /// Evictions are metadata-only and execute at once.
    fn pump(&mut self, io: &mut impl Transfers) {
        let mut budget = self.queue.len() + 8; // one sweep, no spinning
        while self.inflight < self.cfg.max_inflight_fetches && budget > 0 {
            budget -= 1;
            let Some((action, retries)) = self.queue.pop_front() else { break };
            let (segment, tier) = action.target();
            let range = self.range_of(segment, io);
            if let PlacementAction::Evict { .. } = action {
                io.discard(segment, range, tier);
                self.executed += 1;
                continue;
            }
            let Some(outcome) = io.fetch(action, range, &self.engine) else {
                self.queue.push_back((action, retries));
                continue;
            };
            self.inflight += outcome.transfers as usize;
            if outcome.scheduled == 0 && outcome.abandoned > 0 {
                // Abandoned by a fault: a retry would meet the same fault.
                self.reconcile(action, io);
                continue;
            }
            if outcome.rerouted_to.is_some() {
                // Landing on a tier the model did not plan: a later pass
                // re-places the segment from fresh scores.
                self.engine.remove_segment(segment);
            }
            if outcome.denied > 0 && outcome.scheduled == 0 {
                if retries > 0 {
                    self.queue.push_back((action, retries - 1));
                } else {
                    self.denied += 1;
                    self.reconcile(action, io);
                }
                continue;
            }
            self.executed += 1;
        }
    }

    /// The placement will never happen: drop it from the model, or the
    /// drift compounds (the engine would believe the tier holds segments it
    /// does not, and stop demoting). A `Move` also drops its source copy,
    /// which the model has already given up.
    fn reconcile(&mut self, action: PlacementAction, io: &mut impl Transfers) {
        let (segment, _) = action.target();
        self.engine.remove_segment(segment);
        if let Some(from) = action.moved_from() {
            io.discard(segment, self.range_of(segment, io), from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::ScoreUpdate;
    use std::collections::HashMap;
    use tiers::ids::ProcessId;
    use tiers::units::{mib, MIB};

    /// A scripted transfer layer: every fetch schedules one transfer unless
    /// the test scripted another outcome for its segment index.
    #[derive(Default)]
    struct Fake {
        offline: Vec<TierId>,
        script: HashMap<u64, FetchOutcome>,
        fetches: Vec<PlacementAction>,
        discards: Vec<(SegmentId, TierId)>,
    }

    impl Transfers for Fake {
        fn file_size(&self, _file: FileId) -> u64 {
            mib(4)
        }

        fn tier_online(&self, tier: TierId) -> bool {
            !self.offline.contains(&tier)
        }

        fn fetch(
            &mut self,
            action: PlacementAction,
            range: ByteRange,
            _engine: &PlacementEngine,
        ) -> Option<FetchOutcome> {
            self.fetches.push(action);
            let scheduled = FetchOutcome { scheduled: range.len, transfers: 1, ..Default::default() };
            Some(self.script.get(&action.target().0.index).copied().unwrap_or(scheduled))
        }

        fn discard(&mut self, segment: SegmentId, _range: ByteRange, tier: TierId) {
            self.discards.push((segment, tier));
        }
    }

    fn seg(index: u64) -> SegmentId {
        SegmentId::new(FileId(0), index)
    }

    fn denied() -> FetchOutcome {
        FetchOutcome { denied: MIB, ..Default::default() }
    }

    /// RAM 2 MiB, NVMe 4 MiB, BB 8 MiB; `max_inflight` transfer slots.
    fn executor(max_inflight: usize) -> Executor {
        let cfg = HFetchConfig { max_inflight_fetches: max_inflight, ..Default::default() };
        Executor::new(&cfg, &Hierarchy::with_budgets(mib(2), mib(4), mib(8)))
    }

    /// Plans and executes anticipated updates for `indices`, equally hot,
    /// so the engine emits their fetches in index order.
    fn place(exec: &mut Executor, indices: &[u64], io: &mut Fake) {
        let updates: Vec<_> = indices
            .iter()
            .map(|&i| ScoreUpdate { segment: seg(i), score: 1.0, size: MIB, anticipated: true })
            .collect();
        let actions = exec.engine.run(updates, Timestamp::ZERO);
        exec.execute(actions, io);
    }

    #[test]
    fn denied_action_requeues_and_succeeds_after_a_completion() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        io.script.insert(0, denied());
        place(&mut exec, &[0, 1], &mut io);
        // Segment 0 was denied and requeued behind segment 1, which took
        // the only slot.
        assert_eq!(io.fetches.len(), 2);
        assert_eq!(exec.queue.len(), 1);
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        // The completion frees space: the retry lands.
        io.script.clear();
        exec.transfer_done(&mut io);
        assert_eq!(io.fetches.len(), 3);
        assert!(exec.queue.is_empty());
        assert_eq!((exec.executed(), exec.denied(), exec.inflight), (2, 0, 1));
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        exec.engine.check_invariants().unwrap();
    }

    #[test]
    fn exhausted_retries_drop_the_segment_and_a_move_discards_its_source() {
        let mut exec = executor(4);
        let mut io = Fake::default();
        place(&mut exec, &[0], &mut io);
        exec.transfer_done(&mut io);
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        // RAM goes offline: the evacuation move to NVMe is always denied.
        io.offline.push(TierId(0));
        io.script.insert(0, denied());
        exec.sync_offline(&mut io);
        let moves = io.fetches.iter().filter(|a| matches!(a, PlacementAction::Move { .. }));
        assert_eq!(moves.count(), 1 + RETRIES as usize, "first try plus every retry");
        assert_eq!(exec.denied(), 1);
        assert_eq!(exec.engine.location(seg(0)), None, "the segment left the model");
        assert_eq!(io.discards, vec![(seg(0), TierId(0))], "the source copy is dropped");
        assert!(exec.queue.is_empty() && exec.inflight == 0);
        exec.engine.check_invariants().unwrap();
    }

    #[test]
    fn abandoned_fetch_reconciles_at_once() {
        let mut exec = executor(4);
        let mut io = Fake::default();
        io.script.insert(0, FetchOutcome { abandoned: MIB, ..Default::default() });
        place(&mut exec, &[0], &mut io);
        assert_eq!(io.fetches.len(), 1, "no retry against the same fault");
        assert_eq!(exec.engine.location(seg(0)), None);
        assert!(io.discards.is_empty(), "a fetch has no source copy to drop");
        assert!(exec.queue.is_empty() && exec.inflight == 0);
        assert_eq!(exec.executed(), 0);
    }

    #[test]
    fn rerouted_fetch_drops_the_model_placement() {
        let mut exec = executor(4);
        let mut io = Fake::default();
        io.script.insert(
            0,
            FetchOutcome {
                scheduled: MIB,
                transfers: 1,
                rerouted_to: Some(TierId(1)),
                ..Default::default()
            },
        );
        place(&mut exec, &[0], &mut io);
        assert_eq!(exec.engine.location(seg(0)), None);
        assert_eq!((exec.executed(), exec.inflight), (1, 1), "the transfer still runs");
    }

    /// Fig. 3(b)'s trap: a staged segment read once before the pass has
    /// its staged update replaced by an observed one, which the
    /// second-touch filter drops. The segment must not be placed, and the
    /// next fill segment takes the room it would have used.
    #[test]
    fn a_staged_segment_read_once_yields_its_room_to_the_next() {
        let cfg = HFetchConfig { lookahead: 0, ..Default::default() };
        let mut exec = Executor::new(&cfg, &Hierarchy::with_budgets(MIB, MIB, MIB));
        let auditor = Auditor::new(cfg);
        let mut io = Fake::default();
        auditor.set_file_size(FileId(0), mib(4));
        auditor.start_epoch(FileId(0), Timestamp::ZERO);
        auditor.observe_read(FileId(0), ByteRange::new(0, MIB), ProcessId(0), Timestamp::ZERO);
        exec.run(&auditor, Timestamp::ZERO, &mut io);
        assert_eq!(exec.engine.location(seg(0)), None, "read once: filtered, not staged");
        for index in 1..4 {
            assert!(exec.engine.location(seg(index)).is_some(), "segment {index} placed");
        }
        assert_eq!(io.fetches.len(), 3);
    }

    #[test]
    fn busy_segment_waits_without_spending_retries() {
        struct Busy(Fake, bool);
        impl Transfers for Busy {
            fn file_size(&self, file: FileId) -> u64 {
                self.0.file_size(file)
            }
            fn tier_online(&self, tier: TierId) -> bool {
                self.0.tier_online(tier)
            }
            fn fetch(
                &mut self,
                action: PlacementAction,
                range: ByteRange,
                engine: &PlacementEngine,
            ) -> Option<FetchOutcome> {
                if self.1 {
                    return None;
                }
                self.0.fetch(action, range, engine)
            }
            fn discard(&mut self, segment: SegmentId, range: ByteRange, tier: TierId) {
                self.0.discard(segment, range, tier)
            }
        }
        let mut exec = executor(4);
        let mut io = Busy(Fake::default(), true);
        let actions = exec.engine.run(
            vec![ScoreUpdate { segment: seg(0), score: 1.0, size: MIB, anticipated: true }],
            Timestamp::ZERO,
        );
        exec.execute(actions, &mut io);
        assert_eq!(exec.queue.front().map(|&(_, r)| r), Some(RETRIES));
        io.1 = false;
        exec.pump(&mut io);
        assert_eq!((exec.executed(), exec.inflight), (1, 1));
    }
}
