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
//!
//! Demand comes first: a fetch or move that places its segment at no more
//! than the epoch base score is *staging*, and all else is demand. Demand
//! transfers share `max_inflight_fetches` slots. Staging takes no slot: it
//! issues only while no demand action waits and the backing store has a
//! channel free, so the device's own free channels bound it and it uses
//! only backing-store time that demand leaves idle. Evictions run at once.
//! An action a later pass superseded is dropped when its turn comes.
//!
//! A read that misses on a segment whose demand fetch waits for a slot
//! already carries the segment's bytes across the backing store: the
//! executor hands that fetch to [`Transfers::land_read`], and the fill it
//! accepts takes no slot, so each missed byte crosses the backing store
//! once.

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

    /// True while the backing store has a channel free at the current time.
    /// Staging takes no transfer slot and issues only then, so this answer
    /// alone bounds the staging transfers in flight; a held staging action
    /// is retried at the next completion or tick.
    fn backing_free(&self) -> bool;

    /// Starts moving `range` of a `Fetch` or `Move` into its destination;
    /// each transfer the outcome counts is later reported as done or failed.
    /// The action is current (the model places its segment on its target)
    /// and no earlier transfer of its segment is in flight; `engine` gives
    /// the decision's span.
    fn fetch(&mut self, action: PlacementAction, range: ByteRange, engine: &PlacementEngine)
        -> FetchOutcome;

    /// Lands a queued demand `Fetch` of `range` from the bytes the read
    /// being notified takes from the backing store, instead of reading them
    /// there again. `range` lies inside that read. Accepting it is like
    /// [`Transfers::fetch`] without a backing-store channel: the outcome
    /// counts the transfers later reported done or failed. An
    /// implementation must refuse any fill the read does not carry in full
    /// (bytes it would read from the backing store itself, or a read whose
    /// notification arrives after it was served), so a fill never holds a
    /// backing-store channel. An empty outcome refuses, and the fetch keeps
    /// its place in the queue. The action is current and its segment idle,
    /// as for `fetch`.
    ///
    /// The default refuses; the server keeps it. Its agent reads a miss from
    /// the backing store before the read's event reaches the executor, and
    /// carrying those bytes into a tier without racing a concurrent write
    /// would need a write-generation check on the copy.
    fn land_read(&mut self, _action: PlacementAction, _range: ByteRange, _engine: &PlacementEngine)
        -> FetchOutcome {
        FetchOutcome::default()
    }

    /// Drops `range` of `segment` from cache tier `tier`.
    fn discard(&mut self, segment: SegmentId, range: ByteRange, tier: TierId);

    /// Drops every cached copy of `range` after a write; a no-op where the
    /// deployment invalidates residency itself.
    fn invalidate(&mut self, _segment: SegmentId, _range: ByteRange) {}
}

/// Retry budget for capacity-denied actions. A denied action is parked
/// until the next transfer completes, or until the next tick when nothing
/// is in flight, so each retry meets capacity that may have changed.
const RETRIES: u8 = 8;

/// A queued action, with its remaining retries and its class. `landed`
/// marks a demand fetch a read landed while it waited: `pump` skips it.
#[derive(Debug, Clone, Copy)]
struct Queued {
    action: PlacementAction,
    retries: u8,
    staging: bool,
    landed: bool,
}

/// A segment's transfers in flight: their count, and whether they hold
/// demand slots (staging transfers and read fills hold none).
#[derive(Debug, Clone, Copy)]
struct Busy {
    transfers: u32,
    slotted: bool,
}

/// Drives the placement engine and executes its plan.
pub struct Executor {
    engine: PlacementEngine,
    cfg: HFetchConfig,
    cache_tiers: Vec<TierId>,
    /// Demand actions waiting for a transfer slot, oldest first. Only
    /// `admit` pushes (at the back) and only `pump` pops (at the front), so
    /// the action pushed `n`th sits at `n - (demand_pushed - demand.len())`.
    demand: VecDeque<Queued>,
    /// Demand actions pushed so far.
    demand_pushed: u64,
    /// The queued demand `Fetch` of each segment that has one, by push
    /// number: a read looks up the fetch it can land in O(1).
    demand_fetches: dht::FxHashMap<SegmentId, u64>,
    /// Staging actions, oldest first: they issue only while `demand` is
    /// empty and the backing store has a channel free.
    staging: VecDeque<Queued>,
    /// Actions denied capacity, or whose segment was busy, waiting for a
    /// completion to requeue them.
    parked: Vec<Queued>,
    /// The segments with transfers started and not yet reported, demand and
    /// staging. A segment moves one action at a time, so its movements
    /// happen in plan order and an eviction never discards bytes that land
    /// afterwards.
    busy: dht::FxHashMap<SegmentId, Busy>,
    /// The demand transfers among them: at most `max_inflight_fetches`.
    demand_inflight: usize,
    executed: u64,
    denied: u64,
}

impl Executor {
    /// An executor over `hierarchy`'s cache tiers, with `cfg`'s
    /// displacement margin and demand in-flight bound.
    pub fn new(cfg: &HFetchConfig, hierarchy: &Hierarchy) -> Self {
        let mut engine =
            PlacementEngine::with_margin(hierarchy, cfg.reactiveness, cfg.displacement_margin);
        engine.set_recorder(cfg.obs.clone());
        Self {
            engine,
            cfg: cfg.clone(),
            cache_tiers: hierarchy.iter_cache().map(|(id, _)| id).collect(),
            demand: VecDeque::new(),
            demand_pushed: 0,
            demand_fetches: Default::default(),
            staging: VecDeque::new(),
            parked: Vec::new(),
            busy: Default::default(),
            demand_inflight: 0,
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

    /// Periodic trigger: mirrors offline tiers, requeues parked actions if
    /// nothing is in flight to complete, then runs the engine over pending
    /// updates, or else issues queued actions. Returns whether the executor
    /// is then idle (nothing queued or parked, no transfer in flight).
    pub fn tick(&mut self, auditor: &Auditor, now: Timestamp, io: &mut impl Transfers) -> bool {
        self.sync_offline(io);
        if self.busy.is_empty() {
            self.unpark(io);
        }
        if auditor.pending_updates() > 0 {
            self.run(auditor, now, io);
        } else {
            self.pump(io);
        }
        self.demand.is_empty() && self.staging.is_empty() && self.parked.is_empty() && self.busy.is_empty()
    }

    /// True while a transfer is in flight: its completion will be reported.
    pub fn in_flight(&self) -> bool {
        !self.busy.is_empty()
    }

    /// A transfer of `segment` landed: frees its slot if it was demand,
    /// requeues parked actions and issues queued ones.
    pub fn transfer_done(&mut self, segment: SegmentId, io: &mut impl Transfers) {
        if let Some(busy) = self.busy.get_mut(&segment) {
            if busy.slotted {
                self.demand_inflight -= 1;
            }
            busy.transfers -= 1;
            if busy.transfers == 0 {
                self.busy.remove(&segment);
            }
        }
        self.unpark(io);
        self.pump(io);
    }

    /// A transfer of `action` failed: reconciles, then frees its slot.
    pub fn transfer_failed(&mut self, action: PlacementAction, io: &mut impl Transfers) {
        self.reconcile(action, io);
        self.transfer_done(action.target().0, io);
    }

    /// Epoch end: when the last reader closed `file`, its segments cool to
    /// score 0 where they sit. They leave only when a hotter segment needs
    /// their room, and a re-open re-keys the resident ones in place.
    pub fn close(&mut self, auditor: &Auditor, file: FileId, now: Timestamp) {
        if auditor.end_epoch(file, now) {
            self.engine.cool_file(file);
        }
    }

    /// The run is over and nothing queued will issue, so no cached copy may
    /// outlive its placement. Parked evictions run once their segment is
    /// idle. A segment with a queued `Move` leaves the model and every cache
    /// tier: its bytes are still where the first unissued move found them,
    /// not where the model places it.
    pub fn finish(&mut self, io: &mut impl Transfers) {
        self.demand_fetches.clear();
        let queued: Vec<Queued> = (self.demand.drain(..).chain(self.staging.drain(..)))
            .chain(self.parked.drain(..))
            .filter(|q| !q.landed)
            .collect();
        for queued in queued {
            let (segment, _) = queued.action.target();
            match queued.action {
                PlacementAction::Evict { .. } => self.evict(queued, io),
                PlacementAction::Move { .. } => {
                    self.engine.remove_segment(segment);
                    let range = self.range_of(segment, io);
                    for &tier in &self.cache_tiers {
                        io.discard(segment, range, tier);
                    }
                }
                PlacementAction::Fetch { .. } => {}
            }
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

    /// A read of `range` of `file`, after its pass: each segment it covers
    /// entirely whose demand `Fetch` is queued, current and idle is handed
    /// to [`Transfers::land_read`], which carries the read's backing-store
    /// bytes into the fetch's target. An accepted fill leaves the queue and
    /// makes its segment busy without taking a demand slot, as it uses no
    /// backing-store channel; a refused one keeps its place. A segment the
    /// read covers in part is left to its fetch, staging and parked actions
    /// are never landed this way, and a superseded fetch is left for its
    /// turn to drop.
    pub fn land_read(&mut self, file: FileId, range: ByteRange, io: &mut impl Transfers) {
        if self.demand_fetches.is_empty() || range.is_empty() {
            return;
        }
        let size = self.cfg.segment_size;
        for index in range.offset / size..range.end().div_ceil(size) {
            let segment = SegmentId::new(file, index);
            let Some(&pushed) = self.demand_fetches.get(&segment) else { continue };
            let at = (pushed + self.demand.len() as u64 - self.demand_pushed) as usize;
            let queued = self.demand[at];
            let (_, to) = queued.action.target();
            let seg_range = self.range_of(segment, io);
            if !range.covers(seg_range)
                || self.engine.location(segment) != Some(to)
                || self.busy.contains_key(&segment)
            {
                continue;
            }
            let outcome = io.land_read(queued.action, seg_range, &self.engine);
            if outcome.transfers == 0 && outcome.abandoned == 0 {
                continue;
            }
            self.demand_fetches.remove(&segment);
            self.demand[at].landed = true;
            if outcome.transfers > 0 {
                self.cfg.obs.counter_inc("executor.read_fills", obs::Label::None);
            }
            self.started(queued, outcome, false, io);
        }
        self.skip_landed();
    }

    /// Pops the landed fetches at the head of the demand queue, so its head
    /// is always an action that still waits.
    fn skip_landed(&mut self) {
        while self.demand.front().is_some_and(|q| q.landed) {
            self.demand.pop_front();
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
                || auditor.frequency(u.segment).is_some_and(|reads| reads >= 2)
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

    /// Runs evictions and queues the rest by class: a `Fetch` or `Move`
    /// that places its segment at no more than the epoch base score is
    /// staging, all else is demand.
    fn execute(&mut self, actions: Vec<PlacementAction>, io: &mut impl Transfers) {
        let base = self.cfg.epoch_base_score;
        for action in actions {
            let (segment, _) = action.target();
            let staging = self.engine.score_of(segment).is_some_and(|score| score <= base);
            self.admit(Queued { action, retries: RETRIES, staging, landed: false }, io);
        }
        self.pump(io);
    }

    /// Runs an eviction, or queues a fetch or move at the tail of its class.
    fn admit(&mut self, queued: Queued, io: &mut impl Transfers) {
        match queued.action {
            PlacementAction::Evict { .. } => self.evict(queued, io),
            _ if queued.staging => self.staging.push_back(queued),
            PlacementAction::Fetch { segment, .. } => {
                self.demand_fetches.insert(segment, self.demand_pushed);
                self.push_demand(queued);
            }
            PlacementAction::Move { .. } => self.push_demand(queued),
        }
    }

    fn push_demand(&mut self, queued: Queued) {
        self.demand.push_back(queued);
        self.demand_pushed += 1;
    }

    /// Pops the head of the demand queue, and its segment's fetch index
    /// entry if the head is that fetch.
    fn pop_demand(&mut self) -> Option<Queued> {
        let popped = self.demand_pushed - self.demand.len() as u64;
        let queued = self.demand.pop_front()?;
        let (segment, _) = queued.action.target();
        if self.demand_fetches.get(&segment) == Some(&popped) {
            self.demand_fetches.remove(&segment);
        }
        Some(queued)
    }

    /// Retries every parked action.
    fn unpark(&mut self, io: &mut impl Transfers) {
        for queued in std::mem::take(&mut self.parked) {
            self.admit(queued, io);
        }
    }

    /// An eviction is metadata-only and runs at once, without a transfer
    /// slot. It waits for a completion while a transfer of its segment is in
    /// flight, which would otherwise land after the discard, and it is
    /// dropped once a later pass placed the segment back on the tier.
    fn evict(&mut self, queued: Queued, io: &mut impl Transfers) {
        let (segment, from) = queued.action.target();
        if self.engine.location(segment) == Some(from) {
            self.cfg.obs.counter_inc("executor.superseded", obs::Label::None);
            return;
        }
        if self.busy.contains_key(&segment) {
            self.parked.push(queued);
            return;
        }
        io.discard(segment, self.range_of(segment, io), from);
        self.executed += 1;
    }

    /// Issues queued actions: demand while a demand slot is free, then
    /// staging, which takes no slot, once no demand action waits and while
    /// the backing store has a channel free. A held action waits for the
    /// next completion or tick.
    fn pump(&mut self, io: &mut impl Transfers) {
        loop {
            self.skip_landed();
            let next = match self.demand.front() {
                Some(_) if self.demand_inflight < self.cfg.max_inflight_fetches => {
                    self.pop_demand()
                }
                Some(_) => None,
                None if io.backing_free() => self.staging.pop_front(),
                None => None,
            };
            let Some(queued) = next else {
                break;
            };
            self.issue(queued, io);
        }
    }

    /// Issues one `Fetch` or `Move`, unless a later pass superseded it: the
    /// model no longer places its segment on its target. A superseded `Move`
    /// whose segment left the model drops its source copy, which nothing
    /// else would free.
    fn issue(&mut self, queued: Queued, io: &mut impl Transfers) {
        let action = queued.action;
        let (segment, to) = action.target();
        let placed = self.engine.location(segment);
        let orphaned = action.moved_from().filter(|_| placed.is_none());
        if placed != Some(to) && orphaned.is_none() {
            self.cfg.obs.counter_inc("executor.superseded", obs::Label::None);
            return;
        }
        if self.busy.contains_key(&segment) {
            self.parked.push(queued);
            return;
        }
        let range = self.range_of(segment, io);
        if let Some(from) = orphaned {
            io.discard(segment, range, from);
            self.cfg.obs.counter_inc("executor.superseded", obs::Label::None);
            return;
        }
        let outcome = io.fetch(action, range, &self.engine);
        self.started(queued, outcome, !queued.staging, io);
    }

    /// Books the transfers `outcome` started for `queued`, holding demand
    /// slots when `slotted`, and settles what will not land: an abandoned
    /// or finally denied placement leaves the model, a denied one is
    /// parked for a retry, and a rerouted one lands where the model did
    /// not plan it.
    fn started(&mut self, queued: Queued, outcome: FetchOutcome, slotted: bool, io: &mut impl Transfers) {
        let action = queued.action;
        let (segment, _) = action.target();
        if outcome.transfers > 0 {
            if slotted {
                self.demand_inflight += outcome.transfers as usize;
            }
            self.busy.insert(segment, Busy { transfers: outcome.transfers, slotted });
        }
        if outcome.scheduled == 0 && outcome.abandoned > 0 {
            // Abandoned by a fault: a retry would meet the same fault.
            self.reconcile(action, io);
            return;
        }
        if outcome.rerouted_to.is_some() {
            // Landing on a tier the model did not plan: a later pass
            // re-places the segment from fresh scores.
            self.engine.remove_segment(segment);
        }
        if outcome.denied > 0 && outcome.scheduled == 0 {
            if queued.retries > 0 {
                self.parked.push(Queued { retries: queued.retries - 1, ..queued });
            } else {
                self.denied += 1;
                self.reconcile(action, io);
            }
            return;
        }
        self.executed += 1;
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
        backing_busy: bool,
        script: HashMap<u64, FetchOutcome>,
        fetches: Vec<PlacementAction>,
        /// Transfers the fetches and read fills started.
        transfers: u64,
        discards: Vec<(SegmentId, TierId)>,
        /// Every read fill accepts one transfer unless this outcome is set.
        land: Option<FetchOutcome>,
        lands: Vec<PlacementAction>,
    }

    impl Transfers for Fake {
        fn file_size(&self, _file: FileId) -> u64 {
            mib(24)
        }

        fn tier_online(&self, tier: TierId) -> bool {
            !self.offline.contains(&tier)
        }

        fn backing_free(&self) -> bool {
            !self.backing_busy
        }

        fn fetch(
            &mut self,
            action: PlacementAction,
            range: ByteRange,
            _engine: &PlacementEngine,
        ) -> FetchOutcome {
            self.fetches.push(action);
            let scheduled = FetchOutcome { scheduled: range.len, transfers: 1, ..Default::default() };
            let outcome = self.script.get(&action.target().0.index).copied().unwrap_or(scheduled);
            self.transfers += u64::from(outcome.transfers);
            outcome
        }

        fn land_read(
            &mut self,
            action: PlacementAction,
            range: ByteRange,
            _engine: &PlacementEngine,
        ) -> FetchOutcome {
            let accepted = FetchOutcome { scheduled: range.len, transfers: 1, ..Default::default() };
            let outcome = self.land.unwrap_or(accepted);
            if outcome.transfers > 0 {
                self.lands.push(action);
                self.transfers += u64::from(outcome.transfers);
            }
            outcome
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

    /// RAM 2 MiB, NVMe 4 MiB, BB 8 MiB; `max_inflight` demand slots.
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

    fn queued(exec: &Executor) -> usize {
        exec.demand.len() + exec.staging.len()
    }

    /// Transfers in flight, demand and staging.
    fn inflight(exec: &Executor) -> usize {
        exec.busy.values().map(|b| b.transfers as usize).sum()
    }

    /// The segment indices of the fetches issued so far, in issue order.
    fn issued(io: &Fake) -> Vec<u64> {
        io.fetches.iter().map(|a| a.target().0.index).collect()
    }

    /// Takes a demand slot with a transfer of segment 9, which
    /// `transfer_done(seg(9))` frees.
    fn take_slot(exec: &mut Executor) {
        exec.demand_inflight += 1;
        exec.busy.insert(seg(9), Busy { transfers: 1, slotted: true });
    }

    #[test]
    fn denied_action_parks_and_succeeds_after_a_completion() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        io.script.insert(0, denied());
        place(&mut exec, &[0, 1], &mut io);
        // Segment 0 was denied and parked; segment 1 took the only slot.
        assert_eq!(io.fetches.len(), 2);
        assert_eq!((queued(&exec), exec.parked.len()), (0, 1));
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        // The completion frees space: the retry lands.
        io.script.clear();
        exec.transfer_done(seg(1), &mut io);
        assert_eq!(io.fetches.len(), 3);
        assert!(queued(&exec) == 0 && exec.parked.is_empty());
        assert_eq!((exec.executed(), exec.denied(), inflight(&exec)), (2, 0, 1));
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        exec.engine.check_invariants().unwrap();
    }

    #[test]
    fn a_denied_action_retries_once_per_completion() {
        let mut exec = executor(4);
        let mut io = Fake::default();
        io.script.insert(0, denied());
        place(&mut exec, &[0, 1, 2], &mut io);
        assert_eq!(io.fetches.len(), 3, "no retry before time passes");
        for done in 1..=2 {
            exec.transfer_done(seg(done as u64), &mut io);
            assert_eq!(io.fetches.len(), 3 + done, "one retry per completion");
        }
        // Nothing left in flight: each tick retries once.
        let auditor = Auditor::new(exec.cfg.clone());
        assert!(!exec.tick(&auditor, Timestamp::ZERO, &mut io));
        assert_eq!(io.fetches.len(), 6);
        assert_eq!(exec.parked[0].retries, RETRIES - 4, "the first try and three retries");
    }

    /// Every retry waits for a completion or an idle tick, so the budget
    /// lasts `RETRIES` such events.
    #[test]
    fn exhausted_retries_drop_the_segment_and_a_move_discards_its_source() {
        let mut exec = executor(4);
        let mut io = Fake::default();
        place(&mut exec, &[0], &mut io);
        exec.transfer_done(seg(0), &mut io);
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        // RAM goes offline: the evacuation move to NVMe is always denied.
        io.offline.push(TierId(0));
        io.script.insert(0, denied());
        exec.sync_offline(&mut io);
        let moves = |io: &Fake| {
            io.fetches.iter().filter(|a| matches!(a, PlacementAction::Move { .. })).count()
        };
        assert_eq!(moves(&io), 1, "no retry in the same sweep");
        for retry in 1..=RETRIES as usize {
            assert_eq!(exec.denied(), 0);
            take_slot(&mut exec);
            exec.transfer_done(seg(9), &mut io);
            assert_eq!(moves(&io), 1 + retry, "one retry per completion");
        }
        assert_eq!(exec.denied(), 1);
        assert_eq!(exec.engine.location(seg(0)), None, "the segment left the model");
        assert_eq!(io.discards, vec![(seg(0), TierId(0))], "the source copy is dropped");
        assert!(queued(&exec) == 0 && exec.parked.is_empty() && inflight(&exec) == 0);
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
        assert!(queued(&exec) == 0 && inflight(&exec) == 0);
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
        assert_eq!((exec.executed(), inflight(&exec)), (1, 1), "the transfer still runs");
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
    fn a_busy_segment_waits_for_its_transfer_and_so_does_its_eviction() {
        let mut exec = executor(4);
        let mut io = Fake::default();
        place(&mut exec, &[0], &mut io);
        // RAM goes offline while the fetch is in flight: the evacuation
        // move waits for it, without spending a retry.
        io.offline.push(TierId(0));
        exec.sync_offline(&mut io);
        assert_eq!(io.fetches.len(), 1);
        assert_eq!(exec.parked.iter().map(|q| q.retries).collect::<Vec<_>>(), vec![RETRIES]);
        exec.transfer_done(seg(0), &mut io);
        assert_eq!(io.fetches.len(), 2, "the move issues once the fetch landed");
        // The epoch ends while the move is in flight, and four segments
        // fill NVMe: the last displaces the cold 0. Its eviction waits for
        // the landing, or the bytes would land after the discard.
        exec.engine.cool_file(FileId(0));
        place(&mut exec, &[1, 2, 3, 4], &mut io);
        assert_eq!(exec.engine.location(seg(0)), None);
        assert!(io.discards.is_empty());
        exec.transfer_done(seg(0), &mut io);
        assert_eq!(io.discards, vec![(seg(0), TierId(1))]);
        for done in 1..=4 {
            exec.transfer_done(seg(done), &mut io);
        }
        assert!(exec.tick(&Auditor::new(exec.cfg.clone()), Timestamp::ZERO, &mut io));
    }

    /// Staged (base-score) segments the engine placed, in index order.
    fn stage(exec: &mut Executor, indices: &[u64], io: &mut Fake) {
        let base = exec.cfg.epoch_base_score;
        let updates: Vec<_> = indices
            .iter()
            .map(|&i| ScoreUpdate { segment: seg(i), score: base, size: MIB, anticipated: true })
            .collect();
        let actions = exec.engine.run(updates, Timestamp::ZERO);
        exec.execute(actions, io);
    }

    #[test]
    fn staging_waits_behind_demand_queued_after_it() {
        let cfg = HFetchConfig { max_inflight_fetches: 1, ..Default::default() };
        let mut exec = Executor::new(&cfg, &Hierarchy::with_budgets(mib(8), mib(8), mib(8)));
        let mut io = Fake { backing_busy: true, ..Default::default() };
        // 0, 1 and 2 wait for the busy backing store; 3 takes the one
        // demand slot and 4 waits for it.
        stage(&mut exec, &[0, 1, 2], &mut io);
        place(&mut exec, &[3, 4], &mut io);
        assert_eq!(issued(&io), vec![3]);
        // The backing store frees and 3 lands: 4 takes its slot first, then
        // the staged fills follow without a slot, so 4 still holds it.
        io.backing_busy = false;
        exec.transfer_done(seg(3), &mut io);
        assert_eq!(issued(&io), vec![3, 4, 0, 1, 2]);
        assert_eq!((exec.demand_inflight, inflight(&exec)), (1, 4));
    }

    #[test]
    fn a_staged_transfer_in_flight_holds_back_no_demand() {
        let cfg = HFetchConfig { max_inflight_fetches: 1, ..Default::default() };
        let mut exec = Executor::new(&cfg, &Hierarchy::with_budgets(mib(8), mib(8), mib(8)));
        let mut io = Fake::default();
        stage(&mut exec, &[0], &mut io);
        place(&mut exec, &[1, 2], &mut io);
        // The staged 0 took no slot: demand 1 issues at once beside it, and
        // 2 waits for 1, not for 0.
        assert_eq!(issued(&io), vec![0, 1]);
        exec.transfer_done(seg(0), &mut io);
        assert_eq!(issued(&io), vec![0, 1], "a staged landing frees no demand slot");
        exec.transfer_done(seg(1), &mut io);
        assert_eq!(issued(&io), vec![0, 1, 2]);
        assert_eq!((exec.demand_inflight, inflight(&exec)), (1, 1));
    }

    #[test]
    fn staging_waits_for_a_free_backing_channel() {
        let cfg = HFetchConfig { max_inflight_fetches: 4, ..Default::default() };
        let mut exec = Executor::new(&cfg, &Hierarchy::with_budgets(mib(8), mib(8), mib(8)));
        let auditor = Auditor::new(exec.cfg.clone());
        let mut io = Fake { backing_busy: true, ..Default::default() };
        // Demand issues past staged work held by the busy backing store.
        stage(&mut exec, &[0, 1], &mut io);
        place(&mut exec, &[2], &mut io);
        assert_eq!(issued(&io), vec![2]);
        exec.transfer_done(seg(2), &mut io);
        exec.tick(&auditor, Timestamp::ZERO, &mut io);
        assert_eq!((issued(&io), exec.staging.len()), (vec![2], 2), "held while busy");
        // The next tick after the backing store frees issues them.
        io.backing_busy = false;
        assert!(!exec.tick(&auditor, Timestamp::ZERO, &mut io));
        assert_eq!(issued(&io), vec![2, 0, 1]);
        // So does the next completion.
        io.backing_busy = true;
        stage(&mut exec, &[3], &mut io);
        place(&mut exec, &[4], &mut io);
        assert_eq!(issued(&io), vec![2, 0, 1, 4]);
        io.backing_busy = false;
        exec.transfer_done(seg(4), &mut io);
        assert_eq!(issued(&io), vec![2, 0, 1, 4, 3]);
        assert!(exec.staging.is_empty() && exec.demand.is_empty());
        exec.engine.check_invariants().unwrap();
    }

    #[test]
    fn superseded_actions_are_dropped_and_an_orphaned_move_frees_its_source() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        place(&mut exec, &[0], &mut io);
        exec.transfer_done(seg(0), &mut io);
        assert_eq!(exec.engine.location(seg(0)), Some(TierId(0)));
        // The slot is taken; 1 and 2 are queued, and 2 demotes 0 (a queued
        // move).
        take_slot(&mut exec);
        let hot = |i| ScoreUpdate { segment: seg(i), score: 100.0, size: MIB, anticipated: true };
        let actions = exec.engine.run(vec![hot(1), hot(2)], Timestamp::ZERO);
        assert!(actions.iter().any(|a| a.moved_from() == Some(TierId(0))));
        exec.execute(actions, &mut io);
        // A write drops 0, 1 and 2 from the model before the slot frees.
        let auditor = Auditor::new(exec.cfg.clone());
        exec.write(&auditor, FileId(0), ByteRange::new(0, mib(3)), Timestamp::ZERO, &mut io);
        assert_eq!(exec.engine.placed_segments(), 0);
        let orphan = |io: &Fake| io.discards.iter().filter(|d| **d == (seg(0), TierId(0))).count();
        assert_eq!(orphan(&io), 0);
        let fetched = io.fetches.len();
        exec.transfer_done(seg(9), &mut io);
        assert_eq!(io.fetches.len(), fetched, "superseded actions move nothing");
        assert!(queued(&exec) == 0 && inflight(&exec) == 0);
        assert_eq!(orphan(&io), 1, "the dropped move freed its source copy in RAM");
    }

    #[test]
    fn finish_drops_a_segment_whose_move_never_issued() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        place(&mut exec, &[0], &mut io);
        exec.transfer_done(seg(0), &mut io);
        // The slot is taken, so 2's demotion of 0 stays queued: the model
        // places 0 on NVMe while its bytes stay in RAM.
        take_slot(&mut exec);
        let hot = |i| ScoreUpdate { segment: seg(i), score: 100.0, size: MIB, anticipated: true };
        let actions = exec.engine.run(vec![hot(1), hot(2)], Timestamp::ZERO);
        exec.execute(actions, &mut io);
        assert!(io.discards.is_empty());
        exec.finish(&mut io);
        let tiers = [TierId(0), TierId(1), TierId(2)];
        assert_eq!(io.discards, tiers.map(|t| (seg(0), t)), "wherever the move left its bytes");
        assert_eq!(exec.engine.location(seg(0)), None);
        assert!(queued(&exec) == 0 && exec.parked.is_empty());
    }

    /// A read of segment `index` of file 0, after its pass.
    fn read(exec: &mut Executor, index: u64, io: &mut Fake) {
        exec.land_read(FileId(0), ByteRange::new(index * MIB, MIB), io);
    }

    /// The segment indices of the queued demand actions, in queue order.
    fn demand_order(exec: &Executor) -> Vec<u64> {
        exec.demand.iter().filter(|q| !q.landed).map(|q| q.action.target().0.index).collect()
    }

    #[test]
    fn a_read_lands_its_queued_demand_fetch_without_a_slot() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        take_slot(&mut exec);
        place(&mut exec, &[0, 1, 2], &mut io);
        assert_eq!((issued(&io), demand_order(&exec)), (vec![], vec![0, 1, 2]));
        // A read of 1 carries its bytes: 1 leaves the queue and goes busy
        // while the one slot stays with segment 9.
        read(&mut exec, 1, &mut io);
        assert_eq!(io.lands.iter().map(|a| a.target().0.index).collect::<Vec<_>>(), vec![1]);
        assert_eq!(demand_order(&exec), vec![0, 2]);
        assert_eq!((exec.demand_inflight, inflight(&exec), exec.executed()), (1, 2, 1));
        // The fill lands without freeing a slot; the slot's completion
        // issues 0, and 1 is never fetched from the backing store.
        exec.transfer_done(seg(1), &mut io);
        assert_eq!((issued(&io), exec.demand_inflight), (vec![], 1));
        exec.transfer_done(seg(9), &mut io);
        exec.transfer_done(seg(0), &mut io);
        exec.transfer_done(seg(2), &mut io);
        assert_eq!(issued(&io), vec![0, 2]);
        assert!(exec.demand.is_empty() && exec.demand_fetches.is_empty() && exec.busy.is_empty());
        // A read of the landed segment finds nothing to land.
        read(&mut exec, 1, &mut io);
        assert_eq!(io.lands.len(), 1);
        exec.engine.check_invariants().unwrap();
    }

    #[test]
    fn a_landed_head_of_the_queue_holds_back_no_staging() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        take_slot(&mut exec);
        place(&mut exec, &[0], &mut io);
        io.backing_busy = true;
        stage(&mut exec, &[1], &mut io);
        // Landing 0 empties the demand queue, so the staged 1 issues at the
        // next pump although every demand slot is taken.
        read(&mut exec, 0, &mut io);
        assert!(exec.demand.is_empty());
        io.backing_busy = false;
        exec.tick(&Auditor::new(exec.cfg.clone()), Timestamp::ZERO, &mut io);
        assert_eq!(issued(&io), vec![1]);
    }

    #[test]
    fn a_refused_landing_leaves_the_queue_order_unchanged() {
        let mut exec = executor(1);
        let mut io = Fake { land: Some(FetchOutcome::default()), ..Default::default() };
        take_slot(&mut exec);
        place(&mut exec, &[0, 1, 2], &mut io);
        read(&mut exec, 1, &mut io);
        read(&mut exec, 2, &mut io);
        assert!(io.lands.is_empty());
        assert_eq!(demand_order(&exec), vec![0, 1, 2]);
        assert_eq!((exec.executed(), inflight(&exec)), (0, 1));
        for done in [9, 0, 1] {
            exec.transfer_done(seg(done), &mut io);
        }
        assert_eq!(issued(&io), vec![0, 1, 2], "the refused fetches issue in their order");
    }

    #[test]
    fn a_read_lands_only_the_segments_it_covers_entirely() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        take_slot(&mut exec);
        place(&mut exec, &[0, 1, 2], &mut io);
        // Half of 0, all of 1, half of 2: only 1 is carried in full.
        exec.land_read(FileId(0), ByteRange::new(MIB / 2, 2 * MIB), &mut io);
        assert_eq!(io.lands.iter().map(|a| a.target().0.index).collect::<Vec<_>>(), vec![1]);
        assert_eq!(demand_order(&exec), vec![0, 2]);
    }

    #[test]
    fn staging_and_parked_fetches_are_never_landed() {
        let mut exec = executor(2);
        let mut io = Fake { backing_busy: true, ..Default::default() };
        // 0 stays queued as staging behind the busy backing store; 1 is
        // denied and parks.
        stage(&mut exec, &[0], &mut io);
        io.script.insert(1, denied());
        place(&mut exec, &[1], &mut io);
        assert_eq!((exec.staging.len(), exec.parked.len()), (1, 1));
        exec.land_read(FileId(0), ByteRange::new(0, mib(2)), &mut io);
        assert!(io.lands.is_empty());
        assert_eq!((exec.staging.len(), exec.parked.len(), inflight(&exec)), (1, 1, 0));
    }

    #[test]
    fn a_superseded_fetch_is_not_landed_and_drops_at_its_turn() {
        let mut exec = executor(1);
        let mut io = Fake::default();
        take_slot(&mut exec);
        place(&mut exec, &[0], &mut io);
        // A write drops 0 from the model while its fetch waits.
        let auditor = Auditor::new(exec.cfg.clone());
        exec.write(&auditor, FileId(0), ByteRange::new(0, MIB), Timestamp::ZERO, &mut io);
        read(&mut exec, 0, &mut io);
        assert!(io.lands.is_empty(), "a superseded fetch is not landed");
        exec.transfer_done(seg(9), &mut io);
        assert!(io.fetches.is_empty() && exec.demand.is_empty(), "and it drops at its turn");
    }

    #[test]
    fn an_abandoned_landing_drops_the_segment() {
        let mut exec = executor(1);
        let mut io = Fake {
            land: Some(FetchOutcome { abandoned: MIB, ..Default::default() }),
            ..Default::default()
        };
        take_slot(&mut exec);
        place(&mut exec, &[0], &mut io);
        read(&mut exec, 0, &mut io);
        assert_eq!(exec.engine.location(seg(0)), None, "a retry would meet the same fault");
        assert!(exec.demand.is_empty() && exec.busy.len() == 1);
    }

    proptest::proptest! {
        /// Over random streams of passes, completions, denials, ticks and
        /// backing-store load, a staging action issues only when no demand
        /// action is queued and the backing store has a free channel:
        /// within one pump every demand issue precedes every staging
        /// issue, and a pump that issued staging leaves no demand queued.
        /// Demand transfers in flight never exceed the cap, whatever
        /// staging has in flight. The busy map holds exactly the transfers
        /// started and not yet completed, and a tick reports idle exactly
        /// when nothing is in flight, queued or parked. Reads land only
        /// queued demand fetches of segments they cover entirely, hold no
        /// demand slot and never leave a landed fetch at the head of the
        /// demand queue. Segments 0..12
        /// are staged at the base score, 12..24 are demand.
        #[test]
        fn prop_no_staging_issues_while_demand_waits(
            steps in proptest::collection::vec((0u64..5, 0u64..24, 0u64..3, 0u8..3), 1..80),
        ) {
            let mut exec = executor(2);
            let mut io = Fake::default();
            let auditor = Auditor::new(exec.cfg.clone());
            let base = exec.cfg.epoch_base_score;
            let staged = |a: &PlacementAction| a.target().0.index < 12;
            let mut completed = 0u64;
            for (kind, index, deny, load) in steps {
                io.backing_busy = load == 0;
                if deny == 0 {
                    io.script.insert(index, denied());
                } else {
                    io.script.remove(&index);
                }
                let before = io.fetches.len();
                io.land = (deny == 0).then(FetchOutcome::default);
                let (lands, slots) = (io.lands.len(), exec.demand_inflight);
                match kind {
                    0 | 1 => {
                        let score = if index < 12 { base } else { index as f64 };
                        let u = ScoreUpdate { segment: seg(index), score, size: MIB, anticipated: true };
                        let actions = exec.engine.run(vec![u], Timestamp::ZERO);
                        exec.execute(actions, &mut io);
                    }
                    2 => {
                        let done = exec.busy.keys().min_by_key(|s| s.index).copied();
                        completed += u64::from(done.is_some());
                        exec.transfer_done(done.unwrap_or(seg(index)), &mut io);
                    }
                    3 => {
                        // Aligned, half a segment off, or a whole one off;
                        // one to three segments long.
                        let offset = index * MIB + u64::from(load) * MIB / 2;
                        let read = ByteRange::new(offset, (1 + deny) * MIB);
                        exec.land_read(FileId(0), read, &mut io);
                        proptest::prop_assert!(io.lands[lands..].iter().all(|a| !staged(a)
                            && matches!(a, PlacementAction::Fetch { .. })
                            && read.covers(segment_range(a.target().0.index, MIB, mib(24)))));
                        proptest::prop_assert_eq!(exec.demand_inflight, slots, "a fill took a slot");
                    }
                    _ => {
                        let idle = exec.tick(&auditor, Timestamp::ZERO, &mut io);
                        let empty = exec.busy.is_empty()
                            && exec.demand.is_empty()
                            && exec.staging.is_empty()
                            && exec.parked.is_empty();
                        proptest::prop_assert_eq!(idle, empty);
                    }
                }
                let issued = &io.fetches[before..];
                if let Some(first) = issued.iter().position(staged) {
                    proptest::prop_assert!(!io.backing_busy, "staging issued on a busy backing store");
                    proptest::prop_assert!(
                        issued[first..].iter().all(staged),
                        "demand issued after staging in one pump: {issued:?}"
                    );
                    proptest::prop_assert!(
                        exec.demand.is_empty(),
                        "staging issued while demand waits: {:?}",
                        exec.demand
                    );
                }
                let demand_busy: u32 =
                    exec.busy.values().filter(|b| b.slotted).map(|b| b.transfers).sum();
                proptest::prop_assert_eq!(exec.demand_inflight, demand_busy as usize);
                proptest::prop_assert_eq!((io.transfers - completed) as usize, inflight(&exec));
                proptest::prop_assert!(exec.demand_inflight <= exec.cfg.max_inflight_fetches);
                proptest::prop_assert!(exec.demand.front().is_none_or(|q| !q.landed));
                proptest::prop_assert!(exec.engine.check_invariants().is_ok());
            }
        }
    }
}
