//! Algorithm 1 property tests over the typed placement-event stream.
//!
//! The placement engine now traces every model mutation as an
//! [`obs::PlacementEvent`] (the stream is *closed*), so its behavior can
//! be checked by replay instead of by poking internals:
//!
//! * **Promotes go strictly faster, demotes strictly slower** — the cause
//!   label always agrees with the tier ordering, and a move never targets
//!   the tier it came from.
//! * **Exclusive residency** — replaying the stream, every event's
//!   `from_tier` matches the replayed location exactly, so a segment is
//!   in at most one tier at every point of the sequence (demote cascades
//!   included) and the final replayed state equals the engine's model.
//! * **Capacity** — replaying reserve/release against a fresh
//!   [`CapacityLedger`] over the same hierarchy never exceeds any tier's
//!   budget.
//!
//! The update sequences are pseudo-random but deterministic (inline LCG,
//! fixed seeds), covering displacement cascades, epoch-end cooling and
//! offline-tier evacuation; a proptest checks that cooled segments are
//! never the target of a transfer.

use std::collections::HashMap;
use std::time::Duration;

use hfetch_core::auditor::ScoreUpdate;
use hfetch_core::config::Reactiveness;
use hfetch_core::engine::{PlacementAction, PlacementEngine};
use proptest::prelude::*;
use tiers::capacity::CapacityLedger;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;
use tiers::units::{mib, MIB};

/// Minimal deterministic generator (no external dependencies).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn score(&mut self) -> f64 {
        (self.below(1_000_000) as f64) / 1000.0
    }
}

fn reactive() -> Reactiveness {
    Reactiveness { interval: Duration::from_secs(1), score_updates: 1 }
}

/// Replays `events` and asserts every invariant listed in the module docs.
/// Returns the final replayed residency for end-state comparisons.
///
/// Capacity is checked at engine-*run* boundaries (all events of one run
/// share an `at` stamp): within a run the engine frees an updated
/// segment's slot before its displacement cascade emits the victims'
/// events, so per-event ledger accounting would see a transient overshoot
/// that the model never had.
fn replay_and_check(
    hierarchy: &Hierarchy,
    events: &[obs::TraceEvent],
) -> HashMap<(u64, u64), (u16, u64)> {
    let ledger = CapacityLedger::new(hierarchy);
    let mut resident: HashMap<(u64, u64), (u16, u64)> = HashMap::new();
    // Replayed per-tier occupancy, and the state last synced into the
    // ledger (at the previous run boundary).
    let mut used: HashMap<u16, u64> = HashMap::new();
    let mut synced: HashMap<u16, u64> = HashMap::new();
    let mut run_at: Option<u64> = None;
    let sync_ledger = |used: &HashMap<u16, u64>, synced: &mut HashMap<u16, u64>, at: u64| {
        let tiers: Vec<u16> = used.keys().chain(synced.keys()).copied().collect();
        for tier in tiers {
            let now = used.get(&tier).copied().unwrap_or(0);
            let before = synced.get(&tier).copied().unwrap_or(0);
            if now > before {
                ledger.reserve(TierId(tier), now - before).unwrap_or_else(|e| {
                    panic!("run at={at}: capacity exceeded on tier {tier}: {e:?}")
                });
            } else if before > now {
                ledger.release(TierId(tier), before - now).expect("release what was reserved");
            }
            synced.insert(tier, now);
        }
    };
    for (i, ev) in events.iter().enumerate() {
        let obs::TraceEvent::Placement(p) = ev else { continue };
        if let Some(at) = run_at {
            if at != p.at {
                sync_ledger(&used, &mut synced, at);
            }
        }
        run_at = Some(p.at);
        // Cause labels agree with the tier ordering.
        match p.cause {
            obs::Cause::Fetch => {
                assert_eq!(p.from_tier, None, "event {i}: fetch has a source: {p:?}");
                assert!(p.to_tier.is_some(), "event {i}: fetch without destination: {p:?}");
            }
            obs::Cause::Promote => {
                let (from, to) = (p.from_tier.unwrap(), p.to_tier.unwrap());
                assert!(to < from, "event {i}: promote must go strictly faster: {p:?}");
            }
            obs::Cause::Demote => {
                let (from, to) = (p.from_tier.unwrap(), p.to_tier.unwrap());
                assert!(to > from, "event {i}: demote must go strictly slower: {p:?}");
            }
            obs::Cause::Evict => {
                assert_eq!(p.to_tier, None, "event {i}: evict has a destination: {p:?}");
                assert!(p.from_tier.is_some(), "event {i}: evict without source: {p:?}");
            }
            obs::Cause::Evacuate => {
                assert!(p.from_tier.is_some(), "event {i}: evacuate without source: {p:?}");
            }
        }
        // Exclusive residency: the event's source is exactly where the
        // replay last placed the segment.
        let key = (p.file, p.segment);
        let replayed_from = resident.get(&key).map(|&(t, _)| t);
        assert_eq!(
            p.from_tier, replayed_from,
            "event {i}: stream incoherent — from_tier disagrees with replay: {p:?}"
        );
        if let Some((tier, size)) = resident.remove(&key) {
            *used.entry(tier).or_insert(0) -= size;
        }
        if let Some(to) = p.to_tier {
            *used.entry(to).or_insert(0) += p.size;
            resident.insert(key, (to, p.size));
        }
    }
    if let Some(at) = run_at {
        sync_ledger(&used, &mut synced, at);
    }
    resident
}

fn drive(engine: &mut PlacementEngine, rec: &obs::Recorder, seed: u64, passes: u32) {
    let mut rng = Lcg(seed);
    let mut now = Timestamp::from_millis(1);
    for _ in 0..passes {
        let updates: Vec<ScoreUpdate> = (0..rng.below(24) + 1)
            .map(|_| ScoreUpdate {
                segment: SegmentId::new(FileId(rng.below(3)), rng.below(48)),
                score: rng.score(),
                size: MIB,
                anticipated: rng.below(2) == 0,
            })
            .collect();
        now = now.after(Duration::from_millis(50));
        engine.run(updates, now);
    }
    // The recorder must have seen the run; downstream asserts rely on it.
    assert!(rec.is_enabled());
}

fn checked_engine(hierarchy: &Hierarchy) -> (PlacementEngine, obs::Recorder) {
    let rec = obs::Recorder::enabled();
    let mut engine = PlacementEngine::with_margin(hierarchy, reactive(), 1.0);
    engine.set_recorder(rec.clone());
    (engine, rec)
}

/// Final replayed residency must equal the engine's own model.
fn assert_replay_matches_model(
    engine: &PlacementEngine,
    resident: &HashMap<(u64, u64), (u16, u64)>,
) {
    for (&(file, segment), &(tier, _)) in resident {
        assert_eq!(
            engine.location(SegmentId::new(FileId(file), segment)),
            Some(TierId(tier)),
            "replayed residency diverged from the model for {file}/{segment}"
        );
    }
    assert_eq!(
        engine.placed_segments(),
        resident.len(),
        "model tracks segments the replay never saw (stream not closed)"
    );
}

#[test]
fn random_update_streams_satisfy_algorithm1_invariants() {
    for seed in 1..=16u64 {
        // Small budgets so displacement cascades actually happen.
        let hierarchy = Hierarchy::with_budgets(mib(4), mib(8), mib(16));
        let (mut engine, rec) = checked_engine(&hierarchy);
        drive(&mut engine, &rec, seed, 40);
        let events = rec.trace_events();
        assert!(
            events.iter().any(|e| matches!(e, obs::TraceEvent::Placement(_))),
            "seed {seed}: no placement events traced"
        );
        let resident = replay_and_check(&hierarchy, &events);
        engine.check_invariants().unwrap();
        assert_replay_matches_model(&engine, &resident);
    }
}

#[test]
fn cooled_files_keep_the_stream_closed() {
    let hierarchy = Hierarchy::with_budgets(mib(4), mib(8), mib(16));
    let (mut engine, rec) = checked_engine(&hierarchy);
    drive(&mut engine, &rec, 7, 20);
    let before = replay_and_check(&hierarchy, &rec.trace_events());
    let traced = rec.trace_events().len();
    engine.cool_file(FileId(0));
    engine.cool_file(FileId(1));
    assert_eq!(rec.trace_events().len(), traced, "cooling moves nothing and traces nothing");
    assert_replay_matches_model(&engine, &before);
    // Later passes displace cold segments: each leaves by an eviction.
    drive(&mut engine, &rec, 8, 20);
    let events = rec.trace_events();
    let cold_evictions = events[traced..]
        .iter()
        .filter(|e| matches!(e, obs::TraceEvent::Placement(p) if p.score == 0.0))
        .inspect(|e| assert!(matches!(e, obs::TraceEvent::Placement(p) if p.cause == obs::Cause::Evict)))
        .count();
    assert!(cold_evictions > 0, "no cold segment was displaced");
    let resident = replay_and_check(&hierarchy, &events);
    engine.check_invariants().unwrap();
    assert_replay_matches_model(&engine, &resident);
}

proptest! {
    /// Over random update streams with epoch ends mixed in, a cold
    /// segment is never worth a transfer: no `Fetch` or `Move` targets a
    /// segment placed at score 0, and no traced move or fetch carries
    /// score 0. Every update scores above 0, as observed, anticipated and
    /// staged updates do.
    #[test]
    fn prop_no_transfer_targets_a_cold_segment(
        steps in proptest::collection::vec(
            (0u64..4, proptest::collection::vec((0u64..3, 0u64..24, 1u64..1000), 1..12)),
            1..40,
        )
    ) {
        let hierarchy = Hierarchy::with_budgets(mib(2), mib(4), mib(8));
        let (mut engine, rec) = checked_engine(&hierarchy);
        let mut now = Timestamp::from_millis(1);
        for (cool, batch) in steps {
            if cool < 3 {
                engine.cool_file(FileId(cool));
            }
            let updates: Vec<ScoreUpdate> = batch
                .iter()
                .map(|&(file, index, score)| ScoreUpdate {
                    segment: SegmentId::new(FileId(file), index),
                    score: score as f64 / 100.0,
                    size: MIB,
                    anticipated: true,
                })
                .collect();
            now = now.after(Duration::from_millis(50));
            for action in engine.run(updates, now) {
                if let PlacementAction::Fetch { segment, .. } | PlacementAction::Move { segment, .. } = action {
                    prop_assert!(engine.score_of(segment) != Some(0.0), "{:?}", action);
                }
            }
            prop_assert!(engine.check_invariants().is_ok(), "{:?}", engine.check_invariants());
        }
        for ev in rec.trace_events() {
            if let obs::TraceEvent::Placement(p) = ev {
                prop_assert!(p.to_tier.is_none() || p.score > 0.0, "transfer of a cold segment: {:?}", p);
            }
        }
    }
}

#[test]
fn offline_evacuation_preserves_exclusive_residency() {
    for seed in [3u64, 11, 29] {
        let hierarchy = Hierarchy::with_budgets(mib(4), mib(8), mib(16));
        let (mut engine, rec) = checked_engine(&hierarchy);
        drive(&mut engine, &rec, seed, 20);
        engine.set_tier_offline(TierId(0), true);
        drive(&mut engine, &rec, seed ^ 0xBEEF, 10);
        engine.set_tier_offline(TierId(0), false);
        drive(&mut engine, &rec, seed ^ 0xF00D, 10);
        let events = rec.trace_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                obs::TraceEvent::Placement(p) if p.cause == obs::Cause::Evacuate
            )),
            "seed {seed}: evacuation traced no evacuate events"
        );
        let resident = replay_and_check(&hierarchy, &events);
        engine.check_invariants().unwrap();
        assert_replay_matches_model(&engine, &resident);
    }
}

#[test]
fn silent_model_removals_are_traced_as_evicts() {
    let hierarchy = Hierarchy::with_budgets(mib(4), mib(8), mib(16));
    let (mut engine, rec) = checked_engine(&hierarchy);
    drive(&mut engine, &rec, 5, 10);
    let placed: Vec<(u64, u64)> = replay_and_check(&hierarchy, &rec.trace_events())
        .keys()
        .copied()
        .collect();
    let before = rec.trace_events().len();
    let seg = placed.first().map(|&(f, s)| SegmentId::new(FileId(f), s)).expect("placed");
    assert!(engine.remove_segment(seg).is_some());
    // Exactly one placement event; the lifecycle-closing `decision` span
    // (start + end) rides along in the trace but is not a placement.
    let tail = rec.trace_events().split_off(before);
    let placements =
        tail.iter().filter(|e| matches!(e, obs::TraceEvent::Placement(_))).count();
    assert_eq!(placements, 1, "remove_segment must emit exactly one placement event: {tail:?}");
    let resident = replay_and_check(&hierarchy, &rec.trace_events());
    assert!(!resident.contains_key(&(seg.file.0, seg.index)));
    assert_replay_matches_model(&engine, &resident);
}
