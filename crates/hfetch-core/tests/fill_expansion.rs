//! Differential test of the engine's lazy fill expansion.
//!
//! Epoch staging hands the engine one base-score [`Fill`] per file instead
//! of one update per segment. A pass over a batch with fills must make
//! exactly the decisions of a pass over the same batch fully expanded into
//! a `Vec<ScoreUpdate>`: the same actions in the same order, the same model
//! afterwards, and the same typed `PlacementEvent` stream (decision spans
//! included). The reference expansion is built here, independently of
//! [`UpdateBatch::expanded`].
//!
//! The cases are pseudo-random but deterministic (inline LCG, fixed seeds):
//! random pre-existing placements (some at another size than the fill's
//! entry), an offline tier, short tail segments,
//! two fills in one batch (tied scores included), explicit updates above,
//! at and below the fill score (some with the size of a resized file), and
//! explicit updates a filter suppressed after the batch was built.

use std::collections::{HashMap, HashSet};

use hfetch_core::auditor::ScoreUpdate;
use hfetch_core::config::Reactiveness;
use hfetch_core::engine::PlacementEngine;
use hfetch_core::update_queue::{Fill, UpdateBatch};
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::range::{segment_count, segment_range};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;
use tiers::units::MIB;

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A staged file: its id and size (a short tail segment when the size is
/// not a multiple of the segment size).
struct Staged {
    file: FileId,
    size: u64,
}

impl Staged {
    fn segments(&self) -> u64 {
        segment_count(self.size, MIB)
    }

    fn update(&self, index: u64, score: f64, anticipated: bool) -> ScoreUpdate {
        ScoreUpdate {
            segment: SegmentId::new(self.file, index),
            score,
            size: segment_range(index, MIB, self.size).len,
            anticipated,
        }
    }
}

fn engine(hierarchy: &Hierarchy, margin: f64) -> (PlacementEngine, obs::Recorder) {
    let mut e = PlacementEngine::with_margin(hierarchy, Reactiveness::high(), margin);
    let rec = obs::Recorder::enabled();
    e.set_recorder(rec.clone());
    (e, rec)
}

/// A score near `base`: above, at, or below it, or anywhere.
fn score_near(rng: &mut Lcg, base: f64) -> f64 {
    match rng.below(4) {
        0 => base,
        1 => base * (1.0 + rng.below(40) as f64 / 10.0),
        2 => base * rng.below(100) as f64 / 100.0,
        _ => rng.below(10_000) as f64 / 1000.0,
    }
}

/// One update per segment, the latest at the first one's position, as
/// [`UpdateBatch::new`] collapses them.
fn coalesce(updates: Vec<ScoreUpdate>) -> Vec<ScoreUpdate> {
    let mut slot_of: HashMap<SegmentId, usize> = HashMap::new();
    let mut out: Vec<ScoreUpdate> = Vec::new();
    for u in updates {
        match slot_of.get(&u.segment) {
            Some(&i) => out[i] = u,
            None => {
                slot_of.insert(u.segment, out.len());
                out.push(u);
            }
        }
    }
    out
}

fn sorted_placements(e: &PlacementEngine) -> Vec<(SegmentId, TierId)> {
    let mut all: Vec<_> = e.placements().collect();
    all.sort();
    all
}

/// One case: both engines see the same pre-passes, offline tier, fill
/// batch and follow-up pass; every output must agree.
fn check_case(seed: u64) {
    let mut rng = Lcg(seed);
    let ram = (1 + rng.below(6)) * MIB;
    let nvme = (2 + rng.below(10)) * MIB;
    let bb = (4 + rng.below(16)) * MIB;
    let hierarchy = Hierarchy::with_budgets(ram, nvme, bb);
    let margin = [1.0, 1.5, 2.0][rng.below(3) as usize];
    let (mut lazy, lazy_rec) = engine(&hierarchy, margin);
    let (mut eager, eager_rec) = engine(&hierarchy, margin);

    let files: Vec<Staged> = (0..3)
        .map(|f| {
            let whole = 3 + rng.below(40);
            let tail = if rng.chance(50) { MIB / (2 + rng.below(6)) } else { 0 };
            Staged { file: FileId(f), size: whole * MIB + tail }
        })
        .collect();
    let base = [1e-6, 0.5, 2.0][rng.below(3) as usize];

    // Pre-existing placements: a few random explicit passes.
    let mut t = 0;
    for _ in 0..rng.below(3) {
        let batch: Vec<ScoreUpdate> = (0..rng.below(30))
            .map(|_| {
                let f = &files[rng.below(files.len() as u64) as usize];
                let mut u =
                    f.update(rng.below(f.segments()), score_near(&mut rng, base), rng.chance(50));
                if rng.chance(10) {
                    // Placed at another size than the fill's entry.
                    u.size = MIB / (1 + rng.below(4));
                }
                u
            })
            .collect();
        t += 1;
        let now = Timestamp::from_millis(t);
        assert_eq!(lazy.run(batch.clone(), now), eager.run(batch, now));
    }
    if rng.chance(50) {
        // An epoch end: the fill and explicit updates re-key cold segments.
        let file = files[rng.below(files.len() as u64) as usize].file;
        lazy.cool_file(file);
        eager.cool_file(file);
    }
    if rng.chance(30) {
        let tier = TierId(rng.below(3) as u16);
        assert_eq!(lazy.set_tier_offline(tier, true), eager.set_tier_offline(tier, true));
    }

    // The batch: explicit updates for fill files and others, duplicates
    // among them, one or two fills, then a filter drops some explicit
    // updates of the built batch.
    let fill_files = if rng.chance(50) { 1 } else { 2 };
    let fill_scores: Vec<f64> =
        (0..fill_files).map(|_| if rng.chance(50) { base } else { score_near(&mut rng, base) }).collect();
    let explicit: Vec<ScoreUpdate> = (0..rng.below(25))
        .map(|_| {
            let f = &files[rng.below(files.len() as u64) as usize];
            let near = fill_scores[rng.below(fill_files as u64) as usize];
            let mut u =
                f.update(rng.below(f.segments()), score_near(&mut rng, near), rng.chance(50));
            if rng.chance(10) {
                // The file was resized since it was staged.
                u.size = MIB / (1 + rng.below(4));
            }
            u
        })
        .collect();
    let fills: Vec<Fill> = (0..fill_files)
        .map(|i| Fill::new(files[i].file, files[i].size, MIB, fill_scores[i]))
        .collect();
    let mut batch = UpdateBatch::new(explicit.clone(), fills);
    // The batch collapses duplicates before the filter runs, so the
    // reference filters the collapsed list, position by position.
    let explicit = coalesce(explicit);
    assert_eq!(batch.updates(), &explicit[..], "seed {seed}: latest update per segment");
    let dropped: HashSet<usize> = (0..explicit.len()).filter(|_| rng.chance(30)).collect();
    let mut position = 0;
    batch.retain(|_| {
        position += 1;
        !dropped.contains(&(position - 1))
    });

    // The reference: kept explicit updates plus one update per fill
    // segment that no explicit update touched, filtered or not.
    let touched: HashSet<SegmentId> = explicit.iter().map(|u| u.segment).collect();
    let mut expanded: Vec<ScoreUpdate> = explicit
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, u)| *u)
        .collect();
    for (f, &score) in files.iter().zip(&fill_scores) {
        for index in 0..f.segments() {
            if !touched.contains(&SegmentId::new(f.file, index)) {
                expanded.push(f.update(index, score, true));
            }
        }
    }
    assert_eq!(batch.len(), expanded.len(), "seed {seed}: batch length counts fill entries");

    let now = Timestamp::from_millis(t + 1);
    let lazy_actions = lazy.run(batch, now);
    let eager_actions = eager.run(expanded, now);
    assert_eq!(lazy_actions, eager_actions, "seed {seed}: actions differ");
    assert_eq!(sorted_placements(&lazy), sorted_placements(&eager), "seed {seed}: models differ");
    for idx in 0..3 {
        assert_eq!(lazy.watermarks(idx), eager.watermarks(idx), "seed {seed}: tier {idx} scores");
        assert_eq!(lazy.tier_used(idx), eager.tier_used(idx), "seed {seed}: tier {idx} bytes");
    }
    lazy.check_invariants().unwrap();

    // A follow-up pass sees the same scores in both models.
    let follow: Vec<ScoreUpdate> = (0..rng.below(20))
        .map(|_| {
            let f = &files[rng.below(files.len() as u64) as usize];
            f.update(rng.below(f.segments()), score_near(&mut rng, base), true)
        })
        .collect();
    let now = Timestamp::from_millis(t + 2);
    assert_eq!(lazy.run(follow.clone(), now), eager.run(follow, now), "seed {seed}: follow-up");
    assert_eq!(lazy_rec.trace_events(), eager_rec.trace_events(), "seed {seed}: event streams");
}

#[test]
fn fill_expansion_matches_the_expanded_batch() {
    for seed in 0..2000 {
        check_case(seed);
    }
}

/// The skip is what makes a pass cheap: a 1 TiB fill over a 1+2+4 GiB
/// hierarchy settles about one entry per cache segment.
#[test]
fn a_large_fill_settles_about_one_entry_per_cache_segment() {
    let hierarchy = Hierarchy::with_budgets(1024 * MIB, 2048 * MIB, 4096 * MIB);
    let (mut e, _) = engine(&hierarchy, 2.0);
    let file = FileId(7);
    let fill = Fill::new(file, (1 << 20) * MIB + MIB / 2, MIB, 1e-6);
    let explicit = vec![ScoreUpdate {
        segment: SegmentId::new(file, 3),
        score: 5.0,
        size: MIB,
        anticipated: false,
    }];
    let actions = e.run(UpdateBatch::new(explicit, vec![fill]), Timestamp::ZERO);
    assert_eq!(actions.len(), 7168, "the cache fills up");
    // Cache segments, plus one idle entry before the short tail and one
    // after it.
    assert!(e.fill_settles() <= 7168 + 2, "settled {} fill entries", e.fill_settles());
    e.check_invariants().unwrap();
}
