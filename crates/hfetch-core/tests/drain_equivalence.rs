//! Drain-equivalence properties of the striped update queue.
//!
//! Each statistics shard holds the stripe of pending updates for its own
//! segments, so where an update lands is never the caller's choice. Keeping
//! the queue striped is a pure performance matter: it must never change
//! *what* the placement engine sees. These tests pin that contract from
//! outside the crate:
//!
//! * single-threaded, pushes drain in first-touch order with the latest
//!   score per segment, whether pushed one at a time or in batches;
//! * any interleaving of concurrent producers drains one update per
//!   segment, each producer's segments in its own first-touch order with
//!   its latest scores, and a raw-push counter that stays exact.

use std::collections::{HashMap, HashSet};

use hfetch_core::auditor::ScoreUpdate;
use hfetch_core::{StripedMap, StripedUpdateQueue};
use proptest::prelude::*;
use tiers::ids::{FileId, SegmentId};
use tiers::units::MIB;

fn upd(file: u64, index: u64, score: f64) -> ScoreUpdate {
    ScoreUpdate { segment: SegmentId::new(FileId(file), index), score, size: MIB, anticipated: false }
}

/// An empty queue over stripes with no statistics beside them.
fn queue() -> (StripedUpdateQueue, StripedMap<()>) {
    (StripedUpdateQueue::default(), StripedMap::default())
}

/// What a drain must equal for a single-threaded push sequence: latest
/// score per segment, segments in first-touch order.
fn model_drain(pushes: &[(u64, u64, f64)]) -> Vec<ScoreUpdate> {
    let mut order: Vec<SegmentId> = Vec::new();
    let mut latest: HashMap<SegmentId, ScoreUpdate> = HashMap::new();
    for &(file, index, score) in pushes {
        let u = upd(file, index, score);
        if !latest.contains_key(&u.segment) {
            order.push(u.segment);
        }
        latest.insert(u.segment, u);
    }
    order.into_iter().map(|seg| latest[&seg]).collect()
}

fn assert_byte_identical(a: &[ScoreUpdate], b: &[ScoreUpdate]) {
    assert_eq!(a.len(), b.len(), "drain lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.segment, y.segment, "segment order differs");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "score bits differ");
        assert_eq!(x.size, y.size);
        assert_eq!(x.anticipated, y.anticipated);
    }
}

proptest! {
    /// Single-threaded pushes drain identically — same order, same bit
    /// patterns — whether pushed one at a time or in batches of any
    /// length, and each matches the first-touch/latest-score model.
    #[test]
    fn prop_serial_drain_is_first_touch_latest_score(
        pushes in proptest::collection::vec(
            (0u64..3, 0u64..24, 0.0f64..100.0), 0..200),
    ) {
        let expected = model_drain(&pushes);
        let updates: Vec<ScoreUpdate> = pushes.iter().map(|&(f, i, s)| upd(f, i, s)).collect();
        for batch in [1usize, 3, 64] {
            let (q, m) = queue();
            for chunk in updates.chunks(batch) {
                q.push_all(&m, chunk);
            }
            prop_assert_eq!(q.pending(), pushes.len() as u64);
            let drained = q.drain(&m).updates().to_vec();
            assert_byte_identical(&drained, &expected);
            prop_assert_eq!(q.pending(), 0u64);
        }
    }

    /// Interleaving drains into a serial push stream never loses or
    /// duplicates anything: the concatenated drains equal the model of
    /// the whole stream segment-for-segment *only* in coverage, and each
    /// drained batch is itself coalesced (one slot per segment).
    #[test]
    fn prop_partial_drains_partition_the_stream(
        pushes in proptest::collection::vec(
            (0u64..3, 0u64..16, 0.0f64..100.0), 1..120),
        cadence in 1usize..40,
    ) {
        let (q, m) = queue();
        let mut batches: Vec<Vec<ScoreUpdate>> = Vec::new();
        for (i, &(file, index, score)) in pushes.iter().enumerate() {
            q.push_all(&m, &[upd(file, index, score)]);
            if (i + 1) % cadence == 0 {
                batches.push(q.drain(&m).updates().to_vec());
            }
        }
        batches.push(q.drain(&m).updates().to_vec());
        prop_assert_eq!(q.pending(), 0u64);
        for batch in &batches {
            let mut seen = HashSet::new();
            for u in batch {
                prop_assert!(seen.insert(u.segment), "batch not coalesced");
            }
        }
        // Every drained segment's final occurrence carries the latest
        // score pushed before its drain — checked via the last batch each
        // segment appears in against a replay of the push stream.
        let mut last_seen: HashMap<SegmentId, f64> = HashMap::new();
        for batch in &batches {
            for u in batch {
                last_seen.insert(u.segment, u.score);
            }
        }
        let finals = model_drain(&pushes);
        prop_assert_eq!(last_seen.len(), finals.len(), "coverage differs from model");
        for u in finals {
            prop_assert_eq!(last_seen[&u.segment].to_bits(), u.score.to_bits());
        }
    }

    /// Producers on their own threads, each over its own file, in whatever
    /// interleaving the scheduler picks: one drain holds one update per
    /// segment, each producer's segments in that producer's first-touch
    /// order and at its latest scores, and the raw count drains to 0.
    #[test]
    fn prop_any_interleaving_of_producers_drains_each_producer_s_model(
        pushes in proptest::collection::vec(
            (0u64..4, 0u64..24, 0.0f64..100.0), 0..160),
        batch in 1usize..6,
    ) {
        let (q, m) = queue();
        let streams: Vec<Vec<(u64, u64, f64)>> =
            (0..4).map(|p| pushes.iter().copied().filter(|&(f, _, _)| f == p).collect()).collect();
        std::thread::scope(|s| {
            for stream in &streams {
                let (q, m) = (&q, &m);
                s.spawn(move || {
                    let updates: Vec<ScoreUpdate> =
                        stream.iter().map(|&(f, i, sc)| upd(f, i, sc)).collect();
                    for chunk in updates.chunks(batch) {
                        q.push_all(m, chunk);
                    }
                });
            }
        });
        prop_assert_eq!(q.pending(), pushes.len() as u64);
        let drained = q.drain(&m).updates().to_vec();
        prop_assert_eq!(q.pending(), 0u64);
        let mut seen = HashSet::new();
        for u in &drained {
            prop_assert!(seen.insert(u.segment), "two updates for {:?}", u.segment);
        }
        for (file, stream) in streams.iter().enumerate() {
            let own: Vec<ScoreUpdate> =
                drained.iter().copied().filter(|u| u.segment.file == FileId(file as u64)).collect();
            assert_byte_identical(&own, &model_drain(stream));
        }
    }
}

/// N producers over disjoint files: the merged drain coalesces to each
/// segment's latest score (scores increase monotonically per thread, so
/// "latest" is checkable), and the raw-push counter drains to exactly 0.
#[test]
fn concurrent_producers_coalesce_to_latest_per_segment() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 500;
    const SEGMENTS: u64 = 8;
    let (q, m) = queue();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (q, m) = (&q, &m);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    for i in 0..SEGMENTS {
                        q.push_all(m, &[upd(t, i, (r + 1) as f64)]);
                    }
                }
            });
        }
    });
    assert_eq!(q.pending(), THREADS * ROUNDS * SEGMENTS);
    let drained = q.drain(&m).updates().to_vec();
    assert_eq!(drained.len(), (THREADS * SEGMENTS) as usize, "one slot per segment");
    for u in &drained {
        assert_eq!(u.score, ROUNDS as f64, "latest (largest) score won");
    }
    assert_eq!(q.pending(), 0);
}
