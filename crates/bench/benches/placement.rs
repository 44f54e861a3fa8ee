//! Ablation: Algorithm 1's incremental watermark placement vs a naive
//! full re-sort on every batch (the "deriving an optimal placement is
//! often more expensive" trade-off of §IV-A.1).
//!
//! `reopen` is the pass that dominates a file read in several epochs: a
//! file 9x the cache is closed, so its cached segments cool where they sit,
//! and re-opened, so one base-score fill stages all of it over a full cache.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hfetch_core::auditor::ScoreUpdate;
use hfetch_core::config::{HFetchConfig, Reactiveness};
use hfetch_core::engine::PlacementEngine;
use hfetch_core::update_queue::{Fill, UpdateBatch};
use tiers::ids::{FileId, SegmentId};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;
use tiers::units::{gib, mib, MIB};

fn updates(n: u64, salt: u64) -> Vec<ScoreUpdate> {
    (0..n)
        .map(|i| ScoreUpdate {
            segment: SegmentId::new(FileId(0), (i * 7 + salt) % (n * 2)),
            score: ((i * 31 + salt * 17) % 1000) as f64 / 10.0,
            size: MIB,
            anticipated: false,
        })
        .collect()
}

/// Naive comparator: keep every (segment, score), fully re-sort, assign
/// greedily to tiers top-down.
struct ResortPlanner {
    scores: std::collections::HashMap<SegmentId, f64>,
    budgets: Vec<u64>,
}

impl ResortPlanner {
    fn run(&mut self, batch: &[ScoreUpdate]) -> usize {
        for u in batch {
            self.scores.insert(u.segment, u.score);
        }
        let mut all: Vec<(&SegmentId, &f64)> = self.scores.iter().collect();
        all.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap().then(a.0.cmp(b.0)));
        let mut tier = 0usize;
        let mut used = 0u64;
        let mut placements = 0usize;
        for (_, _) in all {
            if tier >= self.budgets.len() {
                break;
            }
            used += MIB;
            placements += 1;
            if used >= self.budgets[tier] {
                tier += 1;
                used = 0;
            }
        }
        placements
    }
}

fn bench_placement(c: &mut Criterion) {
    let hierarchy = Hierarchy::with_budgets(mib(64), mib(128), mib(256));
    let mut group = c.benchmark_group("placement");

    for batch in [100u64, 1000] {
        group.bench_with_input(
            BenchmarkId::new("algorithm1_incremental", batch),
            &batch,
            |b, &batch| {
                let mut engine = PlacementEngine::new(&hierarchy, Reactiveness::high());
                engine.run(updates(batch * 2, 0), Timestamp::ZERO);
                let mut salt = 0;
                b.iter(|| {
                    salt += 1;
                    black_box(engine.run(updates(batch, salt), Timestamp::from_millis(salt)))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive_full_resort", batch),
            &batch,
            |b, &batch| {
                let mut planner = ResortPlanner {
                    scores: std::collections::HashMap::new(),
                    budgets: vec![mib(64), mib(128), mib(256)],
                };
                planner.run(&updates(batch * 2, 0));
                let mut salt = 0;
                b.iter(|| {
                    salt += 1;
                    black_box(planner.run(&updates(batch, salt)))
                })
            },
        );
    }
    group.finish();
}

/// One re-open: cool a cache full of the file's segments, then run the
/// fill pass that stages the whole file at the base score.
fn bench_reopen(c: &mut Criterion) {
    let hierarchy = Hierarchy::with_budgets(gib(1), gib(2), gib(4));
    let base = HFetchConfig::default().epoch_base_score;
    let file = FileId(0);
    let fill = || UpdateBatch::new(Vec::new(), vec![Fill::new(file, gib(64), MIB, base)]);
    let mut group = c.benchmark_group("placement");
    group.bench_function("reopen_file_9x_cache", |b| {
        let mut engine = PlacementEngine::new(&hierarchy, Reactiveness::high());
        engine.run(fill(), Timestamp::ZERO);
        let mut at = 0;
        b.iter(|| {
            at += 1;
            engine.cool_file(file);
            black_box(engine.run(fill(), Timestamp::from_millis(at)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_placement, bench_reopen);
criterion_main!(benches);
