//! Ablation: the sharded distributed map vs a single-lock map.
//!
//! The paper removes the distributed hashmap thought experiment in
//! §III-A.2 ("Removing the distributed hashmap … will result in increased
//! latencies"); this bench shows the contention difference that motivates
//! sharding.

use std::collections::HashMap;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dht::DistributedMap;
use parking_lot::Mutex;
use tiers::ids::{FileId, SegmentId};

fn contended_update_sharded(threads: usize, per_thread: usize) {
    let map: DistributedMap<SegmentId, u64> = DistributedMap::default();
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            s.spawn(move || {
                for i in 0..per_thread {
                    let seg = SegmentId::new(FileId((i % 64) as u64), (t * 1000 + i) as u64 % 256);
                    map.update_with(seg, || 0, |v| *v += 1);
                }
            });
        }
    });
}

fn contended_update_single_lock(threads: usize, per_thread: usize) {
    let map: Arc<Mutex<HashMap<SegmentId, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = Arc::clone(&map);
            s.spawn(move || {
                for i in 0..per_thread {
                    let seg = SegmentId::new(FileId((i % 64) as u64), (t * 1000 + i) as u64 % 256);
                    *map.lock().entry(seg).or_insert(0) += 1;
                }
            });
        }
    });
}

fn bench_dht(c: &mut Criterion) {
    let mut group = c.benchmark_group("dht");
    group.bench_function("update_single_thread", |b| {
        let map: DistributedMap<SegmentId, u64> = DistributedMap::default();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            map.update_with(SegmentId::new(FileId(i % 32), i % 512), || 0, |v| *v += 1)
        })
    });
    group.bench_function("get_hit", |b| {
        let map: DistributedMap<SegmentId, u64> = DistributedMap::default();
        for i in 0..512 {
            map.update_with(SegmentId::new(FileId(0), i), || i, |_| ());
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(map.get(&SegmentId::new(FileId(0), i % 512)))
        })
    });
    group.bench_function("contended_sharded_4x2000", |b| {
        b.iter(|| contended_update_sharded(4, 2000))
    });
    group.bench_function("contended_single_lock_4x2000", |b| {
        b.iter(|| contended_update_single_lock(4, 2000))
    });
    group.finish();
}

criterion_group!(benches, bench_dht);
criterion_main!(benches);
