//! Persistence integration: heatmap history carries across store and
//! auditor instances (the paper's "store the file heatmaps on disk",
//! §III-C), and the volatile statistics map routes keys the way the
//! auditor's batching expects.

use std::sync::Arc;

use hfetch::dht::hash::hash_one;
use hfetch::dht::{DistributedMap, SHARDS};
use hfetch::hfetch_core::heatmap::{FileHeatmap, HeatmapStore};
use hfetch::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hfetch-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn heatmaps_survive_across_store_instances() {
    let dir = temp_dir("heatmap");
    let file = FileId(7);
    {
        let store = HeatmapStore::on_disk(&dir).unwrap();
        let mut h = FileHeatmap::from_scores(file, MIB, 8, [(3, 9.5)]);
        h.saved_at = Timestamp::from_secs(10);
        store.save(h);
    }
    let store = HeatmapStore::on_disk(&dir).unwrap();
    let loaded = store.load(file).expect("heatmap reloaded from disk");
    assert_eq!(loaded.score(3), 9.5);
    assert_eq!(loaded.hottest_first()[0], 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn auditor_heatmap_round_trips_through_store() {
    let cfg = HFetchConfig::default();
    let store = Arc::new(HeatmapStore::in_memory());
    let auditor = hfetch::hfetch_core::Auditor::with_heatmaps(cfg.clone(), Arc::clone(&store));
    let file = FileId(1);
    auditor.set_file_size(file, mib(8));
    auditor.start_epoch(file, Timestamp::from_secs(1));
    for p in 0..6 {
        auditor.observe_read(
            file,
            ByteRange::new(mib(2), MIB),
            ProcessId(p),
            Timestamp::from_secs(1),
        );
    }
    assert!(auditor.end_epoch(file, Timestamp::from_secs(2)), "last closer persists");
    let saved = store.load(file).expect("persisted on epoch end");
    assert_eq!(saved.hottest_first()[0], 2, "segment 2 is the hottest");

    // A fresh auditor sharing the store stages the hot segment first on
    // re-open (the history-based warm start without offline profiling).
    let auditor2 = hfetch::hfetch_core::Auditor::with_heatmaps(cfg, store);
    auditor2.set_file_size(file, mib(8));
    auditor2.start_epoch(file, Timestamp::from_secs(3));
    let updates = auditor2.drain_updates();
    let hottest = updates
        .expanded()
        .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
        .unwrap();
    assert_eq!(hottest.segment.index, 2);
}

/// Pins the statistics map's routing: the auditor's batching and the
/// `dht.map.shard_locks` goldens depend on these shards staying put.
#[test]
fn distributed_map_routes_by_hash_mod_shards() {
    let map: DistributedMap<SegmentId, f64> = DistributedMap::default();
    let pinned = [
        ((0, 0), 0),
        ((0, 1), 21),
        ((1, 0), 18),
        ((1, 7), 17),
        ((3, 1000), 14),
        ((42, 12345), 26),
        ((7, 3), 20),
        ((u64::MAX, 99), 14),
    ];
    for ((file, index), shard) in pinned {
        let seg = SegmentId::new(FileId(file), index);
        assert_eq!(map.locate(&seg), shard, "{seg:?}");
        assert_eq!(map.locate(&seg) as u64, hash_one(&seg) % SHARDS as u64);
    }
    let mut loads = [0usize; SHARDS];
    for i in 0..32_000u64 {
        loads[map.locate(&SegmentId::new(FileId(i % 10), i))] += 1;
    }
    for (shard, load) in loads.into_iter().enumerate() {
        assert!((600..=1400).contains(&load), "shard {shard} load {load} imbalanced");
    }
}
