//! Persistence integration: WAL-backed segment metadata survives a
//! simulated power-down, and heatmap history carries across server
//! instances (the paper's "fault tolerance in case of power-downs" and
//! "store the file heatmaps on disk").

use std::sync::Arc;

use hfetch::dht::{DistributedMap, DurableMap};
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
fn segment_metadata_survives_power_down() {
    let dir = temp_dir("wal");
    let path = dir.join("segments.wal");
    // A (segment index → score bits) metadata table, durably logged.
    {
        let map: DurableMap<u64, u64> = DurableMap::create(&path, (2, 8)).unwrap();
        for seg in 0..500u64 {
            map.insert(seg, (seg as f64 * 0.5).to_bits()).unwrap();
        }
        // Concurrent updates from "multiple ranks".
        let map = Arc::new(map);
        std::thread::scope(|s| {
            for t in 0..4 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    for seg in (t * 100)..(t * 100 + 100) {
                        map.update_with(seg, || 0, |v| *v = v.wrapping_add(1)).unwrap();
                    }
                });
            }
        });
        map.checkpoint().unwrap();
        map.insert(9999, 42).unwrap();
    } // power-down
    let (map, replayed): (DurableMap<u64, u64>, usize) =
        DurableMap::recover(&path, (2, 8)).unwrap();
    assert_eq!(replayed, 501, "500 checkpointed + 1 appended");
    assert_eq!(map.map().len(), 501);
    assert_eq!(map.map().get(&9999), Some(42));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn heatmaps_survive_across_store_instances() {
    let dir = temp_dir("heatmap");
    let file = FileId(7);
    {
        let store = HeatmapStore::on_disk(&dir).unwrap();
        let mut h = FileHeatmap::cold(file, MIB, 8);
        h.scores[3] = 9.5;
        h.saved_at = Timestamp::from_secs(10);
        store.save(h);
    }
    let store = HeatmapStore::on_disk(&dir).unwrap();
    let loaded = store.load(file).expect("heatmap reloaded from disk");
    assert_eq!(loaded.scores[3], 9.5);
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

#[test]
fn distributed_map_shards_by_node() {
    let map: DistributedMap<SegmentId, f64> = DistributedMap::with_topology(4, 8);
    for i in 0..4000u64 {
        map.insert(SegmentId::new(FileId(i % 10), i), i as f64);
    }
    let loads = map.node_loads();
    assert_eq!(loads.iter().sum::<usize>(), 4000);
    for load in loads {
        assert!((600..=1400).contains(&load), "node load {load} imbalanced");
    }
}
