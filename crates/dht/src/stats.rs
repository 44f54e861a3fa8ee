//! Operation counters for the distributed map.
//!
//! Lock-free (relaxed atomics): the counters are telemetry, not control
//! flow, so exact cross-thread ordering is unnecessary.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counts of map operations since creation, plus a live entry-count gauge.
#[derive(Debug, Default)]
pub struct MapStats {
    inserts: AtomicU64,
    updates: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    removes: AtomicU64,
    /// Shard lock acquisitions (read or write). The ingestion benchmark's
    /// contention currency: batched multi-key ops show up here as one
    /// acquisition per *shard visited* instead of one per key.
    shard_locks: AtomicU64,
    /// Live entries across all shards. A *gauge*, not an op counter: it
    /// moves with inserts and `retain` removals, so the map can serve
    /// `len()` from it in O(1) without sweeping shard locks.
    entries: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Keys newly inserted.
    pub inserts: u64,
    /// In-place atomic updates applied.
    pub updates: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Keys removed.
    pub removes: u64,
    /// Shard lock acquisitions (read or write; one per shard visited).
    pub shard_locks: u64,
    /// Live entries at snapshot time (gauge).
    pub entries: u64,
}

impl StatsSnapshot {
    /// Exports the snapshot into an [`obs::Recorder`] under `dht.map.*`
    /// names: op counts and shard-lock acquisitions as counters, live
    /// entries as a gauge. Callers export once per run (at report time),
    /// not per operation.
    pub fn export_obs(&self, rec: &obs::Recorder) {
        if !rec.is_enabled() {
            return;
        }
        let label = obs::Label::None;
        for (name, value) in [
            ("dht.map.inserts", self.inserts),
            ("dht.map.updates", self.updates),
            ("dht.map.hits", self.hits),
            ("dht.map.misses", self.misses),
            ("dht.map.removes", self.removes),
            ("dht.map.shard_locks", self.shard_locks),
        ] {
            rec.counter_add(name, label, value);
        }
        rec.gauge_set("dht.map.entries", label, self.entries);
    }
}

impl MapStats {
    pub(crate) fn record_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_update(&self) {
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` entries dropped by `retain`.
    pub(crate) fn record_removes(&self, n: u64) {
        self.removes.fetch_add(n, Ordering::Relaxed);
        self.entries.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records `n` shard lock acquisitions.
    pub(crate) fn record_locks(&self, n: u64) {
        self.shard_locks.fetch_add(n, Ordering::Relaxed);
    }

    /// Live entry count (the gauge behind `DistributedMap::len`).
    pub(crate) fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            shard_locks: self.shard_locks.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = MapStats::default();
        s.record_insert();
        s.record_insert();
        s.record_hit();
        s.record_miss();
        s.record_update();
        s.record_removes(1);
        s.record_locks(3);
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.removes, 1);
        assert_eq!(snap.shard_locks, 3);
        assert_eq!(snap.entries, 1, "gauge = inserts - removes");
        s.record_removes(1);
        assert_eq!(s.snapshot().entries, 0);
        assert_eq!(s.snapshot().removes, 2);
    }

    #[test]
    fn snapshot_exports_to_recorder() {
        let s = MapStats::default();
        s.record_insert();
        s.record_hit();
        s.record_locks(5);
        let rec = obs::Recorder::enabled();
        s.snapshot().export_obs(&rec);
        let report = rec.report();
        assert_eq!(report.counter("dht.map.inserts"), Some(1));
        assert_eq!(report.counter("dht.map.hits"), Some(1));
        assert_eq!(report.counter("dht.map.shard_locks"), Some(5));
        assert_eq!(report.gauge("dht.map.entries"), Some(1));
        // A disabled recorder takes the early-out path.
        s.snapshot().export_obs(&obs::Recorder::disabled());
    }
}
