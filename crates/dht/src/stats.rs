//! Operation counters for the distributed map.
//!
//! Each shard counts its own operations in plain fields under the shard's
//! lock, which every counted operation holds anyway; the map sums the
//! shards for a snapshot. Only the live entry count is a shared atomic, so
//! `len()` takes no lock.

/// Counts of map operations since creation, plus the live entry count.
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
    /// Shard lock acquisitions: one per shard visited, whether the
    /// operation touched the entries, the shard's side state or both.
    pub shard_locks: u64,
    /// Live entries at snapshot time (gauge).
    pub entries: u64,
}

impl StatsSnapshot {
    /// Adds `other`'s operation counts into `self` (the entry gauge is
    /// the map's, not a shard's, and is left alone).
    pub(crate) fn add(&mut self, other: &StatsSnapshot) {
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.hits += other.hits;
        self.misses += other.misses;
        self.removes += other.removes;
        self.shard_locks += other.shard_locks;
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_add_up() {
        let mut total = StatsSnapshot { entries: 7, ..Default::default() };
        let shard = StatsSnapshot {
            inserts: 2,
            updates: 1,
            hits: 1,
            misses: 1,
            removes: 1,
            shard_locks: 3,
            entries: 99,
        };
        total.add(&shard);
        total.add(&shard);
        assert_eq!(
            total,
            StatsSnapshot {
                inserts: 4,
                updates: 2,
                hits: 2,
                misses: 2,
                removes: 2,
                shard_locks: 6,
                entries: 7,
            },
            "counts sum, the gauge stays the map's"
        );
    }

    #[test]
    fn snapshot_exports_to_recorder() {
        let s = StatsSnapshot { inserts: 1, hits: 1, shard_locks: 5, entries: 1, ..Default::default() };
        let rec = obs::Recorder::enabled();
        s.export_obs(&rec);
        let report = rec.report();
        assert_eq!(report.counter("dht.map.inserts"), Some(1));
        assert_eq!(report.counter("dht.map.hits"), Some(1));
        assert_eq!(report.counter("dht.map.shard_locks"), Some(5));
        assert_eq!(report.gauge("dht.map.entries"), Some(1));
        // A disabled recorder takes the early-out path.
        s.export_obs(&obs::Recorder::disabled());
    }
}
