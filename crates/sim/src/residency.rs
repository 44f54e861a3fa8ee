//! Cache-tier residency tracking.
//!
//! The backing store (PFS) always holds every byte of every file; cache
//! tiers hold prefetched ranges. [`ResidencyMap`] answers, byte-accurately,
//! "which tier serves which part of this read?" under HFetch's *exclusive*
//! cache model (a byte is resident on at most one cache tier, §III-D).

use dht::FxHashMap;
use tiers::ids::{FileId, TierId};
use tiers::interval::IntervalSet;
use tiers::range::ByteRange;

/// Byte ranges resident per (file, cache tier).
///
/// Keyed with the in-tree Fx hasher: residency lookups sit on the
/// per-simulated-read hot path and the keys are small integer pairs, the
/// exact case SipHash is overkill for.
#[derive(Debug, Default)]
pub struct ResidencyMap {
    sets: FxHashMap<(FileId, TierId), IntervalSet>,
}

/// Reusable output buffer for [`ResidencyMap::plan_read_into`].
///
/// Steady-state read planning is allocation-free: the per-tier range vectors
/// and the scratch interval set are pooled here and reused across calls.
#[derive(Debug, Default)]
pub struct ReadPlan {
    /// Pooled `(tier, sub-ranges, bytes)` entries; only `live` are valid.
    entries: Vec<(TierId, Vec<ByteRange>, u64)>,
    live: usize,
    remaining: IntervalSet,
}

impl ReadPlan {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries produced by the last `plan_read_into` call.
    pub fn entries(&self) -> &[(TierId, Vec<ByteRange>, u64)] {
        &self.entries[..self.live]
    }
}

impl ResidencyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `range` of `file` resident on `tier`, returning newly resident
    /// bytes. Enforces exclusivity by removing the range from every other
    /// tier first (callers move data; the map guards the invariant).
    pub fn add(&mut self, file: FileId, range: ByteRange, tier: TierId) -> u64 {
        // Exclusive cache: strip from other tiers.
        for ((f, t), set) in self.sets.iter_mut() {
            if *f == file && *t != tier {
                set.remove(range);
            }
        }
        self.sets.retain(|_, set| !set.is_empty());
        self.sets.entry((file, tier)).or_default().insert(range)
    }

    /// Removes `range` of `file` from `tier`, returning bytes removed.
    pub fn remove(&mut self, file: FileId, range: ByteRange, tier: TierId) -> u64 {
        let Some(set) = self.sets.get_mut(&(file, tier)) else { return 0 };
        let removed = set.remove(range);
        if set.is_empty() {
            self.sets.remove(&(file, tier));
        }
        removed
    }

    /// Removes `range` of `file` from *every* cache tier (write
    /// invalidation). Returns bytes removed per tier.
    pub fn invalidate(&mut self, file: FileId, range: ByteRange) -> Vec<(TierId, u64)> {
        let mut out = Vec::new();
        for ((f, t), set) in self.sets.iter_mut() {
            if *f == file {
                let removed = set.remove(range);
                if removed > 0 {
                    out.push((*t, removed));
                }
            }
        }
        self.sets.retain(|_, set| !set.is_empty());
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// True if all of `range` is resident on `tier`.
    pub fn resident_on(&self, file: FileId, range: ByteRange, tier: TierId) -> bool {
        self.sets.get(&(file, tier)).is_some_and(|s| s.covers(range))
    }

    /// The sub-ranges of `range` resident on `tier`.
    pub fn covered_on(&self, file: FileId, range: ByteRange, tier: TierId) -> Vec<ByteRange> {
        self.sets.get(&(file, tier)).map_or_else(Vec::new, |s| s.covered_ranges(range))
    }

    /// Splits a read request across tiers: walking `tiers` in the given
    /// order (fastest first), each tier serves whatever part of the
    /// remaining request it holds; leftovers fall to the final entry under
    /// `backing`. Results are `(tier, sub-ranges, bytes)` triples in
    /// `plan`'s pooled buffers (the simulator keeps one per core and reuses
    /// it for every read event); every byte of `range` appears exactly once.
    pub fn plan_read_into(
        &self,
        file: FileId,
        range: ByteRange,
        tiers: &[TierId],
        backing: TierId,
        plan: &mut ReadPlan,
    ) {
        let ReadPlan { entries, live, remaining } = plan;
        *live = 0;
        remaining.clear();
        remaining.insert(range);
        for &tier in tiers {
            if tier == backing {
                continue;
            }
            let Some(set) = self.sets.get(&(file, tier)) else { continue };
            if *live == entries.len() {
                entries.push((TierId(0), Vec::new(), 0));
            }
            *live += 1;
            let entry = &mut entries[*live - 1];
            entry.0 = tier;
            entry.1.clear();
            entry.2 = 0;
            let served = &mut entry.1;
            set.for_each_covered(range, |sub| {
                // Only count parts still unclaimed by faster tiers.
                remaining.for_each_covered(sub, |part| served.push(part));
            });
            let bytes: u64 = served.iter().map(|r| r.len).sum();
            if bytes == 0 {
                *live -= 1; // return the unused slot to the pool
                continue;
            }
            entry.2 = bytes;
            for &part in entry.1.iter() {
                remaining.remove(part);
            }
        }
        // Whatever is left comes from the backing store.
        if *live == entries.len() {
            entries.push((TierId(0), Vec::new(), 0));
        }
        *live += 1;
        let entry = &mut entries[*live - 1];
        entry.0 = backing;
        entry.1.clear();
        entry.2 = 0;
        let mut left_bytes = 0;
        for r in remaining.iter() {
            left_bytes += r.len;
            entry.1.push(r);
        }
        if left_bytes > 0 {
            entry.2 = left_bytes;
        } else {
            *live -= 1;
        }
    }

    /// True if any byte of `range` of `file` is resident on any of `tiers`.
    pub fn overlaps_any(&self, file: FileId, range: ByteRange, tiers: &[TierId]) -> bool {
        tiers.iter().any(|&t| self.sets.get(&(file, t)).is_some_and(|s| s.intersects(range)))
    }

    /// True if any byte of `file` is resident on any of `tiers` — the
    /// cheap guard that lets the simulator skip read planning entirely for
    /// files with no cached data (the common case under no/weak
    /// prefetching).
    pub fn file_resident_on_any(&self, file: FileId, tiers: &[TierId]) -> bool {
        tiers.iter().any(|&t| self.sets.contains_key(&(file, t)))
    }

    /// Bytes resident on `tier` for `file`.
    pub fn resident_bytes(&self, file: FileId, tier: TierId) -> u64 {
        self.sets.get(&(file, tier)).map_or(0, |s| s.total())
    }

    /// Every `(file, tier)` with resident bytes.
    pub fn entries(&self) -> impl Iterator<Item = (FileId, TierId, u64)> + '_ {
        self.sets.iter().map(|((f, t), s)| (*f, *t, s.total()))
    }

    /// Checks the exclusive-cache invariant: no byte resident on two tiers.
    pub fn check_exclusive(&self) -> bool {
        let mut by_file: FxHashMap<FileId, Vec<&IntervalSet>> = FxHashMap::default();
        for ((f, _), set) in &self.sets {
            by_file.entry(*f).or_default().push(set);
        }
        for sets in by_file.values() {
            for (i, a) in sets.iter().enumerate() {
                for b in &sets[i + 1..] {
                    for r in a.iter() {
                        if b.intersects(r) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const F: FileId = FileId(1);
    const RAM: TierId = TierId(0);
    const NVME: TierId = TierId(1);
    const BB: TierId = TierId(2);
    const PFS: TierId = TierId(3);

    #[test]
    fn add_remove_round_trip() {
        let mut m = ResidencyMap::new();
        assert_eq!(m.add(F, ByteRange::new(0, 100), RAM), 100);
        assert_eq!(m.add(F, ByteRange::new(50, 100), RAM), 50);
        assert!(m.resident_on(F, ByteRange::new(0, 150), RAM));
        assert_eq!(m.remove(F, ByteRange::new(0, 150), RAM), 150);
        assert_eq!(m.resident_bytes(F, RAM), 0);
    }

    #[test]
    fn exclusivity_enforced_on_add() {
        let mut m = ResidencyMap::new();
        m.add(F, ByteRange::new(0, 100), RAM);
        m.add(F, ByteRange::new(50, 100), NVME);
        assert!(m.check_exclusive());
        assert_eq!(m.resident_bytes(F, RAM), 50, "RAM lost the overlap");
        assert_eq!(m.resident_bytes(F, NVME), 100);
        // Same range back to RAM strips NVMe.
        m.add(F, ByteRange::new(50, 100), RAM);
        assert_eq!(m.resident_bytes(F, NVME), 0);
        assert!(m.check_exclusive());
    }

    #[test]
    fn different_files_do_not_interact() {
        let mut m = ResidencyMap::new();
        m.add(FileId(1), ByteRange::new(0, 10), RAM);
        m.add(FileId(2), ByteRange::new(0, 10), NVME);
        assert_eq!(m.resident_bytes(FileId(1), RAM), 10);
        assert_eq!(m.resident_bytes(FileId(2), NVME), 10);
        assert!(m.check_exclusive());
    }

    #[test]
    fn invalidate_strips_all_tiers() {
        let mut m = ResidencyMap::new();
        m.add(F, ByteRange::new(0, 50), RAM);
        m.add(F, ByteRange::new(50, 50), NVME);
        m.add(F, ByteRange::new(100, 50), BB);
        let removed = m.invalidate(F, ByteRange::new(25, 100));
        assert_eq!(removed, vec![(RAM, 25), (NVME, 50), (BB, 25)]);
        assert_eq!(m.resident_bytes(F, RAM), 25);
        assert_eq!(m.resident_bytes(F, NVME), 0);
        assert_eq!(m.resident_bytes(F, BB), 25);
    }

    #[test]
    fn plan_read_prefers_faster_tiers_and_covers_all_bytes() {
        let mut m = ResidencyMap::new();
        m.add(F, ByteRange::new(0, 100), RAM);
        m.add(F, ByteRange::new(100, 100), NVME);
        // [250, 300) on BB; [200,250) nowhere.
        m.add(F, ByteRange::new(250, 50), BB);
        let mut plan = ReadPlan::new();
        m.plan_read_into(F, ByteRange::new(0, 300), &[RAM, NVME, BB, PFS], PFS, &mut plan);
        let plan = plan.entries();
        let total: u64 = plan.iter().map(|(_, _, b)| b).sum();
        assert_eq!(total, 300);
        assert_eq!(plan[0].0, RAM);
        assert_eq!(plan[0].2, 100);
        assert_eq!(plan[1].0, NVME);
        assert_eq!(plan[1].2, 100);
        assert_eq!(plan[2].0, BB);
        assert_eq!(plan[2].2, 50);
        assert_eq!(plan[3].0, PFS);
        assert_eq!(plan[3].2, 50);
        assert_eq!(plan[3].1, vec![ByteRange::new(200, 50)]);
    }

    #[test]
    fn plan_read_all_miss_goes_to_backing() {
        let m = ResidencyMap::new();
        let mut plan = ReadPlan::new();
        m.plan_read_into(F, ByteRange::new(10, 20), &[RAM, NVME], PFS, &mut plan);
        let plan = plan.entries();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0], (PFS, vec![ByteRange::new(10, 20)], 20));
    }

    #[test]
    fn covered_on_reports_subranges() {
        let mut m = ResidencyMap::new();
        m.add(F, ByteRange::new(10, 10), RAM);
        assert_eq!(m.covered_on(F, ByteRange::new(0, 50), RAM), vec![ByteRange::new(10, 10)]);
        assert!(m.covered_on(F, ByteRange::new(0, 50), NVME).is_empty());
    }

    #[test]
    fn entries_list_each_file_tier() {
        let mut m = ResidencyMap::new();
        m.add(FileId(1), ByteRange::new(0, 10), RAM);
        m.add(FileId(2), ByteRange::new(0, 30), RAM);
        let mut entries: Vec<_> = m.entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(FileId(1), RAM, 10), (FileId(2), RAM, 30)]);
    }

    proptest! {
        /// Exclusivity holds and plan_read_into partitions requests under random
        /// add/remove/invalidate sequences.
        #[test]
        fn prop_exclusive_and_partitioning(ops in proptest::collection::vec(
            (0u8..3, 0u64..500, 1u64..120, 0u16..3), 0..80)) {
            let mut m = ResidencyMap::new();
            let tiers = [RAM, NVME, BB, PFS];
            for (op, off, len, tier) in ops {
                let r = ByteRange::new(off, len);
                match op {
                    0 => { m.add(F, r, TierId(tier)); }
                    1 => { m.remove(F, r, TierId(tier)); }
                    _ => { m.invalidate(F, r); }
                }
                prop_assert!(m.check_exclusive());
            }
            let req = ByteRange::new(0, 700);
            let mut plan = ReadPlan::new();
            m.plan_read_into(F, req, &tiers, PFS, &mut plan);
            let total: u64 = plan.entries().iter().map(|(_, _, b)| b).sum();
            prop_assert_eq!(total, req.len);
            // No overlap across plan entries.
            let mut seen = IntervalSet::new();
            for (_, ranges, _) in plan.entries() {
                for r in ranges {
                    prop_assert_eq!(seen.insert(*r), r.len, "byte served twice");
                }
            }
        }
    }
}
