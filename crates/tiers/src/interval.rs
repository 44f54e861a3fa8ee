//! Interval set: tracks which byte ranges of a file are resident.
//!
//! Cache tiers hold *parts* of files (segments), so every backend needs to
//! answer "are bytes `[a, b)` resident here?" and to account evictions
//! byte-accurately. [`IntervalSet`] keeps a sorted list of disjoint,
//! non-adjacent ranges with O(log n) lookup and O(n) insert/remove.

use crate::range::ByteRange;

/// A set of disjoint, coalesced byte ranges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted by offset; invariant: disjoint and non-adjacent.
    ranges: Vec<ByteRange>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes covered.
    pub fn total(&self) -> u64 {
        self.ranges.iter().map(|r| r.len).sum()
    }

    /// True if no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint runs.
    pub fn runs(&self) -> usize {
        self.ranges.len()
    }

    /// Iterates the disjoint runs in offset order.
    pub fn iter(&self) -> impl Iterator<Item = ByteRange> + '_ {
        self.ranges.iter().copied()
    }

    /// Index of the first stored range whose end is after `pos`.
    fn first_candidate(&self, pos: u64) -> usize {
        self.ranges.partition_point(|r| r.end() <= pos)
    }

    /// True if every byte of `range` is covered. Empty ranges are covered.
    pub fn covers(&self, range: ByteRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let i = self.first_candidate(range.offset);
        match self.ranges.get(i) {
            Some(r) => r.covers(range),
            None => false,
        }
    }

    /// True if any byte of `range` is covered.
    pub fn intersects(&self, range: ByteRange) -> bool {
        if range.is_empty() {
            return false;
        }
        let i = self.first_candidate(range.offset);
        matches!(self.ranges.get(i), Some(r) if r.overlaps(range))
    }

    /// Bytes of `range` that are covered.
    pub fn covered_bytes(&self, range: ByteRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let mut covered = 0;
        let mut i = self.first_candidate(range.offset);
        while let Some(r) = self.ranges.get(i) {
            if r.offset >= range.end() {
                break;
            }
            if let Some(overlap) = r.intersection(range) {
                covered += overlap.len;
            }
            i += 1;
        }
        covered
    }

    /// The covered sub-ranges of `range`, in offset order.
    pub fn covered_ranges(&self, range: ByteRange) -> Vec<ByteRange> {
        let mut out = Vec::new();
        self.for_each_covered(range, |r| out.push(r));
        out
    }

    /// Streaming form of [`IntervalSet::covered_ranges`]: calls `f` for each
    /// covered sub-range in offset order without allocating.
    pub fn for_each_covered(&self, range: ByteRange, mut f: impl FnMut(ByteRange)) {
        if range.is_empty() {
            return;
        }
        let mut i = self.first_candidate(range.offset);
        while let Some(r) = self.ranges.get(i) {
            if r.offset >= range.end() {
                break;
            }
            if let Some(overlap) = r.intersection(range) {
                f(overlap);
            }
            i += 1;
        }
    }

    /// The *uncovered* sub-ranges of `range`, in offset order (the
    /// complement of [`IntervalSet::covered_ranges`] within `range`).
    pub fn gaps(&self, range: ByteRange) -> Vec<ByteRange> {
        if range.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut cursor = range.offset;
        for covered in self.covered_ranges(range) {
            if covered.offset > cursor {
                out.push(ByteRange::from_bounds(cursor, covered.offset));
            }
            cursor = covered.end();
        }
        if cursor < range.end() {
            out.push(ByteRange::from_bounds(cursor, range.end()));
        }
        out
    }

    /// Adds `range` to the set, coalescing with neighbours. Returns the
    /// number of *newly* covered bytes (0 if the range was already fully
    /// resident).
    pub fn insert(&mut self, range: ByteRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        // Find all ranges that overlap or are adjacent to `range`.
        let start = self.ranges.partition_point(|r| r.end() < range.offset);
        let mut end = start;
        let mut new_start = range.offset;
        let mut new_end = range.end();
        let mut merged = 0;
        while let Some(r) = self.ranges.get(end) {
            if r.offset > range.end() {
                break;
            }
            new_start = new_start.min(r.offset);
            new_end = new_end.max(r.end());
            merged += r.len;
            end += 1;
        }
        self.ranges.splice(start..end, [ByteRange::from_bounds(new_start, new_end)]);
        (new_end - new_start) - merged
    }

    /// Removes `range` from the set, splitting partially covered runs.
    /// Returns the number of bytes actually removed.
    pub fn remove(&mut self, range: ByteRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        // The runs that overlap `range` are contiguous: cut them out, and
        // keep what sticks out on either side.
        let lo = self.first_candidate(range.offset);
        let hi = self.ranges.partition_point(|r| r.offset < range.end());
        if lo >= hi {
            return 0;
        }
        let removed = self.ranges[lo..hi]
            .iter()
            .filter_map(|r| r.intersection(range))
            .map(|cut| cut.len)
            .sum();
        let (first, last) = (self.ranges[lo], self.ranges[hi - 1]);
        let head = (first.offset < range.offset)
            .then(|| ByteRange::from_bounds(first.offset, range.offset));
        let tail = (range.end() < last.end()).then(|| ByteRange::from_bounds(range.end(), last.end()));
        self.ranges.splice(lo..hi, head.into_iter().chain(tail));
        removed
    }

    /// Removes everything. Returns bytes removed.
    pub fn clear(&mut self) -> u64 {
        let total = self.total();
        self.ranges.clear();
        total
    }

    /// Checks internal invariants (sorted, disjoint, non-adjacent,
    /// non-empty runs). Used by property tests.
    pub fn check_invariants(&self) -> bool {
        self.ranges.iter().all(|r| !r.is_empty())
            && self.ranges.windows(2).all(|w| w[0].end() < w[1].offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_coalesces_adjacent_and_overlapping() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(ByteRange::new(0, 10)), 10);
        assert_eq!(s.insert(ByteRange::new(10, 10)), 10, "adjacent coalesces");
        assert_eq!(s.runs(), 1);
        assert_eq!(s.insert(ByteRange::new(5, 10)), 0, "already covered");
        assert_eq!(s.insert(ByteRange::new(30, 5)), 5);
        assert_eq!(s.runs(), 2);
        assert_eq!(s.insert(ByteRange::new(15, 20)), 10, "bridges the gap: only [20,30) is new");
        assert_eq!(s.runs(), 1);
        assert_eq!(s.total(), 35);
    }

    #[test]
    fn covers_and_intersects() {
        let mut s = IntervalSet::new();
        s.insert(ByteRange::new(10, 10));
        s.insert(ByteRange::new(40, 10));
        assert!(s.covers(ByteRange::new(12, 5)));
        assert!(!s.covers(ByteRange::new(15, 10)));
        assert!(s.intersects(ByteRange::new(15, 10)));
        assert!(!s.intersects(ByteRange::new(20, 10)));
        assert!(s.covers(ByteRange::new(99, 0)), "empty covered");
        assert!(!s.intersects(ByteRange::new(99, 0)), "empty intersects nothing");
    }

    #[test]
    fn covered_bytes_counts_partial() {
        let mut s = IntervalSet::new();
        s.insert(ByteRange::new(0, 10));
        s.insert(ByteRange::new(20, 10));
        assert_eq!(s.covered_bytes(ByteRange::new(5, 20)), 10);
        assert_eq!(s.covered_bytes(ByteRange::new(0, 30)), 20);
        assert_eq!(s.covered_bytes(ByteRange::new(10, 10)), 0);
    }

    #[test]
    fn covered_ranges_and_gaps_partition_request() {
        let mut s = IntervalSet::new();
        s.insert(ByteRange::new(10, 10));
        s.insert(ByteRange::new(40, 10));
        let req = ByteRange::new(5, 50);
        let covered = s.covered_ranges(req);
        assert_eq!(covered, vec![ByteRange::new(10, 10), ByteRange::new(40, 10)]);
        let gaps = s.gaps(req);
        assert_eq!(
            gaps,
            vec![ByteRange::new(5, 5), ByteRange::new(20, 20), ByteRange::new(50, 5)]
        );
        let total: u64 = covered.iter().chain(gaps.iter()).map(|r| r.len).sum();
        assert_eq!(total, req.len);
        // Fully uncovered and fully covered edge cases.
        assert!(s.covered_ranges(ByteRange::new(0, 5)).is_empty());
        assert_eq!(s.gaps(ByteRange::new(12, 5)), Vec::<ByteRange>::new());
        assert!(s.covered_ranges(ByteRange::new(0, 0)).is_empty());
        assert!(s.gaps(ByteRange::new(0, 0)).is_empty());
    }

    #[test]
    fn remove_splits_runs() {
        let mut s = IntervalSet::new();
        s.insert(ByteRange::new(0, 30));
        assert_eq!(s.remove(ByteRange::new(10, 10)), 10);
        assert_eq!(s.runs(), 2);
        assert!(s.covers(ByteRange::new(0, 10)));
        assert!(s.covers(ByteRange::new(20, 10)));
        assert!(!s.intersects(ByteRange::new(10, 10)));
        assert_eq!(s.remove(ByteRange::new(0, 100)), 20);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_reports_total() {
        let mut s = IntervalSet::new();
        s.insert(ByteRange::new(5, 7));
        assert_eq!(s.clear(), 7);
        assert!(s.is_empty());
    }

    proptest! {
        /// Invariants hold and totals are consistent under arbitrary
        /// insert/remove sequences.
        #[test]
        fn prop_random_ops_keep_invariants(ops in proptest::collection::vec(
            (any::<bool>(), 0u64..1000, 0u64..200), 0..60)) {
            let mut s = IntervalSet::new();
            // Shadow model: a boolean per byte.
            let mut model = vec![false; 1300];
            for (is_insert, off, len) in ops {
                let r = ByteRange::new(off, len);
                if is_insert {
                    let added = s.insert(r);
                    let mut model_added = 0;
                    for b in off..off + len {
                        if !model[b as usize] {
                            model[b as usize] = true;
                            model_added += 1;
                        }
                    }
                    prop_assert_eq!(added, model_added);
                } else {
                    let removed = s.remove(r);
                    let mut model_removed = 0;
                    for b in off..off + len {
                        if model[b as usize] {
                            model[b as usize] = false;
                            model_removed += 1;
                        }
                    }
                    prop_assert_eq!(removed, model_removed);
                }
                prop_assert!(s.check_invariants());
                prop_assert_eq!(s.total(), model.iter().filter(|&&b| b).count() as u64);
            }
            // Spot-check covers against the model at a few probes.
            for probe in [0u64, 13, 250, 999] {
                let r = ByteRange::new(probe, 7);
                let model_covered = (probe..probe + 7).all(|b| model[b as usize]);
                prop_assert_eq!(s.covers(r), model_covered);
            }
        }
    }
}
