//! The sharded concurrent map.
//!
//! Keys route `hash(key) % SHARDS`, so updates spread over independently
//! locked shards without "a global synchronization barrier" (§III-A.2).
//! All single-key operations take only the owning shard's lock, so updates
//! to different segments proceed in parallel and updates to the *same*
//! segment are atomic — the property the auditor needs when many ranks read
//! one file region concurrently.
//!
//! Each shard also holds caller-defined *side state* `S`, guarded by the
//! same lock. The auditor keeps a segment's pending score updates there,
//! so recording a read and queueing its score is one lock, and an update
//! can only land in the shard its segment lives in. Every operation below
//! that takes a shard lock can reach the side state; the plain forms pass
//! it by.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::hash::{hash_one, FxHashMap};
use crate::stats::StatsSnapshot;

/// Number of shards in every [`DistributedMap`].
pub const SHARDS: usize = 32;

/// One shard: its entries, its operation counts and its side state.
struct Shard<K, V, S> {
    entries: FxHashMap<K, V>,
    counts: StatsSnapshot,
    side: S,
}

impl<K, V, S: Default> Default for Shard<K, V, S> {
    fn default() -> Self {
        Self { entries: FxHashMap::default(), counts: StatsSnapshot::default(), side: S::default() }
    }
}

impl<K: Eq + Hash, V, S> Shard<K, V, S> {
    /// Upserts `key` and hands `f` its value and the side state; `gauge`
    /// is the map's live entry count.
    fn upsert<R>(
        &mut self,
        gauge: &AtomicU64,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V, &mut S) -> R,
    ) -> R {
        match self.entries.entry(key) {
            Entry::Occupied(mut e) => {
                self.counts.updates += 1;
                f(e.get_mut(), &mut self.side)
            }
            Entry::Vacant(e) => {
                self.counts.inserts += 1;
                gauge.fetch_add(1, Ordering::Relaxed);
                f(e.insert(default()), &mut self.side)
            }
        }
    }

    /// Looks `key` up, counting a hit or a miss, and hands `f` the value
    /// and the side state.
    fn peek<R>(&mut self, key: &K, f: impl FnOnce(Option<&V>, &mut S) -> R) -> R {
        let value = self.entries.get(key);
        match value {
            Some(_) => self.counts.hits += 1,
            None => self.counts.misses += 1,
        }
        f(value, &mut self.side)
    }
}

/// A concurrent hashmap over [`SHARDS`] independently locked shards, each
/// with side state `S`.
pub struct DistributedMap<K, V, S = ()> {
    shards: [Mutex<Shard<K, V, S>>; SHARDS],
    /// Live entries across all shards, so `len()` takes no lock.
    entries: AtomicU64,
}

impl<K, V, S: Default> Default for DistributedMap<K, V, S> {
    fn default() -> Self {
        Self { shards: std::array::from_fn(|_| Mutex::default()), entries: AtomicU64::new(0) }
    }
}

impl<K, V, S> DistributedMap<K, V, S>
where
    K: Eq + Hash + Clone,
{
    /// The shard `key` lives in: `hash_one(key) % SHARDS`.
    pub fn locate(&self, key: &K) -> usize {
        (hash_one(key) % SHARDS as u64) as usize
    }

    /// Locks shard `shard`, counting the acquisition.
    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard<K, V, S>> {
        let mut guard = self.shards[shard].lock();
        guard.counts.shard_locks += 1;
        guard
    }

    /// Returns a clone of the value under `key`.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Applies `f` to the value under `key` *in place* under the shard's
    /// lock — no clone. This is what lookahead peeks want: reading a
    /// [`get`]-style clone of a value with owned fields (e.g. a `Vec`)
    /// allocates per peek; `get_with` borrows instead. `f` must not block
    /// (it holds the shard lock) and cannot re-enter the map.
    ///
    /// [`get`]: DistributedMap::get
    pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.peek_with(key, |value, _| value.map(f))
    }

    /// Looks `key` up and hands `f` the value, if any, and the side state
    /// of its shard, under one lock: a lookahead peek and the anticipated
    /// update it queues.
    pub fn peek_with<R>(&self, key: &K, f: impl FnOnce(Option<&V>, &mut S) -> R) -> R {
        self.lock(self.locate(key)).peek(key, f)
    }

    /// Atomically updates the value under `key`, inserting
    /// `default()` first if absent. The closure runs under the shard lock;
    /// the return value is passed through.
    ///
    /// This is the auditor's workhorse: "the auditor will atomically update
    /// one or more targeted segments' score in the map" (§III-A.2).
    pub fn update_with<R>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        self.update_with_side(key, default, |value, _| f(value))
    }

    /// [`update_with`], with the side state of `key`'s shard under the
    /// same lock.
    ///
    /// [`update_with`]: DistributedMap::update_with
    pub fn update_with_side<R>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V, &mut S) -> R,
    ) -> R {
        self.lock(self.locate(&key)).upsert(&self.entries, key, default, f)
    }

    /// Builds the shard-grouped visit order for `keys`: `(shard, input
    /// index)` pairs sorted by shard, input order preserved within each
    /// shard's run. The ordered operations below take it, so a caller
    /// that visits the same keys twice routes them once.
    pub fn route(&self, keys: &[K]) -> Vec<(usize, usize)> {
        let mut order: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(i, k)| (self.locate(k), i)).collect();
        order.sort_by_key(|&(shard, _)| shard);
        order
    }

    /// Visits `keys` grouped by shard, taking each shard's lock once per
    /// group: `visit(shard, index)` runs for every position of `order`,
    /// which must be exactly `self.route(keys)` (checked in debug builds).
    fn visit_ordered(
        &self,
        order: &[(usize, usize)],
        keys: &[K],
        mut visit: impl FnMut(&mut Shard<K, V, S>, usize),
    ) {
        debug_assert_eq!(order.len(), keys.len());
        debug_assert!(order.windows(2).all(|w| w[0].0 <= w[1].0), "order not shard-sorted");
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.lock(group[0].0);
            for &(at, idx) in group {
                debug_assert_eq!(at, self.locate(&keys[idx]), "order/keys mismatch");
                visit(&mut shard, idx);
            }
        }
    }

    /// Atomically updates every key in `keys`, inserting `default()` for
    /// absent ones, taking each owning shard's **lock exactly once** even
    /// when several keys share a shard. `order` must be exactly
    /// `self.route(keys)` (checked in debug builds). `f` receives the index
    /// of the key within `keys`, the mutable value and the shard's side
    /// state; results come back in input order.
    ///
    /// This is the batched form of [`update_with_side`] the auditor uses
    /// for multi-segment reads: a 3-segment request that lands on one
    /// shard costs one lock acquisition instead of three. Keys are applied
    /// grouped by shard (input order *within* each shard group), so `f`
    /// must not depend on cross-key application order — per-key mutations
    /// in HFetch don't (each segment's update is self-contained).
    ///
    /// [`update_with_side`]: DistributedMap::update_with_side
    pub fn update_ordered_with<R>(
        &self,
        order: &[(usize, usize)],
        keys: &[K],
        mut default: impl FnMut() -> V,
        mut f: impl FnMut(usize, &mut V, &mut S) -> R,
    ) -> Vec<R> {
        let mut out: Vec<Option<R>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        self.visit_ordered(order, keys, |shard, idx| {
            let r = shard.upsert(&self.entries, keys[idx].clone(), &mut default, |v, side| {
                f(idx, v, side)
            });
            out[idx] = Some(r);
        });
        out.into_iter().map(|r| r.expect("every key visited")).collect()
    }

    /// Hands `f` the side state of every key's shard, without touching the
    /// entries: `f(index, side)` runs for each position of `order`
    /// (exactly `self.route(keys)`), one lock per shard visited.
    pub fn side_ordered(&self, order: &[(usize, usize)], keys: &[K], mut f: impl FnMut(usize, &mut S)) {
        self.visit_ordered(order, keys, |shard, idx| f(idx, &mut shard.side));
    }

    /// Applies `f` to each shard's side state in turn, under that shard's
    /// lock.
    pub fn for_each_side(&self, mut f: impl FnMut(&mut S)) {
        for shard in 0..SHARDS {
            f(&mut self.lock(shard).side);
        }
    }

    /// Number of entries across all shards. Served from the entry gauge in
    /// O(1) — no shard locks are touched, so hot-path callers don't
    /// contend with writers. The value is a consistent-ish snapshot, not a
    /// linearizable one: an in-flight insert or removal may or may not be
    /// counted yet.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// True if the map holds no entries (O(1), gauge-served like [`len`]).
    ///
    /// [`len`]: DistributedMap::len
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies `f` to every entry, shard by shard (each shard is visited
    /// under its lock).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in 0..SHARDS {
            for (k, v) in self.lock(shard).entries.iter() {
                f(k, v);
            }
        }
    }

    /// Removes entries for which `pred` returns false, returning how many
    /// were removed.
    pub fn retain(&self, mut pred: impl FnMut(&K, &mut V) -> bool) -> usize {
        let mut removed = 0;
        for shard in 0..SHARDS {
            let mut shard = self.lock(shard);
            let before = shard.entries.len();
            shard.entries.retain(|k, v| pred(k, v));
            let gone = before - shard.entries.len();
            shard.counts.removes += gone as u64;
            self.entries.fetch_sub(gone as u64, Ordering::Relaxed);
            removed += gone;
        }
        removed
    }

    /// The operation counts summed over the shards, with the live entry
    /// count. Reading them takes each shard's lock, uncounted.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot { entries: self.len() as u64, ..Default::default() };
        for shard in &self.shards {
            total.add(&shard.lock().counts);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn contents(m: &DistributedMap<u64, u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        m.for_each(|k, v| out.push((*k, *v)));
        out.sort_unstable();
        out
    }

    fn update_batch(m: &DistributedMap<u64, u64>, keys: &[u64], add: u64) -> Vec<u64> {
        m.update_ordered_with(&m.route(keys), keys, || 0, |_, v, _| {
            *v += add;
            *v
        })
    }

    #[test]
    fn update_with_inserts_default() {
        let m: DistributedMap<u64, u64> = DistributedMap::default();
        let r = m.update_with(5, || 100, |v| {
            *v += 1;
            *v
        });
        assert_eq!(r, 101);
        let r = m.update_with(5, || 100, |v| {
            *v += 1;
            *v
        });
        assert_eq!(r, 102, "default not re-applied on existing key");
        assert_eq!(m.get(&5), Some(102));
    }

    #[test]
    fn get_with_reads_in_place() {
        let m: DistributedMap<u64, Vec<u64>> = DistributedMap::default();
        assert_eq!(m.get_with(&1, |v| v.len()), None);
        m.update_with(1, || vec![10, 20, 30], |_| ());
        assert_eq!(m.get_with(&1, |v| v.iter().sum::<u64>()), Some(60));
        // Parity with `get`: a hit and a miss were recorded for get_with
        // exactly as the cloning lookup would have recorded them.
        let s = m.snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(m.get(&1), Some(vec![10, 20, 30]));
        assert_eq!(m.get(&2), None);
        let s = m.snapshot();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn update_ordered_with_matches_sequential_updates() {
        let batched: DistributedMap<u64, u64> = DistributedMap::default();
        let sequential: DistributedMap<u64, u64> = DistributedMap::default();
        let keys: Vec<u64> = vec![3, 50, 3, 17, 99, 50, 8];
        let order = batched.route(&keys);
        let got = batched.update_ordered_with(&order, &keys, || 100, |idx, v, _| {
            *v += idx as u64 + 1;
            *v
        });
        let want: Vec<u64> = keys
            .iter()
            .enumerate()
            .map(|(idx, &k)| {
                sequential.update_with(k, || 100, |v| {
                    *v += idx as u64 + 1;
                    *v
                })
            })
            .collect();
        // Duplicate keys land in the same shard group in input order, so
        // per-key results and final contents match the one-at-a-time path.
        assert_eq!(got, want);
        assert_eq!(contents(&batched), contents(&sequential));
        // Batched ops count inserts/updates exactly as single-key ops:
        // 5 distinct keys inserted, 2 updates.
        let sa = batched.snapshot();
        let sb = sequential.snapshot();
        assert_eq!((sa.inserts, sa.updates), (sb.inserts, sb.updates));
        assert_eq!((sa.inserts, sa.updates), (5, 2));
        assert!(batched.update_ordered_with(&[], &[], || 0, |_, v, _| *v).is_empty());
    }

    #[test]
    fn update_ordered_with_locks_once_per_shard_visited() {
        let m: DistributedMap<u64, u64> = DistributedMap::default();
        // All copies of one key share a shard: the batch must take exactly
        // one lock no matter how many keys ride along.
        let before = m.snapshot().shard_locks;
        update_batch(&m, &[7u64; 16], 1);
        let after = m.snapshot().shard_locks;
        assert_eq!(after - before, 1, "same-shard batch takes one lock");
        assert_eq!(m.get(&7), Some(16));

        // Mixed batch: lock count equals the number of distinct shards
        // visited, never the key count.
        let keys: Vec<u64> = (0..128).collect();
        let mut shards: Vec<usize> = keys.iter().map(|k| m.locate(k)).collect();
        shards.sort_unstable();
        shards.dedup();
        let before = m.snapshot().shard_locks;
        update_batch(&m, &keys, 1);
        let after = m.snapshot().shard_locks;
        assert_eq!(after - before, shards.len() as u64);
        assert!(shards.len() < keys.len(), "batching must beat per-key locking");
    }

    #[test]
    fn route_is_shard_sorted_and_keeps_input_order_within_a_shard() {
        let m: DistributedMap<u64, u64> = DistributedMap::default();
        let keys: Vec<u64> = (0..200).map(|k| k * 31 % 97).collect();
        let order = m.route(&keys);
        assert_eq!(order.len(), keys.len());
        for &(shard, idx) in &order {
            assert_eq!(shard, (hash_one(&keys[idx]) % SHARDS as u64) as usize);
        }
        for w in order.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn retain_filters_and_len_follows_it() {
        let m: DistributedMap<u64, u64> = DistributedMap::default();
        for k in 0..20 {
            m.update_with(k, || k, |_| ());
        }
        assert_eq!(m.len(), 20);
        let removed = m.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 10);
        assert_eq!(m.len(), 10);
        m.for_each(|_, v| assert_eq!(v % 2, 0));
        assert_eq!(m.retain(|_, _| false), 10);
        assert!(m.is_empty());
        let s = m.snapshot();
        assert_eq!((s.inserts, s.removes, s.entries), (20, 20, 0));
        m.update_with(7, || 7, |_| ());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_updates_to_one_key_are_atomic() {
        let m: DistributedMap<u64, u64> = DistributedMap::default();
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        m.update_with(0, || 0, |v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(m.get(&0), Some(threads * per_thread));
    }

    /// Threads race upserts, batched upserts, peeks and retains over
    /// overlapping keys; afterwards the O(1) gauge-served `len()` must
    /// equal an actual shard sweep.
    #[test]
    fn concurrent_upsert_retain_len_is_consistent() {
        let m: DistributedMap<u64, u64> = DistributedMap::default();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let key = (t * 977 + i * 13) % 512; // heavy key overlap
                        match i % 4 {
                            0 => {
                                m.update_with(key, || 0, |v| *v += 1);
                            }
                            1 => {
                                update_batch(m, &[key, (key + 7) % 512, key], 1);
                            }
                            2 => {
                                m.get_with(&key, |v| *v);
                            }
                            _ => {
                                m.retain(|k, _| *k != key);
                            }
                        }
                    }
                });
            }
        });
        let swept = contents(&m).len();
        assert_eq!(m.len(), swept, "gauge diverged from actual contents");
        let snap = m.snapshot();
        assert_eq!(snap.entries as usize, swept);
        assert_eq!(snap.inserts - snap.removes, snap.entries);
    }


    /// A shard's side state: the keys pushed into it.
    type Pushed = Vec<u64>;

    #[test]
    fn an_update_with_its_side_push_takes_one_shard_lock() {
        let m: DistributedMap<u64, u64, Pushed> = DistributedMap::default();
        let before = m.snapshot().shard_locks;
        let r = m.update_with_side(9, || 0, |v, side| {
            *v += 1;
            side.push(9);
            *v
        });
        assert_eq!(r, 1);
        assert_eq!(m.snapshot().shard_locks - before, 1, "statistics and side push: one lock");
        // A peek and its side push: one more.
        let seen = m.peek_with(&9, |v, side| {
            side.push(10);
            v.copied()
        });
        assert_eq!(seen, Some(1));
        assert_eq!(m.snapshot().shard_locks - before, 2);
        let s = m.snapshot();
        assert_eq!((s.inserts, s.hits, s.misses), (1, 1, 0));
        // Both pushes landed in key 9's shard, and only there.
        let mut sides = Vec::new();
        m.for_each_side(|side| sides.push(std::mem::take(side)));
        assert_eq!(m.snapshot().shard_locks - before, 2 + SHARDS as u64, "one lock per shard");
        for (shard, side) in sides.iter().enumerate() {
            let want: &[u64] = if shard == m.locate(&9) { &[9, 10] } else { &[] };
            assert_eq!(side, want, "shard {shard}");
        }
    }

    #[test]
    fn ordered_side_visits_lock_each_shard_once_and_land_in_the_key_s_shard() {
        let m: DistributedMap<u64, u64, Pushed> = DistributedMap::default();
        let keys: Vec<u64> = (0..100).collect();
        let order = m.route(&keys);
        let mut shards: Vec<usize> = keys.iter().map(|k| m.locate(k)).collect();
        shards.sort_unstable();
        shards.dedup();
        m.side_ordered(&order, &keys, |idx, side| side.push(keys[idx]));
        assert_eq!(m.snapshot().shard_locks, shards.len() as u64);
        m.update_ordered_with(&order, &keys, || 0, |idx, v, side| {
            *v += 1;
            side.push(keys[idx]);
        });
        assert_eq!(m.snapshot().shard_locks, 2 * shards.len() as u64);
        let mut by_shard: Vec<Vec<u64>> = Vec::new();
        m.for_each_side(|side| by_shard.push(std::mem::take(side)));
        for (shard, side) in by_shard.iter().enumerate() {
            assert!(side.iter().all(|k| m.locate(k) == shard), "shard {shard} holds a stranger");
        }
        assert_eq!(by_shard.iter().map(Vec::len).sum::<usize>(), 2 * keys.len());
        assert_eq!(m.len(), keys.len());
    }

    proptest! {
        /// The map agrees with a HashMap model under arbitrary op sequences.
        #[test]
        fn prop_matches_model(ops in proptest::collection::vec(
            (0u8..5, 0u64..50, 0u64..1000), 0..200)) {
            let m: DistributedMap<u64, u64> = DistributedMap::default();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(m.get(&k), model.get(&k).copied());
                    }
                    1 => {
                        prop_assert_eq!(m.get_with(&k, |x| *x), model.get(&k).copied());
                    }
                    2 => {
                        // Batched upsert, duplicate key included: results
                        // must equal applying the ops one at a time.
                        let keys = [k, (k + v) % 50, k];
                        let got = update_batch(&m, &keys, v);
                        let want: Vec<u64> = keys.iter().map(|&key| {
                            let e = model.entry(key).or_insert(0);
                            *e += v;
                            *e
                        }).collect();
                        prop_assert_eq!(got, want);
                    }
                    3 => {
                        let removed = m.retain(|key, _| *key != k);
                        prop_assert_eq!(removed, usize::from(model.remove(&k).is_some()));
                    }
                    _ => {
                        let got = m.update_with(k, || 0, |x| { *x += v; *x });
                        let e = model.entry(k).or_insert(0);
                        *e += v;
                        prop_assert_eq!(got, *e);
                    }
                }
                prop_assert_eq!(m.len(), model.len());
            }
        }
    }
}
