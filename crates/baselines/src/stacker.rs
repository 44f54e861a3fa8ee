//! A Stacker-like online prefetcher.
//!
//! Stacker \[26\] is "an autonomic data movement engine for extreme-scale
//! data staging-based in-situ workflows": an *online* approach that
//! "avoids pre-processing steps and builds its models as it goes" but
//! "demonstrated a lower hit ratio due to some cache conflicts and
//! unwanted data evictions" (§IV-B). This reproduction captures those
//! published properties with a first-order Markov model over block
//! transitions:
//!
//! * every observed `prev → next` block transition increments a count,
//! * once a transition has been seen at least [`StackerLike::MIN_SUPPORT`]
//!   times (the warm-up), the most frequent successors of the current
//!   block are prefetched,
//! * the cache is a single shared LRU pool in RAM (per the paper's setup:
//!   "configured to fetch data from burst buffers to the application's
//!   memory").

use std::collections::HashMap;

use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;

use crate::lru::BlockKey;
use crate::pull::{Predictor, PullCache, PullPrefetcher};

/// Online Markov-model prefetcher (Stacker-like).
pub type StackerLike = PullPrefetcher<Markov>;

/// First-order Markov model over block transitions.
pub struct Markov {
    fanout: usize,
    /// Transition counts: block → (successor → count).
    model: HashMap<BlockKey, HashMap<BlockKey, u32>>,
    last_by_process: HashMap<ProcessId, BlockKey>,
    predictions: u64,
}

impl StackerLike {
    /// Transitions must be seen this often before they drive prefetching
    /// (the model's warm-up period).
    pub const MIN_SUPPORT: u32 = 2;

    /// Prefetch the top-`fanout` predicted successors of each accessed
    /// block (`block` bytes each) into tier `dst`.
    pub fn new(block: u64, dst: TierId, fanout: usize, max_inflight: usize) -> Self {
        Self::from_predictor(Markov::new(fanout), block, dst, max_inflight)
    }
}

impl Markov {
    fn new(fanout: usize) -> Self {
        assert!(fanout > 0);
        Self { fanout, model: HashMap::new(), last_by_process: HashMap::new(), predictions: 0 }
    }

    /// How many predictions the model has issued.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Number of learned transitions.
    pub fn model_size(&self) -> usize {
        self.model.values().map(|m| m.len()).sum()
    }

    fn predict(&self, from: BlockKey) -> Vec<BlockKey> {
        let Some(successors) = self.model.get(&from) else { return Vec::new() };
        let mut ranked: Vec<(&BlockKey, &u32)> =
            successors.iter().filter(|(_, c)| **c >= StackerLike::MIN_SUPPORT).collect();
        ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        ranked.into_iter().take(self.fanout).map(|(k, _)| *k).collect()
    }
}

impl Predictor for Markov {
    type Tag = ();

    fn name(&self) -> &str {
        "stacker"
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        _app: AppId,
        cache: &mut PullCache<()>,
    ) {
        let key = BlockKey { file, block: range.offset / cache.block() };
        // Learn the transition from this process's previous access.
        if let Some(prev) = self.last_by_process.insert(process, key) {
            if prev != key {
                *self.model.entry(prev).or_default().entry(key).or_insert(0) += 1;
            }
        }
        // Predict and enqueue.
        for predicted in self.predict(key) {
            self.predictions += 1;
            cache.request(predicted, ());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::script::{ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    #[test]
    fn model_learns_transitions_after_warmup() {
        let mut s = Markov::new(2);
        let a = BlockKey { file: FileId(0), block: 0 };
        let b = BlockKey { file: FileId(0), block: 5 };
        assert!(s.predict(a).is_empty());
        s.model.entry(a).or_default().insert(b, 1);
        assert!(s.predict(a).is_empty(), "below MIN_SUPPORT");
        s.model.entry(a).or_default().insert(b, 2);
        assert_eq!(s.predict(a), vec![b]);
    }

    #[test]
    fn fanout_ranks_by_count() {
        let mut s = Markov::new(2);
        let a = BlockKey { file: FileId(0), block: 0 };
        for (blk, count) in [(1u64, 5u32), (2, 9), (3, 2), (4, 7)] {
            s.model.entry(a).or_default().insert(BlockKey { file: FileId(0), block: blk }, count);
        }
        let predicted = s.predict(a);
        assert_eq!(predicted.len(), 2);
        assert_eq!(predicted[0].block, 2, "count 9 first");
        assert_eq!(predicted[1].block, 4, "count 7 second");
    }

    #[test]
    fn repetitive_workload_improves_after_warmup() {
        // A process cycles the same 8 blocks many times; after a couple of
        // laps the model predicts the cycle and hits climb.
        let h = Hierarchy::ram_only(mib(32));
        let files = vec![SimFile { id: FileId(0), size: mib(64) }];
        let mut builder = ScriptBuilder::new(ProcessId(0), AppId(0)).open(FileId(0));
        for _lap in 0..6 {
            for blk in [0u64, 8, 16, 24, 32, 40, 48, 56] {
                builder = builder
                    .compute(Duration::from_millis(30))
                    .read(FileId(0), blk * MIB, MIB);
            }
        }
        let scripts = vec![builder.close(FileId(0)).build()];
        let p = StackerLike::new(MIB, TierId(0), 2, 4);
        let (report, policy) =
            Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert!(policy.predictor().model_size() >= 7, "learned the cycle: {}", policy.predictor().model_size());
        assert!(policy.predictor().predictions() > 0);
        // 6 laps of 8 reads; warm-up costs the first ~2 laps.
        assert!(
            report.hit_ratio().unwrap() > 0.4,
            "post-warmup hits: {:?}",
            report.hit_ratio()
        );
    }

    #[test]
    fn cold_start_has_no_predictions() {
        let h = Hierarchy::ram_only(mib(32));
        let files = vec![SimFile { id: FileId(0), size: mib(64) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .timestep_reads(FileId(0), 0, MIB, 16, Duration::from_millis(10))
            .close(FileId(0))
            .build()];
        let p = StackerLike::new(MIB, TierId(0), 2, 4);
        let (report, policy) =
            Simulation::new(SimConfig::new(h), files, scripts, p).run();
        // A single sequential pass never repeats a transition: the model
        // stays silent and everything misses.
        assert_eq!(policy.predictor().predictions(), 0);
        assert_eq!(report.hit_ratio(), Some(0.0));
    }
}
