//! The application-centric prefetcher of Fig. 5.
//!
//! "An application-centric prefetcher's main objective is to identify how
//! each application accesses its data and make prefetching decisions
//! accordingly" (§IV-A.3). This baseline runs one classic stride detector
//! *per application*: it watches the application's recent block deltas,
//! and once a stable stride emerges it prefetches along that stride into a
//! cache shared by all applications. Because each application optimizes
//! only for itself, the shared cache suffers the paper's three pathologies:
//! pollution (one app's readahead evicts another's hot data), redundancy
//! (two apps chase the same blocks independently), and contention
//! (uncoordinated prefetch bursts on the PFS).

use std::collections::HashMap;

use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;

use crate::lru::BlockKey;
use crate::pull::{Predictor, PullCache, PullPrefetcher};

/// Stride detector state for one application.
#[derive(Debug, Default)]
struct AppDetector {
    last_block: Option<(FileId, u64)>,
    stride: i64,
    confidence: u32,
}

/// Consecutive identical strides before the detector trusts the pattern.
const CONFIDENCE_THRESHOLD: u32 = 2;

impl AppDetector {
    /// Feeds one access; returns the trusted stride, if any.
    fn observe(&mut self, file: FileId, block: u64) -> Option<i64> {
        if let Some((last_file, last_block)) = self.last_block {
            if last_file == file {
                let stride = block as i64 - last_block as i64;
                if stride == self.stride && stride != 0 {
                    self.confidence += 1;
                } else {
                    self.stride = stride;
                    self.confidence = if stride != 0 { 1 } else { 0 };
                }
            } else {
                self.confidence = 0;
                self.stride = 0;
            }
        }
        self.last_block = Some((file, block));
        (self.confidence >= CONFIDENCE_THRESHOLD).then_some(self.stride)
    }
}

/// Per-application stride prefetcher over a shared cache.
pub type AppCentricPrefetcher = PullPrefetcher<Strides>;

/// One stride detector per application.
pub struct Strides {
    depth: u64,
    detectors: HashMap<AppId, AppDetector>,
}

impl Strides {
    /// Number of applications with active detectors.
    pub fn tracked_apps(&self) -> usize {
        self.detectors.len()
    }
}

impl AppCentricPrefetcher {
    /// Prefetch `depth` blocks along the detected stride, `block` bytes
    /// each, into tier `dst`.
    pub fn new(depth: u64, block: u64, dst: TierId, max_inflight: usize) -> Self {
        assert!(depth > 0);
        let strides = Strides { depth, detectors: HashMap::new() };
        Self::from_predictor(strides, block, dst, max_inflight)
    }
}

impl Predictor for Strides {
    type Tag = ();

    fn name(&self) -> &str {
        "app-centric"
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        _process: ProcessId,
        app: AppId,
        cache: &mut PullCache<()>,
    ) {
        let block = range.offset / cache.block();
        let detector = self.detectors.entry(app).or_default();
        if let Some(stride) = detector.observe(file, block) {
            // Prefetch along the application's stride.
            let mut b = block as i64;
            for _ in 0..self.depth {
                b += stride;
                if b < 0 {
                    break;
                }
                cache.request(BlockKey { file, block: b as u64 }, ());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::policy::NoPrefetch;
    use sim::script::{RankScript, ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    #[test]
    fn detector_needs_stable_stride() {
        let mut d = AppDetector::default();
        let f = FileId(0);
        assert_eq!(d.observe(f, 0), None);
        assert_eq!(d.observe(f, 1), None, "first stride observation");
        assert_eq!(d.observe(f, 2), Some(1), "two consistent strides");
        assert_eq!(d.observe(f, 3), Some(1));
        assert_eq!(d.observe(f, 10), None, "broken stride resets");
        assert_eq!(d.observe(f, 17), Some(7), "two consistent strides re-learn");
        assert_eq!(d.observe(f, 24), Some(7));
    }

    #[test]
    fn detector_resets_on_file_switch() {
        let mut d = AppDetector::default();
        d.observe(FileId(0), 0);
        d.observe(FileId(0), 1);
        assert_eq!(d.observe(FileId(0), 2), Some(1));
        assert_eq!(d.observe(FileId(1), 3), None);
    }

    #[test]
    fn strided_workload_gets_hits() {
        // One app reading every 4th MiB: a strided pattern the detector
        // must learn and exploit.
        let h = Hierarchy::ram_only(mib(64));
        let files = vec![SimFile { id: FileId(0), size: mib(256) }];
        let mut b = ScriptBuilder::new(ProcessId(0), AppId(0)).open(FileId(0));
        for i in 0..60u64 {
            b = b.compute(Duration::from_millis(40)).read(FileId(0), i * 4 * MIB, MIB);
        }
        let scripts = vec![b.close(FileId(0)).build()];
        let p = AppCentricPrefetcher::new(4, MIB, TierId(0), 4);
        let (report, policy) =
            Simulation::new(SimConfig::new(h.clone()), files.clone(), scripts.clone(), p).run();
        let (none, _) = Simulation::new(SimConfig::new(h), files, scripts, NoPrefetch).run();
        assert_eq!(policy.predictor().tracked_apps(), 1);
        assert!(report.hit_ratio().unwrap() > 0.6, "{:?}", report.hit_ratio());
        assert!(report.seconds() < none.seconds());
    }

    #[test]
    fn irregular_pattern_defeats_the_detector() {
        let h = Hierarchy::ram_only(mib(64));
        let files = vec![SimFile { id: FileId(0), size: mib(256) }];
        // Pseudo-random offsets with no stable stride.
        let offsets = [7u64, 190, 3, 250, 101, 44, 220, 9, 133, 78, 201, 55];
        let mut b = ScriptBuilder::new(ProcessId(0), AppId(0)).open(FileId(0));
        for &o in &offsets {
            b = b.compute(Duration::from_millis(20)).read(FileId(0), o * MIB, MIB);
        }
        let scripts = vec![b.close(FileId(0)).build()];
        let p = AppCentricPrefetcher::new(4, MIB, TierId(0), 4);
        let (report, _) = Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert!(
            report.hit_ratio().unwrap() < 0.2,
            "irregular should mostly miss: {:?}",
            report.hit_ratio()
        );
    }

    #[test]
    fn multiple_apps_share_and_pollute_the_cache() {
        // Two apps stream disjoint halves of a file through a cache that
        // fits only a sliver: both detectors fire, both readaheads fight
        // for the same LRU pool.
        let h = Hierarchy::ram_only(mib(4));
        let files = vec![SimFile { id: FileId(0), size: mib(128) }];
        let scripts: Vec<RankScript> = (0..2)
            .map(|a| {
                ScriptBuilder::new(ProcessId(a), AppId(a))
                    .open(FileId(0))
                    .timestep_reads(
                        FileId(0),
                        a as u64 * mib(64),
                        MIB,
                        64,
                        Duration::from_millis(10),
                    )
                    .close(FileId(0))
                    .build()
            })
            .collect();
        let p = AppCentricPrefetcher::new(8, MIB, TierId(0), 8);
        let (report, policy) = Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert_eq!(policy.predictor().tracked_apps(), 2);
        assert!(report.evicted_bytes > 0, "contention must evict");
        assert!(report.tiers[0].peak_bytes <= mib(4));
    }
}
