//! Simulation results: the numbers the paper's figures plot.

use std::time::Duration;

use tiers::ids::TierId;
use tiers::time::Timestamp;
use tiers::units::fmt_bytes;

/// Fault-injection and graceful-degradation accounting.
///
/// All counters stay zero on fault-free runs; a degraded run is readable
/// directly from the report (EXPERIMENTS.md "Chaos runs"). Because every
/// fault decision comes from the seeded [`tiers::faults::FaultPlan`]
/// consumed in deterministic event order, these counters are byte-identical
/// across repeated runs with the same seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected: op failures + dropped/delayed events. Read from
    /// [`tiers::faults::FaultPlan::stats`] when the run ends.
    pub injected: u64,
    /// Transfer retry attempts after transient failures.
    pub retried: u64,
    /// Operations re-routed around an offline tier (fetch destinations
    /// redirected down the hierarchy, reads/sources redirected to backing).
    pub rerouted: u64,
    /// Transfers abandoned (permanent fault, or retry budget exhausted).
    pub abandoned: u64,
}

impl FaultCounters {
    /// True if any counter is nonzero.
    pub fn any(&self) -> bool {
        self.injected + self.retried + self.rerouted + self.abandoned > 0
    }
}

/// Per-tier accounting.
#[derive(Debug, Clone, Default)]
pub struct TierReport {
    /// Bytes of application reads served by this tier.
    pub read_bytes: u64,
    /// Application read requests (sub-reads) served by this tier.
    pub read_ops: u64,
    /// Bytes moved *into* this tier by prefetching.
    pub prefetched_bytes: u64,
    /// Device busy time (reads + prefetch traffic).
    pub busy: Duration,
    /// Peak bytes held (residency + in-flight reservations).
    pub peak_bytes: u64,
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Policy name that produced this run.
    pub policy: String,
    /// Time of the last rank's completion (end-to-end execution time).
    pub makespan: Duration,
    /// Per-rank completion times.
    pub rank_finish: Vec<Timestamp>,
    /// Per-tier accounting, indexed by `TierId`.
    pub tiers: Vec<TierReport>,
    /// Index of the backing tier within `tiers`.
    pub backing: usize,
    /// Total bytes requested by application reads.
    pub bytes_requested: u64,
    /// Application read requests issued.
    pub read_requests: u64,
    /// Sum over reads of (completion − issue), i.e. total time ranks spent
    /// blocked on reads.
    pub read_time: Duration,
    /// Distribution of per-read blocked time, in nanoseconds (the same
    /// samples as the `sim.read.latency_ns` histogram).
    pub read_latency: obs::Histogram,
    /// Bytes moved by prefetching (fetches + promotions + demotions).
    pub prefetch_bytes: u64,
    /// Bytes a policy asked to fetch that were denied (no capacity).
    pub denied_bytes: u64,
    /// Bytes dropped from cache tiers by policy evictions.
    pub evicted_bytes: u64,
    /// Bytes invalidated by writes.
    pub invalidated_bytes: u64,
    /// Events delivered to the policy (open/read/write/close).
    pub events_delivered: u64,
    /// Fault-injection accounting (all zero on fault-free runs).
    pub faults: FaultCounters,
}

impl SimReport {
    /// Bytes served from cache tiers (everything not from backing).
    pub fn hit_bytes(&self) -> u64 {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.backing)
            .map(|(_, t)| t.read_bytes)
            .sum()
    }

    /// Bytes served from the backing store.
    pub fn miss_bytes(&self) -> u64 {
        self.tiers.get(self.backing).map_or(0, |t| t.read_bytes)
    }

    /// Byte hit ratio in `[0, 1]`; `None` if nothing was read.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hit_bytes() + self.miss_bytes();
        (total > 0).then(|| self.hit_bytes() as f64 / total as f64)
    }

    /// Mean time a read spent blocked.
    pub fn avg_read_time(&self) -> Duration {
        if self.read_requests == 0 {
            return Duration::ZERO;
        }
        self.read_time / self.read_requests as u32
    }

    /// Bytes served by tier `t`.
    pub fn tier_read_bytes(&self, t: TierId) -> u64 {
        self.tiers.get(t.index()).map_or(0, |r| r.read_bytes)
    }

    /// End-to-end seconds (convenience for tables).
    pub fn seconds(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// One-line summary: policy, makespan, hit ratio. Fault counters are
    /// appended only when something was injected, so fault-free summaries
    /// are unchanged.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:<12} time={:>9.3}s hit={:>5.1}% read={} prefetch={} denied={} evicted={}",
            self.policy,
            self.makespan.as_secs_f64(),
            self.hit_ratio().unwrap_or(0.0) * 100.0,
            fmt_bytes(self.bytes_requested),
            fmt_bytes(self.prefetch_bytes),
            fmt_bytes(self.denied_bytes),
            fmt_bytes(self.evicted_bytes),
        );
        if self.faults.any() {
            s.push_str(&format!(
                " faults[injected={} retried={} rerouted={} abandoned={}]",
                self.faults.injected,
                self.faults.retried,
                self.faults.rerouted,
                self.faults.abandoned,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            policy: "test".into(),
            backing: 2,
            tiers: vec![
                TierReport { read_bytes: 60, ..Default::default() },
                TierReport { read_bytes: 20, ..Default::default() },
                TierReport { read_bytes: 20, ..Default::default() },
            ],
            bytes_requested: 100,
            read_requests: 4,
            read_time: Duration::from_secs(2),
            makespan: Duration::from_secs(10),
            ..Default::default()
        }
    }

    #[test]
    fn hit_accounting() {
        let r = report();
        assert_eq!(r.hit_bytes(), 80);
        assert_eq!(r.miss_bytes(), 20);
        assert!((r.hit_ratio().unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(r.tier_read_bytes(TierId(0)), 60);
        assert_eq!(r.tier_read_bytes(TierId(9)), 0);
    }

    #[test]
    fn empty_report_has_no_ratio() {
        let r = SimReport::default();
        assert_eq!(r.hit_ratio(), None);
        assert_eq!(r.avg_read_time(), Duration::ZERO);
    }

    #[test]
    fn averages_and_summary() {
        let r = report();
        assert_eq!(r.avg_read_time(), Duration::from_millis(500));
        assert_eq!(r.seconds(), 10.0);
        let s = r.summary();
        assert!(s.contains("test"));
        assert!(s.contains("80.0%"));
        assert!(!s.contains("faults"), "fault-free summaries stay unchanged");
    }

    #[test]
    fn fault_counters_surface_in_summary() {
        let mut r = report();
        assert!(!r.faults.any());
        r.faults = FaultCounters { injected: 7, retried: 3, rerouted: 2, abandoned: 1 };
        assert!(r.faults.any());
        let s = r.summary();
        assert!(s.contains("injected=7"), "{s}");
        assert!(s.contains("retried=3"));
        assert!(s.contains("rerouted=2"));
        assert!(s.contains("abandoned=1"));
    }
}
