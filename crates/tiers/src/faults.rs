//! Deterministic fault injection for the storage substrate.
//!
//! A [`FaultPlan`] is a seeded schedule of failures: per-operation
//! transient/permanent I/O faults, per-tier offline windows, per-tier
//! bandwidth slowdowns, and event drop/delay decisions. Every random
//! decision is drawn from a [`rand::rngs::StdRng`] seeded once from
//! [`FaultConfig::seed`] and consumed in call order, so the same plan
//! replayed against the same deterministic consumer (the discrete-event
//! simulator, a scripted mover test) produces byte-identical outcomes —
//! faults are *reproducible*, which is what makes degraded modes testable.
//!
//! Production tiered-storage managers treat tier unavailability and
//! degraded bandwidth as first-class states (OctopusFS; two-tier
//! performance models diverge most under degradation). HFetch's paper
//! assumes tiers are always up; this module supplies the machinery the
//! rest of the workspace uses to *not* assume that.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bytes::Bytes;

use crate::backend::StorageBackend;
use crate::error::{Result, TierError};
use crate::ids::{FileId, TierId};
use crate::mover::RetryPolicy;
use crate::range::ByteRange;
use crate::time::Timestamp;

/// A half-open window `[from, until)` during which `tier` is offline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfflineWindow {
    /// The affected tier.
    pub tier: TierId,
    /// First instant the tier is unreachable.
    pub from: Timestamp,
    /// First instant the tier is reachable again.
    pub until: Timestamp,
}

impl OfflineWindow {
    /// True if `now` falls inside the window.
    pub fn contains(&self, now: Timestamp) -> bool {
        self.from <= now && now < self.until
    }
}

/// Declarative description of the faults to inject.
///
/// `FaultConfig::default()` injects nothing: all probabilities are zero
/// and no windows are scheduled, so a simulation configured with a
/// default plan behaves identically to one with no plan at all (the plan
/// draws no random numbers for zero-probability decisions).
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Probability a data-movement operation fails transiently (retryable).
    pub transient_op_p: f64,
    /// Probability a data-movement operation fails permanently.
    pub permanent_op_p: f64,
    /// Tier offline windows.
    pub offline: Vec<OfflineWindow>,
    /// Per-tier bandwidth slowdown factors (`>= 1.0` divides bandwidth).
    pub slowdowns: Vec<(TierId, f64)>,
    /// Probability a telemetry event is dropped before policy delivery.
    pub event_drop_p: f64,
    /// Probability a telemetry event is delayed before policy delivery.
    pub event_delay_p: f64,
    /// Delivery delay applied to delayed events.
    pub event_delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_op_p: 0.0,
            permanent_op_p: 0.0,
            offline: Vec::new(),
            slowdowns: Vec::new(),
            event_drop_p: 0.0,
            event_delay_p: 0.0,
            event_delay: Duration::from_millis(50),
        }
    }
}

impl FaultConfig {
    /// A no-fault config with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Sets the transient failure probability (builder style).
    pub fn transient(mut self, p: f64) -> Self {
        self.transient_op_p = p;
        self
    }

    /// Sets the permanent failure probability (builder style).
    pub fn permanent(mut self, p: f64) -> Self {
        self.permanent_op_p = p;
        self
    }

    /// Adds an offline window (builder style).
    pub fn offline_window(mut self, tier: TierId, from: Timestamp, until: Timestamp) -> Self {
        self.offline.push(OfflineWindow { tier, from, until });
        self
    }

    /// Adds a bandwidth slowdown (builder style).
    pub fn slow_tier(mut self, tier: TierId, factor: f64) -> Self {
        self.slowdowns.push((tier, factor));
        self
    }

    /// Sets event drop/delay probabilities (builder style).
    pub fn event_faults(mut self, drop_p: f64, delay_p: f64, delay: Duration) -> Self {
        self.event_drop_p = drop_p;
        self.event_delay_p = delay_p;
        self.event_delay = delay;
        self
    }

    /// Validates probabilities, factors, and windows.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (name, p) in [
            ("transient_op_p", self.transient_op_p),
            ("permanent_op_p", self.permanent_op_p),
            ("event_drop_p", self.event_drop_p),
            ("event_delay_p", self.event_delay_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} outside [0, 1]"));
            }
        }
        if self.transient_op_p + self.permanent_op_p > 1.0 {
            return Err("transient_op_p + permanent_op_p > 1".into());
        }
        if self.event_drop_p + self.event_delay_p > 1.0 {
            return Err("event_drop_p + event_delay_p > 1".into());
        }
        for &(tier, factor) in &self.slowdowns {
            if factor < 1.0 || !factor.is_finite() {
                return Err(format!("slowdown factor {factor} for {tier} must be >= 1"));
            }
        }
        for w in &self.offline {
            if w.until <= w.from {
                return Err(format!("empty offline window for {}", w.tier));
            }
        }
        Ok(())
    }

    /// True if this config can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.transient_op_p == 0.0
            && self.permanent_op_p == 0.0
            && self.event_drop_p == 0.0
            && self.event_delay_p == 0.0
            && self.offline.is_empty()
            && self.slowdowns.is_empty()
    }
}

/// Outcome of one per-operation fault roll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpFault {
    /// The operation proceeds normally.
    None,
    /// The operation fails; a retry may succeed.
    Transient,
    /// The operation fails; retrying is pointless.
    Permanent,
}

/// Outcome of one per-event fault roll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventFault {
    /// Deliver the event normally.
    Deliver,
    /// Drop the event (the consumer never sees it).
    Drop,
    /// Deliver the event after the given delay.
    Delay(Duration),
}

/// How one data-movement operation ended under the plan's retry schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetriedOp {
    /// Transient failures retried.
    pub retries: u32,
    /// Backoff accumulated across those retries (accounted, never slept).
    pub backoff: Duration,
    /// True if a permanent failure or an exhausted retry budget gave up.
    pub abandoned: bool,
}

/// Counters describing what a plan has injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected (op faults + event drops/delays).
    pub injected: u64,
    /// Transient op faults injected.
    pub transient: u64,
    /// Permanent op faults injected.
    pub permanent: u64,
    /// Events dropped.
    pub events_dropped: u64,
    /// Events delayed.
    pub events_delayed: u64,
}

/// A live, seeded fault schedule. Decisions are drawn in call order from
/// one deterministic stream; consumers that call in a deterministic order
/// (the single-threaded simulator event loop) therefore replay exactly.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultPlan {
    /// Builds a plan from a validated config.
    ///
    /// # Panics
    /// If the config fails [`FaultConfig::validate`].
    pub fn new(cfg: FaultConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fault config: {e}");
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self { cfg, rng, stats: FaultStats::default() }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True if `tier` is reachable at `now` (no offline window covers it).
    pub fn tier_online(&self, tier: TierId, now: Timestamp) -> bool {
        !self.cfg.offline.iter().any(|w| w.tier == tier && w.contains(now))
    }

    /// The bandwidth slowdown factor for `tier` (1.0 = full speed).
    pub fn slowdown(&self, tier: TierId) -> f64 {
        self.cfg
            .slowdowns
            .iter()
            .find(|(t, _)| *t == tier)
            .map_or(1.0, |&(_, f)| f)
    }

    /// Rolls one data-movement operation to its end: transient failures
    /// retry on [`RetryPolicy::default`], the schedule the real server's
    /// I/O clients use, until its budget runs out; a permanent failure
    /// gives up at once. The backoff is accounted, never slept.
    pub fn roll_op_with_retry(&mut self) -> RetriedOp {
        let retry = RetryPolicy::default();
        let mut op = RetriedOp::default();
        loop {
            match self.roll_op() {
                OpFault::None => return op,
                OpFault::Transient if op.retries < retry.max_retries => {
                    op.backoff += retry.backoff(op.retries);
                    op.retries += 1;
                }
                OpFault::Transient | OpFault::Permanent => {
                    op.abandoned = true;
                    return op;
                }
            }
        }
    }

    /// Rolls the fate of one data-movement operation. Zero-probability
    /// configs consume no randomness, so an inert plan leaves the stream —
    /// and therefore every downstream decision — untouched.
    pub fn roll_op(&mut self) -> OpFault {
        let (pt, pp) = (self.cfg.transient_op_p, self.cfg.permanent_op_p);
        if pt == 0.0 && pp == 0.0 {
            return OpFault::None;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < pp {
            self.stats.injected += 1;
            self.stats.permanent += 1;
            OpFault::Permanent
        } else if u < pp + pt {
            self.stats.injected += 1;
            self.stats.transient += 1;
            OpFault::Transient
        } else {
            OpFault::None
        }
    }

    /// Rolls the fate of one telemetry event.
    pub fn roll_event(&mut self) -> EventFault {
        let (pd, pl) = (self.cfg.event_drop_p, self.cfg.event_delay_p);
        if pd == 0.0 && pl == 0.0 {
            return EventFault::Deliver;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < pd {
            self.stats.injected += 1;
            self.stats.events_dropped += 1;
            EventFault::Drop
        } else if u < pd + pl {
            self.stats.injected += 1;
            self.stats.events_delayed += 1;
            EventFault::Delay(self.cfg.event_delay)
        } else {
            EventFault::Deliver
        }
    }
}

/// A [`StorageBackend`] decorator that injects faults on reads and writes.
///
/// Used by mover/server tests (and available to real deployments) to
/// exercise graceful-degradation paths: transient faults surface as
/// [`TierError::TransientIo`], permanent ones as [`TierError::Io`], and an
/// offline switch turns every data operation into
/// [`TierError::TierOffline`]. Metadata queries (residency, usage) are
/// never faulted — they are served from bookkeeping, not the device.
pub struct FlakyBackend {
    inner: Arc<dyn StorageBackend>,
    tier: TierId,
    plan: Mutex<FaultPlan>,
    offline: std::sync::atomic::AtomicBool,
}

impl FlakyBackend {
    /// Wraps `inner`, injecting faults per `plan`. `tier` labels offline
    /// errors.
    pub fn new(inner: Arc<dyn StorageBackend>, tier: TierId, plan: FaultPlan) -> Self {
        Self { inner, tier, plan: Mutex::new(plan), offline: false.into() }
    }

    /// Flips the offline switch.
    pub fn set_offline(&self, offline: bool) {
        self.offline.store(offline, std::sync::atomic::Ordering::SeqCst);
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.plan.lock().stats()
    }

    fn gate(&self, op: &'static str) -> Result<()> {
        if !self.online() {
            return Err(TierError::TierOffline(self.tier));
        }
        match self.plan.lock().roll_op() {
            OpFault::None => Ok(()),
            OpFault::Transient => Err(TierError::TransientIo { op }),
            OpFault::Permanent => {
                Err(TierError::Io(std::io::Error::other(format!("injected permanent {op} fault"))))
            }
        }
    }
}

impl StorageBackend for FlakyBackend {
    fn write(&self, file: FileId, offset: u64, data: Bytes) -> Result<()> {
        self.gate("write")?;
        self.inner.write(file, offset, data)
    }

    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes> {
        self.gate("read")?;
        self.inner.read(file, range)
    }

    fn evict(&self, file: FileId, range: ByteRange) -> Result<u64> {
        self.gate("evict")?;
        self.inner.evict(file, range)
    }

    fn delete(&self, file: FileId) -> Result<u64> {
        self.gate("delete")?;
        self.inner.delete(file)
    }

    fn resident(&self, file: FileId, range: ByteRange) -> bool {
        self.inner.resident(file, range)
    }

    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.inner.covered_bytes(file, range)
    }

    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
        self.inner.covered_ranges(file, range)
    }

    fn resident_bytes(&self, file: FileId) -> u64 {
        self.inner.resident_bytes(file)
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }

    fn online(&self) -> bool {
        !self.offline.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    #[test]
    fn offline_windows_are_half_open() {
        let plan = FaultPlan::new(FaultConfig::with_seed(1).offline_window(
            TierId(0),
            Timestamp::from_secs(1),
            Timestamp::from_secs(2),
        ));
        assert!(plan.tier_online(TierId(0), Timestamp::ZERO));
        assert!(!plan.tier_online(TierId(0), Timestamp::from_secs(1)));
        assert!(!plan.tier_online(TierId(0), Timestamp::from_millis(1999)));
        assert!(plan.tier_online(TierId(0), Timestamp::from_secs(2)));
        assert!(plan.tier_online(TierId(1), Timestamp::from_millis(1500)), "other tiers up");
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = FaultConfig::with_seed(42).transient(0.3).permanent(0.05);
        let mut a = FaultPlan::new(cfg.clone());
        let mut b = FaultPlan::new(cfg);
        let fa: Vec<OpFault> = (0..1000).map(|_| a.roll_op()).collect();
        let fb: Vec<OpFault> = (0..1000).map(|_| b.roll_op()).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().transient > 0, "30% over 1000 rolls must fire");
        assert!(a.stats().permanent > 0);
        assert_eq!(a.stats().injected, a.stats().transient + a.stats().permanent);
    }

    #[test]
    fn inert_plan_consumes_no_randomness() {
        let mut plan = FaultPlan::new(FaultConfig::with_seed(7));
        for _ in 0..100 {
            assert_eq!(plan.roll_op(), OpFault::None);
            assert_eq!(plan.roll_event(), EventFault::Deliver);
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn event_rolls_drop_and_delay_at_configured_rates() {
        let delay = Duration::from_millis(5);
        let mut plan = FaultPlan::new(
            FaultConfig::with_seed(3).event_faults(0.2, 0.2, delay),
        );
        let mut dropped = 0;
        let mut delayed = 0;
        for _ in 0..2000 {
            match plan.roll_event() {
                EventFault::Drop => dropped += 1,
                EventFault::Delay(d) => {
                    assert_eq!(d, delay);
                    delayed += 1;
                }
                EventFault::Deliver => {}
            }
        }
        // 20% each over 2000 rolls: allow a generous band.
        assert!((200..600).contains(&dropped), "dropped {dropped}");
        assert!((200..600).contains(&delayed), "delayed {delayed}");
        assert_eq!(plan.stats().events_dropped, dropped);
        assert_eq!(plan.stats().events_delayed, delayed);
    }

    #[test]
    fn slowdown_defaults_to_unity() {
        let plan = FaultPlan::new(FaultConfig::with_seed(0).slow_tier(TierId(2), 4.0));
        assert_eq!(plan.slowdown(TierId(2)), 4.0);
        assert_eq!(plan.slowdown(TierId(0)), 1.0);
    }

    #[test]
    fn retried_ops_spend_the_budget_then_give_up() {
        let retry = RetryPolicy::default();
        let mut always = FaultPlan::new(FaultConfig::with_seed(0).transient(1.0));
        let op = always.roll_op_with_retry();
        assert_eq!(op.retries, retry.max_retries);
        assert_eq!(op.backoff, (0..retry.max_retries).map(|a| retry.backoff(a)).sum());
        assert!(op.abandoned);
        assert_eq!(always.stats().transient, u64::from(retry.max_retries) + 1);
        let mut never = FaultPlan::new(FaultConfig::with_seed(0).permanent(1.0));
        assert_eq!(
            never.roll_op_with_retry(),
            RetriedOp { retries: 0, backoff: Duration::ZERO, abandoned: true }
        );
        let mut inert = FaultPlan::new(FaultConfig::with_seed(0));
        assert_eq!(inert.roll_op_with_retry(), RetriedOp::default());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(FaultConfig::with_seed(0).transient(1.5).validate().is_err());
        assert!(FaultConfig::with_seed(0).transient(0.7).permanent(0.7).validate().is_err());
        assert!(FaultConfig::with_seed(0).slow_tier(TierId(0), 0.5).validate().is_err());
        assert!(FaultConfig::with_seed(0)
            .offline_window(TierId(0), Timestamp::from_secs(2), Timestamp::from_secs(1))
            .validate()
            .is_err());
        assert!(FaultConfig::with_seed(0)
            .event_faults(0.6, 0.6, Duration::ZERO)
            .validate()
            .is_err());
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig::default().is_inert());
        assert!(!FaultConfig::with_seed(0).transient(0.1).is_inert());
    }

    #[test]
    fn flaky_backend_injects_and_recovers() {
        let f = FileId(1);
        let inner = Arc::new(MemoryBackend::new());
        inner.write(f, 0, vec![7u8; 64].into()).unwrap();
        let flaky = FlakyBackend::new(
            inner,
            TierId(0),
            FaultPlan::new(FaultConfig::with_seed(11).transient(0.5)),
        );
        let mut transient = 0;
        let mut ok = 0;
        for _ in 0..100 {
            match flaky.read(f, ByteRange::new(0, 64)) {
                Ok(data) => {
                    assert_eq!(data.len(), 64);
                    ok += 1;
                }
                Err(TierError::TransientIo { .. }) => transient += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > 10, "some reads succeed: {ok}");
        assert!(transient > 10, "some reads fail: {transient}");
        assert_eq!(flaky.stats().transient, transient);
        // Metadata is never faulted.
        assert!(flaky.resident(f, ByteRange::new(0, 64)));
        assert_eq!(flaky.resident_bytes(f), 64);
    }

    #[test]
    fn flaky_backend_offline_switch() {
        let f = FileId(2);
        let inner = Arc::new(MemoryBackend::new());
        inner.write(f, 0, vec![1u8; 8].into()).unwrap();
        let flaky =
            FlakyBackend::new(inner, TierId(3), FaultPlan::new(FaultConfig::with_seed(0)));
        flaky.set_offline(true);
        assert!(matches!(
            flaky.read(f, ByteRange::new(0, 8)),
            Err(TierError::TierOffline(TierId(3)))
        ));
        assert!(matches!(flaky.write(f, 0, vec![2u8; 4].into()), Err(TierError::TierOffline(_))));
        flaky.set_offline(false);
        assert_eq!(flaky.read(f, ByteRange::new(0, 8)).unwrap().len(), 8);
    }
}
