//! Thread-safe capacity accounting for the cache tiers.
//!
//! The placement engine must never oversubscribe a tier: "If segment cannot
//! fit in this tier … DemoteSegments" (Algorithm 1, line 3). The
//! [`CapacityLedger`] is the single source of truth for how many bytes each
//! tier currently holds; reservations are atomic check-and-reserve so
//! concurrent I/O clients cannot jointly exceed a tier's budget.

use parking_lot::Mutex;

use crate::error::{Result, TierError};
use crate::ids::TierId;
use crate::topology::Hierarchy;

#[derive(Debug, Default, Clone, Copy)]
struct TierUsage {
    used: u64,
    capacity: u64,
    peak: u64,
}

/// Tracks per-tier byte usage against the hierarchy's budgets.
#[derive(Debug)]
pub struct CapacityLedger {
    tiers: Mutex<Vec<TierUsage>>,
}

impl CapacityLedger {
    /// Creates a ledger sized for `hierarchy`, all tiers empty.
    pub fn new(hierarchy: &Hierarchy) -> Self {
        let tiers = hierarchy
            .iter()
            .map(|(_, spec)| TierUsage { used: 0, capacity: spec.capacity, peak: 0 })
            .collect();
        Self { tiers: Mutex::new(tiers) }
    }

    /// Atomically reserves `bytes` on `tier`. Fails with
    /// [`TierError::CapacityExceeded`] if the tier cannot hold them, leaving
    /// usage unchanged.
    pub fn reserve(&self, tier: TierId, bytes: u64) -> Result<()> {
        let mut tiers = self.tiers.lock();
        let usage = tiers.get_mut(tier.index()).ok_or(TierError::UnknownTier(tier))?;
        let available = usage.capacity.saturating_sub(usage.used);
        if bytes > available {
            return Err(TierError::CapacityExceeded { tier, requested: bytes, available });
        }
        usage.used += bytes;
        usage.peak = usage.peak.max(usage.used);
        Ok(())
    }

    /// Releases up to `bytes` on `tier`, clamping at the current usage.
    /// Returns the bytes actually released. Used on reconciliation paths
    /// (invalidation, cancelled moves) where exact double-entry accounting
    /// cannot be guaranteed.
    pub fn release_clamped(&self, tier: TierId, bytes: u64) -> u64 {
        let mut tiers = self.tiers.lock();
        let Some(usage) = tiers.get_mut(tier.index()) else { return 0 };
        let released = bytes.min(usage.used);
        usage.used -= released;
        released
    }

    /// Releases `bytes` previously reserved on `tier`.
    pub fn release(&self, tier: TierId, bytes: u64) -> Result<()> {
        let mut tiers = self.tiers.lock();
        let usage = tiers.get_mut(tier.index()).ok_or(TierError::UnknownTier(tier))?;
        if bytes > usage.used {
            return Err(TierError::ReleaseUnderflow { tier, requested: bytes, in_use: usage.used });
        }
        usage.used -= bytes;
        Ok(())
    }

    /// Bytes currently in use on `tier`.
    pub fn used(&self, tier: TierId) -> u64 {
        self.tiers.lock().get(tier.index()).map_or(0, |u| u.used)
    }

    /// Bytes still available on `tier`.
    pub fn available(&self, tier: TierId) -> u64 {
        self.tiers.lock().get(tier.index()).map_or(0, |u| u.capacity.saturating_sub(u.used))
    }

    /// High-water mark of usage on `tier` since creation.
    pub fn peak(&self, tier: TierId) -> u64 {
        self.tiers.lock().get(tier.index()).map_or(0, |u| u.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gib;
    use std::sync::Arc;

    fn ledger() -> CapacityLedger {
        CapacityLedger::new(&Hierarchy::with_budgets(gib(1), gib(2), gib(4)))
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let l = ledger();
        l.reserve(TierId(0), 100).unwrap();
        assert_eq!(l.used(TierId(0)), 100);
        assert_eq!(l.available(TierId(0)), gib(1) - 100);
        l.release(TierId(0), 100).unwrap();
        assert_eq!(l.used(TierId(0)), 0);
        assert_eq!(l.peak(TierId(0)), 100);
    }

    #[test]
    fn over_reservation_fails_and_leaves_state() {
        let l = ledger();
        l.reserve(TierId(0), gib(1)).unwrap();
        let err = l.reserve(TierId(0), 1).unwrap_err();
        assert!(matches!(err, TierError::CapacityExceeded { available: 0, .. }));
        assert_eq!(l.used(TierId(0)), gib(1));
    }

    #[test]
    fn release_underflow_detected() {
        let l = ledger();
        l.reserve(TierId(1), 10).unwrap();
        let err = l.release(TierId(1), 11).unwrap_err();
        assert!(matches!(err, TierError::ReleaseUnderflow { in_use: 10, .. }));
    }

    #[test]
    fn unknown_tier_rejected() {
        let l = ledger();
        assert!(matches!(l.reserve(TierId(9), 1), Err(TierError::UnknownTier(_))));
        assert!(matches!(l.release(TierId(9), 1), Err(TierError::UnknownTier(_))));
    }

    #[test]
    fn concurrent_reservations_never_oversubscribe() {
        let l = Arc::new(CapacityLedger::new(&Hierarchy::with_budgets(10_000, 1, 1)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                let mut granted = 0u64;
                for _ in 0..1000 {
                    if l.reserve(TierId(0), 7).is_ok() {
                        granted += 7;
                    }
                }
                granted
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, l.used(TierId(0)));
        assert!(l.used(TierId(0)) <= 10_000);
        // 8 threads * 1000 * 7 = 56000 requested; exactly floor(10000/7)*7 granted.
        assert_eq!(l.used(TierId(0)), (10_000 / 7) * 7);
    }
}
