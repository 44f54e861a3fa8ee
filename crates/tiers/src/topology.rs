//! Hierarchy topology: an ordered stack of tiers.
//!
//! A [`Hierarchy`] is the validated, immutable description of a deep memory
//! and storage hierarchy: tier 0 is the fastest, the last tier is the
//! backing store (PFS). The placement engine walks this order when promoting
//! and demoting segments (Algorithm 1's `tier.next`).

use crate::error::{Result, TierError};
use crate::ids::TierId;
use crate::tier::{TierKind, TierSpec};
use crate::units::gib;

/// A validated, ordered stack of tiers (fastest first, backing store last).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    tiers: Vec<TierSpec>,
}

impl Hierarchy {
    /// Builds a hierarchy from tiers ordered fastest-first.
    ///
    /// Validation rules:
    /// * at least two tiers (one cache tier + the backing store),
    /// * exactly one backing (PFS) tier, and it must be last,
    /// * latencies must be non-decreasing from tier 0 to the backing store
    ///   (the whole design premise: "a higher tier will be faster but with
    ///   limited capacity", §III-D),
    /// * every cache tier must have a finite, non-zero capacity.
    pub fn new(tiers: Vec<TierSpec>) -> Result<Self> {
        if tiers.len() < 2 {
            return Err(TierError::InvalidHierarchy(
                "need at least one cache tier and a backing tier".into(),
            ));
        }
        let backing_count = tiers.iter().filter(|t| t.is_backing()).count();
        if backing_count != 1 {
            return Err(TierError::InvalidHierarchy(format!(
                "expected exactly one backing (PFS) tier, found {backing_count}"
            )));
        }
        if !tiers.last().unwrap().is_backing() {
            return Err(TierError::InvalidHierarchy("backing tier must be last".into()));
        }
        for pair in tiers.windows(2) {
            if pair[0].latency > pair[1].latency {
                return Err(TierError::InvalidHierarchy(format!(
                    "tier '{}' is slower than the tier below it ('{}')",
                    pair[0].name, pair[1].name
                )));
            }
        }
        for t in &tiers[..tiers.len() - 1] {
            if t.capacity == 0 || t.capacity == u64::MAX {
                return Err(TierError::InvalidHierarchy(format!(
                    "cache tier '{}' must have a finite non-zero capacity",
                    t.name
                )));
            }
        }
        Ok(Self { tiers })
    }

    /// The paper's reference configuration for the hierarchical experiments
    /// (Fig. 4a): 5 GiB RAM + 15 GiB NVMe + 20 GiB burst buffers over PFS.
    pub fn ares_reference() -> Self {
        Self::new(vec![
            TierSpec::ram(gib(5)),
            TierSpec::nvme(gib(15)),
            TierSpec::burst_buffer(gib(20)),
            TierSpec::pfs(),
        ])
        .expect("reference hierarchy is valid")
    }

    /// A custom three-cache-tier hierarchy over PFS with the given byte
    /// budgets (RAM, NVMe, burst buffer). Used by the figure harnesses,
    /// which vary the budgets per experiment.
    pub fn with_budgets(ram: u64, nvme: u64, bb: u64) -> Self {
        Self::new(vec![
            TierSpec::ram(ram),
            TierSpec::nvme(nvme),
            TierSpec::burst_buffer(bb),
            TierSpec::pfs(),
        ])
        .expect("budgeted hierarchy is valid")
    }

    /// A single-cache-tier hierarchy (RAM over PFS) — what the paper's
    /// non-hierarchical baselines (serial/parallel/in-memory prefetchers)
    /// operate on.
    pub fn ram_only(ram: u64) -> Self {
        Self::new(vec![TierSpec::ram(ram), TierSpec::pfs()]).expect("ram-only hierarchy is valid")
    }

    /// A RAM-over-NVMe-over-PFS hierarchy (no burst buffers) — the Fig. 5
    /// configuration ("one application's load in RAM and one in NVMe").
    pub fn ram_nvme(ram: u64, nvme: u64) -> Self {
        Self::new(vec![TierSpec::ram(ram), TierSpec::nvme(nvme), TierSpec::pfs()])
            .expect("ram+nvme hierarchy is valid")
    }

    /// Number of tiers, including the backing store.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Always false: a hierarchy has at least two tiers.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of cache tiers (everything above the backing store).
    pub fn cache_tiers(&self) -> usize {
        self.tiers.len() - 1
    }

    /// The spec of tier `id`.
    pub fn spec(&self, id: TierId) -> Result<&TierSpec> {
        self.tiers.get(id.index()).ok_or(TierError::UnknownTier(id))
    }

    /// The tier id of the backing store (always the last tier).
    pub fn backing(&self) -> TierId {
        TierId((self.tiers.len() - 1) as u16)
    }

    /// Iterator over `(TierId, &TierSpec)` fastest-first.
    pub fn iter(&self) -> impl Iterator<Item = (TierId, &TierSpec)> {
        self.tiers.iter().enumerate().map(|(i, t)| (TierId(i as u16), t))
    }

    /// Iterator over the cache tiers only (excludes the backing store).
    pub fn iter_cache(&self) -> impl Iterator<Item = (TierId, &TierSpec)> {
        self.iter().filter(|(_, t)| !t.is_backing())
    }

    /// Find the first tier of a given kind, if present.
    pub fn find_kind(&self, kind: TierKind) -> Option<TierId> {
        self.iter().find(|(_, t)| t.kind == kind).map(|(id, _)| id)
    }

    /// Multi-line description of the hierarchy for reports.
    pub fn describe(&self) -> String {
        self.iter().map(|(id, t)| t.summary(id)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reference_hierarchy_shape() {
        let h = Hierarchy::ares_reference();
        assert_eq!(h.len(), 4);
        assert_eq!(h.cache_tiers(), 3);
        assert_eq!(h.backing(), TierId(3));
        assert_eq!(h.find_kind(TierKind::Nvme), Some(TierId(1)));
        assert_eq!(h.find_kind(TierKind::Other), None);
    }

    #[test]
    fn rejects_missing_backing() {
        let err = Hierarchy::new(vec![TierSpec::ram(gib(1)), TierSpec::nvme(gib(1))]);
        assert!(matches!(err, Err(TierError::InvalidHierarchy(_))));
    }

    #[test]
    fn rejects_backing_not_last() {
        let err = Hierarchy::new(vec![TierSpec::pfs(), TierSpec::ram(gib(1))]);
        assert!(matches!(err, Err(TierError::InvalidHierarchy(_))));
    }

    #[test]
    fn rejects_out_of_order_latency() {
        let mut slow_ram = TierSpec::ram(gib(1));
        slow_ram.latency = Duration::from_millis(10);
        let err = Hierarchy::new(vec![slow_ram, TierSpec::nvme(gib(1)), TierSpec::pfs()]);
        assert!(matches!(err, Err(TierError::InvalidHierarchy(_))));
    }

    #[test]
    fn rejects_single_tier() {
        let err = Hierarchy::new(vec![TierSpec::pfs()]);
        assert!(matches!(err, Err(TierError::InvalidHierarchy(_))));
    }

    #[test]
    fn rejects_unbounded_cache_tier() {
        let mut ram = TierSpec::ram(gib(1));
        ram.capacity = u64::MAX;
        let err = Hierarchy::new(vec![ram, TierSpec::pfs()]);
        assert!(matches!(err, Err(TierError::InvalidHierarchy(_))));
    }

    #[test]
    fn unknown_tier_spec_errors() {
        let h = Hierarchy::ram_only(gib(1));
        assert!(matches!(h.spec(TierId(9)), Err(TierError::UnknownTier(TierId(9)))));
        assert!(h.spec(TierId(0)).is_ok());
    }

    #[test]
    fn describe_lists_all_tiers() {
        let text = Hierarchy::ares_reference().describe();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("pfs"));
    }
}
