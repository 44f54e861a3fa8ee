//! The prefetch-policy interface to the simulator.
//!
//! HFetch *and* every baseline it is evaluated against (§IV) implement
//! [`PrefetchPolicy`]. The simulator calls the policy on every
//! system-generated event (open/read/write/close — the enriched inotify
//! feed of §III-B) and on periodic ticks; the policy reacts by issuing
//! fetches, promotions, demotions, and evictions through
//! [`crate::engine::SimCtl`]. The simulator charges every byte the policy
//! moves to the same queueing devices the application reads use — policies
//! that move data carelessly *interfere with themselves*, exactly as the
//! paper observes for over-reactive engines (Fig. 3b) and naive in-memory
//! prefetchers (Fig. 4b).

use std::time::Duration;

use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;

use crate::engine::SimCtl;

/// A completed data movement, reported back to the issuing policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferDone {
    /// File moved.
    pub file: FileId,
    /// Range moved.
    pub range: ByteRange,
    /// Where the bytes came from.
    pub src: TierId,
    /// Where they now reside.
    pub dst: TierId,
    /// When the movement was issued.
    pub issued: Timestamp,
}

/// Prefetching decision logic plugged into the simulator.
///
/// All methods default to no-ops so trivial policies stay trivial.
///
/// # Degraded modes under fault injection
///
/// When the simulation carries a [`tiers::faults::FaultConfig`], callbacks
/// may be dropped or arrive late (the application op they describe has
/// already been served), and [`SimCtl::fetch`] may re-route to a different
/// destination (`rerouted_to`) or abandon bytes (`abandoned`) instead of
/// scheduling them. Policies that mirror placement in their own model
/// should reconcile it from the returned
/// [`crate::engine::FetchOutcome`] and consult [`SimCtl::tier_online`]
/// before planning placements onto a tier.
#[allow(unused_variables)]
pub trait PrefetchPolicy {
    /// Short name for reports (e.g. `"hfetch"`, `"knowac"`).
    fn name(&self) -> &str;

    /// A rank opened `file` with read intent.
    fn on_open(
        &mut self,
        file: FileId,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
    }

    /// A rank issued a read. Called *before* the read is served, so a
    /// policy may react — but any fetch it issues competes with this very
    /// read for device time (there is no free lunch, by design).
    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
    }

    /// A rank wrote `range`. The simulator has already invalidated
    /// overlapping cached data (consistency, §III-A.1) before this call.
    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
    }

    /// A rank closed `file`.
    fn on_close(
        &mut self,
        file: FileId,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
    }

    /// Periodic trigger, scheduled every [`PrefetchPolicy::tick_interval`].
    fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {}

    /// How often [`PrefetchPolicy::on_tick`] should fire; `None` disables
    /// ticks.
    fn tick_interval(&self) -> Option<Duration> {
        None
    }

    /// A transfer this policy issued has completed; the bytes are now
    /// resident on `done.dst`.
    fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, ctl: &mut SimCtl<'_>) {}

    /// The run is over: every rank finished and the event calendar drained.
    /// For end-of-run exporting (e.g. flushing internal telemetry into the
    /// policy's own recorder) — fetches issued here are never executed,
    /// and mutating simulator state would taint the report.
    fn on_finish(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {}
}

impl PrefetchPolicy for Box<dyn PrefetchPolicy> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_open(
        &mut self,
        file: FileId,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        (**self).on_open(file, process, app, now, ctl)
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        (**self).on_read(file, range, process, app, now, ctl)
    }

    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        (**self).on_write(file, range, process, app, now, ctl)
    }

    fn on_close(
        &mut self,
        file: FileId,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        (**self).on_close(file, process, app, now, ctl)
    }

    fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        (**self).on_tick(now, ctl)
    }

    fn tick_interval(&self) -> Option<Duration> {
        (**self).tick_interval()
    }

    fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, ctl: &mut SimCtl<'_>) {
        (**self).on_transfer_done(done, now, ctl)
    }

    fn on_finish(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        (**self).on_finish(now, ctl)
    }
}

/// The paper's "No Prefetching" baseline: every read goes to the PFS.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPrefetch;

impl PrefetchPolicy for NoPrefetch {
    fn name(&self) -> &str {
        "none"
    }
}
