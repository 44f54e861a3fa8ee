//! The discrete-event loop.
//!
//! [`Simulation`] executes rank scripts over a tier hierarchy, calling the
//! plugged-in [`PrefetchPolicy`] on every system-generated event. Events
//! are dispatched in `(time, sequence)` order from a binary-heap calendar,
//! so runs are fully deterministic: same scripts + same policy state ⇒
//! bit-identical reports.
//!
//! Cost model (see DESIGN.md §3): every application read and every
//! policy-issued transfer occupies channels of the involved tier devices;
//! prefetch traffic therefore *delays* application reads on the same tier
//! and vice versa — the interference at the heart of the paper's Fig. 3(b)
//! and Fig. 4(b) results.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use dht::FxHashMap;
use tiers::capacity::CapacityLedger;
use tiers::faults::{EventFault, FaultConfig, FaultPlan, RetriedOp};
use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::interval::IntervalSet;
use tiers::range::ByteRange;
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

use crate::device::Device;
use crate::effect::{EffectState, ReadServing};
use crate::policy::{PrefetchPolicy, TransferDone};
use crate::report::{SimReport, TierReport};
use crate::residency::{ReadPlan, ResidencyMap};
use crate::script::{Op, RankScript, SimFile};

/// Fixed simulated cost of an open or a close call.
const OPEN_CLOSE_COST: Duration = Duration::from_micros(1);

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The tier hierarchy (fastest first, backing last).
    pub hierarchy: Hierarchy,
    /// Number of compute nodes: local (non-remote) tiers get their channel
    /// count multiplied by this, modeling per-node replication of DRAM and
    /// NVMe devices. Remote tiers (burst buffers, PFS) are shared and
    /// unscaled.
    pub nodes: u32,
    /// Optional seeded fault-injection configuration. `None` (the default)
    /// runs fault-free; an *inert* config (all probabilities zero, no
    /// windows) consumes no randomness and produces byte-identical reports
    /// to `None`.
    pub faults: Option<FaultConfig>,
    /// Observability sink. Disabled by default: every recording site costs
    /// one not-taken branch and the produced [`SimReport`] is byte-identical
    /// either way (pinned by the obs-on/off equivalence test and the
    /// `sim_kernel` ablation). All recorded timestamps are simulated time.
    pub obs: obs::Recorder,
}

impl SimConfig {
    /// Single-node configuration over `hierarchy`.
    pub fn new(hierarchy: Hierarchy) -> Self {
        Self {
            hierarchy,
            nodes: 1,
            faults: None,
            obs: obs::Recorder::default(),
        }
    }

    /// Attaches an observability recorder (builder style). Pass a clone of
    /// the same recorder to the policy side (e.g. `HFetchConfig.obs`) to get
    /// one merged per-run trace.
    pub fn with_obs(mut self, obs: obs::Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the node count (builder style).
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        assert!(nodes > 0, "need at least one node");
        self.nodes = nodes;
        self
    }

    /// Installs a fault-injection plan (builder style). Panics on an
    /// invalid config. Offline windows naming the backing tier are
    /// ignored: the backing store is the canonical copy and there is
    /// nowhere else to route its traffic.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        if let Err(e) = faults.validate() {
            panic!("invalid fault config: {e}");
        }
        self.faults = Some(faults);
        self
    }
}

/// What happened to a fetch request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Bytes scheduled for movement.
    pub scheduled: u64,
    /// Bytes skipped because they were already resident on the destination.
    pub already_resident: u64,
    /// Bytes skipped because an earlier transfer already has them in
    /// flight.
    pub in_flight: u64,
    /// Bytes denied because the destination tier lacked capacity.
    pub denied: u64,
    /// Number of individual transfers scheduled (a fetch may split across
    /// holders and gaps).
    pub transfers: u32,
    /// Completion time of the last scheduled transfer (if any).
    pub finish: Option<Timestamp>,
    /// Bytes whose transfers were abandoned by fault injection (permanent
    /// failure, exhausted retry budget, or no online destination). Their
    /// reservations were rolled back; callers should treat them like
    /// denials and reconcile their placement model.
    pub abandoned: u64,
    /// Set when the requested destination tier was offline and the fetch
    /// was re-routed to the next online cache tier below it.
    pub rerouted_to: Option<TierId>,
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    file: FileId,
    range: ByteRange,
    src: TierId,
    dst: TierId,
    issued: Timestamp,
    finish: Timestamp,
    /// For moves out of a cache tier, the source's capacity was released
    /// at issue time (the placement plan already considers the move done;
    /// holding both reservations would deadlock planned swaps).
    src_released: bool,
    /// Set when a write invalidated the range while in flight: on
    /// completion the transfer releases its reservation instead of landing
    /// stale data.
    cancelled: bool,
    /// Causal span covering this transfer's in-flight life (NONE when
    /// observability is off). Its `root` links the transfer back to the
    /// lifecycle tree of the policy decision that issued it.
    span: obs::SpanCtx,
}

/// A demand fetch a read carries, accepted by [`SimCtl::land_read`] while
/// the read's own notification is delivered and issued once the read is
/// served (the notification runs first). Its range lies inside the read
/// and was neither cached nor in flight, so the read takes every byte of it
/// from the backing store. Its destination is already reserved and its
/// fault roll already made.
#[derive(Debug, Clone, Copy)]
struct ReadFill {
    file: FileId,
    range: ByteRange,
    dst: TierId,
    backoff: Duration,
    parent: obs::SpanCtx,
}

/// A degraded-mode fact, booked by [`SimCore::book_fault`].
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// An offline fetch destination was re-routed down to this tier.
    Rerouted(TierId),
    /// An offline fetch source was replaced by the backing store on a
    /// transfer to this tier.
    SrcRerouted(TierId),
    /// Bytes held by this offline tier were read from the backing store.
    Degraded(TierId),
    /// A transfer to this tier retried this many transient failures.
    Retried(TierId, u32),
    /// A fetch or transfer to this tier was abandoned.
    Abandoned(TierId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Execute rank's next op.
    RankReady(u32),
    /// A policy-issued transfer completed.
    TransferFinished(u32),
    /// Periodic policy trigger.
    Tick,
    /// A fault-delayed policy notification (index into
    /// `Simulation::notifies`).
    Notify(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    time: Timestamp,
    seq: u64,
    kind: EventKind,
}

/// Mutable simulator state shared with policies during callbacks.
///
/// Per-event state lives in Fx-hashed maps (integer keys, hot lookups) or
/// dense vectors indexed by transfer id; the scratch buffers at the bottom
/// make steady-state read serving allocation-free.
pub struct SimCore {
    config: SimConfig,
    devices: Vec<Device>,
    /// Seeded fault plan (`None` on fault-free runs). Consumed in event
    /// order on the single simulation thread, so identical seeds replay
    /// identical fault sequences.
    faults: Option<FaultPlan>,
    residency: ResidencyMap,
    ledger: CapacityLedger,
    file_sizes: FxHashMap<FileId, u64>,
    cache_order: Vec<TierId>,
    backing: TierId,
    now: Timestamp,
    transfers: Vec<Transfer>,
    /// Ids of still-in-flight transfers per file: the one in-flight index.
    /// Reads can wait on them (a request overlapping an in-flight prefetch
    /// blocks until the transfer lands rather than re-reading from the
    /// backing store) and fetches skip their bytes. A file's in-flight
    /// ranges are disjoint: a fetch schedules only bytes not yet in flight.
    active_by_file: FxHashMap<FileId, Vec<u32>>,
    /// Events created during callbacks, drained by the event loop.
    spawned: Vec<(Timestamp, EventKind)>,
    /// The read whose notification is being delivered, while it is: only
    /// fills inside it are accepted (a fault-delayed notification arrives
    /// with none).
    notified_read: Option<(FileId, ByteRange)>,
    /// Read fills accepted by `notified_read`'s notification, issued when
    /// that read is served.
    read_fills: Vec<ReadFill>,
    report: SimReport,
    /// Reusable read-plan buffer (see [`ReadPlan`]).
    scratch_plan: ReadPlan,
    /// Reusable miss-accounting set for `serve_read`.
    scratch_miss: IntervalSet,
    /// Reusable in-flight transfer id list for `serve_read`.
    scratch_ids: Vec<u32>,
    /// Prefetch-effectiveness shadow state. `Some` exactly when the run's
    /// recorder is enabled; observation-only (see [`crate::effect`]), so a
    /// `None` here costs nothing and changes nothing.
    effect: Option<Box<EffectState>>,
}

impl SimCore {
    fn new(config: SimConfig, files: &[SimFile]) -> Self {
        let hierarchy = &config.hierarchy;
        let mut devices: Vec<Device> = hierarchy
            .iter()
            .map(|(_, spec)| {
                let scale = if spec.remote { 1 } else { config.nodes };
                Device::from_spec(spec, scale)
            })
            .collect();
        let faults = config.faults.clone().map(FaultPlan::new);
        if let Some(plan) = &faults {
            // Bandwidth slowdowns apply for the whole run: degrade the
            // device models up front.
            for (i, dev) in devices.iter_mut().enumerate() {
                let factor = plan.slowdown(TierId(i as u16));
                if factor > 1.0 {
                    dev.slow_by(factor);
                }
            }
        }
        let cache_order: Vec<TierId> = hierarchy.iter_cache().map(|(id, _)| id).collect();
        let backing = hierarchy.backing();
        let ledger = CapacityLedger::new(hierarchy);
        let report = SimReport {
            tiers: vec![TierReport::default(); hierarchy.len()],
            backing: backing.index(),
            ..Default::default()
        };
        let effect = config.obs.is_enabled().then(Box::<EffectState>::default);
        Self {
            config,
            devices,
            faults,
            residency: ResidencyMap::new(),
            ledger,
            file_sizes: files.iter().map(|f| (f.id, f.size)).collect(),
            cache_order,
            backing,
            now: Timestamp::ZERO,
            transfers: Vec::new(),
            active_by_file: FxHashMap::default(),
            spawned: Vec::new(),
            notified_read: None,
            read_fills: Vec::new(),
            report,
            scratch_plan: ReadPlan::new(),
            scratch_miss: IntervalSet::new(),
            scratch_ids: Vec::new(),
            effect,
        }
    }

    /// Clamps `range` to the file's size.
    fn clamp(&self, file: FileId, range: ByteRange) -> ByteRange {
        let size = self.file_sizes.get(&file).copied().unwrap_or(0);
        if range.offset >= size {
            return ByteRange::new(range.offset, 0);
        }
        ByteRange::from_bounds(range.offset, range.end().min(size))
    }

    /// True unless a fault-plan offline window covers `tier` right now.
    /// The backing tier is always online: it holds the canonical copy and
    /// there is nowhere else to route its traffic.
    fn tier_online(&self, tier: TierId) -> bool {
        if tier == self.backing {
            return true;
        }
        match &self.faults {
            Some(plan) => plan.tier_online(tier, self.now),
            None => true,
        }
    }

    /// Rolls the event-fault die (always `Deliver` on fault-free runs).
    /// The plan counts what it injects; the recorder counts drops/delays.
    fn roll_event(&mut self) -> EventFault {
        let Some(plan) = &mut self.faults else { return EventFault::Deliver };
        let fault = plan.roll_event();
        let key = match fault {
            EventFault::Deliver => return fault,
            EventFault::Drop => "sim.notify.dropped",
            EventFault::Delay(_) => "sim.notify.delayed",
        };
        self.config.obs.counter_inc(key, obs::Label::None);
        fault
    }

    /// Books one degraded-mode fact: its `SimReport.faults` counter, its
    /// `sim.*` counter (labeled with the tier) and, for fetch-side facts
    /// with a causal parent, its span instant at `(file, offset)`.
    fn book_fault(&mut self, fault: Fault, parent: obs::SpanCtx, file: FileId, offset: u64) {
        let faults = &mut self.report.faults;
        let (key, tier, n, instant) = match fault {
            Fault::Rerouted(t) => {
                faults.rerouted += 1;
                ("sim.fetch.rerouted", t, 1, Some("reroute"))
            }
            Fault::SrcRerouted(t) => {
                faults.rerouted += 1;
                ("sim.fetch.src_rerouted", t, 1, None)
            }
            Fault::Degraded(t) => {
                faults.rerouted += 1;
                ("sim.read.degraded", t, 1, None)
            }
            Fault::Retried(t, n) => {
                faults.retried += u64::from(n);
                ("sim.fetch.retries", t, u64::from(n), Some("retry"))
            }
            Fault::Abandoned(t) => {
                faults.abandoned += 1;
                ("sim.fetch.abandoned", t, 1, Some("abandon"))
            }
        };
        self.config.obs.counter_add(key, obs::Label::tier(tier.0), n);
        if let Some(name) = instant {
            self.config.obs.span_instant(name, parent, self.now.as_nanos(), file.0, offset);
        }
    }

    /// Serves `bytes` of an application read from `tier`, starting no
    /// earlier than `after`, and books them to the tier. Returns when the
    /// bytes are read.
    #[inline]
    fn read_from(&mut self, tier: TierId, after: Timestamp, bytes: u64) -> Timestamp {
        let (_start, finish) = self.devices[tier.index()].schedule_after(self.now, after, bytes);
        let tr = &mut self.report.tiers[tier.index()];
        tr.read_bytes += bytes;
        tr.read_ops += 1;
        finish
    }

    /// Serves an application read, returning its completion time.
    ///
    /// Resident ranges are read from their cache tier; ranges overlapping
    /// an *in-flight* prefetch wait for that transfer and then read from
    /// its destination tier (hit-on-inflight — how real prefetchers
    /// overlap application reads with outstanding fetches); everything
    /// else comes from the backing store.
    fn serve_read(&mut self, file: FileId, range: ByteRange) -> Timestamp {
        let range = self.clamp(file, range);
        self.report.read_requests += 1;
        // Effectiveness shadow state is taken out of `self` for the duration
        // of the call (restored by `read_done` on every return path) so its
        // methods can borrow the recorder without fighting the field borrows
        // below. `serving` accumulates what each byte was served from.
        let mut effect = self.effect.take();
        let mut serving = ReadServing::default();
        if range.is_empty() {
            return self.read_done(effect, serving, file, range, self.now, self.now);
        }
        self.report.bytes_requested += range.len;
        // Fast path: nothing cached and nothing in flight for this file, so
        // the whole read is a backing-store miss. Skips plan construction
        // entirely — the dominant case under no/weak prefetching.
        if !self.active_by_file.contains_key(&file)
            && !self.residency.file_resident_on_any(file, &self.cache_order)
        {
            let finish = self.read_from(self.backing, self.now, range.len);
            self.config.obs.counter_inc("sim.read.backing_miss", obs::Label::None);
            serving.miss_bytes = range.len;
            return self.read_done(effect, serving, file, range, finish, finish);
        }
        let mut plan = std::mem::take(&mut self.scratch_plan);
        self.residency.plan_read_into(file, range, &self.cache_order, self.backing, &mut plan);
        let mut finish = self.now;
        // When the read's backing-store bytes arrive.
        let mut arrival = self.now;
        for (tier, sub_ranges, bytes) in plan.entries() {
            let (tier, bytes) = (*tier, *bytes);
            if tier != self.backing {
                if self.tier_online(tier) {
                    finish = finish.max(self.read_from(tier, self.now, bytes));
                    if let Some(eff) = effect.as_deref_mut() {
                        // Plan entries come fastest tier first: the first
                        // cache hit names the read's primary serving tier.
                        if serving.fastest_hit_tier.is_none() {
                            serving.fastest_hit_tier = Some(tier);
                        }
                        eff.mark_used(file, sub_ranges, tier, &mut serving, &self.config.obs);
                    }
                } else {
                    // Degraded read: the holding cache tier is offline, but
                    // the backing store remains canonical — serve the bytes
                    // from there instead of failing the application.
                    finish = finish.max(self.read_from(self.backing, self.now, bytes));
                    self.book_fault(Fault::Degraded(tier), obs::SpanCtx::NONE, file, range.offset);
                    serving.miss_bytes += bytes;
                }
                continue;
            }
            // Split the would-be-backing portion into in-flight waits and
            // true misses.
            let mut miss = std::mem::take(&mut self.scratch_miss);
            miss.clear();
            for r in sub_ranges {
                miss.insert(*r);
            }
            let mut ids = std::mem::take(&mut self.scratch_ids);
            ids.clear();
            if let Some(active) = self.active_by_file.get(&file) {
                ids.extend_from_slice(active);
            }
            for &id in &ids {
                let t = self.transfers[id as usize];
                if t.cancelled {
                    continue; // a write made its bytes stale: they never land
                }
                for r in sub_ranges {
                    let Some(overlap) = t.range.intersection(*r) else { continue };
                    if !miss.intersects(overlap) {
                        continue;
                    }
                    // Two options: wait for the in-flight prefetch and read
                    // from its destination, or go straight to the backing
                    // store. Pick whichever completes earlier — an
                    // application never waits on a prefetch that is slower
                    // than a plain miss.
                    let bytes = overlap.len;
                    let est_wait = self.devices[t.dst.index()]
                        .earliest_start(self.now)
                        .max(t.finish)
                        .after(self.devices[t.dst.index()].service_time(bytes));
                    let est_miss = self.devices[self.backing.index()]
                        .earliest_start(self.now)
                        .after(self.devices[self.backing.index()].service_time(bytes));
                    if self.tier_online(t.dst) && est_wait <= est_miss {
                        let claimed = miss.remove(overlap);
                        if claimed == 0 {
                            continue;
                        }
                        finish = finish.max(self.read_from(t.dst, t.finish, claimed));
                        if let Some(eff) = effect.as_deref_mut() {
                            // A late hit: the prefetch was issued but the
                            // application caught up with it in flight.
                            serving.late_bytes += claimed;
                            serving.late_tier = Some(t.dst);
                            let lateness = t.finish.since(self.now).as_nanos() as u64;
                            serving.max_lateness_ns = serving.max_lateness_ns.max(lateness);
                            serving.note_root(t.span.root);
                            eff.waited[id as usize] = true;
                        }
                    }
                    // Otherwise leave the bytes in `miss`: they are served
                    // from backing below.
                }
            }
            let miss_bytes = miss.total();
            if miss_bytes > 0 {
                arrival = self.read_from(self.backing, self.now, miss_bytes);
                finish = finish.max(arrival);
                serving.miss_bytes += miss_bytes;
            }
            self.scratch_miss = miss;
            self.scratch_ids = ids;
        }
        self.scratch_plan = plan;
        self.read_done(effect, serving, file, range, finish, arrival)
    }

    /// Books a finished application read, on every `serve_read` return
    /// path: its blocked time (the `SimReport` total and histogram and the
    /// `sim.read.latency_ns` histogram, for non-empty reads), its
    /// effectiveness class, and its `app_read` span (parented under the
    /// lifecycle tree of the prefetch that served it, when there was one).
    /// Puts the effectiveness state back, then issues the read fills its
    /// notification accepted, departing at `arrival` (when the read's
    /// backing-store bytes arrive), and returns `finish` unchanged.
    #[inline]
    fn read_done(
        &mut self,
        mut effect: Option<Box<EffectState>>,
        serving: ReadServing,
        file: FileId,
        range: ByteRange,
        finish: Timestamp,
        arrival: Timestamp,
    ) -> Timestamp {
        if !range.is_empty() {
            let latency = finish.since(self.now);
            let latency_ns = latency.as_nanos() as u64;
            self.report.read_time += latency;
            self.report.read_latency.record(latency_ns);
            self.config.obs.observe("sim.read.latency_ns", obs::Label::None, latency_ns);
        }
        if let Some(eff) = effect.as_deref_mut() {
            let parent_root = eff.classify_read(file, &serving, self.backing, &self.config.obs);
            let parent = obs::SpanCtx { id: parent_root, root: parent_root };
            let ctx = self.config.obs.span_start(
                "app_read",
                parent,
                self.now.as_nanos(),
                file.0,
                range.offset,
            );
            self.config.obs.span_end(ctx, finish.as_nanos());
        }
        self.effect = effect;
        if !self.read_fills.is_empty() {
            self.issue_read_fills(arrival);
        }
        finish
    }

    /// Serves an application write: occupies the backing device and
    /// invalidates overlapping cached/prefetched data.
    fn serve_write(&mut self, file: FileId, range: ByteRange) -> Timestamp {
        // Writes extend the file.
        let size = self.file_sizes.entry(file).or_insert(0);
        *size = (*size).max(range.end());
        let (_s, finish) = self.devices[self.backing.index()].schedule(self.now, range.len);
        for (tier, removed) in self.residency.invalidate(file, range) {
            // Clamped: bytes of an in-flight move had their source
            // accounting pre-released.
            self.ledger.release_clamped(tier, removed);
            self.report.invalidated_bytes += removed;
        }
        if let Some(eff) = self.effect.as_deref_mut() {
            eff.on_invalidate(file, range, &self.config.obs);
        }
        // In-flight prefetches overlapping the write would land stale
        // data: cancel them (they release their reservation on
        // completion instead of becoming resident).
        if let Some(ids) = self.active_by_file.get(&file) {
            for &id in ids {
                let t = &mut self.transfers[id as usize];
                t.cancelled |= t.range.overlaps(range);
            }
        }
        finish
    }

    fn complete_transfer(&mut self, id: u32) -> Transfer {
        let t = self.transfers[id as usize];
        let now_ns = self.now.as_nanos();
        if t.cancelled {
            // A write invalidated this transfer mid-flight: drop the
            // reservation, never mark the (stale) bytes resident.
            self.ledger.release_clamped(t.dst, t.range.len);
            self.report.invalidated_bytes += t.range.len;
            if t.src_released {
                // The source's bytes never left; restore their accounting
                // for whatever the write's invalidation left resident.
                let still = self
                    .residency
                    .covered_on(t.file, t.range, t.src)
                    .iter()
                    .map(|r| r.len)
                    .sum();
                let _ = self.ledger.reserve(t.src, still);
            }
            self.retire(t.file, id);
            // The transfer span still closes: a cancelled prefetch is part
            // of its lifecycle tree, it just never lands.
            self.config.obs.span_end(t.span, now_ns);
            return t;
        }
        // Exclusive cache: bytes leave every other cache tier (the source,
        // for promotions/demotions) as they land on the destination.
        // Indexed loop: holding a borrow of `cache_order` (or cloning it,
        // as this used to) is not worth it on the per-transfer path.
        for i in 0..self.cache_order.len() {
            let tier = self.cache_order[i];
            if tier != t.dst {
                let removed = self.residency.remove(t.file, t.range, tier);
                if removed > 0 && !(t.src_released && tier == t.src) {
                    // Pre-released move sources were already accounted.
                    self.ledger.release_clamped(tier, removed);
                }
            }
        }
        self.residency.add(t.file, t.range, t.dst);
        self.retire(t.file, id);
        if let Some(mut eff) = self.effect.take() {
            self.config.obs.span_instant("landing", t.span, now_ns, t.file.0, t.range.offset);
            let waited = eff.waited.get(id as usize).copied().unwrap_or(false);
            eff.on_land(
                t.file,
                t.range,
                t.src,
                t.dst,
                self.backing,
                t.span.root,
                waited,
                &self.config.obs,
            );
            self.effect = Some(eff);
        }
        self.config.obs.span_end(t.span, now_ns);
        t
    }

    /// Drops a finished transfer from the in-flight index.
    fn retire(&mut self, file: FileId, id: u32) {
        if let Some(ids) = self.active_by_file.get_mut(&file) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.active_by_file.remove(&file);
            }
        }
        self.record_peaks();
    }

    /// Issues one store-and-forward transfer of `range` from `src` to
    /// `dst`, departing after `backoff` of retry delay: the source channel
    /// is busy for its own service time, then the destination channel for
    /// its own, so a slow source cannot monopolize fast-destination
    /// channels (and vice versa). Books the `sim.fetch.*` lifecycle metrics
    /// and calendars the landing. Returns the landing time.
    fn issue_transfer(
        &mut self,
        file: FileId,
        range: ByteRange,
        src: TierId,
        dst: TierId,
        backoff: Duration,
        parent: obs::SpanCtx,
    ) -> Timestamp {
        let depart = self.now.after(backoff);
        let (s1, f1) = self.devices[src.index()].schedule_after(self.now, depart, range.len);
        let (_s2, finish) = self.devices[dst.index()].schedule_after(self.now, f1, range.len);
        if self.config.obs.is_enabled() {
            // Fetch lifecycle, all in simulated nanoseconds: queue wait at
            // the source device, then the store-and-forward transfer
            // through to landing.
            let rec = &self.config.obs;
            let pair = obs::Label::tier_pair(src.0, dst.0);
            let src_label = obs::Label::tier(src.0);
            rec.span("sim.fetch.queue_wait_ns", src_label, depart.as_nanos(), s1.as_nanos());
            rec.span("sim.fetch.transfer_ns", pair, s1.as_nanos(), finish.as_nanos());
            rec.counter_add("sim.fetch.bytes", pair, range.len);
            rec.counter_inc("sim.fetch.transfers", pair);
        }
        self.push_transfer(file, range, src, dst, finish, parent)
    }

    /// Issues the read fills accepted by the notification of the read just
    /// served, whose backing-store bytes arrive at `arrival`. The read took
    /// every byte of each fill from the backing store, so a fill pays only
    /// the destination leg, departing once the bytes arrive and its retry
    /// backoff has passed.
    fn issue_read_fills(&mut self, arrival: Timestamp) {
        for fill in std::mem::take(&mut self.read_fills) {
            let ready = arrival.max(self.now.after(fill.backoff));
            let dst = fill.dst;
            let (_s, finish) =
                self.devices[dst.index()].schedule_after(self.now, ready, fill.range.len);
            let pair = obs::Label::tier_pair(self.backing.0, dst.0);
            self.config.obs.counter_add("sim.fetch.read_fill_bytes", pair, fill.range.len);
            self.push_transfer(fill.file, fill.range, self.backing, dst, finish, fill.parent);
        }
    }

    /// Books a scheduled transfer landing at `finish`: its `transfer` span,
    /// its in-flight entry, its calendar event and the prefetched bytes.
    /// Returns `finish`.
    fn push_transfer(
        &mut self,
        file: FileId,
        range: ByteRange,
        src: TierId,
        dst: TierId,
        finish: Timestamp,
        parent: obs::SpanCtx,
    ) -> Timestamp {
        let now_ns = self.now.as_nanos();
        let span = self.config.obs.span_start("transfer", parent, now_ns, file.0, range.offset);
        let id = self.transfers.len() as u32;
        self.transfers.push(Transfer {
            file,
            range,
            src,
            dst,
            issued: self.now,
            finish,
            // Moves out of a cache tier released the source at issue.
            src_released: src != self.backing,
            cancelled: false,
            span,
        });
        if let Some(eff) = self.effect.as_deref_mut() {
            eff.waited.push(false);
        }
        self.active_by_file.entry(file).or_default().push(id);
        self.spawned.push((finish, EventKind::TransferFinished(id)));
        self.report.prefetch_bytes += range.len;
        self.report.tiers[dst.index()].prefetched_bytes += range.len;
        finish
    }

    fn record_peaks(&mut self) {
        for (i, tr) in self.report.tiers.iter_mut().enumerate() {
            tr.peak_bytes = tr.peak_bytes.max(self.ledger.used(TierId(i as u16)));
        }
    }

    fn finalize_report(&mut self, policy_name: &str, rank_finish: Vec<Timestamp>) -> SimReport {
        if let Some(mut eff) = self.effect.take() {
            eff.finalize(&self.config.obs);
        }
        let makespan = rank_finish
            .iter()
            .copied()
            .max()
            .unwrap_or(Timestamp::ZERO)
            .since(Timestamp::ZERO);
        for (i, tr) in self.report.tiers.iter_mut().enumerate() {
            tr.busy = self.devices[i].busy_time();
            tr.peak_bytes = tr.peak_bytes.max(self.ledger.peak(TierId(i as u16)));
        }
        let mut report = std::mem::take(&mut self.report);
        report.faults.injected = self.faults.as_ref().map_or(0, |plan| plan.stats().injected);
        report.policy = policy_name.to_string();
        report.makespan = makespan;
        report.rank_finish = rank_finish;
        report
    }
}

/// The policy-facing control surface: queries about the hierarchy and
/// residency, plus the fetch/discard verbs. Wraps the simulator core so
/// policies cannot reach into scheduling internals.
pub struct SimCtl<'a> {
    core: &'a mut SimCore,
}

impl<'a> SimCtl<'a> {
    /// Cache tiers, fastest first.
    pub fn cache_tiers(&self) -> &[TierId] {
        &self.core.cache_order
    }

    /// Bytes still reservable on `tier`.
    pub fn available(&self, tier: TierId) -> u64 {
        self.core.ledger.available(tier)
    }

    /// Size of `file` (0 for unknown files).
    pub fn file_size(&self, file: FileId) -> u64 {
        self.core.file_sizes.get(&file).copied().unwrap_or(0)
    }

    /// True if all of `range` is resident on `tier`.
    pub fn resident_on(&self, file: FileId, range: ByteRange, tier: TierId) -> bool {
        self.core.residency.resident_on(file, range, tier)
    }

    /// Fetches `range` of `file` into cache tier `dst`. Bytes already on
    /// `dst` or in flight anywhere are skipped; bytes that do not fit are
    /// denied (evict first). Sources are chosen automatically: the fastest
    /// cache tier currently holding each byte, else the backing store.
    /// Moves from cache tiers are exclusive (the source loses the bytes on
    /// completion); copies from backing leave the backing store canonical.
    pub fn fetch(&mut self, file: FileId, range: ByteRange, dst: TierId) -> FetchOutcome {
        self.fetch_traced(file, range, dst, obs::SpanCtx::NONE)
    }

    /// [`SimCtl::fetch`] with a causal parent: every transfer (and every
    /// reroute/retry/abandon instant) this fetch schedules attaches below
    /// `parent` in the span tree, linking the data movement back to the
    /// policy decision that requested it. Pass [`obs::SpanCtx::NONE`] (or
    /// call [`SimCtl::fetch`]) for an unattributed fetch — the transfers
    /// then root their own trees.
    pub fn fetch_traced(
        &mut self,
        file: FileId,
        range: ByteRange,
        dst: TierId,
        parent: obs::SpanCtx,
    ) -> FetchOutcome {
        let core = &mut *self.core;
        let mut outcome = FetchOutcome::default();
        if dst == core.backing {
            return outcome;
        }
        let range = core.clamp(file, range);
        if range.is_empty() {
            return outcome;
        }

        // Graceful degradation: an offline destination re-routes down the
        // hierarchy to the next online cache tier; with none left the
        // fetch is abandoned (the backing store still serves the reads).
        let mut dst = dst;
        if !core.tier_online(dst) {
            let below = core.cache_order.iter().position(|&t| t == dst).map_or(0, |p| p + 1);
            match core.cache_order[below..].iter().copied().find(|&t| core.tier_online(t)) {
                Some(alt) => {
                    core.book_fault(Fault::Rerouted(alt), parent, file, range.offset);
                    outcome.rerouted_to = Some(alt);
                    dst = alt;
                }
                None => {
                    core.book_fault(Fault::Abandoned(dst), parent, file, range.offset);
                    outcome.abandoned = range.len;
                    return outcome;
                }
            }
        }

        // What still needs moving: range minus dst-resident minus in-flight.
        let mut needed = IntervalSet::new();
        needed.insert(range);
        for covered in core.residency.covered_on(file, range, dst) {
            outcome.already_resident += needed.remove(covered);
        }
        for &id in core.active_by_file.get(&file).map_or(&[][..], Vec::as_slice) {
            if let Some(overlap) = core.transfers[id as usize].range.intersection(range) {
                outcome.in_flight += needed.remove(overlap);
            }
        }
        // An accepted read fill is in flight from the moment it is accepted.
        for fill in core.read_fills.iter().filter(|f| f.file == file) {
            if let Some(overlap) = fill.range.intersection(range) {
                outcome.in_flight += needed.remove(overlap);
            }
        }

        let gaps: Vec<ByteRange> = needed.iter().collect();
        let mut plan = std::mem::take(&mut core.scratch_plan);
        for gap in gaps {
            // Partition the gap by current holder (fastest first).
            core.residency.plan_read_into(file, gap, &core.cache_order, core.backing, &mut plan);
            for (src, sub_ranges, _bytes) in plan.entries() {
                let mut src = *src;
                if src == dst {
                    continue; // already there (racy overlap; treated as resident)
                }
                // An offline holding tier: the backing store remains
                // canonical, so copy from there instead. The offline tier's
                // copy is reclaimed when the transfer lands (exclusive
                // cache).
                let src_rerouted = !core.tier_online(src);
                if src_rerouted {
                    src = core.backing;
                }
                let is_move = src != core.backing;
                for &full_sub in sub_ranges {
                    // Moves release the source's capacity at issue: the
                    // planner's model treats the move as done, and a
                    // planned swap (A down, B up) would otherwise deadlock
                    // on each other's reservations.
                    if is_move {
                        core.ledger.release_clamped(src, full_sub.len);
                    }
                    // Partially fill the destination if the whole sub-range
                    // does not fit: take the prefix that does.
                    let take = full_sub.len.min(core.ledger.available(dst));
                    let dropped = full_sub.len - take;
                    if dropped > 0 {
                        outcome.denied += dropped;
                        core.report.denied_bytes += dropped;
                        if is_move {
                            // The denied tail stays on the source:
                            // restore its accounting.
                            let _ = core.ledger.reserve(src, dropped);
                        }
                    }
                    if take == 0 {
                        continue;
                    }
                    let sub = ByteRange::new(full_sub.offset, take);
                    core.ledger.reserve(dst, sub.len).expect("checked available");
                    // Fault roll for this transfer: it may fail transiently
                    // (bounded retry, paid for as simulated backoff time
                    // before departure) or permanently (abandoned after
                    // rolling back the reservation).
                    let roll = core
                        .faults
                        .as_mut()
                        .map_or_else(RetriedOp::default, FaultPlan::roll_op_with_retry);
                    if roll.retries > 0 {
                        let retried = Fault::Retried(dst, roll.retries);
                        core.book_fault(retried, parent, file, sub.offset);
                    }
                    if roll.abandoned {
                        core.ledger.release_clamped(dst, sub.len);
                        if is_move {
                            // The bytes never left the source.
                            let _ = core.ledger.reserve(src, sub.len);
                        }
                        core.book_fault(Fault::Abandoned(dst), parent, file, sub.offset);
                        outcome.abandoned += sub.len;
                        continue;
                    }
                    if src_rerouted {
                        core.book_fault(Fault::SrcRerouted(dst), parent, file, sub.offset);
                    }
                    let finish = core.issue_transfer(file, sub, src, dst, roll.backoff, parent);
                    outcome.scheduled += sub.len;
                    outcome.transfers += 1;
                    outcome.finish = Some(outcome.finish.map_or(finish, |f| f.max(finish)));
                }
            }
        }
        core.scratch_plan = plan;
        core.record_peaks();
        outcome
    }

    /// Accepts a fill of `range` of `file` into cache tier `dst` that the
    /// read whose notification is being delivered carries: when the read is
    /// served, it takes every byte of `range` from the backing store, and
    /// they land on `dst` for the cost of the destination leg alone, so
    /// they cross the backing store once. Accepts only inside a read's own
    /// notification (a fault-delayed one arrives after the read was
    /// served), when `range` lies inside that read, no byte of it is
    /// resident on a cache tier or in flight, and `dst` is online and has
    /// room for all of it; then reserves the room and rolls the transfer's
    /// faults, like [`SimCtl::fetch_traced`]. A refusal is an empty
    /// outcome; an accepted fill counts one transfer, reported done like
    /// any other. No fill reads the backing store itself.
    pub fn land_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        dst: TierId,
        parent: obs::SpanCtx,
    ) -> FetchOutcome {
        let core = &mut *self.core;
        let range = core.clamp(file, range);
        let refused = FetchOutcome::default();
        let inside = core.notified_read.is_some_and(|(f, read)| f == file && read.covers(range));
        let in_flight = core.active_by_file.get(&file).is_some_and(|ids| {
            ids.iter().any(|&id| core.transfers[id as usize].range.overlaps(range))
        }) || core.read_fills.iter().any(|f| f.file == file && f.range.overlaps(range));
        if range.is_empty()
            || !inside
            || dst == core.backing
            || in_flight
            || core.residency.overlaps_any(file, range, &core.cache_order)
            || !core.tier_online(dst)
            || core.ledger.available(dst) < range.len
        {
            return refused;
        }
        core.ledger.reserve(dst, range.len).expect("checked available");
        let roll = core.faults.as_mut().map_or_else(RetriedOp::default, FaultPlan::roll_op_with_retry);
        if roll.retries > 0 {
            core.book_fault(Fault::Retried(dst, roll.retries), parent, file, range.offset);
        }
        if roll.abandoned {
            core.ledger.release_clamped(dst, range.len);
            core.book_fault(Fault::Abandoned(dst), parent, file, range.offset);
            return FetchOutcome { abandoned: range.len, ..refused };
        }
        core.read_fills.push(ReadFill { file, range, dst, backoff: roll.backoff, parent });
        core.record_peaks();
        FetchOutcome { scheduled: range.len, transfers: 1, ..refused }
    }

    /// Drops `range` of `file` from cache tier `tier` without any device
    /// cost (discarding a cached copy is a metadata operation; the backing
    /// store remains canonical). Returns bytes dropped.
    pub fn discard(&mut self, file: FileId, range: ByteRange, tier: TierId) -> u64 {
        if tier == self.core.backing {
            return 0;
        }
        let removed = self.core.residency.remove(file, range, tier);
        if removed > 0 {
            self.core.ledger.release_clamped(tier, removed);
            self.core.report.evicted_bytes += removed;
            if let Some(eff) = self.core.effect.as_deref_mut() {
                eff.on_discard(file, range, tier, &self.core.config.obs);
            }
        }
        removed
    }

    /// Every `(file, tier, resident bytes)` entry — lets policies walk
    /// their cache contents for eviction decisions.
    pub fn resident_entries(&self) -> Vec<(FileId, TierId, u64)> {
        let mut entries: Vec<_> = self.core.residency.entries().collect();
        entries.sort_by_key(|(f, t, _)| (*f, *t));
        entries
    }

    /// The resident sub-ranges of `range` on `tier`.
    pub fn covered_on(&self, file: FileId, range: ByteRange, tier: TierId) -> Vec<ByteRange> {
        self.core.residency.covered_on(file, range, tier)
    }

    /// True unless a fault plan currently marks `tier` offline. Policies
    /// should route placements around offline tiers; the fetch path also
    /// re-routes on its own as a backstop. The backing tier is always
    /// online.
    pub fn tier_online(&self, tier: TierId) -> bool {
        self.core.tier_online(tier)
    }

    /// True while the backing store has a channel free right now, so a
    /// transfer issued now would start at once instead of queueing behind
    /// the reads and transfers already scheduled there.
    pub fn backing_free(&self) -> bool {
        let now = self.core.now;
        self.core.devices[self.core.backing.index()].earliest_start(now) <= now
    }

    /// Verifies the simulator's core data invariants: every byte resident
    /// on at most one cache tier (the exclusive cache of §III-D) and no
    /// cache tier's usage above its capacity. Returns a description of the
    /// first violation. Used by the chaos/invariant test suites after
    /// randomized workloads and fault schedules.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.core.residency.check_exclusive() {
            return Err("a byte range is resident on more than one cache tier".into());
        }
        for (id, spec) in self.core.config.hierarchy.iter_cache() {
            let used = self.core.ledger.used(id);
            if used > spec.capacity {
                return Err(format!(
                    "tier {id} uses {used} bytes of {} capacity",
                    spec.capacity
                ));
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct BarrierState {
    expected: usize,
    waiting: Vec<u32>,
}

/// Which policy callback a deferred notification targets.
#[derive(Debug, Clone, Copy)]
enum NotifyOp {
    Open,
    Read(ByteRange),
    Write(ByteRange),
    Close,
}

/// A policy notification deferred by event-fault injection, delivered by a
/// later `EventKind::Notify` calendar entry.
#[derive(Debug, Clone, Copy)]
struct PendingNotify {
    file: FileId,
    process: ProcessId,
    app: AppId,
    op: NotifyOp,
}

/// A configured simulation, ready to run.
pub struct Simulation<P: PrefetchPolicy> {
    core: SimCore,
    policy: P,
    scripts: Vec<RankScript>,
    pcs: Vec<usize>,
    rank_finish: Vec<Timestamp>,
    /// Whether each rank's completion has been recorded (guards `finished`
    /// against double-counting if an exhausted rank is re-dispatched).
    rank_done: Vec<bool>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    seq: u64,
    barriers: FxHashMap<u32, BarrierState>,
    finished: usize,
    /// Fault-delayed policy notifications, indexed by `EventKind::Notify`.
    notifies: Vec<PendingNotify>,
}

impl<P: PrefetchPolicy> Simulation<P> {
    /// Builds a simulation over `files` executing `scripts` under `policy`.
    pub fn new(config: SimConfig, files: Vec<SimFile>, scripts: Vec<RankScript>, policy: P) -> Self {
        let core = SimCore::new(config, &files);
        let mut barriers: FxHashMap<u32, BarrierState> = FxHashMap::default();
        for script in &scripts {
            for op in &script.ops {
                if let Op::Barrier(id) = op {
                    barriers
                        .entry(*id)
                        .or_insert(BarrierState { expected: 0, waiting: Vec::new() })
                        .expected += 1;
                }
            }
        }
        let n = scripts.len();
        let mut sim = Self {
            core,
            policy,
            scripts,
            pcs: vec![0; n],
            rank_finish: vec![Timestamp::ZERO; n],
            rank_done: vec![false; n],
            heap: BinaryHeap::new(),
            seq: 0,
            barriers,
            finished: 0,
            notifies: Vec::new(),
        };
        for rank in 0..n {
            sim.push(Timestamp::ZERO, EventKind::RankReady(rank as u32));
        }
        if let Some(dt) = sim.policy.tick_interval() {
            sim.push(Timestamp::ZERO.after(dt), EventKind::Tick);
        }
        sim
    }

    fn push(&mut self, time: Timestamp, kind: EventKind) {
        self.heap.push(Reverse(HeapEntry { time, seq: self.seq, kind }));
        self.seq += 1;
    }

    fn drain_spawned(&mut self) {
        debug_assert!(self.core.read_fills.is_empty(), "a read fill outlived its read");
        // Transfers created during callbacks become calendar events.
        let spawned = std::mem::take(&mut self.core.spawned);
        for (time, kind) in spawned {
            self.push(time, kind);
        }
    }

    /// Routes a policy notification through event-fault injection: deliver
    /// now (the fault-free path), drop it silently, or defer it to a later
    /// calendar slot. The application-side operation proceeds unaffected
    /// either way — event faults lose telemetry, never data.
    fn notify(&mut self, n: PendingNotify) {
        match self.core.roll_event() {
            EventFault::Deliver => self.deliver(n),
            EventFault::Drop => {}
            EventFault::Delay(d) => {
                let id = self.notifies.len() as u32;
                self.notifies.push(n);
                let t = self.core.now.after(d);
                self.push(t, EventKind::Notify(id));
            }
        }
    }

    /// Delivers one notification to the policy.
    fn deliver(&mut self, n: PendingNotify) {
        self.core.report.events_delivered += 1;
        let now = self.core.now;
        let mut ctl = SimCtl { core: &mut self.core };
        match n.op {
            NotifyOp::Open => self.policy.on_open(n.file, n.process, n.app, now, &mut ctl),
            NotifyOp::Read(r) => self.policy.on_read(n.file, r, n.process, n.app, now, &mut ctl),
            NotifyOp::Write(r) => self.policy.on_write(n.file, r, n.process, n.app, now, &mut ctl),
            NotifyOp::Close => self.policy.on_close(n.file, n.process, n.app, now, &mut ctl),
        }
    }

    fn all_done(&self) -> bool {
        self.finished == self.scripts.len()
    }

    fn dispatch_rank(&mut self, rank: u32) {
        let r = rank as usize;
        let pc = self.pcs[r];
        if pc >= self.scripts[r].ops.len() {
            // Script exhausted: record completion exactly once. A rank can
            // be re-dispatched after exhaustion (e.g. a stray RankReady from
            // a barrier release); without the `rank_done` guard that used to
            // double-increment `finished`, tripping the completion assert.
            if !self.rank_done[r] {
                self.rank_done[r] = true;
                self.rank_finish[r] = self.rank_finish[r].max(self.core.now);
                self.finished += 1;
            }
            return;
        }
        let op = self.scripts[r].ops[pc];
        self.pcs[r] += 1;
        let (process, app) = (self.scripts[r].process, self.scripts[r].app);
        match op {
            Op::Compute(d) => {
                let t = self.core.now.after(d);
                self.push(t, EventKind::RankReady(rank));
            }
            Op::Open(file) => {
                if let Some(eff) = self.core.effect.as_deref_mut() {
                    eff.note_open(file);
                }
                self.notify(PendingNotify { file, process, app, op: NotifyOp::Open });
                let t = self.core.now.after(OPEN_CLOSE_COST);
                self.push(t, EventKind::RankReady(rank));
            }
            Op::Close(file) => {
                if let Some(eff) = self.core.effect.as_deref_mut() {
                    eff.note_close(file);
                }
                self.notify(PendingNotify { file, process, app, op: NotifyOp::Close });
                let t = self.core.now.after(OPEN_CLOSE_COST);
                self.push(t, EventKind::RankReady(rank));
            }
            Op::Read { file, range } => {
                self.core.notified_read = Some((file, range));
                self.notify(PendingNotify { file, process, app, op: NotifyOp::Read(range) });
                self.core.notified_read = None;
                let finish = self.core.serve_read(file, range);
                self.push(finish, EventKind::RankReady(rank));
            }
            Op::Write { file, range } => {
                let finish = self.core.serve_write(file, range);
                self.notify(PendingNotify { file, process, app, op: NotifyOp::Write(range) });
                self.push(finish, EventKind::RankReady(rank));
            }
            Op::Barrier(id) => {
                let state = self.barriers.get_mut(&id).expect("barrier registered");
                state.waiting.push(rank);
                if state.waiting.len() == state.expected {
                    let released = std::mem::take(&mut state.waiting);
                    state.expected = 0; // barrier ids are single-use
                    for r in released {
                        self.push(self.core.now, EventKind::RankReady(r));
                    }
                }
                // Otherwise the rank parks until the last arrival.
            }
        }
        self.drain_spawned();
    }

    /// Runs to completion, returning the report and the policy (so callers
    /// can inspect learned state).
    pub fn run(mut self) -> (SimReport, P) {
        self.run_events();
        let rank_finish = std::mem::take(&mut self.rank_finish);
        let report = self.core.finalize_report(self.policy.name(), rank_finish);
        (report, self.policy)
    }

    /// Dispatches every calendar event, then the post-run policy hook.
    #[inline]
    fn run_events(&mut self) {
        while let Some(Reverse(entry)) = self.heap.pop() {
            debug_assert!(entry.time >= self.core.now, "time went backwards");
            self.core.now = entry.time;
            match entry.kind {
                EventKind::RankReady(rank) => self.dispatch_rank(rank),
                EventKind::TransferFinished(id) => {
                    let t = self.core.complete_transfer(id);
                    if !self.all_done() {
                        self.policy.on_transfer_done(
                            TransferDone {
                                file: t.file,
                                range: t.range,
                                src: t.src,
                                dst: t.dst,
                                issued: t.issued,
                            },
                            self.core.now,
                            &mut SimCtl { core: &mut self.core },
                        );
                        self.drain_spawned();
                    }
                }
                EventKind::Tick => {
                    if !self.all_done() {
                        self.policy.on_tick(self.core.now, &mut SimCtl { core: &mut self.core });
                        self.drain_spawned();
                        if let Some(dt) = self.policy.tick_interval() {
                            self.push(self.core.now.after(dt), EventKind::Tick);
                        }
                    }
                }
                EventKind::Notify(id) => {
                    // A fault-delayed notification arrives late; the
                    // application op it described completed long ago.
                    if !self.all_done() {
                        let n = self.notifies[id as usize];
                        self.deliver(n);
                        self.drain_spawned();
                    }
                }
            }
        }
        assert!(self.all_done(), "deadlock: {} of {} ranks finished (mismatched barriers?)",
            self.finished, self.scripts.len());
        // Post-run policy hook (telemetry export and the like). The event
        // loop has drained: anything it spawns is dropped, not executed.
        self.policy.on_finish(self.core.now, &mut SimCtl { core: &mut self.core });
        self.core.spawned.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoPrefetch;
    use crate::script::ScriptBuilder;
    use tiers::faults::FaultStats;
    use tiers::ids::{AppId, ProcessId};
    use tiers::units::{gib, mib, MIB};

    fn config() -> SimConfig {
        SimConfig::new(Hierarchy::with_budgets(gib(1), gib(2), gib(4)))
    }

    fn one_file(size: u64) -> Vec<SimFile> {
        vec![SimFile { id: FileId(0), size }]
    }

    #[test]
    fn no_prefetch_read_time_matches_analytic() {
        // One rank reads 200 MiB from PFS: 3 ms + 200/ (100 MiB/s) = 2.003 s
        // (24 channels, no contention).
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, mib(200))
            .close(FileId(0))
            .build()];
        let (report, _) = Simulation::new(config(), one_file(mib(200)), scripts, NoPrefetch).run();
        let expected = 2.003 + 2e-6; // reads + open/close costs
        assert!(
            (report.seconds() - expected).abs() < 1e-3,
            "makespan {} vs {expected}",
            report.seconds()
        );
        assert_eq!(report.hit_ratio(), Some(0.0));
        assert_eq!(report.miss_bytes(), mib(200));
        assert_eq!(report.read_requests, 1);
    }

    #[test]
    fn pfs_contention_serializes_beyond_channels() {
        // 48 ranks reading 100 MiB each over 24 PFS channels: two waves.
        let scripts: Vec<RankScript> = (0..48)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(0))
                    .read(FileId(0), (i as u64) * mib(100), mib(100))
                    .build()
            })
            .collect();
        let (report, _) = Simulation::new(config(), one_file(gib(5)), scripts, NoPrefetch).run();
        // One wave: 3 ms + 1 s; two waves ≈ 2.006 s.
        assert!(
            (report.seconds() - 2.006).abs() < 1e-3,
            "makespan {} vs ~2.006",
            report.seconds()
        );
    }

    /// A trivial readahead policy used to test the control surface: on
    /// every read of segment k it prefetches the next `window` bytes into
    /// RAM.
    struct Readahead {
        window: u64,
    }

    impl PrefetchPolicy for Readahead {
        fn name(&self) -> &str {
            "readahead-test"
        }

        fn on_read(
            &mut self,
            file: FileId,
            range: ByteRange,
            _process: ProcessId,
            _app: AppId,
            _now: Timestamp,
            ctl: &mut SimCtl<'_>,
        ) {
            let next = ByteRange::new(range.end(), self.window);
            ctl.fetch(file, next, TierId(0));
        }
    }

    #[test]
    fn readahead_turns_misses_into_hits() {
        // Sequential read of 64 MiB in 1 MiB steps with compute gaps long
        // enough for the prefetcher to stay ahead.
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .timestep_reads(FileId(0), 0, MIB, 64, Duration::from_millis(50))
            .close(FileId(0))
            .build()];
        let (with_pf, _) = Simulation::new(
            config(),
            one_file(mib(64)),
            scripts.clone(),
            Readahead { window: MIB },
        )
        .run();
        let (without, _) = Simulation::new(config(), one_file(mib(64)), scripts, NoPrefetch).run();
        let hit = with_pf.hit_ratio().unwrap();
        assert!(hit > 0.9, "readahead hit ratio {hit}");
        assert!(
            with_pf.seconds() < without.seconds(),
            "prefetching should win: {} vs {}",
            with_pf.seconds(),
            without.seconds()
        );
        assert!(with_pf.prefetch_bytes >= mib(63));
    }

    #[test]
    fn fetch_outcome_accounts_every_byte() {
        struct Probe;
        impl PrefetchPolicy for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_open(
                &mut self,
                file: FileId,
                _p: ProcessId,
                _a: AppId,
                _now: Timestamp,
                ctl: &mut SimCtl<'_>,
            ) {
                // RAM tier is 1 MiB in this test's hierarchy.
                let out = ctl.fetch(file, ByteRange::new(0, mib(3)), TierId(0));
                assert_eq!(out.scheduled, MIB);
                assert_eq!(out.denied, mib(2));
                // Second fetch: everything in flight.
                let out2 = ctl.fetch(file, ByteRange::new(0, MIB), TierId(0));
                assert_eq!(out2.in_flight, MIB);
                assert_eq!(out2.scheduled, 0);
            }
        }
        let cfg = SimConfig::new(Hierarchy::with_budgets(MIB, gib(1), gib(1)));
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .compute(Duration::from_secs(1))
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let (report, _) = Simulation::new(cfg, one_file(mib(3)), scripts, Probe).run();
        assert_eq!(report.denied_bytes, mib(2));
        assert_eq!(report.hit_bytes(), MIB, "the fetched MiB served the read");
    }

    #[test]
    fn exclusive_move_frees_source_tier() {
        struct Promote {
            step: u8,
        }
        impl PrefetchPolicy for Promote {
            fn name(&self) -> &str {
                "promote"
            }
            fn on_tick(&mut self, _now: Timestamp, ctl: &mut SimCtl<'_>) {
                match self.step {
                    0 => {
                        ctl.fetch(FileId(0), ByteRange::new(0, MIB), TierId(1));
                        self.step = 1;
                    }
                    1 if ctl.resident_on(FileId(0), ByteRange::new(0, MIB), TierId(1)) => {
                        // Promote NVMe → RAM.
                        ctl.fetch(FileId(0), ByteRange::new(0, MIB), TierId(0));
                        self.step = 2;
                    }
                    _ => {}
                }
            }
            fn tick_interval(&self) -> Option<Duration> {
                Some(Duration::from_millis(100))
            }
        }
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .compute(Duration::from_secs(2))
            .read(FileId(0), 0, MIB)
            .build()];
        let (report, _) =
            Simulation::new(config(), one_file(MIB), scripts, Promote { step: 0 }).run();
        // The read was served from RAM (tier 0), not NVMe.
        assert_eq!(report.tier_read_bytes(TierId(0)), MIB);
        assert_eq!(report.tier_read_bytes(TierId(1)), 0);
        // Promotion moved the same MiB twice (PFS→NVMe, NVMe→RAM).
        assert_eq!(report.prefetch_bytes, 2 * MIB);
    }

    #[test]
    fn write_invalidates_cached_data() {
        struct FetchOnce;
        impl PrefetchPolicy for FetchOnce {
            fn name(&self) -> &str {
                "fetch-once"
            }
            fn on_open(
                &mut self,
                file: FileId,
                _p: ProcessId,
                _a: AppId,
                _now: Timestamp,
                ctl: &mut SimCtl<'_>,
            ) {
                ctl.fetch(file, ByteRange::new(0, MIB), TierId(0));
            }
        }
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .compute(Duration::from_secs(1)) // let the fetch land
            .write(FileId(0), 0, MIB)
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let (report, _) = Simulation::new(config(), one_file(MIB), scripts, FetchOnce).run();
        assert_eq!(report.invalidated_bytes, MIB);
        assert_eq!(report.hit_bytes(), 0, "post-write read must go to backing");
        assert_eq!(report.miss_bytes(), MIB);
    }

    #[test]
    fn a_read_never_waits_on_a_prefetch_a_write_cancelled() {
        struct FetchOnce;
        impl PrefetchPolicy for FetchOnce {
            fn name(&self) -> &str {
                "fetch-once"
            }
            fn on_open(
                &mut self,
                file: FileId,
                _p: ProcessId,
                _a: AppId,
                _now: Timestamp,
                ctl: &mut SimCtl<'_>,
            ) {
                ctl.fetch(file, ByteRange::new(0, MIB), TierId(0));
            }
        }
        // A small write lands while the prefetch is still in flight and
        // cancels it; the read right after must not wait on its stale bytes.
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .write(FileId(0), 0, 4096)
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let (report, _) = Simulation::new(config(), one_file(MIB), scripts, FetchOnce).run();
        assert_eq!(report.prefetch_bytes, MIB, "the prefetch was issued");
        assert_eq!(report.hit_bytes(), 0, "no late hit on cancelled bytes");
        assert_eq!(report.miss_bytes(), MIB);
    }

    /// Lands every read it is told of into `dst`, `grow` bytes longer than
    /// the read, after an optional fetch on open, and records what
    /// happened.
    struct Lander {
        dst: TierId,
        grow: u64,
        on_open: Option<(ByteRange, TierId)>,
        outcomes: Vec<FetchOutcome>,
        landed: Vec<(TransferDone, Timestamp)>,
    }

    impl Lander {
        fn new(dst: TierId) -> Self {
            Self { dst, grow: 0, on_open: None, outcomes: Vec::new(), landed: Vec::new() }
        }
    }

    impl PrefetchPolicy for Lander {
        fn name(&self) -> &str {
            "lander"
        }
        fn on_open(&mut self, f: FileId, _p: ProcessId, _a: AppId, _now: Timestamp, ctl: &mut SimCtl<'_>) {
            if let Some((range, tier)) = self.on_open {
                ctl.fetch(f, range, tier);
            }
        }
        fn on_read(
            &mut self,
            file: FileId,
            range: ByteRange,
            _p: ProcessId,
            _a: AppId,
            _now: Timestamp,
            ctl: &mut SimCtl<'_>,
        ) {
            let fill = ByteRange::new(range.offset, range.len + self.grow);
            self.outcomes.push(ctl.land_read(file, fill, self.dst, obs::SpanCtx::NONE));
        }
        fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, _ctl: &mut SimCtl<'_>) {
            self.landed.push((done, now));
        }
    }

    fn accepted() -> FetchOutcome {
        FetchOutcome { scheduled: MIB, transfers: 1, ..Default::default() }
    }

    /// Open, read the first MiB, wait a second, read it again.
    fn read_twice() -> Vec<RankScript> {
        vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .compute(Duration::from_secs(1))
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()]
    }

    #[test]
    fn a_read_fill_charges_only_the_destination() {
        let rec = obs::Recorder::enabled();
        let sim = Simulation::new(
            config().with_obs(rec.clone()),
            one_file(mib(4)),
            read_twice(),
            Lander::new(TierId(0)),
        );
        let (report, lander) = sim.run();
        let (none, _) = Simulation::new(config(), one_file(mib(4)), read_twice(), NoPrefetch).run();
        assert_eq!(lander.outcomes, vec![accepted(), FetchOutcome::default()], "then resident");
        assert_eq!((report.miss_bytes(), report.hit_bytes()), (MIB, MIB));
        // The backing store served one read instead of two; the fill read
        // nothing there.
        assert_eq!(2 * report.tiers[3].busy, none.tiers[3].busy);
        let obs = rec.report();
        assert_eq!(obs.counter("sim.fetch.read_fill_bytes{from=3,to=0}"), Some(MIB));
        assert_eq!(obs.counter("sim.fetch.bytes{from=3,to=0}"), None);
        assert_eq!(obs.counter("sim.fetch.transfers{from=3,to=0}"), None);
        // It departed once the read's bytes arrived.
        let (done, at) = lander.landed[0];
        assert_eq!((done.src, done.dst, done.range), (TierId(3), TierId(0), ByteRange::new(0, MIB)));
        let read = none.read_time / 2;
        assert!(at.since(done.issued) > read, "landed {at:?}, issued {:?}", done.issued);
    }

    #[test]
    fn a_read_fill_is_refused_over_resident_or_in_flight_bytes() {
        // RAM holds 1 MiB; the open fetches the first MiB into NVMe.
        let cfg = SimConfig::new(Hierarchy::with_budgets(MIB, gib(1), gib(1)));
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB) // in flight
            .compute(Duration::from_secs(1))
            .read(FileId(0), 0, MIB) // resident
            .read(FileId(0), MIB / 2, MIB) // half resident
            .read(FileId(0), mib(2), mib(2)) // too large for RAM
            .close(FileId(0))
            .build()];
        let mut lander = Lander::new(TierId(0));
        lander.on_open = Some((ByteRange::new(0, MIB), TierId(1)));
        let (report, lander) = Simulation::new(cfg, one_file(mib(4)), scripts, lander).run();
        assert_eq!(lander.outcomes, vec![FetchOutcome::default(); 4]);
        assert_eq!(report.prefetch_bytes, MIB, "only the open's fetch moved bytes");
    }

    #[test]
    fn a_read_fill_refuses_an_offline_destination() {
        let faults = tiers::faults::FaultConfig::with_seed(1).offline_window(
            TierId(0),
            Timestamp::ZERO,
            Timestamp::from_secs(10),
        );
        let sim = Simulation::new(
            config().with_faults(faults),
            one_file(mib(4)),
            read_twice(),
            Lander::new(TierId(0)),
        );
        let (report, lander) = sim.run();
        assert_eq!(lander.outcomes, vec![FetchOutcome::default(); 2]);
        assert_eq!(report.prefetch_bytes, 0);
    }

    #[test]
    fn a_write_cancels_a_read_fill_in_flight() {
        // The write comes as the read returns, while the fill crosses to RAM.
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .write(FileId(0), 0, 4096)
            .compute(Duration::from_secs(1))
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let sim = Simulation::new(config(), one_file(mib(4)), scripts, Lander::new(TierId(0)));
        let (report, lander) = sim.run();
        assert_eq!(lander.outcomes, vec![accepted(), accepted()], "nothing landed in between");
        assert_eq!(report.invalidated_bytes, MIB, "the stale fill was dropped");
        assert_eq!((report.hit_bytes(), report.miss_bytes()), (0, mib(2)));
    }

    /// Runs `scripts` over a 4 MiB file with `lander` and with
    /// `NoPrefetch`, under `faults`: the lander must have read the backing
    /// store exactly as long as the read alone did, and moved nothing.
    fn assert_nothing_landed(
        scripts: Vec<RankScript>,
        lander: Lander,
        faults: Option<tiers::faults::FaultConfig>,
    ) {
        let rec = obs::Recorder::enabled();
        let cfg = config().with_obs(rec.clone());
        let cfg = faults.map_or(cfg.clone(), |f| cfg.with_faults(f));
        let files = one_file(mib(4));
        let (report, lander) = Simulation::new(cfg, files, scripts.clone(), lander).run();
        let (none, _) = Simulation::new(config(), one_file(mib(4)), scripts, NoPrefetch).run();
        assert_eq!(lander.outcomes, vec![FetchOutcome::default()], "one refused fill");
        assert_eq!((report.prefetch_bytes, report.tiers[3].busy), (0, none.tiers[3].busy));
        assert!(lander.landed.is_empty());
        let obs = rec.report();
        assert_eq!(obs.counter("sim.fetch.bytes{from=3,to=0}"), None);
        assert_eq!(obs.counter("sim.fetch.read_fill_bytes{from=3,to=0}"), None);
    }

    #[test]
    fn a_fill_past_the_read_is_refused() {
        // The read carries half a MiB; a fill of the whole MiB would have
        // to read the other half from the backing store itself.
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB / 2)
            .close(FileId(0))
            .build()];
        let lander = Lander { grow: MIB / 2, ..Lander::new(TierId(0)) };
        assert_nothing_landed(scripts, lander, None);
    }

    #[test]
    fn a_fill_whose_notification_was_delayed_is_refused() {
        // The notification arrives after the read was served: its bytes
        // are gone, and a fill would read them from the backing store
        // again.
        let delayed = tiers::faults::FaultConfig::with_seed(1).event_faults(
            0.0,
            1.0,
            Duration::from_millis(1),
        );
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .compute(Duration::from_secs(1))
            .close(FileId(0))
            .build()];
        assert_nothing_landed(scripts, Lander::new(TierId(0)), Some(delayed));
    }

    #[test]
    fn read_fill_faults_are_rolled_on_the_destination() {
        let run = |faults: tiers::faults::FaultConfig| {
            let rec = obs::Recorder::enabled();
            let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
                .open(FileId(0))
                .timestep_reads(FileId(0), 0, MIB, 16, Duration::from_millis(50))
                .compute(Duration::from_secs(1)) // the last fill lands
                .close(FileId(0))
                .build()];
            let cfg = config().with_obs(rec.clone()).with_faults(faults);
            let sim = Simulation::new(cfg, one_file(mib(16)), scripts, Lander::new(TierId(0)));
            let (report, lander) = sim.run();
            (report, lander, rec.report())
        };
        // Every roll fails for good: nothing lands, nothing stays reserved.
        let (report, lander, _) = run(tiers::faults::FaultConfig::with_seed(1).permanent(1.0));
        let abandoned = FetchOutcome { abandoned: MIB, ..Default::default() };
        assert_eq!(lander.outcomes, vec![abandoned; 16]);
        assert_eq!((report.faults.abandoned, report.prefetch_bytes), (16, 0));
        assert!(lander.landed.is_empty());
        // Transient failures retry against the destination tier and delay
        // the landing by their backoff.
        let (report, lander, obs) = run(tiers::faults::FaultConfig::with_seed(3).transient(0.5));
        assert!(report.faults.retried > 0);
        assert_eq!(obs.counter("sim.fetch.retries{tier=0}"), Some(report.faults.retried));
        let landed = lander.outcomes.iter().filter(|o| o.transfers == 1).count();
        assert_eq!((landed, lander.landed.len()), (16 - report.faults.abandoned as usize, landed));
        let slowest = lander.landed.iter().map(|(d, at)| at.since(d.issued)).max().unwrap();
        let backoff = tiers::mover::RetryPolicy::default().backoff(0);
        assert!(slowest > backoff, "a retried fill waits out its backoff: {slowest:?}");
    }

    #[test]
    fn barriers_synchronize_ranks() {
        // Rank 0 computes 1 s then barriers; rank 1 barriers immediately
        // then reads. Rank 1's read cannot start before 1 s.
        let scripts = vec![
            ScriptBuilder::new(ProcessId(0), AppId(0))
                .compute(Duration::from_secs(1))
                .barrier(1)
                .build(),
            ScriptBuilder::new(ProcessId(1), AppId(0))
                .barrier(1)
                .read(FileId(0), 0, MIB)
                .build(),
        ];
        let (report, _) = Simulation::new(config(), one_file(MIB), scripts, NoPrefetch).run();
        assert!(report.rank_finish[1] >= Timestamp::from_secs(1));
        assert!(report.seconds() >= 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let scripts: Vec<RankScript> = (0..16)
                .map(|i| {
                    ScriptBuilder::new(ProcessId(i), AppId(i % 4))
                        .open(FileId(0))
                        .timestep_reads(
                            FileId(0),
                            (i as u64) * mib(4),
                            MIB,
                            4,
                            Duration::from_millis(7),
                        )
                        .close(FileId(0))
                        .build()
                })
                .collect();
            Simulation::new(config(), one_file(mib(64)), scripts, Readahead { window: MIB })
        };
        let (a, _) = build().run();
        let (b, _) = build().run();
        assert_eq!(a.rank_finish, b.rank_finish);
        assert_eq!(a.hit_bytes(), b.hit_bytes());
        assert_eq!(a.prefetch_bytes, b.prefetch_bytes);
        assert_eq!(a.makespan, b.makespan);
    }

    /// Runs `sim` to completion, returning its report and what its fault
    /// plan injected (all zero on fault-free runs).
    fn run_with_plan<P: PrefetchPolicy>(mut sim: Simulation<P>) -> (SimReport, FaultStats) {
        sim.run_events();
        let stats = sim.core.faults.as_ref().map(FaultPlan::stats).unwrap_or_default();
        let rank_finish = std::mem::take(&mut sim.rank_finish);
        (sim.core.finalize_report(sim.policy.name(), rank_finish), stats)
    }

    #[test]
    fn enabled_recorder_observes_without_perturbing_the_run() {
        // Second input: op and event faults, plus a RAM outage over data a
        // deeper readahead already cached (degraded reads) while later
        // fetches re-route to NVMe.
        let chaos = tiers::faults::FaultConfig::with_seed(1)
            .transient(0.2)
            .permanent(0.1)
            .offline_window(TierId(0), Timestamp::from_millis(100), Timestamp::from_millis(200))
            .event_faults(0.05, 0.05, Duration::from_millis(2));
        for (faults, window) in [(None, MIB), (Some(chaos), 4 * MIB)] {
            let build = |rec: obs::Recorder| {
                let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
                    .open(FileId(0))
                    .timestep_reads(FileId(0), 0, MIB, 16, Duration::from_millis(20))
                    .close(FileId(0))
                    .build()];
                let mut config = config().with_obs(rec);
                if let Some(f) = &faults {
                    config = config.with_faults(f.clone());
                }
                Simulation::new(config, one_file(mib(16)), scripts, Readahead { window })
            };
            let rec = obs::Recorder::enabled();
            let (observed, plan) = run_with_plan(build(rec.clone()));
            let (plain, _) = build(obs::Recorder::disabled()).run();
            // Observation-free: the simulated run is byte-identical either
            // way (SimReport has no PartialEq; Debug covers every field).
            assert_eq!(format!("{observed:?}"), format!("{plain:?}"));
            let report = rec.report();
            assert!(report.counter("sim.fetch.bytes{from=3,to=0}").unwrap_or(0) > 0);
            assert!(report.histogram("sim.fetch.transfer_ns{from=3,to=0}").is_some());
            let latency = report.histogram("sim.read.latency_ns").unwrap();
            assert!(latency.count > 0);
            // The report's histogram books the same samples, bucket for bucket.
            assert_eq!(&observed.read_latency, latency);
            // Both sinks book every fault fact.
            let c = |key: &str| report.counter(key).unwrap_or(0);
            let per_tier =
                |key: &str| (0..4).map(|t| c(&format!("{key}{{tier={t}}}"))).sum::<u64>();
            let f = observed.faults;
            let degraded = per_tier("sim.read.degraded");
            assert_eq!(
                f.rerouted,
                per_tier("sim.fetch.rerouted") + per_tier("sim.fetch.src_rerouted") + degraded
            );
            assert_eq!(f.abandoned, per_tier("sim.fetch.abandoned"));
            assert_eq!(f.retried, per_tier("sim.fetch.retries"));
            assert_eq!(c("sim.notify.dropped"), plan.events_dropped);
            assert_eq!(c("sim.notify.delayed"), plan.events_delayed);
            // The report's total is every op fault rolled plus every
            // notification the obs sink saw dropped or delayed.
            assert_eq!(
                f.injected,
                plan.transient + plan.permanent + c("sim.notify.dropped") + c("sim.notify.delayed")
            );
            if faults.is_some() {
                assert!(degraded > 0, "the outage must catch cached bytes: {f:?}");
                assert!(f.retried > 0 && f.abandoned > 0, "{f:?}");
                assert!(plan.events_dropped + plan.events_delayed > 0, "{plan:?}");
            } else {
                assert!(!f.any());
            }
            // Determinism of the artifact itself.
            let rec2 = obs::Recorder::enabled();
            let _ = build(rec2.clone()).run();
            assert_eq!(rec2.report().to_json(), report.to_json());
        }
    }

    #[test]
    fn effectiveness_classes_partition_reads_and_spans_close() {
        // Tight 2 ms stride: the readahead stays in flight when the next
        // read arrives, so the run mixes misses, late hits and timely hits.
        let rec = obs::Recorder::enabled();
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .timestep_reads(FileId(0), 0, MIB, 32, Duration::from_millis(2))
            .close(FileId(0))
            .build()];
        let (report, _) = Simulation::new(
            config().with_obs(rec.clone()),
            one_file(mib(32)),
            scripts,
            Readahead { window: MIB },
        )
        .run();
        let obs_report = rec.report();
        let c = |key: &str| obs_report.counter(key).unwrap_or(0);
        // Every application read gets exactly one class.
        let total = c("effect.reads.timely_hit")
            + c("effect.reads.late_hit")
            + c("effect.reads.demoted_hit")
            + c("effect.reads.miss");
        assert_eq!(total, report.read_requests);
        assert!(c("effect.reads.late_hit") > 0, "tight stride must catch prefetches in flight");
        // One lateness observation per late hit.
        assert_eq!(
            obs_report.histogram("effect.late.lateness_ns").map_or(0, |h| h.count),
            c("effect.reads.late_hit")
        );
        // Every landed prefetch gets exactly one fate.
        let landed = c("effect.prefetch.landed{tier=0}");
        assert!(landed > 0);
        assert_eq!(
            landed,
            c("effect.prefetch.used{tier=0}")
                + c("effect.prefetch.wasted{tier=0}")
                + c("effect.prefetch.superseded{tier=0}")
        );
        // The span stream is closed and causally consistent: ids unique,
        // parents precede children, every span ends, one app_read per read.
        let mut seen = std::collections::HashSet::new();
        let mut open = std::collections::HashSet::new();
        let mut app_reads = 0u64;
        for ev in rec.trace_events() {
            match ev {
                obs::TraceEvent::SpanStart { id, parent, root, name, .. } => {
                    assert!(seen.insert(id), "duplicate span id {id}");
                    if parent == 0 {
                        assert_eq!(root, id, "a root span roots its own tree");
                    } else {
                        assert!(seen.contains(&parent), "span {id} orphaned: parent {parent}");
                        assert!(seen.contains(&root), "span {id} orphaned: root {root}");
                    }
                    open.insert(id);
                    if name == "app_read" {
                        app_reads += 1;
                    }
                }
                obs::TraceEvent::SpanEnd { id, .. } => {
                    assert!(open.remove(&id), "span {id} ended without starting");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "unclosed spans: {open:?}");
        assert_eq!(app_reads, report.read_requests);
    }

    #[test]
    fn demoted_segments_classify_reads_as_demoted_hits() {
        struct Demote {
            step: u8,
        }
        impl PrefetchPolicy for Demote {
            fn name(&self) -> &str {
                "demote-test"
            }
            fn on_tick(&mut self, _now: Timestamp, ctl: &mut SimCtl<'_>) {
                match self.step {
                    0 => {
                        ctl.fetch(FileId(0), ByteRange::new(0, MIB), TierId(0));
                        self.step = 1;
                    }
                    1 if ctl.resident_on(FileId(0), ByteRange::new(0, MIB), TierId(0)) => {
                        // Demote RAM → NVMe.
                        ctl.fetch(FileId(0), ByteRange::new(0, MIB), TierId(1));
                        self.step = 2;
                    }
                    _ => {}
                }
            }
            fn tick_interval(&self) -> Option<Duration> {
                Some(Duration::from_millis(100))
            }
        }
        let rec = obs::Recorder::enabled();
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .compute(Duration::from_secs(2))
            .read(FileId(0), 0, MIB)
            .build()];
        let (report, _) = Simulation::new(
            config().with_obs(rec.clone()),
            one_file(MIB),
            scripts,
            Demote { step: 0 },
        )
        .run();
        assert_eq!(report.read_requests, 1);
        let obs_report = rec.report();
        let c = |key: &str| obs_report.counter(key).unwrap_or(0);
        assert_eq!(c("effect.reads.demoted_hit"), 1);
        assert_eq!(c("effect.reads.demoted_hit{tier=1}"), 1);
        assert_eq!(c("effect.reads.timely_hit") + c("effect.reads.miss"), 0);
        // The RAM landing was superseded by the demotion; the NVMe landing
        // served the read.
        assert_eq!(c("effect.prefetch.superseded{tier=0}"), 1);
        assert_eq!(c("effect.prefetch.used{tier=1}"), 1);
    }

    #[test]
    fn reads_past_eof_are_clamped() {
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .read(FileId(0), mib(1), mib(10)) // file is only 2 MiB
            .read(FileId(0), mib(5), mib(1)) // fully past EOF
            .build()];
        let (report, _) = Simulation::new(config(), one_file(mib(2)), scripts, NoPrefetch).run();
        assert_eq!(report.bytes_requested, MIB);
        assert_eq!(report.read_requests, 2);
    }

    #[test]
    fn prefetch_traffic_interferes_with_reads() {
        // A policy that floods the PFS with useless prefetches makes the
        // application *slower* than no prefetching (the naive-prefetcher
        // effect of Fig. 4b).
        struct Flood {
            tick: u64,
        }
        impl PrefetchPolicy for Flood {
            fn name(&self) -> &str {
                "flood"
            }
            fn on_tick(&mut self, _now: Timestamp, ctl: &mut SimCtl<'_>) {
                // Fetch a rotating garbage region into BB forever, dropping
                // the previous one so capacity never blocks the flood.
                let slot = |k: u64| ByteRange::new(gib(2) + (k % 48) * mib(32), mib(32));
                ctl.discard(FileId(0), slot(self.tick.wrapping_sub(24)), TierId(2));
                ctl.fetch(FileId(0), slot(self.tick), TierId(2));
                self.tick += 1;
            }
            fn tick_interval(&self) -> Option<Duration> {
                Some(Duration::from_millis(5))
            }
        }
        let scripts: Vec<RankScript> = (0..24)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(0))
                    .timestep_reads(
                        FileId(0),
                        (i as u64) * mib(32),
                        mib(8),
                        4,
                        Duration::from_millis(50),
                    )
                    .build()
            })
            .collect();
        let files = one_file(gib(4));
        let (flooded, _) =
            Simulation::new(config(), files.clone(), scripts.clone(), Flood { tick: 0 }).run();
        let (clean, _) = Simulation::new(config(), files, scripts, NoPrefetch).run();
        assert!(
            flooded.seconds() > clean.seconds() * 1.2,
            "flooding {} should beat clean {} by >20%",
            flooded.seconds(),
            clean.seconds()
        );
    }

    #[test]
    fn empty_scripts_finish_immediately() {
        let scripts = vec![
            RankScript::new(ProcessId(0), AppId(0)),
            RankScript::new(ProcessId(1), AppId(0)),
        ];
        let (report, _) = Simulation::new(config(), one_file(MIB), scripts, NoPrefetch).run();
        assert_eq!(report.makespan, Duration::ZERO);
        assert_eq!(report.rank_finish.len(), 2);
    }

    #[test]
    fn redispatch_after_exhaustion_counts_finish_once() {
        // An exhausted rank dispatched a second time (stray RankReady) must
        // not bump `finished` twice.
        let scripts = vec![RankScript::new(ProcessId(0), AppId(0))];
        let mut sim = Simulation::new(config(), one_file(MIB), scripts, NoPrefetch);
        sim.dispatch_rank(0);
        assert_eq!(sim.finished, 1);
        sim.dispatch_rank(0);
        assert_eq!(sim.finished, 1, "re-dispatch must not double-count");
        assert!(sim.all_done());
    }

    fn chaos_faults(seed: u64) -> tiers::faults::FaultConfig {
        tiers::faults::FaultConfig::with_seed(seed)
            .transient(0.10)
            .permanent(0.02)
            .offline_window(TierId(0), Timestamp::from_secs(1), Timestamp::from_secs(3))
            .slow_tier(TierId(2), 2.0)
            .event_faults(0.05, 0.05, Duration::from_millis(2))
    }

    fn readahead_scripts() -> Vec<RankScript> {
        (0..16)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(i % 4))
                    .open(FileId(0))
                    .timestep_reads(FileId(0), (i as u64) * mib(4), MIB, 4, Duration::from_millis(7))
                    .close(FileId(0))
                    .build()
            })
            .collect()
    }

    #[test]
    fn inert_fault_plan_matches_fault_free() {
        // An all-zero fault config consumes no randomness: the report must
        // be indistinguishable from a run with no plan at all.
        let inert = config().with_faults(tiers::faults::FaultConfig::with_seed(7));
        let (a, _) = Simulation::new(inert, one_file(mib(64)), readahead_scripts(), Readahead {
            window: MIB,
        })
        .run();
        let (b, _) = Simulation::new(config(), one_file(mib(64)), readahead_scripts(), Readahead {
            window: MIB,
        })
        .run();
        assert_eq!(a.rank_finish, b.rank_finish);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.prefetch_bytes, b.prefetch_bytes);
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.any());
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            Simulation::new(
                config().with_faults(chaos_faults(42)),
                one_file(mib(64)),
                readahead_scripts(),
                Readahead { window: MIB },
            )
            .run()
            .0
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rank_finish, b.rank_finish);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.summary(), b.summary());
        assert!(a.faults.injected > 0, "chaos config must actually inject: {:?}", a.faults);
    }

    #[test]
    fn offline_destination_reroutes_fetches_down_the_hierarchy() {
        // RAM (T0) is offline for the whole run: readahead into T0 must
        // land on NVMe (T1) instead, and the run must finish cleanly.
        let faults = tiers::faults::FaultConfig::with_seed(1).offline_window(
            TierId(0),
            Timestamp::ZERO,
            Timestamp::from_secs(1_000_000),
        );
        let (report, _) = Simulation::new(
            config().with_faults(faults),
            one_file(mib(64)),
            readahead_scripts(),
            Readahead { window: MIB },
        )
        .run();
        assert!(report.faults.rerouted > 0, "{:?}", report.faults);
        assert_eq!(report.tier_read_bytes(TierId(0)), 0, "offline tier served reads");
        assert!(report.tier_read_bytes(TierId(1)) > 0, "re-routed prefetches never hit");
        assert_eq!(report.faults.abandoned, 0);
    }

    #[test]
    fn all_cache_tiers_offline_abandons_fetches() {
        let horizon = Timestamp::from_secs(1_000_000);
        let faults = tiers::faults::FaultConfig::with_seed(1)
            .offline_window(TierId(0), Timestamp::ZERO, horizon)
            .offline_window(TierId(1), Timestamp::ZERO, horizon)
            .offline_window(TierId(2), Timestamp::ZERO, horizon);
        let (report, _) = Simulation::new(
            config().with_faults(faults),
            one_file(mib(64)),
            readahead_scripts(),
            Readahead { window: MIB },
        )
        .run();
        assert!(report.faults.abandoned > 0);
        assert_eq!(report.prefetch_bytes, 0, "nothing may be scheduled");
        assert_eq!(report.hit_bytes(), 0, "every read degrades to backing");
        assert_eq!(report.miss_bytes(), report.bytes_requested);
    }

    #[test]
    fn permanent_faults_abandon_transfers_and_roll_back_reservations() {
        let faults = tiers::faults::FaultConfig::with_seed(3).permanent(1.0);
        let (report, _) = Simulation::new(
            config().with_faults(faults),
            one_file(mib(64)),
            readahead_scripts(),
            Readahead { window: MIB },
        )
        .run();
        assert!(report.faults.abandoned > 0);
        assert!(report.faults.injected > 0);
        assert_eq!(report.prefetch_bytes, 0);
        assert_eq!(report.hit_bytes(), 0);
        // Abandoned transfers released their reservations: nothing may be
        // held on cache tiers at the end.
        assert!(report.tiers[0].peak_bytes <= MIB, "{}", report.tiers[0].peak_bytes);
    }

    #[test]
    fn transient_faults_retry_and_still_deliver() {
        // 30% transient, zero permanent, default budget of 3 retries: with
        // overwhelming probability every transfer eventually departs.
        let faults = tiers::faults::FaultConfig::with_seed(9).transient(0.30);
        let (report, _) = Simulation::new(
            config().with_faults(faults),
            one_file(mib(64)),
            readahead_scripts(),
            Readahead { window: MIB },
        )
        .run();
        assert!(report.faults.retried > 0, "{:?}", report.faults);
        assert!(report.prefetch_bytes > 0);
        assert!(report.hit_bytes() > 0, "retried transfers still serve hits");
    }

    #[test]
    fn dropped_events_lose_telemetry_not_data() {
        let faults =
            tiers::faults::FaultConfig::with_seed(5).event_faults(1.0, 0.0, Duration::ZERO);
        let (report, _) = Simulation::new(
            config().with_faults(faults),
            one_file(mib(64)),
            readahead_scripts(),
            Readahead { window: MIB },
        )
        .run();
        assert_eq!(report.events_delivered, 0, "every notification dropped");
        assert_eq!(report.prefetch_bytes, 0, "blind policy cannot prefetch");
        assert_eq!(report.bytes_requested, mib(64), "application I/O unaffected");
        assert_eq!(report.read_requests, 64);
        assert!(report.faults.injected >= 64);
    }

    #[test]
    fn delayed_events_arrive_late_but_arrive() {
        let faults = tiers::faults::FaultConfig::with_seed(5).event_faults(
            0.0,
            1.0,
            Duration::from_millis(1),
        );
        let (report, _) = Simulation::new(
            config().with_faults(faults),
            one_file(mib(64)),
            readahead_scripts(),
            Readahead { window: MIB },
        )
        .run();
        // 16 ranks × (open + 4 reads + close) = 96 notifications; the ones
        // landing after the last rank finishes are not delivered.
        assert!(report.events_delivered > 0 && report.events_delivered <= 96);
        assert_eq!(report.faults.injected, 96, "{:?}", report.faults);
        assert!(report.prefetch_bytes > 0, "1 ms late is still ahead of a 7 ms stride");
        assert_eq!(report.bytes_requested, mib(64));
    }

    #[test]
    fn slowdowns_stretch_the_makespan() {
        let slow = tiers::faults::FaultConfig::with_seed(2).slow_tier(TierId(3), 4.0);
        let scripts = || {
            vec![ScriptBuilder::new(ProcessId(0), AppId(0)).read(FileId(0), 0, mib(200)).build()]
        };
        let (fast, _) =
            Simulation::new(config(), one_file(mib(200)), scripts(), NoPrefetch).run();
        let (slowed, _) = Simulation::new(
            config().with_faults(slow),
            one_file(mib(200)),
            scripts(),
            NoPrefetch,
        )
        .run();
        assert!(
            slowed.seconds() > fast.seconds() * 3.0,
            "4x backing slowdown: {} vs {}",
            slowed.seconds(),
            fast.seconds()
        );
    }

    #[test]
    fn stray_ready_event_for_finished_rank_is_harmless() {
        // Full event-loop variant: seed a duplicate RankReady for a rank
        // with an empty script alongside a normal rank. The run must
        // complete without tripping the completion assertion.
        let scripts = vec![
            RankScript::new(ProcessId(0), AppId(0)),
            ScriptBuilder::new(ProcessId(1), AppId(0)).read(FileId(0), 0, MIB).build(),
        ];
        let mut sim = Simulation::new(config(), one_file(MIB), scripts, NoPrefetch);
        sim.push(Timestamp::ZERO, EventKind::RankReady(0));
        let (report, _) = sim.run();
        assert_eq!(report.rank_finish.len(), 2);
        assert_eq!(report.read_requests, 1);
    }
}
