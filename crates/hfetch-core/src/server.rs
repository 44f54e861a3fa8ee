//! The HFetch server: real-thread deployment (Fig. 1 of the paper).
//!
//! One server per node hosts the in-memory **event queue** tiers push into,
//! the **hardware monitor** daemons draining it into the auditor, the
//! **placement engine** on its own trigger thread, the **I/O clients** (one
//! worker per cache tier) moving real bytes between tier backends, and the
//! **agent manager** handing out [`crate::agent::HFetchAgent`]s. The auditor
//! and [`Executor`] are the simulator's, under a wall clock. The server is
//! the executor's [`Transfers`]: it reserves capacity at dispatch, and its
//! I/O clients report each job's completion or failure back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use dht::FxHashMap;
use events::event::{AccessKind, Event};
use events::monitor::{EventSink, HardwareMonitor, MonitorConfig};
use events::queue::EventQueue;
use events::registry::FileRegistry;
use events::shim::PosixShim;
use events::watch::WatchManager;
use parking_lot::Mutex;
use sim::engine::FetchOutcome;
use tiers::backend::{MemoryBackend, StorageBackend};
use tiers::capacity::CapacityLedger;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::mover::{DataMover, RetryPolicy};
use tiers::range::{segment_range, ByteRange};
use tiers::time::{Clock, WallClock};
use tiers::topology::Hierarchy;

use crate::auditor::Auditor;
use crate::config::HFetchConfig;
use crate::engine::{PlacementAction, PlacementEngine};
use crate::executor::{Executor, Transfers};

/// Aggregate server counters.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Bytes agents read from cache tiers.
    pub hit_bytes: AtomicU64,
    /// Bytes agents read from the backing store.
    pub miss_bytes: AtomicU64,
    /// Bytes moved into cache tiers by the I/O clients.
    pub prefetched_bytes: AtomicU64,
    /// Bytes evicted from cache tiers.
    pub evicted_bytes: AtomicU64,
    /// Fetches dropped after capacity stayed denied past the retry budget.
    pub denied_fetches: AtomicU64,
    /// Placement engine runs.
    pub engine_runs: AtomicU64,
    /// Copy attempts retried after a transient backend failure.
    pub retried_copies: AtomicU64,
    /// Fetches abandoned after a permanent failure, an offline tier, or an
    /// exhausted retry budget (the reservation is rolled back).
    pub failed_fetches: AtomicU64,
}

impl ServerStats {
    /// Byte hit ratio over agent reads so far.
    pub fn hit_ratio(&self) -> Option<f64> {
        let h = self.hit_bytes.load(Ordering::Relaxed);
        let m = self.miss_bytes.load(Ordering::Relaxed);
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }
}

/// One copy for the I/O clients: a `Fetch` or `Move` whose destination
/// capacity was reserved at dispatch, with its placement decision's span.
struct Job {
    action: PlacementAction,
    range: ByteRange,
    span: obs::SpanCtx,
}

/// Shared server state (the paper's "HFetch server core").
pub struct ServerInner {
    cfg: HFetchConfig,
    hierarchy: Hierarchy,
    auditor: Auditor,
    exec: Mutex<Executor>,
    /// Segments with a job in flight (one at a time per segment keeps its
    /// movements in plan order): the source a move released at dispatch,
    /// and whether a write made the copy stale.
    moving: Mutex<FxHashMap<SegmentId, (Option<TierId>, bool)>>,
    /// The I/O clients' job channel (`None` once shut down).
    jobs: Mutex<Option<Sender<Job>>>,
    backends: Vec<Arc<dyn StorageBackend>>,
    ledger: CapacityLedger,
    mover: DataMover,
    retry: RetryPolicy,
    registry: Arc<FileRegistry>,
    queue: EventQueue,
    clock: Arc<dyn Clock>,
    stats: ServerStats,
}

/// The server as the executor's transfer layer. Called with the executor
/// locked.
impl Transfers for &ServerInner {
    fn file_size(&self, file: FileId) -> u64 {
        self.auditor.file_size(file)
    }

    /// Backends report no liveness: an offline tier surfaces as failed
    /// fetches, which reconcile like any other failure.
    fn tier_online(&self, _tier: TierId) -> bool {
        true
    }

    /// A superseded action moves nothing: run after a retry reordered the
    /// queue, its copy could take the bytes from where the model wants them.
    fn fetch(&mut self, action: PlacementAction, range: ByteRange, engine: &PlacementEngine)
        -> Option<FetchOutcome> {
        let (segment, to) = action.target();
        if engine.location(segment) != Some(to) {
            return Some(FetchOutcome::default());
        }
        let mut moving = self.moving.lock();
        if moving.contains_key(&segment) {
            return None;
        }
        let newly = range.len - self.backend(to).covered_bytes(segment.file, range);
        if newly == 0 {
            return Some(FetchOutcome::default());
        }
        let jobs = self.jobs.lock();
        let Some(tx) = jobs.as_ref() else {
            return Some(FetchOutcome { abandoned: newly, ..Default::default() });
        };
        // A move releases its source's capacity at dispatch: the plan counts
        // the move as done, and a planned swap (A down, B up) would deadlock
        // if each side held its reservation until the other completed.
        let source = action.moved_from().map(|from| {
            let held = self.backend(from).covered_bytes(segment.file, range);
            (from, self.ledger.release_clamped(from, held))
        });
        if self.ledger.reserve(to, newly).is_err() {
            if let Some((from, released)) = source {
                let _ = self.ledger.reserve(from, released);
            }
            return Some(FetchOutcome { denied: newly, ..Default::default() });
        }
        moving.insert(segment, (action.moved_from(), false));
        let job = Job { action, range, span: engine.span_of(segment) };
        tx.send(job).expect("I/O clients run until their channel closes");
        Some(FetchOutcome { scheduled: newly, transfers: 1, ..Default::default() })
    }

    fn discard(&mut self, segment: SegmentId, range: ByteRange, tier: TierId) {
        let evicted = self.evict(segment.file, range, tier);
        // A move in flight out of `tier` released this capacity at dispatch.
        if self.moving.lock().get(&segment).map(|m| m.0) != Some(Some(tier)) {
            self.ledger.release_clamped(tier, evicted);
        }
        self.stats.evicted_bytes.fetch_add(evicted, Ordering::Relaxed);
    }

    fn invalidate(&mut self, segment: SegmentId, range: ByteRange) {
        if let Some((_, stale)) = self.moving.lock().get_mut(&segment) {
            *stale = true;
        }
        for (tier, _) in self.hierarchy.iter_cache() {
            self.discard(segment, range, tier);
        }
    }
}

impl ServerInner {
    /// The backend of `tier`.
    pub fn backend(&self, tier: TierId) -> &Arc<dyn StorageBackend> {
        &self.backends[tier.index()]
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// The configuration.
    pub fn config(&self) -> &HFetchConfig {
        &self.cfg
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The clock all components share.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Exports component counters — the event queue and the auditor's
    /// statistics-map shards — into the configured recorder. The counters
    /// are cumulative snapshots, so call once per run (shutdown does).
    pub fn export_obs(&self) {
        if self.cfg.obs.is_enabled() {
            self.queue.stats().export_obs(&self.cfg.obs);
            self.auditor.export_obs();
        }
    }

    /// The lifecycle span covering `(file, offset)` — the decision that
    /// staged whatever is cached there — so an agent's read chains back to
    /// the prefetch that served it. NONE (and lock-free) when not recording.
    pub fn placement_span(&self, file: FileId, offset: u64) -> obs::SpanCtx {
        if !self.cfg.obs.is_enabled() {
            return obs::SpanCtx::NONE;
        }
        self.exec.lock().engine().span_of(SegmentId::new(file, offset / self.cfg.segment_size))
    }

    /// Checks the engine's model against residency: every segment it places
    /// on a tier is fully resident on that tier's backend, no cache backend
    /// holds bytes of a segment it does not place there, and each tier's
    /// capacity ledger equals its resident bytes. Meaningful once
    /// [`HFetchServer::quiesce`] has returned; names the first mismatch.
    pub fn check_drift(&self) -> Result<(), String> {
        let exec = self.exec.lock();
        let (engine, size) = (exec.engine(), self.cfg.segment_size);
        for (segment, tier) in engine.placements() {
            let range = segment_range(segment.index, size, self.auditor.file_size(segment.file));
            if !self.backend(tier).resident(segment.file, range) {
                return Err(format!("{segment:?} is placed on {tier:?} but not resident there"));
            }
        }
        for (tier, _) in self.hierarchy.iter_cache() {
            let backend = self.backend(tier);
            let (used, held) = (self.ledger.used(tier), backend.used_bytes());
            if used != held {
                return Err(format!("{tier:?} accounts {used} bytes but holds {held}"));
            }
            for file in backend.files() {
                for held in backend.covered_ranges(file, ByteRange::new(0, u64::MAX)) {
                    for index in held.offset / size..held.end().div_ceil(size) {
                        let placed = engine.location(SegmentId::new(file, index));
                        if placed != Some(tier) {
                            return Err(format!("{tier:?} holds {file:?}#{index}, placed on {placed:?}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs `f` on the locked executor with this server as its transfer
    /// layer, then publishes the executor's counters.
    fn with_exec<R>(&self, f: impl FnOnce(&mut Executor, &mut &Self) -> R) -> R {
        let mut exec = self.exec.lock();
        let out = f(&mut exec, &mut &*self);
        self.stats.engine_runs.store(exec.engine().runs(), Ordering::Relaxed);
        self.stats.denied_fetches.store(exec.denied(), Ordering::Relaxed);
        out
    }

    /// Evicts `range` of `file` from `tier`, retrying transient faults;
    /// returns the bytes evicted (the caller settles their capacity).
    fn evict(&self, file: FileId, range: ByteRange, tier: TierId) -> u64 {
        let backend = self.backend(tier).as_ref();
        let sleep = &mut std::thread::sleep;
        self.mover.evict_with_retry(file, range, backend, &self.retry, sleep).unwrap_or(0)
    }

    /// I/O client body: copies a job's range from its fastest holder under
    /// a `transfer` span (`landing` on success), then reports to the
    /// executor.
    fn run_job(&self, Job { action, range, span }: Job) {
        let ((segment, to), backing) = (action.target(), self.hierarchy.backing());
        let file = segment.file;
        let released_from = action.moved_from();
        let src = (self.hierarchy.iter_cache().map(|(tier, _)| tier))
            .find(|&tier| tier != to && self.backend(tier).resident(file, range))
            .unwrap_or(backing);
        let obs = &self.cfg.obs;
        let at = || if obs.is_enabled() { self.clock.now().as_nanos() } else { 0 };
        let t_span = obs.span_start("transfer", span, at(), file.0, range.offset);
        // Transient faults are retried with slept backoff. Anything else — a
        // source changed under us, an offline tier, a permanent error, an
        // exhausted budget — fails the fetch: rolled back here, reconciled
        // by the executor.
        let (from_b, to_b) = (self.backend(src).as_ref(), self.backend(to).as_ref());
        let (retry, sleep, pair) = (&self.retry, &mut std::thread::sleep, (src.0, to.0));
        let copied =
            self.mover.copy_with_retry_recorded(file, range, from_b, to_b, retry, sleep, obs, pair);
        match &copied {
            Ok(receipt) => {
                let retried = u64::from(receipt.attempts - 1);
                self.stats.retried_copies.fetch_add(retried, Ordering::Relaxed);
                self.stats.prefetched_bytes.fetch_add(receipt.bytes, Ordering::Relaxed);
                obs.span_instant("landing", t_span, at(), file.0, range.offset);
                // Exclusive cache: remove from the (cache) source. Dispatch
                // already released a move's planned source.
                if src != backing {
                    let evicted = self.evict(file, range, src);
                    if released_from != Some(src) {
                        self.ledger.release_clamped(src, evicted);
                    }
                }
            }
            Err(_) => {
                self.stats.failed_fetches.fetch_add(1, Ordering::Relaxed);
                // Drop any partial prefix and return the range's accounting;
                // a move's source keeps its bytes, and takes theirs back.
                self.evict(file, range, to);
                self.ledger.release_clamped(to, range.len);
                if let Some(from) = released_from {
                    let _ = self.ledger.reserve(from, self.backend(from).covered_bytes(file, range));
                }
            }
        }
        obs.span_end(t_span, at());
        self.with_exec(|exec, io| {
            // A write or a newer plan may have overtaken the copy: bytes the
            // engine no longer places here are dropped again.
            let stale = self.moving.lock().remove(&segment).is_some_and(|m| m.1);
            if copied.is_ok() && (stale || exec.engine().location(segment) != Some(to)) {
                io.discard(segment, range, to);
            }
            match copied {
                Ok(_) => exec.transfer_done(io),
                Err(_) => exec.transfer_failed(action, io),
            }
        });
    }

    fn handle_event(&self, event: &Event) {
        let Event::Access(access) = event else { return };
        let (file, range, now) = (access.file, access.range, access.time);
        match access.kind {
            AccessKind::Open => {
                self.auditor.set_file_size(file, self.registry.size_of(file));
                self.auditor.start_epoch(file, now);
            }
            AccessKind::Read => {
                self.auditor.observe_read(file, range, access.process, now);
            }
            // Consistency: drop stale prefetched bytes everywhere.
            AccessKind::Write => self.with_exec(|e, io| e.write(&self.auditor, file, range, now, io)),
            AccessKind::Close => self.with_exec(|e, io| e.close(&self.auditor, file, now, io)),
        }
    }
}

struct ServerSink(Arc<ServerInner>);

impl EventSink for ServerSink {
    fn on_event(&self, event: &Event) {
        self.0.handle_event(event);
    }
}

/// A running HFetch server.
pub struct HFetchServer {
    inner: Arc<ServerInner>,
    shim: Arc<PosixShim>,
    monitor: Option<HardwareMonitor>,
    engine_thread: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl HFetchServer {
    /// Starts a server over explicit backends (`backends[i]` backs tier
    /// `i`; the last one is the backing store).
    pub fn start(
        cfg: HFetchConfig,
        hierarchy: Hierarchy,
        backends: Vec<Arc<dyn StorageBackend>>,
        daemons: usize,
    ) -> Self {
        cfg.validate();
        let tiers = hierarchy.len();
        assert_eq!(backends.len(), tiers, "one backend per tier (including the backing store)");
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let registry = Arc::new(FileRegistry::new());
        let queue = EventQueue::with_capacity(1 << 16);
        let backing = Arc::clone(&backends[hierarchy.backing().index()]);
        // The executor keeps at most `max_inflight_fetches` jobs
        // outstanding, so submitting never blocks.
        let (jobs, rx) = bounded(cfg.max_inflight_fetches);
        let inner = Arc::new(ServerInner {
            auditor: Auditor::new(cfg.clone()),
            exec: Mutex::new(Executor::new(&cfg, &hierarchy)),
            moving: Mutex::default(),
            jobs: Mutex::new(Some(jobs)),
            ledger: CapacityLedger::new(&hierarchy),
            cfg,
            hierarchy,
            backends,
            mover: DataMover::new(),
            retry: RetryPolicy::default(),
            registry: Arc::clone(&registry),
            queue: queue.clone(),
            clock: Arc::clone(&clock),
            stats: ServerStats::default(),
        });
        let watches = Arc::new(WatchManager::new());
        let shim = Arc::new(PosixShim::new(registry, watches, queue.clone(), clock, backing));

        // I/O clients: one worker per cache tier, all pulling from the
        // shared job channel (work-stealing keeps a busy tier from
        // starving). They exit when the channel closes.
        let io_threads = (0..inner.hierarchy.cache_tiers().max(1))
            .map(|i| {
                let (rx, inner) = (rx.clone(), Arc::clone(&inner));
                std::thread::Builder::new()
                    .name(format!("hfetch-io-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            inner.run_job(job);
                        }
                    })
                    .expect("spawn io client")
            })
            .collect();

        // Hardware monitor daemons feed the auditor.
        let monitor = HardwareMonitor::start(
            queue,
            Arc::new(ServerSink(Arc::clone(&inner))),
            MonitorConfig { daemons, poll_interval: Duration::from_millis(2), ..Default::default() },
        );

        // Engine trigger thread.
        let shutdown = Arc::new(AtomicBool::new(false));
        let engine_thread = {
            let (inner, shutdown) = (Arc::clone(&inner), Arc::clone(&shutdown));
            std::thread::Builder::new()
                .name("hfetch-engine".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        let now = inner.clock.now();
                        if !inner.with_exec(|exec, io| exec.maybe_run(&inner.auditor, now, io)) {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })
                .expect("spawn engine thread")
        };

        let (monitor, engine_thread) = (Some(monitor), Some(engine_thread));
        Self { inner, shim, monitor, engine_thread, io_threads, shutdown }
    }

    /// Convenience: a fully in-memory server (tests, examples).
    pub fn in_memory(cfg: HFetchConfig, hierarchy: Hierarchy) -> Self {
        let backends: Vec<Arc<dyn StorageBackend>> =
            (0..hierarchy.len()).map(|_| Arc::new(MemoryBackend::new()) as _).collect();
        Self::start(cfg, hierarchy, backends, 4)
    }

    /// Shared server state.
    pub fn inner(&self) -> &Arc<ServerInner> {
        &self.inner
    }

    /// The instrumented I/O shim applications go through.
    pub fn shim(&self) -> &Arc<PosixShim> {
        &self.shim
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Blocks until the event queue is drained, the engine has run over
    /// all pending updates, and the executor has no queued or in-flight
    /// work. Gives tests and examples a deterministic settle point.
    pub fn quiesce(&self) {
        let inner = &self.inner;
        loop {
            if let Some(m) = &self.monitor {
                m.drain();
            }
            // Allow in-flight daemon handoffs to land.
            std::thread::sleep(Duration::from_millis(5));
            let now = inner.clock.now();
            let idle = inner.with_exec(|exec, io| exec.tick(&inner.auditor, now, io));
            if idle && inner.queue.is_empty() && inner.auditor.pending_updates() == 0 {
                break;
            }
        }
    }

    /// Stops all threads, draining outstanding work first.
    pub fn shutdown(mut self) {
        self.quiesce();
        self.inner.export_obs();
        self.stop_engine();
        if let Some(m) = self.monitor.take() {
            m.stop();
        }
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the engine thread and closes the I/O clients' job channel.
    fn stop_engine(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        *self.inner.jobs.lock() = None;
    }
}

impl Drop for HFetchServer {
    fn drop(&mut self) {
        // Monitor and I/O threads stop via their own Drop / channel closure.
        self.stop_engine();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::{mib, MIB};

    fn small_hierarchy() -> Hierarchy {
        Hierarchy::with_budgets(mib(4), mib(8), mib(16))
    }

    #[test]
    fn server_starts_and_shuts_down() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        server.quiesce();
        server.shutdown();
    }

    #[test]
    fn open_event_triggers_epoch_staging() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let shim = Arc::clone(server.shim());
        shim.stage_file("/data/input", mib(2)).unwrap();
        let (h, _) = shim.fopen(
            "/data/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        // Staging should have prefetched the whole 2 MiB file into RAM.
        let ram = server.inner().backend(TierId(0));
        assert_eq!(ram.resident_bytes(h.file()), mib(2));
        assert!(server.stats().prefetched_bytes.load(Ordering::Relaxed) >= mib(2));
        shim.fclose(&h);
        server.quiesce();
        // Epoch end evicts.
        let ram = server.inner().backend(TierId(0));
        assert_eq!(ram.resident_bytes(h.file()), 0, "evicted on epoch end");
        server.shutdown();
    }

    /// Delegating backend that fails its first `fail_n` writes transiently
    /// and records the peak number of concurrent writes in `writes`
    /// (`[active, peak]`, shareable across tiers).
    struct FailsFirstWrites {
        inner: MemoryBackend,
        remaining: AtomicU64,
        writes: Arc<[AtomicU64; 2]>,
    }

    impl FailsFirstWrites {
        fn new(fail_n: u64) -> Self {
            Self::counting(fail_n, Arc::default())
        }

        fn counting(fail_n: u64, writes: Arc<[AtomicU64; 2]>) -> Self {
            Self { inner: MemoryBackend::new(), remaining: fail_n.into(), writes }
        }
    }

    impl StorageBackend for FailsFirstWrites {
        fn write(&self, file: FileId, offset: u64, data: &[u8]) -> tiers::error::Result<()> {
            if self.remaining.load(Ordering::SeqCst) > 0 {
                self.remaining.fetch_sub(1, Ordering::SeqCst);
                return Err(tiers::error::TierError::TransientIo { op: "write" });
            }
            let [active, peak] = &*self.writes;
            peak.fetch_max(active.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            // Hold the write open so overlapping copies would be seen.
            std::thread::sleep(Duration::from_millis(2));
            let out = self.inner.write(file, offset, data);
            active.fetch_sub(1, Ordering::SeqCst);
            out
        }
        fn read(&self, file: FileId, range: ByteRange) -> tiers::error::Result<bytes::Bytes> {
            self.inner.read(file, range)
        }
        fn evict(&self, file: FileId, range: ByteRange) -> tiers::error::Result<u64> {
            self.inner.evict(file, range)
        }
        fn delete(&self, file: FileId) -> tiers::error::Result<u64> {
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
    }

    fn backends_with_tier0(tier0: Arc<dyn StorageBackend>, n: usize) -> Vec<Arc<dyn StorageBackend>> {
        let mut v: Vec<Arc<dyn StorageBackend>> = vec![tier0];
        v.extend((1..n).map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>));
        v
    }

    #[test]
    fn transient_write_faults_are_retried_through() {
        let hierarchy = small_hierarchy();
        let n = hierarchy.len();
        let tier0 = Arc::new(FailsFirstWrites::new(2));
        let server = HFetchServer::start(
            HFetchConfig::default(),
            hierarchy,
            backends_with_tier0(tier0, n),
            2,
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/flaky/input", mib(2)).unwrap();
        let (h, _) = shim.fopen(
            "/flaky/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        // The two injected failures were retried, not fatal: staging still
        // landed the whole file in RAM and nothing was abandoned.
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(h.file()), mib(2));
        assert_eq!(server.stats().retried_copies.load(Ordering::Relaxed), 2);
        assert_eq!(server.stats().failed_fetches.load(Ordering::Relaxed), 0);
        shim.fclose(&h);
        server.shutdown();
    }

    #[test]
    fn offline_tier_rolls_back_and_recovers() {
        use tiers::faults::{FaultConfig, FaultPlan, FlakyBackend};
        let hierarchy = small_hierarchy();
        let n = hierarchy.len();
        // Inert plan: the only fault is the explicit offline switch.
        let flaky = Arc::new(FlakyBackend::new(
            Arc::new(MemoryBackend::new()),
            TierId(0),
            FaultPlan::new(FaultConfig::with_seed(0)),
        ));
        flaky.set_offline(true);
        let server = HFetchServer::start(
            HFetchConfig::default(),
            hierarchy,
            backends_with_tier0(Arc::clone(&flaky) as Arc<dyn StorageBackend>, n),
            2,
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/degraded/input", mib(1)).unwrap();
        let (h, _) = shim.fopen(
            "/degraded/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        // Every staging fetch into the offline RAM tier failed and was
        // rolled back: no bytes resident, no capacity leaked, no panic.
        assert!(server.stats().failed_fetches.load(Ordering::Relaxed) > 0);
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(h.file()), 0);
        shim.fclose(&h);
        server.quiesce();
        // Tier repaired: a fresh epoch stages successfully.
        flaky.set_offline(false);
        let (h2, _) = shim.fopen(
            "/degraded/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(h2.file()), mib(1));
        shim.fclose(&h2);
        server.shutdown();
    }

    #[test]
    fn write_invalidates_prefetched_bytes() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let shim = Arc::clone(server.shim());
        shim.stage_file("/f", MIB).unwrap();
        let (r, _) = shim.fopen(
            "/f",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        assert!(server.inner().backend(TierId(0)).resident_bytes(r.file()) > 0);
        let (w, _) = shim.fopen(
            "/f",
            events::shim::OpenMode::Write,
            tiers::ids::ProcessId(1),
            tiers::ids::AppId(1),
        );
        shim.fwrite_at(&w, 0, &vec![0u8; MIB as usize]).unwrap();
        server.quiesce();
        let cached: u64 = (0..3)
            .map(|i| server.inner().backend(TierId(i)).resident_bytes(r.file()))
            .sum();
        assert_eq!(cached, 0, "write invalidated all cached bytes");
        shim.fclose(&r);
        shim.fclose(&w);
        server.shutdown();
    }

    #[test]
    fn inflight_fetches_stay_within_the_configured_bound() {
        let hierarchy = small_hierarchy();
        let writes: Arc<[AtomicU64; 2]> = Arc::default();
        let mut backends: Vec<Arc<dyn StorageBackend>> = (0..hierarchy.cache_tiers())
            .map(|_| Arc::new(FailsFirstWrites::counting(0, Arc::clone(&writes))) as _)
            .collect();
        backends.push(Arc::new(MemoryBackend::new()));
        let cfg = HFetchConfig { max_inflight_fetches: 1, ..Default::default() };
        let server = HFetchServer::start(cfg, hierarchy, backends, 2);
        let shim = Arc::clone(server.shim());
        shim.stage_file("/bounded", mib(8)).unwrap();
        let (h, _) = shim.fopen(
            "/bounded",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        let landed: u64 =
            (0..3).map(|i| server.inner().backend(TierId(i)).resident_bytes(h.file())).sum();
        assert_eq!(landed, mib(8), "every staged byte lands");
        assert_eq!(writes[1].load(Ordering::SeqCst), 1, "one copy in flight at a time");
        server.inner().check_drift().unwrap();
        shim.fclose(&h);
        server.shutdown();
    }

    #[test]
    fn model_matches_residency_through_faults() {
        use crate::agent::HFetchAgent;
        use tiers::faults::{FaultConfig, FaultPlan, FlakyBackend};
        use tiers::ids::{AppId, ProcessId};
        let hierarchy = small_hierarchy();
        let n = hierarchy.len();
        // RAM fails 10% of its data operations transiently, and goes
        // offline for one epoch.
        let flaky = Arc::new(FlakyBackend::new(
            Arc::new(MemoryBackend::new()),
            TierId(0),
            FaultPlan::new(FaultConfig::with_seed(11).transient(0.1)),
        ));
        let server = HFetchServer::start(
            HFetchConfig::default(),
            hierarchy,
            backends_with_tier0(Arc::clone(&flaky) as Arc<dyn StorageBackend>, n),
            2,
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/chaos/a", mib(6)).unwrap();
        shim.stage_file("/chaos/b", mib(2)).unwrap();
        let agent = HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(0), AppId(0));
        let settle = || {
            server.quiesce();
            server.inner().check_drift().unwrap();
        };

        // Transient faults: staging, reads and promotions retry through them.
        let a = agent.open("/chaos/a");
        settle();
        for _ in 0..3 {
            for i in 0..6 {
                agent.read(&a, ByteRange::new(mib(i), MIB)).unwrap();
            }
        }
        settle();
        agent.close(&a);
        settle();

        // RAM offline: staging into it fails, and the model lets go.
        flaky.set_offline(true);
        let b = agent.open("/chaos/b");
        settle();
        assert!(server.stats().failed_fetches.load(Ordering::Relaxed) > 0);
        agent.close(&b);
        settle();

        // Repaired: a fresh epoch stages into RAM again.
        flaky.set_offline(false);
        let b = agent.open("/chaos/b");
        settle();
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(b.file()), mib(2));
        agent.close(&b);
        settle();
        server.shutdown();
    }
}
