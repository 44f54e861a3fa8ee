//! HFetch as a simulator policy.
//!
//! [`HFetchPolicy`] feeds the simulator's open/read/write/close callbacks to
//! the [`Auditor`], and the placement [`Executor`] carries out the engine's
//! plan through [`SimCtl`]: this is how the paper's evaluation figures are
//! regenerated. The engine is *triggered by score changes, not by
//! application accesses* (§III-A): enough pending updates, or the interval.

use sim::engine::{FetchOutcome, SimCtl};
use sim::policy::{PrefetchPolicy, TransferDone};
use tiers::ids::{AppId, FileId, ProcessId, SegmentId, TierId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

use crate::auditor::Auditor;
use crate::config::HFetchConfig;
use crate::engine::{PlacementAction, PlacementEngine};
use crate::executor::{Executor, Transfers};

/// HFetch, packaged for the simulator.
pub struct HFetchPolicy {
    cfg: HFetchConfig,
    auditor: Auditor,
    exec: Executor,
}

impl HFetchPolicy {
    /// Creates the policy over the given hierarchy.
    pub fn new(cfg: HFetchConfig, hierarchy: &Hierarchy) -> Self {
        cfg.validate();
        let exec = Executor::new(&cfg, hierarchy);
        Self { auditor: Auditor::new(cfg.clone()), exec, cfg }
    }

    /// The auditor (exposed for inspection in tests and examples).
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// The placement engine (exposed for inspection).
    pub fn engine(&self) -> &PlacementEngine {
        self.exec.engine()
    }

    /// Total placement actions executed.
    pub fn actions_executed(&self) -> u64 {
        self.exec.executed()
    }
}

/// The simulator executes synchronously: fault rolls, reroutes and denials
/// are all known when `fetch_traced` returns.
impl Transfers for SimCtl<'_> {
    fn file_size(&self, file: FileId) -> u64 {
        SimCtl::file_size(self, file)
    }

    fn tier_online(&self, tier: TierId) -> bool {
        SimCtl::tier_online(self, tier)
    }

    fn backing_free(&self) -> bool {
        SimCtl::backing_free(self)
    }

    fn fetch(&mut self, action: PlacementAction, range: ByteRange, engine: &PlacementEngine)
        -> FetchOutcome {
        let (segment, to) = action.target();
        self.fetch_traced(segment.file, range, to, engine.span_of(segment))
    }

    fn land_read(&mut self, action: PlacementAction, range: ByteRange, engine: &PlacementEngine)
        -> FetchOutcome {
        let (segment, to) = action.target();
        SimCtl::land_read(self, segment.file, range, to, engine.span_of(segment))
    }

    fn discard(&mut self, segment: SegmentId, range: ByteRange, tier: TierId) {
        SimCtl::discard(self, segment.file, range, tier);
    }
}

impl PrefetchPolicy for HFetchPolicy {
    fn name(&self) -> &str {
        "hfetch"
    }

    fn on_open(
        &mut self,
        file: FileId,
        _process: ProcessId,
        _app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.auditor.set_file_size(file, ctl.file_size(file));
        self.auditor.start_epoch(file, now);
        self.exec.maybe_run(&self.auditor, now, ctl);
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        _app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.auditor.observe_read(file, range, process, now);
        self.exec.maybe_run(&self.auditor, now, ctl);
        self.exec.land_read(file, range, ctl);
    }

    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        _process: ProcessId,
        _app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        // The simulator has already invalidated cached residency; the
        // executor keeps the engine's placement model in sync.
        self.exec.write(&self.auditor, file, range, now, ctl);
    }

    fn on_close(
        &mut self,
        file: FileId,
        _process: ProcessId,
        _app: AppId,
        now: Timestamp,
        _ctl: &mut SimCtl<'_>,
    ) {
        self.exec.close(&self.auditor, file, now);
    }

    fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.exec.tick(&self.auditor, now, ctl);
    }

    fn tick_interval(&self) -> Option<std::time::Duration> {
        Some(self.cfg.reactiveness.interval)
    }

    fn on_transfer_done(&mut self, done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        // A fetch's transfers lie within its segment.
        let segment = SegmentId::new(done.file, done.range.offset / self.cfg.segment_size);
        self.exec.transfer_done(segment, ctl);
    }

    fn on_finish(&mut self, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.exec.finish(ctl);
        // End-of-run telemetry: the auditor's DHT shard counters and the
        // ingestion lock/queue statistics land in the ObsReport, where the
        // obs-diff gate can watch them. No-op when the recorder is off.
        self.auditor.export_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::report::SimReport;
    use sim::policy::NoPrefetch;
    use sim::script::{RankScript, ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::units::{gib, mib, MIB};

    fn sequential_workload(
        ranks: u32,
        per_rank_mib: u64,
        steps: u32,
        compute: Duration,
    ) -> (Vec<SimFile>, Vec<RankScript>) {
        let total = mib(per_rank_mib) * ranks as u64;
        let files = vec![SimFile { id: FileId(0), size: total }];
        let step_bytes = mib(per_rank_mib) / steps as u64;
        let scripts = (0..ranks)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(0))
                    .open(FileId(0))
                    .timestep_reads(
                        FileId(0),
                        i as u64 * mib(per_rank_mib),
                        step_bytes,
                        steps,
                        compute,
                    )
                    .close(FileId(0))
                    .build()
            })
            .collect();
        (files, scripts)
    }

    #[test]
    fn hfetch_beats_no_prefetching_on_sequential_workload() {
        let hierarchy = Hierarchy::with_budgets(gib(1), gib(2), gib(4));
        let (files, scripts) = sequential_workload(16, 64, 8, Duration::from_millis(200));

        let hfetch = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        let (h_report, policy) = Simulation::new(
            SimConfig::new(hierarchy.clone()).with_nodes(2),
            files.clone(),
            scripts.clone(),
            hfetch,
        )
        .run();
        let (n_report, _) = Simulation::new(
            SimConfig::new(hierarchy).with_nodes(2),
            files,
            scripts,
            NoPrefetch,
        )
        .run();

        assert!(policy.actions_executed() > 0);
        let hit = h_report.hit_ratio().unwrap();
        assert!(hit > 0.5, "hfetch hit ratio {hit}");
        assert!(
            h_report.seconds() < n_report.seconds(),
            "hfetch {} should beat none {}",
            h_report.seconds(),
            n_report.seconds()
        );
    }

    /// One rank runs `epochs`, each opening a file, waiting for staging,
    /// reading the whole file and closing it, on 8 MiB of cache.
    fn epochs_on_a_small_cache(files: &[u64], epochs: &[u64]) -> (SimReport, HFetchPolicy) {
        let hierarchy = Hierarchy::with_budgets(mib(2), mib(2), mib(4));
        let files = files.iter().map(|&f| SimFile { id: FileId(f), size: mib(8) }).collect();
        let mut b = ScriptBuilder::new(ProcessId(0), AppId(0));
        for &f in epochs {
            b = b
                .open(FileId(f))
                .compute(Duration::from_secs(2)) // staging completes
                .read(FileId(f), 0, mib(8))
                .close(FileId(f))
                .compute(Duration::from_secs(2)); // the engine runs after close
        }
        let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        Simulation::new(SimConfig::new(hierarchy), files, vec![b.build()], policy).run()
    }

    #[test]
    fn epoch_end_cools_a_file_where_it_sits() {
        let (report, policy) = epochs_on_a_small_cache(&[0], &[0]);
        assert_eq!(report.hit_ratio(), Some(1.0));
        assert_eq!(report.evicted_bytes, 0, "a closed file keeps its place: {report:?}");
        let engine = policy.engine();
        assert_eq!(engine.placed_segments(), 8);
        assert!(engine.placements().all(|(s, _)| engine.score_of(s) == Some(0.0)));
    }

    #[test]
    fn a_file_opened_after_a_closed_one_takes_its_room() {
        let (report, policy) = epochs_on_a_small_cache(&[0, 1], &[0, 1]);
        assert_eq!(report.hit_ratio(), Some(1.0));
        assert_eq!(report.evicted_bytes, mib(8), "the cold file gave up its room: {report:?}");
        assert!(policy.engine().placements().all(|(s, _)| s.file == FileId(1)));
    }

    #[test]
    fn reopening_a_closed_file_reads_no_new_backing_store_bytes() {
        let (report, policy) = epochs_on_a_small_cache(&[0], &[0, 0]);
        assert_eq!(report.hit_ratio(), Some(1.0));
        assert_eq!(report.prefetch_bytes, mib(8), "the re-open fetched again: {report:?}");
        assert_eq!(report.evicted_bytes, 0);
        assert_eq!(policy.engine().placed_segments(), 8);
    }

    #[test]
    fn repeated_epochs_benefit_from_saved_heatmaps() {
        // A repetitive workload: the same 32 MiB region is read in two
        // epochs. The second epoch should see a (much) higher hit ratio
        // because the heatmap stages the hot region at open time.
        let hierarchy = Hierarchy::with_budgets(mib(64), mib(64), mib(64));
        let files = vec![SimFile { id: FileId(0), size: mib(32) }];
        let mut b = ScriptBuilder::new(ProcessId(0), AppId(0));
        for _ in 0..2 {
            b = b
                .open(FileId(0))
                .timestep_reads(FileId(0), 0, MIB, 32, Duration::from_millis(20))
                .close(FileId(0))
                .compute(Duration::from_millis(500));
        }
        let scripts = vec![b.build()];
        let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        let (report, _) =
            Simulation::new(SimConfig::new(hierarchy), files, scripts, policy).run();
        // Over both epochs at least half the bytes must be hits (the first
        // epoch warms up; the second is mostly hits).
        assert!(
            report.hit_ratio().unwrap() > 0.5,
            "two-epoch hit ratio {:?}",
            report.hit_ratio()
        );
    }

    #[test]
    fn hot_segments_end_up_in_ram() {
        // One segment is read repeatedly by many ranks; it must be placed
        // in RAM (tier 0) and reads served from there.
        let hierarchy = Hierarchy::with_budgets(mib(2), mib(4), mib(8));
        let files = vec![SimFile { id: FileId(0), size: mib(16) }];
        let scripts: Vec<RankScript> = (0..4)
            .map(|p| {
                let mut b = ScriptBuilder::new(ProcessId(p), AppId(0)).open(FileId(0));
                for _ in 0..6 {
                    b = b.compute(Duration::from_millis(100)).read(FileId(0), 0, MIB);
                }
                b.close(FileId(0)).build()
            })
            .collect();
        let policy = HFetchPolicy::new(
            HFetchConfig {
                lookahead: 0,
                reactiveness: crate::config::Reactiveness::high(),
                ..Default::default()
            },
            &hierarchy,
        );
        let (report, policy) =
            Simulation::new(SimConfig::new(hierarchy), files, scripts, policy).run();
        assert!(report.tier_read_bytes(tiers::ids::TierId(0)) > 0, "RAM served reads");
        // After the run the auditor must show segment 0 as the hottest.
        let heat = policy.auditor().snapshot_heatmap(FileId(0), Timestamp::from_secs(100));
        assert_eq!(heat.hottest_first()[0], 0);
    }

    #[test]
    fn survives_chaos_with_graceful_degradation() {
        // The acceptance scenario: RAM goes offline mid-run, 10% of
        // transfers fail transiently, 2% permanently, and some policy
        // events are dropped or delayed. The workload must complete
        // without panic, the fault counters must show actual degradation,
        // and both models must stay internally consistent.
        let hierarchy = Hierarchy::with_budgets(mib(16), mib(64), mib(256));
        let faults = tiers::faults::FaultConfig::with_seed(77)
            .transient(0.10)
            .permanent(0.02)
            .offline_window(
                tiers::ids::TierId(0),
                Timestamp::from_millis(500),
                Timestamp::from_secs(4),
            )
            .event_faults(0.05, 0.05, Duration::from_millis(5));
        let (files, scripts) = sequential_workload(8, 32, 16, Duration::from_millis(30));
        let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        let (report, policy) = Simulation::new(
            SimConfig::new(hierarchy).with_faults(faults),
            files,
            scripts,
            policy,
        )
        .run();
        assert!(report.faults.injected > 0, "{:?}", report.faults);
        assert!(report.faults.retried > 0, "{:?}", report.faults);
        assert!(report.bytes_requested > 0);
        policy.engine().check_invariants().unwrap();
    }

    #[test]
    fn chaos_runs_with_equal_seeds_are_identical() {
        let run = |seed: u64| {
            let hierarchy = Hierarchy::with_budgets(mib(16), mib(64), mib(256));
            let faults = tiers::faults::FaultConfig::with_seed(seed)
                .transient(0.10)
                .permanent(0.02)
                .offline_window(
                    tiers::ids::TierId(0),
                    Timestamp::from_millis(500),
                    Timestamp::from_secs(4),
                )
                .event_faults(0.05, 0.05, Duration::from_millis(5));
            let (files, scripts) = sequential_workload(8, 32, 16, Duration::from_millis(30));
            let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
            Simulation::new(SimConfig::new(hierarchy).with_faults(faults), files, scripts, policy)
                .run()
                .0
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed must replay identically");
        let c = run(6);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds should produce different fault sequences"
        );
    }

    #[test]
    fn enabled_recorder_never_perturbs_the_simulation() {
        // Observation-freeness across the whole stack: the same workload
        // with the recorder threaded through both the policy (auditor,
        // placement engine) and the simulator must produce a byte-
        // identical report to a run with the default disabled recorder.
        // The sim-kernel benchmark records the cost side of this contract
        // (`bench_results/BENCH_sim_kernel.json`, obs-off vs obs-on).
        let run = |rec: Option<obs::Recorder>| {
            let hierarchy = Hierarchy::with_budgets(mib(16), mib(64), mib(256));
            let (files, scripts) = sequential_workload(8, 32, 16, Duration::from_millis(30));
            let mut cfg = HFetchConfig::default();
            let mut sim_cfg = SimConfig::new(hierarchy.clone());
            if let Some(rec) = rec {
                cfg.obs = rec.clone();
                sim_cfg = sim_cfg.with_obs(rec);
            }
            let policy = HFetchPolicy::new(cfg, &hierarchy);
            Simulation::new(sim_cfg, files, scripts, policy).run().0
        };
        let plain = run(None);
        let rec = obs::Recorder::enabled();
        let observed = run(Some(rec.clone()));
        assert_eq!(
            format!("{plain:?}"),
            format!("{observed:?}"),
            "recording must not perturb the run"
        );
        // And the observation itself is substantive: placement decisions
        // and epoch brackets landed in the trace.
        let report = rec.report();
        assert!(report.counter("placement.events").unwrap_or(0) > 0, "{report:?}");
        assert!(report.trace_events() > 0);
        assert!(report.histogram("auditor.drain_latency_ns").is_some(), "{report:?}");
    }

    /// Tentpole acceptance: replay the span stream of a full HFetch run and
    /// check every structural invariant of the causal lifecycle trees —
    /// unique ids, parents started before children, child roots inherited
    /// from parents, every span closed, every lifecycle stage present, one
    /// `app_read` span per application read, and at least one read causally
    /// chained into a prefetch lifecycle (non-root parent).
    #[test]
    fn span_stream_forms_closed_causal_trees() {
        use std::collections::{HashMap, HashSet};
        let hierarchy = Hierarchy::with_budgets(mib(16), mib(64), mib(256));
        let (files, scripts) = sequential_workload(8, 32, 16, Duration::from_millis(30));
        let rec = obs::Recorder::enabled();
        let cfg = HFetchConfig { obs: rec.clone(), ..HFetchConfig::default() };
        let sim_cfg = SimConfig::new(hierarchy.clone()).with_obs(rec.clone());
        let policy = HFetchPolicy::new(cfg, &hierarchy);
        let (report, _) = Simulation::new(sim_cfg, files, scripts, policy).run();

        // id -> (parent, root, name)
        let mut started: HashMap<u64, (u64, u64, &'static str)> = HashMap::new();
        let mut ended: HashSet<u64> = HashSet::new();
        for ev in rec.trace_events() {
            match ev {
                obs::TraceEvent::SpanStart { id, parent, root, name, .. } => {
                    assert!(!started.contains_key(&id), "span id {id} reused");
                    if parent == 0 {
                        assert_eq!(root, id, "a root span is its own root");
                    } else {
                        let (_, proot, pname) =
                            started.get(&parent).unwrap_or_else(|| {
                                panic!("span {id} ({name}) started before its parent {parent}")
                            });
                        assert_eq!(*proot, root, "{name} root differs from parent {pname}");
                    }
                    started.insert(id, (parent, root, name));
                }
                obs::TraceEvent::SpanEnd { id, .. } => {
                    assert!(started.contains_key(&id), "span end without start: {id}");
                    ended.insert(id);
                }
                _ => {}
            }
        }
        assert!(!started.is_empty(), "an observed run must emit spans");
        for (id, (_, _, name)) in &started {
            assert!(ended.contains(id), "span {id} ({name}) never closed");
        }
        let names: HashSet<&str> = started.values().map(|&(_, _, n)| n).collect();
        for stage in ["ingest", "drain", "decision", "transfer", "landing", "app_read"] {
            assert!(names.contains(stage), "missing `{stage}` spans, got {names:?}");
        }
        let app_reads: Vec<&(u64, u64, &'static str)> =
            started.values().filter(|(_, _, n)| *n == "app_read").collect();
        assert_eq!(
            app_reads.len() as u64,
            report.read_requests,
            "exactly one app_read span per application read"
        );
        assert!(
            app_reads.iter().any(|(parent, _, _)| *parent != 0),
            "at least one read must chain into a prefetch lifecycle"
        );
    }

    /// HFetch whose `on_finish` lists every cached segment the model does
    /// not place on the tier that holds it.
    struct DriftCheck {
        inner: HFetchPolicy,
        unplaced: Vec<(SegmentId, TierId)>,
    }

    impl PrefetchPolicy for DriftCheck {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn on_open(&mut self, f: FileId, p: ProcessId, a: AppId, now: Timestamp, ctl: &mut SimCtl<'_>) {
            self.inner.on_open(f, p, a, now, ctl);
        }
        fn on_read(
            &mut self,
            f: FileId,
            r: ByteRange,
            p: ProcessId,
            a: AppId,
            now: Timestamp,
            ctl: &mut SimCtl<'_>,
        ) {
            self.inner.on_read(f, r, p, a, now, ctl);
        }
        fn on_close(&mut self, f: FileId, p: ProcessId, a: AppId, now: Timestamp, ctl: &mut SimCtl<'_>) {
            self.inner.on_close(f, p, a, now, ctl);
        }
        fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
            self.inner.on_tick(now, ctl);
        }
        fn tick_interval(&self) -> Option<Duration> {
            self.inner.tick_interval()
        }
        fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, ctl: &mut SimCtl<'_>) {
            self.inner.on_transfer_done(done, now, ctl);
        }
        fn on_finish(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
            self.inner.on_finish(now, ctl);
            let size = self.inner.cfg.segment_size;
            for (file, tier, _) in ctl.resident_entries() {
                let whole = ByteRange::new(0, ctl.file_size(file));
                for held in ctl.covered_on(file, whole, tier) {
                    for index in held.offset / size..held.end().div_ceil(size) {
                        let segment = SegmentId::new(file, index);
                        if self.inner.engine().location(segment) != Some(tier) {
                            self.unplaced.push((segment, tier));
                        }
                    }
                }
            }
        }
    }

    /// A staged fetch still queued when its file's last reader closes must
    /// not land on a tier after the model dropped the segment.
    #[test]
    fn no_cached_segment_outlives_its_placement() {
        let hierarchy = Hierarchy::with_budgets(mib(64), mib(64), mib(64));
        let files = vec![SimFile { id: FileId(0), size: mib(128) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0)) // stages 128 segments as PFS channels free up
            .compute(Duration::from_millis(50))
            .close(FileId(0))
            .compute(Duration::from_millis(200)) // queued fetches keep landing
            .build()];
        let cfg = HFetchConfig { max_inflight_fetches: 1, ..Default::default() };
        let policy = DriftCheck { inner: HFetchPolicy::new(cfg, &hierarchy), unplaced: Vec::new() };
        let (report, policy) =
            Simulation::new(SimConfig::new(hierarchy), files, scripts, policy).run();
        assert!(report.prefetch_bytes > 0, "staging fetched before the close");
        let engine = policy.inner.engine();
        assert!(engine.placements().all(|(s, _)| engine.score_of(s) == Some(0.0)), "all cooled");
        assert!(policy.unplaced.is_empty(), "cached but not placed: {:?}", policy.unplaced);
    }

    /// Four ranks each stream their own file through one demand slot, so
    /// lookahead fetches queue behind it and reads catch up with them. A
    /// read that misses on a segment whose fetch waits lands that fetch
    /// from its own bytes: the backing store serves each byte once, to a
    /// read or to a transfer, never to both.
    #[test]
    fn each_byte_crosses_the_backing_store_once() {
        let hierarchy = Hierarchy::with_budgets(mib(64), mib(64), mib(64));
        let files: Vec<SimFile> = (0..4).map(|f| SimFile { id: FileId(f), size: mib(16) }).collect();
        let scripts = (0..4)
            .map(|r| {
                ScriptBuilder::new(ProcessId(r), AppId(0))
                    .open(FileId(u64::from(r)))
                    .timestep_reads(FileId(u64::from(r)), 0, MIB, 16, Duration::from_millis(5))
                    .close(FileId(u64::from(r)))
                    .build()
            })
            .collect();
        let rec = obs::Recorder::enabled();
        let cfg = HFetchConfig {
            max_inflight_fetches: 1,
            epoch_base_score: 0.0,
            reactiveness: crate::config::Reactiveness::high(),
            obs: rec.clone(),
            ..Default::default()
        };
        let policy = HFetchPolicy::new(cfg, &hierarchy);
        let sim = SimConfig::new(hierarchy).with_obs(rec.clone());
        let (report, _) = Simulation::new(sim, files, scripts, policy).run();
        let obs = rec.report();
        let from_backing = |key: &str| -> u64 {
            (0..3).filter_map(|t| obs.counter(&format!("{key}{{from=3,to={t}}}"))).sum()
        };
        let fetched = from_backing("sim.fetch.bytes");
        let filled = from_backing("sim.fetch.read_fill_bytes");
        assert!(filled > 0 && obs.counter("executor.read_fills").is_some(), "no read landed a fetch");
        assert_eq!(report.tier_read_bytes(TierId(3)) + fetched, mib(64), "filled {filled}");
    }

    #[test]
    fn writes_keep_model_consistent() {
        let hierarchy = Hierarchy::with_budgets(mib(4), mib(4), mib(4));
        let files = vec![SimFile { id: FileId(0), size: mib(4) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .compute(Duration::from_secs(1))
            .read(FileId(0), 0, MIB)
            .write(FileId(0), 0, MIB)
            .compute(Duration::from_secs(1))
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        let (report, policy) =
            Simulation::new(SimConfig::new(hierarchy), files, scripts, policy).run();
        assert!(report.invalidated_bytes >= MIB);
        policy.engine().check_invariants().unwrap();
    }

    /// A scaled-down `sim_large_file`: 48 ranks each own a 1 GiB stripe of
    /// one file 9x the cache, and each epoch re-reads half of the previous
    /// one's range. RAM : NVMe : BB = 1 : 2 : 4, one ninth of the file in all.
    fn large_file_shape() -> (Hierarchy, Vec<SimFile>, Vec<RankScript>) {
        let (ranks, epochs, steps) = (48u32, 3u32, 16u32);
        let file = FileId(0);
        let files = vec![SimFile { id: file, size: gib(1) * u64::from(ranks) }];
        // Xorshift: each rank's start within its stripe, and compute jitter.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let scripts: Vec<RankScript> = (0..ranks)
            .map(|r| {
                let base = u64::from(r) * gib(1) + next() % 64 * MIB;
                let mut b = ScriptBuilder::new(ProcessId(r), AppId(0));
                for epoch in 0..epochs {
                    b = b.open(file);
                    for step in 0..steps {
                        let offset = base + u64::from(epoch * steps / 2 + step) * MIB;
                        let compute = Duration::from_micros(800 + next() % 400);
                        b = b.compute(compute).read(file, offset, MIB);
                    }
                    b = b.close(file).barrier(epoch);
                }
                b.build()
            })
            .collect();
        let unit = gib(1) * u64::from(ranks) / 9 / 7;
        (Hierarchy::with_budgets(unit, 2 * unit, 4 * unit), files, scripts)
    }

    /// On [`large_file_shape`] the PFS, not the cache, bounds the run, so
    /// staging may use only the backing-store time the ranks' misses leave
    /// idle: HFetch then finishes no later than `NoPrefetch`.
    #[test]
    fn staging_on_a_saturated_pfs_costs_no_makespan() {
        let (hierarchy, files, scripts) = large_file_shape();
        let sim = SimConfig::new(hierarchy.clone()).with_nodes(2);
        let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        let (hfetch, _) =
            Simulation::new(sim.clone(), files.clone(), scripts.clone(), policy).run();
        let (none, _) = Simulation::new(sim, files, scripts, NoPrefetch).run();
        assert!(hfetch.hit_ratio().unwrap() > 0.5, "hit ratio {:?}", hfetch.hit_ratio());
        assert!(
            hfetch.seconds() <= none.seconds(),
            "hfetch {} s, none {} s",
            hfetch.seconds(),
            none.seconds()
        );
    }

    /// FNV-1a over `bytes`, continuing from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Every placement decision HFetch makes on [`large_file_shape`], in
    /// order, and the simulator's report, hashed into one pinned digest.
    /// Engine and auditor speed-ups must leave it unchanged: a change here
    /// is a change of behaviour, not of cost.
    #[test]
    fn large_file_decision_stream_is_pinned() {
        let (hierarchy, files, scripts) = large_file_shape();
        let rec = obs::Recorder::enabled();
        let sim = SimConfig::new(hierarchy.clone()).with_nodes(2).with_obs(rec.clone());
        let cfg = HFetchConfig { obs: rec.clone(), ..HFetchConfig::default() };
        let policy = HFetchPolicy::new(cfg, &hierarchy);
        let (report, _) = Simulation::new(sim, files, scripts, policy).run();
        let mut digest = 0xcbf2_9ce4_8422_2325;
        let mut decisions = 0;
        for ev in rec.trace_events() {
            if let obs::TraceEvent::Placement(p) = ev {
                decisions += 1;
                digest = fnv1a(digest, format!("{p:?}").as_bytes());
            }
        }
        digest = fnv1a(digest, format!("{report:?}").as_bytes());
        assert_eq!((decisions, format!("{digest:016x}")), (9728, "a0e16ec826cb8780".into()));
    }
}
