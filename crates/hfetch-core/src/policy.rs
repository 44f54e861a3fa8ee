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

    /// Superseded actions run too: the simulator tracks residency and
    /// in-flight bytes itself.
    fn fetch(&mut self, action: PlacementAction, range: ByteRange, engine: &PlacementEngine)
        -> Option<FetchOutcome> {
        let (segment, to) = action.target();
        Some(self.fetch_traced(segment.file, range, to, engine.span_of(segment)))
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
        ctl: &mut SimCtl<'_>,
    ) {
        self.exec.close(&self.auditor, file, now, ctl);
    }

    fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.exec.tick(&self.auditor, now, ctl);
    }

    fn tick_interval(&self) -> Option<std::time::Duration> {
        Some(self.cfg.reactiveness.interval)
    }

    fn on_transfer_done(&mut self, _done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.exec.transfer_done(ctl);
    }

    fn on_finish(&mut self, _now: Timestamp, _ctl: &mut SimCtl<'_>) {
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

    #[test]
    fn epoch_end_evicts_prefetched_data() {
        let hierarchy = Hierarchy::with_budgets(gib(1), gib(1), gib(1));
        let files = vec![SimFile { id: FileId(0), size: mib(8) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .compute(Duration::from_secs(2)) // staging completes
            .read(FileId(0), 0, mib(8))
            .close(FileId(0))
            .compute(Duration::from_secs(2)) // engine has time after close
            .build()];
        let policy = HFetchPolicy::new(HFetchConfig::default(), &hierarchy);
        let (report, _) =
            Simulation::new(SimConfig::new(hierarchy), files, scripts, policy).run();
        assert!(report.evicted_bytes > 0, "epoch end must evict: {report:?}");
    }

    #[test]
    fn repeated_epochs_benefit_from_heatmap_history() {
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
        let mut cfg = HFetchConfig::default();
        cfg.obs = rec.clone();
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
}
