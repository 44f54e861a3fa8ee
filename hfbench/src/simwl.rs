//! The simulated workloads: `HFetchPolicy` driven through the
//! discrete-event simulator (`sim::engine`) over seeded rank scripts.
//!
//! Untraced repetitions run the policy as the figure harnesses do. The
//! traced run wraps the policy in [`Timed`], which times every callback from
//! outside and attributes it to the layer it exercised, plus one run with an
//! enabled `obs::Recorder` for the layer counts. Sim-clock results do not
//! depend on either, and the gate below checks that they do not.

use std::time::{Duration, Instant};

use hfetch_core::{Auditor, HFetchConfig, HFetchPolicy, PlacementEngine};
use obs::{ObsReport, TraceEvent};
use sim::engine::{SimConfig, SimCtl, Simulation};
use sim::policy::{NoPrefetch, PrefetchPolicy, TransferDone};
use sim::report::SimReport;
use sim::script::{RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;
use tiers::units::{gib, mib, MIB};
use workloads::PipelineWorkflow;

use crate::stats::{self, median, SplitMix64};
use crate::Outcome;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// 64 ranks stream one 64 GiB file (about 9x the hierarchy) in
    /// several epochs: staging, heatmap snapshots and the pass dominate.
    LargeFile,
    /// Producers write stage files that two consumer apps re-read: writes
    /// invalidate, and the bounded action pump sets the hit ratio.
    Pipeline,
}

/// Seeded inputs of one simulation.
struct SimInputs {
    hierarchy: Hierarchy,
    nodes: u32,
    files: Vec<SimFile>,
    scripts: Vec<RankScript>,
    config: HFetchConfig,
    /// Bytes the scripts read, which the simulator must report as
    /// `bytes_requested` and as hit + miss bytes.
    expected_read_bytes: u64,
}

const LARGE_RANKS: u32 = 64;
const LARGE_EPOCHS: u32 = 4;
const LARGE_STEPS: u32 = 16;

fn inputs(kind: SimKind, seed: u64) -> SimInputs {
    let mut rng = SplitMix64::new(seed);
    let nodes = 2;
    let (hierarchy, files, scripts, config) = match kind {
        SimKind::LargeFile => {
            let file = FileId(0);
            let files = vec![SimFile {
                id: file,
                size: gib(64),
            }];
            let scripts = (0..LARGE_RANKS)
                .map(|r| {
                    // Each rank owns a 1 GiB stripe; the seed shifts where in
                    // it the rank reads. Epoch e re-reads half of epoch
                    // e-1's range, so heatmap history has something to find.
                    let base = u64::from(r) * gib(1) + rng.below(64) * MIB;
                    let mut b = ScriptBuilder::new(ProcessId(r), AppId(0));
                    for epoch in 0..LARGE_EPOCHS {
                        b = b.open(file);
                        for step in 0..LARGE_STEPS {
                            let offset = base + u64::from(epoch * LARGE_STEPS / 2 + step) * MIB;
                            b = b
                                .compute(rng.jitter(Duration::from_millis(1), 0.2))
                                .read(file, offset, MIB);
                        }
                        b = b.close(file).barrier(epoch);
                    }
                    b.build()
                })
                .collect();
            let hierarchy = Hierarchy::with_budgets(gib(1), gib(2), gib(4));
            (hierarchy, files, scripts, HFetchConfig::default())
        }
        SimKind::Pipeline => {
            let workflow = PipelineWorkflow {
                producers: 8,
                consumer_apps: 2,
                consumers_per_app: 8,
                stages: 4,
                write_per_producer: mib(32),
                read_passes: 3,
                request: MIB,
                compute: Duration::from_millis(2),
            };
            let (files, mut scripts) = workflow.build();
            for script in &mut scripts {
                for op in &mut script.ops {
                    if let sim::script::Op::Compute(d) = op {
                        *d = rng.jitter(*d, 0.25);
                    }
                }
            }
            let hierarchy = Hierarchy::with_budgets(mib(256), mib(512), gib(1));
            let config = HFetchConfig {
                max_inflight_fetches: 4 * nodes as usize,
                ..Default::default()
            };
            (hierarchy, files, scripts, config)
        }
    };
    let expected_read_bytes = scripts.iter().map(RankScript::read_bytes).sum();
    SimInputs {
        hierarchy,
        nodes,
        files,
        scripts,
        config,
        expected_read_bytes,
    }
}

/// Wall time of each layer's callbacks in one run, attributed by which
/// callback ran and whether it ran an Algorithm 1 pass.
#[derive(Clone, Debug, Default)]
struct CallbackTimes {
    /// `on_open`: epoch staging, plus the pass staging triggers.
    stage: Duration,
    stage_calls: u64,
    /// `on_close`: heatmap snapshot and `evict_file` for the last closer.
    close: Duration,
    /// `on_read` / `on_write` calls that ran no pass: auditor ingest.
    ingest: Duration,
    ingest_calls: u64,
    /// `on_read` / `on_write` / `on_tick` calls that ran a pass.
    pass: Duration,
    /// `on_transfer_done`, and ticks that ran no pass: the action pump.
    pump: Duration,
    /// Open/read/write/close callbacks seen; must equal the simulator's
    /// `events_delivered`, or some event escaped attribution.
    event_calls: u64,
}

impl CallbackTimes {
    fn total(&self) -> Duration {
        self.stage + self.close + self.ingest + self.pass + self.pump
    }
}

#[derive(Clone, Copy)]
enum Callback {
    Open,
    Close,
    ReadWrite,
    Tick,
    TransferDone,
}

/// `HFetchPolicy` with a stopwatch around each callback.
struct Timed {
    inner: HFetchPolicy,
    times: CallbackTimes,
}

impl Timed {
    fn time(&mut self, callback: Callback, call: impl FnOnce(&mut HFetchPolicy)) {
        let runs = self.inner.engine().runs();
        let start = Instant::now();
        call(&mut self.inner);
        let took = start.elapsed();
        let ran_pass = self.inner.engine().runs() > runs;
        let t = &mut self.times;
        match callback {
            Callback::Open => {
                t.stage += took;
                t.stage_calls += 1;
            }
            Callback::Close => t.close += took,
            Callback::ReadWrite if ran_pass => t.pass += took,
            Callback::ReadWrite => {
                t.ingest += took;
                t.ingest_calls += 1;
            }
            Callback::Tick if ran_pass => t.pass += took,
            Callback::Tick | Callback::TransferDone => t.pump += took,
        }
        if matches!(
            callback,
            Callback::Open | Callback::Close | Callback::ReadWrite
        ) {
            t.event_calls += 1;
        }
    }
}

impl PrefetchPolicy for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_open(
        &mut self,
        file: FileId,
        p: ProcessId,
        a: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.time(Callback::Open, |h| h.on_open(file, p, a, now, ctl));
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        p: ProcessId,
        a: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.time(Callback::ReadWrite, |h| {
            h.on_read(file, range, p, a, now, ctl)
        });
    }

    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        p: ProcessId,
        a: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.time(Callback::ReadWrite, |h| {
            h.on_write(file, range, p, a, now, ctl)
        });
    }

    fn on_close(
        &mut self,
        file: FileId,
        p: ProcessId,
        a: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        self.time(Callback::Close, |h| h.on_close(file, p, a, now, ctl));
    }

    fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.time(Callback::Tick, |h| h.on_tick(now, ctl));
    }

    fn tick_interval(&self) -> Option<Duration> {
        self.inner.tick_interval()
    }

    fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.time(Callback::TransferDone, |h| {
            h.on_transfer_done(done, now, ctl)
        });
    }

    // `on_finish` only exports telemetry (a no-op with recording off); it
    // stays untimed and lands in the DES self time.
    fn on_finish(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.inner.on_finish(now, ctl);
    }
}

/// One simulation: set-up and run times, the report and the policy.
struct Run<P> {
    setup: Duration,
    wall: Duration,
    report: SimReport,
    policy: P,
    scripts: usize,
    expected_read_bytes: u64,
}

fn simulate<P: PrefetchPolicy>(
    kind: SimKind,
    seed: u64,
    rec: &obs::Recorder,
    make: impl FnOnce(&SimInputs) -> P,
) -> Run<P> {
    let start = Instant::now();
    let inp = inputs(kind, seed);
    let policy = make(&inp);
    let config = SimConfig::new(inp.hierarchy.clone())
        .with_nodes(inp.nodes)
        .with_obs(rec.clone());
    let (scripts, expected_read_bytes) = (inp.scripts.len(), inp.expected_read_bytes);
    let sim = Simulation::new(config, inp.files, inp.scripts, policy);
    let setup = start.elapsed();
    let start = Instant::now();
    let (report, policy) = std::hint::black_box(sim.run());
    Run {
        setup,
        wall: start.elapsed(),
        report,
        policy,
        scripts,
        expected_read_bytes,
    }
}

fn hfetch(inp: &SimInputs, rec: &obs::Recorder) -> HFetchPolicy {
    HFetchPolicy::new(
        HFetchConfig {
            obs: rec.clone(),
            ..inp.config.clone()
        },
        &inp.hierarchy,
    )
}

/// What every run of one seed must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct SimClock {
    makespan: Duration,
    read_time: Duration,
    hit_bytes: u64,
    miss_bytes: u64,
    events: u64,
}

impl SimClock {
    fn of(r: &SimReport) -> Self {
        Self {
            makespan: r.makespan,
            read_time: r.read_time,
            hit_bytes: r.hit_bytes(),
            miss_bytes: r.miss_bytes(),
            events: r.events_delivered,
        }
    }
}

/// Correctness gate for one HFetch run. `Ok(false)` is a counted failure
/// (bytes lost or invented); `Err` is a broken invariant, which ends the
/// benchmark.
fn check_run(
    report: &SimReport,
    scripts: usize,
    expected_read_bytes: u64,
    engine: &PlacementEngine,
) -> Result<bool, String> {
    engine
        .check_invariants()
        .map_err(|e| format!("placement engine invariant: {e}"))?;
    if report.rank_finish.len() != scripts {
        return Err(format!(
            "{} of {scripts} ranks finished",
            report.rank_finish.len()
        ));
    }
    Ok(
        report.hit_bytes() + report.miss_bytes() == report.bytes_requested
            && report.bytes_requested == expected_read_bytes,
    )
}

/// Applies the gate and checks the run against the seed's reference
/// sim-clock results (the first run's).
fn gate<P>(
    run: &Run<P>,
    engine: &PlacementEngine,
    reference: &mut Option<SimClock>,
    out: &mut Outcome,
) -> Result<(), String> {
    let report = &run.report;
    out.attempted += report.events_delivered;
    if !check_run(report, run.scripts, run.expected_read_bytes, engine)? {
        out.failed += report.events_delivered;
    }
    let clock = SimClock::of(report);
    match reference {
        None => *reference = Some(clock),
        Some(r) if *r != clock => {
            return Err(format!(
                "sim-clock results differ between runs of one seed: {r:?} vs {clock:?}"
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// Repeats `run` until `budget` has elapsed, at least `min` times.
fn repeat(
    budget: Duration,
    min: usize,
    mut run: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        run()?;
        n += 1;
    }
    Ok(())
}

const MIN_REPS: usize = 3;

/// Host time of one run. Every run of a seed does identical work (the gate
/// checks it), so slower runs measure the machine's other tenants, not the
/// program: the 10th percentile tracks the program and is far steadier on a
/// shared host than the median.
fn fastest_decile(walls: &[f64]) -> f64 {
    stats::quantile(walls, 0.1)
}

pub fn run(kind: SimKind, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut reference = None;
    let window = Duration::from_secs_f64(seconds);
    let off = obs::Recorder::disabled();

    // The first run warms caches and lazy set-up and is left out of the
    // timings; the process's peak memory is read right after it, as for the
    // server workload.
    let warm = simulate(kind, seed, &off, |inp| hfetch(inp, &off));
    gate(&warm, warm.policy.engine(), &mut reference, &mut out)?;
    let peak_rss = stats::peak_rss_mib();

    // Untraced: HFetchPolicy exactly as the figure harnesses run it. In the
    // traced run these repetitions are the denominator of the overhead.
    let plain_budget = if trace { window / 3 } else { window };
    let (mut setups, mut walls, mut last) = (Vec::new(), Vec::new(), None);
    repeat(plain_budget, MIN_REPS, || {
        let r = simulate(kind, seed, &off, |inp| hfetch(inp, &off));
        gate(&r, r.policy.engine(), &mut reference, &mut out)?;
        setups.push(r.setup.as_secs_f64());
        walls.push(r.wall.as_secs_f64());
        last = Some(r.report);
        Ok(())
    })?;
    let report = last.expect("at least one run");
    let events = report.events_delivered as f64;
    let plain_wall = fastest_decile(&walls);

    if !trace {
        out.set("setup_s", median(&setups));
        out.set("ops_per_s", events / plain_wall);
        out.set("peak_rss_mib", peak_rss);
        out.set("hit_ratio", report.hit_ratio().unwrap_or(0.0));
        out.set("makespan_s", report.makespan.as_secs_f64());
        out.set(
            "read_mean_ms",
            stats::ratio(
                report.read_time.as_secs_f64() * 1e3,
                report.read_requests as f64,
            ),
        );
        return Ok(out);
    }

    // Traced: every callback timed and attributed to its layer.
    let mut timed: Vec<(Duration, CallbackTimes)> = Vec::new();
    let mut passes = 0;
    repeat(window / 3, MIN_REPS, || {
        let r = simulate(kind, seed, &off, |inp| Timed {
            inner: hfetch(inp, &off),
            times: CallbackTimes::default(),
        });
        gate(&r, r.policy.inner.engine(), &mut reference, &mut out)?;
        let t = r.policy.times;
        if t.event_calls != r.report.events_delivered || t.total() > r.wall {
            return Err(format!(
                "traced run does not account for its wall time: {} of {} events attributed, {:?} of callbacks in {:?}",
                t.event_calls, r.report.events_delivered, t.total(), r.wall
            ));
        }
        passes = r.policy.inner.engine().runs();
        timed.push((r.wall, t));
        Ok(())
    })?;
    let med = |f: &dyn Fn(&(Duration, CallbackTimes)) -> f64| {
        median(&timed.iter().map(f).collect::<Vec<_>>())
    };
    let timed_wall = fastest_decile(
        &timed
            .iter()
            .map(|(w, _)| w.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let callbacks = med(&|(_, t)| t.total().as_secs_f64());

    let mut baseline = Vec::new();
    repeat(window / 3, MIN_REPS, || {
        let r = simulate(kind, seed, &off, |_| NoPrefetch);
        baseline.push(r.wall.as_secs_f64());
        Ok(())
    })?;

    // One recorded run for the layer counts (deterministic for the seed).
    let rec = obs::Recorder::enabled();
    let r = simulate(kind, seed, &rec, |inp| hfetch(inp, &rec));
    gate(&r, r.policy.engine(), &mut reference, &mut out)?;
    let counts = rec.report();
    let transfers = stats::counter_by_tier(&counts, "sim.fetch.transfers") as f64;

    let t = &timed[0].1;
    out.set("sim.events_delivered", events);
    out.set(
        "sim.des_self_s",
        med(&|(w, t)| (*w - t.total()).as_secs_f64()),
    );
    out.set("sim.no_prefetch_s", median(&baseline));
    out.set("auditor.stage_s", med(&|(_, t)| t.stage.as_secs_f64()));
    out.set("auditor.stage_calls", t.stage_calls as f64);
    out.set(
        "auditor.epoch_close_s",
        med(&|(_, t)| t.close.as_secs_f64()),
    );
    out.set(
        "auditor.ingest_ns_per_call",
        med(&|(_, t)| stats::ratio(t.ingest.as_secs_f64() * 1e9, t.ingest_calls as f64)),
    );
    out.set("engine.pass_s", med(&|(_, t)| t.pass.as_secs_f64()));
    out.set("engine.passes", passes as f64);
    out.set("engine.updates_per_pass", updates_per_pass(&rec));
    out.set("policy.pump_s", med(&|(_, t)| t.pump.as_secs_f64()));
    out.set("policy.ns_per_event", callbacks * 1e9 / events);
    out.set(
        "policy.ns_per_transfer",
        stats::ratio(callbacks * 1e9, transfers),
    );
    out.set("sim.fetch.transfers", transfers);
    set_effect_counts(&mut out, &counts);
    let wait = stats::histogram(&counts, "sim.fetch.queue_wait_ns");
    out.set(
        "sim.fetch.queue_wait_p50_ns",
        stats::histogram_quantile(&wait, 0.5),
    );
    out.set(
        "sim.fetch.queue_wait_p99_ns",
        stats::histogram_quantile(&wait, 0.99),
    );
    crate::set_shared_counts(&mut out, &counts, events);
    out.set("trace.overhead_ratio", timed_wall / plain_wall);
    let inp = inputs(kind, seed);
    let largest = inp
        .files
        .iter()
        .max_by_key(|f| f.size)
        .expect("workload has files");
    probe(&mut out, &inp.hierarchy, largest);
    Ok(out)
}

fn set_effect_counts(out: &mut Outcome, counts: &ObsReport) {
    for name in [
        "effect.reads.timely_hit",
        "effect.reads.late_hit",
        "effect.reads.demoted_hit",
        "effect.reads.miss",
    ] {
        out.set(name, stats::counter(counts, name) as f64);
    }
    let mut prefetch = [0.0; 4];
    for (i, name) in [
        "effect.prefetch.landed",
        "effect.prefetch.used",
        "effect.prefetch.superseded",
        "effect.prefetch.wasted",
    ]
    .into_iter()
    .enumerate()
    {
        prefetch[i] = stats::counter_by_tier(counts, name) as f64;
        out.set(name, prefetch[i]);
    }
    out.set(
        "prefetch.useful_ratio",
        stats::ratio(prefetch[1], prefetch[0]),
    );
}

/// Mean number of updates each Algorithm 1 pass received, read from the
/// `drain` spans the policy and the server record at every pass.
pub fn updates_per_pass(rec: &obs::Recorder) -> f64 {
    let (mut drains, mut updates) = (0u64, 0u64);
    for ev in rec.trace_events() {
        if let TraceEvent::SpanStart {
            name: "drain", pos, ..
        } = ev
        {
            drains += 1;
            updates += pos;
        }
    }
    stats::ratio(updates as f64, drains as f64)
}

/// The ROADMAP item 1 probe: each layer of one epoch's staging path called
/// directly on the workload's largest file, median of a few repetitions.
pub fn probe(out: &mut Outcome, hierarchy: &Hierarchy, file: &SimFile) {
    const REPS: usize = 5;
    let mut t: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        let cfg = HFetchConfig::default();
        let auditor = Auditor::new(cfg.clone());
        let mut engine =
            PlacementEngine::with_margin(hierarchy, cfg.reactiveness, cfg.displacement_margin);
        auditor.set_file_size(file.id, file.size);
        let start = Instant::now();
        auditor.start_epoch(file.id, Timestamp::ZERO);
        t[0].push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let updates = auditor.drain_updates();
        t[1].push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(engine.run(updates, Timestamp::ZERO));
        t[2].push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(
            auditor.snapshot_heatmap(file.id, Timestamp::ZERO.after(Duration::from_secs(1))),
        );
        t[3].push(start.elapsed().as_secs_f64());
    }
    for (name, samples) in [
        "probe.stage_ms",
        "probe.drain_ms",
        "probe.pass_ms",
        "probe.heatmap_ms",
    ]
    .into_iter()
    .zip(t)
    {
        out.set(name, median(&samples) * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_read_what_the_workload_says() {
        let inp = inputs(SimKind::LargeFile, 1);
        assert_eq!(inp.scripts.len(), LARGE_RANKS as usize);
        let reads = u64::from(LARGE_RANKS * LARGE_EPOCHS * LARGE_STEPS);
        assert_eq!(inp.expected_read_bytes, reads * MIB);
        let inp = inputs(SimKind::Pipeline, 1);
        assert!(inp.scripts.iter().any(|s| s
            .ops
            .iter()
            .any(|op| matches!(op, sim::script::Op::Write { .. }))));
    }

    #[test]
    fn gate_fails_when_the_expected_bytes_are_corrupted() {
        let off = obs::Recorder::disabled();
        let r = simulate(SimKind::Pipeline, 9, &off, |inp| hfetch(inp, &off));
        let engine = r.policy.engine();
        assert_eq!(
            check_run(&r.report, r.scripts, r.expected_read_bytes, engine),
            Ok(true)
        );
        assert_eq!(
            check_run(&r.report, r.scripts, r.expected_read_bytes + MIB, engine),
            Ok(false)
        );
        assert!(check_run(&r.report, r.scripts + 1, r.expected_read_bytes, engine).is_err());
    }

    #[test]
    fn equal_seeds_give_identical_sim_clock_metrics_and_layer_counts() {
        // Wall-clock metrics differ run to run; everything else must not.
        let wall = |name: &str| {
            name.ends_with("_s") && name != "makespan_s"
                || name.ends_with("_per_call")
                || name.starts_with("policy.ns_")
                || name.starts_with("probe.")
                || ["ops_per_s", "peak_rss_mib", "trace.overhead_ratio"].contains(&name)
        };
        for trace in [false, true] {
            let a = run(SimKind::Pipeline, 21, 0.01, trace).unwrap();
            let b = run(SimKind::Pipeline, 21, 0.01, trace).unwrap();
            let exact = |o: &Outcome| -> Vec<(&str, f64)> {
                o.values
                    .iter()
                    .filter(|(n, _)| !wall(n))
                    .map(|(n, v)| (*n, *v))
                    .collect()
            };
            assert!(
                exact(&a).len() >= if trace { 20 } else { 3 },
                "{:?}",
                exact(&a)
            );
            assert_eq!(exact(&a), exact(&b));
            let c = run(SimKind::Pipeline, 22, 0.01, trace).unwrap();
            assert_ne!(exact(&a), exact(&c), "the seed must change the inputs");
        }
    }

    #[test]
    fn seed_changes_inputs_and_repeats_them() {
        let offsets = |seed| -> Vec<sim::script::Op> {
            inputs(SimKind::LargeFile, seed).scripts[5].ops.clone()
        };
        assert_eq!(offsets(3), offsets(3));
        assert_ne!(offsets(3), offsets(4));
    }
}
