//! The real-thread workload: an in-memory `HFetchServer` with
//! `HFetchAgent` clients in a closed loop.
//!
//! One job starts a fresh server, stages the input files through the shim,
//! and runs `clients` threads through `ROUNDS` rounds. In a round each
//! client's app-0 agent reads its private file, its slice of a shared file
//! and its slice of a written file; its app-1 agent re-reads the shared
//! slice that the next client's app-0 agent heats. Each round makes
//! `PASSES` passes over these 1 MiB regions, in seeded orders. Between rounds client 0
//! rewrites regions of the written file, which the next round must read
//! back. Every read is compared byte for byte with what was staged or
//! written. Files total 48 MiB against 8 + 16 + 32 MiB of cache tiers.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use events::shim::{FileHandle, OpenMode};
use hfetch_core::{HFetchAgent, HFetchConfig, HFetchServer};
use obs::ObsReport;
use sim::script::SimFile;
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::topology::Hierarchy;
use tiers::units::{mib, MIB};

use crate::stats::{self, median, quantile, SplitMix64};
use crate::Outcome;

const SHARED: usize = 0;
const WRITTEN: usize = 1;
const ROUNDS: usize = 3;
/// Each round reads its list this many times, each in a fresh order:
/// re-reads are what the cache serves, and they keep the job's time in
/// the read path rather than in the settle waits around writes.
const PASSES: usize = 3;
const WRITES_PER_ROUND: usize = 2;

fn path(file: usize) -> String {
    match file {
        SHARED => "/data/shared".into(),
        WRITTEN => "/data/written".into(),
        c => format!("/data/private{}", c - 2),
    }
}

fn regions(file: usize) -> u64 {
    if file == SHARED {
        24
    } else {
        8
    }
}

fn hierarchy() -> Hierarchy {
    Hierarchy::with_budgets(mib(8), mib(16), mib(32))
}

/// Client threads: one per core, at most two, so the load is the same on
/// any machine with two cores or more.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[derive(Clone, Copy, Debug)]
struct Read {
    /// 0 for the app-0 agent, 1 for the app-1 agent.
    agent: usize,
    file: usize,
    region: u64,
}

/// Seeded schedule of one job, and the content every read must return.
#[derive(Clone, Debug)]
struct Plan {
    clients: usize,
    /// `reads[client][round]`, in issue order.
    reads: Vec<Vec<Vec<Read>>>,
    /// Regions of the written file rewritten after each round's reads.
    writes: Vec<Vec<u64>>,
    /// `versions[round][region]`: which version of each written-file region
    /// that round's reads must see (0 = as staged).
    versions: Vec<Vec<u8>>,
}

fn plan(seed: u64, clients: usize) -> Plan {
    let mut rng = SplitMix64::new(seed);
    let slice = |file: usize, c: usize, agent: usize| {
        (0..regions(file))
            .filter(move |&r| r as usize % clients == c)
            .map(move |region| Read {
                agent,
                file,
                region,
            })
    };
    let mut reads = vec![Vec::new(); clients];
    for (c, rounds) in reads.iter_mut().enumerate() {
        let pass: Vec<Read> = (0..regions(c + 2))
            .map(|region| Read {
                agent: 0,
                file: c + 2,
                region,
            })
            .chain(slice(SHARED, c, 0))
            .chain(slice(WRITTEN, c, 0))
            .chain(slice(SHARED, (c + 1) % clients, 1))
            .collect();
        for _ in 0..ROUNDS {
            let mut round = Vec::new();
            for _ in 0..PASSES {
                let mut order = pass.clone();
                rng.shuffle(&mut order);
                round.extend(order);
            }
            rounds.push(round);
        }
    }
    let mut writes = Vec::new();
    let mut versions = vec![vec![0u8; regions(WRITTEN) as usize]];
    for round in 0..ROUNDS {
        let mut next = versions[round].clone();
        let mut written = Vec::new();
        if round + 1 < ROUNDS {
            let mut all: Vec<u64> = (0..regions(WRITTEN)).collect();
            rng.shuffle(&mut all);
            for &region in &all[..WRITES_PER_ROUND] {
                next[region as usize] = (round + 1) as u8;
                written.push(region);
            }
            versions.push(next);
        }
        writes.push(written);
    }
    Plan {
        clients,
        reads,
        writes,
        versions,
    }
}

/// Expected content: the shim stages byte `o` of a file as `o % 251`; a
/// rewrite at version `v` XORs it with a nonzero key, so every byte
/// differs from every other version.
struct Patterns(Vec<Vec<u8>>);

impl Patterns {
    fn new() -> Self {
        let base: Vec<u8> = (0..MIB as usize + 251).map(|i| (i % 251) as u8).collect();
        Patterns(
            (0..ROUNDS)
                .map(|v| base.iter().map(|b| b ^ (37 * v as u8)).collect())
                .collect(),
        )
    }

    fn region(&self, region: u64, version: u8) -> &[u8] {
        let start = ((region * MIB) % 251) as usize;
        &self.0[version as usize][start..start + MIB as usize]
    }
}

/// Measurements of one job.
#[derive(Default)]
struct Job {
    setup: Duration,
    wall: Duration,
    quiesce: Duration,
    ops: u64,
    failed: u64,
    read_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    open_us: Vec<f64>,
    write_us: Vec<f64>,
    /// Reads served at least partly from a cache tier; the agent reports
    /// each such read to the auditor directly, bypassing the event queue.
    cache_reads: u64,
    hit_bytes: u64,
    miss_bytes: u64,
    prefetched_bytes: u64,
    denied_fetches: u64,
    failed_fetches: u64,
    engine_runs: u64,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Job {
    fn absorb(&mut self, other: Job) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.cache_reads += other.cache_reads;
        self.read_us.extend(other.read_us);
        self.hit_us.extend(other.hit_us);
        self.miss_us.extend(other.miss_us);
        self.open_us.extend(other.open_us);
        self.write_us.extend(other.write_us);
    }
}

fn run_job(plan: &Plan, patterns: &Patterns, rec: &obs::Recorder) -> Job {
    let start = Instant::now();
    let server = HFetchServer::in_memory(
        HFetchConfig {
            obs: rec.clone(),
            ..Default::default()
        },
        hierarchy(),
    );
    for file in 0..plan.clients + 2 {
        server
            .shim()
            .stage_file(path(file), regions(file) * MIB)
            .expect("stage input file");
    }
    let mut job = Job {
        setup: start.elapsed(),
        ..Default::default()
    };

    let start = Instant::now();
    let barrier = Barrier::new(plan.clients);
    let results: Vec<Job> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|c| {
                let (server, barrier) = (&server, &barrier);
                s.spawn(move || client(c, plan, patterns, server, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let quiesce = Instant::now();
    server.quiesce();
    job.quiesce = quiesce.elapsed();
    job.wall = start.elapsed();
    for r in results {
        job.absorb(r);
    }
    let st = server.stats();
    job.hit_bytes = st.hit_bytes.load(Ordering::Relaxed);
    job.miss_bytes = st.miss_bytes.load(Ordering::Relaxed);
    job.prefetched_bytes = st.prefetched_bytes.load(Ordering::Relaxed);
    job.denied_fetches = st.denied_fetches.load(Ordering::Relaxed);
    job.failed_fetches = st.failed_fetches.load(Ordering::Relaxed);
    job.engine_runs = st.engine_runs.load(Ordering::Relaxed);
    server.shutdown();
    job
}

fn client(
    c: usize,
    plan: &Plan,
    patterns: &Patterns,
    server: &HFetchServer,
    barrier: &Barrier,
) -> Job {
    let mut job = Job::default();
    let shim = server.shim();
    let agents = [AppId(0), AppId(1)].map(|app| {
        HFetchAgent::new(
            Arc::clone(server.inner()),
            Arc::clone(shim),
            ProcessId((c + 100 * app.0 as usize) as u32),
            app,
        )
    });
    let mut handles: Vec<(usize, usize, FileHandle)> = Vec::new();
    for (agent, file) in [(0, c + 2), (0, SHARED), (0, WRITTEN), (1, SHARED)] {
        let start = Instant::now();
        let h = agents[agent].open(path(file));
        job.open_us.push(micros(start.elapsed()));
        handles.push((agent, file, h));
    }
    let handle = |agent: usize, file: usize| {
        &handles
            .iter()
            .find(|(a, f, _)| *a == agent && *f == file)
            .expect("opened")
            .2
    };

    for round in 0..ROUNDS {
        for read in &plan.reads[c][round] {
            let agent = &agents[read.agent];
            let bytes = |s: &hfetch_core::agent::AgentStats| {
                (
                    s.hit_bytes.load(Ordering::Relaxed),
                    s.miss_bytes.load(Ordering::Relaxed),
                )
            };
            let (hit_before, miss_before) = bytes(agent.stats());
            let start = Instant::now();
            let result = agent.read(
                handle(read.agent, read.file),
                ByteRange::new(read.region * MIB, MIB),
            );
            let us = micros(start.elapsed());
            let (hit_after, miss_after) = bytes(agent.stats());
            let missed = miss_after > miss_before;
            job.cache_reads += u64::from(hit_after > hit_before);
            let version = if read.file == WRITTEN {
                plan.versions[round][read.region as usize]
            } else {
                0
            };
            let ok = result.is_ok_and(|data| data[..] == *patterns.region(read.region, version));
            job.ops += 1;
            job.failed += u64::from(!ok);
            job.read_us.push(us);
            if missed {
                job.miss_us.push(us);
            } else {
                job.hit_us.push(us);
            }
        }
        barrier.wait();
        if c == 0 && !plan.writes[round].is_empty() {
            // Settle before and after the rewrite, so no prefetch of the old
            // bytes is in flight while they change and every invalidation
            // has landed before the next round reads.
            server.quiesce();
            let (w, _) = shim.fopen(path(WRITTEN), OpenMode::Write, ProcessId(999), AppId(9));
            for &region in &plan.writes[round] {
                let data = patterns.region(region, (round + 1) as u8);
                let start = Instant::now();
                let ok = shim.fwrite_at(&w, region * MIB, data).is_ok();
                job.write_us.push(micros(start.elapsed()));
                job.ops += 1;
                job.failed += u64::from(!ok);
            }
            shim.fclose(&w);
            server.quiesce();
        }
        barrier.wait();
    }
    for (agent, _, h) in &handles {
        agents[*agent].close(h);
    }
    job
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let plan = plan(seed, clients());
    let patterns = Patterns::new();
    let window = Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();

    // The first job warms caches and lazy set-up and is left out of the
    // timings; the process's peak memory is read right after it, so it is
    // the peak of one job whatever the window length.
    let off = obs::Recorder::disabled();
    let warm = run_job(&plan, &patterns, &off);
    let peak_rss = stats::peak_rss_mib();
    out.attempted = warm.ops;
    out.failed = warm.failed;

    let budget = if trace { window / 2 } else { window };
    let mut jobs = Vec::new();
    let start = Instant::now();
    while jobs.len() < 3 || start.elapsed() < budget {
        jobs.push(run_job(&plan, &patterns, &off));
    }
    let per_job = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Job) -> u64| jobs.iter().map(f).sum::<u64>() as f64;
    let all = |f: &dyn Fn(&Job) -> &Vec<f64>| {
        jobs.iter()
            .flat_map(|j| f(j).iter().copied())
            .collect::<Vec<f64>>()
    };
    out.attempted += sum(&|j| j.ops) as u64;
    out.failed += sum(&|j| j.failed) as u64;
    let wall = per_job(&|j| j.wall.as_secs_f64());
    let read_us = all(&|j| &j.read_us);

    if !trace {
        out.set("setup_s", per_job(&|j| j.setup.as_secs_f64()));
        // Every job runs the same plan, so ops per job is fixed and the
        // median job sets the rate.
        out.set("ops_per_s", jobs[0].ops as f64 / wall);
        out.set("peak_rss_mib", peak_rss);
        out.set(
            "hit_ratio",
            stats::ratio(sum(&|j| j.hit_bytes), sum(&|j| j.hit_bytes + j.miss_bytes)),
        );
        out.set("makespan_s", wall);
        out.set(
            "read_mean_ms",
            read_us.iter().sum::<f64>() / read_us.len() as f64 / 1e3,
        );
        return Ok(out);
    }

    out.set("agent.read_p50_us", median(&read_us));
    out.set("agent.read_p99_us", quantile(&read_us, 0.99));
    out.set("agent.read_samples", read_us.len() as f64);
    out.set("agent.read_hit_us", median(&all(&|j| &j.hit_us)));
    out.set("agent.read_miss_us", median(&all(&|j| &j.miss_us)));
    out.set("agent.open_us", median(&all(&|j| &j.open_us)));
    out.set("shim.write_us", median(&all(&|j| &j.write_us)));
    out.set("server.quiesce_s", per_job(&|j| j.quiesce.as_secs_f64()));
    out.set("server.engine_runs", per_job(&|j| j.engine_runs as f64));
    out.set(
        "server.prefetched_bytes",
        per_job(&|j| j.prefetched_bytes as f64),
    );
    out.set(
        "server.denied_fetches",
        per_job(&|j| j.denied_fetches as f64),
    );
    out.set(
        "server.failed_fetches",
        per_job(&|j| j.failed_fetches as f64),
    );
    out.set(
        "server.prefetch_useful_ratio",
        stats::ratio(sum(&|j| j.hit_bytes), sum(&|j| j.prefetched_bytes)),
    );

    // Traced jobs: the program's own recorder on, for the layer counts and
    // the tracing overhead. Their reads are gated like the others.
    let mut traced = Vec::new();
    let mut counts = (ObsReport::default(), 0.0, 0);
    let start = Instant::now();
    while traced.len() < 3 || start.elapsed() < window / 2 {
        let rec = obs::Recorder::enabled();
        let job = run_job(&plan, &patterns, &rec);
        out.attempted += job.ops;
        out.failed += job.failed;
        traced.push(job.wall.as_secs_f64());
        counts = (
            rec.report(),
            crate::simwl::updates_per_pass(&rec),
            job.cache_reads,
        );
    }
    let (counts, updates_per_pass, cache_reads) = counts;
    let popped = stats::counter(&counts, "events.queue.popped");
    for name in [
        "events.queue.pushed",
        "events.queue.popped",
        "events.queue.dropped",
    ] {
        out.set(name, stats::counter(&counts, name) as f64);
    }
    out.set(
        "mover.copies",
        stats::counter_by_tier(&counts, "mover.copies") as f64,
    );
    out.set("engine.updates_per_pass", updates_per_pass);
    crate::set_shared_counts(&mut out, &counts, (popped + cache_reads) as f64);
    out.set("trace.overhead_ratio", median(&traced) / wall);
    let shared = SimFile {
        id: FileId(0),
        size: regions(SHARED) * MIB,
    };
    crate::simwl::probe(&mut out, &hierarchy(), &shared);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewritten_regions_differ_from_staged_bytes() {
        let p = Patterns::new();
        for v in 1..ROUNDS as u8 {
            assert!(p
                .region(3, 0)
                .iter()
                .zip(p.region(3, v))
                .all(|(a, b)| a != b));
        }
        let staged: Vec<u8> = (0..16u64).map(|i| ((5 * MIB + i) % 251) as u8).collect();
        assert_eq!(&p.region(5, 0)[..16], &staged[..]);
    }

    #[test]
    fn plan_covers_every_file_and_is_seeded() {
        let a = plan(11, 2);
        assert_eq!(a.reads.len(), 2);
        let reads: usize = a.reads.iter().flatten().map(Vec::len).sum();
        assert_eq!(reads, ROUNDS * PASSES * 2 * (8 + 12 + 4 + 12));
        assert_eq!(a.versions.len(), ROUNDS);
        assert_eq!(
            format!("{:?}", a.writes),
            format!("{:?}", plan(11, 2).writes)
        );
        assert_ne!(format!("{:?}", a.reads), format!("{:?}", plan(12, 2).reads));
    }

    #[test]
    fn gate_counts_reads_against_a_corrupted_expectation() {
        let good = plan(5, 1);
        let patterns = Patterns::new();
        let job = run_job(&good, &patterns, &obs::Recorder::disabled());
        assert_eq!(job.failed, 0, "an intact expectation passes");
        assert!(job.ops > 0);

        let mut corrupt = good.clone();
        corrupt.versions[ROUNDS - 1][corrupt.writes[0][0] as usize] = 0;
        let job = run_job(&corrupt, &patterns, &obs::Recorder::disabled());
        assert!(
            job.failed > 0,
            "reads of a rewritten region must fail against the stale pattern"
        );
    }
}
