//! Telemetry-ingestion throughput benchmark: writes
//! `bench_results/BENCH_ingest.json`.
//!
//! Measures the auditor's event-ingestion path (single-thread events/s and
//! machine-independent lock acquisitions per event), then verifies that
//! the same seeded workload drained through 1, 2 and 4 producer threads
//! produces a byte-identical canonicalised update batch.
//!
//! Knobs: `HFETCH_BENCH_SCALE` (smoke/quick/full). Metric names are
//! emitted sorted and the report carries no wall-clock timestamps, so
//! successive runs diff cleanly.

use bench_support::ingest::{run_ingest, IngestScale, STREAMS};
use bench_support::perf::{Metric, PerfReport};
use bench_support::{table, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    let sizing = IngestScale::of(scale);
    println!(
        "Ingest benchmark at scale: {} ({} streams x {} events)\n",
        scale.label(),
        STREAMS,
        sizing.events_per_thread,
    );
    let mut metrics: Vec<Metric> = Vec::new();

    // Single-threaded, engine-cadence drains every 1024 events
    // (Reactiveness::low) so the queue works at realistic depth. Best
    // events/s of several repetitions: wall clock on a shared box is
    // noisy, but the best run is a stable estimate of the path's actual
    // cost. Lock counts must not vary at all across repetitions — that's
    // asserted, not averaged.
    const REPS: usize = 5;
    let mut best = run_ingest(1, sizing, Some(1024));
    for _ in 1..REPS {
        let run = run_ingest(1, sizing, Some(1024));
        assert_eq!(best.locks, run.locks, "lock traffic must be deterministic across repetitions");
        if run.events_per_s() > best.events_per_s() {
            best = run;
        }
    }
    println!(
        "{:>12.0} events/s   {:.3} locks/event   ({} shard + {} aux)",
        best.events_per_s(),
        best.locks_per_event(),
        best.locks.map_shard,
        best.locks.auxiliary,
    );
    let per_event = |locks: u64| locks as f64 / best.events as f64;
    metrics.push(Metric::new("ingest/events_per_s", best.events_per_s(), "events_per_s"));
    for (name, value) in [
        ("ingest/locks_per_event", best.locks_per_event()),
        ("ingest/aux_locks_per_event", per_event(best.locks.auxiliary)),
        ("ingest/shard_locks_per_event", per_event(best.locks.map_shard)),
    ] {
        metrics.push(Metric::new(name, value, "locks_per_event"));
    }

    // Drain equivalence: identical workload, 1/2/4 producer threads, one
    // final drain — the canonicalised batches must be byte-identical.
    let runs: Vec<_> = [1usize, 2, 4].iter().map(|&t| (t, run_ingest(t, sizing, None))).collect();
    let reference = runs[0].1.digest;
    for (t, run) in &runs {
        println!("threads={t}: drained {} coalesced updates, digest {:016x}", run.drained, run.digest);
        assert_eq!(
            run.digest, reference,
            "drain digest diverged at {t} threads — equivalence broken"
        );
    }
    metrics.push(Metric::new("equivalence/drained_segments", runs[0].1.drained as f64, "segments"));
    metrics.push(Metric::new("equivalence/thread_counts_agreeing", runs.len() as f64, "runs"));

    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    let mut perf = PerfReport::new("hfetch-bench-ingest/1")
        .context("digest", format!("{reference:016x}"))
        .context("scale", scale.label())
        .context("streams", STREAMS.to_string());
    for m in metrics {
        perf.push(m);
    }
    perf.save(&table::results_dir(), "BENCH_ingest.json").expect("perf record");
}
