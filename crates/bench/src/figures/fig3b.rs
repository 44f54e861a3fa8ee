//! Fig. 3(b): placement-engine reactiveness.
//!
//! "The engine is triggered as follows: a) high, at every segment score
//! update, b) medium, every 100 score updates, and c) low, every 1024
//! score updates. Each I/O burst reads 1GB of data in 1MB requests and
//! w1, w2, w3 are a data-intensive, a balanced, and a compute-intensive
//! workload respectively." (§IV-A.1)
//!
//! Expected shape: high sensitivity wins on hit ratio but pays data-
//! movement latency; low sensitivity minimizes movement but misses more;
//! medium balances; and compute-heavy w3 performs best everywhere
//! because the engine can finish loading between bursts.

use std::time::Duration;

use hfetch_core::config::{HFetchConfig, Reactiveness};
use hfetch_core::policy::HFetchPolicy;
use sim::script::{RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::topology::Hierarchy;
use tiers::units::{fmt_bytes, gib, MIB};

use crate::figures::run_sim;
use crate::scale::BenchScale;
use crate::table::Table;

/// A named engine sensitivity.
pub fn sensitivities() -> Vec<(&'static str, Reactiveness)> {
    // A long interval so the *count* condition is what differentiates
    // the configurations (the paper's default interval is 1 s; its Fig. 3b
    // isolates the score-update trigger).
    let interval = Duration::from_secs(30);
    vec![
        ("high", Reactiveness { interval, score_updates: 1 }),
        ("medium", Reactiveness { interval, score_updates: 100 }),
        ("low", Reactiveness { interval, score_updates: 1024 }),
    ]
}

/// The three workloads: compute seconds between bursts.
pub fn workloads(burst_io_secs: f64) -> Vec<(&'static str, Duration)> {
    vec![
        ("w1 (data-intensive)", Duration::from_secs_f64(burst_io_secs * 0.25)),
        ("w2 (balanced)", Duration::from_secs_f64(burst_io_secs * 1.0)),
        ("w3 (compute-intensive)", Duration::from_secs_f64(burst_io_secs * 4.0)),
    ]
}

/// Builds the burst workload: `ranks` processes alternate compute with
/// sequential 1 MiB-request bursts over a shared file.
pub fn burst_workload(
    ranks: u32,
    bursts: u32,
    per_rank_per_burst: u64,
    compute: Duration,
) -> (Vec<SimFile>, Vec<RankScript>) {
    let burst_total = per_rank_per_burst * ranks as u64;
    let file_size = burst_total * bursts as u64;
    let files = vec![SimFile { id: FileId(0), size: file_size }];
    let scripts = (0..ranks)
        .map(|r| {
            let mut b = ScriptBuilder::new(ProcessId(r), AppId(0)).open(FileId(0));
            for burst in 0..bursts {
                b = b.compute(compute);
                let base = burst as u64 * burst_total + r as u64 * per_rank_per_burst;
                let requests = per_rank_per_burst / MIB;
                for i in 0..requests {
                    b = b.read(FileId(0), base + i * MIB, MIB);
                }
            }
            b.close(FileId(0)).build()
        })
        .collect();
    (files, scripts)
}

/// `(ranks, bytes per rank per burst)` for a scale.
fn scale_params(scale: BenchScale) -> (u32, u64) {
    match scale {
        BenchScale::Smoke => (8u32, 2 * MIB),
        BenchScale::Quick => (32u32, 8 * MIB),
        BenchScale::Full => (64u32, 16 * MIB),
    }
}

/// The figure's nine HFetch cells (3 sensitivities × 3 workloads) as
/// labeled [`crate::trace::TraceJob`]s for the decision-trace harness.
/// Same parameters as [`run_with_threads`]; the recorder is threaded into
/// both the policy and the simulator so one artifact holds the whole cell.
pub fn hfetch_trace_cells(scale: BenchScale) -> Vec<(String, crate::trace::TraceJob)> {
    let (ranks, per_rank) = scale_params(scale);
    let bursts = 4;
    let nodes = scale.nodes(ranks);
    let burst_total = per_rank * ranks as u64;
    let burst_io_secs = burst_total as f64 / (2.34 * gib(1) as f64);
    let mut cells = Vec::new();
    for (sens_name, reactiveness) in sensitivities() {
        for (wl_name, compute) in workloads(burst_io_secs) {
            let wl_short = wl_name.split_whitespace().next().unwrap_or(wl_name);
            let label = format!("fig3b/{sens_name}/{wl_short}");
            cells.push((
                label,
                crate::trace::trace_job(move |rec: obs::Recorder| {
                    let (files, scripts) = burst_workload(ranks, bursts, per_rank, compute);
                    let hierarchy = Hierarchy::with_budgets(
                        burst_total / 2,
                        burst_total / 2,
                        burst_total,
                    );
                    let cfg = HFetchConfig {
                        reactiveness,
                        max_inflight_fetches: 64,
                        obs: rec.clone(),
                        ..Default::default()
                    };
                    let policy = HFetchPolicy::new(cfg, &hierarchy);
                    crate::figures::run_sim_obs(hierarchy, nodes, files, scripts, policy, rec)
                }),
            ));
        }
    }
    cells
}

/// Regenerates Fig. 3(b) with the thread count from the environment.
pub fn run(scale: BenchScale) -> Table {
    run_with_threads(scale, crate::runner::threads_from_env())
}

/// Regenerates Fig. 3(b): 3 sensitivities × 3 workloads, fanned across
/// `threads` workers. Output is identical for any thread count.
pub fn run_with_threads(scale: BenchScale, threads: usize) -> Table {
    let mut table = Table::new(
        format!("Fig 3(b): engine reactiveness, {}", scale.label()),
        &["sensitivity", "workload", "time (s)", "read time (s)", "p99 read", "hit %", "moved"],
    );
    let (ranks, per_rank) = scale_params(scale);
    let bursts = 4;
    let nodes = scale.nodes(ranks);
    // Burst I/O time from the backing store, for workload calibration.
    let burst_total = per_rank * ranks as u64;
    let burst_io_secs = burst_total as f64 / (2.34 * gib(1) as f64);

    let mut cells: Vec<crate::figures::SimCell> = Vec::new();
    for (_sens_name, reactiveness) in sensitivities() {
        for (_wl_name, compute) in workloads(burst_io_secs) {
            cells.push(crate::figures::sim_cell(move || {
                let (files, scripts) = burst_workload(ranks, bursts, per_rank, compute);
                // The cache holds two of the four bursts, so the engine
                // must keep turning segments over as the working set
                // shifts — exactly the regime where trigger sensitivity
                // matters.
                let hierarchy = Hierarchy::with_budgets(
                    burst_total / 2, // RAM: half a burst
                    burst_total / 2, // NVMe: half a burst
                    burst_total,     // BB: one burst
                );
                let cfg = HFetchConfig {
                    reactiveness,
                    max_inflight_fetches: 64,
                    ..Default::default()
                };
                let policy = HFetchPolicy::new(cfg, &hierarchy);
                run_sim(hierarchy, nodes, files, scripts, policy)
            }));
        }
    }
    let reports = crate::runner::run_jobs(cells, threads);

    let mut next = reports.iter();
    for (sens_name, _reactiveness) in sensitivities() {
        for (wl_name, _compute) in workloads(burst_io_secs) {
            let report = next.next().expect("one report per cell");
            let p99 = Duration::from_nanos(report.read_latency.quantile(0.99).unwrap_or(0));
            table.row(vec![
                sens_name.to_string(),
                wl_name.to_string(),
                format!("{:.3}", report.seconds()),
                format!("{:.3}", report.read_time.as_secs_f64()),
                format!("{p99:.1?}"),
                format!("{:.1}", report.hit_ratio().unwrap_or(0.0) * 100.0),
                fmt_bytes(report.prefetch_bytes),
            ]);
        }
    }
    table.note(format!(
        "{ranks} ranks x {bursts} bursts of {} each (1 MiB requests)",
        fmt_bytes(burst_total)
    ));
    table.note("paper shape: high sensitivity = best hit ratio but extra movement latency; \
                w3 (compute-heavy) performs best across sensitivities; medium best for w2/w3");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_structure() {
        let (files, scripts) = burst_workload(4, 2, 2 * MIB, Duration::from_millis(10));
        assert_eq!(files[0].size, 16 * MIB);
        assert_eq!(scripts.len(), 4);
        assert_eq!(scripts[0].read_ops(), 4, "2 bursts x 2 requests");
        assert_eq!(scripts[0].read_bytes(), 4 * MIB);
    }

    #[test]
    fn sensitivity_presets_match_paper() {
        let s = sensitivities();
        assert_eq!(s[0].1.score_updates, 1);
        assert_eq!(s[1].1.score_updates, 100);
        assert_eq!(s[2].1.score_updates, 1024);
    }

    #[test]
    fn workload_compute_ordering() {
        let w = workloads(1.0);
        assert!(w[0].1 < w[1].1 && w[1].1 < w[2].1);
    }
}
