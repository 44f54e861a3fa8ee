//! Fig. 4(a): reducing the RAM footprint with hierarchy-aware prefetching.
//!
//! "We deployed 2560 MPI processes, each performing sequential reads, for
//! a total of 40 GB in 10 time steps. We evaluate HFetch against a serial
//! prefetcher, a parallel prefetcher, and a no-prefetching approach. …
//! The prefetching cache size is 40 GB. In the case of HFetch, this cache
//! spans across three tiers: 5 GB in RAM, 15 GB in NVMe, and 20 GB in
//! burst buffers." (§IV-A.2)
//!
//! Expected shape: parallel fastest (~89% hits); HFetch close behind
//! (paper: 17% slower) with an **8× smaller RAM footprint**; serial well
//! behind (HFetch 44% faster); no-prefetching slowest.

use baselines::window::WindowPrefetcher;
use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use sim::policy::NoPrefetch;
use sim::script::{RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId, TierId};
use tiers::topology::Hierarchy;
use tiers::units::fmt_bytes;

use crate::figures::{overlap_compute, run_sim};
use crate::scale::BenchScale;
use crate::table::{pct_vs, Table};

/// Builds the sequential workload: each rank streams its slice in
/// `steps` time steps with calibrated compute between steps.
pub fn workload(ranks: u32, total: u64, steps: u32) -> (Vec<SimFile>, Vec<RankScript>, u64) {
    let per_rank = total / ranks as u64;
    let request = per_rank / steps as u64;
    let compute = overlap_compute(request * ranks as u64);
    let files = vec![SimFile { id: FileId(0), size: total }];
    // BSP structure: every time step is barrier-synchronized, like the
    // iterative simulations the paper targets. The synchronized read
    // bursts are what make the unprefetched PFS queue up.
    let scripts = (0..ranks)
        .map(|r| {
            let mut b = ScriptBuilder::new(ProcessId(r), AppId(0)).open(FileId(0));
            for step in 0..steps {
                b = b
                    .compute(compute)
                    .read(FileId(0), r as u64 * per_rank + step as u64 * request, request)
                    .barrier(step);
            }
            b.close(FileId(0)).build()
        })
        .collect();
    (files, scripts, request)
}

/// Regenerates Fig. 4(a) with the thread count from the environment.
pub fn run(scale: BenchScale) -> Table {
    run_with_threads(scale, crate::runner::threads_from_env())
}

/// Regenerates Fig. 4(a), fanning the four system cells across `threads`
/// workers. Output is identical for any thread count.
pub fn run_with_threads(scale: BenchScale, threads: usize) -> Table {
    let mut table = Table::new(
        format!("Fig 4(a): reducing RAM footprint, {}", scale.label()),
        &["system", "time (s)", "vs parallel", "hit %", "RAM peak", "prefetched"],
    );
    let ranks = scale.max_ranks();
    let nodes = scale.nodes(ranks);
    let total = scale.fig4a_data();
    let (ram, nvme, bb) = scale.fig4a_hfetch_budgets();
    let steps = 10;

    // The single-tier prefetchers get the whole 40 GB budget in RAM.
    let flat = Hierarchy::ram_only(total);
    // The paper's prefetchers use "four threads"; we model a thread as a
    // small pipeline of asynchronous requests: serial = 4 streams,
    // parallel = 16 (4 threads x 4-deep). See DESIGN.md §5.
    let serial_inflight = 4;
    let parallel_inflight = 16;

    let (files, scripts, request) = workload(ranks, total, steps);
    let depth = 4;

    let cells: Vec<crate::figures::SimCell> = vec![
        crate::figures::sim_cell({
            let (flat, files, scripts) = (flat.clone(), files.clone(), scripts.clone());
            move || {
                run_sim(
                    flat,
                    nodes,
                    files,
                    scripts,
                    WindowPrefetcher::parallel(parallel_inflight, depth, request, TierId(0)),
                )
            }
        }),
        crate::figures::sim_cell({
            let (files, scripts) = (files.clone(), scripts.clone());
            move || {
                let hier = Hierarchy::with_budgets(ram, nvme, bb);
                run_sim(
                    hier.clone(),
                    nodes,
                    files,
                    scripts,
                    HFetchPolicy::new(
                        HFetchConfig {
                            max_inflight_fetches: (nodes as usize) * 4,
                            ..Default::default()
                        },
                        &hier,
                    ),
                )
            }
        }),
        // "Serial" = a window of `serial_inflight` (4) outstanding
        // transfers at every scale, against parallel's 16: one global
        // stream would be invisible at cluster scale.
        crate::figures::sim_cell({
            let (flat, files, scripts) = (flat.clone(), files.clone(), scripts.clone());
            move || {
                run_sim(
                    flat,
                    nodes,
                    files,
                    scripts,
                    WindowPrefetcher::new(
                        "serial",
                        serial_inflight,
                        depth,
                        request,
                        TierId(0),
                    ),
                )
            }
        }),
        crate::figures::sim_cell(move || run_sim(flat, nodes, files, scripts, NoPrefetch)),
    ];
    let reports = crate::runner::run_jobs(cells, threads);

    let base = reports[0].seconds();
    for report in &reports {
        table.row(vec![
            report.policy.clone(),
            format!("{:.3}", report.seconds()),
            pct_vs(report.seconds(), base),
            format!("{:.1}", report.hit_ratio().unwrap_or(0.0) * 100.0),
            fmt_bytes(report.tiers[0].peak_bytes),
            fmt_bytes(report.prefetch_bytes),
        ]);
    }
    table.note(format!(
        "{ranks} ranks, {} total in {steps} steps; HFetch cache {} RAM + {} NVMe + {} BB vs {} RAM for the flat prefetchers",
        fmt_bytes(total),
        fmt_bytes(ram),
        fmt_bytes(nvme),
        fmt_bytes(bb),
        fmt_bytes(total),
    ));
    table.note("paper shape: parallel < HFetch (+17%) < serial (HFetch 44% faster) < none; HFetch RAM peak ~8x smaller");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::mib;

    #[test]
    fn workload_partitions_exactly() {
        let (files, scripts, request) = workload(8, mib(80), 10);
        assert_eq!(files[0].size, mib(80));
        assert_eq!(request, mib(1));
        assert_eq!(scripts.len(), 8);
        let total: u64 = scripts.iter().map(|s| s.read_bytes()).sum();
        assert_eq!(total, mib(80), "every byte read exactly once");
    }
}
