//! Fig. 6: end-to-end performance of real scientific workflows.
//!
//! * **(a) Montage**, weak scaling 320→2560 ranks: "each process does
//!   10 MB of I/O operations in 16 time steps … Required data are
//!   initially staged in the burst buffer nodes. The system is overall
//!   configured with prefetching cache organized in 1.5 GB RAM space, 2 GB
//!   in local NVMe drives and 400 GB burst buffer allocation."
//! * **(b) WRF**, strong scaling: "each process reads 8MB of data in 4
//!   time steps for a total of 80GB across all scales … prefetching cache
//!   organized in 1.25 GB RAM space, 2 GB in local NVMe drives and 80 GB
//!   burst buffer allocation."
//!
//! Compared systems: Stacker-like (online), KnowAc-like (history-based,
//! profile cost charged separately), HFetch, and no prefetching. Stacker
//! and KnowAc "are configured to fetch data from burst buffers to the
//! application's memory" — both run on a RAM-over-BB-backing hierarchy;
//! HFetch additionally uses the node-local NVMe tier.
//!
//! Expected shape: KnowAc has the best *read* time but loses end-to-end
//! once its profile cost is added; Stacker is slower than KnowAc's read
//! time (warm-up, cache conflicts) but beats it end-to-end; HFetch is best
//! end-to-end (paper: 5–25% over Stacker, 10–30% over KnowAc+profile) and
//! everything beats no prefetching.

use baselines::knowac::KnowAcLike;
use baselines::stacker::StackerLike;
use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use sim::policy::NoPrefetch;
use sim::script::{RankScript, SimFile};
use tiers::ids::TierId;
use tiers::tier::TierSpec;
use tiers::topology::Hierarchy;
use tiers::units::{fmt_bytes, gib, MIB};
use workloads::montage::MontageWorkflow;
use workloads::wrf::WrfWorkflow;

use crate::figures::run_sim;
use crate::scale::BenchScale;
use crate::table::Table;

/// Compute window calibrated against the burst buffers' aggregate
/// bandwidth (~5 GiB/s), the miss path for these experiments.
fn bb_overlap_compute(burst_bytes: u64) -> std::time::Duration {
    let bb_aggregate = 5.0 * tiers::units::GIB as f64;
    std::time::Duration::from_secs_f64(burst_bytes as f64 / bb_aggregate)
}

/// RAM-only cache over a burst-buffer backing store (Stacker/KnowAc).
fn bb_flat(ram: u64) -> Hierarchy {
    Hierarchy::new(vec![TierSpec::ram(ram), TierSpec::bb_backing()])
        .expect("valid bb-backed hierarchy")
}

/// RAM + NVMe cache over a burst-buffer backing store (HFetch).
fn bb_hierarchical(ram: u64, nvme: u64) -> Hierarchy {
    Hierarchy::new(vec![TierSpec::ram(ram), TierSpec::nvme(nvme), TierSpec::bb_backing()])
        .expect("valid bb-backed hierarchy")
}

struct ScalePoint {
    ranks: u32,
    stacker_s: f64,
    knowac_read_s: f64,
    profile_s: f64,
    hfetch_s: f64,
    none_s: f64,
    hfetch_hit: f64,
}

/// Builds the four system cells of one scale point, in fixed order
/// `[none, stacker, knowac, hfetch]` (see [`point_from_reports`]).
fn point_cells(
    scale: BenchScale,
    ranks: u32,
    files: Vec<SimFile>,
    scripts: Vec<RankScript>,
    (ram, nvme): (u64, u64),
    block: u64,
    request: u64,
) -> Vec<crate::figures::SimCell> {
    let nodes = scale.nodes(ranks);
    let inflight = ((nodes as usize) * 4).max(64);

    vec![
        crate::figures::sim_cell({
            let (files, scripts) = (files.clone(), scripts.clone());
            move || run_sim(bb_flat(ram), nodes, files, scripts, NoPrefetch)
        }),
        crate::figures::sim_cell({
            let (files, scripts) = (files.clone(), scripts.clone());
            move || {
                run_sim(
                    bb_flat(ram),
                    nodes,
                    files,
                    scripts,
                    StackerLike::new(block, TierId(0), 2, inflight),
                )
            }
        }),
        crate::figures::sim_cell({
            let (files, scripts) = (files.clone(), scripts.clone());
            move || {
                let policy = KnowAcLike::from_scripts(&scripts, 4, block, TierId(0), inflight);
                run_sim(bb_flat(ram), nodes, files, scripts, policy)
            }
        }),
        crate::figures::sim_cell(move || {
            let hier = bb_hierarchical(ram, nvme);
            let policy = HFetchPolicy::new(hfetch_cfg(inflight, request), &hier);
            run_sim(hier, nodes, files, scripts, policy)
        }),
    ]
}

/// The HFetch configuration shared by [`point_cells`] and the trace cells.
fn hfetch_cfg(inflight: usize, request: u64) -> HFetchConfig {
    HFetchConfig {
        max_inflight_fetches: inflight,
        // Adaptive segment size (§V-c: "dynamic prefetching
        // granularity"): match the workflow's request size.
        segment_size: request,
        // Measured at full scale: with the default lookahead of 4, Fig.
        // 6(a) at 320 ranks finishes behind no prefetching (15.372 s
        // against 15.340 s), and it is slower than 2 at every 6(a) point
        // (121.151 s against 120.081 s at 2560 ranks).
        lookahead: 2,
        ..Default::default()
    }
}

/// One labeled HFetch trace cell (see [`crate::trace`]).
fn hfetch_trace_cell(
    scale: BenchScale,
    ranks: u32,
    files: Vec<SimFile>,
    scripts: Vec<RankScript>,
    (ram, nvme): (u64, u64),
    request: u64,
    label: String,
) -> (String, crate::trace::TraceJob) {
    let nodes = scale.nodes(ranks);
    let inflight = ((nodes as usize) * 4).max(64);
    let cell = crate::trace::trace_job(move |rec: obs::Recorder| {
        let hier = bb_hierarchical(ram, nvme);
        let cfg = HFetchConfig { obs: rec.clone(), ..hfetch_cfg(inflight, request) };
        let policy = HFetchPolicy::new(cfg, &hier);
        crate::figures::run_sim_obs(hier, nodes, files, scripts, policy, rec)
    });
    (label, cell)
}

/// The Montage (Fig. 6a) HFetch cells across the rank ladder, as labeled
/// [`crate::trace::TraceJob`]s. Same parameters as
/// [`run_montage_with_threads`].
pub fn hfetch_trace_cells_montage(scale: BenchScale) -> Vec<(String, crate::trace::TraceJob)> {
    let io_per_step = scale.montage_io_per_step();
    let ram = scale.bytes(gib(3) / 2);
    let nvme = scale.bytes(gib(2));
    scale
        .rank_ladder()
        .into_iter()
        .map(|ranks| {
            let workflow = MontageWorkflow {
                processes: ranks,
                io_per_step,
                time_steps: 16,
                compute: bb_overlap_compute(io_per_step * ranks as u64),
                seed: 0x6a,
            };
            let (files, scripts) = workflow.build();
            hfetch_trace_cell(
                scale,
                ranks,
                files,
                scripts,
                (ram, nvme),
                io_per_step,
                format!("fig6a/{ranks}ranks"),
            )
        })
        .collect()
}

/// The WRF (Fig. 6b) HFetch cells across the rank ladder, as labeled
/// [`crate::trace::TraceJob`]s. Same parameters as
/// [`run_wrf_with_threads`].
pub fn hfetch_trace_cells_wrf(scale: BenchScale) -> Vec<(String, crate::trace::TraceJob)> {
    let bytes_per_step = scale.wrf_bytes_per_step();
    let ram = scale.bytes(gib(5) / 4);
    let nvme = scale.bytes(gib(2));
    scale
        .rank_ladder()
        .into_iter()
        .map(|ranks| {
            let workflow = WrfWorkflow {
                processes: ranks,
                bytes_per_step,
                time_steps: 4,
                request: 8 * MIB,
                iterations: 2,
                compute: bb_overlap_compute(bytes_per_step / 4),
            };
            let (files, scripts) = workflow.build();
            let request = workflow.request;
            hfetch_trace_cell(
                scale,
                ranks,
                files,
                scripts,
                (ram, nvme),
                request,
                format!("fig6b/{ranks}ranks"),
            )
        })
        .collect()
}

/// Assembles a [`ScalePoint`] from the reports of [`point_cells`].
fn point_from_reports(ranks: u32, reports: &[sim::report::SimReport]) -> ScalePoint {
    let [none, stacker, knowac, hfetch] = reports else {
        unreachable!("four cells per scale point")
    };
    ScalePoint {
        ranks,
        stacker_s: stacker.seconds(),
        knowac_read_s: knowac.seconds(),
        // KnowAc's profile run: executing the workload once without
        // prefetching to record the trace.
        profile_s: none.seconds(),
        hfetch_s: hfetch.seconds(),
        none_s: none.seconds(),
        hfetch_hit: hfetch.hit_ratio().unwrap_or(0.0),
    }
}

fn render(title: String, points: Vec<ScalePoint>, note: &str) -> Table {
    let mut table = Table::new(
        title,
        &["ranks", "stacker (s)", "knowac read (s)", "knowac+profile (s)", "hfetch (s)",
          "none (s)", "hfetch hit%"],
    );
    for p in points {
        table.row(vec![
            p.ranks.to_string(),
            format!("{:.3}", p.stacker_s),
            format!("{:.3}", p.knowac_read_s),
            format!("{:.3}", p.knowac_read_s + p.profile_s),
            format!("{:.3}", p.hfetch_s),
            format!("{:.3}", p.none_s),
            format!("{:.1}", p.hfetch_hit * 100.0),
        ]);
    }
    table.note(note.to_string());
    table.note("paper shape: knowac best read time but worst once profile cost is added; \
                hfetch best end-to-end (5-25% over stacker, 10-30% over knowac+profile)");
    table
}

/// Regenerates Fig. 6(a) with the thread count from the environment.
pub fn run_montage(scale: BenchScale) -> Table {
    run_montage_with_threads(scale, crate::runner::threads_from_env())
}

/// Regenerates Fig. 6(a) — Montage, weak scaling: 4 systems × the rank
/// ladder, fanned across `threads` workers. Output is identical for any
/// thread count.
pub fn run_montage_with_threads(scale: BenchScale, threads: usize) -> Table {
    let io_per_step = scale.montage_io_per_step();
    let ram = scale.bytes(gib(3) / 2);
    let nvme = scale.bytes(gib(2));
    let mut cells = Vec::new();
    for ranks in scale.rank_ladder() {
        let workflow = MontageWorkflow {
            processes: ranks,
            io_per_step,
            time_steps: 16,
            compute: bb_overlap_compute(io_per_step * ranks as u64),
            seed: 0x6a,
        };
        let (files, scripts) = workflow.build();
        cells.extend(point_cells(scale, ranks, files, scripts, (ram, nvme), MIB, io_per_step));
    }
    let reports = crate::runner::run_jobs(cells, threads);
    let points = scale
        .rank_ladder()
        .into_iter()
        .zip(reports.chunks_exact(4))
        .map(|(ranks, point)| point_from_reports(ranks, point))
        .collect();
    render(
        format!("Fig 6(a): Montage weak scaling, {}", scale.label()),
        points,
        &format!(
            "{} I/O per process-step x 16 steps; cache {} RAM (+{} NVMe for HFetch); data staged in burst buffers",
            fmt_bytes(io_per_step),
            fmt_bytes(ram),
            fmt_bytes(nvme),
        ),
    )
}

/// Regenerates Fig. 6(b) with the thread count from the environment.
pub fn run_wrf(scale: BenchScale) -> Table {
    run_wrf_with_threads(scale, crate::runner::threads_from_env())
}

/// Regenerates Fig. 6(b) — WRF, strong scaling: 4 systems × the rank
/// ladder, fanned across `threads` workers. Output is identical for any
/// thread count.
pub fn run_wrf_with_threads(scale: BenchScale, threads: usize) -> Table {
    let bytes_per_step = scale.wrf_bytes_per_step();
    let ram = scale.bytes(gib(5) / 4);
    let nvme = scale.bytes(gib(2));
    let mut cells = Vec::new();
    for ranks in scale.rank_ladder() {
        let workflow = WrfWorkflow {
            processes: ranks,
            bytes_per_step,
            time_steps: 4,
            request: 8 * MIB,
            iterations: 2,
            compute: bb_overlap_compute(bytes_per_step / 4),
        };
        let (files, scripts) = workflow.build();
        cells.extend(point_cells(scale, ranks, files, scripts, (ram, nvme), MIB, workflow.request));
    }
    let reports = crate::runner::run_jobs(cells, threads);
    let points = scale
        .rank_ladder()
        .into_iter()
        .zip(reports.chunks_exact(4))
        .map(|(ranks, point)| point_from_reports(ranks, point))
        .collect();
    render(
        format!("Fig 6(b): WRF strong scaling, {}", scale.label()),
        points,
        &format!(
            "{} read per step (fixed total; 8 MB requests); cache {} RAM (+{} NVMe for HFetch); data staged in burst buffers",
            fmt_bytes(bytes_per_step),
            fmt_bytes(ram),
            fmt_bytes(nvme),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchies_are_bb_backed() {
        let flat = bb_flat(gib(1));
        assert_eq!(flat.cache_tiers(), 1);
        assert_eq!(flat.spec(flat.backing()).unwrap().name, "bb-backing");
        let hier = bb_hierarchical(gib(1), gib(2));
        assert_eq!(hier.cache_tiers(), 2);
        assert_eq!(hier.spec(hier.backing()).unwrap().name, "bb-backing");
    }
}
