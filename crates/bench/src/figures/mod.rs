//! One module per paper figure. Each exposes `run(scale) -> Table`.
//!
//! Figures whose cells are independent simulations (3b, 4a, 4b, 5, 6) also
//! expose `run_with_threads(scale, threads)`: the grid of cells is fanned
//! across worker threads by [`crate::runner`] and the table is assembled
//! from results in fixed submission order, so output is byte-identical for
//! any thread count. Fig. 3a is excluded — it measures *real* thread
//! contention on the DHT and must own the machine while it runs.

pub mod fig3a;
pub mod fig3b;
pub mod fig4a;
pub mod fig4b;
pub mod fig5;
pub mod fig6;

use std::time::Duration;

use sim::engine::{SimConfig, Simulation};
use sim::policy::PrefetchPolicy;
use sim::report::SimReport;
use sim::script::{RankScript, SimFile};
use tiers::topology::Hierarchy;
use tiers::units::GIB;

/// A boxed simulation cell: one policy × one workload point, returning its
/// report. Cells own their inputs so they can run on any worker thread.
pub type SimCell = crate::runner::Job<SimReport>;

/// Boxes a cell closure as a [`SimCell`].
pub fn sim_cell(f: impl FnOnce() -> SimReport + Send + 'static) -> SimCell {
    crate::runner::job(f)
}

/// Runs one policy over one workload under the standard cluster model.
pub fn run_sim<P: PrefetchPolicy>(
    hierarchy: Hierarchy,
    nodes: u32,
    files: Vec<SimFile>,
    scripts: Vec<RankScript>,
    policy: P,
) -> SimReport {
    run_sim_obs(hierarchy, nodes, files, scripts, policy, obs::Recorder::default())
}

/// [`run_sim`] with a recorder threaded into the simulator, so the fetch
/// lifecycle lands in the same per-cell artifact as the policy's placement
/// decisions. Used by [`crate::trace`]; the policy must carry a clone of
/// the same recorder (e.g. via `HFetchConfig::obs`) for a merged trace.
pub fn run_sim_obs<P: PrefetchPolicy>(
    hierarchy: Hierarchy,
    nodes: u32,
    files: Vec<SimFile>,
    scripts: Vec<RankScript>,
    policy: P,
    rec: obs::Recorder,
) -> SimReport {
    let config = SimConfig::new(hierarchy).with_nodes(nodes).with_obs(rec);
    let (report, _) = Simulation::new(config, files, scripts, policy).run();
    report
}

/// Compute time that overlaps a PFS stage-in of `step_bytes` with 2×
/// headroom — the calibration used by Figs. 4a/4b so prefetchers have a
/// realistic window to work in (DESIGN.md §5). The paper's workloads
/// alternate compute and I/O; 2× slack matches its ~89% parallel-
/// prefetcher hit ratio.
pub fn overlap_compute(step_bytes: u64) -> Duration {
    // PFS aggregate ≈ 24 channels × 100 MiB/s ≈ 2.34 GiB/s.
    let pfs_aggregate = 2.34 * GIB as f64;
    Duration::from_secs_f64(step_bytes as f64 / pfs_aggregate * 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::gib;

    #[test]
    fn overlap_compute_scales_linearly() {
        let a = overlap_compute(gib(1));
        let b = overlap_compute(gib(2));
        assert!((b.as_secs_f64() / a.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!(a.as_secs_f64() > 0.7 && a.as_secs_f64() < 1.0);
    }
}
