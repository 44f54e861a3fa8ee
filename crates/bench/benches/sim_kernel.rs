//! Discrete-event simulator kernel throughput: events dispatched per
//! second of wall time, which bounds how large a cluster the figure
//! harnesses can replay.
//!
//! Alongside the end-to-end DES number, `sim_kernel/hfetch/obs_{off,on}`
//! runs the same DES workload through the full HFetch policy with the
//! observability recorder disabled (the default: instrumented call sites
//! pay one branch) vs enabled (typed placement trace + metrics recorded).
//! The gap is the cost contract of `crates/obs`; the disabled side must
//! track `no_prefetch` scaling.
//!
//! Results are printed criterion-style and recorded in
//! `BENCH_sim_kernel.json` under the results directory so successive
//! commits leave a comparable perf trajectory. `--test` runs each
//! measurement once (plumbing mode).

use std::time::Duration;

use bench_support::perf::{Metric, PerfReport};
use bench_support::table::results_dir;
use criterion::{measure, Bencher, Measurement};
use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use sim::engine::{SimConfig, Simulation};
use sim::policy::NoPrefetch;
use sim::script::{RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::topology::Hierarchy;
use tiers::units::{gib, MIB};

fn workload(ranks: u32, reads_per_rank: u32) -> (Vec<SimFile>, Vec<RankScript>) {
    let files = vec![SimFile { id: FileId(0), size: gib(64) }];
    let scripts = (0..ranks)
        .map(|r| {
            ScriptBuilder::new(ProcessId(r), AppId(0))
                .open(FileId(0))
                .timestep_reads(
                    FileId(0),
                    r as u64 * reads_per_rank as u64 * MIB,
                    MIB,
                    reads_per_rank,
                    Duration::from_millis(1),
                )
                .close(FileId(0))
                .build()
        })
        .collect();
    (files, scripts)
}

struct Bench {
    perf: PerfReport,
    test_mode: bool,
}

impl Bench {
    fn run(
        &mut self,
        name: &str,
        unit_label: &str,
        units_per_iter: f64,
        f: impl FnMut(&mut Bencher),
    ) -> Measurement {
        let m = measure(self.test_mode, f);
        let rate = units_per_iter / m.mean.as_secs_f64();
        println!(
            "{name:<40} time: {:>12.3?}  rate: {rate:.3e} {unit_label}{}",
            m.mean,
            if self.test_mode { "  [test mode: 1 iter]" } else { "" },
        );
        self.perf.push(Metric::new(name, rate, unit_label));
        m
    }
}

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    let mut bench = Bench {
        perf: PerfReport::new("hfetch-bench-sim-kernel/1")
            .context("mode", if test_mode { "test" } else { "full" }),
        test_mode,
    };

    // End-to-end DES throughput.
    for ranks in [64u32, 512] {
        let reads = 16u32;
        let events = ranks as u64 * (reads as u64 * 2 + 2); // compute+read per step, open/close
        bench.run(
            &format!("sim_kernel/no_prefetch/{ranks}"),
            "events_per_s",
            events as f64,
            |b| {
                b.iter(|| {
                    let (files, scripts) = workload(ranks, reads);
                    let config = SimConfig::new(Hierarchy::with_budgets(gib(1), gib(2), gib(4)))
                        .with_nodes(ranks.div_ceil(40).max(1));
                    Simulation::new(config, files, scripts, NoPrefetch).run().0.makespan
                })
            },
        );
    }

    // Observability cost contract — HFetch end to end with
    // the recorder disabled vs enabled. A fresh recorder per iteration so
    // the enabled side pays allocation + every record, not amortization.
    let (ranks, reads) = (64u32, 16u32);
    let events = ranks as u64 * (reads as u64 * 2 + 2);
    let run_with = |rec: obs::Recorder| {
        let (files, scripts) = workload(ranks, reads);
        let hierarchy = Hierarchy::with_budgets(gib(1), gib(2), gib(4));
        let config = SimConfig::new(hierarchy.clone())
            .with_nodes(ranks.div_ceil(40).max(1))
            .with_obs(rec.clone());
        let policy =
            HFetchPolicy::new(HFetchConfig { obs: rec, ..Default::default() }, &hierarchy);
        Simulation::new(config, files, scripts, policy).run().0.makespan
    };
    bench.run("sim_kernel/hfetch/obs_off", "events_per_s", events as f64, |b| {
        b.iter(|| run_with(obs::Recorder::disabled()))
    });
    bench.run("sim_kernel/hfetch/obs_on", "events_per_s", events as f64, |b| {
        b.iter(|| run_with(obs::Recorder::enabled()))
    });

    bench.perf.save(&results_dir(), "BENCH_sim_kernel.json").expect("perf record");
}
