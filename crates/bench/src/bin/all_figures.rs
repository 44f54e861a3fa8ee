//! Regenerates every figure of the paper, writes `bench_results/`, and
//! records the wall-clock perf trajectory in `BENCH_figures.json`: one
//! metric per figure, then `sim_total` (the simulated figures 3b–6b) apart
//! from Fig. 3(a)'s real-thread run, and `total` (all figures).
//!
//! Knobs: `HFETCH_BENCH_SCALE` (smoke/quick/full) picks the workload
//! scale; `HFETCH_BENCH_THREADS` caps the parallel scenario runner (the
//! table outputs are byte-identical for any thread count).

use std::time::Instant;

use bench_support::perf::{Metric, PerfReport};
use bench_support::{figures, runner, table, BenchScale, Table};

fn main() {
    let scale = BenchScale::from_env();
    let threads = runner::threads_from_env();
    println!(
        "Regenerating all figures at scale: {} ({} runner thread{})\n",
        scale.label(),
        threads,
        if threads == 1 { "" } else { "s" },
    );

    type FigureJob = Box<dyn Fn() -> Table>;
    let figure_set: Vec<(&str, FigureJob)> = vec![
        ("fig3a", Box::new(move || figures::fig3a::run(scale))),
        ("fig3b", Box::new(move || figures::fig3b::run_with_threads(scale, threads))),
        ("fig4a", Box::new(move || figures::fig4a::run_with_threads(scale, threads))),
        ("fig4b", Box::new(move || figures::fig4b::run_with_threads(scale, threads))),
        ("fig5", Box::new(move || figures::fig5::run_with_threads(scale, threads))),
        ("fig6a", Box::new(move || figures::fig6::run_montage_with_threads(scale, threads))),
        ("fig6b", Box::new(move || figures::fig6::run_wrf_with_threads(scale, threads))),
    ];

    let mut perf = PerfReport::new("hfetch-bench-figures/1")
        .context("scale", scale.label())
        .context("threads", threads.to_string());
    let total = Instant::now();
    let mut sim_total = 0.0;
    for (name, run) in figure_set {
        let start = Instant::now();
        let figure = run();
        let wall = start.elapsed().as_secs_f64();
        figure.save(name).unwrap_or_else(|e| panic!("saving {name}: {e}"));
        perf.push(Metric::new(name, wall, "s"));
        // Fig. 3(a) runs on real threads; the rest are simulated.
        if name != "fig3a" {
            sim_total += wall;
        }
    }
    perf.push(Metric::new("sim_total", sim_total, "s"));
    perf.push(Metric::new("total", total.elapsed().as_secs_f64(), "s"));
    perf.save(&table::results_dir(), "BENCH_figures.json").expect("perf record");
    println!("Results written to {}", table::results_dir().display());
}
