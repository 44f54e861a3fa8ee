//! HFetch benchmark runner.
//!
//! `hfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload for about `s` seconds of measurement and prints one
//! `metric <name> <value>` line per measurement and one
//! `ops <attempted> <failed>` line. `run.py` next to this package builds
//! it, checks the names against `BENCHMARK.json` and prints the result.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
//! per-layer ones, measured in separate traced runs. A broken invariant
//! exits with code 1, bad arguments with code 2.

mod serverwl;
mod simwl;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use obs::ObsReport;

use crate::simwl::SimKind;

/// What one workload measured, and how many of its operations were
/// attempted and failed the correctness gate.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Counts both deployments record in the same way; `events` is the number
/// of events the auditor ingested (delivered callbacks in the simulator,
/// queue pops plus reads served from a cache tier in the server).
pub fn set_shared_counts(out: &mut Outcome, counts: &ObsReport, events: f64) {
    out.set(
        "placement.events",
        stats::counter(counts, "placement.events") as f64,
    );
    let locks: u64 = [
        "ingest.locks.map_shard",
        "ingest.locks.queue_stripe",
        "ingest.locks.auxiliary",
    ]
    .iter()
    .map(|n| stats::counter(counts, n))
    .sum();
    out.set("ingest.locks_per_event", stats::ratio(locks as f64, events));
    let drain = stats::histogram(counts, "auditor.drain_latency_ns");
    out.set(
        "auditor.drain_latency_p50_ns",
        stats::histogram_quantile(&drain, 0.5),
    );
    out.set(
        "auditor.drain_latency_p99_ns",
        stats::histogram_quantile(&drain, 0.99),
    );
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<Result<Outcome, String>> {
    Some(match workload {
        "sim_large_file" => simwl::run(SimKind::LargeFile, seed, seconds, trace),
        "sim_pipeline" => simwl::run(SimKind::Pipeline, seed, seconds, trace),
        "server_agents" => serverwl::run(seed, seconds, trace),
        _ => return None,
    })
}

const USAGE: &str = "usage: hfbench --workload <sim_large_file|sim_pipeline|server_agents> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
    };
    let parsed = (|| {
        let workload = arg("--workload")?;
        let seed = arg("--seed")?.parse::<u64>().ok()?;
        let seconds = arg("--seconds")?.parse::<f64>().ok().filter(|s| *s > 0.0)?;
        let trace = match arg("--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some((workload, seed, seconds, trace))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run(workload, seed, seconds, trace) {
        None => {
            eprintln!("unknown workload {workload:?}\n{USAGE}");
            ExitCode::from(2)
        }
        Some(Err(e)) => {
            eprintln!("hfbench: {e}");
            ExitCode::from(1)
        }
        Some(Ok(out)) => {
            for (name, value) in &out.values {
                println!("metric {name} {value}");
            }
            println!("ops {} {}", out.attempted, out.failed);
            if workload.starts_with("server") {
                eprintln!("hfbench: {} client threads", serverwl::clients());
            }
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = spec
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn smoke_runs_measure_every_declared_end_to_end_metric() {
        let end_to_end = declared("end_to_end");
        assert!(end_to_end.iter().any(|n| n == "setup_s"));
        for workload in ["sim_large_file", "sim_pipeline", "server_agents"] {
            let out = run(workload, 1, 0.05, false).unwrap().unwrap();
            assert_eq!(out.failed, 0, "{workload}");
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.values.keys().copied().collect();
            assert_eq!(names.len(), end_to_end.len(), "{workload}: {names:?}");
            for name in &end_to_end {
                let v = out.values[name.as_str()];
                assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
            }
        }
    }

    #[test]
    fn traced_runs_report_only_declared_layer_metrics() {
        let per_layer = declared("per_layer");
        for workload in ["sim_pipeline", "server_agents"] {
            let out = run(workload, 2, 0.05, true).unwrap().unwrap();
            assert_eq!(out.failed, 0, "{workload}");
            for name in out.values.keys() {
                assert!(
                    per_layer.iter().any(|n| n == name),
                    "{workload}: {name} not in BENCHMARK.json"
                );
            }
            assert!(out.values["trace.overhead_ratio"] > 0.0);
        }
    }
}
