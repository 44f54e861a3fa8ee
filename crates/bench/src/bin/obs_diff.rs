//! ObsReport regression gate: compares two ObsReport JSON files under the
//! tolerance rules of DESIGN.md §5.11 (counters/gauges/trace_events exact,
//! histograms within a relative tolerance).
//!
//! ```text
//! obs_diff <baseline.obs.json> <candidate.obs.json> [--hist-tol FRACTION]
//! obs_diff --lint <report.json>
//! ```
//!
//! Exit codes: `0` match, `1` differences found (each printed as a
//! `DIFF ...` line), `2` usage / IO / parse errors. `scripts/verify.sh`
//! runs this against the committed golden baselines in
//! `crates/bench/tests/golden/`.
//!
//! `--lint` instead checks one ObsReport or `BENCH_*.json` perf record for
//! stability (sorted, unique keys; no wall-clock fields): exit `0` with a
//! summary line, `1` with a `LINT ...` line per violation, `2` when the
//! file is unreadable or not valid JSON.

use bench_support::obsdiff::{self, DiffOptions};

const USAGE: &str = "usage: obs_diff <baseline.obs.json> <candidate.obs.json> [--hist-tol FRACTION]
       obs_diff --lint <report.json>";

fn usage_error(msg: &str) -> ! {
    eprintln!("obs_diff: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn read(path: &str, side: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs_diff: cannot read {side} `{path}`: {e}");
        std::process::exit(2);
    })
}

fn load(path: &str, side: &str) -> bench_support::json::Json {
    let text = read(path, side);
    bench_support::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("obs_diff: {side} `{path}` is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn lint(path: &str) -> ! {
    let text = read(path, "report");
    let (doc, order) = bench_support::json::parse_keyed(&text).unwrap_or_else(|e| {
        eprintln!("obs_diff: report `{path}` is not valid JSON: {e}");
        std::process::exit(2);
    });
    match obsdiff::lint(&doc, &order) {
        Ok(summary) => {
            println!("{path}: {summary}");
            std::process::exit(0);
        }
        Err(violations) => {
            for v in violations {
                println!("LINT {path}: {v}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--lint") {
        match &args[1..] {
            [path] => lint(path),
            _ => usage_error("--lint takes exactly one report path"),
        }
    }
    let mut paths: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hist-tol" => {
                let raw = args.next().unwrap_or_else(|| usage_error("--hist-tol takes a fraction"));
                match raw.parse::<f64>() {
                    Ok(t) if (0.0..=1.0).contains(&t) => opts.hist_tol = t,
                    _ => usage_error(&format!("--hist-tol must be a fraction in [0, 1], got `{raw}`")),
                }
            }
            other if !other.starts_with('-') && paths.len() < 2 => paths.push(other.to_string()),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let [baseline_path, candidate_path] = &paths[..] else {
        usage_error("expected exactly two report paths")
    };
    let baseline = load(baseline_path, "baseline");
    let candidate = load(candidate_path, "candidate");
    let diff = obsdiff::diff(&baseline, &candidate, opts).unwrap_or_else(|e| {
        eprintln!("obs_diff: {e}");
        std::process::exit(2);
    });
    print!("{}", obsdiff::render_report(&diff));
    if !diff.is_match() {
        std::process::exit(1);
    }
}
