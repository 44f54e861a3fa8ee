//! ObsReport comparison: the regression gate behind `--bin obs_diff`.
//!
//! Compares two ObsReport JSON documents (as written by
//! `obs::ObsReport::to_json`) under the tolerance rules of DESIGN.md
//! §5.11:
//!
//! * **counters and gauges are exact** — they are classifications and
//!   event counts (placement causes, effectiveness classes, lock
//!   acquisitions); any drift is a behaviour change the gate must catch,
//! * **histogram shapes are relative** — `count`, `sum` and per-bucket
//!   counts may drift within a configurable relative tolerance (default
//!   10%), because latency-shaped distributions are the one place where a
//!   legitimate refactor may move mass between adjacent buckets,
//! * **`trace_events` is exact** — the stream length is part of the
//!   behavioural contract,
//! * a key present on one side only is always a difference.
//!
//! `scripts/verify.sh` runs this against the committed golden baselines
//! (`crates/bench/tests/golden/*.obs.json`); `HFETCH_BLESS=1` on the
//! golden-trace suite re-blesses them after an intended change.
//!
//! [`lint`] is the stability check behind `obs_diff --lint`: a report that
//! successive runs must reproduce byte for byte keeps its keys sorted,
//! unique, and free of wall-clock fields.

use std::fmt::Write as _;

use crate::json::{Json, KeyOrder};

/// Tolerance knobs for a comparison.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Maximum relative deviation allowed on histogram `count`/`sum`/bucket
    /// values: `|a-b| <= hist_tol * max(a, b)`.
    pub hist_tol: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self { hist_tol: 0.10 }
    }
}

/// The outcome of comparing two reports.
#[derive(Debug, Default)]
pub struct Diff {
    /// Human-readable difference lines, in deterministic (key-sorted) order.
    pub failures: Vec<String>,
    /// Leaf comparisons performed (so "0 differences" can be qualified).
    pub compared: u64,
}

impl Diff {
    /// True when the reports matched under the tolerance rules.
    pub fn is_match(&self) -> bool {
        self.failures.is_empty()
    }
}

fn as_u64(v: &Json) -> Option<u64> {
    v.as_num().map(|n| n as u64)
}

fn within_rel(a: u64, b: u64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    let hi = a.max(b) as f64;
    (a.abs_diff(b) as f64) <= tol * hi
}

/// Compares `baseline` against `candidate` (both parsed ObsReport JSON).
/// Returns `Err` when either document is not ObsReport-shaped.
pub fn diff(baseline: &Json, candidate: &Json, opts: DiffOptions) -> Result<Diff, String> {
    let mut out = Diff::default();
    for section in ["counters", "gauges"] {
        let b = section_obj(baseline, section, "baseline")?;
        let c = section_obj(candidate, section, "candidate")?;
        // Deterministic single pass over the sorted key union.
        let keys: Vec<&String> = {
            let mut v: Vec<&String> = b.keys().chain(c.keys()).collect();
            v.sort();
            v.dedup();
            v
        };
        for key in keys {
            out.compared += 1;
            match (b.get(key), c.get(key)) {
                (Some(bv), Some(cv)) => {
                    let (bv, cv) = (as_u64(bv), as_u64(cv));
                    if bv != cv {
                        out.failures.push(format!(
                            "{section}: `{key}` baseline={} candidate={}",
                            fmt_opt(bv),
                            fmt_opt(cv)
                        ));
                    }
                }
                (Some(bv), None) => out.failures.push(format!(
                    "{section}: `{key}` only in baseline (={})",
                    fmt_opt(as_u64(bv))
                )),
                (None, Some(cv)) => out.failures.push(format!(
                    "{section}: `{key}` only in candidate (={})",
                    fmt_opt(as_u64(cv))
                )),
                (None, None) => unreachable!("key came from one of the maps"),
            }
        }
    }
    diff_histograms(baseline, candidate, opts, &mut out)?;
    out.compared += 1;
    let b_events = baseline.get("trace_events").and_then(as_u64);
    let c_events = candidate.get("trace_events").and_then(as_u64);
    if b_events != c_events {
        out.failures.push(format!(
            "trace_events: baseline={} candidate={}",
            fmt_opt(b_events),
            fmt_opt(c_events)
        ));
    }
    Ok(out)
}

fn fmt_opt(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "<non-numeric>".into(),
    }
}

fn section_obj<'a>(
    doc: &'a Json,
    section: &str,
    side: &str,
) -> Result<&'a std::collections::BTreeMap<String, Json>, String> {
    doc.get(section)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{side}: missing `{section}` object (not an ObsReport?)"))
}

fn diff_histograms(
    baseline: &Json,
    candidate: &Json,
    opts: DiffOptions,
    out: &mut Diff,
) -> Result<(), String> {
    let b = section_obj(baseline, "histograms", "baseline")?;
    let c = section_obj(candidate, "histograms", "candidate")?;
    let keys: Vec<&String> = {
        let mut v: Vec<&String> = b.keys().chain(c.keys()).collect();
        v.sort();
        v.dedup();
        v
    };
    for key in keys {
        match (b.get(key), c.get(key)) {
            (Some(bh), Some(ch)) => {
                for field in ["count", "sum"] {
                    out.compared += 1;
                    let (bv, cv) = (
                        bh.get(field).and_then(as_u64),
                        ch.get(field).and_then(as_u64),
                    );
                    let ok = match (bv, cv) {
                        (Some(a), Some(b)) => within_rel(a, b, opts.hist_tol),
                        _ => false,
                    };
                    if !ok {
                        out.failures.push(format!(
                            "histograms: `{key}.{field}` baseline={} candidate={} \
                             (tol {:.0}%)",
                            fmt_opt(bv),
                            fmt_opt(cv),
                            opts.hist_tol * 100.0
                        ));
                    }
                }
                let bb = buckets_of(bh);
                let cb = buckets_of(ch);
                let idxs: Vec<u64> = {
                    let mut v: Vec<u64> =
                        bb.iter().map(|&(i, _)| i).chain(cb.iter().map(|&(i, _)| i)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                for idx in idxs {
                    out.compared += 1;
                    let a = bucket_count(&bb, idx);
                    let b = bucket_count(&cb, idx);
                    if !within_rel(a, b, opts.hist_tol) {
                        out.failures.push(format!(
                            "histograms: `{key}` bucket {idx} baseline={a} candidate={b} \
                             (tol {:.0}%)",
                            opts.hist_tol * 100.0
                        ));
                    }
                }
            }
            (Some(_), None) => {
                out.compared += 1;
                out.failures.push(format!("histograms: `{key}` only in baseline"));
            }
            (None, Some(_)) => {
                out.compared += 1;
                out.failures.push(format!("histograms: `{key}` only in candidate"));
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    Ok(())
}

/// `[[bucket_index, count], ...]` pairs of one histogram object; malformed
/// entries are dropped (they will then surface as missing-bucket diffs).
fn buckets_of(hist: &Json) -> Vec<(u64, u64)> {
    hist.get("buckets")
        .and_then(Json::as_arr)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    let p = p.as_arr()?;
                    Some((as_u64(p.first()?)?, as_u64(p.get(1)?)?))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn bucket_count(buckets: &[(u64, u64)], idx: u64) -> u64 {
    buckets.iter().find(|&&(i, _)| i == idx).map(|&(_, n)| n).unwrap_or(0)
}

/// Lints one harness JSON document, parsed by [`json::parse_keyed`], for
/// stability, returning a one-line summary or every violation found. Two
/// shapes are recognised:
///
/// * a perf record (`BENCH_*.json`, a `metrics` array): metric names sorted
///   and unique, and no metric or context key containing `time`, `date`,
///   `stamp`, `epoch_s` or `now`;
/// * an ObsReport: the `counters`, `gauges` and `histograms` keys strictly
///   sorted (so unique), and no key anywhere whose letter runs include a
///   wall-clock word (`wall`, `unix`, `utc`, `now`, `clock`, `timestamp`,
///   ...). Matching whole tokens keeps names like `dht.map.updates` legal.
///
pub fn lint(doc: &Json, order: &KeyOrder) -> Result<String, Vec<String>> {
    let mut bad = Vec::new();
    let keys_of = |path: &str| -> Vec<String> {
        order.iter().filter(|(p, _)| p == path).flat_map(|(_, k)| k.clone()).collect()
    };
    let unsorted = |what: &str, keys: &[String], bad: &mut Vec<String>| {
        for pair in keys.windows(2).filter(|p| p[0] >= p[1]) {
            bad.push(format!("{what}: `{}` does not sort before `{}`", pair[0], pair[1]));
        }
    };
    if let Some(metrics) = doc.get("metrics").and_then(Json::as_arr) {
        let names: Vec<String> =
            metrics.iter().filter_map(|m| m.get("name")?.as_str().map(String::from)).collect();
        unsorted("metrics", &names, &mut bad);
        let context = keys_of("").into_iter().filter(|k| k != "schema" && k != "metrics");
        for key in context.chain(names.iter().cloned()) {
            let low = key.to_lowercase();
            if ["time", "date", "stamp", "epoch_s", "now"].iter().any(|t| low.contains(t)) {
                bad.push(format!("wall-clock-ish field: {key}"));
            }
        }
        return if bad.is_empty() {
            Ok(format!("perf record stable: {} metrics, sorted, no timestamps", names.len()))
        } else {
            Err(bad)
        };
    }
    let mut series = 0;
    for section in ["counters", "gauges", "histograms"] {
        if doc.get(section).and_then(Json::as_obj).is_none() {
            return Err(vec![format!("missing `{section}` object (not an ObsReport?)")]);
        }
        let keys = keys_of(section);
        series += keys.len();
        unsorted(section, &keys, &mut bad);
    }
    lint_wall_clock(order, &mut bad);
    let events = doc.get("trace_events").and_then(Json::as_num).unwrap_or(0.0);
    if bad.is_empty() {
        Ok(format!("ObsReport stable: {series} series, sorted, sim-clock only ({events} trace events)"))
    } else {
        Err(bad)
    }
}

/// Token-exact wall-clock lint over every object key of an ObsReport.
fn lint_wall_clock(order: &KeyOrder, bad: &mut Vec<String>) {
    const FORBIDDEN: [&str; 10] =
        ["wall", "walltime", "unix", "date", "datetime", "utc", "stamp", "timestamp", "now", "clock"];
    // Objects nested in arrays are data, not fields.
    for key in order.iter().filter(|(path, _)| !path.contains("[]")).flat_map(|(_, k)| k) {
        let low = key.to_lowercase();
        let hits: Vec<&str> = (low.split(|c: char| !c.is_ascii_lowercase()))
            .filter(|token| FORBIDDEN.contains(token))
            .collect();
        if !hits.is_empty() {
            bad.push(format!("wall-clock-ish field: {key} ({})", hits.join(", ")));
        }
    }
}

/// Renders a finished comparison as the `obs_diff` CLI report.
pub fn render_report(diff: &Diff) -> String {
    let mut out = String::new();
    for line in &diff.failures {
        let _ = writeln!(out, "DIFF {line}");
    }
    let _ = writeln!(
        out,
        "obs-diff: {} comparisons, {} difference{}",
        diff.compared,
        diff.failures.len(),
        if diff.failures.len() == 1 { "" } else { "s" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn report(timely: u64, late_sum: u64, bucket3: u64) -> Json {
        json::parse(&format!(
            "{{\"counters\": {{\"effect.reads.timely_hit\": {timely}, \
             \"placement.events\": 12}},\n\"gauges\": {{\"ingest.queue.stripes\": 8}},\n\
             \"histograms\": {{\"effect.late.lateness_ns\": {{\"count\": 10, \
             \"sum\": {late_sum}, \"buckets\": [[3, {bucket3}], [4, 5]]}}}},\n\
             \"trace_events\": 40}}"
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_match() {
        let a = report(7, 1000, 5);
        let d = diff(&a, &a, DiffOptions::default()).unwrap();
        assert!(d.is_match(), "{:?}", d.failures);
        assert!(d.compared >= 6);
    }

    #[test]
    fn perturbed_classification_counter_fails_exactly() {
        // Effectiveness classes are counters → exact, no tolerance.
        let a = report(7, 1000, 5);
        let b = report(8, 1000, 5);
        let d = diff(&a, &b, DiffOptions::default()).unwrap();
        assert!(!d.is_match());
        assert!(
            d.failures.iter().any(|f| f.contains("effect.reads.timely_hit")
                && f.contains("baseline=7")
                && f.contains("candidate=8")),
            "{:?}",
            d.failures
        );
    }

    #[test]
    fn histogram_drift_within_tolerance_passes() {
        let a = report(7, 1000, 100);
        let b = report(7, 1050, 95);
        let d = diff(&a, &b, DiffOptions { hist_tol: 0.10 }).unwrap();
        assert!(d.is_match(), "{:?}", d.failures);
    }

    #[test]
    fn histogram_drift_beyond_tolerance_fails() {
        let a = report(7, 1000, 100);
        let b = report(7, 2000, 100);
        let d = diff(&a, &b, DiffOptions { hist_tol: 0.10 }).unwrap();
        assert!(d.failures.iter().any(|f| f.contains("lateness_ns.sum")), "{:?}", d.failures);
    }

    #[test]
    fn one_sided_keys_are_differences() {
        let a = report(7, 1000, 5);
        let mut extra = a.clone();
        if let Json::Obj(doc) = &mut extra {
            if let Some(Json::Obj(counters)) = doc.get_mut("counters") {
                counters.insert("effect.reads.miss".into(), Json::Num(3.0));
            }
        }
        let d = diff(&a, &extra, DiffOptions::default()).unwrap();
        assert!(
            d.failures.iter().any(|f| f.contains("effect.reads.miss") && f.contains("only in candidate")),
            "{:?}",
            d.failures
        );
    }

    fn lint_text(text: &str) -> Result<String, Vec<String>> {
        let (doc, order) = json::parse_keyed(text).unwrap();
        lint(&doc, &order)
    }

    #[test]
    fn lint_accepts_sorted_reports_and_perf_records() {
        let report = "{\"counters\": {\"a\": 1, \"dht.map.updates\": 2}, \"gauges\": {},\n\
                      \"histograms\": {\"h\": {\"count\": 1, \"sum\": 2, \"buckets\": []}},\n\
                      \"trace_events\": 3}";
        assert_eq!(
            lint_text(report),
            Ok("ObsReport stable: 3 series, sorted, sim-clock only (3 trace events)".into())
        );
        let record = "{\"schema\": \"s/1\", \"scale\": \"quick\", \"metrics\": [\n\
                      {\"name\": \"a/x\", \"value\": 1}, {\"name\": \"b/y\", \"value\": 2}]}";
        assert_eq!(lint_text(record), Ok("perf record stable: 2 metrics, sorted, no timestamps".into()));
    }

    #[test]
    fn lint_flags_order_duplicates_and_wall_clock_fields() {
        let report = "{\"counters\": {\"b\": 1, \"a\": 2, \"a\": 3}, \"gauges\": {\"now_ns\": 1},\n\
                      \"histograms\": {}, \"trace_events\": 0}";
        let bad = lint_text(report).unwrap_err();
        assert!(bad.iter().any(|b| b.contains("`b` does not sort before `a`")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("`a` does not sort before `a`")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("now_ns (now)")), "{bad:?}");
        let record = "{\"schema\": \"s/1\", \"run_date\": \"x\", \"metrics\": [\n\
                      {\"name\": \"b\", \"value\": 1}, {\"name\": \"a/timestamp\", \"value\": 2}]}";
        let bad = lint_text(record).unwrap_err();
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(lint_text("{\"traceEvents\": []}").is_err());
    }

    #[test]
    fn non_obsreport_documents_are_errors() {
        let bad = json::parse("{\"traceEvents\": []}").unwrap();
        let good = report(1, 1, 1);
        assert!(diff(&bad, &good, DiffOptions::default()).is_err());
        assert!(diff(&good, &bad, DiffOptions::default()).is_err());
    }
}
