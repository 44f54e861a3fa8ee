//! Seeded input generation, order statistics and process measurements
//! shared by the workloads.

use std::time::Duration;

use obs::{Histogram, Label, ObsReport};

/// SplitMix64: a tiny, fully specified generator, so the same `--seed`
/// yields the same inputs on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `d` scaled by a factor uniform in `[1 - spread, 1 + spread)`.
    pub fn jitter(&mut self, d: Duration, spread: f64) -> Duration {
        d.mul_f64(1.0 - spread + 2.0 * spread * self.unit())
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Ratio that reads 0 rather than NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every tier and tier-pair label the hierarchies here can produce.
fn tier_labels() -> impl Iterator<Item = Label> {
    (0..8u16)
        .map(Label::tier)
        .chain((0..8u16).flat_map(|a| (0..8u16).map(move |b| Label::tier_pair(a, b))))
}

fn rendered(name: &str, label: Label) -> String {
    match label {
        Label::Tier(t) => format!("{name}{{tier={t}}}"),
        Label::TierPair(a, b) => format!("{name}{{from={a},to={b}}}"),
        _ => name.to_string(),
    }
}

/// Unlabelled counter value.
pub fn counter(report: &ObsReport, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

/// Sum of a counter over its tier / tier-pair labels (for counters that
/// are recorded only per tier, with no unlabelled total).
pub fn counter_by_tier(report: &ObsReport, name: &str) -> u64 {
    tier_labels()
        .filter_map(|l| report.counter(&rendered(name, l)))
        .sum()
}

/// A histogram merged over its unlabelled, tier and tier-pair series.
pub fn histogram(report: &ObsReport, name: &str) -> Histogram {
    let mut merged = Histogram::default();
    for key in std::iter::once(name.to_string()).chain(tier_labels().map(|l| rendered(name, l))) {
        if let Some(h) = report.histogram(&key) {
            merged.merge(h);
        }
    }
    merged
}

/// Quantile of a log2 histogram, resolved to the upper edge of the bucket
/// that holds it (bucket `i >= 1` covers `[2^(i-1), 2^i)`).
pub fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = ((h.count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in h.buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn generator_is_reproducible() {
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(SplitMix64::new(8).next_u64(), xs[0]);
    }

    #[test]
    fn histogram_quantile_reads_bucket_edges() {
        let mut h = Histogram::default();
        for v in [3, 3, 3, 100] {
            h.record(v);
        }
        assert_eq!(histogram_quantile(&h, 0.5), 4.0);
        assert_eq!(histogram_quantile(&h, 0.99), 128.0);
    }
}
