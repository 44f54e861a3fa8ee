//! Fixed-bucket power-of-two histogram.
//!
//! One layout serves both simulated-time durations (nanoseconds) and sizes
//! (bytes): bucket 0 holds exact zeros, bucket `i >= 1` holds values in
//! `[2^(i-1), 2^i)`, and the top bucket additionally absorbs everything at or
//! above its lower bound — out-of-range values clamp, they never panic. With
//! [`HIST_BUCKETS`] = 40 the top open bucket starts at `2^38` (≈ 275 s of
//! simulated time, or 256 GiB), far beyond anything the scenarios produce, so
//! clamping is a safety rail rather than a measurement artifact.

/// Number of buckets in every [`Histogram`].
pub const HIST_BUCKETS: usize = 40;

/// Fixed-layout log2 histogram. `Default` is empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Total number of recorded observations.
    pub count: u64,
    /// Saturating sum of all recorded values.
    pub sum: u64,
    /// Per-bucket observation counts (see module docs for the layout).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for `value`. Total: every `u64` maps to a valid index.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// The `q`-th quantile (`q` in `[0, 1]`), resolved to the upper edge of
    /// the bucket holding that sample: 0 for bucket 0, `2^i` for bucket
    /// `i`, and `u64::MAX` for the open-ended top bucket. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        let i = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= target
        })?;
        Some(match i {
            0 => 0,
            i if i == HIST_BUCKETS - 1 => u64::MAX,
            i => 1 << i,
        })
    }

    /// Fold `other` into `self` bucket-by-bucket.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!((h.count, h.sum), (1, 0));
    }

    #[test]
    fn powers_of_two_land_on_bucket_boundaries() {
        // Bucket i >= 1 covers [2^(i-1), 2^i): 1 -> bucket 1, 2 -> bucket 2,
        // 3 -> bucket 2, 4 -> bucket 3, ...
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of((1 << 20) - 1), 20);
        assert_eq!(Histogram::bucket_of(1 << 20), 21);
    }

    #[test]
    fn values_above_top_bucket_clamp_instead_of_panicking() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(1 << 60);
        h.record(1 << (HIST_BUCKETS as u32 - 2)); // exactly the top bucket's lower bound
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 3);
        assert_eq!(h.count, 3);
    }

    #[test]
    fn sum_saturates_rather_than_overflowing() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn merge_empty_and_nonempty_histograms() {
        // Empty into nonempty: a no-op.
        let mut a = Histogram::default();
        a.record(7);
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
        // Nonempty into empty: an exact copy.
        let mut b = Histogram::default();
        b.merge(&a);
        assert_eq!(b, a);
        // Empty into empty stays empty.
        let mut c = Histogram::default();
        c.merge(&Histogram::default());
        assert_eq!(c, Histogram::default());
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn quantile_of_all_zero_samples_is_zero() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.99), Some(0));
        assert_eq!(h.quantile(1.0), Some(0));
    }

    #[test]
    fn quantile_reads_the_upper_bucket_edge() {
        let mut h = Histogram::default();
        for v in [3, 3, 3, 100] {
            h.record(v);
        }
        // 3 lies in [2, 4), 100 in [64, 128).
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.75), Some(4));
        assert_eq!(h.quantile(0.99), Some(128));
    }

    #[test]
    fn quantile_extremes_pick_the_first_and_last_samples() {
        let mut h = Histogram::default();
        for v in [5, 1000, 70_000] {
            h.record(v);
        }
        // q = 0 still resolves to the first sample, q = 1 to the last.
        assert_eq!(h.quantile(0.0), Some(8));
        assert_eq!(h.quantile(1.0), Some(1 << 17));
        // Out-of-range q clamps.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_in_the_clamped_top_bucket_is_unbounded() {
        let mut h = Histogram::default();
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        // The top bucket's lower bound lands there too.
        let mut top = Histogram::default();
        top.record(1 << (HIST_BUCKETS as u32 - 2));
        assert_eq!(top.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(0);
        a.record(5);
        b.record(5);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[Histogram::bucket_of(5)], 2);
        assert_eq!(a.buckets[HIST_BUCKETS - 1], 1);
    }
}
