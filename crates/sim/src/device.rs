//! Queueing model of one tier's hardware.
//!
//! A [`Device`] has `k` independent channels. A transfer grabs the channel
//! that frees earliest: `start = max(now, channel_free)`,
//! `finish = start + latency + bytes/bandwidth`, and the channel is busy
//! until `finish`. This is a `k`-server FIFO queue — enough to reproduce
//! the contention effects the paper measures (prefetch traffic delaying
//! application reads and vice versa) without modeling the interconnect.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use tiers::tier::TierSpec;
use tiers::time::Timestamp;

/// A `k`-channel queueing device.
#[derive(Debug, Clone)]
pub struct Device {
    latency: Duration,
    bandwidth: u64,
    /// Min-heap of per-channel free times.
    channels: BinaryHeap<Reverse<Timestamp>>,
    busy: Duration,
    transfers: u64,
    bytes: u64,
}

impl Device {
    /// Creates a device with explicit parameters.
    pub fn new(latency: Duration, bandwidth: u64, channels: u32) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        assert!(channels > 0, "need at least one channel");
        let heap = (0..channels).map(|_| Reverse(Timestamp::ZERO)).collect();
        Self { latency, bandwidth, channels: heap, busy: Duration::ZERO, transfers: 0, bytes: 0 }
    }

    /// Creates a device from a tier spec, optionally scaling the channel
    /// count (e.g. node-local devices replicated across a 64-node cluster).
    pub fn from_spec(spec: &TierSpec, channel_scale: u32) -> Self {
        let channels = spec.channels.saturating_mul(channel_scale.max(1));
        Self::new(spec.latency, spec.bandwidth, channels)
    }

    /// Divides the device's bandwidth by `factor` (`>= 1`), modeling a
    /// degraded link or a failing device. Applied at simulation setup by
    /// the fault-injection layer; affects every subsequent service-time
    /// computation.
    pub fn slow_by(&mut self, factor: f64) {
        assert!(factor >= 1.0 && factor.is_finite(), "slowdown factor {factor} must be >= 1");
        self.bandwidth = ((self.bandwidth as f64 / factor).round() as u64).max(1);
    }

    /// Current bandwidth in bytes/s (after any slowdown).
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// Service time of `bytes` on one channel, excluding queueing.
    pub fn service_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth as f64)
    }

    /// Schedules a transfer of `bytes` arriving at `now`. Returns
    /// `(start, finish)`; the chosen channel is busy until `finish`.
    pub fn schedule(&mut self, now: Timestamp, bytes: u64) -> (Timestamp, Timestamp) {
        let Reverse(free) = self.channels.pop().expect("device has channels");
        let start = now.max(free);
        let service = self.service_time(bytes);
        let finish = start.after(service);
        self.channels.push(Reverse(finish));
        self.busy += service;
        self.transfers += 1;
        self.bytes += bytes;
        (start, finish)
    }

    /// Schedules a transfer that must not start before `earliest` (used for
    /// pipelined two-device transfers).
    pub fn schedule_after(
        &mut self,
        now: Timestamp,
        earliest: Timestamp,
        bytes: u64,
    ) -> (Timestamp, Timestamp) {
        self.schedule(now.max(earliest), bytes)
    }

    /// The earliest time a new transfer could start if it arrived at `now`.
    pub fn earliest_start(&self, now: Timestamp) -> Timestamp {
        let Reverse(free) = self.channels.peek().expect("device has channels");
        now.max(*free)
    }

    /// Cumulative busy time across channels.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Number of transfers served.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes served.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Mean utilization over `[0, horizon]`: busy time / (channels × horizon).
    pub fn utilization(&self, horizon: Timestamp) -> f64 {
        if horizon == Timestamp::ZERO {
            return 0.0;
        }
        let denom = self.channels.len() as f64 * horizon.as_secs_f64();
        (self.busy.as_secs_f64() / denom).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::{gib, mib, GIB, MIB};

    fn dev(channels: u32) -> Device {
        // 1 ms latency, 1 GiB/s, k channels.
        Device::new(Duration::from_millis(1), GIB, channels)
    }

    #[test]
    fn single_channel_serializes() {
        let mut d = dev(1);
        let t0 = Timestamp::ZERO;
        let (s1, f1) = d.schedule(t0, GIB); // ~1.001 s
        let (s2, f2) = d.schedule(t0, GIB);
        assert_eq!(s1, t0);
        assert_eq!(s2, f1, "second transfer queues behind the first");
        assert!(f2 > f1);
        assert_eq!(d.transfers(), 2);
        assert_eq!(d.bytes(), 2 * GIB);
    }

    #[test]
    fn multi_channel_parallelizes() {
        let mut d = dev(4);
        let t0 = Timestamp::ZERO;
        let finishes: Vec<Timestamp> = (0..4).map(|_| d.schedule(t0, MIB).1).collect();
        assert!(finishes.windows(2).all(|w| w[0] == w[1]), "4 transfers run in parallel");
        // Fifth queues.
        let (s5, _) = d.schedule(t0, MIB);
        assert_eq!(s5, finishes[0]);
    }

    #[test]
    fn later_arrivals_start_no_earlier_than_arrival() {
        let mut d = dev(2);
        let t5 = Timestamp::from_secs(5);
        let (s, f) = d.schedule(t5, MIB);
        assert_eq!(s, t5);
        assert_eq!(f, t5.after(d.service_time(MIB)));
    }

    #[test]
    fn service_time_math() {
        let d = Device::new(Duration::from_millis(3), 100 * MIB, 24);
        let t = d.service_time(mib(200));
        assert!((t.as_secs_f64() - 2.003).abs() < 1e-9, "3 ms + 200/100 s, got {t:?}");
        assert_eq!(d.service_time(0), Duration::from_millis(3));
    }

    #[test]
    fn slowdown_divides_bandwidth() {
        let mut d = Device::new(Duration::from_millis(1), GIB, 1);
        let fast = d.service_time(GIB);
        d.slow_by(4.0);
        assert_eq!(d.bandwidth(), GIB / 4);
        let slow = d.service_time(GIB);
        assert!((slow.as_secs_f64() - (fast.as_secs_f64() - 0.001) * 4.0 - 0.001).abs() < 1e-6);
    }

    #[test]
    fn from_spec_scales_channels() {
        let spec = tiers::TierSpec::ram(gib(1));
        let d = Device::from_spec(&spec, 64);
        assert_eq!(d.channel_count(), 8 * 64);
        let d0 = Device::from_spec(&spec, 0);
        assert_eq!(d0.channel_count(), 8, "scale clamps to >= 1");
    }

    #[test]
    fn schedule_after_respects_floor() {
        let mut d = dev(1);
        let (s, _) = d.schedule_after(Timestamp::ZERO, Timestamp::from_secs(2), MIB);
        assert_eq!(s, Timestamp::from_secs(2));
    }

    #[test]
    fn earliest_start_peeks_without_mutation() {
        let mut d = dev(1);
        let t0 = Timestamp::ZERO;
        assert_eq!(d.earliest_start(t0), t0);
        let (_, f) = d.schedule(t0, GIB);
        assert_eq!(d.earliest_start(t0), f);
        assert_eq!(d.transfers(), 1, "peek did not schedule");
    }

    #[test]
    fn utilization_bounds() {
        let mut d = dev(2);
        let (_, f) = d.schedule(Timestamp::ZERO, GIB);
        let u = d.utilization(f);
        assert!(u > 0.0 && u <= 1.0, "u = {u}");
        assert_eq!(dev(1).utilization(Timestamp::ZERO), 0.0);
    }
}
