//! The bounded in-memory event queue.
//!
//! "Each tier independently pushes its I/O events into a queue that resides
//! in HFetch Server memory." (§III-A) Producers are the instrumented I/O
//! shims (one per application thread); consumers are the hardware monitor's daemon threads. The queue is
//! bounded: under sustained overload HFetch prefers dropping *telemetry*
//! (counted, visible in stats) over blocking the application's I/O path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::event::AccessEvent;

/// Counters describing queue behaviour since creation.
#[derive(Debug, Default)]
pub struct QueueStats {
    pushed: AtomicU64,
    dropped: AtomicU64,
    popped: AtomicU64,
}

impl QueueStats {
    /// Events accepted into the queue.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Events rejected because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events consumed from the queue.
    pub fn popped(&self) -> u64 {
        self.popped.load(Ordering::Relaxed)
    }

    /// Exports the counters into an [`obs::Recorder`] under `events.queue.*`
    /// names. Called once per run at report time (e.g. server shutdown), not
    /// on the push/pop hot path.
    pub fn export_obs(&self, rec: &obs::Recorder) {
        if !rec.is_enabled() {
            return;
        }
        let label = obs::Label::None;
        rec.counter_add("events.queue.pushed", label, self.pushed());
        rec.counter_add("events.queue.dropped", label, self.dropped());
        rec.counter_add("events.queue.popped", label, self.popped());
    }
}

/// A bounded multi-producer multi-consumer event queue.
///
/// Cloning shares the same underlying channel and counters.
#[derive(Clone)]
pub struct EventQueue {
    tx: Sender<AccessEvent>,
    rx: Receiver<AccessEvent>,
    stats: Arc<QueueStats>,
    capacity: usize,
}

impl EventQueue {
    /// Creates a queue holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let (tx, rx) = bounded(capacity);
        Self { tx, rx, stats: Arc::new(QueueStats::default()), capacity }
    }

    /// A queue with the default capacity (64K events ≈ a few MB).
    pub fn new() -> Self {
        Self::with_capacity(64 * 1024)
    }

    /// Non-blocking push. Full queues *drop* the event (counted in stats):
    /// the producer is the application's I/O path and must never stall on
    /// telemetry. Returns true if enqueued.
    pub fn push(&self, event: AccessEvent) -> bool {
        match self.tx.try_send(event) {
            Ok(()) => {
                self.stats.pushed.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Blocking push for producers that must not lose events (used by tests
    /// and the benchmark's saturation mode). Returns false if all consumers
    /// are gone.
    pub fn push_blocking(&self, event: AccessEvent) -> bool {
        match self.tx.send(event) {
            Ok(()) => {
                self.stats.pushed.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Pops one event, waiting up to `timeout`. `None` on timeout or if all
    /// producers are gone and the queue is empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<AccessEvent> {
        match self.rx.recv_timeout(timeout) {
            Ok(e) => {
                self.stats.popped.fetch_add(1, Ordering::Relaxed);
                Some(e)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Pops up to `max` events, appending them to `buf` and returning how
    /// many arrived. Waits up to `timeout` for the *first* event, then
    /// greedily takes whatever is immediately available. One blocking
    /// rendezvous buys a whole batch, so consumers amortise per-pop channel
    /// overhead under load while staying just as responsive when traffic is
    /// sparse (a lone event is delivered as a batch of one).
    pub fn pop_batch(&self, buf: &mut Vec<AccessEvent>, max: usize, timeout: Duration) -> usize {
        if max == 0 {
            return 0;
        }
        let first = match self.rx.recv_timeout(timeout) {
            Ok(e) => e,
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => return 0,
        };
        buf.push(first);
        let mut n = 1;
        while n < max {
            match self.rx.try_recv() {
                Ok(e) => {
                    buf.push(e);
                    n += 1;
                }
                Err(_) => break,
            }
        }
        self.stats.popped.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<AccessEvent> {
        match self.rx.try_recv() {
            Ok(e) => {
                self.stats.popped.fetch_add(1, Ordering::Relaxed);
                Some(e)
            }
            Err(_) => None,
        }
    }

    /// Events currently waiting.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// True if no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shared counters.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::ids::{AppId, FileId, ProcessId};
    use tiers::range::ByteRange;
    use tiers::time::Timestamp;

    fn ev(i: u64) -> AccessEvent {
        let at = Timestamp::from_nanos(i);
        AccessEvent::read(FileId(i), ByteRange::new(0, 1), at, ProcessId(0), AppId(0))
    }

    #[test]
    fn stats_export_to_recorder() {
        let q = EventQueue::with_capacity(2);
        assert!(q.push(ev(1)));
        assert!(q.push(ev(2)));
        assert!(!q.push(ev(3)), "full queue drops");
        assert!(q.try_pop().is_some());
        let rec = obs::Recorder::enabled();
        q.stats().export_obs(&rec);
        let report = rec.report();
        assert_eq!(report.counter("events.queue.pushed"), Some(2));
        assert_eq!(report.counter("events.queue.dropped"), Some(1));
        assert_eq!(report.counter("events.queue.popped"), Some(1));
        q.stats().export_obs(&obs::Recorder::disabled());
    }

    #[test]
    fn push_pop_fifo() {
        let q = EventQueue::with_capacity(8);
        assert!(q.push(ev(1)));
        assert!(q.push(ev(2)));
        assert_eq!(q.len(), 2);
        let a = q.try_pop().unwrap();
        let b = q.try_pop().unwrap();
        assert_eq!(a.time, Timestamp::from_nanos(1));
        assert_eq!(b.time, Timestamp::from_nanos(2));
        assert!(q.try_pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_drops_and_counts() {
        let q = EventQueue::with_capacity(2);
        assert!(q.push(ev(1)));
        assert!(q.push(ev(2)));
        assert!(!q.push(ev(3)), "third push dropped");
        assert_eq!(q.stats().pushed(), 2);
        assert_eq!(q.stats().dropped(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_batch_takes_what_is_waiting() {
        let q = EventQueue::with_capacity(16);
        for i in 0..5 {
            q.push(ev(i));
        }
        let mut buf = Vec::new();
        // Capped below what's queued: take exactly `max`, FIFO order.
        assert_eq!(q.pop_batch(&mut buf, 3, Duration::from_millis(1)), 3);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[0].time, Timestamp::from_nanos(0));
        assert_eq!(buf[2].time, Timestamp::from_nanos(2));
        // More than what's queued: take the remainder without waiting for
        // the batch to fill.
        buf.clear();
        assert_eq!(q.pop_batch(&mut buf, 100, Duration::from_millis(1)), 2);
        assert_eq!(buf.len(), 2);
        assert_eq!(q.stats().popped(), 5);
        // Empty queue: time out with an untouched buffer.
        buf.clear();
        assert_eq!(q.pop_batch(&mut buf, 4, Duration::from_millis(1)), 0);
        assert!(buf.is_empty());
        assert_eq!(q.pop_batch(&mut buf, 0, Duration::from_millis(1)), 0);
    }

    #[test]
    fn pop_timeout_expires() {
        let q = EventQueue::with_capacity(2);
        let start = std::time::Instant::now();
        assert!(q.pop_timeout(Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn mpmc_preserves_all_events() {
        let q = EventQueue::with_capacity(1024);
        let produced = 4 * 5000;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..5000u64 {
                        q.push_blocking(ev(t * 5000 + i));
                    }
                });
            }
            let consumed = std::sync::atomic::AtomicU64::new(0);
            let consumed_ref = &consumed;
            let mut consumers = Vec::new();
            for _ in 0..3 {
                let q = q.clone();
                consumers.push(s.spawn(move || {
                    let mut n = 0;
                    while q.pop_timeout(Duration::from_millis(100)).is_some() {
                        n += 1;
                    }
                    n
                }));
            }
            let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            consumed_ref.store(total, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(total, produced);
        });
        assert_eq!(q.stats().popped(), produced);
        assert_eq!(q.stats().dropped(), 0);
    }
}
