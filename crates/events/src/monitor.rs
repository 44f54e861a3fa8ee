//! The hardware monitor: daemon threads draining the event queue.
//!
//! "A hardware monitor collects events (i.e., consumes the queue) and
//! passes them to the file segment auditor" (§III-A). The monitor owns a
//! configurable pool of daemon threads — the paper's Fig. 3(a) studies the
//! daemon::engine thread split (2::6, 4::4, 6::2) and finds more daemons
//! sustain higher event consumption rates; the `fig3a` bench reproduces
//! that with this exact component.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::AccessEvent;
use crate::queue::EventQueue;

/// Receives events drained from the queue. In the full stack this is the
/// file segment auditor; benchmarks plug in counters or no-ops.
///
/// Implementations must be thread-safe: multiple daemon threads call
/// concurrently.
pub trait EventSink: Send + Sync + 'static {
    /// Handle one event.
    fn on_event(&self, event: &AccessEvent);
}

impl<F> EventSink for F
where
    F: Fn(&AccessEvent) + Send + Sync + 'static,
{
    fn on_event(&self, event: &AccessEvent) {
        self(event)
    }
}

/// Maximum events a daemon takes per queue rendezvous. Each daemon reuses
/// one buffer of this size, so batching amortises channel overhead without
/// per-batch allocation; latency is unaffected because a batch is whatever
/// is *already* waiting (minimum one).
const BATCH_SIZE: usize = 64;

/// Monitor configuration.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Number of daemon threads consuming the queue.
    pub daemons: usize,
    /// How long an idle daemon waits on the queue before re-checking for
    /// shutdown.
    pub poll_interval: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self { daemons: 4, poll_interval: Duration::from_millis(10) }
    }
}

/// A running pool of daemon threads consuming an [`EventQueue`].
pub struct HardwareMonitor {
    handles: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    consumed: Arc<AtomicU64>,
    queue: EventQueue,
}

impl HardwareMonitor {
    /// Spawns the daemon pool; every drained event is handed to `sink`.
    pub fn start(queue: EventQueue, sink: Arc<dyn EventSink>, config: MonitorConfig) -> Self {
        assert!(config.daemons > 0, "need at least one daemon thread");
        let shutdown = Arc::new(AtomicBool::new(false));
        let consumed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(config.daemons);
        for i in 0..config.daemons {
            let queue = queue.clone();
            let sink = Arc::clone(&sink);
            let shutdown = Arc::clone(&shutdown);
            let consumed = Arc::clone(&consumed);
            let poll = config.poll_interval;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hfetch-daemon-{i}"))
                    .spawn(move || {
                        let mut buf: Vec<AccessEvent> = Vec::with_capacity(BATCH_SIZE);
                        loop {
                            buf.clear();
                            let n = queue.pop_batch(&mut buf, BATCH_SIZE, poll);
                            if n == 0 {
                                if shutdown.load(Ordering::Acquire) && queue.is_empty() {
                                    break;
                                }
                                continue;
                            }
                            for event in &buf {
                                sink.on_event(event);
                            }
                            // Pairs with `drain`'s Acquire load: once counted,
                            // the sink's work on the batch is visible.
                            consumed.fetch_add(n as u64, Ordering::Release);
                        }
                    })
                    .expect("spawn daemon thread"),
            );
        }
        Self { handles, shutdown, consumed, queue }
    }

    /// Events consumed so far across all daemons.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Number of daemon threads.
    pub fn daemons(&self) -> usize {
        self.handles.len()
    }

    /// Blocks until every event pushed so far has been popped *and* handed
    /// to the sink: a daemon still inside [`EventSink::on_event`] for a
    /// batch it popped holds `drain` back. Producers must have stopped
    /// pushing for this to terminate, and the daemons must be the queue's
    /// only consumers.
    pub fn drain(&self) {
        loop {
            let stats = self.queue.stats();
            // A daemon counts a batch as popped only after taking it off the
            // channel, so `popped < pushed` also covers a batch in transit.
            let popped = stats.popped();
            if popped >= stats.pushed() && self.consumed.load(Ordering::Acquire) >= popped {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Signals shutdown, drains remaining events, and joins the pool.
    pub fn stop(mut self) -> u64 {
        self.shutdown.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            h.join().expect("daemon thread panicked");
        }
        self.consumed.load(Ordering::Relaxed)
    }
}

impl Drop for HardwareMonitor {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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
        AccessEvent::read(FileId(i), ByteRange::new(i * 10, 10), at, ProcessId(0), AppId(0))
    }

    #[test]
    fn consumes_everything_then_stops() {
        let q = EventQueue::with_capacity(1 << 14);
        let seen = Arc::new(AtomicU64::new(0));
        let sink = {
            let seen = seen.clone();
            Arc::new(move |_: &AccessEvent| {
                seen.fetch_add(1, Ordering::Relaxed);
            })
        };
        let monitor = HardwareMonitor::start(
            q.clone(),
            sink,
            MonitorConfig { daemons: 3, poll_interval: Duration::from_millis(1) },
        );
        assert_eq!(monitor.daemons(), 3);
        for i in 0..10_000 {
            q.push_blocking(ev(i));
        }
        let consumed = monitor.stop();
        assert_eq!(consumed, 10_000);
        assert_eq!(seen.load(Ordering::Relaxed), 10_000);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_producers_and_daemons() {
        let q = EventQueue::with_capacity(1 << 12);
        let seen = Arc::new(AtomicU64::new(0));
        let sink = {
            let seen = seen.clone();
            Arc::new(move |_: &AccessEvent| {
                seen.fetch_add(1, Ordering::Relaxed);
            })
        };
        let monitor = HardwareMonitor::start(
            q.clone(),
            sink,
            MonitorConfig { daemons: 4, poll_interval: Duration::from_millis(1) },
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..2500 {
                        q.push_blocking(ev(t * 2500 + i));
                    }
                });
            }
        });
        let consumed = monitor.stop();
        assert_eq!(consumed, 10_000);
    }

    #[test]
    fn drop_joins_threads() {
        let q = EventQueue::with_capacity(16);
        let monitor = HardwareMonitor::start(q.clone(), Arc::new(|_: &AccessEvent| {}), MonitorConfig::default());
        q.push(ev(0));
        drop(monitor); // must not hang or panic
    }

    #[test]
    fn drain_waits_for_queue() {
        let q = EventQueue::with_capacity(1 << 12);
        let monitor = HardwareMonitor::start(
            q.clone(),
            Arc::new(|_: &AccessEvent| {}),
            MonitorConfig { daemons: 2, poll_interval: Duration::from_millis(1) },
        );
        for i in 0..1000 {
            q.push_blocking(ev(i));
        }
        monitor.drain();
        assert!(q.is_empty());
        monitor.stop();
    }

    #[test]
    fn drain_waits_for_the_sink_to_finish_a_popped_event() {
        use crossbeam::channel::{bounded, RecvTimeoutError};
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let handled = Arc::new(AtomicBool::new(false));
        let sink = {
            let handled = handled.clone();
            Arc::new(move |_: &AccessEvent| {
                entered_tx.send(()).unwrap();
                // A dropped sender also releases the sink.
                let _ = release_rx.recv();
                handled.store(true, Ordering::Release);
            })
        };
        let q = EventQueue::with_capacity(16);
        let monitor = Arc::new(HardwareMonitor::start(
            q.clone(),
            sink,
            MonitorConfig { daemons: 1, poll_interval: Duration::from_millis(1) },
        ));
        // Rebound after the monitor so that a failing assert drops it (and
        // frees the daemon) before the monitor's drop joins the daemon.
        let release_tx = release_tx;
        q.push_blocking(ev(0));
        // The daemon has popped the event and is blocked inside the sink:
        // the queue is empty, but the event is not handled yet.
        entered_rx.recv().unwrap();
        assert!(q.is_empty());
        let (drained_tx, drained_rx) = bounded::<bool>(1);
        let drainer = {
            let (monitor, handled) = (monitor.clone(), handled.clone());
            std::thread::spawn(move || {
                monitor.drain();
                drained_tx.send(handled.load(Ordering::Acquire)).unwrap();
            })
        };
        assert_eq!(
            drained_rx.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Timeout),
            "drain returned while the sink was still handling a popped event"
        );
        release_tx.send(()).unwrap();
        assert_eq!(drained_rx.recv(), Ok(true), "drain returns once the event is handled");
        drainer.join().unwrap();
        Arc::try_unwrap(monitor).ok().expect("drainer released its handle").stop();
    }
}
