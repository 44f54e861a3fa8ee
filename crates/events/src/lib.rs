//! File-system event substrate: the enriched `inotify` equivalent.
//!
//! The paper captures file events with Linux `inotify` plus a preloaded
//! interceptor library that *enriches* each event with the read offset,
//! request size and a timestamp (§III-B) — raw inotify carries none of
//! those. This crate reproduces the resulting event feed in-process:
//!
//! * [`event`] — the enriched event records (open/read/write/close with
//!   offset, length, timestamp, process/app identity),
//! * [`registry`] — path ⇄ [`tiers::FileId`] mapping and file sizes,
//! * [`watch`] — reference-counted watches: the first reader's `fopen`
//!   installs a watch, the last `fclose` removes it; unwatched files emit
//!   nothing,
//! * [`queue`] — the bounded in-memory event queue the shim pushes into
//!   and the hardware monitor's daemon pool consumes,
//! * [`monitor`] — the hardware monitor: a pool of daemon threads that
//!   drain the queue and hand events to a sink (the file segment auditor in
//!   the full stack),
//! * [`shim`] — the instrumented POSIX-style I/O layer applications go
//!   through in real mode; it performs the actual backend I/O *and* emits
//!   the enriched events, playing the role of the paper's preloaded
//!   interceptor.

#![warn(missing_docs)]

pub mod event;
pub mod monitor;
pub mod queue;
pub mod registry;
pub mod shim;
pub mod watch;

pub use event::{AccessEvent, AccessKind};
pub use monitor::{EventSink, HardwareMonitor, MonitorConfig};
pub use queue::EventQueue;
pub use registry::FileRegistry;
pub use shim::PosixShim;
pub use watch::WatchManager;
