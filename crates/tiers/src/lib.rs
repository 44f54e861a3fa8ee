//! Multi-tier storage substrate for HFetch.
//!
//! This crate models the *deep memory and storage hierarchy* (DMSH) that the
//! HFetch paper targets: DRAM → node-local NVMe → shared burst buffers →
//! remote parallel file system. It provides:
//!
//! * strongly-typed identifiers for files, segments, processes, applications
//!   and tiers ([`ids`]),
//! * byte-range arithmetic used to map variable-sized read requests onto
//!   fixed-size file segments ([`range`]),
//! * tier descriptors carrying the hardware characteristics (capacity,
//!   latency, bandwidth, channel parallelism) that both the real data path and
//!   the discrete-event simulator consume ([`tier`]),
//! * hierarchy topologies with validation and the paper's reference testbed
//!   configurations ([`topology`]),
//! * thread-safe capacity accounting ([`capacity`]),
//! * pluggable storage backends — in-memory and real-directory (tmpfs/NVMe)
//!   ([`backend`]),
//! * a process-wide pool of 1 MiB payload buffers, so the real data path
//!   reuses the pages of the extents memory tiers let go of ([`buffers`]),
//! * a data mover that copies ranges between backends, with bounded
//!   retry-with-backoff for transient failures ([`mover`]),
//! * a deterministic, seeded fault-injection layer: per-operation
//!   transient/permanent failures, tier offline windows, bandwidth
//!   slowdowns, and event drop/delay decisions ([`faults`]).
//!
//! Everything higher in the stack (event substrate, auditor, placement
//! engine, simulator, baselines) is expressed in terms of these types.

#![warn(missing_docs)]

pub mod backend;
pub mod buffers;
pub mod capacity;
pub mod error;
pub mod faults;
pub mod ids;
pub mod interval;
pub mod mover;
pub mod range;
pub mod tier;
pub mod time;
pub mod topology;
pub mod units;

pub use backend::{DirectoryBackend, MemoryBackend, StorageBackend};
pub use capacity::CapacityLedger;
pub use error::TierError;
pub use faults::{FaultConfig, FaultPlan, FaultStats, FlakyBackend, OfflineWindow};
pub use ids::{AppId, FileId, ProcessId, SegmentId, TierId};
pub use mover::{CopyReceipt, DataMover, RetryPolicy};
pub use range::ByteRange;
pub use tier::{TierKind, TierSpec};
pub use time::{Clock, ManualClock, Timestamp, WallClock};
pub use topology::Hierarchy;
