//! Distributed hashmap substrate (the paper's HCL container, re-implemented).
//!
//! HFetch keeps *segment statistics* and *segment-to-tier mappings* in "a
//! distributed hashmap we have developed \[HCL\]" providing "uniform and fast
//! O(1) insertion and querying capability, support for concurrent access,
//! fault tolerance in case of power-downs, and low latency" (§III-A.2).
//!
//! This crate reproduces the in-process part of that contract:
//!
//! * [`DistributedMap`] — a concurrent hashmap over [`SHARDS`] shards. A
//!   key lives in shard `hash(key) % SHARDS`. Single-key operations are
//!   atomic (they run under the owning shard's lock), which is exactly the
//!   property the auditor relies on when several processes update one
//!   segment's score concurrently. Each shard also carries side state
//!   under the same lock: the auditor's pending score updates.
//! * [`hash`] — the FxHash function (implemented in-tree; see DESIGN.md §6)
//!   used for shard routing and as a fast drop-in `HashMap` hasher across
//!   the workspace.
//! * [`stats`] — per-shard operation counters, summed and exported as
//!   `dht.map.*`.
//!
//! The map is volatile: it lives in one process and is gone when the
//! process ends. HCL's power-down recovery is not reproduced. The only
//! state that outlives a run is the file heatmaps (§III-C), which
//! `hfetch_core::heatmap::HeatmapStore` writes to disk.

#![warn(missing_docs)]

pub mod hash;
pub mod map;
pub mod stats;

pub use hash::{FxHashMap, FxHasher};
pub use map::{DistributedMap, SHARDS};
pub use stats::StatsSnapshot;
