//! HFetch core: the hierarchical, data-centric, server-push prefetcher.
//!
//! This crate implements the paper's contribution on top of the substrates
//! (`tiers`, `events`, `dht`, `sim`):
//!
//! * [`scoring`] — Eq. 1 segment scoring: decaying frequency/recency with
//!   reference-count-scaled half-life; exact and O(1) incremental forms.
//! * [`auditor`] — the File Segment Auditor (§III-A.2): decomposes the
//!   enriched event feed into per-segment statistics (frequency, recency,
//!   sequencing) held in the distributed hashmap, tracks prefetching epochs
//!   (fopen→fclose), and pushes score updates to the placement engine.
//! * [`heatmap`] — file heatmaps: per-file score vectors, persisted on
//!   epoch close and evolved on re-open (§III-C).
//! * [`engine`] — the Hierarchical Data Placement Engine (Algorithm 1):
//!   maps the score spectrum onto the tier stack with per-tier watermarks,
//!   capacity-aware demotion cascades, and an exclusive placement model.
//! * [`update_queue`] — striped, coalescing score-update queues: the
//!   pending-update vector sharded along the DHT's topology so ingestion
//!   never funnels through one global lock, with a deterministic
//!   first-touch merge on drain.
//! * [`executor`] — the one pass → execute → reconcile loop around the
//!   engine, behind a small transfer trait both deployments implement.
//! * [`policy`] — the simulator adapter: wires auditor + executor into
//!   [`sim::PrefetchPolicy`] so HFetch runs inside the evaluation harness
//!   against the baselines.
//! * [`server`] — the real-thread deployment: event queue + hardware
//!   monitor daemons + engine trigger thread + I/O clients moving actual
//!   bytes between tier backends.
//! * [`agent`] — the client-side agent: applications read through it; hits
//!   are served from whichever tier holds the segment, misses fall through
//!   to the backing store via the instrumented shim.
//!
//! The decision components are clock-agnostic (explicit [`tiers::Timestamp`]
//! parameters) so the *same* auditor/engine code runs under the simulator
//! and under real threads.

#![warn(missing_docs)]

pub mod agent;
pub mod auditor;
pub mod config;
pub mod engine;
pub mod executor;
pub mod heatmap;
pub mod policy;
pub mod scoring;
pub mod server;
pub mod update_queue;

pub use agent::HFetchAgent;
pub use auditor::{Auditor, IngestLockStats, IngestTuning, ScoreUpdate};
pub use update_queue::StripedUpdateQueue;
pub use config::{HFetchConfig, Reactiveness};
pub use engine::{PlacementAction, PlacementEngine};
pub use executor::{Executor, Transfers};
pub use heatmap::{FileHeatmap, HeatmapStore};
pub use policy::HFetchPolicy;
pub use scoring::{ExactScorer, ScoreParams, ScoreState};
pub use server::HFetchServer;
