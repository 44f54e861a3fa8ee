//! # HFetch — hierarchical, data-centric, server-push prefetching
//!
//! A from-scratch Rust reproduction of *"HFetch: Hierarchical Data
//! Prefetching for Scientific Workflows in Multi-Tiered Storage
//! Environments"* (Devarajan, Kougkas, Sun — IEEE IPDPS 2020), including
//! every substrate the paper depends on and every baseline it evaluates
//! against.
//!
//! ## Quick start
//!
//! ```
//! use hfetch::prelude::*;
//! use std::sync::Arc;
//!
//! // A deep memory & storage hierarchy: RAM → NVMe → burst buffers → PFS.
//! let hierarchy = Hierarchy::with_budgets(mib(64), mib(128), mib(256));
//!
//! // Start an in-memory HFetch server (real threads: event queue,
//! // monitor daemons, placement engine, I/O clients).
//! let server = HFetchServer::in_memory(HFetchConfig::default(), hierarchy);
//!
//! // Stage a dataset on the backing store and read it through an agent.
//! let shim = Arc::clone(server.shim());
//! shim.stage_file("/data/demo", mib(8)).unwrap();
//! let agent = HFetchAgent::new(
//!     Arc::clone(server.inner()),
//!     shim,
//!     ProcessId(0),
//!     AppId(0),
//! );
//! let handle = agent.open("/data/demo");
//! server.quiesce(); // let the epoch-staging prefetch land
//! let bytes = agent.read(&handle, ByteRange::new(0, 4096)).unwrap();
//! assert_eq!(bytes.len(), 4096);
//! agent.close(&handle);
//! server.shutdown();
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`tiers`] | storage substrate: tier specs, hierarchy, capacity, backends, byte ranges |
//! | [`events`] | enriched inotify-equivalent event feed, queue, monitor daemons, I/O shim |
//! | [`dht`] | HCL-equivalent hashmap: volatile, in-process, 32 locked shards |
//! | [`sim`] | discrete-event cluster simulator (devices, scripts, policies, reports) |
//! | [`hfetch_core`] | the paper's contribution: auditor, Eq. 1 scoring, heatmaps, Algorithm 1 engine, server, agents |
//! | [`baselines`] | serial/parallel, in-memory optimal/naive, app-centric, Stacker-like, KnowAc-like |
//! | [`workloads`] | Fig. 5 patterns, pipelines, Montage and WRF workflow models |
//!
//! The benchmark harness regenerating every figure of the paper lives in
//! `crates/bench` (`cargo run -p hfetch-bench --release --bin all_figures`).

pub use baselines;
pub use dht;
pub use events;
pub use hfetch_core;
pub use sim;
pub use tiers;
pub use workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use baselines::{
        AppCentricPrefetcher, InMemoryNaive, InMemoryOptimal, KnowAcLike, StackerLike,
        WindowPrefetcher,
    };
    pub use hfetch_core::{
        Auditor, FileHeatmap, HFetchAgent, HFetchConfig, HFetchPolicy, HFetchServer,
        PlacementEngine, Reactiveness, ScoreParams,
    };
    pub use sim::{NoPrefetch, Op, PrefetchPolicy, RankScript, ScriptBuilder, SimConfig, SimReport, Simulation};
    pub use sim::script::SimFile;
    pub use tiers::ids::{AppId, FileId, ProcessId, SegmentId, TierId};
    pub use tiers::range::ByteRange;
    pub use tiers::time::{Clock, ManualClock, Timestamp, WallClock};
    pub use tiers::units::{fmt_bytes, gib, kib, mib, GIB, KIB, MIB};
    pub use tiers::{Hierarchy, TierKind, TierSpec};
    pub use workloads::{AccessPattern, MontageWorkflow, PatternWorkload, PipelineWorkflow, WrfWorkflow};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let h = Hierarchy::ares_reference();
        assert_eq!(h.cache_tiers(), 3);
        let cfg = HFetchConfig::default();
        cfg.validate();
        let _policy = HFetchPolicy::new(cfg, &h);
    }
}
