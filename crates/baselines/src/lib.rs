//! Baseline prefetchers HFetch is evaluated against (§IV).
//!
//! Every baseline implements [`sim::PrefetchPolicy`], so the figure
//! harnesses can swap them freely against [`hfetch_core::HFetchPolicy`].
//! All of them are *client-pull, application-centric* designs: they react
//! to their own application's accesses with no global view — precisely the
//! contrast the paper draws with HFetch's data-centric server-push model.
//!
//! They differ only in what they predict, so all but one run the same
//! pull cache, [`pull::PullPrefetcher`]: a request FIFO, an LRU over the
//! fetched blocks and a bounded in-flight window. Each supplies a
//! [`pull::Predictor`]:
//!
//! * [`WindowPrefetcher`] — readahead of the next `depth` blocks, dropping
//!   requests the reader has passed. [`WindowPrefetcher::serial`] keeps one
//!   transfer outstanding ("the serial prefetcher can only bring one data
//!   piece at a time", Fig. 4a); [`WindowPrefetcher::parallel`] keeps `k`
//!   (the paper's parallel prefetcher, 4 threads).
//! * [`InMemoryNaive`] — readahead into one shared RAM cache with global
//!   LRU eviction; prefetch traffic and demand reads fight for the PFS
//!   (Fig. 4b's "in-memory naive").
//! * [`AppCentricPrefetcher`] — a stride detector per application over a
//!   shared cache: the application-centric comparator of Fig. 5.
//! * [`StackerLike`] — an online, learn-as-you-go data movement engine
//!   modeled on Stacker \[26\]: first-order Markov prediction over block
//!   transitions, warm-up required, no offline cost.
//! * [`KnowAcLike`] — a history-based prefetcher modeled on KnowAc \[22\]:
//!   replays a recorded access trace, evicts only blocks already read, and
//!   a profiling run must be paid for up front (the "Profile-Cost" stack in
//!   Fig. 6).
//!
//! [`InMemoryOptimal`] — per-process partitions of the RAM cache, each
//! process prefetching its own stream into its own slice (Fig. 4b's
//! "in-memory optimal") — keeps its own loop: it sizes room from its
//! partition quota and tests its own LRU, not the tier.

#![warn(missing_docs)]

pub mod app_centric;
pub mod inmem;
pub mod knowac;
mod lru;
pub mod pull;
pub mod stacker;
pub mod window;

pub use app_centric::AppCentricPrefetcher;
pub use inmem::{InMemoryNaive, InMemoryOptimal};
pub use knowac::KnowAcLike;
pub use lru::BlockKey;
pub use stacker::StackerLike;
pub use window::WindowPrefetcher;
