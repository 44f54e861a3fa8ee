//! The HFetch agent: the client-side read path.
//!
//! "Each application process is attached to an HFetch agent who talks to
//! the agent manager to acquire the location of the prefetched file
//! segments for each read request." (§III-A.4)
//!
//! An agent wraps the instrumented shim: opens/closes bracket the
//! prefetching epoch, and reads are served tier-by-tier — resident parts
//! from the fastest cache tier holding them, the rest from the backing
//! store through the shim (which emits the enriched read event feeding the
//! auditor).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use events::shim::{FileHandle, OpenMode, PosixShim};
use tiers::error::Result;
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;

use crate::server::ServerInner;

/// Per-agent read counters.
#[derive(Debug, Default)]
pub struct AgentStats {
    /// Bytes served from cache tiers.
    pub hit_bytes: AtomicU64,
    /// Bytes served from the backing store.
    pub miss_bytes: AtomicU64,
    /// Read requests issued.
    pub reads: AtomicU64,
}

impl AgentStats {
    /// Byte hit ratio so far.
    pub fn hit_ratio(&self) -> Option<f64> {
        let h = self.hit_bytes.load(Ordering::Relaxed);
        let m = self.miss_bytes.load(Ordering::Relaxed);
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }
}

/// A process's handle into HFetch.
pub struct HFetchAgent {
    server: Arc<ServerInner>,
    shim: Arc<PosixShim>,
    process: ProcessId,
    app: AppId,
    stats: AgentStats,
}

impl HFetchAgent {
    /// Creates an agent for `(process, app)`.
    pub fn new(
        server: Arc<ServerInner>,
        shim: Arc<PosixShim>,
        process: ProcessId,
        app: AppId,
    ) -> Self {
        Self { server, shim, process, app, stats: AgentStats::default() }
    }

    /// Opens `path` for reading (starts/joins the prefetching epoch).
    pub fn open(&self, path: impl AsRef<Path>) -> FileHandle {
        self.server.config().obs.counter_inc("agent.epoch_open", obs::Label::None);
        self.shim.fopen(path, OpenMode::Read, self.process, self.app).0
    }

    /// Closes a handle (ends/leaves the epoch).
    pub fn close(&self, handle: &FileHandle) {
        self.server.config().obs.counter_inc("agent.epoch_close", obs::Label::None);
        self.shim.fclose(handle);
    }

    /// Reads `range` of the handle's file: cache tiers first (fastest
    /// wins), backing store for the rest. The backing-store portion goes
    /// through the shim so the auditor sees the access; cache hits are
    /// reported to the auditor directly (the paper's tier I/O events).
    ///
    /// A range one tier read serves whole is returned as that read's
    /// handle, copying nothing; otherwise the pieces are copied once, in
    /// offset order, into a buffer of the range's length.
    pub fn read(&self, handle: &FileHandle, range: ByteRange) -> Result<Bytes> {
        let file = handle.file();
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        if range.is_empty() {
            return Ok(Bytes::new());
        }
        // Causal tracing: the read becomes an `app_read` span, parented on
        // the placement lifecycle that staged the first cache hit it lands
        // (so a hit chains back through landing/transfer/decision to the
        // ingest that caused the prefetch). Zero work when disabled.
        let obs_on = self.server.config().obs.is_enabled();
        let read_start = if obs_on { self.server.clock().now().as_nanos() } else { 0 };
        let mut parent = obs::SpanCtx::NONE;
        let mut pieces: Vec<(u64, Bytes)> = Vec::new();
        let mut remaining: Vec<ByteRange> = vec![range];

        for (tier, _) in self.server.hierarchy().iter_cache() {
            if remaining.is_empty() {
                break;
            }
            let backend = self.server.backend(tier);
            let mut next_remaining = Vec::new();
            for gap in remaining {
                let covered = backend.covered_ranges(file, gap);
                let mut cursor = gap.offset;
                for sub in covered {
                    if sub.offset > cursor {
                        next_remaining.push(ByteRange::from_bounds(cursor, sub.offset));
                    }
                    match backend.read(file, sub) {
                        Ok(bytes) => {
                            pieces.push((sub.offset, bytes));
                            self.stats.hit_bytes.fetch_add(sub.len, Ordering::Relaxed);
                            self.server
                                .stats()
                                .hit_bytes
                                .fetch_add(sub.len, Ordering::Relaxed);
                            self.server.config().obs.counter_add(
                                "agent.hit_bytes",
                                obs::Label::tier(tier.0),
                                sub.len,
                            );
                            if obs_on && parent.is_none() {
                                parent = self.server.placement_span(file, sub.offset);
                            }
                            // The auditor must see cache hits too —
                            // tier-level events, not just backing misses.
                            self.server.auditor().observe_read(
                                file,
                                sub,
                                self.process,
                                self.server.clock().now(),
                            );
                        }
                        Err(_) => {
                            // Demoted between the residency check and the
                            // read: fall through to slower tiers/backing.
                            next_remaining.push(sub);
                        }
                    }
                    cursor = sub.end();
                }
                if cursor < gap.end() {
                    next_remaining.push(ByteRange::from_bounds(cursor, gap.end()));
                }
            }
            remaining = next_remaining;
        }

        // Misses go through the instrumented shim (emits the read event).
        for gap in remaining {
            pieces.push((gap.offset, self.shim.fread_at(handle, gap)?));
            self.stats.miss_bytes.fetch_add(gap.len, Ordering::Relaxed);
            self.server.stats().miss_bytes.fetch_add(gap.len, Ordering::Relaxed);
            self.server.config().obs.counter_add(
                "agent.miss_bytes",
                obs::Label::None,
                gap.len,
            );
        }
        if obs_on {
            let obs = &self.server.config().obs;
            let ctx = obs.span_start("app_read", parent, read_start, file.0, range.offset);
            obs.span_end(ctx, self.server.clock().now().as_nanos());
        }
        Ok(assemble(range, pieces))
    }

    /// Sequential read at the handle's cursor.
    pub fn read_next(&self, handle: &FileHandle, len: u64) -> Result<Bytes> {
        let offset = handle.tell();
        handle.seek(offset + len);
        self.read(handle, ByteRange::new(offset, len))
    }

    /// This agent's counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The file id for `path`, if the registry knows it.
    pub fn file_id(&self, path: impl AsRef<Path>) -> Option<FileId> {
        self.shim.registry().lookup(path)
    }
}

/// Joins the `(offset, bytes)` pieces that tile `range` into one buffer.
/// Pieces arrive in tier order, not offset order.
fn assemble(range: ByteRange, mut pieces: Vec<(u64, Bytes)>) -> Bytes {
    if let [(_, whole)] = pieces.as_slice() {
        debug_assert_eq!(whole.len() as u64, range.len);
        return whole.clone();
    }
    pieces.sort_unstable_by_key(|&(offset, _)| offset);
    let mut buf = BytesMut::with_capacity(range.len as usize);
    for (offset, bytes) in &pieces {
        debug_assert_eq!(range.offset + buf.len() as u64, *offset, "pieces tile the range");
        buf.extend_from_slice(bytes);
    }
    debug_assert_eq!(buf.len() as u64, range.len);
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HFetchConfig;
    use crate::server::HFetchServer;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    fn expected_pattern(offset: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| ((offset as usize + i) % 251) as u8).collect()
    }

    #[test]
    fn agent_reads_are_correct_with_and_without_prefetch() {
        let server = HFetchServer::in_memory(
            HFetchConfig::default(),
            Hierarchy::with_budgets(mib(4), mib(8), mib(16)),
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/data/a", mib(3)).unwrap();
        let agent = HFetchAgent::new(
            Arc::clone(server.inner()),
            shim,
            ProcessId(0),
            AppId(0),
        );

        let h = agent.open("/data/a");
        // Immediately read (prefetch may not have landed): correctness
        // must hold regardless of hit/miss mix.
        let data = agent.read(&h, ByteRange::new(100, 5000)).unwrap();
        assert_eq!(&data[..], &expected_pattern(100, 5000)[..]);

        server.quiesce(); // staging lands
        let data = agent.read(&h, ByteRange::new(MIB, 4096)).unwrap();
        assert_eq!(&data[..], &expected_pattern(MIB, 4096)[..]);
        assert!(agent.stats().hit_bytes.load(Ordering::Relaxed) > 0, "second read hits cache");

        agent.close(&h);
        server.shutdown();
    }

    #[test]
    fn repeated_reads_become_hits() {
        let server = HFetchServer::in_memory(
            HFetchConfig::default(),
            Hierarchy::with_budgets(mib(4), mib(8), mib(16)),
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/data/b", mib(2)).unwrap();
        let agent =
            HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(1), AppId(0));
        let h = agent.open("/data/b");
        server.quiesce();
        for i in 0..8 {
            let r = ByteRange::new((i % 2) * MIB, MIB);
            let data = agent.read(&h, r).unwrap();
            assert_eq!(data.len(), MIB as usize);
        }
        let ratio = agent.stats().hit_ratio().unwrap();
        assert!(ratio > 0.9, "hit ratio {ratio}");
        agent.close(&h);
        server.shutdown();
    }

    /// Pieces come back in tier order (RAM, NVMe, backing store); the
    /// result must be in offset order.
    #[test]
    fn a_read_assembles_tier_pieces_in_offset_order() {
        use tiers::ids::TierId;
        // No fill staging and one read per segment: nothing moves the
        // pieces placed below.
        let cfg = HFetchConfig { epoch_base_score: 0.0, ..Default::default() };
        let server = HFetchServer::in_memory(cfg, Hierarchy::with_budgets(mib(4), mib(8), mib(16)));
        let shim = Arc::clone(server.shim());
        shim.stage_file("/mixed", mib(3)).unwrap();
        let agent = HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(4), AppId(0));
        let h = agent.open("/mixed");
        server.quiesce();
        let inner = server.inner();
        let backing = inner.backend(inner.hierarchy().backing());
        for (segment, tier) in [(1, TierId(0)), (0, TierId(1))] {
            let range = ByteRange::new(segment * MIB, MIB);
            let piece = backing.read(h.file(), range).unwrap();
            inner.backend(tier).write(h.file(), range.offset, piece).unwrap();
        }
        let range = ByteRange::new(MIB / 2, 2 * MIB);
        let data = agent.read(&h, range).unwrap();
        assert_eq!(&data[..], &expected_pattern(range.offset, range.len as usize)[..]);
        let stats = agent.stats();
        assert_eq!(stats.hit_bytes.load(Ordering::Relaxed), mib(3) / 2, "RAM and NVMe served");
        assert_eq!(stats.miss_bytes.load(Ordering::Relaxed), MIB / 2, "backing served the rest");
        agent.close(&h);
        server.shutdown();
    }

    #[test]
    fn read_next_advances_cursor() {
        let server = HFetchServer::in_memory(
            HFetchConfig::default(),
            Hierarchy::with_budgets(mib(4), mib(8), mib(16)),
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/seq", 10_000).unwrap();
        let agent =
            HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(2), AppId(0));
        let h = agent.open("/seq");
        let a = agent.read_next(&h, 1000).unwrap();
        let b = agent.read_next(&h, 1000).unwrap();
        assert_eq!(&a[..], &expected_pattern(0, 1000)[..]);
        assert_eq!(&b[..], &expected_pattern(1000, 1000)[..]);
        assert_eq!(h.tell(), 2000);
        agent.close(&h);
        server.shutdown();
    }

    #[test]
    fn empty_read_is_ok() {
        let server = HFetchServer::in_memory(
            HFetchConfig::default(),
            Hierarchy::with_budgets(mib(4), mib(8), mib(16)),
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/e", 100).unwrap();
        let agent =
            HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(3), AppId(0));
        let h = agent.open("/e");
        assert_eq!(agent.read(&h, ByteRange::new(0, 0)).unwrap().len(), 0);
        agent.close(&h);
        server.shutdown();
    }
}
