//! End-to-end tests of the real-thread HFetch server: multiple agents,
//! epochs, data correctness, invalidation, and hierarchical promotion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hfetch::prelude::*;
use hfetch::tiers::error::Result as TierResult;
use hfetch::tiers::{MemoryBackend, StorageBackend};

fn expected(offset: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((offset as usize + i) % 251) as u8).collect()
}

/// Settles the server, checks that the engine's model matches what the
/// tier backends hold, and shuts it down.
fn finish(server: HFetchServer) {
    server.quiesce();
    server.inner().check_drift().unwrap();
    server.shutdown();
}

fn server() -> HFetchServer {
    HFetchServer::in_memory(
        HFetchConfig::default(),
        Hierarchy::with_budgets(mib(4), mib(8), mib(16)),
    )
}

#[test]
fn bytes_are_correct_regardless_of_hit_or_miss() {
    let server = server();
    let shim = Arc::clone(server.shim());
    shim.stage_file("/data/a", mib(6)).unwrap();
    let agent = HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(0), AppId(0));

    let h = agent.open("/data/a");
    // Reads immediately (racing the epoch staging) and after quiesce must
    // both return the exact staged pattern.
    for &(off, len) in &[(0u64, 4096usize), (123_456, 10_000), (mib(5), 4096)] {
        let data = agent.read(&h, ByteRange::new(off, len as u64)).unwrap();
        assert_eq!(&data[..], &expected(off, len)[..], "pre-quiesce read at {off}");
    }
    server.quiesce();
    for &(off, len) in &[(0u64, 4096usize), (mib(3), 65_536), (mib(6) - 100, 100)] {
        let data = agent.read(&h, ByteRange::new(off, len as u64)).unwrap();
        assert_eq!(&data[..], &expected(off, len)[..], "post-quiesce read at {off}");
    }
    agent.close(&h);
    finish(server);
}

#[test]
fn second_reader_benefits_from_first_readers_heat() {
    let server = server();
    let shim = Arc::clone(server.shim());
    shim.stage_file("/shared", mib(3)).unwrap();

    // Reader 1 (app 0) streams the file, heating it.
    let a1 = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(0), AppId(0));
    let h1 = a1.open("/shared");
    server.quiesce();
    for i in 0..3 {
        let _ = a1.read(&h1, ByteRange::new(mib(i), mib(1))).unwrap();
    }
    server.quiesce();

    // Reader 2 (a different application!) reads the same data: the
    // data-centric cache serves it without re-reading the PFS.
    let a2 = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(1), AppId(1));
    let h2 = a2.open("/shared");
    for i in 0..3 {
        let data = a2.read(&h2, ByteRange::new(mib(i), mib(1))).unwrap();
        assert_eq!(data.len(), mib(1) as usize);
    }
    let ratio = a2.stats().hit_ratio().unwrap();
    assert!(ratio > 0.9, "cross-application hit ratio {ratio}");

    a1.close(&h1);
    a2.close(&h2);
    finish(server);
}

/// Epoch end frees the hierarchy for whatever needs it next: the closed
/// file stays cached at score 0, and a file opened after it takes its room.
#[test]
fn epoch_end_eviction_frees_the_hierarchy() {
    let server = server();
    let shim = Arc::clone(server.shim());
    shim.stage_file("/tmpfile", mib(2)).unwrap();
    shim.stage_file("/big", mib(28)).unwrap();
    let agent = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(0), AppId(0));
    let cached = |file| -> u64 {
        (0..3u16).map(|i| server.inner().backend(TierId(i)).resident_bytes(file)).sum()
    };
    let h = agent.open("/tmpfile");
    server.quiesce();
    let file = agent.file_id("/tmpfile").unwrap();
    assert_eq!(cached(file), mib(2), "fully staged during the epoch");
    agent.close(&h);
    server.quiesce();
    assert_eq!(cached(file), mib(2), "cooled in place when the last reader closed");
    // A file as large as the whole hierarchy displaces the cold one.
    let big = agent.open("/big");
    server.quiesce();
    assert_eq!(cached(file), 0, "the closed file gave up its room");
    assert_eq!(cached(agent.file_id("/big").unwrap()), mib(28));
    agent.close(&big);
    finish(server);
}

#[test]
fn writers_invalidate_and_readers_see_new_data() {
    let server = server();
    let shim = Arc::clone(server.shim());
    shim.stage_file("/mut", mib(1)).unwrap();
    let reader = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(0), AppId(0));
    let h = reader.open("/mut");
    server.quiesce();
    // Warm read.
    let before = reader.read(&h, ByteRange::new(0, 16)).unwrap();
    assert_eq!(&before[..], &expected(0, 16)[..]);

    // An external writer updates the region.
    let (w, _) = shim.fopen("/mut", hfetch::events::shim::OpenMode::Write, ProcessId(9), AppId(9));
    shim.fwrite_at(&w, 0, &[0xAB; 16]).unwrap();
    shim.fclose(&w);
    server.quiesce();

    let after = reader.read(&h, ByteRange::new(0, 16)).unwrap();
    assert_eq!(&after[..], &[0xAB; 16], "stale cache must not serve old bytes");
    reader.close(&h);
    finish(server);
}

#[test]
fn hammered_region_is_promoted_to_ram() {
    let server = server();
    let shim = Arc::clone(server.shim());
    shim.stage_file("/hot", mib(16)).unwrap(); // larger than RAM+NVMe
    let agent = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(0), AppId(0));
    let h = agent.open("/hot");
    server.quiesce();
    let file = agent.file_id("/hot").unwrap();
    let hot = ByteRange::new(mib(15), mib(1));
    for _ in 0..10 {
        let _ = agent.read(&h, hot).unwrap();
    }
    server.quiesce();
    assert!(
        server.inner().backend(TierId(0)).resident(file, hot),
        "hot region must be promoted to the RAM tier"
    );
    agent.close(&h);
    finish(server);
}

#[test]
fn many_agents_concurrently() {
    let server = HFetchServer::in_memory(
        HFetchConfig::default(),
        Hierarchy::with_budgets(mib(8), mib(16), mib(32)),
    );
    let shim = Arc::clone(server.shim());
    shim.stage_file("/big", mib(16)).unwrap();
    std::thread::scope(|s| {
        for p in 0..8u32 {
            let inner = Arc::clone(server.inner());
            let shim = Arc::clone(&shim);
            s.spawn(move || {
                let agent = HFetchAgent::new(inner, shim, ProcessId(p), AppId(p % 2));
                let h = agent.open("/big");
                let base = (p as u64 % 4) * mib(4);
                for i in 0..16 {
                    let off = base + (i % 4) * mib(1);
                    let data = agent.read(&h, ByteRange::new(off, 65_536)).unwrap();
                    assert_eq!(&data[..], &expected(off, 65_536)[..]);
                }
                agent.close(&h);
            });
        }
    });
    server.quiesce();
    let stats = server.stats();
    let total =
        stats.hit_bytes.load(Ordering::Relaxed) + stats.miss_bytes.load(Ordering::Relaxed);
    assert_eq!(total, 8 * 16 * 65_536, "every byte accounted as hit or miss");
    finish(server);
}

/// A dropped server's memory tiers give their 1 MiB extents back to the
/// process-wide buffer pool, so a second server stages and writes into
/// buffers the first one used. Each must serve only its own bytes.
#[test]
fn a_second_server_serves_its_own_bytes_from_recycled_buffers() {
    let run = |key: u8| {
        let server = server();
        let shim = Arc::clone(server.shim());
        shim.stage_file("/reused", mib(6)).unwrap();
        let agent = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(0), AppId(0));
        let h = agent.open("/reused");
        server.quiesce();
        let (w, _) = shim.fopen("/reused", hfetch::events::shim::OpenMode::Write, ProcessId(9), AppId(9));
        shim.fwrite_at(&w, mib(2), &vec![key; mib(1) as usize]).unwrap();
        shim.fclose(&w);
        server.quiesce();
        for i in 0..6 {
            let data = agent.read(&h, ByteRange::new(mib(i), mib(1))).unwrap();
            if i == 2 {
                assert!(data.iter().all(|&b| b == key), "server {key:#x}: rewritten region");
            } else {
                assert_eq!(&data[..], &expected(mib(i), mib(1) as usize)[..], "server {key:#x}: region {i}");
            }
        }
        agent.close(&h);
        finish(server);
    };
    run(0xA1);
    run(0xB2);
}

/// A cache backend whose writes wait while its gate is closed, so a test
/// can hold one copy in flight for as long as it needs.
#[derive(Default)]
struct GatedBackend {
    inner: MemoryBackend,
    closed: AtomicBool,
    waiting: AtomicU64,
}

impl StorageBackend for GatedBackend {
    fn write(&self, file: FileId, offset: u64, data: bytes::Bytes) -> TierResult<()> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        while self.closed.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.inner.write(file, offset, data)
    }
    fn read(&self, file: FileId, range: ByteRange) -> TierResult<bytes::Bytes> {
        self.inner.read(file, range)
    }
    fn evict(&self, file: FileId, range: ByteRange) -> TierResult<u64> {
        self.inner.evict(file, range)
    }
    fn delete(&self, file: FileId) -> TierResult<u64> {
        self.inner.delete(file)
    }
    fn resident(&self, file: FileId, range: ByteRange) -> bool {
        self.inner.resident(file, range)
    }
    fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
        self.inner.covered_bytes(file, range)
    }
    fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
        self.inner.covered_ranges(file, range)
    }
    fn resident_bytes(&self, file: FileId) -> u64 {
        self.inner.resident_bytes(file)
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    for _ in 0..10_000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting until {what}");
}

/// A `Move` still queued when its segment leaves the model must drop its
/// source copy: nothing else places or frees those bytes.
#[test]
fn superseded_move_drops_its_source_copy() {
    // RAM holds one 1 MiB segment and NVMe four; one demand copy is in
    // flight at a time, and staging waits while every I/O client is busy.
    let hierarchy = Hierarchy::with_budgets(mib(1), mib(3), mib(4));
    let io_clients = hierarchy.cache_tiers() as u64;
    let nvme = Arc::new(GatedBackend::default());
    let mut backends: Vec<Arc<dyn StorageBackend>> =
        (0..hierarchy.len()).map(|_| Arc::new(MemoryBackend::new()) as _).collect();
    backends[1] = Arc::clone(&nvme) as _;
    let cfg = HFetchConfig { max_inflight_fetches: 1, ..Default::default() };
    let server = HFetchServer::start(cfg, hierarchy, backends, 2);
    let shim = Arc::clone(server.shim());
    shim.stage_file("/a", mib(1)).unwrap();
    shim.stage_file("/c", mib(io_clients)).unwrap();
    shim.stage_file("/d", mib(1)).unwrap();
    let agent = HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(0), AppId(0));
    let auditor = || server.inner().auditor();

    let a = agent.open("/a");
    server.quiesce();
    let file_a = agent.file_id("/a").unwrap();
    assert_eq!(server.inner().backend(TierId(0)).resident_bytes(file_a), mib(1), "A staged in RAM");

    // RAM is full, so C stages into NVMe, where one copy per I/O client
    // waits at the gate: the backing store has no channel free.
    nvme.closed.store(true, Ordering::SeqCst);
    let c = agent.open("/c");
    wait_until("C's staging copies wait", || nvme.waiting.load(Ordering::SeqCst) == io_clients);
    // C's first segment turns hot: the next pass plans A's demotion and the
    // segment's promotion. The promotion waits for the segment's copy, and
    // A's demotion, a staging move, waits for a free channel.
    for _ in 0..8 {
        agent.read(&c, ByteRange::new(0, mib(1))).unwrap();
    }
    let c0 = SegmentId::new(agent.file_id("/c").unwrap(), 0);
    wait_until("a pass drains C's reads", || {
        auditor().stat(c0).is_some_and(|st| st.frequency == 8) && auditor().pending_updates() == 0
    });
    // A cools, and D's staging evicts it from NVMe: the model drops A
    // while its move there is still queued.
    agent.close(&a);
    wait_until("A's epoch ends", || !auditor().in_epoch(file_a));
    let d = agent.open("/d");
    let file_d = agent.file_id("/d").unwrap();
    wait_until("a pass stages D", || {
        auditor().in_epoch(file_d) && auditor().pending_updates() == 0
    });
    nvme.closed.store(false, Ordering::SeqCst);
    server.quiesce();
    server.inner().check_drift().unwrap();
    assert_eq!(server.inner().backend(TierId(0)).resident_bytes(file_a), 0, "A left RAM");
    agent.close(&c);
    agent.close(&d);
    finish(server);
}

/// Staging takes no demand slot, so it must not flood the I/O clients' job
/// channel: a job is submitted with the executor locked, and an I/O client
/// takes that lock to report a completion before it takes its next job. A
/// full channel would block the engine for good. Here every client stalls
/// on a staging copy into RAM while demand reads arrive.
#[test]
fn staging_behind_a_stalled_tier_never_blocks_the_engine() {
    let (done, settled) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        // 24 segments for 16 MiB of cache: the tail is left to demand.
        let hierarchy = Hierarchy::with_budgets(mib(4), mib(4), mib(8));
        let io_clients = hierarchy.cache_tiers() as u64;
        let ram = Arc::new(GatedBackend::default());
        let mut backends: Vec<Arc<dyn StorageBackend>> =
            (0..hierarchy.len()).map(|_| Arc::new(MemoryBackend::new()) as _).collect();
        backends[0] = Arc::clone(&ram) as _;
        let cfg = HFetchConfig { max_inflight_fetches: 1, ..Default::default() };
        let server = HFetchServer::start(cfg, hierarchy, backends, 2);
        let shim = Arc::clone(server.shim());
        shim.stage_file("/wide", mib(24)).unwrap();
        let agent = HFetchAgent::new(Arc::clone(server.inner()), shim, ProcessId(0), AppId(0));

        ram.closed.store(true, Ordering::SeqCst);
        let h = agent.open("/wide");
        wait_until("every I/O client stalls", || ram.waiting.load(Ordering::SeqCst) == io_clients);
        // A second touch of each tail segment makes it a demand fetch.
        for _ in 0..2 {
            for i in 20..24 {
                let data = agent.read(&h, ByteRange::new(mib(i), 4096)).unwrap();
                assert_eq!(&data[..], &expected(mib(i), 4096)[..]);
            }
        }
        let file = agent.file_id("/wide").unwrap();
        let auditor = server.inner().auditor();
        wait_until("a pass drains the reads", || {
            let last = SegmentId::new(file, 23);
            auditor.stat(last).is_some_and(|st| st.frequency == 2) && auditor.pending_updates() == 0
        });
        ram.closed.store(false, Ordering::SeqCst);
        agent.close(&h);
        finish(server);
        done.send(()).unwrap();
    });
    // A blocked engine never settles, and dropping its server would join
    // the blocked thread: leave it behind and fail.
    if settled.recv_timeout(Duration::from_secs(60)).is_err() && !scenario.is_finished() {
        panic!("the server did not settle within 60 s: the engine blocked on the job channel");
    }
    if let Err(panic) = scenario.join() {
        std::panic::resume_unwind(panic);
    }
}
