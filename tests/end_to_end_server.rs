//! End-to-end tests of the real-thread HFetch server: multiple agents,
//! epochs, data correctness, invalidation, and hierarchical promotion.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hfetch::prelude::*;

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

#[test]
fn epoch_end_eviction_frees_the_hierarchy() {
    let server = server();
    let shim = Arc::clone(server.shim());
    shim.stage_file("/tmpfile", mib(2)).unwrap();
    let agent = HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(&shim), ProcessId(0), AppId(0));
    let h = agent.open("/tmpfile");
    server.quiesce();
    let file = agent.file_id("/tmpfile").unwrap();
    let cached: u64 =
        (0..3u16).map(|i| server.inner().backend(TierId(i)).resident_bytes(file)).sum();
    assert_eq!(cached, mib(2), "fully staged during the epoch");
    agent.close(&h);
    server.quiesce();
    let cached: u64 =
        (0..3u16).map(|i| server.inner().backend(TierId(i)).resident_bytes(file)).sum();
    assert_eq!(cached, 0, "dropped when the last reader closed");
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
