//! Quickstart: run a real HFetch server and read through an agent.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Starts the full real-thread stack (event queue → monitor daemons →
//! auditor → placement engine → I/O clients) over an in-memory hierarchy,
//! stages a dataset on the backing store, and reads it through an HFetch
//! agent. The first pass warms the hierarchy; the second pass shows the
//! hit ratio.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hfetch::prelude::*;

fn main() {
    // RAM → NVMe → burst buffers → PFS, with laptop-sized budgets.
    let hierarchy = Hierarchy::with_budgets(mib(8), mib(16), mib(32));
    println!("Hierarchy:\n{}\n", hierarchy.describe());

    let server = HFetchServer::in_memory(HFetchConfig::default(), hierarchy);
    let shim = Arc::clone(server.shim());

    // Stage a 16 MiB dataset on the backing store (the PFS).
    shim.stage_file("/data/quickstart.dat", mib(16)).expect("stage dataset");

    let agent = HFetchAgent::new(
        Arc::clone(server.inner()),
        Arc::clone(&shim),
        ProcessId(0),
        AppId(0),
    );

    // Opening with read intent starts the prefetching epoch: the server
    // stages the file across the hierarchy in the background.
    let handle = agent.open("/data/quickstart.dat");
    server.quiesce(); // wait for the epoch staging to land (demo only)

    // Sequential read pass.
    let mut total = 0u64;
    loop {
        let chunk = agent.read_next(&handle, mib(1)).expect("read");
        total += chunk.len() as u64;
        if total >= mib(16) {
            break;
        }
    }
    println!(
        "read {} — agent hit ratio: {:.1}%",
        fmt_bytes(total),
        agent.stats().hit_ratio().unwrap_or(0.0) * 100.0
    );

    let stats = server.stats();
    println!(
        "server: prefetched {}, hits {}, misses {}, engine runs {}",
        fmt_bytes(stats.prefetched_bytes.load(Ordering::Relaxed)),
        fmt_bytes(stats.hit_bytes.load(Ordering::Relaxed)),
        fmt_bytes(stats.miss_bytes.load(Ordering::Relaxed)),
        stats.engine_runs.load(Ordering::Relaxed),
    );

    // Peek at the file's heatmap: the auditor has been scoring segments.
    let file = agent.file_id("/data/quickstart.dat").unwrap();
    let heatmap = server
        .inner()
        .auditor()
        .snapshot_heatmap(file, server.inner().clock().now());
    println!(
        "heatmap: {} segments, {} hot (score > 0.1), hottest = segment {}",
        heatmap.segments(),
        heatmap.hot_segments(0.1),
        heatmap.hottest_first()[0],
    );

    agent.close(&handle);
    server.shutdown();
    println!("done.");
}
